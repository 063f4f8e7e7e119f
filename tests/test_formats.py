"""Round trips and determinism of the serialization layer."""
import math
from fractions import Fraction

import pytest
from mpmath import mp

from pisot_spectra import (
    build_pisot,
    coefficient_series,
    decay_check,
    enumerate_spectrum,
    interval_fill_test,
    sample_and_cluster,
    translated_sample,
)
from pisot_spectra import formats

GOLDEN = build_pisot((1, 1))
TRIBONACCI = build_pisot((1, 1, 1))


def test_digit_budget_follows_precision():
    assert formats.significant_digits(256) == 77
    assert formats.significant_digits(128) == 38
    assert formats.significant_digits(64) == 19
    assert formats.significant_digits(1) == 2


def test_decimal_strings_round_trip_and_repeat():
    with mp.workprec(300):
        x = mp.sqrt(2) / 7
    a = formats.decimal_str(x, 256)
    b = formats.decimal_str(x, 256)
    assert a == b
    back = formats.parse_decimal(a, 256)
    with mp.workprec(300):
        assert abs(back - x) < mp.mpf(10) ** -70
    assert formats.decimal_str(Fraction(1, 2), 256) == "0.5"


def test_field_element_strings_round_trip():
    w = GOLDEN.field((Fraction(1, 2), Fraction(-3, 4)))
    s = formats.field_to_str(w)
    assert s == "1/2,-3/4"
    assert formats.parse_field_str(GOLDEN, s).coeffs == w.coeffs
    assert formats.field_to_str(GOLDEN.ring((2, 1))) == "2/1,1/1"
    assert formats.field_to_str(Fraction(5, 3)) == "5/3"
    # single coordinate broadcasts to the rational element
    assert formats.parse_field_str(GOLDEN, "7/2").coeffs == (Fraction(7, 2), 0)
    with pytest.raises(ValueError):
        formats.parse_field_str(GOLDEN, "")
    with pytest.raises(ValueError):
        formats.parse_field_str(TRIBONACCI, "1/2,1/2")


def test_parse_scalar_marks_kind():
    assert formats.parse_scalar(GOLDEN, "2") == (2, "field")
    assert formats.parse_scalar(GOLDEN, "1/2") == (Fraction(1, 2), "field")
    w, kind = formats.parse_scalar(GOLDEN, "0/1,1/1")
    assert kind == "field" and w.coeffs == (0, 1)
    v, kind = formats.parse_scalar(GOLDEN, "0.35")
    assert kind == "real" and v == 0.35
    with pytest.raises(ValueError):
        formats.parse_scalar(None, "1/2,1/2")
    # a decimal scalar must name a finite number
    for text in ("inf", "-inf", "nan", "1e400"):
        with pytest.raises(ValueError, match="finite"):
            formats.parse_scalar(GOLDEN, text)


def test_json_output_refuses_non_finite_floats():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            formats.to_json({"eta": value})


def test_pisot_json_round_trip():
    for P in (GOLDEN, TRIBONACCI):
        obj = formats.write(formats.PISOT, P)
        assert set(obj) == {"d", "theta", "conjugates", "rho",
                            "precision_bits"}
        assert len(obj["conjugates"]) == P.m - 1
        back = formats.read(formats.PISOT, obj)
        assert back.d == P.d
        assert back.precision_bits == P.precision_bits


def test_pisot_json_rejects_tampered_theta():
    obj = formats.write(formats.PISOT, GOLDEN)
    obj["theta"] = "1.5"
    with pytest.raises(ValueError):
        formats.read(formats.PISOT, obj)


def test_candidate_round_trip():
    cands = enumerate_spectrum(GOLDEN, 1, 2, 2, 3, eta=1e-3)
    for c in cands:
        obj = formats.write(formats.CANDIDATE, c)
        assert set(obj) == {"z", "A", "r", "predicted", "error", "id"}
        back = formats.read(formats.CANDIDATE, obj, P=GOLDEN)
        assert back.id == c.id and back.A == c.A
        assert [z.coeffs for z in back.z_list] == [z.coeffs for z in c.z_list]
        assert back.r.coeffs == c.r.coeffs
        with mp.workprec(300):
            assert abs(back.predicted - c.predicted) < mp.mpf(10) ** -70


def test_cluster_report_round_trip():
    cands = enumerate_spectrum(GOLDEN, 1, 2, 2, 3, eta=1e-3)
    rep = sample_and_cluster(GOLDEN, 1, 2 * 10**5, 2e-3, candidates=cands)
    obj = formats.write(formats.CLUSTERS, rep)
    for key in ("seed", "r", "N", "eta", "clusters", "matches", "max_gap"):
        assert key in obj
    back = formats.read(formats.CLUSTERS, obj)
    assert back == rep


def test_interval_round_trip_with_context():
    est = interval_fill_test(GOLDEN, 1.37, 10**4)
    obj = formats.write(formats.INTERVAL, est, r="1.37", N=10**4)
    assert obj["kind"] == "interval" and obj["r"] == "1.37"
    assert formats.read(formats.INTERVAL, obj) == est


def test_translated_report_round_trip():
    rep = translated_sample(GOLDEN, 1, 0.5044324023878307, 10**5, 1e-4)
    back = formats.read(formats.TRANSLATED,
                        formats.write(formats.TRANSLATED, rep))
    assert back == rep


def test_decay_blocks_round_trip():
    blocks = decay_check(GOLDEN, 100)
    back = formats.read(formats.BLOCKS, formats.write(formats.BLOCKS, blocks))
    assert back == blocks


def test_series_csv_round_trip():
    items = list(coefficient_series(GOLDEN, Fraction(1, 2), 5))
    text = formats.to_csv(formats.SERIES_ITEM, items)
    lines = text.splitlines()
    assert lines[0] == "n,t,value,error_bound,contains_zero"
    assert len(lines) == 6
    back = formats.from_csv(formats.SERIES_ITEM, text)
    assert [b.n for b in back] == [1, 2, 3, 4, 5]
    with mp.workprec(320):
        for a, b in zip(items, back):
            assert abs(a.value - b.value) < mp.mpf(10) ** -70
            assert a.contains_zero == b.contains_zero
    with pytest.raises(ValueError):
        formats.from_csv(formats.SERIES_ITEM, "wrong,header\n1,2")


def test_json_emitter_is_stable():
    obj = formats.write(formats.PISOT, GOLDEN)
    assert formats.to_json(obj) == formats.to_json(dict(reversed(obj.items())))
    assert formats.to_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
