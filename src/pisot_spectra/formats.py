"""Serialization for every report the package emits.

Decimal strings carry precision_bits/3.32 significant digits; field elements
travel as comma-separated reduced fractions in the theta-power basis
("a0/q0,a1/q1,...").  JSON is emitted with sorted keys and compact
separators so that identical inputs give byte-identical output, and every
emitter here has a matching parser that round-trips.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Union

from mpmath import mp

from .empirical import (BlockMaximum, Cluster, ClusterReport,
                        IntervalEstimate, TranslatedReport)
from .pisot import FieldElement, PisotNumber, RingElement, _to_mpf, build_pisot
from .spectrum import SpectrumCandidate
from .transform import SeriesItem

# one decimal digit per 3.32 bits (log2 10)
BITS_PER_DIGIT = 3.32

ScalarLike = Union[int, Fraction, FieldElement, RingElement, float]


def significant_digits(precision_bits: int) -> int:
    return max(2, int(precision_bits / BITS_PER_DIGIT))


def decimal_str(x, precision_bits: int = 256) -> str:
    """Deterministic decimal rendering at the precision-implied digit count."""
    digits = significant_digits(precision_bits)
    with mp.workprec(precision_bits + 16):
        return mp.nstr(_to_mpf(x), digits)


def parse_decimal(s: str, precision_bits: int = 256) -> mp.mpf:
    with mp.workprec(precision_bits + 16):
        return mp.mpf(s.strip())


def field_to_str(x: ScalarLike) -> str:
    """Reduced-fraction coordinate string of an exact scalar."""
    if isinstance(x, RingElement):
        x = x.to_field()
    if isinstance(x, FieldElement):
        coords = x.coeffs
    else:
        coords = (Fraction(x),)
    return ",".join(f"{c.numerator}/{c.denominator}" for c in coords)


def parse_field_str(P: PisotNumber, s: str) -> FieldElement:
    """Inverse of field_to_str; single coordinates broadcast over the basis."""
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty field-element string")
    coords = [Fraction(p) for p in parts]
    if len(coords) == 1:
        return P.field(coords[0])
    if len(coords) != P.m:
        raise ValueError(f"need 1 or {P.m} coordinates, got {len(coords)}")
    return P.field(tuple(coords))


def parse_scalar(P: PisotNumber | None, s: str):
    """Parse an exact ("field") or decimal ("real") scalar from CLI text.

    Returns (value, kind).  Exact inputs are integers or fraction lists and
    need P when they use more than one basis coordinate; anything else
    parses as a float and is marked "real" for reports.
    """
    text = s.strip()
    try:
        return int(text), "field"
    except ValueError:
        pass
    if "/" in text or "," in text:
        parts = [p.strip() for p in text.split(",") if p.strip()]
        coords = [Fraction(p) for p in parts]
        if len(coords) == 1:
            return coords[0], "field"
        if P is None:
            raise ValueError("multi-coordinate scalar needs a base polynomial")
        return parse_field_str(P, text), "field"
    return float(text), "real"


def to_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Pisot number


def pisot_to_dict(P: PisotNumber) -> dict:
    pb = P.precision_bits
    with mp.workprec(pb + 16):
        conj = [[decimal_str(mp.re(c), pb), decimal_str(mp.im(c), pb)]
                for c in P.conjugates]
    return {
        "d": list(P.d),
        "theta": decimal_str(P.theta, pb),
        "conjugates": conj,
        "rho": decimal_str(P.rho, pb),
        "precision_bits": pb,
    }


def pisot_from_dict(obj: dict) -> PisotNumber:
    P = build_pisot(tuple(int(c) for c in obj["d"]),
                    precision_bits=int(obj["precision_bits"]))
    recorded = parse_decimal(obj["theta"], P.precision_bits)
    with mp.workprec(P.precision_bits + 16):
        if abs(recorded - P.theta) > mp.mpf(2) ** (-P.precision_bits // 2):
            raise ValueError("recorded theta does not match the polynomial")
    return P


# ---------------------------------------------------------------------------
# Spectrum candidates


def candidate_to_dict(c: SpectrumCandidate, precision_bits: int = 256) -> dict:
    return {
        "z": [list(z.coeffs) for z in c.z_list],
        "A": c.A,
        "r": field_to_str(c.r),
        "predicted": decimal_str(c.predicted, precision_bits),
        "error": decimal_str(c.error_bound, precision_bits),
        "id": c.id,
    }


def candidate_from_dict(P: PisotNumber, obj: dict,
                        precision_bits: int = 256) -> SpectrumCandidate:
    return SpectrumCandidate(
        z_list=tuple(P.ring(tuple(int(c) for c in vec)) for vec in obj["z"]),
        A=int(obj["A"]),
        r=parse_field_str(P, obj["r"]),
        predicted=parse_decimal(obj["predicted"], precision_bits),
        error_bound=parse_decimal(obj["error"], precision_bits),
        id=obj["id"],
    )


# ---------------------------------------------------------------------------
# Empirical reports


def cluster_report_to_dict(rep: ClusterReport,
                           precision_bits: int = 256) -> dict:
    ds = lambda v: decimal_str(v, precision_bits)
    return {
        "kind": "clusters",
        "seed": rep.seed,
        "r": ds(rep.r),
        "N": rep.N,
        "eta": rep.eta,
        "gap": rep.gap,
        "n_min": rep.n_min,
        "empty_retention": rep.empty_retention,
        "clusters": [{
            "center": ds(c.center),
            "min": ds(c.min),
            "max": ds(c.max),
            "count": c.count,
            "witnesses": list(c.witnesses),
        } for c in rep.clusters],
        "matches": [[i, cid, None if dist is None else ds(dist)]
                    for i, cid, dist in rep.matches],
        "max_gap": None,
    }


def cluster_report_from_dict(obj: dict,
                             precision_bits: int = 256) -> ClusterReport:
    pf = lambda s: float(parse_decimal(s, precision_bits))
    clusters = tuple(Cluster(center=pf(c["center"]), min=pf(c["min"]),
                             max=pf(c["max"]), count=int(c["count"]),
                             witnesses=tuple(int(w) for w in c["witnesses"]))
                     for c in obj["clusters"])
    matches = tuple((int(i), cid, None if dist is None else pf(dist))
                    for i, cid, dist in obj["matches"])
    return ClusterReport(r=pf(obj["r"]), N=int(obj["N"]), eta=obj["eta"],
                         gap=obj["gap"], n_min=int(obj["n_min"]),
                         seed=int(obj["seed"]), clusters=clusters,
                         matches=matches,
                         empty_retention=bool(obj["empty_retention"]))


def interval_to_dict(est: IntervalEstimate, precision_bits: int = 256,
                     **context) -> dict:
    ds = lambda v: decimal_str(v, precision_bits)
    out = {
        "kind": "interval",
        "lower": ds(est.lower),
        "upper": ds(est.upper),
        "count": est.count,
        "max_gap": ds(est.max_gap),
        "max_gap_rel": ds(est.max_gap_rel),
    }
    out.update(context)
    return out


def interval_from_dict(obj: dict,
                       precision_bits: int = 256) -> IntervalEstimate:
    pf = lambda s: float(parse_decimal(s, precision_bits))
    return IntervalEstimate(lower=pf(obj["lower"]), upper=pf(obj["upper"]),
                            count=int(obj["count"]),
                            max_gap=pf(obj["max_gap"]),
                            max_gap_rel=pf(obj["max_gap_rel"]))


def translated_report_to_dict(rep: TranslatedReport,
                              precision_bits: int = 256) -> dict:
    ds = lambda v: decimal_str(v, precision_bits)
    return {
        "kind": "translated",
        "seed": rep.seed,
        "r": ds(rep.r),
        "gamma": ds(rep.gamma),
        "N": rep.N,
        "eta": rep.eta,
        "empty_retention": rep.empty_retention,
        "cluster_count": rep.cluster_count,
        "clusters": [{"center": [ds(re), ds(im)], "count": count}
                     for (re, im), count in rep.clusters],
        "coverage": rep.coverage,
        "dominant_radius": ds(rep.dominant_radius),
    }


def translated_report_from_dict(obj: dict,
                                precision_bits: int = 256) -> TranslatedReport:
    pf = lambda s: float(parse_decimal(s, precision_bits))
    clusters = tuple(((pf(c["center"][0]), pf(c["center"][1])),
                      int(c["count"])) for c in obj["clusters"])
    return TranslatedReport(r=pf(obj["r"]), gamma=pf(obj["gamma"]),
                            N=int(obj["N"]), eta=obj["eta"],
                            seed=int(obj["seed"]),
                            cluster_count=int(obj["cluster_count"]),
                            clusters=clusters, coverage=obj["coverage"],
                            dominant_radius=pf(obj["dominant_radius"]),
                            empty_retention=bool(obj["empty_retention"]))


def blocks_to_dict(blocks, precision_bits: int = 256) -> dict:
    ds = lambda v: decimal_str(v, precision_bits)
    return {
        "kind": "decay_blocks",
        "blocks": [{"k": b.k, "start": b.start, "stop": b.stop,
                    "value": ds(b.value)} for b in blocks],
    }


def blocks_from_dict(obj: dict, precision_bits: int = 256) -> tuple:
    pf = lambda s: float(parse_decimal(s, precision_bits))
    return tuple(BlockMaximum(k=int(b["k"]), start=int(b["start"]),
                              stop=int(b["stop"]), value=pf(b["value"]))
                 for b in obj["blocks"])


# ---------------------------------------------------------------------------
# CSV sample stream


CSV_HEADER = ("n", "t", "value", "error_bound", "contains_zero")


def series_to_csv(items, precision_bits: int = 256) -> str:
    ds = lambda v: decimal_str(v, precision_bits)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for item in items:
        writer.writerow([item.n, ds(item.t), ds(item.value),
                         ds(item.error_bound),
                         "true" if item.contains_zero else "false"])
    return buf.getvalue()


def series_from_csv(text: str, precision_bits: int = 256) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise ValueError(f"expected header {','.join(CSV_HEADER)}")
    items = []
    for row in rows[1:]:
        if not row:
            continue
        n, t, value, err, zero = row
        items.append(SeriesItem(n=int(n),
                                t=parse_decimal(t, precision_bits),
                                value=parse_decimal(value, precision_bits),
                                error_bound=parse_decimal(err, precision_bits),
                                contains_zero=(zero == "true")))
    return items
