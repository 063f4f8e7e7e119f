"""Serialization for every report the package emits.

Each output is one `Table`: its fields as (key, attribute, kind) rows, the
constructor `read` hands the read values to (in field order), and constant
keys such as "kind".  One `write` and one `read` walk every table, and
`to_csv` / `from_csv` give a table's rows as CSV under a header of its keys.
The kinds say how a field prints and how it reads back:

- INT, RAW and FLAG: JSON numbers, strings, null and booleans as they are
  (INT reads back through int(), FLAG also from CSV's "true"/"false");
- MPF: a certified decimal, read back as an mpf;
- FLOAT: a float64 decimal, read back as a float;
- FIELD: an exact scalar as reduced fractions in the theta-power basis
  ("a0/q0,a1/q1,...");
- VECTORS: ring elements as lists of integer coefficients;
- COMPLEX: a certified complex value as [re, im];
- _nested(table) and _list(kind, ...): a nested table, and a list whose
  items take the given kinds in turn, read back as a tuple.

An attribute None stands for the object itself (a report that is one
list), and a tuple is written by position.  Decimal strings carry
precision_bits/3.32 significant digits.  JSON is emitted with sorted keys
and compact separators so that identical inputs give byte-identical output,
and every table reads back what it writes.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from fractions import Fraction
from typing import Callable, NamedTuple, Union

from mpmath import mp

from .empirical import (BlockMaximum, Cluster, ClusterReport,
                        IntervalEstimate, TranslatedReport)
from .pisot import FieldElement, PisotNumber, RingElement, _to_mpf, build_pisot
from .spectrum import SpectrumCandidate
from .transform import MuHatResult, SeriesItem

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
    parses as a finite float and is marked "real" for reports.
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
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value, "real"


def to_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


# ---------------------------------------------------------------------------
# Field kinds: (put(value, pb) -> JSON value, get(JSON value, pb, P) -> value)

# The kinds call these private names: a tracer that wraps the public
# functions then records one span per written output, not one per field.
_decimal, _field_str, _scalar = decimal_str, field_to_str, parse_scalar


def _same(value, *_):
    return value


INT = (_same, lambda s, *_: int(s))
RAW = (_same, _same)
FLAG = (_same, lambda s, *_: s is True or s == "true")
MPF = (_decimal, lambda s, pb, P: parse_decimal(s, pb))
FLOAT = (_decimal, lambda s, pb, P: float(parse_decimal(s, pb)))
FIELD = (lambda v, pb: _field_str(v), lambda s, pb, P: _scalar(P, s)[0])
VECTORS = (lambda v, pb: [list(z.coeffs) for z in v],
           lambda s, pb, P: tuple(P.ring(tuple(int(c) for c in vec))
                                  for vec in s))
COMPLEX = (lambda v, pb: [_decimal(v.real, pb), _decimal(v.imag, pb)],
           lambda s, pb, P: mp.mpc(parse_decimal(s[0], pb),
                                   parse_decimal(s[1], pb)))


def _list(*kinds):
    """Items taking the kinds in turn (one kind: every item); a None item
    (a match without a candidate) stays null."""
    def put(v, pb):
        return [None if x is None else p(x, pb)
                for x, (p, _) in zip(v, itertools.cycle(kinds))]

    def get(s, pb, P):
        return tuple(None if x is None else g(x, pb, P)
                     for x, (_, g) in zip(s, itertools.cycle(kinds)))
    return put, get


def _nested(table):
    return (lambda v, pb: _write(table, v, pb),
            lambda s, pb, P: read(table, s, pb, P))


# ---------------------------------------------------------------------------
# Tables


def _tuple(*values):
    return values


def _itself(value):
    return value


class Table(NamedTuple):
    """One output: (key, attribute, kind) fields, the constructor that read
    passes the values to in field order, and constant keys."""
    fields: tuple
    make: Callable
    const: dict


def _table(make, *fields, **const) -> Table:
    """A Table; a (key, kind) field reads the attribute named key."""
    return Table(tuple(f if len(f) == 3 else (f[0], f[0], f[1])
                       for f in fields), make, const)


def _write(table, obj, pb) -> dict:
    out = dict(table.const)
    for i, (key, attr, (put, _)) in enumerate(table.fields):
        value = (obj if attr is None else obj[i] if isinstance(obj, tuple)
                 else getattr(obj, attr))
        out[key] = put(value, pb)
    return out


def write(table: Table, obj, precision_bits: int = 256, **echo) -> dict:
    """obj's fields as table prints them, plus the echo keys as given."""
    return {**_write(table, obj, precision_bits), **echo}


def read(table: Table, obj: dict, precision_bits: int = 256,
         P: PisotNumber | None = None):
    """The object a written table describes.  P is needed for FIELD and
    VECTORS fields; keys the table does not declare are ignored."""
    return table.make(*(get(obj[key], precision_bits, P)
                        for key, _, (_, get) in table.fields))


def _cell(value):
    return ("true" if value else "false") if isinstance(value, bool) else value


def to_csv(table: Table, rows, precision_bits: int = 256) -> str:
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(key for key, _, _ in table.fields)
    for row in rows:
        out.writerow(map(_cell, _write(table, row, precision_bits).values()))
    return buf.getvalue()


def from_csv(table: Table, text: str, precision_bits: int = 256,
             P: PisotNumber | None = None) -> list:
    rows = csv.reader(io.StringIO(text))
    keys = [key for key, _, _ in table.fields]
    if next(rows, None) != keys:
        raise ValueError(f"expected header {','.join(keys)}")
    return [read(table, dict(zip(keys, row)), precision_bits, P)
            for row in rows if row]


def _rebuilt_base(d, theta, conjugates, rho, precision_bits) -> PisotNumber:
    """The base rebuilt from its digits, checked against the recorded theta."""
    P = build_pisot(d, precision_bits=precision_bits)
    recorded = parse_decimal(theta, P.precision_bits)
    with mp.workprec(P.precision_bits + 16):
        if abs(recorded - P.theta) > mp.mpf(2) ** (-P.precision_bits // 2):
            raise ValueError("recorded theta does not match the polynomial")
    return P


# theta reads back as its text, which _rebuilt_base parses at the recorded
# precision
PISOT = _table(_rebuilt_base, ("d", _list(INT)),
               ("theta", (_decimal, _same)), ("conjugates", _list(COMPLEX)),
               ("rho", MPF), ("precision_bits", INT))
VALUE = _table(MuHatResult, ("value", MPF), ("error_bound", MPF),
               ("truncation_index", INT), ("contains_zero", FLAG),
               kind="value")
# one item of a series; also the CSV rows of eval and sample
SERIES_ITEM = _table(SeriesItem, ("n", INT), ("t", MPF), ("value", MPF),
                     ("error_bound", MPF), ("contains_zero", FLAG))
SERIES = _table(_itself, ("items", None, _list(_nested(SERIES_ITEM))),
                kind="series")
TRACE = _table(_tuple, ("N", INT), ("K", _list(INT)), ("delta", _list(MPF)),
               ("exceed_set", _list(INT)), kind="trace")
# written from (delta, violations, ok)
RECURRENCE = _table(_tuple, ("delta", FIELD), ("violations", _list(INT)),
                    ("ok", FLAG), kind="recurrence")
# written from phi's (value, error_bound)
PHI = _table(_tuple, ("value", MPF), ("error_bound", MPF), kind="phi")
PHI_LAMBDA = PHI._replace(const={"kind": "phi_lambda"})
LIMIT = _table(_tuple, ("z", "z_list", VECTORS), ("A", INT),
               ("value", "predicted", MPF), ("error_bound", MPF),
               kind="limit")
CANDIDATE = _table(SpectrumCandidate, ("z", "z_list", VECTORS), ("A", INT),
                   ("r", FIELD), ("predicted", MPF),
                   ("error", "error_bound", MPF), ("id", RAW))
CANDIDATES = _table(_itself, ("items", None, _list(_nested(CANDIDATE))),
                    kind="candidates")
# written from (z_list, n)
SYNTHESIS = _table(_tuple, ("z", "z_list", VECTORS), ("n", INT),
                   kind="synthesize")
CLUSTER = _table(Cluster, ("center", FLOAT), ("min", FLOAT), ("max", FLOAT),
                 ("count", INT), ("witnesses", _list(INT)))
# matches rows are (cluster index, candidate id or None, distance or None)
CLUSTERS = _table(ClusterReport, ("r", FLOAT), ("N", INT), ("eta", RAW),
                  ("gap", RAW), ("n_min", INT), ("seed", INT),
                  ("clusters", _list(_nested(CLUSTER))),
                  ("matches", _list(_list(INT, RAW, FLOAT))),
                  ("empty_retention", FLAG), kind="clusters", max_gap=None)
INTERVAL = _table(IntervalEstimate, ("lower", FLOAT), ("upper", FLOAT),
                  ("count", INT), ("max_gap", FLOAT), ("max_gap_rel", FLOAT),
                  ("empty_retention", FLAG), kind="interval")
# a translated cluster is ((re, im), count)
TRANSLATED_CLUSTER = _table(_tuple, ("center", _list(FLOAT)), ("count", INT))
TRANSLATED = _table(TranslatedReport, ("r", FLOAT), ("gamma", FLOAT),
                    ("N", INT), ("eta", RAW), ("seed", INT),
                    ("cluster_count", INT),
                    ("clusters", _list(_nested(TRANSLATED_CLUSTER))),
                    ("coverage", RAW), ("dominant_radius", FLOAT),
                    ("empty_retention", FLAG), kind="translated")
DISCREPANCY = _table(_itself, ("d_star", None, FLOAT), kind="discrepancy")
BLOCK = _table(BlockMaximum, ("k", INT), ("start", INT), ("stop", INT),
               ("value", FLOAT))
BLOCKS = _table(_itself, ("blocks", None, _list(_nested(BLOCK))),
                kind="decay_blocks")
