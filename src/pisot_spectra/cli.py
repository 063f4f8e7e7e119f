"""Command-line driver.

Every library operation is reachable as `pisot <subcommand>` with
machine-readable output: JSON by default, CSV where a row stream makes
sense.  Identical invocations (including --seed) produce byte-identical
output.

Each subcommand is declared once, by one `sub(...)` call in
`build_parser`: its handler, which shared flags it takes, its own flags
and which flags exclude each other.  Range checks are the flags' argparse
types.  `main` applies the flag defaults, resolves the precision, builds
the base from --poly, calls the handler and prints what it returns as
JSON.  A handler parses its scalar flags through `_parsed`, calls the
library and hands the result object (a report, a value with its bound, a
list of items) and the flags to echo to `formats.write`, which prints each
field by its kind in the output's table; CSV rows go through
`formats.to_csv` and the same tables.

Exit codes: 0 success; 1 usage, including a flag value outside its range
or not a number (--tol or --gap <= 0, --eta < 0, a --match-tol that is
not positive and finite, precision below 64 bits or not an integer, also
in $PISOT_PRECISION_BITS; a scalar or integer
list such as --t abc, --t 1/0 or --x 1,a; a scalar or --alpha that is not
finite, such as --t inf), a flag the chosen output does not read, and an
--out file that cannot be written; 2 domain failure (not Pisot, a value
the library rejects such as tol >= 1/2, an --r that is not positive, an
empty index range, a non-finite --eta, --gap or --theta, budget); 3
precision exhaustion, ambiguous rounding, or a float64 batch whose derived
error bound exceeds its tolerance.  No output prints NaN or Infinity.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction

from . import formats
from .empirical import (_rows, _sample_start, decay_check, discrepancy,
                        estimate_J, interval_fill_test, sample_and_cluster,
                        translated_sample)
from .errors import (AmbiguousRoundingError, PisotSpectraError,
                     PrecisionExhaustedError)
from .pisot import FieldElement, PisotNumber, build_pisot, embed
from .spectrum import (DEFAULT_BUDGET, enumerate_spectrum, limit_value,
                       phi_biinfinite, phi_lambda, synthesize_sequence)
from .transform import (check_recurrence, coefficient_series, digit_trace,
                        mu_hat)

# overrides the default working precision for every subcommand
ENV_PRECISION = "PISOT_PRECISION_BITS"
# sample flags that only the clustered report reads
REPORT_FLAGS = ("eta", "gap", "seed", "match_height", "match_m_max",
                "match_a_max", "match_eta", "match_tol")


class UsageError(Exception):
    """Bad flag combination detected after argparse accepted the input."""


class _Parser(argparse.ArgumentParser):
    # usage failures exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _poly_arg(text: str) -> tuple:
    try:
        coeffs = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"polynomial must be comma-separated integers, got {text!r}")
    if not coeffs:
        raise argparse.ArgumentTypeError("polynomial needs at least one digit")
    return coeffs


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}")


def _ranged(kind, ok, rule):
    """argparse type: a `kind` number for which ok(value) holds."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value
    return parse


_POSITIVE = _ranged(float, lambda v: v > 0, "must be positive")
_POSITIVE_FINITE = _ranged(float, lambda v: 0 < v < math.inf,
                           "must be positive and finite")
# a NaN eta passes here and meets the library's own checks
_NONNEGATIVE = _ranged(float, lambda v: not v < 0, "must be nonnegative")
_BITS = _ranged(int, lambda v: v >= 64, "precision bits must be at least 64")
_FINITE = _ranged(float, math.isfinite, "must be finite")


def _arg(flag, **kw):
    """One flag of a subcommand: its name and add_argument keywords."""
    return flag, kw


def _parsed(parse, text, *args):
    """parse(*args, text) of a flag's text.  Text that does not parse is a
    usage error (exit 1), not a value the library rejects (exit 2)."""
    try:
        return parse(*args, text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {text!r}: {exc}") from None


def _scalar(P: PisotNumber, text: str):
    """A scalar flag as formats.parse_scalar reads it: (value, kind)."""
    return _parsed(formats.parse_scalar, text, P)


def _ints(text: str) -> list:
    return [int(p) for p in text.split(",") if p.strip()]


def _point(P: PisotNumber, text: str):
    """A scalar flag as a real number (field elements embedded), its kind."""
    value, kind = _scalar(P, text)
    return (embed(value, 1) if isinstance(value, FieldElement) else value,
            kind)


def _parse_z_vectors(P: PisotNumber, text: str) -> tuple:
    """Semicolon-separated coefficient vectors, zero-padded to the degree."""
    out = []
    for part in text.split(";"):
        coeffs = _parsed(_ints, part)
        if not coeffs or len(coeffs) > P.m:
            raise UsageError(
                f"each z vector needs 1..{P.m} integer coefficients")
        out.append(P.ring(tuple(coeffs) + (0,) * (P.m - len(coeffs))))
    return tuple(out)


# ---------------------------------------------------------------------------
# subcommand handlers: run(args, P, pb) returns what formats.write makes of
# its result object and echoed flags, or the CSV text from formats.to_csv.
# P is the base built from --poly (None without it) and pb the working
# precision.


def _cmd_check(args, P, pb):
    return formats.write(formats.PISOT, P, pb)


def _cmd_eval(args, P, pb):
    if args.t is not None:
        if args.fast or args.count is not None or args.fmt == "csv":
            raise UsageError("eval --t takes no --fast, --count or csv")
        value, kind = _point(P, args.t)
        return formats.write(formats.VALUE, mu_hat(P, value, tol=args.tol),
                             pb, t=args.t, t_kind=kind)
    if args.count is None:
        raise UsageError("eval --r needs --count")
    r, kind = _scalar(P, args.r)
    if args.count < 0:
        raise ValueError(f"the index range 1..N is empty at N = {args.count}")
    items = (_rows(P, r, 1, args.count) if args.fast else
             list(coefficient_series(P, r, args.count, tol=args.tol)))
    if args.fmt == "csv":
        return formats.to_csv(formats.SERIES_ITEM, items, pb)
    return formats.write(formats.SERIES, items, pb, r=args.r, r_kind=kind,
                         N=args.count)


def _cmd_trace(args, P, pb):
    y, kind = _point(P, args.y)
    trace = digit_trace(P, y, args.count, delta=args.delta)
    return formats.write(formats.TRACE, trace, pb, y=args.y, y_kind=kind)


def _cmd_recur(args, P, pb):
    y, kind = _point(P, args.y)
    delta = args.delta if args.delta is not None else P.delta_max / 2
    trace = digit_trace(P, y, args.count)
    violations = check_recurrence(trace, P, delta)
    return formats.write(formats.RECURRENCE,
                         (delta, violations, not violations), pb,
                         y=args.y, y_kind=kind, N=args.count)


def _cmd_phi(args, P, pb):
    if (args.lam is None) != (args.q is None):
        raise UsageError("phi takes --q together with --lam, not with --z")
    if args.lam is not None:
        lam, _ = _scalar(P, args.lam)
        q, _ = _scalar(P, args.q)
        return formats.write(formats.PHI_LAMBDA,
                             phi_lambda(P, lam, q, tol=args.tol), pb,
                             lam=args.lam, q=args.q)
    z, _ = _scalar(P, args.z)
    return formats.write(formats.PHI, phi_biinfinite(P, z, tol=args.tol), pb,
                         z=args.z)


def _cmd_limit(args, P, pb):
    z_list = _parse_z_vectors(P, args.z)
    r, kind = _scalar(P, args.r)
    cand = limit_value(P, z_list, args.A, r, tol=args.tol)
    return formats.write(formats.LIMIT, cand, pb, r=args.r, r_kind=kind)


def _cmd_enumerate(args, P, pb):
    r, kind = _scalar(P, args.r)
    cands = enumerate_spectrum(P, r, args.height, args.m_max, args.a_max,
                               tol=args.tol, eta=args.eta, budget=args.budget)
    return formats.write(formats.CANDIDATES, cands, pb, r=args.r,
                         r_kind=kind, height=args.height, m_max=args.m_max,
                         a_max=args.a_max, eta=args.eta, count=len(cands))


def _cmd_synthesize(args, P, pb):
    z_list = _parse_z_vectors(P, args.z)
    r, _ = _scalar(P, args.r)
    n = synthesize_sequence(P, z_list, args.A, r, args.k)
    return formats.write(formats.SYNTHESIS, (z_list, n), pb, A=args.A,
                         r=args.r, k=args.k)


def _cmd_sample(args, P, pb):
    r, kind = _scalar(P, args.r)
    if args.fmt == "csv":
        ignored = [d for d in REPORT_FLAGS if d in args.given]
        if ignored:
            raise UsageError("sample --format csv streams raw values and "
                             "takes no " + ", ".join(
                                 "--" + d.replace("_", "-") for d in ignored))
        # the report's index range: n_min (default N/2) up to N
        n_min = _sample_start(args.N, args.eta, args.gap, args.n_min)
        return formats.to_csv(formats.SERIES_ITEM,
                              _rows(P, r, n_min, args.N), pb)
    candidates = None
    if args.match_height is not None:
        candidates = enumerate_spectrum(P, r, args.match_height,
                                        args.match_m_max, args.match_a_max,
                                        eta=args.match_eta)
    rep = sample_and_cluster(P, r, args.N, args.eta, gap=args.gap,
                             n_min=args.n_min, candidates=candidates,
                             match_tol=args.match_tol, seed=args.seed)
    return formats.write(formats.CLUSTERS, rep, pb, r_kind=kind)


def _cmd_fill(args, P, pb):
    r, kind = _scalar(P, args.r)
    est = interval_fill_test(P, r, args.N, eta=args.eta)
    return formats.write(formats.INTERVAL, est, pb, r=args.r, r_kind=kind,
                         N=args.N, eta=args.eta, seed=args.seed)


def _cmd_jset(args, P, pb):
    if P is None:
        theta, label = args.theta, repr(args.theta)
    else:
        theta, label = P, ",".join(str(c) for c in args.poly)
    est = estimate_J(theta, args.t_max, grid_step=args.grid_step)
    return formats.write(formats.INTERVAL, est, pb, theta=label, T=args.t_max)


def _cmd_discrepancy(args, P, pb):
    if args.x is not None:
        xs = _parsed(_ints, args.x)
    else:
        xs = list(range(1, args.count + 1))
    return formats.write(formats.DISCREPANCY, discrepancy(args.alpha, xs), pb,
                         alpha=repr(args.alpha), count=len(xs))


def _cmd_translate(args, P, pb):
    r, r_kind = _scalar(P, args.r)
    gamma, g_kind = _scalar(P, args.gamma)
    rep = translated_sample(P, r, gamma, args.N, args.eta, gap=args.gap,
                            n_min=args.n_min, seed=args.seed)
    return formats.write(formats.TRANSLATED, rep, pb, r_kind=r_kind,
                         gamma_kind=g_kind)


def _cmd_decay(args, P, pb):
    blocks = decay_check(args.theta if P is None else P, args.N)
    if args.fmt == "csv":
        return formats.to_csv(formats.BLOCK, blocks, pb)
    return formats.write(formats.BLOCKS, blocks, pb)


# ---------------------------------------------------------------------------
# parser assembly


# argparse keeps no state between parse_args calls, so one parser serves
# every main() in a process; building it costs about 5 ms, more than many
# invocations spend on their own work
@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pisot", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", parser_class=_Parser,
                                 required=True, metavar="subcommand")

    def sub(name, run, help_text, *flags, poly="required", csv=False,
            tol=False, seed=False, eta=None, gap=False, one_of=(),
            at_most_one=()):
        """Declare subcommand `name` with handler `run`.

        poly: "required", "theta" (exactly one of --poly and --theta) or
        "none".  csv: --format csv is accepted.  tol, seed, gap: the flag
        is taken; eta: the --eta default, or None for no --eta.  one_of and
        at_most_one: tuples of flags of which exactly one, or at most one,
        may be given.
        """
        p = subs.add_parser(name, help=help_text)
        defaults = {}
        p.set_defaults(run=run, defaults=defaults)
        if poly == "theta":
            one_of += (("--poly", "--theta"),)
        groups = {}
        for required, pairs in ((True, one_of), (False, at_most_one)):
            for names in pairs:
                group = p.add_mutually_exclusive_group(required=required)
                groups.update(dict.fromkeys(names, group))

        def add(flag, default=None, **kw):
            # main applies the defaults after parsing, so that a flag the
            # command line did not give stays None until then
            action = groups.get(flag, p).add_argument(flag, **kw)
            if default is not None:
                defaults[action.dest] = default

        if poly != "none":
            add("--poly", type=_poly_arg, required=poly == "required",
                help="recurrence digits d1,d2,...,dm")
        if poly == "theta":
            add("--theta", type=float,
                help="base as a real number (alternative to --poly)")
        add("--precision-bits", type=_BITS,
            help=f"working precision (default 256, or ${ENV_PRECISION})")
        add("--format", dest="fmt", default="json",
            choices=("json", "csv") if csv else ("json",),
            help="output format (default json)")
        add("--out", help="write output to this file instead of stdout")
        if tol:
            add("--tol", type=_POSITIVE, default=1e-20,
                help="certified truncation tolerance (default 1e-20)")
        if seed:
            add("--seed", type=int, default=0,
                help="seed recorded in reports (default 0)")
        if eta is not None:
            add("--eta", type=_NONNEGATIVE, default=eta,
                help=f"retention floor (default {eta:g})")
        if gap:
            add("--gap", type=_POSITIVE, default=1e-3,
                help="cluster split gap (default 1e-3)")
        for flag, kw in flags:
            add(flag, **kw)

    sub("check", _cmd_check, "certify a Pisot polynomial and print its data")
    sub("eval", _cmd_eval,
        "transform value at a point, or a coefficient series",
        _arg("--t", help="evaluation point"),
        _arg("--r", help="series multiplier"),
        _arg("--count", type=int, help="series length"),
        _arg("--fast", action="store_true", help="float64 series evaluation"),
        csv=True, tol=True, one_of=(("--t", "--r"),),
        at_most_one=(("--fast", "--tol"),))
    sub("trace", _cmd_trace, "nearest-integer digit trace of y theta^j",
        _arg("--y", required=True, help="starting value"),
        _arg("--count", type=int, required=True, help="trace length"),
        _arg("--delta", type=_fraction_arg,
             help="remainder threshold (default: certified bound)"))
    sub("recur", _cmd_recur,
        "verify the digit recurrence on small-remainder runs",
        _arg("--y", required=True),
        _arg("--count", type=int, required=True),
        _arg("--delta", type=_fraction_arg,
             help="remainder threshold (default: half the bound)"))
    sub("phi", _cmd_phi, "two-sided cosine product at a ring/field element",
        _arg("--z", help="argument element"),
        _arg("--lam", help="scale for the doubled form"),
        _arg("--q", help="argument for the doubled form (with --lam)"),
        tol=True, one_of=(("--z", "--lam"),))
    sub("limit", _cmd_limit,
        "predicted limit value for offset coefficient vectors",
        _arg("--z", required=True,
             help="semicolon-separated coefficient vectors"),
        _arg("--A", type=int, required=True, help="integer offset"),
        _arg("--r", required=True, help="sampling multiplier"),
        tol=True)
    sub("enumerate", _cmd_enumerate,
        "catalogue of predicted limit values in a window",
        _arg("--r", required=True),
        _arg("--height", type=int, required=True,
             help="coefficient height bound"),
        _arg("--m-max", type=int, required=True,
             help="max extra product terms"),
        _arg("--a-max", type=int, required=True, help="offset bound"),
        _arg("--budget", type=int, default=DEFAULT_BUDGET,
             help="most factors the window's walk may compose"),
        tol=True, eta=0.05)
    sub("synthesize", _cmd_synthesize,
        "integer sequence realizing a predicted value",
        _arg("--z", required=True),
        _arg("--A", type=int, required=True),
        _arg("--r", required=True),
        _arg("--k", type=int, required=True, help="sequence index"))
    sub("sample", _cmd_sample,
        "cluster sampled |mu_hat(r n)| and match predictions",
        _arg("--r", required=True),
        _arg("--N", type=int, required=True),
        _arg("--n-min", type=int, help="smallest sample index (default N/2)"),
        _arg("--match-height", type=int,
             help="enumerate a window of this height and match"),
        _arg("--match-m-max", type=int, default=2),
        _arg("--match-a-max", type=int, default=3),
        _arg("--match-eta", type=float, default=1e-3),
        _arg("--match-tol", type=_POSITIVE_FINITE, default=1e-2),
        csv=True, seed=True, eta=0.05, gap=True)
    sub("fill", _cmd_fill,
        "largest gap of sorted sampled moduli (interval test)",
        _arg("--r", required=True),
        _arg("--N", type=int, required=True),
        seed=True, eta=0.0)
    sub("jset", _cmd_jset, "estimate the limit-value range from real samples",
        _arg("--t-max", type=float, default=1e4,
             help="sample horizon T (default 1e4)"),
        _arg("--grid-step", type=float,
             help="sample spacing (default: derivative-safe)"),
        poly="theta")
    sub("discrepancy", _cmd_discrepancy, "star discrepancy of alpha*x_i mod 1",
        _arg("--alpha", type=_FINITE, required=True),
        _arg("--x", help="comma-separated integers"),
        _arg("--count", type=int, help="use x = 1..count"),
        poly="none", one_of=(("--x", "--count"),))
    sub("translate", _cmd_translate,
        "cluster complex mu_hat(r n) e^(2 pi i gamma n)",
        _arg("--r", required=True),
        _arg("--gamma", required=True),
        _arg("--N", type=int, required=True),
        _arg("--n-min", type=int),
        seed=True, eta=0.05, gap=True)
    sub("decay", _cmd_decay, "dyadic block maxima of |mu_hat(n)|",
        _arg("--N", type=int, required=True),
        poly="theta", csv=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    args.given = {k for k, v in vars(args).items() if v is not None}
    for dest, value in args.defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    try:
        pb = args.precision_bits
        if pb is None:
            # read on every call: the cached parser cannot hold it
            pb = _BITS(os.environ.get(ENV_PRECISION) or "256")
        poly = getattr(args, "poly", None)
        P = None if poly is None else build_pisot(poly, precision_bits=pb)
        out = args.run(args, P, pb)
        text = out if isinstance(out, str) else formats.to_json(out)
    except (UsageError, argparse.ArgumentTypeError) as exc:
        sys.stderr.write(f"pisot {args.command}: error: {exc}\n")
        return 1
    except (PrecisionExhaustedError, AmbiguousRoundingError) as exc:
        sys.stderr.write(f"pisot {args.command}: precision: {exc}\n")
        return 3
    except (PisotSpectraError, ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"pisot {args.command}: {exc}\n")
        return 2
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"pisot {args.command}: cannot write "
                             f"{args.out}: {exc.strerror}\n")
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
