"""Command-line driver.

Every library operation is reachable as `pisot <subcommand>` with
machine-readable output: JSON by default, CSV where a row stream makes
sense.  Identical invocations (including --seed) produce byte-identical
output.  Exit codes: 0 success, 1 usage, 2 domain failure (not Pisot,
invalid argument, budget), 3 precision exhaustion or ambiguous rounding.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import formats
from .empirical import (_as_real, decay_check, discrepancy, estimate_J,
                        interval_fill_test, sample_and_cluster,
                        translated_sample)
from .errors import (AmbiguousRoundingError, PisotSpectraError,
                     PrecisionExhaustedError)
from .pisot import FieldElement, PisotNumber, build_pisot, embed
from .spectrum import (enumerate_spectrum, limit_value, phi_biinfinite,
                       phi_lambda, synthesize_sequence)
from .transform import (FAST_ERROR, SeriesItem, check_recurrence,
                        coefficient_series, digit_trace, mu_hat, mu_hat_fast)

# overrides the default working precision for every subcommand
ENV_PRECISION = "PISOT_PRECISION_BITS"
# the subcommands whose certified evaluations take a truncation tolerance
TOL_COMMANDS = ("eval", "phi", "limit", "enumerate")
# the subcommands whose reports record the seed
SEED_COMMANDS = ("sample", "fill", "translate")


class UsageError(Exception):
    """Bad flag combination detected after argparse accepted the input."""


@dataclass(frozen=True)
class RunConfig:
    """Reproducible run parameters shared by the subcommands."""

    precision_bits: int = 256
    tol: float = 1e-20
    eta: float = 0.05
    gap: float = 1e-3
    seed: int = 0
    fmt: str = "json"

    def validate(self) -> None:
        if self.precision_bits < 64:
            raise UsageError("precision bits must be at least 64")
        if not (self.tol > 0 and self.gap > 0):
            raise UsageError("tolerances must be positive")
        if self.eta < 0:
            raise UsageError("eta must be nonnegative")


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


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--precision-bits", type=int, default=None,
                     help=f"working precision (default 256, or ${ENV_PRECISION})")
    sub.add_argument("--format", dest="fmt", choices=("json", "csv"),
                     default="json", help="output format (default json)")
    sub.add_argument("--out", default=None,
                     help="write output to this file instead of stdout")


def _config(args) -> RunConfig:
    env_bits = os.environ.get(ENV_PRECISION)
    bits = args.precision_bits
    if bits is None:
        bits = int(env_bits) if env_bits else 256

    def given(name, default):
        value = getattr(args, name, None)
        return default if value is None else value

    cfg = RunConfig(
        precision_bits=bits,
        tol=given("tol", 1e-20),
        eta=given("eta", 0.05),
        gap=given("gap", 1e-3),
        seed=getattr(args, "seed", 0),
        fmt=getattr(args, "fmt", "json"),
    )
    cfg.validate()
    return cfg


def _build(args, cfg: RunConfig) -> PisotNumber:
    return build_pisot(args.poly, precision_bits=cfg.precision_bits)


def _need_json(cfg: RunConfig, command: str) -> None:
    if cfg.fmt != "json":
        raise UsageError(f"{command} only supports --format json")


def _parse_z_vectors(P: PisotNumber, text: str) -> tuple:
    """Semicolon-separated coefficient vectors, zero-padded to the degree."""
    out = []
    for part in text.split(";"):
        coeffs = [int(p) for p in part.split(",") if p.strip()]
        if not coeffs or len(coeffs) > P.m:
            raise UsageError(
                f"each z vector needs 1..{P.m} integer coefficients")
        out.append(P.ring(tuple(coeffs) + (0,) * (P.m - len(coeffs))))
    return tuple(out)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the output text)


def _cmd_check(args, cfg):
    _need_json(cfg, "check")
    P = _build(args, cfg)
    return formats.to_json(formats.pisot_to_dict(P))


def _cmd_eval(args, cfg):
    P = _build(args, cfg)
    pb = cfg.precision_bits
    ds = lambda v: formats.decimal_str(v, pb)
    if args.t is not None:
        if args.fast or args.r is not None or args.count is not None:
            raise UsageError("eval --t takes no --fast, --r or --count")
        _need_json(cfg, "eval --t")
        value, kind = formats.parse_scalar(P, args.t)
        if isinstance(value, FieldElement):
            value = embed(value, 1)
        res = mu_hat(P, value, tol=cfg.tol)
        return formats.to_json({
            "kind": "value", "t": args.t, "t_kind": kind,
            "value": ds(res.value), "error_bound": ds(res.error_bound),
            "contains_zero": res.contains_zero,
            "truncation_index": res.truncation_index,
        })
    if args.r is None or args.count is None:
        raise UsageError("eval needs --t, or --r together with --count")
    if args.fast and args.tol is not None:
        raise UsageError("eval --fast takes no --tol")
    r, kind = formats.parse_scalar(P, args.r)
    items = list(coefficient_series(P, r, args.count, tol=cfg.tol,
                                    fast=args.fast))
    if cfg.fmt == "csv":
        return formats.series_to_csv(items, pb)
    return formats.to_json({
        "kind": "series", "r": args.r, "r_kind": kind, "N": args.count,
        "items": [{
            "n": it.n, "t": ds(it.t), "value": ds(it.value),
            "error_bound": ds(it.error_bound),
            "contains_zero": it.contains_zero,
        } for it in items],
    })


def _cmd_trace(args, cfg):
    _need_json(cfg, "trace")
    P = _build(args, cfg)
    y, kind = formats.parse_scalar(P, args.y)
    if isinstance(y, FieldElement):
        y = embed(y, 1)
    trace = digit_trace(P, y, args.count, delta=args.delta)
    ds = lambda v: formats.decimal_str(v, cfg.precision_bits)
    return formats.to_json({
        "kind": "trace", "y": args.y, "y_kind": kind, "N": trace.N,
        "K": list(trace.K),
        "delta": [ds(d) for d in trace.delta],
        "exceed_set": list(trace.exceed_set),
    })


def _cmd_recur(args, cfg):
    _need_json(cfg, "recur")
    P = _build(args, cfg)
    y, kind = formats.parse_scalar(P, args.y)
    if isinstance(y, FieldElement):
        y = embed(y, 1)
    delta = args.delta if args.delta is not None else P.delta_max / 2
    trace = digit_trace(P, y, args.count)
    violations = check_recurrence(trace, P, delta)
    return formats.to_json({
        "kind": "recurrence", "y": args.y, "y_kind": kind, "N": args.count,
        "delta": f"{delta.numerator}/{delta.denominator}",
        "violations": list(violations), "ok": not violations,
    })


def _cmd_phi(args, cfg):
    _need_json(cfg, "phi")
    P = _build(args, cfg)
    ds = lambda v: formats.decimal_str(v, cfg.precision_bits)
    if args.lam is not None or args.q is not None:
        if args.lam is None or args.q is None:
            raise UsageError("phi needs --lam and --q together")
        lam, _ = formats.parse_scalar(P, args.lam)
        q, _ = formats.parse_scalar(P, args.q)
        value, err = phi_lambda(P, lam, q, tol=cfg.tol)
        return formats.to_json({"kind": "phi_lambda", "lam": args.lam,
                                "q": args.q, "value": ds(value),
                                "error_bound": ds(err)})
    if args.z is None:
        raise UsageError("phi needs --z, or --lam with --q")
    z, _ = formats.parse_scalar(P, args.z)
    value, err = phi_biinfinite(P, z, tol=cfg.tol)
    return formats.to_json({"kind": "phi", "z": args.z, "value": ds(value),
                            "error_bound": ds(err)})


def _cmd_limit(args, cfg):
    _need_json(cfg, "limit")
    P = _build(args, cfg)
    z_list = _parse_z_vectors(P, args.z)
    r, kind = formats.parse_scalar(P, args.r)
    cand = limit_value(P, z_list, args.A, r, tol=cfg.tol)
    ds = lambda v: formats.decimal_str(v, cfg.precision_bits)
    return formats.to_json({
        "kind": "limit", "z": [list(z.coeffs) for z in z_list], "A": args.A,
        "r": args.r, "r_kind": kind, "value": ds(cand.predicted),
        "error_bound": ds(cand.error_bound),
    })


def _cmd_enumerate(args, cfg):
    _need_json(cfg, "enumerate")
    P = _build(args, cfg)
    r, kind = formats.parse_scalar(P, args.r)
    cands = enumerate_spectrum(P, r, args.height, args.m_max, args.a_max,
                               tol=cfg.tol, eta=cfg.eta, budget=args.budget)
    return formats.to_json({
        "kind": "candidates", "r": args.r, "r_kind": kind,
        "height": args.height, "m_max": args.m_max, "a_max": args.a_max,
        "eta": cfg.eta, "count": len(cands),
        "items": [formats.candidate_to_dict(c, cfg.precision_bits)
                  for c in cands],
    })


def _cmd_synthesize(args, cfg):
    _need_json(cfg, "synthesize")
    P = _build(args, cfg)
    z_list = _parse_z_vectors(P, args.z)
    r, _ = formats.parse_scalar(P, args.r)
    n = synthesize_sequence(P, z_list, args.A, r, args.k)
    return formats.to_json({
        "kind": "synthesize", "z": [list(z.coeffs) for z in z_list],
        "A": args.A, "r": args.r, "k": args.k, "n": n,
    })


def _raw_sample_csv(P, r_val: float, n_min: int, N: int, pb: int) -> str:
    ns = np.arange(max(1, n_min), N + 1, dtype=np.int64)
    vals = mu_hat_fast(P, r_val * ns.astype(np.float64))
    items = [SeriesItem(n=int(n), t=r_val * float(n), value=float(v),
                        error_bound=FAST_ERROR, contains_zero=False)
             for n, v in zip(ns, vals)]
    return formats.series_to_csv(items, pb)


def _cmd_sample(args, cfg):
    P = _build(args, cfg)
    r, kind = formats.parse_scalar(P, args.r)
    n_min = args.n_min if args.n_min is not None else args.N // 2
    if cfg.fmt == "csv":
        return _raw_sample_csv(P, _as_real(r), n_min, args.N,
                               cfg.precision_bits)
    candidates = None
    if args.match_height is not None:
        candidates = enumerate_spectrum(P, r, args.match_height,
                                        args.match_m_max, args.match_a_max,
                                        eta=args.match_eta)
    rep = sample_and_cluster(P, r, args.N, cfg.eta, gap=cfg.gap, n_min=n_min,
                             candidates=candidates, match_tol=args.match_tol,
                             seed=cfg.seed)
    obj = formats.cluster_report_to_dict(rep, cfg.precision_bits)
    obj["r_kind"] = kind
    return formats.to_json(obj)


def _cmd_fill(args, cfg):
    _need_json(cfg, "fill")
    P = _build(args, cfg)
    r, kind = formats.parse_scalar(P, args.r)
    est = interval_fill_test(P, r, args.N, eta=args.eta or 0.0)
    return formats.to_json(formats.interval_to_dict(
        est, cfg.precision_bits, r=args.r, r_kind=kind, N=args.N,
        eta=args.eta or 0.0, seed=cfg.seed))


def _cmd_jset(args, cfg):
    _need_json(cfg, "jset")
    if args.poly is not None:
        theta = _build(args, cfg)
        label = ",".join(str(c) for c in args.poly)
    elif args.theta is not None:
        theta, label = args.theta, repr(args.theta)
    else:
        raise UsageError("jset needs --poly or --theta")
    est = estimate_J(theta, args.t_max, grid_step=args.grid_step)
    return formats.to_json(formats.interval_to_dict(
        est, cfg.precision_bits, theta=label, T=args.t_max))


def _cmd_discrepancy(args, cfg):
    _need_json(cfg, "discrepancy")
    if args.x is not None:
        xs = [int(p) for p in args.x.split(",") if p.strip()]
    elif args.count is not None:
        xs = list(range(1, args.count + 1))
    else:
        raise UsageError("discrepancy needs --x or --count")
    d = discrepancy(args.alpha, xs)
    return formats.to_json({
        "kind": "discrepancy", "alpha": repr(args.alpha), "count": len(xs),
        "d_star": formats.decimal_str(d, cfg.precision_bits),
    })


def _cmd_translate(args, cfg):
    _need_json(cfg, "translate")
    P = _build(args, cfg)
    r, r_kind = formats.parse_scalar(P, args.r)
    gamma, g_kind = formats.parse_scalar(P, args.gamma)
    rep = translated_sample(P, r, gamma, args.N, cfg.eta, gap=cfg.gap,
                            n_min=args.n_min, seed=cfg.seed)
    obj = formats.translated_report_to_dict(rep, cfg.precision_bits)
    obj["r_kind"] = r_kind
    obj["gamma_kind"] = g_kind
    return formats.to_json(obj)


def _cmd_decay(args, cfg):
    if args.poly is not None:
        theta = _build(args, cfg)
    elif args.theta is not None:
        theta = args.theta
    else:
        raise UsageError("decay needs --poly or --theta")
    blocks = decay_check(theta, args.N)
    if cfg.fmt == "csv":
        lines = ["k,start,stop,value"]
        lines += [f"{b.k},{b.start},{b.stop},"
                  f"{formats.decimal_str(b.value, cfg.precision_bits)}"
                  for b in blocks]
        return "\n".join(lines) + "\n"
    return formats.to_json(formats.blocks_to_dict(blocks, cfg.precision_bits))


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

    def sub(name, help_text, poly="required"):
        p = subs.add_parser(name, help=help_text)
        if poly == "required":
            p.add_argument("--poly", type=_poly_arg, required=True,
                           help="recurrence digits d1,d2,...,dm")
        elif poly == "optional":
            p.add_argument("--poly", type=_poly_arg, default=None,
                           help="recurrence digits d1,d2,...,dm")
        _add_common(p)
        if name in TOL_COMMANDS:
            p.add_argument("--tol", type=float, default=None,
                           help="certified truncation tolerance (default 1e-20)")
        if name in SEED_COMMANDS:
            p.add_argument("--seed", type=int, default=0,
                           help="seed recorded in reports (default 0)")
        return p

    sub("check", "certify a Pisot polynomial and print its data")

    p = sub("eval", "transform value at a point, or a coefficient series")
    p.add_argument("--t", default=None, help="evaluation point")
    p.add_argument("--r", default=None, help="series multiplier")
    p.add_argument("--count", type=int, default=None, help="series length")
    p.add_argument("--fast", action="store_true",
                   help="float64 series evaluation")

    p = sub("trace", "nearest-integer digit trace of y theta^j")
    p.add_argument("--y", required=True, help="starting value")
    p.add_argument("--count", type=int, required=True, help="trace length")
    p.add_argument("--delta", type=_fraction_arg, default=None,
                   help="remainder threshold (default: certified bound)")

    p = sub("recur", "verify the digit recurrence on small-remainder runs")
    p.add_argument("--y", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--delta", type=_fraction_arg, default=None,
                   help="remainder threshold (default: half the bound)")

    p = sub("phi", "two-sided cosine product at a ring/field element")
    p.add_argument("--z", default=None, help="argument element")
    p.add_argument("--lam", default=None, help="scale for the doubled form")
    p.add_argument("--q", default=None, help="argument for the doubled form")

    p = sub("limit", "predicted limit value for offset coefficient vectors")
    p.add_argument("--z", required=True,
                   help="semicolon-separated coefficient vectors")
    p.add_argument("--A", type=int, required=True, help="integer offset")
    p.add_argument("--r", required=True, help="sampling multiplier")

    p = sub("enumerate", "catalogue of predicted limit values in a window")
    p.add_argument("--r", required=True)
    p.add_argument("--height", type=int, required=True,
                   help="coefficient height bound")
    p.add_argument("--m-max", type=int, required=True,
                   help="max extra product terms")
    p.add_argument("--a-max", type=int, required=True, help="offset bound")
    p.add_argument("--eta", type=float, default=None,
                   help="retention floor (default 0.05)")
    p.add_argument("--budget", type=int, default=10**6,
                   help="candidate evaluation budget")

    p = sub("synthesize", "integer sequence realizing a predicted value")
    p.add_argument("--z", required=True)
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--k", type=int, required=True, help="sequence index")

    p = sub("sample", "cluster sampled |mu_hat(r n)| and match predictions")
    p.add_argument("--r", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eta", type=float, default=None,
                   help="retention floor (default 0.05)")
    p.add_argument("--gap", type=float, default=None,
                   help="cluster split gap (default 1e-3)")
    p.add_argument("--n-min", type=int, default=None,
                   help="smallest sample index (default N/2)")
    p.add_argument("--match-height", type=int, default=None,
                   help="enumerate a window of this height and match")
    p.add_argument("--match-m-max", type=int, default=2)
    p.add_argument("--match-a-max", type=int, default=3)
    p.add_argument("--match-eta", type=float, default=1e-3)
    p.add_argument("--match-tol", type=float, default=1e-2)

    p = sub("fill", "largest gap of sorted sampled moduli (interval test)")
    p.add_argument("--r", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eta", type=float, default=0.0,
                   help="retention floor (default 0)")

    p = sub("jset", "estimate the limit-value range from real samples",
            poly="optional")
    p.add_argument("--theta", type=float, default=None,
                   help="base as a real number (alternative to --poly)")
    p.add_argument("--t-max", type=float, default=1e4,
                   help="sample horizon T (default 1e4)")
    p.add_argument("--grid-step", type=float, default=None,
                   help="sample spacing (default: derivative-safe)")

    p = sub("discrepancy", "star discrepancy of alpha*x_i mod 1",
            poly="none")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x", default=None, help="comma-separated integers")
    p.add_argument("--count", type=int, default=None,
                   help="use x = 1..count")

    p = sub("translate", "cluster complex mu_hat(r n) e^(2 pi i gamma n)")
    p.add_argument("--r", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--gap", type=float, default=None)
    p.add_argument("--n-min", type=int, default=None)

    p = sub("decay", "dyadic block maxima of |mu_hat(n)|", poly="optional")
    p.add_argument("--theta", type=float, default=None,
                   help="base as a real number (alternative to --poly)")
    p.add_argument("--N", type=int, required=True)

    return parser


_HANDLERS = {
    "check": _cmd_check,
    "eval": _cmd_eval,
    "trace": _cmd_trace,
    "recur": _cmd_recur,
    "phi": _cmd_phi,
    "limit": _cmd_limit,
    "enumerate": _cmd_enumerate,
    "synthesize": _cmd_synthesize,
    "sample": _cmd_sample,
    "fill": _cmd_fill,
    "jset": _cmd_jset,
    "discrepancy": _cmd_discrepancy,
    "translate": _cmd_translate,
    "decay": _cmd_decay,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        cfg = _config(args)
        text = _HANDLERS[args.command](args, cfg)
    except UsageError as exc:
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
