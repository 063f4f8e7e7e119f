"""The benchmark's workloads: fixed lists of `pisot` invocations.

A workload is a round function and a checker.  `round(invoke, seed)` calls
`invoke(argv)` once per invocation, in a fixed order, and gets back the
parsed JSON that `pisot` printed; it returns the outputs by name.  The same
seed always gives the same invocations.  `check(outputs, seed)` raises
CheckFailed unless every output agrees with the reference evaluator or has
the properties the method guarantees.  Values that may start with a minus
sign are passed as `--flag=value`, because argparse reads `-2033/1000` or
`-2,1` after a space as an option.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import mpmath as mp

import reference as ref

GOLDEN, TRIBONACCI, QUARTIC, BINARY, TERNARY = \
    (1, 1), (1, 1, 1), (1, 0, 0, 1), (2,), (3,)
# error the float64 path of `pisot` documents for |t| <= 1e7
FAST_ERROR = 1e-9


class CheckFailed(AssertionError):
    """An output disagrees with the reference or breaks a method property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def poly(d) -> str:
    return ",".join(str(c) for c in d)


@functools.lru_cache(maxsize=None)
def base(d: tuple) -> ref.Base:
    return ref.Base(d)


def _dec(s: str, pb: int = 256):
    with mp.workprec(pb + 16):
        return mp.mpf(s)


def _field(s: str, d):
    """Real value of a `pisot` scalar string: "p/q" or "a0/q0,a1/q1,..."."""
    coords = [Fraction(p) for p in s.split(",") if p.strip()]
    return base(d).value(coords)


def _agrees(value: str, bound: str, exact, pb: int, bits: int) -> bool:
    """|value - exact| <= bound, plus the reference error (2^-bits relative,
    2^-(bits+48) absolute) and the rounding of the printed decimals
    (2^-(pb-8) relative)."""
    with mp.workprec(pb + 64):
        v, e = _dec(value, pb), _dec(bound, pb)
        slack = abs(exact) * (mp.mpf(2) ** -(bits - 4) + mp.mpf(2) ** -(pb - 8)) \
            + mp.mpf(2) ** -(bits + 48)
        return abs(v - exact) <= e * (1 + mp.mpf(2) ** -(pb - 8)) + slack


def _ref_bits(tol: float) -> int:
    """Reference precision well below a truncation tolerance."""
    return int(-mp.log(tol, 2)) + 34


# ---------------------------------------------------------------------------
# rows: golden-base sampling at scale


def rows_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {"r_fill": repr(1 + rng.random()), "gamma": repr(rng.random())}


def rows_round(invoke, seed: int) -> dict:
    s = rows_inputs(seed)
    g = poly(GOLDEN)
    return {
        "sample": invoke(["sample", "--poly", g, "--r", "1", "--N", "1000000",
                          "--eta", "1e-3", "--gap", "1e-6"]),
        "fill": invoke(["fill", "--poly", g, "--r", s["r_fill"],
                        "--N", "1000000"]),
        "translate_half_theta": invoke(
            ["translate", "--poly", g, "--r", "1", "--gamma", "0,1/2",
             "--N", "100000", "--eta", "1e-4"]),
        "translate_seeded": invoke(
            ["translate", "--poly", g, "--r", "1", "--gamma", s["gamma"],
             "--N", "100000", "--eta", "1e-4"]),
        "sample_precise": invoke(["sample", "--poly", g, "--r", "1",
                                  "--N", "2000", "--eta", "1e-3"]),
        "decay_non_pisot": invoke(["decay", "--theta", "1.5",
                                   "--N", "65536"]),
        "decay_golden": invoke(["decay", "--poly", g, "--N", "65536"]),
        "jset": invoke(["jset", "--poly", g, "--t-max", "10000"]),
    }


def _check_clusters(rep: dict, label: str) -> None:
    """Clusters are sorted, retained values reach eta, and the reference
    value at every witness index lies in its cluster's [min, max]."""
    golden = base(GOLDEN)
    r = _dec(rep["r"])
    require(not rep["empty_retention"] and rep["clusters"],
            f"{label}: nothing retained")
    last = -1.0
    for c in rep["clusters"]:
        lo, hi = float(_dec(c["min"])), float(_dec(c["max"]))
        require(rep["eta"] <= lo <= float(_dec(c["center"])) <= hi and lo > last,
                f"{label}: cluster bounds out of order at {c['center']}")
        last = hi
        require(1 <= len(c["witnesses"]) <= min(c["count"], 10),
                f"{label}: witness list of size {len(c['witnesses'])}")
        for n in c["witnesses"]:
            require(rep["n_min"] <= n <= rep["N"], f"{label}: witness {n}")
            with mp.workprec(128):
                v = float(abs(ref.mu_hat(golden, r * n, bits=96)))
            require(lo - FAST_ERROR <= v <= hi + FAST_ERROR,
                    f"{label}: |mu_hat({n})| = {v!r} outside [{lo!r}, {hi!r}]")


def _decays(last5) -> bool:
    """No block above the first, and the last below the first by 6x."""
    return max(last5[1:]) <= last5[0] and last5[-1] < last5[0] / 6


def rows_check(out: dict, seed: int) -> None:
    _check_clusters(out["sample"], "sample N=1e6")
    _check_clusters(out["sample_precise"], "sample N=2000")
    counts = [c["count"] for c in out["sample"]["clusters"]]
    share = sum(c for c in counts if c >= 2) / sum(counts)
    require(share >= 0.5, f"r=1 recurrence share {share:.3f} < 0.5")

    fill = out["fill"]
    N = fill["N"]
    require(fill["count"] == N - N // 2 + 1,
            f"fill count {fill['count']} != {N - N // 2 + 1}")
    lo, hi, gap = (float(_dec(fill[k])) for k in ("lower", "upper", "max_gap"))
    require(0 <= lo and 0 <= gap <= hi - lo <= 1,
            f"fill range [{lo}, {hi}] with max_gap {gap}")

    half, seeded = out["translate_half_theta"], out["translate_seeded"]
    require(half["coverage"] <= 0.7 and half["cluster_count"] <= 3,
            f"gamma=theta/2: coverage {half['coverage']}, "
            f"{half['cluster_count']} clusters")
    require(seeded["coverage"] > half["coverage"],
            f"gamma={seeded['gamma']}: coverage {seeded['coverage']} not "
            f"above the resonant {half['coverage']}")

    for key, want in (("decay_non_pisot", True), ("decay_golden", False)):
        last5 = [float(_dec(b["value"])) for b in out[key]["blocks"][-5:]]
        require(len(out[key]["blocks"]) == 16 and _decays(last5) == want,
                f"{key}: last block maxima {last5}")

    j = out["jset"]
    lo, hi, gap = (float(_dec(j[k])) for k in ("lower", "upper", "max_gap"))
    require(-1 <= lo < 0 < hi <= 1 and 0 <= gap <= hi - lo and j["count"] > 0,
            f"jset range [{lo}, {hi}] with max_gap {gap}")


# ---------------------------------------------------------------------------
# catalogue: enumeration windows and two-sided products

WINDOWS = {
    # key: (base, r, height, m_max, a_max, eta)
    "enum_golden_r1": (GOLDEN, "1", 2, 2, 1, "1e-3"),
    "enum_golden_r_half": (GOLDEN, "1/2", 2, 1, 2, "1e-6"),
    "enum_tribonacci_r1": (TRIBONACCI, "1", 1, 1, 2, "0.05"),
}
SYNTH_K = (5, 15, 25)


def _vec(rng, d, h):
    v = [rng.randint(-h, h) for _ in d]
    if not any(v):
        v[0] = 1
    return tuple(v)


def catalogue_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "limit_z": (_vec(rng, GOLDEN, 2), _vec(rng, GOLDEN, 2)),
        "limit_A": rng.randint(-3, 3),
        "phi_golden": _vec(rng, GOLDEN, 3),
        "phi_quartic": [_vec(rng, QUARTIC, 3) for _ in range(3)],
        "lam": _vec(rng, GOLDEN, 2),
    }


def catalogue_round(invoke, seed: int) -> dict:
    s = catalogue_inputs(seed)
    out = {}
    for key, (d, r, h, mm, am, eta) in WINDOWS.items():
        out[key] = invoke(["enumerate", "--poly", poly(d), "--r", r,
                           "--height", str(h), "--m-max", str(mm),
                           "--a-max", str(am), "--eta", eta])
    out["synthesize"] = [
        [invoke(["synthesize", "--poly", poly(GOLDEN), "--r", "1/2",
                 "--z=" + ";".join(poly(z) for z in item["z"]),
                 f"--A={item['A']}", "--k", str(k)]) for k in SYNTH_K]
        for item in out["enum_golden_r_half"]["items"]]
    out["limit"] = invoke(["limit", "--poly", poly(GOLDEN), "--r", "1",
                           "--z=" + ";".join(poly(z) for z in s["limit_z"]),
                           f"--A={s['limit_A']}"])
    out["phi_golden"] = invoke(["phi", "--poly", poly(GOLDEN),
                                "--z=" + poly(s["phi_golden"])])
    out["phi_quartic"] = [
        [invoke(["phi", "--poly", poly(QUARTIC), "--z=" + poly(w)])
         for w in (z, ref.ring_scale(QUARTIC, z, 1), tuple(-c for c in z))]
        for z in s["phi_quartic"]]
    out["phi_lambda"] = invoke(["phi", "--poly", poly(GOLDEN),
                                "--lam=" + poly(s["lam"]), "--q", "1/2"])
    return out


def _window_position(z_list, A, d, h, a_max) -> int:
    """Position of (z_list, A) in the lexicographic order over (number of
    vectors, offset, vectors) with each coordinate running -h..h."""
    n_vec = (2 * h + 1) ** len(d)
    M = len(z_list) - 1
    pos = sum((2 * a_max + 1) * n_vec ** (k + 1) for k in range(M))
    pos += (A + a_max) * n_vec ** (M + 1)
    digits = 0
    for z in z_list:
        for c in z:
            digits = digits * (2 * h + 1) + (c + h)
    return pos + digits


def _predicted(d, z_list, A, r: str) -> mp.mpf:
    """Reference value of prod_i Phi(z_i) * |mu_hat(r A)|."""
    b = base(d)
    with mp.workprec(160):
        value = mp.mpf(1)
        for z in z_list:
            value *= ref.phi(b, z, bits=100)
        return value * abs(ref.mu_hat(b, _field(r, d) * A, bits=100))


def catalogue_check(out: dict, seed: int) -> None:
    for key, (d, r, h, mm, am, eta) in WINDOWS.items():
        rep = out[key]
        items = rep["items"]
        require(rep["count"] == len(items) > 0, f"{key}: count {rep['count']}")
        values = [_dec(it["predicted"]) for it in items]
        require(all(a >= b for a, b in zip(values, values[1:]))
                and values[-1] >= float(eta), f"{key}: order or eta floor")
        for it in items:
            pos = _window_position([tuple(z) for z in it["z"]], it["A"], d, h, am)
            require(it["id"] == str(pos),
                    f"{key}: id {it['id']} at window position {pos}")
            exact = _predicted(d, it["z"], it["A"], it["r"])
            require(_agrees(it["predicted"], it["error"], exact, 256, 100),
                    f"{key}: candidate {it['id']} predicts {it['predicted']}, "
                    f"reference {mp.nstr(exact, 20)}")

    golden = base(GOLDEN)
    for item, runs in zip(out["enum_golden_r_half"]["items"], out["synthesize"]):
        target = _dec(item["predicted"])
        with mp.workprec(160):
            dists = [abs(abs(ref.mu_hat(golden, Fraction(s["n"], 2), bits=96))
                         - target) for s in runs]
        require(min(dists) <= 1e-3,
                f"candidate {item['id']} not realized within 1e-3 for k in "
                f"{SYNTH_K}: {[mp.nstr(x, 5) for x in dists]}")

    s = catalogue_inputs(seed)
    lim = out["limit"]
    exact = _predicted(GOLDEN, s["limit_z"], s["limit_A"], "1")
    require(_agrees(lim["value"], lim["error_bound"], exact, 256, 100),
            f"limit {lim['value']} vs reference {mp.nstr(exact, 20)}")
    # phi --lam l --q 1/2 is prod_j |cos(2 pi (l/2) theta^j)| = Phi(l)
    checks = [("phi_golden", out["phi_golden"], GOLDEN, s["phi_golden"]),
              ("phi_lambda", out["phi_lambda"], GOLDEN, s["lam"])]
    checks += [("phi_quartic", triple[0], QUARTIC, z)
               for triple, z in zip(out["phi_quartic"], s["phi_quartic"])]
    for key, rep, d, z in checks:
        with mp.workprec(160):
            exact = ref.phi(base(d), z, bits=100)
        require(_agrees(rep["value"], rep["error_bound"], exact, 256, 100),
                f"{key} z={z}: {rep['value']} vs reference {mp.nstr(exact, 20)}")
    for (p0, *others), z in zip(out["phi_quartic"], s["phi_quartic"]):
        for label, p1 in zip(("z theta", "-z"), others):
            with mp.workprec(300):
                gap = abs(_dec(p0["value"]) - _dec(p1["value"]))
                require(gap <= _dec(p0["error_bound"]) + _dec(p1["error_bound"]),
                        f"phi({label}) differs from phi(z) by "
                        f"{mp.nstr(gap, 5)} for z={z} on the quartic base")


# ---------------------------------------------------------------------------
# certified: single certified values and precise series across bases

CERT_BASES = (GOLDEN, TRIBONACCI, QUARTIC, BINARY, TERNARY)
TRACE_BASES = (GOLDEN, TRIBONACCI, QUARTIC)
SERIES_COUNT = 200
FINE = ("--tol", "1e-40", "--precision-bits", "512")


def certified_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    # |t| in [10^e, 10^(e+1)), e = 0..11, with a random sign
    points = [(d, f"{rng.choice(('-', ''))}"
                  f"{rng.randint(10 ** 6, 10 ** 7 - 1) * 10 ** e}/{10 ** 6}")
              for d in CERT_BASES for e in range(12)]
    zeros = [(d, n) for d in CERT_BASES for n in sorted(rng.sample(range(1, 41), 3))]
    series_r = {d: f"{rng.randint(1, 12)}/{rng.randint(2, 7)}" for d in CERT_BASES}
    ys = {}
    for d in TRACE_BASES:
        top = int((base(d).theta - 1) * 10 ** 6)
        ys[d] = f"{10 ** 6 + rng.randint(1, top - 1)}/{10 ** 6}"
    return {"points": points, "zeros": zeros, "series_r": series_r, "ys": ys}


def _quarter_power(d, n) -> str:
    return ",".join(f"{c}/4" for c in ref.theta_power(d, n))


def certified_round(invoke, seed: int) -> dict:
    s = certified_inputs(seed)
    out = {"points": [invoke(["eval", "--poly", poly(d), f"--t={t}"])
                      for d, t in s["points"]],
           "zeros": [invoke(["eval", "--poly", poly(d),
                             "--t", _quarter_power(d, n)])
                     for d, n in s["zeros"]],
           "series": [], "traces": [], "recur": []}
    for d in CERT_BASES:
        argv = ["eval", "--poly", poly(d), "--r", s["series_r"][d],
                "--count", str(SERIES_COUNT)]
        out["series"].append(invoke(argv))
        out["series"].append(invoke(argv + list(FINE)))
    for d in TRACE_BASES:
        y = s["ys"][d]
        out["traces"].append(invoke(["trace", "--poly", poly(d), "--y", y,
                                     "--count", "60"]))
        out["recur"].append(invoke(["recur", "--poly", poly(d), "--y", y,
                                    "--count", "60"]))
    return out


def _check_value(d, t, value: str, bound: str, pb: int, tol: float,
                 label: str) -> None:
    bits = _ref_bits(tol)
    exact = ref.mu_hat(base(d), t, bits=bits)
    require(_agrees(value, bound, exact, pb, bits),
            f"{label}: value {value[:30]} +- {bound[:12]} vs reference "
            f"{mp.nstr(exact, 25)}")


def certified_check(out: dict, seed: int) -> None:
    s = certified_inputs(seed)
    for (d, t), rep in zip(s["points"], out["points"]):
        require(rep["t"] == t, f"eval echoes t={rep['t']} for {t}")
        _check_value(d, Fraction(t), rep["value"], rep["error_bound"], 256,
                     1e-20, f"eval {poly(d)} t={t}")
    for (d, n), rep in zip(s["zeros"], out["zeros"]):
        label = f"eval {poly(d)} t=theta^{n}/4"
        require(rep["contains_zero"], f"{label}: contains_zero is false")
        with mp.workprec(400):
            t = base(d).value(ref.theta_power(d, n), 400) / 4
        _check_value(d, t, rep["value"], rep["error_bound"], 256, 1e-20, label)

    reps = iter(out["series"])
    for d in CERT_BASES:
        for pb, tol in ((256, 1e-20), (512, 1e-40)):
            rep = next(reps)
            items = rep["items"]
            require(rep["N"] == SERIES_COUNT
                    and [it["n"] for it in items] == list(range(1, SERIES_COUNT + 1)),
                    f"series {poly(d)}: indices")
            with mp.workprec(pb + 64):
                r = _field(s["series_r"][d], d)
            for it in items:
                with mp.workprec(pb + 64):
                    t = r * it["n"]
                    require(abs(_dec(it["t"], pb) - t) <= abs(t) * mp.mpf(2) ** -(pb - 8),
                            f"series {poly(d)}: t at n={it['n']}")
                _check_value(d, t, it["value"], it["error_bound"], pb, tol,
                             f"series {poly(d)} ({pb} bits) n={it['n']}")

    for d, tr, rc in zip(TRACE_BASES, out["traces"], out["recur"]):
        label = f"trace {poly(d)} y={s['ys'][d]}"
        digits = ref.nearest_digits(base(d), Fraction(s["ys"][d]), 60)
        require(tr["K"] == [k for k, _ in digits], f"{label}: digits differ")
        limit = Fraction(1, 1 + sum(abs(c) for c in d))
        with mp.workprec(300):
            deltas = [_dec(x) for x in tr["delta"]]
            require(all(abs(a - b) <= mp.mpf(2) ** -200
                        for a, (_, b) in zip(deltas, digits)),
                    f"{label}: remainders differ")
            exceed = [j + 1 for j, x in enumerate(deltas)
                      if abs(x) > mp.mpf(limit.numerator) / limit.denominator]
        require(tr["exceed_set"] == exceed, f"{label}: exceed set")
        require(rc["ok"] is True and rc["violations"] == [],
                f"recur {poly(d)}: {rc['violations']}")


WORKLOADS = {
    "rows": (rows_round, rows_check),
    "catalogue": (catalogue_round, catalogue_check),
    "certified": (certified_round, certified_check),
}
# bases certified during set-up, and the warm-up invocation
SETUP = {
    "rows": ((GOLDEN,), ["eval", "--poly", "1,1", "--t", "1/3"]),
    "catalogue": ((GOLDEN, TRIBONACCI, QUARTIC),
                  ["eval", "--poly", "1,1", "--t", "1/3"]),
    "certified": (CERT_BASES, ["eval", "--poly", "1,1", "--t", "1/3"]),
}
# per-module metrics that a traced run of each workload must see above 0
TRACED = {
    "rows": ("transform.mu_hat_fast.points", "empirical.precise_calls",
             "empirical.self_s", "pisot.build_pisot.self_s",
             "formats.bytes_out"),
    "catalogue": ("spectrum.enumerate.candidates",
                  "spectrum.phi_biinfinite.calls", "spectrum.tail_product.calls",
                  "spectrum.synthesize_sequence.self_s", "pisot.embed.calls",
                  "formats.bytes_out"),
    "certified": ("transform.mu_hat.calls", "transform.digit_trace.self_s",
                  "pisot.build_pisot.self_s", "formats.bytes_out"),
}
