"""Span tracing of the package's modules, from outside the package.

`Tracer.install()` rebinds every public function of `pisot`, `transform`,
`spectrum`, `empirical` and `formats` to a timing wrapper, in its own module
and in every module that imported it by name (`cli`, `empirical`,
`spectrum`, `transform`, `formats`), so nested calls record spans with
parent links.  `remove()` restores the originals.  A span is
[module, function, duration, parent index, info]; its self time is its
duration minus the durations of its direct children.  A generator
function's span opens at the first item and closes when the generator is
exhausted or closed, so it covers the consumption of its items.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

MODULES = ("pisot", "transform", "spectrum", "empirical", "formats")
NAMESPACES = ("cli",) + MODULES
BASE_NAMES = {(1, 1): "golden", (1, 1, 1): "tribonacci",
              (1, 0, 0, 1): "quartic", (2,): "binary", (3,): "ternary"}
# |t| bands of precise mu_hat calls
T_BANDS = (("t_small", 1e3), ("t_mid", 1e7), ("t_large", float("inf")))


def _base(theta) -> str:
    return BASE_NAMES.get(getattr(theta, "d", None), "other")


def _band(t) -> str:
    at = abs(float(t))
    return next(name for name, top in T_BANDS if at < top)


def _enumerate_window(args, kwargs, result):
    P, _, height, m_max, a_max = args[:5]
    n_vec = (2 * height + 1) ** P.m
    total = sum((2 * a_max + 1) * n_vec ** (M + 1) for M in range(m_max + 1))
    return total, len(result)


# per-function facts recorded with each span
INFO = {
    ("transform", "mu_hat"): lambda a, k, r: (_base(a[0]), _band(a[1])),
    ("transform", "mu_hat_fast"): lambda a, k, r: int(np.size(a[1])),
    ("spectrum", "phi_biinfinite"): lambda a, k, r: _base(a[0]),
    ("spectrum", "enumerate_spectrum"): _enumerate_window,
    ("formats", "to_json"): lambda a, k, r: len(r),
    ("formats", "series_to_csv"): lambda a, k, r: len(r),
}


class Tracer:
    def __init__(self):
        self.mods = {name: importlib.import_module(f"pisot_spectra.{name}")
                     for name in NAMESPACES}
        self.spans: list = []
        self.stack: list = []
        self._saved: list = []

    def _open(self, module, name):
        span = [module, name, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span, t0):
        span[2] = time.perf_counter() - t0
        self.stack.pop()

    def _wrap(self, module, name, fn):
        info = INFO.get((module, name))
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                span = self._open(module, name)
                t0 = time.perf_counter()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(span, t0)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(module, name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, t0)
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result
        return wrapper

    def call(self, module, name, fn, *args):
        """Run fn(*args) inside a span of its own (the invocation span)."""
        span = self._open(module, name)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(span, t0)

    def install(self) -> None:
        for module in MODULES:
            mod = self.mods[module]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(module, name, fn)
                for ns in self.mods.values():
                    if vars(ns).get(name) is fn:
                        self._saved.append((ns, name, fn))
                        setattr(ns, name, wrapper)

    def remove(self) -> None:
        for ns, name, fn in reversed(self._saved):
            setattr(ns, name, fn)
        self._saved.clear()


def self_times(spans) -> list:
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2]
    return [span[2] - c for span, c in zip(spans, child)]


def function_table(spans, rounds: int) -> dict:
    """"module.function" -> calls, total and self seconds, per round,
    slowest self time first."""
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        row = rows[f"{span[0]}.{span[1]}"]
        row[0] += 1
        row[1] += span[2]
        row[2] += own
    return {k: {"calls": c / rounds, "total_s": t / rounds, "self_s": o / rounds}
            for k, (c, t, o) in sorted(rows.items(), key=lambda kv: -kv[1][2])}


def layer_metrics(spans, rounds: int) -> dict:
    """Per-module metrics of the traced rounds, per round: name -> (value,
    unit).  Times are seconds unless the unit says otherwise."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    dur_s = defaultdict(float)
    module_self = defaultdict(float)
    by = defaultdict(lambda: [0, 0.0])
    points = cands = kept = out_bytes = 0
    empirical_total = precise_s = 0.0
    precise_calls = 0
    for span, own in zip(spans, selfs):
        module, name, dur, parent, info = span
        key = f"{module}.{name}"
        calls[key] += 1
        self_s[key] += own
        dur_s[key] += dur
        module_self[module] += own
        parent_module = spans[parent][0] if parent >= 0 else None
        if module == "empirical" and parent_module != "empirical":
            empirical_total += dur
        if key == "transform.mu_hat":
            for label in info:
                by["mu_hat." + label][0] += 1
                by["mu_hat." + label][1] += dur
            if parent_module == "empirical":
                precise_calls += 1
                precise_s += dur
        elif key == "transform.mu_hat_fast":
            points += info
        elif key == "spectrum.phi_biinfinite":
            by["phi." + info][0] += 1
            by["phi." + info][1] += dur
        elif key == "spectrum.enumerate_spectrum":
            cands += info[0]
            kept += info[1]
        elif key in ("formats.to_json", "formats.series_to_csv"):
            out_bytes += info

    def ratio(a, b):
        return a / b if b else 0.0

    def ms_per_call(label):
        n, total = by[label]
        return ratio(1e3 * total, n), "ms"

    per = 1 / rounds
    m = {
        "transform.mu_hat.calls": (calls["transform.mu_hat"] * per, "count"),
        "transform.mu_hat.self_s": (self_s["transform.mu_hat"] * per, "s"),
        "transform.mu_hat.ms_per_call": (
            ratio(1e3 * dur_s["transform.mu_hat"], calls["transform.mu_hat"]),
            "ms"),
    }
    for base in ("golden", "tribonacci", "quartic", "binary"):
        m[f"transform.mu_hat.ms_per_call.{base}"] = ms_per_call("mu_hat." + base)
    for band, _ in T_BANDS:
        m[f"transform.mu_hat.ms_per_call.{band}"] = ms_per_call("mu_hat." + band)
    fast_s = self_s["transform.mu_hat_fast"]
    m.update({
        "transform.mu_hat_fast.points": (points * per, "count"),
        "transform.mu_hat_fast.self_s": (fast_s * per, "s"),
        "transform.mu_hat_fast.s_per_mpoint": (ratio(fast_s, points / 1e6),
                                               "s/Mpoint"),
        "transform.digit_trace.self_s": (self_s["transform.digit_trace"] * per,
                                         "s"),
        "empirical.self_s": (module_self["empirical"] * per, "s"),
        "empirical.precise_calls": (precise_calls * per, "count"),
        "empirical.precise_s": (precise_s * per, "s"),
        "empirical.precise_share": (ratio(precise_s, empirical_total), "ratio"),
        "spectrum.enumerate.self_s": (
            self_s["spectrum.enumerate_spectrum"] * per, "s"),
        "spectrum.enumerate.candidates": (cands * per, "count"),
        "spectrum.enumerate.kept": (kept * per, "count"),
        "spectrum.enumerate.kept_ratio": (ratio(kept, cands), "ratio"),
        "spectrum.enumerate.us_per_candidate": (
            ratio(1e6 * self_s["spectrum.enumerate_spectrum"], cands), "us"),
        "spectrum.phi_biinfinite.calls": (
            calls["spectrum.phi_biinfinite"] * per, "count"),
        "spectrum.phi_biinfinite.self_s": (
            self_s["spectrum.phi_biinfinite"] * per, "s"),
    })
    for base in ("golden", "tribonacci", "quartic"):
        m[f"spectrum.phi_biinfinite.ms_per_call.{base}"] = ms_per_call("phi." + base)
    m.update({
        "spectrum.tail_product.calls": (
            calls["spectrum.tail_product"] * per, "count"),
        "spectrum.tail_product.self_s": (
            self_s["spectrum.tail_product"] * per, "s"),
        "spectrum.synthesize_sequence.self_s": (
            self_s["spectrum.synthesize_sequence"] * per, "s"),
        "pisot.build_pisot.self_s": (self_s["pisot.build_pisot"] * per, "s"),
        "pisot.embed.calls": (calls["pisot.embed"] * per, "count"),
        "pisot.embed.self_s": (self_s["pisot.embed"] * per, "s"),
        "formats.self_s": (module_self["formats"] * per, "s"),
        "formats.bytes_out": (out_bytes * per, "count"),
    })
    for module in ("pisot", "transform", "spectrum"):
        m[f"{module}.self_s"] = (module_self[module] * per, "s")
    m["cli.self_s"] = (module_self["cli"] * per, "s")
    return m
