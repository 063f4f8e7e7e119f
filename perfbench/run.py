"""Benchmark of the `pisot` command line, end to end and module by module.

    python3 perfbench/run.py --workload rows --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  A run first times PROBES fresh-interpreter set-ups, then sets up
once in this interpreter and repeats whole rounds of the workload's
invocations, each through `pisot_spectra.cli.main(argv)` with stdout
captured, for at least MIN_ROUNDS rounds (one when traced) and --seconds
seconds.  The outputs of the first round are checked against the
reference evaluator; later rounds must print the same bytes.  The last
line of stdout is one JSON object:

    {"correct": true, "attempted": 16, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
slowest_op_s, peak_rss_mb).  Times are scaled to the reference host's
speed: wall_s and slowest_op_s by HostSpeed, setup_s by IMPORT_PROBE.  With --trace 1 each invocation
of a round runs untraced and then traced, back to back, and the metrics
are the per-module ones of the traced rounds, in raw seconds, plus
trace.overhead_s.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
# fresh-interpreter set-ups per run, each paired with an IMPORT_PROBE
PROBES = 7
# A fresh interpreter that imports the package's dependencies and nothing
# of the package.  setup_s is scaled by it, not by the speed probe: set-up
# is mostly process start and imports, which the speed probe does not follow.
IMPORT_PROBE = [sys.executable, "-c", "import numpy, mpmath"]
# typical IMPORT_PROBE time on the reference host
REFERENCE_IMPORT_S = 0.29
PROBE_TIMEOUT_S = 60
MIN_ROUNDS = 2
# each run also leaves its result (and, traced, a per-function table) here
OUT_DIR = ".bench_out"
# speed probes fill this share of the time spent in invocations and set-up
# probes, in the gaps between them
SPEED_SHARE = 0.1
# typical speed_probe() time on the reference host (2-core x86-64, Python
# 3.11, mpmath 1.3 on its pure-Python backend); it sets the time scale
REFERENCE_PROBE_S = 0.015
# the largest share of traced wall time that `cli` may keep as self time
# (0.002 on rows, 0.03-0.045 on catalogue, 0.05-0.065 on certified on the
# reference host)
CLI_SHARE_MAX = 0.15


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("rows", "catalogue", "certified"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def speed_probe() -> float:
    """Seconds for a fixed batch of 300-bit mpmath cosines, the kind of
    work that dominates every workload."""
    t0 = time.perf_counter()
    with mp.workprec(300):
        x = mp.mpf(1) / 3
        acc = mp.mpf(0)
        for i in range(1, 500):
            acc += mp.cos(x * i)
    return time.perf_counter() - t0


class HostSpeed:
    """Speed probes sampled through a run, between the timed steps.

    The host's CPU speed drifts by a third over minutes, so raw times of
    runs made minutes apart differ by that much.  After each timed step,
    `after(seconds)` runs probes until their time reaches SPEED_SHARE of
    the steps' time, so the probes follow the drift through the run.
    A time multiplied by `factor` reads as seconds on the reference host.
    """

    def __init__(self):
        speed_probe()  # the first call pays mpmath's one-time costs
        self.samples: list = []
        self.owed = 0.0

    def after(self, seconds: float) -> None:
        self.owed += SPEED_SHARE * seconds
        while self.owed > 0:
            self.samples.append(speed_probe())
            self.owed -= self.samples[-1]

    @property
    def factor(self) -> float:
        return REFERENCE_PROBE_S / statistics.mean(self.samples)


def _probe_hung(signum, frame):
    raise TimeoutError(f"a probe ran past {PROBE_TIMEOUT_S} s")


def _timed(cmd) -> float:
    """Wall time of one child process.  The wait blocks, because
    `subprocess.run(timeout=...)` polls with sleeps of up to 50 ms and
    rounds the time up to a poll; an alarm ends a child that hangs."""
    previous = signal.signal(signal.SIGALRM, _probe_hung)
    signal.alarm(PROBE_TIMEOUT_S)
    try:
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        return time.perf_counter() - t0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def setup_seconds(bases, warmup, host: HostSpeed) -> tuple:
    """Wall times of PROBES fresh interpreters setting up, each followed by
    one run of IMPORT_PROBE."""
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"),
             json.dumps(bases), json.dumps(warmup)]
    times, imports = [], []
    for _ in range(PROBES):
        times.append(_timed(probe))
        imports.append(_timed(IMPORT_PROBE))
        host.after(times[-1] + imports[-1])
    return times, imports


class Round:
    """One pass over a workload, recording each invocation's time."""

    def __init__(self, cli, host: HostSpeed, call=None):
        self.cli = cli
        self.host = host
        self.call = call or (lambda fn, argv: fn(argv))
        self.times: list = []
        self.texts: list = []
        self.failed = 0

    def invoke(self, argv):
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf):
                rc = self.call(self.cli.main, argv)
        except Exception:  # a crash is a failed invocation, not a lost run
            rc = None
            traceback.print_exc()
        self.times.append(time.perf_counter() - t0)
        self.host.after(self.times[-1])
        self.texts.append(buf.getvalue())
        if rc != 0:
            self.failed += 1
            sys.stderr.write(f"pisot {' '.join(argv)}: exit {rc}\n")
            return None
        return json.loads(buf.getvalue())

    @property
    def wall(self) -> float:
        return sum(self.times)


def paired(plain, traced, tracer, argv):
    """Run argv untraced, then traced; the untraced output is returned."""
    out = plain(argv)
    tracer.install()
    try:
        traced(argv)
    finally:
        tracer.remove()
    return out


def trace_problems(metrics: dict, workload: str) -> list:
    """What makes a traced run's per-module figures untrustworthy: time
    the spans do not cover, invocation time left in `cli` itself beyond
    CLI_SHARE_MAX (work no module span sees), or a layer the workload
    exercises that recorded nothing (its functions were not wrapped)."""
    import workloads
    wall = metrics["trace.wall_s"][0]
    problems = []
    share = metrics["trace.accounted_share"][0]
    if not 0.99 <= share <= 1:
        problems.append(f"self times cover {share:.4f} of the traced wall time")
    cli_s = metrics["cli.self_s"][0]
    if cli_s > CLI_SHARE_MAX * wall:
        problems.append(f"cli.self_s is {cli_s:.3f} s of {wall:.3f} s")
    problems += [f"{name} is 0" for name in workloads.TRACED[workload]
                 if not metrics[name][0] > 0]
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "pisot_spectra", "cli.py")):
        sys.stderr.write("run.py: no src/pisot_spectra here; run it from the "
                         "root of a source checkout\n")
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, HERE)
    import workloads
    run_round, check = workloads.WORKLOADS[args.workload]
    bases, warmup = workloads.SETUP[args.workload]

    host = HostSpeed()
    setup_times, import_times = setup_seconds(bases, warmup, host)
    from pisot_spectra import build_pisot, cli
    for d in bases:
        build_pisot(d)
    with redirect_stdout(io.StringIO()):
        cli.main(warmup)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    rounds, traced = [], []
    outputs = None
    # a traced run needs no repeats: its figures are per-round costs
    min_rounds = 1 if tracer else MIN_ROUNDS
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
        rnd = Round(cli, host)
        invoke = rnd.invoke
        if tracer:
            traced.append(Round(cli, host,
                                lambda fn, a: tracer.call("cli", "main", fn, a)))
            invoke = functools.partial(paired, rnd.invoke, traced[-1].invoke,
                                       tracer)
        out = run_round(invoke, args.seed)
        outputs = outputs or out
        rounds.append(rnd)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    all_rounds = rounds + traced
    attempted = sum(len(r.times) for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    correct = True
    try:
        check(outputs, args.seed)
        for r in all_rounds[1:]:
            workloads.require(r.texts == all_rounds[0].texts,
                              "a later round printed different bytes")
    except workloads.CheckFailed as exc:
        correct = False
        sys.stderr.write(f"check failed: {exc}\n")
    except Exception:  # a checker that crashes gives no verdict either
        correct = False
        traceback.print_exc()

    if tracer:
        from tracer import layer_metrics
        metrics = layer_metrics(tracer.spans, len(traced))
        metrics["trace.wall_s"] = (statistics.mean(r.wall for r in traced), "s")
        # module self times (pisot.self_s, ..., cli.self_s) against the
        # traced wall time; only stdout capture lies outside the spans
        metrics["trace.accounted_share"] = (sum(
            v for k, (v, u) in metrics.items()
            if k.endswith(".self_s") and k.count(".") == 1
        ) / metrics["trace.wall_s"][0], "ratio")
        # each invocation ran untraced and then traced, back to back, so
        # host drift between the two runs of a pair is that of seconds
        metrics["trace.overhead_s"] = (statistics.median(
            t.wall - u.wall for t, u in zip(traced, rounds)), "s")
        for problem in trace_problems(metrics, args.workload):
            correct = False
            sys.stderr.write(f"trace: {problem}\n")
    else:
        per_op = [statistics.mean(t) for t in zip(*(r.times for r in rounds))]
        metrics = {
            "wall_s": (sum(per_op) * host.factor, "s"),
            "setup_s": (statistics.median(setup_times) * REFERENCE_IMPORT_S
                        / statistics.median(import_times), "s"),
            "slowest_op_s": (max(per_op) * host.factor, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  round_walls=[r.wall for r in all_rounds],
                  setup_times=setup_times, import_times=import_times,
                  speed_factor=host.factor,
                  speed_probes=len(host.samples))
    if tracer:
        from tracer import function_table
        record["functions"] = function_table(tracer.spans, len(traced))
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
