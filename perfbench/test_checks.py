"""Each workload's checker passes on real output and fails on mutated output.

One round of each workload is run once per pytest run (about a minute in
all); every control then mutates a copy of its outputs.
"""

import copy
import functools
import json
import os

import pytest

import run
import tracer
import workloads
from pisot_spectra import cli

SEED = 11


@functools.lru_cache(maxsize=None)
def outputs(name):
    run_round, _ = workloads.WORKLOADS[name]
    rnd = run.Round(cli, run.HostSpeed())
    out = run_round(rnd.invoke, SEED)
    assert rnd.failed == 0
    return out


def check(name, out):
    workloads.WORKLOADS[name][1](out, SEED)


def _first_multi(out):
    return next(c for c in out["sample"]["clusters"] if c["count"] >= 2)


def _bump_digit(s: str, k: int) -> str:
    """Change the k-th significant digit of a decimal string by 5."""
    first = next(i for i, ch in enumerate(s) if ch in "123456789")
    i = [j for j, ch in enumerate(s) if ch.isdigit() and j >= first][k - 1]
    return s[:i] + str((int(s[i]) + 5) % 10) + s[i + 1:]


ROWS_MUTATIONS = {
    "cluster max below its witnesses": lambda o: _first_multi(o).update(
        max=_first_multi(o)["min"]),
    "fill count off by one": lambda o: o["fill"].update(
        count=o["fill"]["count"] - 1),
    "seeded coverage at the resonant level": lambda o: o[
        "translate_seeded"].update(coverage=o["translate_half_theta"]["coverage"]),
    "golden decay blocks swapped in": lambda o: o.update(
        decay_non_pisot=o["decay_golden"]),
    "recurrence lost": lambda o: [c.update(count=1) for c in o["sample"]["clusters"]],
}
CATALOGUE_MUTATIONS = {
    "predicted value off in the 18th digit": lambda o: o["enum_golden_r_half"][
        "items"][1].update(predicted=_bump_digit(
            o["enum_golden_r_half"]["items"][1]["predicted"], 18)),
    "id shifted": lambda o: o["enum_tribonacci_r1"]["items"][-1].update(
        id=str(int(o["enum_tribonacci_r1"]["items"][-1]["id"]) + 1)),
    "synthesized index off by one": lambda o: [
        s.update(n=s["n"] + 1) for s in o["synthesize"][1]],
    "phi(z theta) differs from phi(z)": lambda o: o["phi_quartic"][0][1].update(
        value=_bump_digit(o["phi_quartic"][0][1]["value"], 5)),
    "limit value off in the 18th digit": lambda o: o["limit"].update(
        value=_bump_digit(o["limit"]["value"], 18)),
}
CERTIFIED_MUTATIONS = {
    "eval value off in the 18th digit": lambda o: o["points"][30].update(
        value=_bump_digit(o["points"][30]["value"], 18)),
    "zero not flagged": lambda o: o["zeros"][4].update(contains_zero=False),
    "512-bit series value off in the 36th digit": lambda o: o["series"][3][
        "items"][150].update(value=_bump_digit(
            o["series"][3]["items"][150]["value"], 36)),
    "recurrence reported broken": lambda o: o["recur"][1].update(
        ok=False, violations=[7]),
    "trace digit changed": lambda o: o["traces"][0]["K"].__setitem__(
        40, o["traces"][0]["K"][40] + 1),
}
CONTROLS = [(name, label, fn)
            for name, table in (("rows", ROWS_MUTATIONS),
                                ("catalogue", CATALOGUE_MUTATIONS),
                                ("certified", CERTIFIED_MUTATIONS))
            for label, fn in table.items()]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checker_passes_on_real_output(name):
    check(name, outputs(name))


@pytest.mark.parametrize("name,label,mutate", CONTROLS,
                         ids=[f"{n}: {l}" for n, l, _ in CONTROLS])
def test_checker_rejects_mutated_output(name, label, mutate):
    out = copy.deepcopy(outputs(name))
    mutate(out)
    with pytest.raises(workloads.CheckFailed):
        check(name, out)


def test_benchmark_json_names_the_metrics_the_run_reports():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer = set(tracer.layer_metrics([], 1)) | {
        "trace.wall_s", "trace.accounted_share", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "setup_s", "slowest_op_s", "peak_rss_mb"]


def _clean_trace(name):
    metrics = tracer.layer_metrics([], 1)
    metrics.update({"trace.wall_s": (10.0, "s"),
                    "trace.accounted_share": (1.0, "ratio"),
                    "cli.self_s": (0.1, "s")})
    metrics.update({k: (1.0, "") for k in workloads.TRACED[name]})
    return metrics


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_trace_check_rejects_uncovered_work(name):
    assert run.trace_problems(_clean_trace(name), name) == []
    bloated = _clean_trace(name)
    bloated["cli.self_s"] = (2.0, "s")
    assert run.trace_problems(bloated, name)
    for key in workloads.TRACED[name]:
        unseen = _clean_trace(name)
        unseen[key] = (0.0, "")
        assert run.trace_problems(unseen, name) == [f"{key} is 0"]


def test_a_crashing_invocation_counts_as_failed():
    class Crashing:
        @staticmethod
        def main(argv):
            raise KeyError(argv[0])

    rnd = run.Round(Crashing, run.HostSpeed())
    assert rnd.invoke(["eval"]) is None
    assert rnd.failed == 1 and len(rnd.times) == 1
