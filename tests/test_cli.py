"""End-to-end command line tests (JSON/CSV contracts, exit codes).

Most cases run `cli.main` in this process, which returns every exit code
without leaving it.  A fresh interpreter is started only where the process
is under test: the `python -m pisot_spectra` entry point and its exit
status, `-O` mode, and the modules a command leaves unloaded.
"""
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from pisot_spectra import cli, formats

CMD = [sys.executable, "-m", "pisot_spectra"]


def _not_json(token):
    raise ValueError(f"{token} is not a JSON value")


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_not_json)


def run(*args, env_extra=None):
    """(exit code, stdout, stderr) of `pisot args`, run through cli.main.

    Every successful stdout that is neither CSV nor help text must be
    strict JSON."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name, value in (env_extra or {}).items():
            monkeypatch.setenv(name, value)
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(args))
    if code == 0 and out.getvalue() and not {"csv", "--help"} & set(args):
        strict_json(out.getvalue())
    return code, out.getvalue(), err.getvalue()


def run_process(*args):
    """run(*args) in a fresh `python -m pisot_spectra` process."""
    proc = subprocess.run(CMD + list(args), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_check_emits_certified_data():
    code, out, err = run("check", "--poly", "1,1")
    assert code == 0
    obj = json.loads(out)
    assert obj["d"] == [1, 1]
    assert obj["theta"].startswith("1.6180339887498948482")
    assert obj["rho"].startswith("0.6180339887498948482")
    assert obj["precision_bits"] == 256
    assert len(obj["conjugates"]) == 1


def test_check_rejects_non_pisot_with_domain_exit():
    # through the entry point: the exit status is main's return value
    code, out, err = run_process("check", "--poly", "0,4")
    assert code == 2
    assert out == ""
    assert err.strip()


def test_base_just_above_one_refused_in_time():
    # about 3e13 head factors at |t| = 100: refused at the head limit, not
    # planned one division at a time
    proc = subprocess.run(CMD + ["jset", "--theta", "1.000000000001",
                                 "--t-max", "100"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    assert "head" in proc.stderr


def test_usage_errors_exit_one():
    assert run("check", "--poly", "a,b")[0] == 1
    assert run("bogus")[0] == 1
    assert run()[0] == 1
    assert run("check", "--poly", "1,1", "--bogus")[0] == 1
    assert run("eval", "--poly", "1,1")[0] == 1          # neither --t nor series
    assert run("eval", "--poly", "1,1", "--r", "1")[0] == 1   # no --count
    # --t evaluates one point: the series flags are rejected, not ignored
    assert run("eval", "--poly", "1,1", "--t", "3/2", "--fast")[0] == 1
    assert run("eval", "--poly", "1,1", "--t", "3/2", "--r", "5")[0] == 1
    assert run("eval", "--poly", "1,1", "--t", "3/2", "--count", "7")[0] == 1
    assert run("jset")[0] == 1                           # no base given
    assert run("discrepancy", "--alpha", "0.3")[0] == 1  # no sequence
    assert run("enumerate", "--poly", "1,1", "--r", "1", "--height", "1",
               "--m-max", "0", "--a-max", "0", "--format", "csv")[0] == 1
    assert run("check", "--poly", "1,1", "--precision-bits", "32")[0] == 1
    # a zero gap is rejected like a negative one, not replaced by the default
    assert run("sample", "--poly", "1,1", "--r", "1", "--N", "30000",
               "--gap", "0")[0] == 1
    assert run("translate", "--poly", "1,1", "--r", "1", "--gamma", "1/2",
               "--N", "30000", "--gap", "0")[0] == 1
    # --tol is accepted only where a certified evaluation reads it
    assert run("sample", "--poly", "1,1", "--r", "1", "--N", "300",
               "--tol", "1e-3")[0] == 1
    assert run("fill", "--poly", "1,1", "--r", "1", "--N", "300",
               "--tol", "1e-3")[0] == 1
    assert run("translate", "--poly", "1,1", "--r", "1", "--gamma", "1/2",
               "--N", "300", "--tol", "1e-3")[0] == 1
    # the float64 series reads no tolerance
    assert run("eval", "--poly", "1,1", "--r", "1/2", "--count", "5",
               "--fast", "--tol", "0.4")[0] == 1
    # --seed is accepted only where a report records it
    assert run("check", "--poly", "1,1", "--seed", "3")[0] == 1
    assert run("phi", "--poly", "1,1", "--z", "1", "--seed", "3")[0] == 1
    # flag values out of their range are usage errors
    assert run("eval", "--poly", "1,1", "--t", "3/2", "--tol", "0")[0] == 1
    assert run("sample", "--poly", "1,1", "--r", "1", "--N", "300",
               "--eta", "-1")[0] == 1
    assert run("sample", "--poly", "1,1", "--r", "1", "--N", "300",
               "--gap", "-1")[0] == 1
    assert run("fill", "--poly", "1,1", "--r", "1", "--N", "300",
               "--eta", "-1")[0] == 1
    assert run("enumerate", "--poly", "1,1", "--r", "1", "--height", "1",
               "--m-max", "0", "--a-max", "0", "--eta", "-1")[0] == 1
    assert run("discrepancy", "--alpha", "0.3", "--count", "5",
               "--precision-bits", "32")[0] == 1
    assert run("check", "--poly", "1,1",
               env_extra={"PISOT_PRECISION_BITS": "32"})[0] == 1
    assert run("check", "--poly", "1,1",
               env_extra={"PISOT_PRECISION_BITS": "abc"})[0] == 1
    # the raw CSV stream reads none of the clustered report's flags
    for flag, value in (("--eta", "5"), ("--gap", "1e-3"), ("--seed", "0"),
                        ("--match-height", "1"), ("--match-m-max", "2"),
                        ("--match-a-max", "3"), ("--match-eta", "1e-3"),
                        ("--match-tol", "1e-2")):
        assert run("sample", "--poly", "1,1", "--r", "1", "--N", "300",
                   "--format", "csv", flag, value)[0] == 1
    # JSON-only subcommands reject CSV
    assert run("check", "--poly", "1,1", "--format", "csv")[0] == 1
    # phi takes --z alone, or --lam together with --q
    assert run("phi", "--poly", "1,1", "--z", "1", "--q", "1")[0] == 1
    assert run("phi", "--poly", "1,1", "--lam", "1/2")[0] == 1
    assert run("phi", "--poly", "1,1")[0] == 1
    # both flags of an exclusive pair: rejected, not one of them ignored
    assert run("jset", "--theta", "2.5", "--poly", "1,1")[0] == 1
    assert run("decay", "--theta", "1.5", "--poly", "1,1", "--N", "8")[0] == 1
    assert run("discrepancy", "--alpha", "0.3", "--count", "5",
               "--x", "1,2")[0] == 1
    # scalar flags that do not parse as numbers
    for argv in (("eval", "--poly", "1,1", "--t", "abc"),
                 ("eval", "--poly", "1,1", "--t", "1/0"),
                 ("eval", "--poly", "1,1", "--t", "1,2,3"),
                 ("translate", "--poly", "1,1", "--r", "1", "--gamma", "x",
                  "--N", "300"),
                 ("phi", "--poly", "1,1", "--z", "abc"),
                 ("limit", "--poly", "1,1", "--z", "1,x", "--A", "0",
                  "--r", "1"),
                 ("discrepancy", "--alpha", "0.3", "--x", "1,a")):
        assert run(*argv)[0] == 1, argv
    # scalar flags and --alpha must name finite numbers
    for argv in (("phi", "--poly", "1,1", "--z", "inf"),
                 ("discrepancy", "--alpha", "inf", "--count", "5"),
                 ("discrepancy", "--alpha", "nan", "--count", "5"),
                 ("eval", "--poly", "1,1", "--t", "inf"),
                 ("eval", "--poly", "1,1", "--t", "nan"),
                 ("eval", "--poly", "1,1", "--t", "1e400"),
                 ("eval", "--poly", "1,1", "--r=-inf", "--count", "3"),
                 ("translate", "--poly", "1,1", "--r", "1", "--gamma", "inf",
                  "--N", "300")):
        assert run(*argv)[0] == 1, argv


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_match_tol_outside_its_range_exits_one(value):
    code, out, err = run("sample", "--poly", "1,1", "--r", "1", "--N", "300",
                         "--match-height", "1", f"--match-tol={value}")
    assert (code, out) == (1, "") and "positive and finite" in err


def test_values_only_the_library_rejects_exit_two():
    # in range for the flag, out of range for the evaluation
    assert run("eval", "--poly", "1,1", "--t", "3/2", "--tol", "0.7")[0] == 2
    assert run("eval", "--poly", "1,1", "--r=-1", "--count", "3")[0] == 2
    assert run("sample", "--poly", "1,1", "--r", "1", "--N", "300",
               "--eta", "0")[0] == 2
    assert run("translate", "--poly", "1,1", "--r", "1", "--gamma", "1/2",
               "--N", "300", "--eta", "0")[0] == 2
    assert run("enumerate", "--poly", "1,1", "--r", "1", "--height", "1",
               "--m-max", "0", "--a-max", "0", "--eta", "0")[0] == 2
    assert run("enumerate", "--poly", "1,1", "--r", "1", "--height", "-1",
               "--m-max", "0", "--a-max", "0")[0] == 2
    # every sampled command reads --r as eval does
    for r in ("--r=-1", "--r=0"):
        for argv in (("sample", "--N", "300"),
                     ("sample", "--N", "300", "--format", "csv"),
                     ("fill", "--N", "300"),
                     ("translate", "--gamma", "1/2", "--N", "300")):
            code, out, err = run(argv[0], "--poly", "1,1", r, *argv[1:])
            assert (code, out) == (2, "") and "r must be positive" in err


@pytest.mark.parametrize("argv, message", [
    (("fill", "--poly", "1,1", "--r", "1", "--N", "-3"), "empty"),
    (("fill", "--poly", "1,1", "--r", "1", "--N", "-1"), "empty"),
    (("jset", "--poly", "1,1", "--t-max", "0"), "positive and finite"),
    (("jset", "--poly", "1,1", "--t-max", "-5"), "positive and finite"),
    (("jset", "--poly", "1,1", "--t-max", "inf"), "positive and finite"),
    (("jset", "--poly", "1,1", "--t-max", "nan"), "positive and finite"),
    (("eval", "--poly", "1,1", "--r", "1", "--count", "-3"), "empty"),
    (("eval", "--poly", "1,1", "--r", "1", "--count", "-3", "--fast"),
     "empty"),
])
def test_empty_ranges_exit_two(argv, message):
    # an index range or horizon with no points is refused, not reported
    code, out, err = run(*argv)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("argv, what", [
    (("enumerate", "--poly", "1,1", "--r", "1", "--height", "1",
      "--m-max", "0", "--a-max", "0", "--eta", "nan"), "eta"),
    (("enumerate", "--poly", "1,1", "--r", "1", "--height", "1",
      "--m-max", "0", "--a-max", "0", "--eta", "inf"), "eta"),
    (("fill", "--poly", "1,1", "--r", "1", "--N", "300", "--eta", "inf"),
     "eta"),
    (("fill", "--poly", "1,1", "--r", "1", "--N", "300", "--eta", "nan"),
     "eta"),
    (("sample", "--poly", "1,1", "--r", "1", "--N", "300", "--gap", "inf"),
     "gap"),
    (("translate", "--poly", "1,1", "--r", "1", "--gamma", "1/2",
      "--N", "300", "--gap", "inf"), "gap"),
    (("decay", "--theta", "inf", "--N", "100"), "theta"),
    (("jset", "--theta", "inf"), "theta"),
])
def test_non_finite_values_exit_two(argv, what):
    # refused by the library, naming the parameter, before anything prints
    code, out, err = run(*argv)
    assert code == 2 and out == "" and what in err


@pytest.mark.parametrize("fast", [(), ("--fast",)])
def test_decimal_series_multiplier_exits_zero(fast):
    # decimals are read as r as everywhere else, by the multiplier rule
    code, out, _ = run("eval", "--poly", "1,1", "--r", "1.37", "--count", "3",
                       *fast)
    assert code == 0
    rep = strict_json(out)
    assert (rep["r"], rep["r_kind"], len(rep["items"])) == ("1.37", "real", 3)
    assert rep["items"][0]["t"].startswith("1.3700000000000001065814")


@pytest.mark.parametrize("flags", [("--N", "10", "--n-min", "20"),
                                   ("--N", "-3"),
                                   ("--N", "10", "--n-min=-5")])
def test_sample_csv_checks_the_reports_index_range(flags):
    argv = ("sample", "--poly", "1,1", "--r", "1", *flags)
    report = run(*argv)
    rows = run(*argv, "--format", "csv")
    assert report[:2] == rows[:2] == (2, "")
    assert rows[2] == report[2] and "n_min" in rows[2]


def test_sample_csv_starts_where_the_report_does():
    code, out, _ = run("sample", "--poly", "1,1", "--r", "1/2", "--N", "4",
                       "--n-min", "0", "--format", "csv")
    assert code == 0
    rows = formats.from_csv(formats.SERIES_ITEM, out)
    assert [it.n for it in rows] == [0, 1, 2, 3, 4]
    assert (rows[0].t, rows[0].value) == (0.0, 1.0)


def test_phi_lambda_divergence_exits_two():
    # 2 * (1/3) * 1 has non-integer trace sums on tribonacci and on silver
    for poly in ("1,1,1", "2,1"):
        code, out, err = run("phi", "--poly", poly, "--lam", "1/3", "--q", "1")
        assert code == 2
        assert out == ""
        assert "diverges" in err


def test_phi_output_survives_optimized_mode():
    # python -O strips assert statements; no check the output relies on may
    # be one.  x^2 - 2x - 1 has a digit vector that is not a palindrome.
    argv = ["phi", "--poly", "2,1", "--z", "1"]
    plain = subprocess.run(CMD + argv, capture_output=True, text=True)
    optimized = subprocess.run([sys.executable, "-O"] + CMD[1:] + argv,
                               capture_output=True, text=True)
    assert plain.returncode == 0 and optimized.returncode == 0
    assert optimized.stdout == plain.stdout
    assert json.loads(plain.stdout)["value"].startswith("0.0491439580769237987")


def test_library_import_leaves_cli_unloaded():
    code = ("import sys, pisot_spectra; "
            "sys.exit('pisot_spectra.cli' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


# precise invocations: none of them evaluates a float64 batch
PRECISE_ARGVS = [
    ["check", "--poly", "1,1"],
    ["eval", "--poly", "1,1", "--t", "3/2"],
    ["eval", "--poly", "1,1,1", "--r", "1/3", "--count", "3"],
    ["phi", "--poly", "1,1", "--z", "1"],
    ["limit", "--poly", "1,1", "--z", "1;0,1", "--A", "2", "--r", "1/2"],
    ["enumerate", "--poly", "1,1", "--r", "1/2", "--height", "1",
     "--m-max", "1", "--a-max", "1", "--eta", "1e-3"],
    ["synthesize", "--poly", "1,1", "--r", "1/2", "--z", "1", "--A", "0",
     "--k", "10"],
    ["trace", "--poly", "1,1", "--y", "1", "--count", "30"],
    ["recur", "--poly", "1,0,0,1", "--y", "1", "--count", "20"],
    ["discrepancy", "--alpha", "0.25", "--x", "1,2,3,4"],
    ["discrepancy", "--alpha", "0.6180339887", "--count", "500"],
]


def test_precise_commands_leave_numpy_unloaded():
    code = (
        "import io, sys, contextlib\n"
        "import pisot_spectra, pisot_spectra.cli as cli\n"
        f"for argv in {PRECISE_ARGVS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        if cli.main(argv) != 0:\n"
        "            sys.exit(f'exit code on {argv}')\n"
        "    if 'numpy' in sys.modules:\n"
        "        sys.exit(f'numpy loaded by {argv}')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    # the float64 path still loads it where it is needed
    sample = ("import sys, pisot_spectra.cli as cli; "
              "cli.main(['sample', '--poly', '1,1', '--r', '1/2', '--N', "
              "'60', '--format', 'csv']); "
              "sys.exit('numpy' not in sys.modules)")
    assert subprocess.run([sys.executable, "-c", sample],
                          capture_output=True).returncode == 0


def test_help_exits_zero():
    names = ("check", "eval", "trace", "recur", "phi", "limit", "enumerate",
             "synthesize", "sample", "fill", "jset", "discrepancy",
             "translate", "decay")
    code, out, _ = run("--help")
    assert code == 0
    for name in names:
        assert name in out
    # every declaration builds a working sub-parser
    for name in names:
        code, out, _ = run(name, "--help")
        assert code == 0 and out.startswith(f"usage: pisot {name} ")


def test_eval_at_zero_gives_one():
    code, out, _ = run("eval", "--poly", "1,1", "--t", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == "1.0"
    assert obj["contains_zero"] is False
    assert obj["t_kind"] == "field"


def test_eval_flat_binary_integer_hits_exact_zero():
    code, out, _ = run("eval", "--poly", "2", "--t", "12")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == "0.0"
    assert obj["contains_zero"] is True


def test_eval_series_csv_round_trips():
    code, out, _ = run("eval", "--poly", "1,1", "--r", "1/2", "--count", "5",
                       "--format", "csv")
    assert code == 0
    items = formats.from_csv(formats.SERIES_ITEM, out)
    assert [it.n for it in items] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("fast", [[], ["--fast"]], ids=["precise", "fast"])
def test_eval_empty_series_exits_zero(fast):
    # --count 0 is an empty index range: no sample is planned or checked
    argv = ["eval", "--poly", "1,1", "--r", "1", "--count", "0"] + fast
    code, out, _ = run(*argv)
    assert code == 0
    assert strict_json(out)["items"] == []
    code, out, _ = run(*argv, "--format", "csv")
    assert code == 0
    assert out == "n,t,value,error_bound,contains_zero\n"
    assert formats.from_csv(formats.SERIES_ITEM, out) == []


def test_trace_lists_lucas_integers():
    code, out, _ = run("trace", "--poly", "1,1", "--y", "1", "--count", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["K"] == [2, 3, 4, 7, 11]
    # theta and theta^2 both sit 0.382 from the nearest integer, past the
    # default threshold delta_max = 1/3; theta^3 is 0.236 away and inside
    assert obj["exceed_set"] == [1, 2]


def test_recur_reports_clean_run():
    code, out, _ = run("recur", "--poly", "1,1", "--y", "1", "--count", "30")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and obj["violations"] == []
    assert obj["delta"] == "1/6"


def test_phi_value_and_doubled_form_agree():
    code, out, _ = run("phi", "--poly", "1,1", "--z", "1")
    assert code == 0
    direct = json.loads(out)
    assert direct["value"].startswith("0.00661349303534412")
    code, out, _ = run("phi", "--poly", "1,1", "--lam", "1/2", "--q", "1")
    assert code == 0
    doubled = json.loads(out)
    a = float(formats.parse_decimal(direct["value"]))
    b = float(formats.parse_decimal(doubled["value"]))
    assert abs(a - b) < 1e-15


def test_limit_composes_products():
    code, out, _ = run("limit", "--poly", "1,1", "--z", "1", "--A", "0",
                       "--r", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"].startswith("0.00661349303534412")
    assert obj["z"] == [[1, 0]]


def test_enumerate_window_ids():
    code, out, _ = run("enumerate", "--poly", "1,1", "--r", "1", "--height",
                       "2", "--m-max", "2", "--a-max", "3", "--eta", "1e-3")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 4
    assert [c["id"] for c in obj["items"]] == ["87", "62", "78", "12"]
    assert obj["items"][0]["predicted"] == "1.0"


def test_synthesize_example_and_ambiguity_exit():
    code, out, _ = run("synthesize", "--poly", "1,1", "--r", "1/2", "--z",
                       "1", "--A", "0", "--k", "10")
    assert code == 0
    assert json.loads(out)["n"] == 123
    code, out, err = run("synthesize", "--poly", "1,1", "--r", "1", "--z",
                         "1", "--A", "0", "--k", "187")
    assert code == 3
    assert "precision" in err


def test_sample_matches_and_is_byte_identical():
    args = ("sample", "--poly", "1,1", "--r", "1", "--N", "200000", "--eta",
            "2e-3", "--match-height", "2")
    code, out1, _ = run(*args)
    assert code == 0
    obj = json.loads(out1)
    assert obj["empty_retention"] is False
    assert len(obj["clusters"]) == 1
    assert obj["clusters"][0]["center"].startswith("0.002856567804")
    assert obj["matches"][0][1] == "12"
    assert obj["r_kind"] == "field"
    assert obj["seed"] == 0
    code, out2, _ = run(*args)
    assert out1 == out2


def test_sample_raw_csv_stream():
    code, out, _ = run("sample", "--poly", "1,1", "--r", "1", "--N", "2000",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,t,value,error_bound,contains_zero"
    assert len(lines) == 1002  # n = 1000..2000
    assert lines[1].startswith("1000,")


def test_raw_csv_stream_and_fast_series_share_one_rule():
    # binary base, integer t: every value is an exact zero, which both
    # float64 streams report as bracketing zero
    code, raw, _ = run("sample", "--poly", "2", "--r", "1", "--N", "8",
                       "--n-min", "1", "--format", "csv")
    assert code == 0
    code, series, _ = run("eval", "--poly", "2", "--r", "1", "--count", "8",
                          "--fast", "--format", "csv")
    assert code == 0
    assert raw == series
    assert all(it.contains_zero for it in formats.from_csv(formats.SERIES_ITEM, raw))


def test_float64_batches_over_their_bound_exit_three():
    # the derived bound reaches FAST_ERROR = 1e-9 near |t| = 2.6e5 (golden)
    assert run("sample", "--poly", "1,1", "--r", "1", "--N", "1000000",
               "--format", "csv")[0] == 3
    assert run("eval", "--poly", "1,1", "--r", "1000000", "--count", "2",
               "--fast")[0] == 3
    assert run("decay", "--poly", "1,1", "--N", "1048576")[0] == 3
    code, out, _ = run("decay", "--poly", "1,1", "--N", "65536")
    assert code == 0 and len(json.loads(out)["blocks"]) == 16


def test_fill_reports_interval_statistics():
    code, out, _ = run("fill", "--poly", "1,1", "--r", "1.37", "--N", "1000")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "interval"
    assert obj["r_kind"] == "real"
    assert obj["count"] == 501
    assert float(formats.parse_decimal(obj["max_gap"])) > 0


def test_jset_accepts_theta_or_poly():
    code, out, _ = run("jset", "--theta", "2.0", "--t-max", "100")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 2514
    code, _, _ = run("jset", "--poly", "1,1", "--t-max", "100",
                     "--grid-step", "1.0")
    assert code == 2  # grid step beyond the derivative-safe cap


def test_discrepancy_exact_value():
    code, out, _ = run("discrepancy", "--alpha", "0.25", "--x", "1,2,3,4")
    assert code == 0
    assert json.loads(out)["d_star"] == "0.25"
    # --count n is the sequence 1..n
    assert run("discrepancy", "--alpha", "0.25", "--count", "4") == (0, out,
                                                                     "")


def test_translate_reports_coverage():
    code, out, _ = run("translate", "--poly", "1,1", "--r", "1", "--gamma",
                       "0.5044324023878307", "--N", "100000", "--eta", "1e-4")
    assert code == 0
    obj = json.loads(out)
    assert obj["coverage"] == 0.984375
    assert obj["gamma_kind"] == "real"
    assert obj["empty_retention"] is False


def test_float64_outputs_print_the_exact_zeros():
    # theta = 2: mu_hat(n) = sin(4 pi n)/(4 pi n) = 0 for every n >= 1, so
    # every block maximum is 0.0, as in the rows of eval --fast
    code, out, _ = run("decay", "--poly", "2", "--N", "64")
    assert code == 0
    assert [b["value"] for b in json.loads(out)["blocks"]] == ["0.0"] * 6
    code, out, _ = run("eval", "--poly", "2", "--r", "1", "--count", "3",
                       "--fast")
    assert [it["value"] for it in json.loads(out)["items"]] == ["0.0"] * 3
    # theta = 4: the first factor at n = 1 is cos(pi/2)
    code, out, _ = run("decay", "--poly", "4", "--N", "64")
    assert code == 0 and json.loads(out)["blocks"][0]["value"] == "0.0"


def test_decay_theta_as_a_number_prints_the_bytes_of_its_poly():
    # the float64 zero rule reads an even base from theta's value
    want = run("decay", "--poly", "2", "--N", "8")
    assert want[0] == 0
    for theta in ("2.0", "2"):
        assert run("decay", "--theta", theta, "--N", "8") == want


def test_decay_block_layout():
    code, out, _ = run("decay", "--theta", "1.5", "--N", "1024")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["blocks"]) == 10
    assert obj["blocks"][0] == {"k": 0, "start": 1, "stop": 2,
                                "value": obj["blocks"][0]["value"]}
    code, out, _ = run("decay", "--theta", "2.0", "--N", "16",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "k,start,stop,value"


def test_environment_variable_sets_precision():
    code, out, _ = run("check", "--poly", "1,1",
                       env_extra={"PISOT_PRECISION_BITS": "128"})
    assert code == 0
    obj = json.loads(out)
    assert obj["precision_bits"] == 128
    # explicit flag wins over the environment
    code, out, _ = run("check", "--poly", "1,1", "--precision-bits", "192",
                       env_extra={"PISOT_PRECISION_BITS": "128"})
    assert json.loads(out)["precision_bits"] == 192


def test_out_path_that_cannot_be_written_exits_one(tmp_path):
    # a directory, and a file in a directory that does not exist
    for target in (tmp_path, tmp_path / "missing" / "report.json"):
        code, out, err = run("check", "--poly", "1,1", "--out", str(target))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "cannot write" in err


def test_out_flag_writes_same_bytes(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run("check", "--poly", "1,1")
    code2, out2, _ = run("check", "--poly", "1,1", "--out", str(target))
    assert code == code2 == 0
    assert out2 == ""
    assert target.read_text() == out
