"""Golden-output regression: exact stdout of fixed `pisot` invocations.

Each case runs in-process through `cli.main` and must print exactly the
bytes stored in tests/golden/<name>.out.  The cases cover all 14
subcommands, `sample` at small and large N (one float64 batch with a
precise spot check at every N) and with candidate matching, CSV output
(float64 rows with exact zeros among them) and a non-default precision and
tolerance.

Every stored output is also read back through its `formats` table and
written again, which must give the same fields (for CSV, the same bytes).

The stored files are the reference; regenerate them only for an intended
change of output, with `python tests/test_cli_golden.py`.
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from pisot_spectra import build_pisot, cli, formats

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "check_tribonacci": ["check", "--poly", "1,1,1"],
    "eval_t_golden": ["eval", "--poly", "1,1", "--t", "3/2"],
    "eval_t_field": ["eval", "--poly", "1,1", "--t", "0,1"],
    "eval_t_quartic_large": ["eval", "--poly", "1,0,0,1",
                             "--t", "1000000000000"],
    "eval_series_binary": ["eval", "--poly", "2", "--r", "1/3",
                           "--count", "5"],
    "eval_series_fine": ["eval", "--poly", "1,1,1", "--r", "1/3",
                         "--count", "12", "--tol", "1e-40",
                         "--precision-bits", "512"],
    "eval_series_zeros_512": ["eval", "--poly", "1,1", "--r", "1/4",
                              "--count", "8", "--tol", "1e-40",
                              "--precision-bits", "512"],
    "eval_fast_csv": ["eval", "--poly", "1,1", "--r", "1/2", "--count", "40",
                      "--fast", "--format", "csv"],
    "eval_fast_zeros_csv": ["eval", "--poly", "1,1", "--r", "1/4",
                            "--count", "3", "--fast", "--format", "csv"],
    "trace_golden": ["trace", "--poly", "1,1", "--y", "1", "--count", "30"],
    "trace_tribonacci": ["trace", "--poly", "1,1,1", "--y", "3/2",
                         "--count", "40", "--delta", "1/10"],
    "recur_quartic": ["recur", "--poly", "1,0,0,1", "--y", "1",
                      "--count", "60"],
    "phi_golden": ["phi", "--poly", "1,1", "--z", "1"],
    "phi_quartic": ["phi", "--poly", "1,0,0,1", "--z", "1,1,0,0"],
    "phi_quartic_512": ["phi", "--poly", "1,0,0,1", "--z", "1,1,0,0",
                        "--precision-bits", "512"],
    "phi_lambda": ["phi", "--poly", "1,1", "--lam", "1/2", "--q", "0,1"],
    "phi_silver": ["phi", "--poly", "2,1", "--z", "1"],
    "limit_golden": ["limit", "--poly", "1,1", "--z", "1;0,1", "--A", "2",
                     "--r", "1/2"],
    "limit_silver": ["limit", "--poly", "2,1", "--z", "1;0,1", "--A", "1",
                     "--r", "1/2"],
    "enumerate_golden": ["enumerate", "--poly", "1,1", "--r", "1/2",
                         "--height", "1", "--m-max", "1", "--a-max", "1",
                         "--eta", "1e-3"],
    "enumerate_golden_r1": ["enumerate", "--poly", "1,1", "--r", "1",
                            "--height", "2", "--m-max", "2", "--a-max", "1",
                            "--eta", "1e-3"],
    "enumerate_tribonacci": ["enumerate", "--poly", "1,1,1", "--r", "1",
                             "--height", "1", "--m-max", "1", "--a-max", "2",
                             "--eta", "0.05"],
    "synthesize_golden": ["synthesize", "--poly", "1,1", "--r", "1/2",
                          "--z", "1", "--A", "0", "--k", "10"],
    "synthesize_tribonacci": ["synthesize", "--poly", "1,1,1", "--r", "1/3",
                              "--z", "1;1,1", "--A", "1", "--k", "4"],
    "sample_fast": ["sample", "--poly", "1,1", "--r", "1", "--N", "20002",
                    "--eta", "1e-3"],
    "sample_precise_matched": ["sample", "--poly", "1,1", "--r", "1",
                               "--N", "200", "--eta", "1e-3",
                               "--match-height", "1", "--match-m-max", "1",
                               "--match-a-max", "1"],
    "sample_csv": ["sample", "--poly", "1,1", "--r", "1/2", "--N", "60",
                   "--format", "csv"],
    "fill_golden": ["fill", "--poly", "1,1", "--r", "1.37", "--N", "200"],
    "jset_theta": ["jset", "--theta", "2.5", "--t-max", "2000"],
    "jset_golden": ["jset", "--poly", "1,1", "--t-max", "1000"],
    "discrepancy_x": ["discrepancy", "--alpha", "0.25", "--x", "1,2,3,4"],
    "translate_golden": ["translate", "--poly", "1,1", "--r", "1",
                         "--gamma", "0,1/2", "--N", "400", "--eta", "1e-3"],
    "decay_theta_csv": ["decay", "--theta", "1.5", "--N", "4096",
                        "--format", "csv"],
    "decay_tribonacci": ["decay", "--poly", "1,1,1", "--N", "4096"],
}


def run_case(argv) -> tuple:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, monkeypatch):
    monkeypatch.delenv(cli.ENV_PRECISION, raising=False)
    code, out = run_case(CASES[name])
    assert code == 0
    expected = (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
    assert out == expected



TABLES = [t for t in vars(formats).values() if isinstance(t, formats.Table)]


def _not_json(token):
    raise ValueError(f"{token} is not a JSON value")


def _flag(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_round_trips(name):
    # read at the case's precision, then written again: the same fields, and
    # for CSV the same bytes
    argv = CASES[name]
    pb = int(_flag(argv, "--precision-bits", 256))
    poly = _flag(argv, "--poly")
    P = None if poly is None else build_pisot(
        tuple(int(c) for c in poly.split(",")), precision_bits=pb)
    text = (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8")
    if _flag(argv, "--format") == "csv":
        header = text.splitlines()[0].split(",")
        table, = [t for t in TABLES if [f[0] for f in t.fields] == header]
        rows = formats.from_csv(table, text, pb, P)
        assert formats.to_csv(table, rows, pb) == text
        return
    # strict JSON: no NaN, Infinity or -Infinity token
    obj = json.loads(text, parse_constant=_not_json)
    table, = [t for t in TABLES
              if t.const.get("kind") == obj.get("kind")
              and set(t.const) | {key for key, _, _ in t.fields} <= set(obj)]
    again = formats.write(table, formats.read(table, obj, pb, P), pb)
    assert again == {key: obj[key] for key in again}

if __name__ == "__main__":
    os.environ.pop(cli.ENV_PRECISION, None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, out = run_case(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN_DIR / f"{name}.out").write_text(out, encoding="utf-8")
