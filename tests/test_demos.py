"""The demos print exactly their recorded output.

Each script in demos/ runs in this process with runpy, at a fresh
interpreter's 53-bit mpmath precision, and its stdout must equal
tests/golden/demo_<script>.out.  Regenerate the recorded files only for an
intended change of output, with `python tests/test_demos.py`.
"""

import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import mpmath as mp
import pytest

DEMO_DIR = Path(__file__).parent.parent / "demos"
GOLDEN_DIR = Path(__file__).parent / "golden"
DEMOS = sorted(path.stem for path in DEMO_DIR.glob("*.py"))


def run_demo(name) -> str:
    buf = io.StringIO()
    with mp.workprec(53), redirect_stdout(buf):
        runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    return buf.getvalue()


def test_every_demo_is_recorded():
    assert len(DEMOS) == 5
    assert all((GOLDEN_DIR / f"demo_{name}.out").exists() for name in DEMOS)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_prints_its_recorded_output(name):
    expected = (GOLDEN_DIR / f"demo_{name}.out").read_text(encoding="utf-8")
    assert run_demo(name) == expected


if __name__ == "__main__":
    for name in DEMOS:
        (GOLDEN_DIR / f"demo_{name}.out").write_text(run_demo(name),
                                                     encoding="utf-8")
