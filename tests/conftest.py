"""Import paths for the package's tests: `python -m pytest` from the root of
a source checkout, with or without PYTHONPATH set.  src/ goes first on
sys.path, and on PYTHONPATH for the child processes that run
`python -m pisot_spectra`."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))
