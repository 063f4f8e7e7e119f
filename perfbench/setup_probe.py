"""One set-up of the package in a fresh interpreter.

    python3 perfbench/setup_probe.py '[[1, 1], [1, 1, 1]]' '["eval", "--poly", "1,1", "--t", "1/3"]'

imports `pisot_spectra` from ./src, certifies each base and makes one
warm-up invocation with its output discarded.  The benchmark times whole
runs of this script to measure set-up.
"""

import io
import json
import sys
from contextlib import redirect_stdout

sys.path.insert(0, "src")

from pisot_spectra import build_pisot, cli  # noqa: E402

for d in json.loads(sys.argv[1]):
    build_pisot(tuple(d))
with redirect_stdout(io.StringIO()):
    sys.exit(cli.main(json.loads(sys.argv[2])))
