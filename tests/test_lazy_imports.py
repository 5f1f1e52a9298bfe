"""No subcommand imports numpy.ma. numpy 2.4's np.unique without index
outputs calls np.ma.is_masked, whose lazy import of numpy.ma cost each trace
process 8 ms and 1.25 MB RSS; foliation._sweep sorts its node values instead."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mafoliation.cli import bundled_corpus_dir

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = bundled_corpus_dir()
COMMANDS = {
    "analyze": ["analyze", DATA / "ball2.pot", "--samples", "50"],
    "trace": ["trace", DATA / "weighted24.pot", "--base", "1+0i,1+0i", "--t-nodes", "3", "--s-nodes", "4"],
    "weights": ["weights", DATA / "weighted24.pot", "--samples", "20"],
    "burns": ["burns", DATA / "ball2.pot", "--grid-n", "4", "--csv"],
    "suite": ["suite", DATA, "--samples", "20"],
}
# the command's output goes to a buffer; the process prints its exit code and whether numpy.ma was imported
SCRIPT = """
import contextlib, io, sys
from mafoliation.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_does_not_import_numpy_ma(command, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", SCRIPT, *map(str, COMMANDS[command]), "--out", str(tmp_path)]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split() == ["0", "False"], done.stderr
