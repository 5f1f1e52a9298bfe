"""Print the sha256 of every seeded output of the command line, one per line.

The outputs, each at the default seed and settings:

* the ``analyze`` CSV and stdout of the 7 bundled potentials and of the 6
  that ``perfbench/gen_inputs.py --seed 7`` generates;
* the ``weights`` stdout of the same 13 potentials (weights writes no CSV);
* the ``trace`` CSV and stdout of weighted24, ball3 and square_norm;
* the ``burns --csv`` CSV and stdout of square_norm at ``--grid-n 20``;
* ``suite_summary.csv`` and the stdout of ``suite`` on both corpora.

Wall times are stripped from stdout. Each line also shows the exit code of
the command that wrote the output. Two checkouts that print the same lines
wrote the same bytes. The last bits of some values depend on the CPU's SIMD
paths and on the BLAS thread count, so compare two commits on one machine;
the script pins one BLAS thread unless OPENBLAS_NUM_THREADS is set.

Usage, from the root of a checkout: python3 tools/output_digests.py
"""

from __future__ import annotations

import hashlib
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mafoliation import cli  # noqa: E402

BUNDLED = ("ball2", "ball3", "nonma", "quartic_diag", "quartic_mixed", "square_norm", "weighted24")
GENERATED = ("chain_n4", "chain_n8", "normsq_n4", "normsq_n8", "weighted_n4", "weighted_n8")
TRACES = {"weighted24": "1+0i,1+0i", "ball3": "1+0i,0.5+0.5i,0.3-0.2i", "square_norm": "1+0i,0.5-0.5i"}
_WALL = re.compile(r" \[\d+\.\d+s\]")


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _run(label, argv, out_dir, csv_name):
    """Run one command in-process; yield the digest lines of its CSV (None:
    it writes none) and stdout. The first line shows the exit code."""
    text = io.StringIO()
    with redirect_stdout(text), redirect_stderr(text):
        code = cli.main([*argv, "--out", out_dir])
    stdout = f"{_sha(_WALL.sub('', text.getvalue()).encode())}  {label}.stdout"
    if csv_name is None:
        yield f"{stdout} (exit {code})"
        return
    csv_path = Path(out_dir) / csv_name
    csv_digest = _sha(csv_path.read_bytes()) if csv_path.exists() else "missing"
    yield f"{csv_digest}  {label}.csv (exit {code})"
    yield stdout


def digests():
    """The digest lines, computed in a temporary directory with relative
    paths, so that no line depends on where the checkout sits."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            shutil.copytree(cli.bundled_corpus_dir(), "bundled")
            subprocess.run([sys.executable, str(ROOT / "perfbench" / "gen_inputs.py"), "--seed", "7",
                            "--out", "generated"], check=True, capture_output=True)
            inputs = [(corpus, name) for corpus, names in (("bundled", BUNDLED), ("generated", GENERATED))
                      for name in names]
            runs = [(f"analyze/{name}", ["analyze", f"{corpus}/{name}.pot"], "analyze", f"{name}_analyze.csv")
                    for corpus, name in inputs]
            runs += [(f"weights/{name}", ["weights", f"{corpus}/{name}.pot"], "weights", None)
                     for corpus, name in inputs]
            runs += [(f"trace/{name}", ["trace", f"bundled/{name}.pot", f"--base={base}"], "trace",
                      f"{name}_trace.csv") for name, base in TRACES.items()]
            runs.append(("burns/square_norm", ["burns", "bundled/square_norm.pot", "--grid-n", "20", "--csv"],
                         "burns", "square_norm_burns.csv"))
            runs += [(f"suite/{corpus}", ["suite", corpus], f"suite_{corpus}", "suite_summary.csv")
                     for corpus in ("bundled", "generated")]
            return [line for label, argv, out, name in runs for line in _run(label, argv, out, name)]
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    print("\n".join(digests()))
