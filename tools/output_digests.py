"""Print the sha256 of every seeded output of the command line, one per line.

The outputs, each at the default seed and settings:

* the ``analyze`` CSV and stdout of the 7 bundled potentials and of the 6
  that ``perfbench/gen_inputs.py --seed 7`` generates;
* the ``weights`` stdout of the same 13 potentials (weights writes no CSV);
* the ``trace`` CSV and stdout of weighted24, ball3 and square_norm, and of
  two traces that integrate backward: weighted24 from 0.9+0.2i,0.5-0.5i at
  negative ``--t-max`` and ``--s-max``, and ball2 at ``--t-max -30``, which
  truncates at the domain boundary;
* the ``burns --csv`` CSV and stdout of square_norm at ``--grid-n 20``;
* the ``burns`` stdout, radial residual line included, of the grid
  benchmark's other three runs: ball3 at ``--grid-n 8``, quartic_mixed and
  the generated normsq_n4 at ``--grid-n 4``;
* ``suite_summary.csv`` and the stdout of ``suite`` on both corpora;
* ``theta_orbit_det_check`` from (1, 0) over t = 5 in 5,000 steps on
  weighted24 and on |z1|^2 + |z2|^12, as the reprs of its two maxima;
* the ``rescale_to_level`` samples (onto rho = 1) and the
  ``flow_level_map_check`` value (to rho = 2) of ball2 and weighted24, from
  50 points of ``sample_domain(..., 1.5, min_rho=1e-3)`` at seed 1.

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

import numpy as np  # noqa: E402

from mafoliation import cli, gradient, homogeneity, potential, sampling  # noqa: E402

BUNDLED = ("ball2", "ball3", "nonma", "quartic_diag", "quartic_mixed", "square_norm", "weighted24")
GENERATED = ("chain_n4", "chain_n8", "normsq_n4", "normsq_n8", "weighted_n4", "weighted_n8")
BURNS = {"ball3": ("bundled", "8"), "quartic_mixed": ("bundled", "20"), "normsq_n4": ("generated", "4")}
TRACES = {  # label: potential, options
    "weighted24": ("weighted24", "--base=1+0i,1+0i"),
    "ball3": ("ball3", "--base=1+0i,0.5+0.5i,0.3-0.2i"),
    "square_norm": ("square_norm", "--base=1+0i,0.5-0.5i"),
    "weighted24.backward": ("weighted24", "--base=0.9+0.2i,0.5-0.5i", "--t-max", "-1.5", "--t-nodes", "7",
                            "--s-max", "-3", "--s-nodes", "9"),
    "ball2.truncated": ("ball2", "--base=1+0i,0+0i", "--t-max", "-30"),
}
ORBITS = {"weighted24": None, "z1^2+z2^12": {((1, 0), (1, 0)): 1, ((0, 6), (0, 6)): 1}}
LEVEL_MAPS = ("ball2", "weighted24")
_WALL = re.compile(r" \[\d+\.\d+s\]")


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _run(label, argv, out_dir, csv_name):
    """Run one command in-process; yield the digest lines of its CSV (None:
    it writes none) and stdout. The first line shows the exit code. A CSV
    that an earlier run left under the same name is removed first."""
    if csv_name is not None:
        (Path(out_dir) / csv_name).unlink(missing_ok=True)
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


def _flow_lines():
    """The Theta orbit and level-map lines: the values of the flows of Z that
    no command prints in full."""
    corpus = cli.bundled_corpus_dir()
    for label, terms in ORBITS.items():
        p = potential.parse_potential_file(corpus / f"{label}.pot") if terms is None else potential.PolyPotential(2, terms)
        res = gradient.theta_orbit_det_check(p, [1, 0], t_max=5.0, steps=5000)
        yield f"{res.max_abs_det!r} {res.max_rho_drift!r}  theta_orbit/{label} (skipped {res.skipped})"
    for name in LEVEL_MAPS:
        p = potential.parse_potential_file(corpus / f"{name}.pot")
        pts = sampling.sample_domain(p, 50, 1.5, np.random.default_rng(1), min_rho=1e-3)
        samples = np.array([homogeneity.rescale_to_level(p, z, 1.0) for z in pts])
        yield f"{_sha(samples.tobytes())}  level_map/{name}.samples"
        yield f"{homogeneity.flow_level_map_check(p, 1.0, 2.0, samples)!r}  level_map/{name}.check"


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
            runs += [(f"trace/{label}", ["trace", f"bundled/{name}.pot", *args], "trace", f"{name}_trace.csv")
                     for label, (name, *args) in TRACES.items()]
            runs.append(("burns/square_norm", ["burns", "bundled/square_norm.pot", "--grid-n", "20", "--csv"],
                         "burns", "square_norm_burns.csv"))
            runs += [(f"burns/{name}", ["burns", f"{corpus}/{name}.pot", "--grid-n", grid_n], "burns", None)
                     for name, (corpus, grid_n) in BURNS.items()]
            runs += [(f"suite/{corpus}", ["suite", corpus], f"suite_{corpus}", "suite_summary.csv")
                     for corpus in ("bundled", "generated")]
            return [line for label, argv, out, name in runs for line in _run(label, argv, out, name)] + list(_flow_lines())
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    print("\n".join(digests()))
