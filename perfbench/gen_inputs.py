"""Seeded generator for the benchmark's n = 4 and n = 8 potentials.

Every potential is built by construction, so its expectation is known
without running the program under test:

* ``normsq_nK``   (sum_j a_j |z_j|^2)^2, a linear change of coordinates of
  (sum |z_j|^2)^2: Monge-Ampere, weights 1/2, bidegree (2, 2).
* ``weighted_nK`` sum_j a_j |z_j|^(2 d_j): Monge-Ampere with weights 1/d_j;
  mixed degrees, so the bidegree-(k,k) criterion fails.
* ``chain_nK``    sum_j a_j |z_j|^2 + sum_j b_j |z_j z_(j+1)|^2: not
  Monge-Ampere, and its weight equations are infeasible.

The seed only draws the positive coefficients a_j, b_j and the order of the
degrees d_j, so term counts and degrees (hence the cost of every operation)
do not depend on it. The files are written in the text format that
``mafoliation`` parses; the program under test only ever reads them.

Usage: python3 perfbench/gen_inputs.py --seed 7 --out perfbench/work/gen
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

# degrees d_j of the weighted potentials before the seeded shuffle
WEIGHTED_DEGREES = {4: (1, 2, 1, 2), 8: (1, 2, 3, 1, 2, 3, 1, 2)}


def _unit(dim, j, k=1):
    e = [0] * dim
    e[j] = k
    return e


def _mono(alpha, coeff):
    a = ",".join(str(v) for v in alpha)
    return f"monomial: a=[{a}] b=[{a}] c={float(coeff)!r}+0i"


def _normsq(dim, rng):
    a = rng.uniform(0.5, 1.5, dim)
    lines = []
    for j in range(dim):
        lines.append(_mono(_unit(dim, j, 2), a[j] ** 2))
        for k in range(j + 1, dim):
            alpha = _unit(dim, j)
            alpha[k] = 1
            lines.append(_mono(alpha, 2 * a[j] * a[k]))
    expect = {"ma": True, "weights": [0.5] * dim}
    return f"(sum_j a_j |z_j|^2)^2, n = {dim}", lines, expect


def _weighted(dim, rng):
    degrees = rng.permutation(WEIGHTED_DEGREES[dim])
    a = rng.uniform(0.5, 1.5, dim)
    lines = [_mono(_unit(dim, j, int(d)), a[j]) for j, d in enumerate(degrees)]
    expect = {"ma": True, "weights": [1.0 / int(d) for d in degrees]}
    return f"sum_j a_j |z_j|^(2 d_j), d = {tuple(int(d) for d in degrees)}", lines, expect


def _chain(dim, rng):
    a = rng.uniform(0.5, 1.5, dim)
    b = rng.uniform(0.5, 1.5, dim - 1)
    lines = [_mono(_unit(dim, j), a[j]) for j in range(dim)]
    for j in range(dim - 1):
        alpha = _unit(dim, j)
        alpha[j + 1] = 1
        lines.append(_mono(alpha, b[j]))
    expect = {"ma": False, "weights": None}
    return f"sum_j a_j |z_j|^2 + sum_j b_j |z_j z_(j+1)|^2, n = {dim}", lines, expect


# n = 8 entries carry no "burns" expectation: the suite floors its burns grid
# at 4 points per real axis, so n = 8 would ask real_grid for 4**16 points.
BURNS_EXPECT = {"normsq_n4": "pass", "weighted_n4": "fail", "chain_n4": "fail"}


def generate(seed, out_dir):
    """Write the six potentials and expect.json to out_dir; return their paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 4808])
    expectations = {}
    paths = {}
    for dim in (4, 8):
        for kind, build in (("normsq", _normsq), ("weighted", _weighted), ("chain", _chain)):
            name = f"{kind}_n{dim}"
            title, lines, expect = build(dim, rng)
            if name in BURNS_EXPECT:
                expect["burns"] = BURNS_EXPECT[name]
            path = out_dir / f"{name}.pot"
            path.write_text(
                f"# {title} (benchmark seed {seed})\nn = {dim}\n" + "\n".join(lines) + "\n",
                encoding="utf-8",
            )
            expectations[path.name] = expect
            paths[name] = path
    (out_dir / "expect.json").write_text(
        json.dumps(expectations, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for name, path in generate(args.seed, args.out).items():
        print(f"{name}: {path}")


if __name__ == "__main__":
    main()
