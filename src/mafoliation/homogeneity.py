"""Weighted-homogeneity weights: recovery, verification, and flow evidence.

A potential is weighted homogeneous with weights c = (c_1, ..., c_n) when
rho(e^{c_1 L} z^1, ..., e^{c_n L} z^n) = |e^L|^2 rho(z) for every complex L.
Because L ranges over all complex numbers, every stored monomial (alpha, beta)
must satisfy both sum_j c_j alpha_j = 1 and sum_j c_j beta_j = 1 - two
equations, not their sum; collapsing them would wrongly accept mixed-bidegree
terms.

The exponents are integers, so the system A c = 1 is solved by exact rational
elimination, with no tolerance; the certificate of an infeasible system is an
irreducible subset of <= n + 1 equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gradient import RealFieldKind, flow_points
from .levi import _outside
from .thresholds import LEVEL_BISECT_TOL, LEVEL_SET_TOL

# rescale_to_level: points per multisection round (32 cells, 5 bits of s per
# round) and the round cap, 32^40 = 2^200 as for 200 bisection steps
LEVEL_SECTIONS = 33
LEVEL_ROUNDS = 40
# the scalings L of verify_weights in the CLI's weight checks: real, imaginary
# and generic complex values (a real L alone cannot see an alpha/beta asymmetry)
LAMBDA_SAMPLES = (1.0, 1j, 1.0 + 1j, -0.5 + 0.25j, 2j, 0.3, -1.0 + 0.7j, 0.8 - 1.1j)


@dataclass(frozen=True)
class Equation:
    """One feasibility row: sum_j coeffs[j] * c_j = 1."""

    coeffs: tuple

    @property
    def label(self):
        parts = []
        for j, k in enumerate(self.coeffs):
            if k == 0:
                continue
            parts.append(f"c{j + 1}" if k == 1 else f"{k} c{j + 1}")
        lhs = " + ".join(parts) if parts else "0"
        return f"{lhs} = 1"


@dataclass(frozen=True)
class WeightAnalysis:
    """Full diagnosis of the weight feasibility system."""

    status: str                      # "ok" | "not_positive" | "infeasible"
    weights: np.ndarray | None
    unique: bool
    residual: float
    equations: tuple
    inconsistent_subset: tuple | None


def weight_equations(p):
    """Deduplicated equation rows from every stored monomial, deterministic order."""
    rows = set()
    for (alpha, beta) in p.terms:
        rows.add(tuple(alpha))
        rows.add(tuple(beta))
    ordered = sorted(rows, key=lambda r: (sum(r), tuple(-x for x in r)))
    return tuple(Equation(coeffs=r) for r in ordered)


def _eliminate(rows):
    """Gauss-Jordan over the rationals on the augmented rows [row | 1], one
    row at a time: the one solver of the weight system. Returns (basis,
    pivots, bad, r): the indices of the rows that raised the rank; each pivot
    column's reduced row (right-hand side last); the index of the first row
    that reduces to 0 = r != 0, where elimination stops (else None, r = 0).
    """
    basis, pivots = [], {}
    for i, row in enumerate(rows):
        v = [Fraction(x) for x in row] + [Fraction(1)]
        for col, piv in pivots.items():
            if v[col]:
                v = [a - v[col] * b for a, b in zip(v, piv)]
        col = next((j for j, x in enumerate(v[:-1]) if x), None)
        if col is None:
            if v[-1]:
                return basis, pivots, i, v[-1]
            continue
        v = [x / v[col] for x in v]
        for k, piv in pivots.items():
            if piv[col]:
                pivots[k] = [a - piv[col] * b for a, b in zip(piv, v)]
        pivots[col] = v
        basis.append(i)
    return basis, pivots, None, Fraction(0)


def analyze_weights(p):
    """Solve the weight feasibility system exactly and report the full diagnosis.

    A feasible system gives its minimum-norm solution c = B^T y, with B its
    independent rows and B B^T y = 1, unique when the rank is n; one with a
    non-positive entry is reported as "not_positive", not discarded. An
    infeasible one gives an irreducible inconsistent subset of <= rank + 1
    equations, by a deletion filter on B and the first row it contradicts,
    and the residual |r|: the constant left when the subset's equations,
    the last with coefficient 1, are combined to cancel every c_j.
    """
    equations = weight_equations(p)
    rows = [eq.coeffs for eq in equations]
    basis, _, bad, _ = _eliminate(rows)
    if bad is None:
        b = [rows[k] for k in basis]
        gram = _eliminate([[sum(x * y for x, y in zip(u, w)) for w in b] for u in b])[1]
        c = [sum(gram[i][-1] * u[j] for i, u in enumerate(b)) for j in range(p.dim)]
        status = "ok" if all(x > 0 for x in c) else "not_positive"
        return WeightAnalysis(status, np.array(c, dtype=float), len(basis) == p.dim, 0.0, equations, None)
    subset = basis + [bad]
    for k in basis + [bad]:
        trial = [i for i in subset if i != k]
        if _eliminate([rows[i] for i in trial])[2] is not None:
            subset = trial
    r = _eliminate([rows[i] for i in subset])[3]
    return WeightAnalysis("infeasible", None, False, float(abs(r)), equations, tuple(equations[i] for i in subset))


def verify_weights(p, c, z_samples, lam_samples):
    """Max relative residual of the homogeneity identity over samples.

    lam_samples should include values with nonzero imaginary part; purely
    real scalings cannot detect alpha/beta asymmetry.
    """
    weights = np.asarray(c, dtype=float)
    pts = np.asarray(z_samples, dtype=complex)
    base = p.evaluate_many(pts).real
    worst = 0.0
    for lam in map(complex, lam_samples):
        moved = p.evaluate_many(np.exp(weights * lam) * pts).real
        rel = np.abs(moved - abs(np.exp(lam)) ** 2 * base) / np.abs(base)
        worst = float(np.max(rel, initial=worst))
    return worst


def rescale_to_level(p, z, r):
    """The point s z, s > 0, with rho(s z) = r, found by bracketing and multisection.

    The bracket [lo, hi] has rho(lo z) <= r <= rho(hi z). Each round
    evaluates rho at LEVEL_SECTIONS equispaced s in [lo, hi] in one batch and
    returns the first s within LEVEL_BISECT_TOL * max(1, r) of the level;
    otherwise it narrows the bracket to the first cell where rho - r turns
    positive. LEVEL_ROUNDS rounds narrow it as much as 200 bisection steps
    would; after them the midpoint is returned.
    """
    z = np.asarray(z, dtype=complex).ravel()
    if _outside(p.evaluate(z).real):
        raise ValueError("need rho(z) > 0 to rescale onto a level set")

    def val(s):
        return p.evaluate(s * z).real - r

    lo = hi = 1.0
    for _ in range(80):
        if val(hi) >= 0:
            break
        hi *= 2.0
    else:
        raise ValueError("could not bracket the level set from above")
    for _ in range(80):
        if val(lo) <= 0:
            break
        lo /= 2.0
    else:
        raise ValueError("could not bracket the level set from below")
    tol = LEVEL_BISECT_TOL * max(1.0, r)
    for _ in range(LEVEL_ROUNDS):
        s = np.linspace(lo, hi, LEVEL_SECTIONS)
        v = p.evaluate_many(s[:, None] * z).real - r
        hit = np.flatnonzero(np.abs(v) <= tol)
        if hit.size:
            return s[hit[0]] * z
        # the first cell whose right end is above the level (the last cell
        # when roundoff leaves no point above it)
        above = np.flatnonzero(v > 0)
        k = max(int(above[0]), 1) if above.size else LEVEL_SECTIONS - 1
        lo, hi = s[k - 1], s[k]
    return 0.5 * (lo + hi) * z


def flow_level_map_check(p, r1, r2, boundary_samples):
    """Flow {rho = r1} samples along X for log(r2/r1) and measure the miss.

    Returns max |rho(endpoint) - r2| / r2. Samples must lie on {rho = r1}
    within LEVEL_SET_TOL relative.
    """
    if r1 <= 0 or r2 <= 0:
        raise ValueError("level values must be positive")
    pts = np.asarray(boundary_samples, dtype=complex)
    values = p.evaluate_many(pts).real
    off = np.max(np.abs(values - r1)) / r1
    if off > LEVEL_SET_TOL:
        raise ValueError(
            f"samples are not on the level set rho = {r1}: worst relative offset {off:.3e}"
        )
    duration = math.log(r2 / r1)
    ends = flow_points(p, pts, duration, RealFieldKind.X)
    end_values = p.evaluate_many(ends).real
    return float(np.max(np.abs(end_values - r2)) / r2)
