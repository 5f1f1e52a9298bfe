"""Bidegree-(k,k) criterion for homogeneous Monge-Ampere potentials.

For a positive homogeneous polynomial rho of degree 2k whose log is
plurisubharmonic and Monge-Ampere, the bidegree decomposition must be
supported on the single component (k, k), and the gradient field is radial
(Z = w/k). burns_check passes rho iff it is homogeneous of even degree 2k,
has no bidegree mass outside (k, k), is certified positive on the unit sphere
and its max scaled |det U| over the grid points with rho > RHO_FLOOR, of which
there must be one, is below VERDICT_MA_TOL; counterexamples fail with the
offending evidence located.

Positivity: on a pure-(k,k) rho, Re rho = v(z)* C v(z) with v the degree-k
monomials present in rho and every pure power z_j^k. If C is positive definite,
rho >= lambda_min(C) sum_j |z_j|^(2k) > 0 on the sphere (Quillen 1968;
D'Angelo 2002); an absent pure power leaves a zero row in C, and rho(e_j) = 0.

The positivity and Monge-Ampere gates are records of the check table in
thresholds.py, which burns and suite share; they are findings, and a gate that
did not run has no record. A pass must also have max ||Z - w/k|| < RADIAL_TOL
on the strictly psh grid points; if not, the report's internal_failure names a
code bug, which burns and suite both report. With no strictly psh point the
invariant is not applicable. Only the rows that can decide the max are
classified: Z comes from one direct solve (gradient._direct_z) on every kept
row; the rows it cannot settle are classified by eigvalsh, and the strict ones
get the least-squares row solve. The settled rows are ordered by ||Z - w/k||,
NaN first, and only the first RADIAL_CANDIDATE_ROWS are classified, or every
settled row when none of those is strict. The max is exactly the eager one
(eigvalsh on every row, Z on the strict ones): a row's Z, spectrum and
distance do not depend on the other rows, and a strict row outside the block
lies no farther than the block's strict max. The worst case is a grid of
degenerate rows: on |z1|^4, whose Hessians are all exactly singular, the
direct solve returns NaN on every row and every row is classified anyway.

The grid scan is one loop over the chunks in grid order (_scan_grid): each
chunk's jet, its rows with rho > RHO_FLOOR, the rows callback, the chunk's
radial max and its det U maxima, which np.max and np.argmax reduce after
the loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .gradient import _direct_z, _lstsq_rows
from .levi import LeviScan, levi_rank, levi_scan
from .potential import bidegree_decompose, homogeneous_degree
from .thresholds import RHO_FLOOR, outcome, threshold

# settled rows classified first for the radial max, farthest from w/k first
RADIAL_CANDIDATE_ROWS = 64


@dataclass
class BurnsReport:
    """Evidence bundle; verdict passes only if every gate is clean."""

    degree2k: int | None
    is_homogeneous: bool
    ma_max_residual: float  # max raw |det U|; NaN when a degree gate stops the check or no point is kept
    worst_ma_point: np.ndarray | None
    bidegree_mass: dict
    radial_field_residual: float | None  # None: no strictly psh grid point; NaN as ma_max_residual
    reasons: list
    gates: list  # CheckOutcome of each gate that ran, and of the radial invariant on a pass
    kept_points: int | None  # points with rho > RHO_FLOOR; None when a degree gate stops the check
    grid_size: int  # grid points given to burns_check, skipped ones included

    def gate(self, name):
        """The record of gate `name`, None if it did not run."""
        return next((oc for oc in self.gates if oc.name == name), None)

    @property
    def verdict(self):
        return not self.reasons

    @property
    def ma_max_scaled(self):  # NaN as ma_max_residual
        ma = self.gate("ma_residual_scaled")
        return float("nan") if ma is None or ma.measured is None else ma.measured

    @property
    def positivity_margin(self):  # min / max |eigenvalue| of C; None off pure (k,k)
        positivity = self.gate("positivity_margin")
        return None if positivity is None else positivity.measured

    @property
    def internal_failure(self):  # a passing verdict whose radial invariant fails
        radial = self.gate("radial_field_residual")
        if radial is not None and radial.status == "fail":
            return f"verdict passes but radial residual {radial.measured:.3e} >= {radial.threshold:g}"
        return None

    @property
    def skipped_points(self):
        return None if self.kept_points is None else self.grid_size - self.kept_points

    def format(self):
        deg = self.degree2k if self.degree2k is not None else "-"
        mass = ", ".join(f"({l},{m}): {v:.6g}" for (l, m), v in sorted(self.bidegree_mass.items()))
        lines = [f"homogeneous       : {self.is_homogeneous} (degree {deg})", f"bidegree mass     : {mass}"]
        if (ma := self.gate("ma_residual_scaled")) is None:
            lines.append("max |det U|       : not applicable (a degree gate failed)")
        elif ma.measured is None:
            lines.append(f"max |det U|       : not applicable (no grid point with rho > {RHO_FLOOR:g})")
        else:
            lines.append(f"max |det U|       : {self.ma_max_residual:.3e} "
                         f"(scaled {ma.measured:.3e}, threshold {ma.threshold:.0e})")
        if self.worst_ma_point is not None:
            coords = ", ".join(f"{c:.6g}" for c in self.worst_ma_point)
            lines.append(f"worst grid point  : ({coords})")
        if ma is None:
            radial = "not applicable (a degree gate failed)"
        elif self.radial_field_residual is None:
            radial = "not applicable (no strictly psh grid point)"
        else:
            tol = threshold("radial_field_residual")
            radial = f"{self.radial_field_residual:.3e} (max ||Z - w/k||, threshold {tol:.0e} on pass)"
        lines.append(f"radial residual   : {radial}")
        if (positivity := self.gate("positivity_margin")) is not None:
            lines.append(
                f"positivity margin : {positivity.measured:.6g} "
                f"(min/max eigenvalue of C in rho = v* C v, threshold > {positivity.threshold:g})"
            )
        if self.kept_points is not None:
            lines.append(f"skipped points    : {self.skipped_points} of {self.grid_size} (rho <= {RHO_FLOOR:g})")
        lines.append(f"verdict           : {'pass' if self.verdict else 'fail'}")
        return "\n".join(lines + [f"  - {reason}" for reason in self.reasons])


def _strict(hess):
    """Mask of the (M, n, n) Hessians of full numerical rank (the strictly psh
    stratum on rows with rho > 0)."""
    return levi_rank(np.linalg.eigvalsh(hess)) == hess.shape[-1]


def _radial_max(points, grad, hess, k):
    """Max ||Z - points/k|| over the strictly psh rows of (M, n) points with
    rho > 0, their gradients and Hessians (a NaN counts as the max); None
    without a strict row. Classifies only the rows that can decide the max
    (see the module docstring)."""
    z_field, unsettled = _direct_z(grad, hess)
    dist = np.linalg.norm(z_field - points / k, axis=1)
    rows = unsettled[_strict(hess[unsettled])]
    fallback = np.linalg.norm(_lstsq_rows(grad[rows], hess[rows]) - points[rows] / k, axis=1)
    settled = np.delete(np.arange(len(dist)), unsettled)
    block = settled[np.argsort(dist[settled])[::-1][:RADIAL_CANDIDATE_ROWS]]  # NaN sorts last: first here
    strict = block[_strict(hess[block])]
    if not strict.size:
        strict = settled[_strict(hess[settled])]
    found = np.concatenate([fallback, dist[strict]])
    return np.max(found) if found.size else None


def _scan_grid(p, grid, k, rows):
    """One pass over the grid chunks in grid order. Each chunk's LeviScan of
    its rows with rho > RHO_FLOOR goes to rows (if given); with k set each
    chunk also gives the gates its kept count, radial max over strictly psh
    rows, max raw |det U|, and max scaled |det U| with a copy of its point.
    np.max and np.argmax then reduce the chunks: a NaN counts as the max, and
    the worst point is the first NaN, or else the first max. Reductions over
    no rows are None."""
    raws, scaleds, worsts, radials = [], [], [], []
    kept = 0
    for chunk in grid:
        scan = levi_scan(p, chunk)
        inside = scan.rho > RHO_FLOOR
        if not inside.all():
            scan = LeviScan(scan.points[inside], scan.rho[inside], scan.grad[inside], scan.hessian[inside])
        if rows is not None:
            rows(scan)
        if k is None or not len(scan.rho):
            continue
        kept += len(scan.rho)
        if (chunk_radial := _radial_max(scan.points, scan.grad, scan.hessian, k)) is not None:
            radials.append(chunk_radial)
        _, raw, scaled = scan.ma
        i = int(np.argmax(scaled))
        raws.append(raw.max())
        scaleds.append(scaled[i])
        worsts.append(np.array(scan.points[i]))  # a copy: a view would keep the chunk alive
    if not scaleds:
        return None, None, None, None, kept
    i = int(np.argmax(scaleds))
    return np.max(raws), scaleds[i], worsts[i], np.max(radials) if radials else None, kept


def _positivity_margin(p, k):
    """min / max |eigenvalue| of the Hermitian C with Re rho = v(z)* C v(z),
    for a rho of pure bidegree (k, k); v holds the degree-k monomials present
    in rho and every pure power z_j^k. rho > 0 on the unit sphere is certified
    when the margin exceeds SPHERE_POSITIVITY_TOL (the positivity_margin gate)."""
    keys = [tuple(k * (i == j) for i in range(p.dim)) for j in range(p.dim)]
    keys += [e for term in p.terms for e in term]
    index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    c = np.zeros((len(index), len(index)), dtype=complex)
    for (alpha, beta), coeff in p.terms.items():  # coeff z^alpha zbar^beta = conj(v_beta) C v_alpha
        c[index[beta], index[alpha]] = coeff
    eig = np.linalg.eigvalsh((c + c.conj().T) / 2)
    return float(eig[0] / np.max(np.abs(eig)))


def burns_check(p, grid, rows=None):
    """Run every gate on the grid and assemble the verdict.

    grid: a RealGrid (sampling.real_grid), read one chunk at a time in a
    single pass; points with rho <= RHO_FLOOR are skipped for the
    Monge-Ampere gate and the radial invariant (log rho needs rho > 0).
    rows: optional callable given the LeviScan of each chunk's kept points in
    grid order (the rows of burns --csv, whose residuals are its ``ma``), also
    when a degree gate fails. Failures are verdicts with reasons, not errors.
    """
    t0 = time.perf_counter()
    masses = {key: float(sum(abs(c) for c in comp.terms.values())) for key, comp in bidegree_decompose(p).items()}
    degree = homogeneous_degree(p)
    degree2k = k = worst_point = kept = None
    ma_max_raw = radial = float("nan")
    reasons, gates = [], []
    if degree is None:
        reasons.append("not homogeneous: mixed total degrees")
    elif degree % 2 != 0:
        reasons.append(f"homogeneous degree {degree} is odd; no bidegree (k,k) form")
    else:
        degree2k, k = degree, degree // 2
    if k is not None or rows is not None:
        folded = _scan_grid(p, grid, k, rows)
    if k is not None:
        raw_max, scaled_max, worst_point, radial, kept = folded
        if raw_max is not None:
            ma_max_raw = float(raw_max)
        radial = None if radial is None else float(radial)

        nonkk = {key: v for key, v in masses.items() if key != (k, k)}
        if nonkk:
            listing = ", ".join(f"({l},{m}): {v:.6g}" for (l, m), v in sorted(nonkk.items()))
            reasons.append(f"bidegree mass outside ({k},{k}): {listing}")
        else:
            gates.append(positivity := outcome("positivity_margin", _positivity_margin(p, k), t0))
            if positivity.status != "pass":
                reasons.append(
                    "rho > 0 on the unit sphere not certified: "
                    f"positivity margin {positivity.measured:.6g} <= {positivity.threshold:g}"
                )
        # no kept point: the gate measured nothing, a finding (the domain missed the grid)
        gates.append(ma := outcome("ma_residual_scaled", None if scaled_max is None else float(scaled_max), t0))
        if scaled_max is None:
            reasons.append(f"no grid point with rho > RHO_FLOOR = {RHO_FLOOR:g}: the Monge-Ampere gate measured nothing")
        elif ma.status != "pass":
            coords = ", ".join(f"{c:.6g}" for c in worst_point)
            reasons.append(f"scaled Monge-Ampere residual {ma.measured:.3e} >= {ma.threshold:.0e} at ({coords})")
        if not reasons and radial is not None:
            gates.append(outcome("radial_field_residual", radial, t0))
    return BurnsReport(degree2k=degree2k, is_homogeneous=degree is not None, ma_max_residual=ma_max_raw,
                       worst_ma_point=worst_point, bidegree_mass=masses, radial_field_residual=radial,
                       reasons=reasons, gates=gates, kept_points=kept, grid_size=len(grid))
