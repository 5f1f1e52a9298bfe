"""Bidegree-(k,k) criterion for homogeneous Monge-Ampere potentials.

For a positive homogeneous polynomial rho of degree 2k whose log is
plurisubharmonic and Monge-Ampere, the bidegree decomposition must be
supported on the single component (k, k), and the gradient field is radial
(Z = w/k). burns_check passes rho iff it is homogeneous of even degree 2k,
has no bidegree mass outside (k, k) and its max scaled |det U| on the grid
is at most tol; counterexamples fail with the offending evidence located.
A pass must also have max ||Z - w/k|| < RADIAL_TOL on the strictly psh grid
points; if not, the report's internal_failure names a code bug, which burns
and suite both report. Min rho on the unit sphere is reported, not gated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradient import _solve_z
from .homogeneity import verify_weights
from .levi import Stratum, levi_scan, ma_from_fields
from .potential import bidegree_decompose, homogeneous_degree
from .thresholds import DEFAULT_TOL_RANK, RADIAL_TOL, RHO_FLOOR, SPHERE_MIN_NORM, VERDICT_MA_TOL


@dataclass
class GridResiduals:
    """|det U| at the points of one grid chunk with rho > RHO_FLOOR (rows of burns --csv)."""

    points: np.ndarray
    rho: np.ndarray
    raw: np.ndarray
    scaled: np.ndarray


def grid_residuals(p, grid_points, tol_rank=DEFAULT_TOL_RANK):
    """Levi scan of an (M, n) grid chunk, its rho > RHO_FLOOR mask, and the
    Monge-Ampere residuals of log rho on the masked points."""
    scan = levi_scan(p, grid_points, tol_rank)
    inside = scan.rho > RHO_FLOOR
    raw, scaled = ma_from_fields(scan.rho[inside], scan.grad[inside], scan.hessian[inside], p.dim)
    return scan, inside, GridResiduals(scan.points[inside], scan.rho[inside], raw, scaled)


@dataclass
class BurnsReport:
    """Evidence bundle; verdict passes only if every gate is clean."""

    degree2k: int | None
    is_homogeneous: bool
    ma_max_residual: float
    ma_max_scaled: float
    ma_tol: float  # the threshold the Monge-Ampere gate applied
    worst_ma_point: np.ndarray | None
    bidegree_mass: dict
    radial_field_residual: float
    min_rho_on_sphere: float
    verdict: bool
    reasons: list
    internal_failure: str | None  # a passing verdict whose radial invariant fails
    kept_points: int | None  # points with rho > RHO_FLOOR; None when a degree gate stops the check
    grid_size: int  # grid points given to burns_check, skipped ones included

    @property
    def skipped_points(self):
        return None if self.kept_points is None else self.grid_size - self.kept_points

    def format(self):
        lines = []
        deg = self.degree2k if self.degree2k is not None else "-"
        lines.append(f"homogeneous       : {self.is_homogeneous} (degree {deg})")
        mass = ", ".join(
            f"({l},{m}): {v:.6g}" for (l, m), v in sorted(self.bidegree_mass.items())
        )
        lines.append(f"bidegree mass     : {mass}")
        lines.append(
            f"max |det U|       : {self.ma_max_residual:.3e} "
            f"(scaled {self.ma_max_scaled:.3e}, threshold {self.ma_tol:.0e})"
        )
        if self.worst_ma_point is not None:
            coords = ", ".join(f"{c:.6g}" for c in self.worst_ma_point)
            lines.append(f"worst grid point  : ({coords})")
        lines.append(
            f"radial residual   : {self.radial_field_residual:.3e} "
            f"(max ||Z - w/k||, threshold {RADIAL_TOL:.0e} on pass)"
        )
        lines.append(f"min rho on sphere : {self.min_rho_on_sphere:.6g} (threshold > 0)")
        if self.kept_points is not None:
            lines.append(f"skipped points    : {self.skipped_points} of {self.grid_size} (rho <= {RHO_FLOOR:g})")
        lines.append(f"verdict           : {'pass' if self.verdict else 'fail'}")
        for reason in self.reasons:
            lines.append(f"  - {reason}")
        return "\n".join(lines)


def log_growth_check(p, k, z_samples, lam_samples):
    """Max relative residual of rho(lam z) = |lam|^{2k} rho(z) over samples:
    the homogeneity identity with weights 1/k at L = k log lam."""
    weights = np.full(p.dim, 1.0 / k)
    return verify_weights(p, weights, z_samples, [k * np.log(complex(lam)) for lam in lam_samples])


def _fold(op, acc, value):
    """Running np.maximum/np.minimum from None; a NaN sticks, as in ndarray.max."""
    return value if acc is None else op(acc, value)


def _scan_grid(p, grid, k, tol_rank, rows):
    """One pass over the grid chunks. Each chunk's residual rows go to rows
    (if given); with k set they also fold into the gates' running reductions:
    max raw |det U|, the first point of max scaled |det U| (a NaN counts as
    the max, as in np.argmax), the radial max over strictly psh rows, min rho
    on the sphere and the kept count. Reductions over no rows stay None."""
    raw_max = scaled_max = worst = radial = sphere_min = None
    kept = 0
    for chunk in grid:
        scan, inside, res = grid_residuals(p, chunk, tol_rank)
        if rows is not None:
            rows(res)
        if k is None:
            continue
        kept += len(res.rho)
        if len(res.rho):
            raw_max = _fold(np.maximum, raw_max, res.raw.max())
            i = int(np.argmax(res.scaled))
            value = res.scaled[i]
            if scaled_max is None or value > scaled_max or (np.isnan(value) and not np.isnan(scaled_max)):
                scaled_max, worst = value, np.array(res.points[i])
        p_mask = (scan.strata == Stratum.STRICTLY_PSH) & inside
        if np.any(p_mask):
            z_field = _solve_z(scan.grad[p_mask], scan.hessian[p_mask])
            radial = _fold(np.maximum, radial, np.max(np.linalg.norm(z_field - chunk[p_mask] / k, axis=1)))
        norms = np.linalg.norm(chunk, axis=1)
        away = norms > SPHERE_MIN_NORM
        if np.any(away):  # rho(z / |z|) = rho(z) / |z|^(2k) on a homogeneous rho
            sphere_min = _fold(np.minimum, sphere_min, np.min(scan.rho[away] / norms[away] ** (2 * k)))
    return raw_max, scaled_max, worst, radial, sphere_min, kept


def burns_check(p, grid, tol=VERDICT_MA_TOL, tol_rank=DEFAULT_TOL_RANK, rows=None):
    """Run every gate on the grid and assemble the verdict.

    grid: a RealGrid (sampling.real_grid), read one chunk at a time in a
    single pass; points with rho <= RHO_FLOOR are skipped for the
    Monge-Ampere gate and the radial invariant (log rho needs rho > 0).
    rows: optional callable given each chunk's GridResiduals in grid order
    (the rows of burns --csv), also when a degree gate fails. Failures are
    verdicts with reasons, not errors.
    """
    masses = {
        key: float(sum(abs(c) for c in comp.terms.values()))
        for key, comp in bidegree_decompose(p).items()
    }
    degree = homogeneous_degree(p)
    nan = float("nan")
    degree2k = k = worst_point = kept = internal = None
    ma_max_raw = ma_max_scaled = radial = min_sphere = nan
    reasons = []
    if degree is None:
        reasons.append("not homogeneous: mixed total degrees")
    elif degree % 2 != 0:
        reasons.append(f"homogeneous degree {degree} is odd; no bidegree (k,k) form")
    else:
        degree2k, k = degree, degree // 2
    if k is not None or rows is not None:
        folded = _scan_grid(p, grid, k, tol_rank, rows)
    if k is not None:
        raw_max, scaled_max, worst_point, radial_max, sphere_min, kept = folded
        ma_max_raw = 0.0 if raw_max is None else float(raw_max)
        ma_max_scaled = 0.0 if scaled_max is None else float(scaled_max)
        radial = nan if radial_max is None else float(radial_max)
        min_sphere = nan if sphere_min is None else float(sphere_min)

        nonkk = {key: v for key, v in masses.items() if key != (k, k)}
        if nonkk:
            listing = ", ".join(f"({l},{m}): {v:.6g}" for (l, m), v in sorted(nonkk.items()))
            reasons.append(f"bidegree mass outside ({k},{k}): {listing}")
        if ma_max_scaled > tol:
            coords = ", ".join(f"{c:.6g}" for c in worst_point)
            reasons.append(
                f"scaled Monge-Ampere residual {ma_max_scaled:.3e} > {tol:.0e} at ({coords})"
            )
        if not reasons and not radial < RADIAL_TOL:
            internal = f"verdict passes but radial residual {radial:.3e} >= {RADIAL_TOL:g}"
    return BurnsReport(
        degree2k=degree2k,
        is_homogeneous=degree is not None,
        ma_max_residual=ma_max_raw,
        ma_max_scaled=ma_max_scaled,
        ma_tol=tol,
        worst_ma_point=worst_point,
        bidegree_mass=masses,
        radial_field_residual=radial,
        min_rho_on_sphere=min_sphere,
        verdict=not reasons,
        reasons=reasons,
        internal_failure=internal,
        kept_points=kept,
        grid_size=len(grid),
    )
