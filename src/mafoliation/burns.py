"""Bidegree-(k,k) criterion for homogeneous Monge-Ampere potentials.

For a positive homogeneous polynomial rho of degree 2k whose log is
plurisubharmonic and Monge-Ampere, the bidegree decomposition must be
supported on the single component (k, k), the gradient field is radial
(Z = w/k), and the per-component derivative identities

    rho^{l,m}_abar = sum_mu (w^mu / k) rho^{l,m}_{mu abar}   (l, m >= 1)
    rho^{0,2k}_abar = 0

hold identically. The checker evaluates all of these on a grid and combines
them into a verdict; counterexamples fail with the offending evidence
located, never silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradient import _solve_z
from .homogeneity import verify_weights
from .levi import DEFAULT_TOL_RANK, Stratum, levi_scan, ma_from_fields
from .potential import bidegree_decompose, homogeneous_degree

VERDICT_MA_TOL = 1e-8  # homogeneous MA examples satisfy the equation exactly
RADIAL_INFO_TOL = 1e-8  # expected scale of the radial/identity residuals on a pass
IDENTITY_SAMPLE_CAP = 5000  # polynomial identities need points, not extremes
RHO_FLOOR = 1e-12  # log rho needs rho > 0: grid points at or below are skipped


@dataclass
class GridResiduals:
    """|det U| at the grid points with rho > RHO_FLOOR (the rows of burns --csv)."""

    points: np.ndarray
    rho: np.ndarray
    raw: np.ndarray
    scaled: np.ndarray


def grid_residuals(p, grid_points, tol_rank=DEFAULT_TOL_RANK):
    """Levi scan of the grid, its rho > RHO_FLOOR mask, and the Monge-Ampere
    residuals of log rho on the masked points."""
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
    worst_ma_point: np.ndarray | None
    bidegree_mass: dict
    radial_field_residual: float
    component_identity_residual: float
    min_rho_on_sphere: float
    verdict: bool
    reasons: list
    residuals: GridResiduals | None  # None when a degree gate stops the check
    grid_size: int  # grid points given to burns_check, skipped ones included

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
            f"(scaled {self.ma_max_scaled:.3e}, threshold {VERDICT_MA_TOL:.0e})"
        )
        if self.worst_ma_point is not None:
            coords = ", ".join(f"{c:.6g}" for c in self.worst_ma_point)
            lines.append(f"worst grid point  : ({coords})")
        lines.append(
            f"radial residual   : {self.radial_field_residual:.3e} "
            f"(max ||Z - w/k||, threshold {RADIAL_INFO_TOL:.0e} on pass)"
        )
        lines.append(
            f"component identity: {self.component_identity_residual:.3e} "
            f"(threshold {RADIAL_INFO_TOL:.0e} on pass)"
        )
        lines.append(f"min rho on sphere : {self.min_rho_on_sphere:.6g} (threshold > 0)")
        if self.residuals is not None:
            skipped = self.grid_size - len(self.residuals.rho)
            lines.append(f"skipped points    : {skipped} of {self.grid_size} (rho <= {RHO_FLOOR:g})")
        lines.append(f"verdict           : {'pass' if self.verdict else 'fail'}")
        for reason in self.reasons:
            lines.append(f"  - {reason}")
        return "\n".join(lines)


def log_growth_check(p, k, z_samples, lam_samples):
    """Max relative residual of rho(lam z) = |lam|^{2k} rho(z) over samples:
    the homogeneity identity with weights 1/k at L = k log lam."""
    weights = np.full(p.dim, 1.0 / k)
    return verify_weights(p, weights, z_samples, [k * np.log(complex(lam)) for lam in lam_samples])


def _component_identity_residual(p, k, points):
    """Max violation of the per-component derivative identities on the grid."""
    comps = bidegree_decompose(p)
    deg = 2 * k
    worst = 0.0
    for (l, m), comp in comps.items():
        for alpha in range(p.dim):
            lhs = comp.diff_zbar(alpha)
            if l == 0 or (l, m) == (deg, 0):
                # these components must have vanishing zbar-derivative outright
                vals = np.abs(lhs.evaluate_many(points))
                if vals.size:
                    worst = max(worst, float(vals.max()))
                continue
            rhs = np.zeros(points.shape[0], dtype=complex)
            for mu in range(p.dim):
                rhs += points[:, mu] / k * lhs.diff_z(mu).evaluate_many(points)
            res = np.abs(lhs.evaluate_many(points) - rhs)
            if res.size:
                worst = max(worst, float(res.max()))
    return worst


def burns_check(p, grid_points, tol=VERDICT_MA_TOL, tol_rank=DEFAULT_TOL_RANK):
    """Run every gate on the grid and assemble the verdict.

    grid_points: (N, n) complex array; points with rho <= RHO_FLOOR are
    skipped for the Monge-Ampere and radial gates (log rho needs rho > 0).
    Failures are verdicts with reasons, not errors.
    """
    pts = np.asarray(grid_points, dtype=complex)
    masses = {
        key: float(sum(abs(c) for c in comp.terms.values()))
        for key, comp in bidegree_decompose(p).items()
    }
    degree = homogeneous_degree(p)
    nan = float("nan")
    degree2k = worst_point = residuals = None
    ma_max_raw = ma_max_scaled = radial = comp_res = min_sphere = nan
    reasons = []
    if degree is None:
        reasons.append("not homogeneous: mixed total degrees")
    elif degree % 2 != 0:
        reasons.append(f"homogeneous degree {degree} is odd; no bidegree (k,k) form")
    else:
        degree2k, k = degree, degree // 2
        scan, inside, residuals = grid_residuals(p, pts, tol_rank)
        raw, scaled = residuals.raw, residuals.scaled
        ma_max_raw = float(raw.max()) if len(raw) else 0.0
        ma_max_scaled = float(scaled.max()) if len(scaled) else 0.0
        if len(scaled):
            worst_point = np.array(residuals.points[int(np.argmax(scaled))])

        p_mask = (scan.strata == Stratum.STRICTLY_PSH) & inside
        if np.any(p_mask):
            z_field = _solve_z(scan.grad[p_mask], scan.hessian[p_mask])
            radial = float(np.max(np.linalg.norm(z_field - pts[p_mask] / k, axis=1)))

        comp_res = _component_identity_residual(p, k, residuals.points[:IDENTITY_SAMPLE_CAP])

        norms = np.linalg.norm(pts, axis=1)
        on_sphere = pts[norms > 1e-9] / norms[norms > 1e-9][:, None]
        sphere_vals = p.evaluate_many(on_sphere).real
        min_sphere = float(sphere_vals.min()) if sphere_vals.size else nan

        nonkk = {key: v for key, v in masses.items() if key != (k, k)}
        if nonkk:
            listing = ", ".join(f"({l},{m}): {v:.6g}" for (l, m), v in sorted(nonkk.items()))
            reasons.append(f"bidegree mass outside ({k},{k}): {listing}")
        if ma_max_scaled > tol:
            coords = ", ".join(f"{c:.6g}" for c in worst_point)
            reasons.append(
                f"scaled Monge-Ampere residual {ma_max_scaled:.3e} > {tol:.0e} at ({coords})"
            )
    return BurnsReport(
        degree2k=degree2k,
        is_homogeneous=degree is not None,
        ma_max_residual=ma_max_raw,
        ma_max_scaled=ma_max_scaled,
        worst_ma_point=worst_point,
        bidegree_mass=masses,
        radial_field_residual=radial,
        component_identity_residual=comp_res,
        min_rho_on_sphere=min_sphere,
        verdict=not reasons,
        reasons=reasons,
        residuals=residuals,
        grid_size=len(pts),
    )
