"""Leaf tracing: numerical integration of the X and Y flows with diagnostics.

A leaf through z0 is parametrized as node(t, s) = flow_X(t, flow_Y(s, z0)),
matching the (t, s) flow grid rather than arc length so that log rho is an
exact affine function of t along the leaf (kappa = 1 convention:
rho(flow_X(t, z)) = e^t rho(z)).

Integrator: classical fixed-step RK4 (default step 1e-3) in ``rk4_segment``,
the one RK4 loop behind flow_point, flow_points and the Theta orbit of
gradient.theta_orbit_det_check. The fields are smooth and low-dimensional;
reproducibility beats adaptivity here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gradient import DEFAULT_TOL, RealFieldKind, gradient_field, gradient_vector
from .levi import DEFAULT_TOL_RANK, Stratum, classify_strata, fields_at_many


@dataclass(frozen=True)
class IntegratorConfig:
    step: float = 1e-3
    tol: float = DEFAULT_TOL
    tol_rank: float = DEFAULT_TOL_RANK
    box_radius: float = math.inf   # truncate when any |Re|, |Im| exceeds this
    min_rho: float = 1e-12         # truncate when rho drops to this


def rk4_segment(vel, z, duration, step):
    """Advance z by `duration` with fixed-step RK4, landing exactly on target.

    The one RK4 loop of the package: z is one point or an (N, n) batch,
    whatever `vel` maps.
    """
    if duration == 0.0:
        return np.array(z, dtype=complex)
    n_steps = max(1, math.ceil(abs(duration) / step))
    h = duration / n_steps
    z = np.array(z, dtype=complex)
    for _ in range(n_steps):
        k1 = vel(z)
        k2 = vel(z + 0.5 * h * k1)
        k3 = vel(z + 0.5 * h * k2)
        k4 = vel(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return z


def flow_point(p, z, time, kind=RealFieldKind.X, step=1e-3, tol=DEFAULT_TOL):
    """Flow a single point for `time` along the given real field."""
    mult = kind.multiplier

    def vel(w):
        return mult * gradient_vector(p, w, tol)

    return rk4_segment(vel, np.asarray(z, dtype=complex).ravel(), time, step)


def flow_points(p, points, time, kind=RealFieldKind.X, step=1e-3, tol=DEFAULT_TOL):
    """Flow an (N, n) batch of points simultaneously (one solve per RK4 stage)."""
    mult = kind.multiplier

    def vel(w):
        return mult * gradient_field(p, w, tol)

    return rk4_segment(vel, points, time, step)


@dataclass
class LeafTrace:
    """Integrated leaf patch with per-node diagnostics.

    nodes are indexed [it, is]; points has shape (nt, ns, n). Truncation (rho
    hitting the floor or the state leaving the box) shrinks the grids and sets
    the flag instead of failing.
    """

    base: np.ndarray
    base_rho: float
    t_values: np.ndarray
    s_values: np.ndarray
    points: np.ndarray        # (nt, ns, n) complex
    rho: np.ndarray           # (nt, ns)
    det_hessian: np.ndarray   # (nt, ns) complex
    eigenvalues: np.ndarray   # (nt, ns, n) real
    strata: np.ndarray        # (nt, ns) object (Stratum)
    truncated: bool
    config: IntegratorConfig


def _node_ok(z, rho, cfg):
    if not np.all(np.isfinite(z)):
        return False
    if rho <= cfg.min_rho:
        return False
    if cfg.box_radius != math.inf:
        if np.max(np.abs(z.real)) > cfg.box_radius or np.max(np.abs(z.imag)) > cfg.box_radius:
            return False
    return True


def _sweep(p, z0, values, kind, cfg):
    """Points at the given sorted parameter values, integrating outward from 0.

    Returns (kept_values, kept_points); stops at the first node that violates
    the rho floor or the box.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values)
    sorted_vals = values[order]
    nonneg = [v for v in sorted_vals if v >= 0]
    neg = [v for v in sorted_vals if v < 0][::-1]  # walk 0 -> most negative
    results = {}

    def run(direction_vals):
        z = np.asarray(z0, dtype=complex).ravel().copy()
        prev = 0.0
        for v in direction_vals:
            z = flow_point(p, z, v - prev, kind, cfg.step, cfg.tol)
            prev = v
            rho = p.evaluate(z).real
            if not _node_ok(z, rho, cfg):
                return True
            results[v] = z.copy()
        return False

    truncated = run(nonneg)
    truncated = run(neg) or truncated
    kept = np.array(sorted([v for v in results]), dtype=float)
    pts = np.array([results[v] for v in kept], dtype=complex)
    return kept, pts, truncated


def trace_leaf(p, z0, t_grid, s_grid, cfg=None):
    """Trace node(t, s) = flow_X(t, flow_Y(s, z0)) over the given grids.

    Grids should contain 0 so the base point appears as a node; they are
    sorted internally. rho(z0) must be positive.
    """
    cfg = cfg or IntegratorConfig()
    z0 = np.asarray(z0, dtype=complex).ravel()
    base_rho = p.evaluate(z0).real
    if base_rho <= 0:
        raise ValueError(f"rho(z0) = {base_rho} <= 0; outside the domain")

    s_vals, s_points, s_trunc = _sweep(p, z0, np.asarray(s_grid), RealFieldKind.Y, cfg)
    if len(s_vals) == 0:
        raise ValueError("no admissible nodes on the s sweep")

    t_sorted = np.sort(np.asarray(t_grid, dtype=float))
    columns = []
    truncated = s_trunc
    for s_idx in range(len(s_vals)):
        t_vals, t_points, t_trunc = _sweep(
            p, s_points[s_idx], t_sorted, RealFieldKind.X, cfg
        )
        truncated = truncated or t_trunc
        columns.append((t_vals, t_points))
    if min(len(c[0]) for c in columns) == 0:
        raise ValueError("no admissible nodes on the t sweep")

    # intersect the per-column t values to keep the grid rectangular
    common = set(columns[0][0].tolist())
    for t_vals, _ in columns[1:]:
        common &= set(t_vals.tolist())
    if not common:
        raise ValueError("no t values survived truncation on every s column")
    common_t = np.array(sorted(common), dtype=float)
    nt, ns = len(common_t), len(s_vals)
    points = np.empty((nt, ns, p.dim), dtype=complex)
    for s_idx, (t_vals, t_points) in enumerate(columns):
        sel = {v: i for i, v in enumerate(t_vals)}
        for t_idx, tv in enumerate(common_t):
            points[t_idx, s_idx] = t_points[sel[tv]]
    if nt < len(t_sorted):
        truncated = True

    flat = points.reshape(-1, p.dim)
    rho, _, hess = fields_at_many(p, flat)
    det = np.linalg.det(hess)
    eig = np.linalg.eigvalsh(hess)
    strata = classify_strata(rho, eig, cfg.tol_rank)
    return LeafTrace(
        base=z0,
        base_rho=base_rho,
        t_values=common_t,
        s_values=s_vals,
        points=points,
        rho=rho.reshape(nt, ns),
        det_hessian=det.reshape(nt, ns),
        eigenvalues=eig.reshape(nt, ns, p.dim),
        strata=strata.reshape(nt, ns),
        truncated=truncated,
        config=cfg,
    )


def leaf_log_linearity(trace):
    """Max |log rho(node) - log rho(base) - t| over the trace (kappa = 1).

    A small value certifies that log rho is affine in Re zeta along the leaf,
    hence harmonic and unbounded above as t grows.
    """
    logr = np.log(trace.rho)
    target = math.log(trace.base_rho) + trace.t_values[:, None]
    return float(np.max(np.abs(logr - target)))


def level_set_invariance(trace):
    """Max over fixed t of the relative rho variation across the s grid."""
    if trace.rho.shape[1] < 2:
        return 0.0
    spread = trace.rho.max(axis=1) - trace.rho.min(axis=1)
    scale = np.abs(trace.rho.mean(axis=1))
    return float(np.max(spread / np.maximum(scale, 1e-300)))


@dataclass
class StratumInvarianceReport:
    passed: bool
    base_stratum: Stratum
    violations: list = field(default_factory=list)  # (it, is, stratum, |det H|)


def leaf_stratum_invariance(trace, tol=None):
    """Check that every node shares the base node's stratum.

    Strata are re-derived from the stored eigenvalue spectra with the given
    rank tolerance (defaults to the trace's own).
    """
    tol = trace.config.tol_rank if tol is None else tol
    it0 = int(np.argmin(np.abs(trace.t_values)))
    is0 = int(np.argmin(np.abs(trace.s_values)))
    strata = classify_strata(trace.rho, trace.eigenvalues, tol)
    base = strata[it0, is0]
    violations = [
        (int(it), int(isx), strata[it, isx], float(abs(trace.det_hessian[it, isx])))
        for it, isx in np.argwhere(strata != base)
    ]
    return StratumInvarianceReport(passed=not violations, base_stratum=base, violations=violations)
