"""Foliation leaves: the (t, s) node grid of a leaf and its diagnostics.

A leaf through z0 is parametrized as node(t, s) = flow_X(t, flow_Y(s, z0)),
matching the (t, s) flow grid rather than arc length so that log rho is an
exact affine function of t along the leaf (kappa = 1 convention:
rho(flow_X(t, z)) = e^t rho(z)).

A leaf is traced in two batched sweeps, one ``gradient.flow_path`` per
direction, whose fixed-step RK4 (``gradient.rk4_path``, default step 1e-2) is
the one loop behind every flow of Z: one in s from z0, on one row, then one in
t that advances every s-column together, one batched Z solve per RK4 stage. The
fields are smooth and low-dimensional; reproducibility beats adaptivity here.
At 1e-2 the log-linearity error of a leaf is about 1e-11, five orders below
the 1e-6 gates. The diagnostics (log-linearity, level-set invariance and
stratum invariance) read the nodes' rho, det H and strata of the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gradient import RealFieldKind, flow_path
from .levi import Stratum, _check_inside, levi_scan
from .thresholds import DEFAULT_STEP, RHO_FLOOR


# RK4 steps of one trace, (|t_max| + |s_max|) / step over both sweeps, whatever
# the node count (each node adds at most one step). A step advances the
# s-sweep's one row or the t-sweep's s-columns: 0.1-0.26 ms on one row, 0.14-0.86
# ms on the default 13 columns and 0.5-11.6 ms on 256 columns for n = 2..8 (a
# 2-core x86-64 box), so a trace at the limit takes 5-30 s with the default
# columns and at most about 6 minutes. The longest trace the tests take is
# 3,629 steps (--t-max -30), the benchmark's 829; an s-sweep of 1e7 at the
# default step would take 1e9
MAX_TRACE_STEPS = 2**15
# t or s nodes of one trace, at most 2**16 nodes (sampling.MAX_SAMPLES), scanned one t row's jet at a
# time: at the limit, trace peaks at 57 MB VmHWM on the generated weighted_n8 (n = 8, one BLAS thread)
MAX_TRACE_NODES = 2**8


@dataclass
class LeafTrace:
    """Integrated leaf patch with per-node diagnostics.

    nodes are indexed [it, is]; points has shape (nt, ns, n). Truncation (a
    non-finite state or rho hitting the floor) shrinks the grids and sets the
    flag instead of failing.
    """

    base: np.ndarray
    base_rho: float
    t_values: np.ndarray
    s_values: np.ndarray
    points: np.ndarray        # (nt, ns, n) complex
    rho: np.ndarray           # (nt, ns)
    det_hessian: np.ndarray   # (nt, ns) complex
    strata: np.ndarray        # (nt, ns) object (Stratum)
    truncated: bool


def _node_ok(z, rho):
    """Row mask of an (N, n) batch: finite and above RHO_FLOOR."""
    return np.all(np.isfinite(z), axis=1) & (rho > RHO_FLOOR)


def _sweep(p, z0, values, kind, step):
    """Flow the (N, n) batch z0 to the given parameter values, integrating
    outward from 0 with all rows advanced together.

    Returns (kept_values, points, truncated) with points of shape
    (len(kept_values), N, n). Each direction stops at the first node where any
    row is non-finite or violates the rho floor, so the kept values are the
    longest prefix, on each side of 0, on which every row survives.
    """
    # np.unique's values on a finite grid; an index-free np.unique imports numpy.ma
    values = np.sort(np.asarray(values, dtype=float))
    values = np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))
    kept, nodes = [], []
    truncated = False
    for direction in (values[values >= 0], values[values < 0][::-1]):
        for v, z in zip(direction, flow_path(p, z0, np.diff(direction, prepend=0.0), kind, step)):
            if not np.all(_node_ok(z, p.evaluate_many(z).real)):
                truncated = True
                break
            kept.append(v)
            nodes.append(z)
    order = np.argsort(kept)
    return np.array(kept)[order], np.array(nodes, dtype=complex)[order], truncated


def trace_leaf(p, z0, t_grid, s_grid, step=DEFAULT_STEP):
    """Trace node(t, s) = flow_X(t, flow_Y(s, z0)) over the given grids.

    Grids should contain 0 so the base point appears as a node; they are
    sorted internally. rho(z0) must be positive. The t sweep advances every
    s-column together, so truncation keeps the t values on which every column
    survives and the node grid stays rectangular. step is the RK4 step. One
    ``levi_scan`` per t row, one row's jet at a time, gives the nodes' rho, det H and strata.
    """
    z0 = np.asarray(z0, dtype=complex).ravel()
    base_rho = p.evaluate(z0).real
    _check_inside(base_rho)

    s_vals, s_points, s_trunc = _sweep(p, z0[None, :], s_grid, RealFieldKind.Y, step)
    if len(s_vals) == 0:
        raise ValueError("no admissible nodes on the s sweep")
    t_vals, points, t_trunc = _sweep(p, s_points[:, 0], t_grid, RealFieldKind.X, step)
    if len(t_vals) == 0:
        raise ValueError("no admissible nodes on the t sweep")

    rho, det, strata = (np.empty((len(t_vals), len(s_vals)), dtype=kind) for kind in (float, complex, object))
    for row, nodes in enumerate(points):  # copied out, as a scan's arrays are views of its whole jet
        scan = levi_scan(p, nodes)
        rho[row], det[row], strata[row] = scan.rho, scan.det_hessian, scan.strata
    return LeafTrace(
        base=z0,
        base_rho=base_rho,
        t_values=t_vals,
        s_values=s_vals,
        points=points,
        rho=rho,
        det_hessian=det,
        strata=strata,
        truncated=s_trunc or t_trunc,
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


def leaf_stratum_invariance(trace):
    """Check that every node shares the base node's stratum, as classified
    when the trace was made. |det H| is the trace CSV's abs_detH (np.abs)."""
    it0 = int(np.argmin(np.abs(trace.t_values)))
    is0 = int(np.argmin(np.abs(trace.s_values)))
    base = trace.strata[it0, is0]
    abs_det = np.abs(trace.det_hessian)
    violations = [
        (int(it), int(isx), trace.strata[it, isx], float(abs_det[it, isx]))
        for it, isx in np.argwhere(trace.strata != base)
    ]
    return StratumInvarianceReport(passed=not violations, base_stratum=base, violations=violations)
