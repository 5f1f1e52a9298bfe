"""The complex gradient field Z, its least-squares extension, its flows, and diagnostics.

Z solves sum_mu Z^mu rho_{mu nubar} = rho_nubar, i.e. H^T Z = conj(grad).
On the full-rank stratum this is a direct solve; across degenerate points the
minimum-norm least-squares solution is used, validated by the achieved system
residual and by the Euler identity Z(rho) = rho. Each solve is one call of
numpy's LAPACK gufunc on a whole stack, without the public wrappers' per-call
checks and copies, in a two-line function under np.errstate's decorator form,
built at import: it sets the state per call with its own token, so it is
thread-safe and cheaper than a ``with`` block. The least-squares Z is the one
kernel ``_lstsq_rows``. LAPACK prints on stdout for a non-finite matrix, so the
kernel first proves the stack finite by one reduction, a finite sum of |h|^2
(np.vdot); a stack that fails it, or is not C-contiguous (vdot would copy it),
takes the per-row np.isfinite test, which names the first bad row.
Every direct Z comes from the one direct solve ``_direct_z``, and every Z of a
point from ``_solve_z``, which sends the rows the direct solve did not settle to
the kernel: ``gradient_field``, the analyze scan's Euler column, the flows, and
``extended_gradient``, its row 0 on a one-row jet. The CR scan is one jet over
all its stencil points, then one kernel call. Every flow of Z (``flow_path``,
its one-duration ``flow_points``, the Theta orbit) iterates ``rk4_path``, the
one RK4 loop of the package, which yields the state after each duration; a
one-row integration evaluates its jet and gemm in the buffers of one
``_RowStage``, and the orbit checks its end points ORBIT_CHECK_BLOCK per jet.
The Euler residual (``_euler_residual``) and the Z-system test (``_consistent``)
are batched kernels too; a GradientSample holds their row 0 on a one-row
batch. ``_linear_field_residual`` is the test's max ratio for a field known in
closed form, an identity at every point by Euler's relation: w/k in burns, c z
in the weight checks.

Real-field conventions (kappa = 1): the flows below use the standard
identification of a (1,0)-field with a real field via zdot = V(z):

* X (real part): zdot = Z/2, so rho grows like e^t along the X flow.
* Y (imaginary part): zdot = iZ/2; preserves rho, and makes the leaf map
  (t, s) -> flow_X(t, flow_Y(s, .)) holomorphic in t + is.
* THETA (level-set orbit field): zdot = iZ, the real field i(Z - Zbar);
  same orbits as Y at twice the speed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from numbers import Integral

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .levi import Stratum, _batch_jet, _check_inside, _jet_columns, _outside, fields_at_many, levi_scan
from .potential import _one_row
from .thresholds import DEFAULT_STEP, LSTSQ_RCOND, Z_SOLVE_TOL

DIRECT_SOLVE = "direct-solve"
LEAST_SQUARES = "least-squares-extension"

# a batch whose total squared Z-solve residual is at most this has every row
# consistent; the factor 1/2 leaves room for the rounding of either sum
_CLEAN_BATCH_SQ = (Z_SOLVE_TOL / 2) ** 2
# end-of-step checks of the Theta orbit are evaluated this many steps at a time
ORBIT_CHECK_BLOCK = 256


class RealFieldKind(Enum):
    """Real vector fields derived from Z, as zdot multipliers on Z."""

    X = "x"
    Y = "y"
    THETA = "theta"

    @property
    def multiplier(self):
        return {"x": 0.5, "y": 0.5j, "theta": 1j}[self.value]


@dataclass(frozen=True)
class GradientSample:
    """Z at a point plus the residuals certifying it."""

    point: np.ndarray
    Z: np.ndarray
    method: str
    euler_residual: float        # |sum Z^mu rho_mu - rho|
    system_residual: float       # ||H^T Z - conj(grad)||
    consistent: bool = True


def _euler_residual(z_field, grad, rho):
    """Rows |sum_mu Z^mu rho_mu - rho| of (N, n) Z and gradients and (N,) rho."""
    return np.abs(np.einsum("ni,ni->n", z_field, grad) - rho)


def _system_residual(z_field, grad, hess):
    """Rows H^T Z - conj(grad) of (N, n) Z and gradients and (N, n, n) Hessians."""
    return np.einsum("nji,nj->ni", hess, z_field) - grad.conj()


def _consistent(resid, grad):
    """Norms of the system residual rows, and the Z-system test: a row passes
    when its norm is at most Z_SOLVE_TOL * max(1, ||conj(grad)||)."""
    res = np.linalg.norm(resid, axis=1)
    return res, res <= Z_SOLVE_TOL * np.maximum(1.0, np.linalg.norm(grad.conj(), axis=1))


def _linear_field_residual(z_field, grad, hess):
    """Max ||H^T Z - conj(grad)|| / max(1, ||grad||) over the (M, n) fields Z,
    gradients and (M, n, n) Hessians of M >= 1 rows (a NaN counts as the max):
    the Z-system test's ratio for a field its caller knows in closed form, w/k
    (burns) or c z (the weight checks). The root of the max ratio of squared
    norms, each summed on a float view. The squares overflow where
    np.linalg.norm's do."""
    resid = _system_residual(z_field, grad, hess).view(float)  # (M, 2n) float views
    grad = grad.view(float)
    ratio = np.einsum("ij,ij->i", resid, resid) / np.maximum(1.0, np.einsum("ij,ij->i", grad, grad))
    return np.sqrt(np.max(ratio))


def _svd_failed(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


@np.errstate(call=_svd_failed, invalid="call", over="ignore", divide="ignore", under="ignore")
def _lstsq_stack(ht, gbar):
    return _umath_linalg.lstsq(ht, gbar, LSTSQ_RCOND, signature="DDd->Ddid")[0]


def _lstsq_rows(grad, hess):
    """Minimum-norm least-squares Z, lstsq(H^T, conj(grad)) with rcond LSTSQ_RCOND,
    of every row of (N, n) gradients and (N, n, n) Hessians. One LAPACK call
    under the public lstsq's error state: every row is that function's answer
    bit for bit, and a failed SVD raises its LinAlgError. A NaN or inf Hessian
    raises LinAlgError before LAPACK sees it."""
    return _lstsq_solve(hess, hess.transpose(0, 2, 1), grad.conj()[..., None])


def _lstsq_solve(hess, ht, gbar):
    """``_lstsq_rows`` given the transposes ht and the (N, n, 1) conj(grad)."""
    if not (hess.flags.c_contiguous and math.isfinite(np.vdot(hess, hess).real)):
        finite = np.isfinite(hess).all(axis=(1, 2))
        if not finite.all():
            raise LinAlgError(f"non-finite Hessian in row {np.argmin(finite)} of the least-squares Z")
    try:
        z = _lstsq_stack(ht, gbar)
    except AttributeError:  # numpy < 2.0, which pyproject.toml excludes, has no lstsq gufunc
        if hasattr(_umath_linalg, "lstsq"):
            raise
        raise ImportError(f"numpy {np.__version__} lacks _umath_linalg.lstsq; mafoliation needs numpy >= 2.0") from None
    return z[..., 0]


@np.errstate(all="ignore")
def _solve_stack(ht, gbar):
    return _umath_linalg.solve(ht, gbar, signature="DD->D")


def _direct_z(grad, hess):
    """One batched direct solve of H^T Z = conj(grad) over (N, n) gradients and
    (N, n, n) Hessians. Returns Z and the ascending indices of the rows it
    did not settle: those that fail the Z-system test (``_consistent``), which
    an exactly singular or non-finite row fails, as LAPACK returns it NaN.

    When the squared residual of the whole batch is at most (Z_SOLVE_TOL /
    2)^2, every row's residual is below Z_SOLVE_TOL, so one dot product
    settles the test and the per-row norms are skipped. A row's Z and whether
    it is settled do not depend on the other rows: LAPACK solves each matrix
    on its own, and the shortcut skips only tests that would pass.
    """
    out = _solve_stack(hess.transpose(0, 2, 1), grad.conj()[..., None])[..., 0]
    resid = _system_residual(out, grad, hess)
    if np.vdot(resid, resid).real <= _CLEAN_BATCH_SQ:
        return out, np.zeros(0, dtype=np.intp)
    return out, np.flatnonzero(~_consistent(resid, grad)[1])


def _solve_z(grad, hess):
    """Batched Z from (N, n) gradients and (N, n, n) Hessians: ``_direct_z``,
    then the least-squares row solve on the rows it did not settle. Returns Z
    and the indices of those rows."""
    out, rows = _direct_z(grad, hess)
    if rows.size:
        out[rows] = _lstsq_rows(grad[rows], hess[rows])
    return out, rows


def extended_gradient(p, z):
    """Z at one point with the residuals certifying it: row 0 of ``_solve_z``
    on a one-row jet. Requires rho > 0. The method is DIRECT_SOLVE where
    ``_direct_z`` settled the row and LEAST_SQUARES otherwise; the sample is
    flagged inconsistent when it fails the Z-system test."""
    rho, grad, hess = fields_at_many(p, _one_row(p, z))
    _check_inside(rho)
    z_field, fallback = _solve_z(grad, hess)
    system, consistent = _consistent(_system_residual(z_field, grad, hess), grad)
    return GradientSample(
        point=np.asarray(z, dtype=complex).ravel(),
        Z=z_field[0],
        method=LEAST_SQUARES if fallback.size else DIRECT_SOLVE,
        euler_residual=float(_euler_residual(z_field, grad, rho)[0]),
        system_residual=float(system[0]),
        consistent=bool(consistent[0]),
    )


class _RowStage:
    """The RK4 stages of one integration of a one-row batch w: its doubled-row
    jet and gemm in buffers of this object, then a Z kernel on fixed views of
    them, bit for bit the kernel on ``fields_at_many(p, w)``. Nothing shared is
    written; each Z is a new array, kept by RK4 while later stages refill them."""

    __slots__ = ("_doubled_row", "_buffers", "_coeffs", "_product", "_grad", "_hess", "_ht", "_gbar")

    def __init__(self, p):
        jet = _batch_jet(p)
        self._doubled_row, self._coeffs, self._buffers = jet.doubled_row, jet.coeffs, jet.row_buffers()
        self._product = np.empty((2, self._coeffs.shape[1]), dtype=complex)
        _, self._grad, self._hess = _jet_columns(self._product[:1], p.dim)
        self._ht = self._hess.transpose(0, 2, 1)
        self._gbar = np.empty((1, p.dim, 1), dtype=complex)

    def extended(self, w):
        """``_lstsq_rows``'s Z at w."""
        np.matmul(self._doubled_row(w[0], self._buffers).T, self._coeffs, out=self._product)
        np.conjugate(self._grad, out=self._gbar[..., 0])
        return _lstsq_solve(self._hess, self._ht, self._gbar)

    def solved(self, w):
        """``_solve_z``'s Z at w, as ``gradient_field`` gives it."""
        np.matmul(self._doubled_row(w[0], self._buffers).T, self._coeffs, out=self._product)
        return _solve_z(self._grad, self._hess)[0]


def gradient_field(p, points):
    """Batched Z over an (N, n) array; per-row least-squares fallback on
    singular or inconsistent rows."""
    _, grad, hess = fields_at_many(p, np.asarray(points, dtype=complex))
    return _solve_z(grad, hess)[0]


def rk4_path(vel, z, durations, step):
    """Yield z after each of the durations, each covered by fixed RK4 steps
    that land on it exactly: the one RK4 loop of the package. z is one point
    or an (N, n) batch, whatever `vel` maps. The step must be finite and > 0,
    checked before the first duration, and each duration finite, checked when
    it is reached. A zero duration yields z unchanged and evaluates no field."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"RK4 step must be finite and > 0 (--step), got {step}")
    z = np.asarray(z, dtype=complex)  # each step makes a new array
    for duration in durations:
        if not math.isfinite(duration):
            raise ValueError(f"RK4 duration must be finite (--t-max, --s-max), got {duration}")
        n_steps = max(1, math.ceil(abs(duration) / step))
        h = duration / n_steps
        for _ in range(n_steps if duration else 0):
            k1 = vel(z)
            k2 = vel(z + 0.5 * h * k1)
            k3 = vel(z + 0.5 * h * k2)
            k4 = vel(z + h * k3)
            z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        yield z


def flow_path(p, points, durations, kind, step):
    """``rk4_path`` of an (N, n) batch along a real field of Z; one row runs in one ``_RowStage``."""
    mult = kind.multiplier
    z_of = _RowStage(p).solved if np.shape(points) == (1, p.dim) else partial(gradient_field, p)
    return rk4_path(lambda w: mult * z_of(w), points, durations, step)


def flow_points(p, points, time, kind=RealFieldKind.X, step=DEFAULT_STEP):
    """Flow an (N, n) batch of points simultaneously (one solve per RK4 stage)."""
    return next(flow_path(p, points, (time,), kind, step))


@dataclass
class CrReport:
    """Finite-difference holomorphy scan: max |d Z^mu / d zbar^nu| estimate."""

    max_residual: float
    worst_point: np.ndarray | None
    mixed_stratum_points: list = field(default_factory=list)


def cr_scan(p, samples):
    """Central-difference estimate of the antiholomorphic derivatives of Z.

    Stencil points always take the least-squares Z (``_lstsq_rows``); samples
    whose stencil crosses into a different stratum are recorded (flagged, not
    fatal). Stencil points must stay inside {rho > 0}. One ``levi_scan`` covers
    the samples and their 4n stencil points each.
    """
    h = 1e-4  # central-difference step
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim == 1:
        samples = samples[None, :]
    count, n = samples.shape
    # stencil[i, nu, k] = samples[i] + delta_k e_nu for delta = h, -h, ih, -ih
    deltas = np.array([d * np.eye(n, dtype=complex) for d in (h, -h, 1j * h, -1j * h)])
    stencil = (samples[:, None, None, :] + deltas.transpose(1, 0, 2)).reshape(-1, n)
    scan = levi_scan(p, np.concatenate([samples, stencil]))
    _check_inside(scan.rho[count:])
    z_field = _lstsq_rows(scan.grad[count:], scan.hessian[count:]).reshape(count, n, 4, n)
    dx = (z_field[:, :, 0] - z_field[:, :, 1]) / (2 * h)
    dy = (z_field[:, :, 2] - z_field[:, :, 3]) / (2 * h)
    # entry 0 is the report's initial 0.0; argmax takes the first sample at the max
    worst = np.concatenate([[0.0], np.max(np.abs(0.5 * (dx + 1j * dy)), axis=(1, 2))])
    first = int(np.argmax(worst))
    mixed = np.any(scan.strata[count:].reshape(count, 4 * n) != scan.strata[:count, None], axis=1)
    return CrReport(
        max_residual=float(worst[first]),
        worst_point=np.array(samples[first - 1]) if first else None,
        mixed_stratum_points=[np.array(samples[i]) for i in np.flatnonzero(mixed)],
    )


@dataclass
class ThetaOrbitResult:
    """Drift of det(H) and rho along a level-set orbit of the Theta field."""

    skipped: bool
    reason: str
    max_abs_det: float
    max_rho_drift: float


def theta_orbit_det_check(p, z0, t_max=5.0, steps=None):
    """Integrate zdot = iZ(z) from a degenerate point and track |det H| and rho.

    The orbit field is the real vector field i(Z - Zbar); it is tangent to the
    level set of rho, and det H should stay zero along the orbit when it
    starts at a degenerate point. Non-degenerate starting points are reported
    as skipped rather than failed. Z is ``_lstsq_rows``'s minimum-norm
    least-squares solution at every RK4 stage, because the orbit runs on the
    degenerate stratum, where H is singular and has no direct solve.

    ``steps`` RK4 steps cover [0, t_max]; None means ceil(t_max / DEFAULT_STEP).
    t_max must be finite and > 0, and steps an integer of at least 1.
    For weighted homogeneous rho the orbit is exactly z_j(t) = e^{i c_j t}
    z_j(0). On weighted24 over t = 5 the error against it is 2.6e-7 at 100
    steps, 4e-10 at DEFAULT_STEP (500 steps) and 4e-14 at 5,000 steps; at
    the default the rho drift is 7e-12, five orders below the 1e-6 gate of
    criterion 3, for a tenth of the work of 5,000 steps.

    The end-of-step checks (rho > 0, |det H| and the rho drift) do not feed
    the integration, so the end points are checked ORBIT_CHECK_BLOCK at a
    time, with one ``levi_scan`` (its jet and det H). A jet row and a
    determinant do not depend on the batch around them, so the maxima are
    those of a per-step check. Before an integration error leaves, the
    pending end points are checked, so the first failing step decides which
    error is raised.
    """
    if not (math.isfinite(t_max) and t_max > 0) or not (steps is None or isinstance(steps, Integral) and steps >= 1):
        raise ValueError(f"need a finite t_max > 0 and steps >= 1, got t_max = {t_max}, steps = {steps}")
    base = levi_scan(p, _one_row(p, z0))
    _check_inside(base.rho)
    max_det = float(np.abs(base.det_hessian)[0])  # np.abs, as the end points' below
    if base.strata[0] is Stratum.STRICTLY_PSH:
        return ThetaOrbitResult(
            skipped=True,
            reason="starting point is in the full-rank stratum (det H not small)",
            max_abs_det=max_det,
            max_rho_drift=0.0,
        )
    if steps is None:
        steps = math.ceil(t_max / DEFAULT_STEP)
    h = t_max / steps
    mult = RealFieldKind.THETA.multiplier
    stage = _RowStage(p)
    max_drift = 0.0
    rho0 = float(base.rho[0])
    pending = []

    def check_pending():
        nonlocal max_det, max_drift
        if not pending:
            return
        scan = levi_scan(p, np.array(pending).reshape(-1, p.dim))
        pending.clear()
        if np.any(_outside(scan.rho)):
            raise ValueError("orbit exited the domain {rho > 0}")
        # folded in step order, as a per-step max() would
        max_det = max(max_det, *np.abs(scan.det_hessian).tolist())
        max_drift = max(max_drift, *np.abs(scan.rho - rho0).tolist())

    try:  # each duration is one step of h; the state is a one-row batch
        for z in rk4_path(lambda w: mult * stage.extended(w), base.points, itertools.repeat(h, steps), h):
            if not np.isfinite(z).all():
                raise ValueError("integrator step failure: non-finite state")
            pending.append(z)
            if len(pending) == ORBIT_CHECK_BLOCK:
                check_pending()
    finally:
        check_pending()  # an earlier step that left the domain decides which error leaves
    return ThetaOrbitResult(
        skipped=False, reason="", max_abs_det=float(max_det), max_rho_drift=float(max_drift)
    )
