"""Shared oracles and generators for the test suite.

``reference_evaluate`` is the independent check for the batched monomial
kernel behind ``evaluate``, ``evaluate_many`` and the jet: a term-by-term
Python loop that shares no code with it. The finite-difference Wirtinger
oracles are the independent check for the symbolic derivative code: they
difference values of ``evaluate`` and never read a derivative.
``reference_theta_orbit`` is the per-step Theta-orbit loop that checks every
RK4 end point as it goes, the oracle for the block-checked
``theta_orbit_det_check``. ``reference_cr_scan`` is the per-point CR loop, one
extended_gradient and one levi_data per stencil point, the oracle for the
batched ``cr_scan``; ``reference_levi_data`` is the scalar Levi bundle (one
jet row, its determinant, spectrum and stratum), the oracle for ``levi_data``.
``reference_one_row_jet`` is the doubled-row jet, the factor loop of
``Evaluator.table`` on the two rows (z, z), the oracle for the one-gather row of
``fields_at_many``. ``one_row_jet_agrees`` marks the rows of a batched jet
that equal the one-row jet's, where a scalar entry point must give its
batched row bit for bit.
"""

import csv
import io

import numpy as np

from mafoliation import PolyPotential
from mafoliation.gradient import CrReport, RealFieldKind, ThetaOrbitResult, extended_gradient, rk4_path
from mafoliation.levi import LeviData, Stratum, _batch_jet, classify_strata, fields_at, fields_at_many, levi_data
from mafoliation.potential import PolyExpr
from mafoliation.thresholds import LSTSQ_RCOND


def reference_evaluate(expr, z):
    """Value of a PolyExpr at one point, term by term in Python complex
    arithmetic."""
    z = [complex(v) for v in np.asarray(z).ravel()]
    zc = [v.conjugate() for v in z]
    total = 0j
    for (alpha, beta), coeff in expr.terms.items():
        m = coeff
        for j in range(expr.dim):
            if alpha[j]:
                m *= z[j] ** alpha[j]
            if beta[j]:
                m *= zc[j] ** beta[j]
        total += m
    return total


def term_scale(expr, z):
    """Sum over the terms of |coefficient * monomial| at z: the magnitude
    against which the rounding of a sum of those terms is measured."""
    return reference_evaluate(PolyExpr(expr.dim, {k: abs(c) for k, c in expr.terms.items()}), np.abs(z)).real


def wirtinger_fd(f, z, mu, h=1e-4, anti=False):
    """Central finite-difference Wirtinger derivative of f at z.

    f maps an (n,) complex array to a complex number. anti=False estimates
    d/dz^mu, anti=True estimates d/dzbar^mu.
    """
    z = np.asarray(z, dtype=complex)
    e = np.zeros(z.size, dtype=complex)
    e[mu] = 1.0
    dx = (f(z + h * e) - f(z - h * e)) / (2 * h)
    dy = (f(z + 1j * h * e) - f(z - 1j * h * e)) / (2 * h)
    if anti:
        return 0.5 * (dx + 1j * dy)
    return 0.5 * (dx - 1j * dy)


def hessian_fd(p, z, mu, nu, h=1e-4):
    """Second-order mixed Wirtinger derivative via nested central differences."""

    def inner(w):
        return wirtinger_fd(p.evaluate, w, mu, h=h)

    return wirtinger_fd(inner, z, nu, h=h, anti=True)


def random_hermitian_potential(rng, dim=2, pairs=4, max_exp=2, coeff_scale=3.0):
    """Random Hermitian-symmetric polynomial with |coefficients| <= 2*coeff_scale."""
    terms = {}
    while not terms:
        for _ in range(pairs):
            alpha = tuple(int(e) for e in rng.integers(0, max_exp + 1, dim))
            beta = tuple(int(e) for e in rng.integers(0, max_exp + 1, dim))
            c = complex(rng.uniform(-coeff_scale, coeff_scale),
                        rng.uniform(-coeff_scale, coeff_scale))
            if alpha == beta:
                c = complex(c.real, 0.0)
            terms[(alpha, beta)] = terms.get((alpha, beta), 0j) + c
            terms[(beta, alpha)] = terms.get((beta, alpha), 0j) + c.conjugate()
        terms = {k: v for k, v in terms.items() if v != 0}
    return PolyPotential(dim, terms)


def random_points(rng, dim, count, radius=1.5):
    x = rng.uniform(-radius, radius, size=(count, 2 * dim))
    return x[:, 0::2] + 1j * x[:, 1::2]


def reference_csv_bytes(header, rows):
    """CSV bytes written row by row with csv.writer, every float cell as
    repr(float(x)): the reference for the column-wise CLI writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(c)) if isinstance(c, (float, np.floating)) else c for c in row])
    return buf.getvalue().encode("utf-8")


def weighted_sum_potential(coeffs, degrees):
    """sum_j a_j |z_j|^(2 d_j): weighted homogeneous with weights 1/d_j, so
    Z = (z_j / d_j), and degenerate wherever some z_j with d_j >= 2 is 0."""
    dim = len(degrees)
    terms = {}
    for j, (a, d) in enumerate(zip(coeffs, degrees)):
        e = tuple(d if k == j else 0 for k in range(dim))
        terms[(e, e)] = a
    return PolyPotential(dim, terms)


def _np_abs(value):
    """|value| as np.abs of an array rounds it (Python's abs() of a complex
    scalar can differ in the last bit)."""
    return float(np.abs(np.array([value]))[0])


def reference_theta_orbit(p, z0, t_max=5.0, steps=5000):
    """Theta orbit with the end-of-step check (jet, |det H|, rho drift,
    domain) made right after each RK4 step, one point at a time."""
    base = levi_data(p, z0)
    if base.rho <= 0:
        raise ValueError(f"rho(z0) = {base.rho} <= 0; outside the domain")
    if base.stratum is Stratum.STRICTLY_PSH:
        return ThetaOrbitResult(
            skipped=True,
            reason="starting point is in the full-rank stratum (det H not small)",
            max_abs_det=_np_abs(base.det_hessian),
            max_rho_drift=0.0,
        )
    h = t_max / steps
    z = np.asarray(z0, dtype=complex).ravel()
    mult = RealFieldKind.THETA.multiplier

    def vel(w):
        _, grad, hess = fields_at(p, w)
        return mult * np.linalg.lstsq(hess.T, grad.conj(), rcond=LSTSQ_RCOND)[0]

    max_det = _np_abs(base.det_hessian)
    max_drift = 0.0
    rho0 = base.rho
    for _ in range(steps):
        z = next(rk4_path(vel, z, (h,), h))
        if not np.all(np.isfinite(z)):
            raise ValueError("integrator step failure: non-finite state")
        rho, _, hess = fields_at(p, z)
        if rho <= 0:
            raise ValueError("orbit exited the domain {rho > 0}")
        max_det = max(max_det, _np_abs(np.linalg.det(hess)))
        max_drift = max(max_drift, abs(rho - rho0))
    return ThetaOrbitResult(
        skipped=False, reason="", max_abs_det=float(max_det), max_rho_drift=float(max_drift)
    )


def generated_potentials(seed):
    """The six kinds of potential the benchmark generates, at n = 4 and 8:
    (sum_j a_j |z_j|^2)^2, sum_j a_j |z_j|^(2 d_j) and the non-Monge-Ampere
    chain sum_j a_j |z_j|^2 + sum_j b_j |z_j z_(j+1)|^2, with seeded a_j, b_j."""
    rng = np.random.default_rng(seed)
    out = {}
    for dim, degrees in ((4, (1, 2, 1, 2)), (8, (1, 2, 3, 1, 2, 3, 1, 2))):
        a = rng.uniform(0.5, 1.5, dim)
        square = {}
        for j in range(dim):
            for k in range(dim):
                e = tuple(int(i in (j, k)) + int(i == j == k) for i in range(dim))
                square[(e, e)] = square.get((e, e), 0) + a[j] * a[k]
        out[f"normsq_n{dim}"] = PolyPotential(dim, square)
        out[f"weighted_n{dim}"] = weighted_sum_potential(a, rng.permutation(degrees))
        b = rng.uniform(0.5, 1.5, dim - 1)
        chain = {}
        for j in range(dim):
            e = tuple(int(i == j) for i in range(dim))
            chain[(e, e)] = a[j]
            if j + 1 < dim:
                e = tuple(int(i in (j, j + 1)) for i in range(dim))
                chain[(e, e)] = b[j]
        out[f"chain_n{dim}"] = PolyPotential(dim, chain)
    return out


def reference_levi_data(p, z):
    """Levi bundle at one point from the one-row jet, one determinant and
    one eigvalsh."""
    rho, grad, hess = fields_at(p, z)
    eigvals = np.linalg.eigvalsh(hess)
    return LeviData(
        point=np.asarray(z, dtype=complex).ravel(),
        rho=rho,
        grad=grad,
        hessian=hess,
        det_hessian=complex(np.linalg.det(hess)),
        eigenvalues=eigvals,
        stratum=classify_strata(rho, eigvals).item(),
    )


def reference_cr_scan(p, samples):
    """Central-difference CR scan, one sample and one stencil point at a time."""
    h = 1e-4  # central-difference step
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim == 1:
        samples = samples[None, :]
    n = p.dim
    report = CrReport(max_residual=0.0, worst_point=None)
    for zpt in samples:
        base_stratum = levi_data(p, zpt).stratum
        mixed = False
        worst_here = 0.0
        for nu in range(n):
            e_nu = np.zeros(n, dtype=complex)
            e_nu[nu] = 1.0
            vals = {}
            for tag, delta in (("xp", h), ("xm", -h), ("yp", 1j * h), ("ym", -1j * h)):
                w = zpt + delta * e_nu
                vals[tag] = extended_gradient(p, w).Z
                if levi_data(p, w).stratum is not base_stratum:
                    mixed = True
            dx = (vals["xp"] - vals["xm"]) / (2 * h)
            dy = (vals["yp"] - vals["ym"]) / (2 * h)
            dzbar = 0.5 * (dx + 1j * dy)
            worst_here = max(worst_here, float(np.max(np.abs(dzbar))))
        if mixed:
            report.mixed_stratum_points.append(np.array(zpt))
        if worst_here > report.max_residual:
            report.max_residual = worst_here
            report.worst_point = np.array(zpt)
    return report


def reference_one_row_jet(p, points):
    """(rho, grad, hessian) of a (1, n) point array by the doubled-row path:
    the factor loop of Evaluator.table on the two rows (z, z), then the 2-row
    coefficient product, so that the product stays on gemm."""
    batch = _batch_jet(p)
    n = batch.dim
    pts = np.asarray(points, dtype=complex)
    table = batch.table(np.repeat(pts, 2, axis=0) if len(pts) == 1 else pts)
    out = (table.T @ batch.coeffs)[: len(pts)]
    return out[:, 0].real, out[:, 1 : 1 + n], out[:, 1 + n :].reshape(-1, n, n)


def one_row_jet_agrees(p, points):
    """Row mask of an (N, n) point array: the rows of the batched jet that
    equal the one-row jet's. All of them under one BLAS thread; a threaded
    BLAS can sum a large batch's product in another order."""
    rho, grad, hess = fields_at_many(p, points)
    rows = [fields_at(p, z) for z in points]
    return np.array([r == rho[i] and np.array_equal(g, grad[i]) and np.array_equal(h, hess[i])
                     for i, (r, g, h) in enumerate(rows)], dtype=bool)
