"""Shared oracles and generators for the test suite.

``reference_evaluate`` is the independent check for the batched monomial
kernel behind ``evaluate``, ``evaluate_many`` and the jet: a term-by-term
Python loop that shares no code with it. The finite-difference Wirtinger
oracles are the independent check for the symbolic derivative code: they
difference values of ``evaluate`` and never read a derivative.
``reference_theta_orbit`` is the per-step Theta-orbit loop that checks every
RK4 end point as it goes, the oracle for the block-checked
``theta_orbit_det_check``.
"""

import csv
import io

import numpy as np

from mafoliation import PolyPotential
from mafoliation.foliation import rk4_segment
from mafoliation.gradient import RealFieldKind, ThetaOrbitResult
from mafoliation.levi import Stratum, fields_at, levi_data
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
            max_abs_det=abs(base.det_hessian),
            max_rho_drift=0.0,
        )
    h = t_max / steps
    z = np.asarray(z0, dtype=complex).ravel()
    mult = RealFieldKind.THETA.multiplier

    def vel(w):
        _, grad, hess = fields_at(p, w)
        return mult * np.linalg.lstsq(hess.T, grad.conj(), rcond=LSTSQ_RCOND)[0]

    max_det = abs(base.det_hessian)
    max_drift = 0.0
    rho0 = base.rho
    for _ in range(steps):
        z = rk4_segment(vel, z, h, h)
        if not np.all(np.isfinite(z)):
            raise ValueError("integrator step failure: non-finite state")
        rho, _, hess = fields_at(p, z)
        if rho <= 0:
            raise ValueError("orbit exited the domain {rho > 0}")
        max_det = max(max_det, abs(np.linalg.det(hess)))
        max_drift = max(max_drift, abs(rho - rho0))
    return ThetaOrbitResult(
        skipped=False, reason="", max_abs_det=float(max_det), max_rho_drift=float(max_drift)
    )
