"""Shared oracles and generators for the test suite.

``reference_evaluate`` is the independent check for the batched monomial
kernel behind ``evaluate``, ``evaluate_many`` and the jet: a term-by-term
Python loop that shares no code with it. The finite-difference Wirtinger
oracles are the independent check for the symbolic derivative code: they
difference values of ``evaluate`` and never read a derivative.
"""

import csv
import io

import numpy as np

from mafoliation import PolyPotential
from mafoliation.potential import PolyExpr


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
