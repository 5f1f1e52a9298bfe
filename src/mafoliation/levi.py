"""Per-point Levi-form data, Monge-Ampere residuals and degeneracy strata.

Conventions: dd^c is realized as the plain matrix of mixed Wirtinger
derivatives rho_{mu nubar}; no i/2pi or 1/4 factors are carried. All
vanishing and positivity statements are unaffected by that choice.

Fields: rho, its gradient and the Hessian are the columns of one
``potential.Evaluator`` over the 1 + n + n^2 polynomials of ``jet``
(``fields_at_many``), the package's one polynomial evaluator, which also keeps
its product on gemm; ``fields_at`` is that jet on one row, so every scalar and
batched check reads the same numbers. Likewise ``ma_residual`` is row 0 of a
one-row ``levi_scan``: det U, of U scaled on its float view, is formed only in
``ma_from_fields``, and every rho > 0 precondition raises in ``_check_inside``.
Each determinant is one batched LU and has one home: det H in
``LeviScan.det_hessian``, det U in ``ma_from_fields`` and the bordered
det [[rho, gbar^T], [g, H]] = rho^(n+1) det U in ``rank_identity``.
A ``LeviScan`` holds the jet of its points and computes its spectra, strata,
det H and Monge-Ampere residuals on first use: a reader pays for what it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .potential import Evaluator, _one_row
from .thresholds import DEFAULT_TOL_RANK


class Stratum(Enum):
    """Degeneracy class of the Levi form of rho at a point of {rho > 0}."""

    STRICTLY_PSH = "strict"          # full rank n
    LOW_DEGENERACY = "low_degeneracy"  # rank exactly n-1
    WEAK = "weak"                    # rank <= n-2
    OUTSIDE_DOMAIN = "outside"       # rho <= 0

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class LeviData:
    """Point bundle: rho, gradient rho_mu, Hessian rho_{mu nubar}, and stratum."""

    point: np.ndarray
    rho: float
    grad: np.ndarray          # (n,) complex, d rho / d z^mu
    hessian: np.ndarray       # (n, n) complex, d^2 rho / d z^mu d zbar^nu
    det_hessian: complex
    eigenvalues: np.ndarray   # (n,) real, ascending
    stratum: Stratum


@lru_cache(maxsize=64)
def jet(p):
    """The 1 + n + n^2 polynomials rho, rho_mu and rho_{mu nubar} (row-major),
    in the column order of the batched jet; cached per potential."""
    grad = [p.diff_z(mu) for mu in range(p.dim)]
    return (p, *grad, *(g.diff_zbar(nu) for g in grad for nu in range(p.dim)))


@lru_cache(maxsize=64)
def _batch_jet(p):
    """The ``Evaluator`` of ``jet(p)``: columns rho, grad and hessian; cached per potential."""
    return Evaluator(jet(p))


def _outside(rho):  # the domain rule, for a scalar or an array: the domain is {rho > 0}
    return np.asarray(rho) <= 0


def _check_inside(rho):
    """Raise for the first rho outside the domain, of a scalar or an array."""
    outside = np.flatnonzero(_outside(rho))
    if outside.size:
        raise ValueError(f"rho(z) = {float(np.ravel(rho)[outside[0]])} <= 0; outside the domain")


def fields_at(p, z):
    """(rho, grad, hessian) at a single point (``fields_at_many`` on one row);
    every Hessian entry comes from its own symbolic expression."""
    rho, grad, hess = fields_at_many(p, _one_row(p, z))
    return float(rho[0]), grad[0], hess[0]


def fields_at_many(p, points):
    """Batched (rho, grad, hessian) arrays for an (N, n) point array: views
    of the jet evaluator's one product."""
    return _jet_columns(_batch_jet(p)(points), p.dim)


def _jet_columns(out, n):
    """(rho, grad, hessian) views of the (N, 1 + n + n^2) jet product out."""
    return out[:, 0].real, out[:, 1 : 1 + n], out[:, 1 + n :].reshape(-1, n, n)


def levi_rank(eigenvalues):
    """Numerical rank of spectra (..., n): the count of eigenvalues l with
    |l| > DEFAULT_TOL_RANK times max(1, |l|_max)."""
    eig = np.abs(np.asarray(eigenvalues, dtype=float))
    scale = np.maximum(1.0, np.max(eig, axis=-1))
    return np.count_nonzero(eig > DEFAULT_TOL_RANK * scale[..., None], axis=-1)


def classify_strata(rho, eigenvalues):
    """Rank rule (``levi_rank``) over rho (...) and spectra (..., n), for one
    point or many; points with rho <= 0 are outside the domain. Returns an
    object array of Stratum with rho's shape (0-d for one point: take ``.item()``).
    """
    rho = np.asarray(rho, dtype=float)
    rank = levi_rank(eigenvalues)
    n = np.shape(eigenvalues)[-1]
    strata = np.full(rho.shape, Stratum.WEAK, dtype=object)
    strata[rank == n - 1] = Stratum.LOW_DEGENERACY
    strata[rank == n] = Stratum.STRICTLY_PSH
    strata[_outside(rho)] = Stratum.OUTSIDE_DOMAIN
    return strata


def levi_data(p, z):
    """Full Levi bundle at a point: row 0 of a one-row ``levi_scan``."""
    scan = levi_scan(p, _one_row(p, z))
    return LeviData(
        point=scan.points[0],
        rho=float(scan.rho[0]),
        grad=scan.grad[0],
        hessian=scan.hessian[0],
        det_hessian=complex(scan.det_hessian[0]),
        eigenvalues=scan.eigenvalues[0],
        stratum=scan.strata[0],
    )


def log_levi_form(rho, grad, hess):
    """The Levi form of log rho, U = H/rho - g gbar^T / rho^2. Requires rho > 0.

    rho, grad and hess are one point's scalar, (n,) and (n, n) arrays, or
    carry the same leading batch axes. U is new and complex: H and g gbar^T are
    scaled on their float views by 1/rho and 1/rho^2, which is numpy's complex
    by real division bit for bit on finite entries, up to the sign of a zero part.
    """
    rho = np.asarray(rho)[..., None, None]
    outer = np.multiply(grad[..., :, None], grad.conj()[..., None, :], dtype=complex)
    outer.view(float)[...] *= 1 / rho**2
    u = np.array(hess, dtype=complex)  # a copy, and complex: a real array's float view is not its parts
    u.view(float)[...] *= 1 / rho
    u -= outer
    return u


def ma_residual(p, z):
    """|det U|, U the Levi form of log rho (row 0 of a one-row ``levi_scan``);
    zero exactly at Monge-Ampere points."""
    return float(levi_scan(p, _one_row(p, z)).ma[1][0])


def ma_from_fields(rho, grad, hess):
    """det U, |det U| and the scaled |det U| from batched field arrays (rho must be > 0).

    Scaled residual divides by max(1, ||U||_F)^n for cross-potential
    comparability.
    """
    _check_inside(rho)
    u = log_levi_form(rho, grad, hess)
    fro = np.linalg.norm(u, axis=(1, 2))
    det = np.linalg.det(u)
    raw = np.abs(det)
    scaled = raw / np.maximum(1.0, fro) ** hess.shape[-1]
    return det, raw, scaled


def rank_identity(rho, grad, hess):
    """The bordered determinant det [[rho, gbar^T], [g, H]] = rho det(H) -
    gbar^T adj(H) g, which equals rho^(n+1) det U identically.

    rho, grad and hess are one point's scalar, (n,) and (n, n) arrays, or
    carry the same leading batch axes. Vanishes exactly where the
    Monge-Ampere residual does, but is defined wherever the derivatives are
    (no rho > 0 requirement, singular H included).
    """
    n = hess.shape[-1]
    b = np.empty((*hess.shape[:-2], n + 1, n + 1), dtype=complex)
    b[..., 0, 0] = rho
    b[..., 0, 1:] = grad.conj()
    b[..., 1:, 0] = grad
    b[..., 1:, 1:] = hess
    return np.linalg.det(b).real


def _kernel_basis(v):
    """Orthonormal basis of the Hermitian orthogonal complement of v (n x (n-1))."""
    v = np.asarray(v, dtype=complex).ravel()
    n = v.size
    q, _ = np.linalg.qr(np.column_stack([v[:, None], np.eye(n, dtype=complex)]))
    return q[:, 1:]


def restricted_levi_eigen(p, z):
    """Eigenvalues (ascending) of the Levi form of log rho restricted to Ker d rho.

    Ker d rho = {v : sum_mu rho_mu v^mu = 0}, the Hermitian orthogonal
    complement of conj(grad). Requires a nonzero gradient.
    """
    rho, grad, hess = fields_at(p, z)
    _check_inside(rho)
    if np.linalg.norm(grad) == 0:
        raise ValueError("zero gradient: Ker d rho is not a hyperplane here")
    basis = _kernel_basis(grad.conj())
    # the Hermitian form sum U[m,n] v^m conj(v^n) is the quadratic form of conj(U)
    restricted = basis.conj().T @ log_levi_form(rho, grad, hess).conj() @ basis
    return np.linalg.eigvalsh(restricted)


@dataclass
class LeviScan:
    """Batched Levi data over a point set: the jet, and what derives from it on first use."""

    points: np.ndarray
    rho: np.ndarray
    grad: np.ndarray
    hessian: np.ndarray

    @cached_property
    def eigenvalues(self):
        """(N, n) real spectra of H, ascending, computed on first use."""
        return np.linalg.eigvalsh(self.hessian)

    @cached_property
    def strata(self):
        """(N,) object array of Stratum (``classify_strata``), computed on first use."""
        return classify_strata(self.rho, self.eigenvalues)

    @cached_property
    def det_hessian(self):
        """(N,) complex det H, computed on first use."""
        return np.linalg.det(self.hessian)

    @cached_property
    def ma(self):
        """(det U, |det U|, scaled |det U|) per row, ``ma_from_fields`` on first use."""
        return ma_from_fields(self.rho, self.grad, self.hessian)


def levi_scan(p, points):
    pts = np.asarray(points, dtype=complex)
    return LeviScan(pts, *fields_at_many(p, pts))
