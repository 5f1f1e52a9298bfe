"""Per-point Levi-form data, Monge-Ampere residuals and degeneracy strata.

Conventions: dd^c is realized as the plain matrix of mixed Wirtinger
derivatives rho_{mu nubar}; no i/2pi or 1/4 factors are carried. All
vanishing and positivity statements are unaffected by that choice.

Fields: rho, its gradient and the Hessian come from one batched jet over the
deduplicated monomials of all three (``fields_at_many``); ``fields_at`` is
that jet on one row, so every scalar and batched check reads the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .potential import Monomials
from .thresholds import DEFAULT_TOL_RANK

_RHO_FLOOR = 0.0  # stratum assignment needs rho > 0


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


@dataclass(frozen=True)
class _Jet:
    """Symbolic derivative table of a potential (cached per potential)."""

    rho: object
    grad: tuple
    hessian: tuple


@lru_cache(maxsize=64)
def jet(p):
    grad = tuple(p.diff_z(mu) for mu in range(p.dim))
    hess = tuple(
        tuple(grad[mu].diff_zbar(nu) for nu in range(p.dim)) for mu in range(p.dim)
    )
    return _Jet(rho=p, grad=grad, hessian=hess)


class _BatchJet:
    """(rho, grad, hessian) of a potential on an (N, n) point array.

    The jet components share most of their monomials, so the distinct ones
    are evaluated once and a single (N, K) @ (K, 1+n+n^2) coefficient product
    gives every component; rho, grad and hessian are views of that product.
    """

    def __init__(self, p):
        j = jet(p)
        packs = [e._pack() for e in (j.rho, *j.grad, *(h for row in j.hessian for h in row))]
        self.dim = p.dim
        self.monomials = Monomials(p.dim, sorted(set().union(*(m.keys for m, _ in packs))))
        row = {key: i for i, key in enumerate(self.monomials.keys)}
        self.coeffs = np.zeros((len(row), len(packs)), dtype=complex)
        for col, (m, c) in enumerate(packs):
            self.coeffs[[row[key] for key in m.keys], col] = c

    def __call__(self, points):
        n = self.dim
        pts = np.asarray(points, dtype=complex)
        # numpy hands a one-row product to BLAS gemv, whose sums can differ in
        # the last bit from gemm's; a doubled row stays on gemm (a threaded
        # gemm can still sum a large product differently for a large batch)
        table = self.monomials(np.repeat(pts, 2, axis=0) if len(pts) == 1 else pts)
        out = (table.T @ self.coeffs)[: len(pts)]
        return out[:, 0].real, out[:, 1 : 1 + n], out[:, 1 + n :].reshape(-1, n, n)


@lru_cache(maxsize=64)
def _batch_jet(p):
    return _BatchJet(p)


def _one_row(p, z):
    """z as a (1, n) point array, checked against the dimension of p."""
    z = np.asarray(z, dtype=complex).ravel()
    if z.size != p.dim:
        raise ValueError(f"point has length {z.size}, expected {p.dim}")
    return z[None, :]


def fields_at(p, z):
    """(rho, grad, hessian) at a single point (``fields_at_many`` on one row);
    every Hessian entry comes from its own symbolic expression."""
    rho, grad, hess = fields_at_many(p, _one_row(p, z))
    return float(rho[0]), grad[0], hess[0]


def fields_at_many(p, points):
    """Batched (rho, grad, hessian) arrays for an (N, n) point array."""
    return _batch_jet(p)(points)


def classify_strata(rho, eigenvalues, tol_rank=DEFAULT_TOL_RANK):
    """Rank rule over rho (...) and spectra (..., n), for one point or many.

    An eigenvalue counts as zero iff |l| <= tol_rank times max(1, |l|_max);
    points with rho <= 0 are outside the domain. Returns an object array of
    Stratum with rho's shape (0-d for one point: take ``.item()``).
    """
    rho = np.asarray(rho, dtype=float)
    eig = np.abs(np.asarray(eigenvalues, dtype=float))
    scale = np.maximum(1.0, np.max(eig, axis=-1))
    rank = np.count_nonzero(eig > tol_rank * scale[..., None], axis=-1)
    n = eig.shape[-1]
    strata = np.full(rho.shape, Stratum.WEAK, dtype=object)
    strata[rank == n - 1] = Stratum.LOW_DEGENERACY
    strata[rank == n] = Stratum.STRICTLY_PSH
    strata[rho <= _RHO_FLOOR] = Stratum.OUTSIDE_DOMAIN
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
    carry the same leading batch axes.
    """
    rho = np.asarray(rho)[..., None, None]
    return hess / rho - grad[..., :, None] * grad.conj()[..., None, :] / rho**2


def ma_matrix(p, z):
    """The Levi form of log rho at z. Requires rho > 0."""
    rho, grad, hess = fields_at(p, z)
    if rho <= 0:
        raise ValueError(f"rho(z) = {rho} <= 0; log rho undefined")
    return log_levi_form(rho, grad, hess)


def ma_residual(p, z):
    """|det U| with U the Levi form of log rho; zero exactly at Monge-Ampere points."""
    return float(abs(np.linalg.det(ma_matrix(p, z))))


def ma_from_fields(rho, grad, hess, dim):
    """Raw and scaled |det U| from batched field arrays (rho must be > 0).

    Scaled residual divides by max(1, ||U||_F)^n for cross-potential
    comparability.
    """
    if np.any(rho <= 0):
        raise ValueError("Monge-Ampere residual requires rho > 0 at every point")
    u = log_levi_form(rho, grad, hess)
    raw = np.abs(np.linalg.det(u))
    fro = np.linalg.norm(u, axis=(1, 2))
    scaled = raw / np.maximum(1.0, fro) ** dim
    return raw, scaled


def ma_scan(p, points):
    """Batched raw and scaled |det U| over an (N, n) array with rho > 0 rows."""
    pts = np.asarray(points, dtype=complex)
    rho, grad, hess = fields_at_many(p, pts)
    return ma_from_fields(rho, grad, hess, p.dim)


def adjugate(h):
    """Adjugate via cofactors over the last two axes: H adj(H) = det(H) I,
    defined for singular H too. h is one (n, n) matrix or a batch of them."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[-1]
    if n == 1:
        return np.ones_like(h)
    cof = np.empty_like(h)
    keep = ~np.eye(n, dtype=bool)
    for i in range(n):
        for jx in range(n):
            minor = h[..., keep[i], :][..., keep[jx]]
            cof[..., i, jx] = (-1) ** (i + jx) * np.linalg.det(minor)
    return np.swapaxes(cof, -1, -2)


def rank_identity(rho, grad, hess):
    """rho det(H) - gbar^T adj(H) g, which equals rho^(n+1) det U identically.

    rho, grad and hess are one point's scalar, (n,) and (n, n) arrays, or
    carry the same leading batch axes. Vanishes exactly where the
    Monge-Ampere residual does, but is defined wherever the derivatives are
    (no rho > 0 requirement).
    """
    quad = grad.conj()[..., None, :] @ (adjugate(hess) @ grad[..., None])
    return (rho * np.linalg.det(hess) - quad[..., 0, 0]).real


def rank_identity_residual(p, z):
    """``rank_identity`` at one point z."""
    return float(rank_identity(*fields_at(p, z)))


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
    if rho <= 0:
        raise ValueError(f"rho(z) = {rho} <= 0; log rho undefined")
    if np.linalg.norm(grad) == 0:
        raise ValueError("zero gradient: Ker d rho is not a hyperplane here")
    u = log_levi_form(rho, grad, hess)
    basis = _kernel_basis(grad.conj())
    # the Hermitian form sum U[m,n] v^m conj(v^n) is the quadratic form of conj(U)
    restricted = basis.conj().T @ u.conj() @ basis
    return np.linalg.eigvalsh(restricted)


@dataclass
class LeviScan:
    """Batched Levi data over a point set (CLI and grid-scan workhorse)."""

    points: np.ndarray
    rho: np.ndarray
    grad: np.ndarray
    hessian: np.ndarray
    eigenvalues: np.ndarray
    strata: np.ndarray  # (N,) object array of Stratum

    @cached_property
    def det_hessian(self):
        """(N,) complex det H, computed on first use (the burns grid never reads it)."""
        return np.linalg.det(self.hessian)


def levi_scan(p, points, tol_rank=DEFAULT_TOL_RANK):
    pts = np.asarray(points, dtype=complex)
    rho, grad, hess = fields_at_many(p, pts)
    eig = np.linalg.eigvalsh(hess)
    return LeviScan(
        points=pts,
        rho=rho,
        grad=grad,
        hessian=hess,
        eigenvalues=eig,
        strata=classify_strata(rho, eig, tol_rank),
    )
