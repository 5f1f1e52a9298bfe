"""Per-point Levi-form data, Monge-Ampere residuals and degeneracy strata.

Conventions: dd^c is realized as the plain matrix of mixed Wirtinger
derivatives rho_{mu nubar}; no i/2pi or 1/4 factors are carried. All
vanishing and positivity statements are unaffected by that choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .potential import PolyPotential, monomial_table

DEFAULT_TOL_RANK = 1e-8
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
    """One-pass vectorized evaluator for (rho, grad, hessian) on many points.

    All jet components share one ``monomial_table`` call so a 20^4 grid scan
    stays cheap; component results are sliced back out of its rows.
    """

    def __init__(self, p):
        j = jet(p)
        self.dim = p.dim
        packs = [e._pack() for e in (j.rho, *j.grad, *(h for row in j.hessian for h in row))]
        ends = np.cumsum([len(coeffs) for _, _, coeffs in packs])
        self.slices = [slice(end - len(pk[2]), end) for end, pk in zip(ends, packs)]
        self.alphas = np.concatenate([pk[0] for pk in packs], axis=0)
        self.betas = np.concatenate([pk[1] for pk in packs], axis=0)
        self.coeffs = [pk[2] for pk in packs]

    def __call__(self, pts):
        dim = self.dim
        acc = monomial_table(self.alphas, self.betas, np.asarray(pts, dtype=complex))
        vals = [c @ acc[s] for c, s in zip(self.coeffs, self.slices)]
        grad = np.stack(vals[1 : 1 + dim], axis=1)
        hess = np.stack(vals[1 + dim :], axis=1).reshape(-1, dim, dim)
        return vals[0].real, grad, hess


@lru_cache(maxsize=64)
def _batch_jet(p):
    return _BatchJet(p)


def fields_at(p, z):
    """(rho, grad, hessian) at a single point; hessian entries each evaluated
    from their own symbolic expression (both triangles independently)."""
    zl = [complex(v) for v in np.asarray(z).ravel()]
    if len(zl) != p.dim:
        raise ValueError(f"point has length {len(zl)}, expected {p.dim}")
    zc = [v.conjugate() for v in zl]
    j = jet(p)
    rho = j.rho._evaluate_prepped(zl, zc).real
    grad = np.array([g._evaluate_prepped(zl, zc) for g in j.grad], dtype=complex)
    hess = np.array(
        [
            [j.hessian[mu][nu]._evaluate_prepped(zl, zc) for nu in range(p.dim)]
            for mu in range(p.dim)
        ],
        dtype=complex,
    )
    return rho, grad, hess


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


def levi_data(p, z, tol_rank=DEFAULT_TOL_RANK):
    """Full Levi bundle at a point: derivatives, determinant, spectrum, stratum."""
    rho, grad, hess = fields_at(p, z)
    det = complex(np.linalg.det(hess))
    eigvals = np.linalg.eigvalsh(hess)
    return LeviData(
        point=np.asarray(z, dtype=complex).ravel(),
        rho=rho,
        grad=grad,
        hessian=hess,
        det_hessian=det,
        eigenvalues=eigvals,
        stratum=classify_strata(rho, eigvals, tol_rank).item(),
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
    """Adjugate via cofactors: H adj(H) = det(H) I, defined for singular H too."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    if n == 1:
        return np.ones((1, 1), dtype=complex)
    cof = np.empty_like(h)
    rows = np.arange(n)
    for i in range(n):
        for jx in range(n):
            minor = h[np.ix_(rows != i, rows != jx)]
            cof[i, jx] = (-1) ** (i + jx) * np.linalg.det(minor)
    return cof.T


def rank_identity_residual(p, z):
    """rho det(H) - gbar^T adj(H) g, which equals rho^(n+1) det U identically.

    Vanishes exactly where the Monge-Ampere residual does, but is defined
    wherever the derivatives are (no rho > 0 requirement).
    """
    rho, grad, hess = fields_at(p, z)
    det = np.linalg.det(hess)
    quad = grad.conj() @ (adjugate(hess) @ grad)
    return float((rho * det - quad).real)


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
    det_hessian: np.ndarray
    eigenvalues: np.ndarray
    strata: np.ndarray  # (N,) object array of Stratum


def levi_scan(p, points, tol_rank=DEFAULT_TOL_RANK):
    pts = np.asarray(points, dtype=complex)
    rho, grad, hess = fields_at_many(p, pts)
    det = np.linalg.det(hess)
    eig = np.linalg.eigvalsh(hess)
    return LeviScan(
        points=pts,
        rho=rho,
        grad=grad,
        hessian=hess,
        det_hessian=det,
        eigenvalues=eig,
        strata=classify_strata(rho, eig, tol_rank),
    )
