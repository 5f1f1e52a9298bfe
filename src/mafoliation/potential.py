"""Sparse polynomials in z and conj(z) with exact Wirtinger calculus.

A polynomial is stored as a map from exponent pairs ``(alpha, beta)`` to a
complex coefficient, representing ``sum c[alpha,beta] * z**alpha * zbar**beta``.
Exponent arithmetic is exact integer arithmetic; only point evaluation rounds.
Coefficients that become exactly zero are pruned, never epsilon-pruned, so the
term structure stays exact under differentiation and bidegree splitting.

Every point evaluation goes through ``Evaluator``, the one polynomial
evaluator: over the union of the keys of a tuple of polynomials, a monomial
table a block of rows at a time, each block times the coefficients before the
next. ``PolyExpr.evaluate_many`` is the evaluator of the one polynomial,
``PolyExpr.evaluate`` is ``evaluate_many`` on one row, and the batched jet of
``levi`` is the evaluator of the jet. ``Evaluator`` owns the blocks, the rule
that keeps each product on BLAS gemm, so that a row does not depend on its
batch, and the doubled row (``Evaluator.doubled_row``), whose product the
one-row RK4 stages of ``gradient`` take in their own buffers.
"""

from __future__ import annotations

import cmath
import re

import numpy as np

MultiExponent = tuple[int, ...]
TermKey = tuple[MultiExponent, MultiExponent]


class PotentialFormatError(ValueError):
    """Raised for malformed potential files; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _one_row(p, z):
    """z as a (1, n) point array, checked against the dimension of p and
    refused when a coordinate is not finite."""
    z = np.asarray(z, dtype=complex).ravel()
    if z.size != p.dim:
        raise ValueError(f"point has length {z.size}, expected {p.dim}")
    if not np.isfinite(z).all():
        raise ValueError(f"point has a non-finite coordinate: {z}")
    return z[None, :]


def _normalize_terms(dim, terms):
    out = {}
    for (alpha, beta), coeff in terms.items():
        alpha = tuple(int(e) for e in alpha)
        beta = tuple(int(e) for e in beta)
        if len(alpha) != dim or len(beta) != dim:
            raise ValueError(
                f"exponent vectors must have length {dim}, got {alpha} / {beta}"
            )
        if any(e < 0 for e in alpha) or any(e < 0 for e in beta):
            raise ValueError(f"negative exponent in {(alpha, beta)}")
        coeff = complex(coeff)
        if coeff != 0:
            out[(alpha, beta)] = out.get((alpha, beta), 0j) + coeff
    return {k: c for k, c in out.items() if c != 0}


# bytes of one block's working set, per row. In Evaluator.table: the power
# table (2n complex values for each kept power, and for the one running power
# when some are skipped), the accumulator and the one gathered factor it holds
# (K values each), 43-910 rows of the jets of the bundled and generated
# inputs. In the scan of analyze and suite (cli._scan_block_rows): the jet's
# K monomials, 1 + n + n^2 columns and n^2 entries of U, 16 bytes each.
# A grid chunk's transients must stay below glibc's heap trim threshold (twice
# the largest block it has unmapped), or the heap goes back to the kernel and
# is faulted in again on every chunk. In a fresh process per benchmark grid
# operation (tools/fault_probe.py, a 2-core x86-64 box) the 2^15 table entries
# per block that this replaces took 4,100-22,700 minor faults; this budget
# with 2,048-row chunks takes 250-10,400 in checkouts at six paths (about
# 5,300 of square_norm's are the harness reading its CSV). At 2^19,
# ball3 sat near the threshold: 700-3,600, and 11,752 at one path. With one
# BLAS thread, analyze ball3.pot --samples 65536 (464 bytes a row, 564 rows a
# scan block) peaks at 46.9 MB VmHWM in 0.66-0.71 s, against 169 MB and
# 0.86-0.97 s for the whole batch at once, and at 47.4 and 49.7 MB at 2^19
# and 2^20 (2^16 and 2^17 no lower); the scan of 1,000 samples of the
# generated normsq_n8 (54 rows a block) takes 10.4 ms, against 9.5 ms in one
# block, 11.3 ms at 2^17 and 14.6 ms at 2^16
TABLE_BLOCK_BYTES = 2**18


class Evaluator:
    """The values of a tuple of same-dimension polynomials at an (N, n) point
    array, column j for polynomial j: the monomials z**alpha * zbar**beta of
    the sorted union ``keys`` of their keys times ``coeffs``.

    ``table`` fills the monomials of at most ``rows`` points, the most whose
    working set fits TABLE_BLOCK_BYTES, and ``__call__`` takes each block's
    product while it is in cache, so no input size makes a table grow. The
    power table of z and zbar keeps base**0 and the powers some factor uses,
    each base**(e - 1) times base, so a kept power is the number a table of
    every power holds, and |z2|**8000 keeps 3 powers, not 4,001. A monomial is
    the product of its factors z1^a1, zbar1^b1, z2^a2, ..., left to right, so
    it is the same number whichever list it sits in.

    numpy hands a product with one row or one column to BLAS gemv, whose sums
    can differ in the last bit from gemm's, so every product stays on gemm: a
    one-row batch or last block is evaluated as two equal rows
    (``doubled_row``), and the coefficient matrix has at least two columns (a
    lone polynomial gets a zero second one). A row then does not depend on its
    batch, with one BLAS thread. ``doubled_row`` gathers every factor at once
    and takes one ``multiply.reduce``: the products of ``table``'s factor loop
    in the same order, from the same index ``_index``. On many rows that
    gather would hold 2n times the table, and the loop is faster.
    """

    __slots__ = ("dim", "keys", "rows", "coeffs", "_kept", "_chain", "_index")

    def __init__(self, exprs):
        packs = [e._pack() for e in exprs]
        self.dim = dim = exprs[0].dim
        self.keys = tuple(sorted(set().union(*(keys for keys, _ in packs))))
        exps = np.array([(*a, *b) for a, b in self.keys], dtype=np.intp).reshape(-1, 2 * dim)
        self._kept = sorted({0, *exps.ravel().tolist()})
        slot = {e: i for i, e in enumerate(self._kept)}
        # the table slot of each kept power above base**0, after -k when the k
        # powers below it are used by no factor
        self._chain = []
        for prev, e in zip(self._kept, self._kept[1:]):
            self._chain += [prev + 1 - e, slot[e]] if e > prev + 1 else [slot[e]]
        running = self._kept[-1] >= len(self._kept)
        self.rows = max(1, TABLE_BLOCK_BYTES // (16 * ((len(self._kept) + running) * 2 * dim + 2 * len(self.keys))))
        # [f, k]: flat index of factor f of monomial k, for the factors z1,
        # zbar1, z2, zbar2, ... in order, into a (kept powers, 2n) power table
        order = np.arange(2 * dim).reshape(2, dim).T.ravel().tolist()
        self._index = np.array([[slot[e] * 2 * dim + c for e in exps[:, c].tolist()] for c in order], dtype=np.intp)
        row = {key: i for i, key in enumerate(self.keys)}
        self.coeffs = np.zeros((len(row), max(2, len(packs))), dtype=complex)
        for col, (keys, c) in enumerate(packs):
            self.coeffs[[row[key] for key in keys], col] = c

    def __call__(self, points):
        """(N, max(2, len(exprs))) complex values, column j for expression j."""
        pts = np.asarray(points, dtype=complex)
        if pts.shape == (1, self.dim):
            return (self.doubled_row(pts[0], self.row_buffers()).T @ self.coeffs)[:1]
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected an (N, {self.dim}) array, got {pts.shape}")
        if len(pts) <= self.rows:
            return self.table(pts).T @ self.coeffs
        out = np.empty((len(pts), self.coeffs.shape[1]), dtype=complex)
        for start in range(0, len(pts), self.rows):
            block = pts[start : start + self.rows]
            if len(block) > 1:
                np.matmul(self.table(block).T, self.coeffs, out=out[start : start + self.rows])
            else:  # a one-row last block: the doubled row
                out[start:] = self(block)
        return out

    def _powers(self, base, powers=None):
        """base**e for each kept exponent e, in ascending order on a new first
        axis, each power one multiplication of the one before; into ``powers``,
        whose slot 0 is 1, when given."""
        if powers is None:
            powers = np.empty((len(self._kept), *base.shape), dtype=complex)
            powers[0] = 1.0
        last, running = powers[0], None
        for slot in self._chain:
            if slot > 0:
                last = np.multiply(last, base, powers[slot])
            else:  # -slot powers no factor uses: one running array
                for _ in range(-slot):
                    last = running = np.multiply(last, base, out=running)
        return powers

    def table(self, pts):
        """(len(keys), M) complex table of the monomials at an (M, n) point array."""
        # (kept powers * 2n, M): each gathered power of a factor is a contiguous row
        powers = self._powers(np.concatenate((pts.T, pts.T.conj()))).reshape(len(self._kept) * 2 * self.dim, -1)
        first, *rest = self._index
        acc = powers.take(first, axis=0)
        for index in rest:
            acc *= powers.take(index, axis=0)
        return acc

    def row_buffers(self):
        """Fresh buffers of ``doubled_row``: z and conj(z), their power table
        (slot 0 is 1), the gather index, the gathered factors and the table."""
        index = np.repeat(self._index[:, :, None], 2, axis=2)  # [f, k, r]: both columns r of the doubled row
        powers = np.empty((len(self._kept), 2 * self.dim), dtype=complex)
        powers[0] = 1.0
        return (np.empty(2 * self.dim, dtype=complex), powers, index, np.empty(index.shape, dtype=complex),
                np.empty((len(self.keys), 2), dtype=complex))

    def doubled_row(self, z, buffers):
        """(len(keys), 2) complex table of the monomials at the one point z,
        in both columns: ``table`` on the two rows (z, z), bit for bit. It
        fills ``buffers`` (``row_buffers``) and returns their last, the table."""
        base, powers, index, factors, table = buffers
        base[: self.dim] = z
        np.conjugate(z, out=base[self.dim :])
        self._powers(base, powers)
        # clip: the indices are in range, and the default mode buffers the output
        powers.take(index, out=factors, mode="clip")
        # initial=None starts from the first factor, as the loop does; the
        # default starts from 1, whose product flips the sign of some zeros
        return np.multiply.reduce(factors, axis=0, initial=None, out=table)


class PolyExpr:
    """Complex-valued polynomial in z and zbar as a sparse monomial map.

    Parameters
    ----------
    dim : int
        Ambient complex dimension n.
    terms : mapping
        ``{(alpha, beta): coefficient}`` with ``alpha``/``beta`` length-n
        integer tuples. Zero coefficients are dropped.
    """

    __slots__ = ("dim", "terms", "_hash", "_evaluator")

    def __init__(self, dim, terms):
        dim = int(dim)
        if dim < 1:
            raise ValueError("dimension must be a positive integer")
        self.dim = dim
        self.terms = _normalize_terms(dim, terms)
        self._hash = None
        self._evaluator = None

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, PolyExpr)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dim, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, {len(self.terms)} terms)"

    # -- evaluation --------------------------------------------------------

    def evaluate(self, z):
        """Evaluate at a single point, returning a complex number
        (``evaluate_many`` on one row)."""
        return complex(self.evaluate_many(_one_row(self, z))[0])

    def _pack(self):
        """(sorted term keys, their coefficients): what ``Evaluator`` is built from."""
        keys = sorted(self.terms)
        return keys, np.array([self.terms[k] for k in keys], dtype=complex)

    def evaluate_many(self, points):
        """Evaluate at an (N, n) array of points, returning an (N,) complex array."""
        if self._evaluator is None:
            self._evaluator = Evaluator((self,))
        return self._evaluator(points)[:, 0]

    # -- Wirtinger derivatives ----------------------------------------------

    def _diff(self, side, index):
        """Formal derivative with respect to z^index (side 0, the alpha
        exponents) or zbar^index (side 1, the beta exponents)."""
        if not 0 <= index < self.dim:
            raise IndexError(f"index {index} out of range for dimension {self.dim}")
        out = {}
        for key, coeff in self.terms.items():
            e = key[side][index]
            if e:
                lowered = key[side][:index] + (e - 1,) + key[side][index + 1 :]
                new = (lowered, key[1]) if side == 0 else (key[0], lowered)
                out[new] = out.get(new, 0j) + coeff * e
        return PolyExpr(self.dim, out)

    def diff_z(self, mu):
        """Formal derivative with respect to z^mu (0-based index)."""
        return self._diff(0, mu)

    def diff_zbar(self, nu):
        """Formal derivative with respect to zbar^nu (0-based index)."""
        return self._diff(1, nu)


class PolyPotential(PolyExpr):
    """Real-valued polynomial in z, zbar: the Hermitian-symmetric case.

    The constructor enforces ``coeff(alpha, beta) == conj(coeff(beta, alpha))``
    exactly; this guarantees real values up to roundoff. Positivity and
    plurisubharmonicity are deliberately *not* invariants (counterexamples are
    first-class inputs) and are checked by downstream operations.
    """

    __slots__ = ()

    def __init__(self, dim, terms):
        super().__init__(dim, terms)
        bad = []
        for (alpha, beta), coeff in self.terms.items():
            mirror = self.terms.get((beta, alpha))
            if mirror is None or mirror != coeff.conjugate():
                bad.append((alpha, beta))
        if bad:
            raise ValueError(
                "non-Hermitian term set: missing or mismatched conjugates for "
                + ", ".join(f"a={a} b={b}" for a, b in sorted(bad))
            )


# -- module-level operations -------------------------------------------------


def bidegree_decompose(p):
    """Split into homogeneous bidegree components.

    Returns ``{(l, m): PolyExpr}`` where component (l, m) collects exactly the
    terms with |alpha| = l and |beta| = m; the components sum back to the
    input term-by-term.
    """
    buckets = {}
    for (alpha, beta), coeff in p.terms.items():
        key = (sum(alpha), sum(beta))
        buckets.setdefault(key, {})[(alpha, beta)] = coeff
    return {key: PolyExpr(p.dim, terms) for key, terms in sorted(buckets.items())}


def homogeneous_degree(p):
    """Common total degree |alpha|+|beta| of all terms, or None if degrees mix.

    Returns None for the zero polynomial as well (no witness degree).
    """
    degrees = {sum(a) + sum(b) for (a, b) in p.terms}
    if len(degrees) != 1:
        return None
    return degrees.pop()


# -- text format --------------------------------------------------------------

_DIM_RE = re.compile(r"^n\s*=\s*(\d+)$")
_MONO_RE = re.compile(
    r"^(?:monomial\s*:\s*)?a\s*=\s*\[([^\]]*)\]\s*b\s*=\s*\[([^\]]*)\]\s*c\s*=\s*(\S+)$"
)
_LONE_J_RE = re.compile(r"(?<![0-9.a-z])j")  # a j that stands for 1j: not that of 2j, .j, infj or nanj


def parse_complex(token):
    """Parse ``<re><sign><im>i`` style complex literals (also bare reals)."""
    s = token.strip().lower().replace(" ", "")
    if s.endswith("i"):
        s = s[:-1] + "j"
    s = _LONE_J_RE.sub("1j", s)
    return complex(s)


def _parse_exponents(text, dim, lineno):
    entries = [e.strip() for e in text.split(",")] if text.strip() else []
    try:
        exps = tuple(int(e) for e in entries)
    except ValueError:
        raise PotentialFormatError(f"bad exponent list [{text}]", lineno) from None
    if len(exps) != dim:
        raise PotentialFormatError(
            f"expected {dim} exponents, got {len(exps)}", lineno
        )
    if any(e < 0 for e in exps):
        raise PotentialFormatError("negative exponent", lineno)
    return exps


def parse_potential(text):
    """Parse the potential text format into a PolyPotential.

    Format, one declaration per line (``;`` also separates declarations,
    ``#`` starts a comment, blank lines are ignored)::

        n = 2
        monomial: a=[1,0] b=[1,0] c=1+0i

    The ``monomial:`` prefix is optional. Repeated keys accumulate. The
    Hermitian-symmetry requirement is enforced, not silently repaired, and a
    text whose monomials are absent or cancel to none is refused, as is a
    coefficient that is not finite or whose key's sum overflows.
    """
    dim = None
    acc = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        code = raw.split("#", 1)[0]
        for stmt in code.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            m = _DIM_RE.match(stmt)
            if m:
                if dim is not None:
                    raise PotentialFormatError("duplicate dimension line", lineno)
                dim = int(m.group(1))
                if dim < 1:
                    raise PotentialFormatError("dimension must be >= 1", lineno)
                continue
            if dim is None:
                raise PotentialFormatError(
                    "dimension line 'n = <int>' must come first", lineno
                )
            m = _MONO_RE.match(stmt)
            if m is None:
                raise PotentialFormatError(f"cannot parse declaration {stmt!r}", lineno)
            alpha = _parse_exponents(m.group(1), dim, lineno)
            beta = _parse_exponents(m.group(2), dim, lineno)
            try:
                coeff = parse_complex(m.group(3))
            except ValueError:
                raise PotentialFormatError(
                    f"bad coefficient {m.group(3)!r}", lineno
                ) from None
            acc[(alpha, beta)] = acc.get((alpha, beta), 0j) + coeff
            if not cmath.isfinite(acc[(alpha, beta)]):
                why = "overflows the sum of its key" if cmath.isfinite(coeff) else "is not finite"
                raise PotentialFormatError(f"coefficient {m.group(3)!r} {why}", lineno)
    if dim is None:
        raise PotentialFormatError("missing dimension line 'n = <int>'")
    try:
        p = PolyPotential(dim, acc)
    except ValueError as exc:
        raise PotentialFormatError(str(exc)) from None
    if p.is_zero():
        raise PotentialFormatError("no monomials: every coefficient is absent or cancels")
    return p


def parse_potential_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_potential(fh.read())


def format_complex(c):
    re_part = repr(float(c.real))
    im_part = repr(float(c.imag))
    sign = "+" if not im_part.startswith("-") else ""
    return f"{re_part}{sign}{im_part}i"


def format_potential(p):
    """Render a potential back into the text format (round-trips exactly)."""
    lines = [f"n = {p.dim}"]
    for (alpha, beta) in sorted(p.terms):
        coeff = p.terms[(alpha, beta)]
        a = ",".join(str(e) for e in alpha)
        b = ",".join(str(e) for e in beta)
        lines.append(f"monomial: a=[{a}] b=[{b}] c={format_complex(coeff)}")
    return "\n".join(lines) + "\n"
