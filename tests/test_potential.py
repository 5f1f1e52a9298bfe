import tracemalloc

import numpy as np
import pytest

from mafoliation import (
    PolyExpr,
    PolyPotential,
    PotentialFormatError,
    bidegree_decompose,
    format_potential,
    homogeneous_degree,
    parse_potential,
)
from mafoliation import levi, potential, sampling
from mafoliation.potential import Monomials
from helpers import random_hermitian_potential, random_points, reference_evaluate, wirtinger_fd


# -- parsing -----------------------------------------------------------------


def test_parse_semicolon_string(ball2):
    p = parse_potential("n=2; a=[1,0] b=[1,0] c=1+0i; a=[0,1] b=[0,1] c=1+0i")
    assert p.terms == ball2.terms


def test_parse_file_format(weighted24):
    text = """\
# |z1|^2 + |z2|^4
n = 2
monomial: a=[1,0] b=[1,0] c=1+0i

monomial: a=[0,2] b=[0,2] c=1+0i  # quartic term
"""
    p = parse_potential(text)
    assert set(p.terms) == {((1, 0), (1, 0)), ((0, 2), (0, 2))}
    assert p.terms == weighted24.terms


def test_parse_non_hermitian_rejected():
    with pytest.raises(PotentialFormatError, match="non-Hermitian"):
        parse_potential("n=2\nmonomial: a=[1,0] b=[0,1] c=1+0i")


@pytest.mark.parametrize("body", ["", "# no terms\n", "monomial: a=[0,1] b=[0,1] c=2\nmonomial: a=[0,1] b=[0,1] c=-2\n"])
def test_parse_refuses_a_potential_without_monomials(body):
    with pytest.raises(PotentialFormatError, match="no monomials"):
        parse_potential("n = 2\n" + body)


def test_parse_syntax_error_reports_line():
    text = "n = 2\nmonomial: a=[1,0] b=[1,0] c=1+0i\nmonomial: a=[1,0 b=[1,0] c=1\n"
    with pytest.raises(PotentialFormatError, match="line 3"):
        parse_potential(text)


def test_parse_dimension_mismatch():
    with pytest.raises(PotentialFormatError, match="expected 2 exponents"):
        parse_potential("n = 2\nmonomial: a=[1] b=[1] c=1+0i")


def test_parse_requires_dimension_first():
    with pytest.raises(PotentialFormatError, match="must come first"):
        parse_potential("monomial: a=[1] b=[1] c=1+0i")
    with pytest.raises(PotentialFormatError, match="missing dimension"):
        parse_potential("# nothing here\n")


def test_parse_accumulates_repeated_keys():
    p = parse_potential("n=1; a=[1] b=[1] c=1+0i; a=[1] b=[1] c=2+0i")
    assert p.terms == {((1,), (1,)): 3 + 0j}


def test_format_round_trip(quartic_mixed):
    again = parse_potential(format_potential(quartic_mixed))
    assert again.terms == quartic_mixed.terms
    assert again.dim == quartic_mixed.dim


# -- evaluation ---------------------------------------------------------------


def test_evaluate_examples(ball2, weighted24, nonma):
    assert ball2.evaluate([1, 1j]).real == pytest.approx(2.0, abs=1e-14)
    assert weighted24.evaluate([1, 1]).real == pytest.approx(2.0, abs=1e-14)
    assert nonma.evaluate([1, 1]).real == pytest.approx(3.0, abs=1e-14)


def test_evaluate_dimension_mismatch(ball2):
    with pytest.raises(ValueError, match="length"):
        ball2.evaluate([1.0])


def test_evaluate_many_matches_single(quartic_mixed, bundled_and_generated):
    rng = np.random.default_rng(5)
    pts = random_points(rng, 2, 40)
    batch = quartic_mixed.evaluate_many(pts)
    singles = np.array([quartic_mixed.evaluate(z) for z in pts])
    oracle = np.array([reference_evaluate(quartic_mixed, z) for z in pts])
    assert np.max(np.abs(batch - oracle)) < 1e-12
    assert np.max(np.abs(singles - oracle)) < 1e-12
    # bit for bit: a row does not depend on the size of its batch, and
    # evaluate is its row (numpy would send a one-row or one-column product
    # to BLAS gemv, whose sums differ from gemm's in the last bit)
    for name, p in bundled_and_generated.items():
        pts = random_points(rng, p.dim, 100)
        whole = p.evaluate_many(pts)
        for size in (1, 2, 3, 7):
            parts = np.concatenate([p.evaluate_many(pts[i : i + size]) for i in range(0, len(pts), size)])
            assert parts.tobytes() == whole.tobytes(), (name, size)
        singles = np.array([p.evaluate(z) for z in pts])
        assert singles.tobytes() == whole.tobytes(), name


@pytest.mark.parametrize("keys", [
    [],  # no monomial
    [((0, 0), (0, 0))],  # the constant: no power of z above 0
    [((0, 0), (0, 0)), ((1, 0), (0, 0)), ((0, 1), (1, 1))],  # powers up to 1
    [((3, 0), (0, 1)), ((0, 2), (2, 0)), ((1, 1), (1, 1))],
    [((5, 0), (0, 2)), ((0, 1), (3, 0)), ((7, 7), (0, 7))],  # skipped powers: a negative chain entry
])
def test_doubled_row_is_the_factor_loop_on_two_equal_rows(keys):
    # in fresh buffers, and in one set of buffers kept across the points
    monomials = Monomials(2, keys)
    kept = monomials.row_buffers()
    rng = np.random.default_rng(21)
    for z in [*random_points(rng, 2, 20), np.array([0j, complex(-0.0, -0.0)])]:
        got = monomials.doubled_row(z)
        want = monomials(np.repeat(z[None], 2, axis=0))
        assert got.shape == want.shape == (len(keys), 2)
        assert got.tobytes() == want.tobytes()
        assert monomials.doubled_row(z, kept).tobytes() == want.tobytes()


def _row_bytes(monomials):
    """Bytes per row of a table block's working set, as complex128: 2n values
    for base**0, for each power a factor uses and for one running power when
    some power below the largest is not kept; the accumulator and one
    gathered factor."""
    kept = {0} | {e for a, b in monomials.keys for e in (*a, *b)}
    running = max(kept) >= len(kept)
    return 16 * ((len(kept) + running) * 2 * monomials.dim + 2 * len(monomials.keys))


def test_a_skipped_power_does_not_change_a_monomial():
    """A table that keeps only the powers its factors use gives the bits of one
    whose other keys make it keep every power."""
    keys = [((5, 0), (0, 2)), ((0, 1), (3, 0)), ((0, 0), (0, 0)), ((7, 7), (0, 7))]
    dense = keys + [((e, e), (e, e)) for e in range(8)]
    pts = random_points(np.random.default_rng(27), 2, 40)
    assert Monomials(2, keys)(pts).tobytes() == Monomials(2, dense)(pts)[: len(keys)].tobytes()
    for z in pts[:5]:
        assert Monomials(2, keys).doubled_row(z).tobytes() == Monomials(2, dense).doubled_row(z)[: len(keys)].tobytes()


@pytest.mark.parametrize("keys", [
    [],
    [((0, 0), (0, 0))],
    [((3, 0), (0, 1)), ((0, 2), (2, 0)), ((1, 1), (1, 1))],
    [((a, b), (c, d)) for a in range(3) for b in range(2) for c in range(2) for d in range(3)],  # 36 monomials
])
def test_monomial_table_does_not_depend_on_its_block_size(keys, monkeypatch):
    rng = np.random.default_rng(22)
    pts = np.concatenate([random_points(rng, 2, 50), [[0j, complex(-0.0, -0.0)], [complex(np.inf, 1), -1j]]])
    monomials = Monomials(2, keys)
    row = _row_bytes(monomials)
    with np.errstate(invalid="ignore"):  # inf * 0 in the row with an infinite coordinate
        tables = []
        for budget in (2**60, 1, 7 * row, 6 * row - 1):  # one block; one row per block; 7 or 5 rows per block
            monkeypatch.setattr(potential, "TABLE_BLOCK_BYTES", budget)
            tables.append(monomials(pts))
    assert all(t.shape == (len(keys), len(pts)) for t in tables)
    assert all(t.tobytes() == tables[0].tobytes() for t in tables[1:])


def test_every_jet_table_block_fits_the_budget(bundled_and_generated, monkeypatch):
    """On a grid chunk, each block of a jet's monomial table is the most rows
    whose working set fits TABLE_BLOCK_BYTES, or one row where none fits."""
    blocks = []
    block = Monomials._block

    def recording(self, pts):
        blocks.append(len(pts))
        return block(self, pts)

    monkeypatch.setattr(Monomials, "_block", recording)
    rng = np.random.default_rng(25)
    for name, p in bundled_and_generated.items():
        monomials = levi._batch_jet(p).monomials
        row = _row_bytes(monomials)
        blocks.clear()
        monomials(random_points(rng, p.dim, sampling.GRID_CHUNK_ROWS))
        assert sum(blocks) == sampling.GRID_CHUNK_ROWS, name
        assert all(size == 1 or size * row <= potential.TABLE_BLOCK_BYTES for size in blocks), name
        assert all(potential.TABLE_BLOCK_BYTES < (size + 1) * row for size in blocks[:-1]), name
        assert blocks[-1] <= blocks[0], name


def test_a_table_of_high_powers_is_filled_within_the_budget():
    """On 2,000 rows the table of |z1|^2 and |z2|^8000 fills blocks within
    the budget, not a table of 4,001 powers of every row at once (over 500 MiB)."""
    monomials = Monomials(2, [((1, 0), (1, 0)), ((0, 4000), (0, 4000))])
    pts = random_points(np.random.default_rng(26), 2, 2000, radius=0.7)  # |z| < 1: no overflow
    tracemalloc.start()
    try:
        table = monomials(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (2, 2000)
    assert peak < 2 * 2**20


def test_hermitian_evaluation_is_real(all_examples):
    rng = np.random.default_rng(11)
    for p in all_examples.values():
        pts = random_points(rng, p.dim, 1000, radius=2.0)
        vals = p.evaluate_many(pts)
        assert np.max(np.abs(vals.imag) / np.maximum(1.0, np.abs(vals))) < 1e-12


def test_random_hermitian_evaluation_is_real():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = random_hermitian_potential(rng)
        pts = random_points(rng, p.dim, 50, radius=2.0)
        vals = p.evaluate_many(pts)
        assert np.max(np.abs(vals.imag) / np.maximum(1.0, np.abs(vals))) < 1e-12


# -- Wirtinger derivatives ------------------------------------------------------


def test_wirtinger_z_of_norm_square(ball2):
    d = ball2.diff_z(0)
    assert d.terms == {((0, 0), (1, 0)): 1 + 0j}  # zbar1


def test_wirtinger_z_power_rule():
    quartic = PolyExpr(2, {((0, 2), (0, 2)): 1})  # |z2|^4
    d = quartic.diff_z(1)
    assert d.terms == {((0, 1), (0, 2)): 2 + 0j}  # 2 z2 zbar2^2


def test_wirtinger_z_vanishes():
    quartic = PolyExpr(2, {((0, 2), (0, 2)): 1})
    assert quartic.diff_z(0).is_zero()


def test_wirtinger_zbar_examples(ball2):
    d = ball2.diff_zbar(0)
    assert d.terms == {((1, 0), (0, 0)): 1 + 0j}  # z1
    quartic = PolyExpr(2, {((0, 2), (0, 2)): 1})
    d2 = quartic.diff_zbar(1)
    assert d2.terms == {((0, 2), (0, 1)): 2 + 0j}  # 2 z2^2 zbar2
    sq = PolyExpr(2, {((0, 1), (0, 1)): 1})  # |z2|^2
    assert sq.diff_zbar(1).diff_zbar(1).is_zero()


def test_wirtinger_index_out_of_range(ball2):
    with pytest.raises(IndexError):
        ball2.diff_z(2)
    with pytest.raises(IndexError):
        ball2.diff_zbar(-1)


def test_mixed_partials_commute():
    rng = np.random.default_rng(3)
    for _ in range(15):
        p = random_hermitian_potential(rng, dim=2, pairs=5, max_exp=3)
        for mu in range(2):
            for nu in range(2):
                a = p.diff_z(mu).diff_zbar(nu)
                b = p.diff_zbar(nu).diff_z(mu)
                assert a.terms == b.terms


def test_wirtinger_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = random_hermitian_potential(rng, dim=2, pairs=4, max_exp=2)
        pts = random_points(rng, 2, 10, radius=2.0)
        for mu in range(2):
            dz = p.diff_z(mu)
            dzb = p.diff_zbar(mu)
            for z in pts:
                fd = wirtinger_fd(p.evaluate, z, mu)
                ref = dz.evaluate(z)
                assert abs(fd - ref) <= 1e-5 * max(1.0, abs(ref))
                fdb = wirtinger_fd(p.evaluate, z, mu, anti=True)
                refb = dzb.evaluate(z)
                assert abs(fdb - refb) <= 1e-5 * max(1.0, abs(refb))


# -- bidegree decomposition -----------------------------------------------------


def test_bidegree_square_norm(square_norm):
    comps = bidegree_decompose(square_norm)
    assert list(comps) == [(2, 2)]
    assert comps[(2, 2)].terms == square_norm.terms


def test_bidegree_mixed_quartic(quartic_mixed):
    comps = bidegree_decompose(quartic_mixed)
    assert set(comps) == {(2, 2), (3, 1), (1, 3)}
    assert comps[(3, 1)].terms == {((3, 0), (0, 1)): 0.5 + 0j}
    assert comps[(1, 3)].terms == {((0, 1), (3, 0)): 0.5 + 0j}


def test_bidegree_weighted(weighted24):
    comps = bidegree_decompose(weighted24)
    assert set(comps) == {(1, 1), (2, 2)}


def test_bidegree_sum_reproduces_input():
    rng = np.random.default_rng(29)
    for _ in range(10):
        p = random_hermitian_potential(rng, dim=2, pairs=6, max_exp=3)
        comps = bidegree_decompose(p)
        merged = {}
        for comp in comps.values():
            for key, c in comp.terms.items():
                merged[key] = merged.get(key, 0j) + c
        assert merged == p.terms


# -- homogeneous degree -----------------------------------------------------------


def test_homogeneous_degree(square_norm, weighted24, quartic_mixed):
    assert homogeneous_degree(square_norm) == 4
    assert homogeneous_degree(weighted24) is None
    assert homogeneous_degree(quartic_mixed) == 4


def test_potential_immutability_contract(ball2):
    # values are shared freely; hash/equality are by content
    same = PolyPotential(2, {((1, 0), (1, 0)): 1, ((0, 1), (0, 1)): 1})
    assert same == ball2
    assert hash(same) == hash(ball2)
