import numpy as np
import pytest

from mafoliation import (
    PolyPotential,
    Stratum,
    evaluate,
    levi_data,
    levi_scan,
    ma_residual,
    ma_scan,
    rank_identity_residual,
    restricted_levi_eigen,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from mafoliation.levi import adjugate, fields_at, fields_at_many, jet, ma_matrix, rank_identity
from mafoliation.sampling import real_grid, sample_domain
from helpers import (
    hessian_fd,
    random_hermitian_potential,
    random_points,
    reference_evaluate,
    reference_levi_data,
    term_scale,
)


def test_levi_data_weighted_at_11(weighted24):
    ld = levi_data(weighted24, [1, 1])
    assert np.allclose(ld.hessian, np.diag([1.0, 4.0]))
    assert ld.det_hessian == pytest.approx(4.0)
    assert ld.stratum is Stratum.STRICTLY_PSH
    assert np.allclose(ld.eigenvalues, [1.0, 4.0])


def test_levi_data_weighted_at_degenerate(weighted24):
    ld = levi_data(weighted24, [1, 0])
    assert np.allclose(ld.hessian, np.diag([1.0, 0.0]))
    assert ld.det_hessian == pytest.approx(0.0, abs=1e-15)
    assert ld.stratum is Stratum.LOW_DEGENERACY


def test_levi_data_nonma_at_11(nonma):
    ld = levi_data(nonma, [1, 1])
    assert np.allclose(ld.hessian, [[2, 1], [1, 2]])
    assert ld.det_hessian == pytest.approx(3.0)
    assert ld.stratum is Stratum.STRICTLY_PSH


def test_levi_data_matches_scalar_reference(bundled_and_generated):
    # levi_data is row 0 of a one-row levi_scan; every field must be the
    # scalar bundle's, bit for bit, on every stratum and outside the domain
    rng = np.random.default_rng(163)
    for name, p in bundled_and_generated.items():
        pts = np.concatenate([random_points(rng, p.dim, 40), np.zeros((1, p.dim))])
        for z in pts:
            got, want = levi_data(p, z), reference_levi_data(p, z)
            assert type(got.rho) is float and type(got.det_hessian) is complex
            assert got.rho == want.rho and got.det_hessian == want.det_hessian, name
            assert got.stratum is want.stratum, name
            for field in ("point", "grad", "hessian", "eigenvalues"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), (name, field)


def test_levi_data_rejects_a_point_of_the_wrong_length(ball2):
    with pytest.raises(ValueError, match="point has length 3, expected 2"):
        levi_data(ball2, [1, 0, 0])


def test_levi_data_outside_domain(nonma):
    ld = levi_data(nonma, [0, 0])
    assert ld.rho == 0.0
    assert ld.stratum is Stratum.OUTSIDE_DOMAIN
    assert ld.hessian.shape == (2, 2)  # fields still filled


def test_weak_stratum_in_three_vars():
    p = PolyPotential(
        3,
        {
            ((1, 0, 0), (1, 0, 0)): 1,
            ((0, 2, 0), (0, 2, 0)): 1,
            ((0, 0, 2), (0, 0, 2)): 1,
        },
    )
    ld = levi_data(p, [1, 0, 0])
    assert ld.stratum is Stratum.WEAK
    below = np.abs(ld.eigenvalues) <= 1e-8 * max(1.0, np.abs(ld.eigenvalues).max())
    assert below.sum() >= 2


def test_stratum_full_rank_has_positive_spectrum(ma_examples):
    rng = np.random.default_rng(31)
    for p in ma_examples.values():
        pts = sample_domain(p, 200, 1.5, rng)
        scan = levi_scan(p, pts)
        for i, stratum in enumerate(scan.strata):
            if stratum is Stratum.STRICTLY_PSH:
                assert np.all(scan.eigenvalues[i] > 0)


# -- Monge-Ampere residual -------------------------------------------------------


def test_ma_residual_ball_vanishes(ball2):
    rng = np.random.default_rng(41)
    for z in random_points(rng, 2, 50):
        if evaluate(ball2, z) > 1e-6:
            assert ma_residual(ball2, z) < 1e-12


def test_ma_residual_weighted_at_11(weighted24):
    assert ma_residual(weighted24, [1, 1]) < 1e-10


def test_ma_residual_nonma_value(nonma):
    # U = [[2/9, -1/9], [-1/9, 2/9]], det = 1/27
    u = ma_matrix(nonma, [1, 1])
    assert np.allclose(u, [[2 / 9, -1 / 9], [-1 / 9, 2 / 9]], atol=1e-14)
    assert ma_residual(nonma, [1, 1]) == pytest.approx(1 / 27, abs=1e-12)


def test_ma_residual_requires_positive_rho(nonma):
    with pytest.raises(ValueError, match="rho"):
        ma_residual(nonma, [0, 0])


def test_ma_examples_satisfy_equation(ma_examples):
    rng = np.random.default_rng(43)
    for p in ma_examples.values():
        pts = sample_domain(p, 300, 1.5, rng, min_rho=1e-3)
        raw, _ = ma_scan(p, pts)
        assert raw.max() < 1e-9


# -- rank identity ------------------------------------------------------------------


def test_rank_identity_ball(ball2):
    # rho detH = 2, gbar^T adj(H) g = 2
    assert rank_identity_residual(ball2, [1, 1]) == pytest.approx(0.0, abs=1e-12)


def test_rank_identity_nonma(nonma):
    # 3*3 - 8 = 1 with adj(H) = [[2,-1],[-1,2]], g = (2,2)
    assert rank_identity_residual(nonma, [1, 1]) == pytest.approx(1.0, abs=1e-9)


def test_adjugate_matches_inverse():
    rng = np.random.default_rng(47)
    for n in (1, 2, 3, 4):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        adj = adjugate(a)
        assert np.allclose(a @ adj, np.linalg.det(a) * np.eye(n), atol=1e-10)
        batch = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
        assert np.array_equal(adjugate(batch), np.array([adjugate(m) for m in batch]))


def test_batched_rank_identity_matches_pointwise():
    rng = np.random.default_rng(61)
    p = random_hermitian_potential(rng, dim=4, pairs=6, max_exp=2)
    pts = random_points(rng, 4, 25, radius=1.0)
    rho, grad, hess = fields_at_many(p, pts)
    batched = rank_identity(rho, grad, hess)
    det = np.linalg.det(hess)
    quad = np.einsum("ni,nij,nj->n", grad.conj(), adjugate(hess), grad)
    scale = np.maximum(1.0, np.abs(rho * det) + np.abs(quad))
    for k, z in enumerate(pts):
        assert abs(batched[k] - rank_identity_residual(p, z)) <= 1e-12 * scale[k]


def test_determinant_lemma_equivalence(all_examples):
    rng = np.random.default_rng(53)
    for p in all_examples.values():
        pts = sample_domain(p, 200, 1.5, rng, min_rho=1e-6)
        for z in pts:
            rho = evaluate(p, z)
            lhs = rank_identity_residual(p, z)
            rhs = rho ** (p.dim + 1) * np.linalg.det(ma_matrix(p, z)).real
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_rank_identity_vanishes_where_ma_does(weighted24):
    rng = np.random.default_rng(59)
    for z in sample_domain(weighted24, 100, 1.5, rng, min_rho=1e-3):
        rho = evaluate(weighted24, z)
        assert abs(rank_identity_residual(weighted24, z)) < rho ** 3 * 1e-10 + 1e-10


# -- restricted Levi eigenvalues ------------------------------------------------------


def test_restricted_eigen_ball_is_one_over_rho(ball2):
    rng = np.random.default_rng(61)
    for z in random_points(rng, 2, 20):
        rho = evaluate(ball2, z)
        if rho < 1e-3:
            continue
        eig = restricted_levi_eigen(ball2, z)
        assert eig.shape == (1,)
        assert eig[0] == pytest.approx(1 / rho, rel=1e-10)


def test_restricted_eigen_weighted_degenerate(weighted24):
    eig = restricted_levi_eigen(weighted24, [1, 0])
    assert eig[0] == pytest.approx(0.0, abs=1e-14)


def test_restricted_eigen_weighted_positive(weighted24):
    eig = restricted_levi_eigen(weighted24, [1, 1])
    assert eig.shape == (1,)
    assert eig[0] > 0.1


def test_restricted_eigen_zero_gradient_error():
    p = PolyPotential(2, {((0, 0), (0, 0)): 1, ((1, 0), (1, 0)): 1})  # 1 + |z1|^2
    with pytest.raises(ValueError, match="zero gradient"):
        restricted_levi_eigen(p, [0, 1])


# -- hessian properties ----------------------------------------------------------------


def test_hessian_hermitian_symmetry(all_examples):
    rng = np.random.default_rng(67)
    for p in all_examples.values():
        pts = random_points(rng, p.dim, 100, radius=2.0)
        scan = levi_scan(p, pts)
        h = scan.hessian
        asym = np.max(np.abs(h - h.conj().transpose(0, 2, 1)))
        assert asym <= 1e-12 * max(1.0, np.max(np.abs(h)))


def test_hessian_determinant_is_real(all_examples):
    rng = np.random.default_rng(71)
    for p in all_examples.values():
        pts = random_points(rng, p.dim, 200, radius=2.0)
        scan = levi_scan(p, pts)
        assert np.max(
            np.abs(scan.det_hessian.imag) / np.maximum(1.0, np.abs(scan.det_hessian))
        ) < 1e-10


def test_hessian_matches_finite_differences(all_examples):
    rng = np.random.default_rng(73)
    for p in all_examples.values():
        pts = random_points(rng, p.dim, 15, radius=2.0)
        scan = levi_scan(p, pts)
        for i, z in enumerate(pts):
            for mu in range(p.dim):
                for nu in range(p.dim):
                    ref = scan.hessian[i, mu, nu]
                    fd = hessian_fd(p, z, mu, nu)
                    assert abs(fd - ref) <= 1e-5 * max(1.0, abs(ref))


# -- the batched jet against the term-by-term oracle ------------------------------------


@settings(deadline=None, max_examples=40)
@given(
    dim=st.integers(1, 8),
    pairs=st.integers(1, 6),
    count=st.sampled_from([0, 1, 7]),
    seed=st.integers(0, 2**32 - 1),
)
def test_jet_matches_term_by_term_oracle(dim, pairs, count, seed):
    rng = np.random.default_rng(seed)
    p = random_hermitian_potential(rng, dim=dim, pairs=pairs, max_exp=2)
    pts = random_points(rng, dim, count, radius=1.0)
    j = jet(p)
    comps = [j.rho, *j.grad, *(h for row in j.hessian for h in row)]
    rho, grad, hess = fields_at_many(p, pts)
    assert rho.shape == (count,) and grad.shape == (count, dim) and hess.shape == (count, dim, dim)
    for k, z in enumerate(pts):
        refs = [reference_evaluate(e, z) for e in comps]
        refs[0] = refs[0].real
        tols = [1e-12 * max(1.0, term_scale(e, z)) for e in comps]
        for r, g, h in ((rho[k], grad[k], hess[k]), fields_at(p, z)):
            for value, ref, tol in zip([r, *g, *h.ravel()], refs, tols):
                assert abs(value - ref) <= tol


def test_jet_row_does_not_depend_on_batch_size(quartic_mixed):
    # numpy sends a one-row product to BLAS gemv; on this grid gemv's sums
    # differ from gemm's in the last bit at about 800 entries
    pts = np.concatenate(list(real_grid(2, 6, 1.5)))
    batch = fields_at_many(quartic_mixed, pts)
    for size in (1, 2, 7):
        for start in range(0, len(pts), size):
            part = fields_at_many(quartic_mixed, pts[start : start + size])
            for got, want in zip(part, batch):
                assert got.tobytes() == want[start : start + size].tobytes()
