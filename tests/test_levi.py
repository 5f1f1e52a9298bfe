import itertools
import math
import re

import numpy as np
import pytest

from mafoliation import (
    PolyPotential,
    Stratum,
    extended_gradient,
    levi_data,
    levi_scan,
    ma_residual,
    restricted_levi_eigen,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from mafoliation.levi import _check_inside, fields_at, fields_at_many, jet, log_levi_form, ma_from_fields, rank_identity
from mafoliation.sampling import real_grid, sample_domain
from helpers import (
    hessian_fd,
    one_row_jet_agrees,
    random_hermitian_potential,
    random_points,
    reference_evaluate,
    reference_levi_data,
    reference_one_row_jet,
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("z", [[math.nan, 0], [1, math.inf], [complex(0, -math.inf), 1], [complex(1, math.nan), 0]])
def test_a_point_with_a_non_finite_coordinate_is_refused(ball2, z):
    # NaN failed no domain test: levi_data read the stratum weak, ma_residual
    # returned nan, and the direct Z solve called the Hessian singular
    for entry in (levi_data, ma_residual, extended_gradient, fields_at):
        with pytest.raises(ValueError, match="point has a non-finite coordinate"):
            entry(ball2, z)
    with pytest.raises(ValueError, match="point has a non-finite coordinate"):
        ball2.evaluate(z)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_nan_row_of_a_scan_is_outside_the_domain(ball2):
    scan = levi_scan(ball2, np.array([[math.nan, 0], [1, 0], [0, 0], [1, math.nan]]))
    assert scan.strata.tolist() == [Stratum.OUTSIDE_DOMAIN, Stratum.STRICTLY_PSH] + [Stratum.OUTSIDE_DOMAIN] * 2


@pytest.mark.parametrize("rho, message", [
    ([1.0, 0.0], "rho(z) = 0.0 <= 0"), ([-2.5], "rho(z) = -2.5 <= 0"),
    ([1.0, math.nan], "rho(z) = nan is not finite"), ([-math.inf, 0.0], "rho(z) = -inf is not finite"),
])
def test_check_inside_names_the_first_value_outside(rho, message):
    # a NaN rho used to read "rho(z) = nan <= 0"
    with pytest.raises(ValueError, match=re.escape(f"{message}; outside the domain")):
        _check_inside(np.array(rho))
    _check_inside(np.array([1e-300, math.inf]))  # inside: rho > 0


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
        if ball2.evaluate(z).real > 1e-6:
            assert ma_residual(ball2, z) < 1e-12


def test_ma_residual_weighted_at_11(weighted24):
    assert ma_residual(weighted24, [1, 1]) < 1e-10


def test_ma_residual_nonma_value(nonma):
    # U = [[2/9, -1/9], [-1/9, 2/9]], det = 1/27
    u = log_levi_form(*fields_at(nonma, [1, 1]))
    assert np.allclose(u, [[2 / 9, -1 / 9], [-1 / 9, 2 / 9]], atol=1e-14)
    assert ma_residual(nonma, [1, 1]) == pytest.approx(1 / 27, abs=1e-12)


def _divided_levi_form(rho, grad, hess):
    """U = H/rho - g gbar^T / rho^2 by numpy's division, the reference of the
    float-view scaling in log_levi_form."""
    rho = np.asarray(rho)[..., None, None]
    return hess / rho - grad[..., :, None] * grad.conj()[..., None, :] / rho**2


def _random_fields(rng, rows, n, zero_share=0.2):
    """Complex gradients and Hessians with about zero_share of their real and
    imaginary parts exactly 0, and rho log-uniform on [1e-12, 1e12]."""
    grad = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
    hess = rng.normal(size=(rows, n, n)) + 1j * rng.normal(size=(rows, n, n))
    for parts in (grad.view(float), hess.view(float)):
        parts[rng.random(parts.shape) < zero_share] = 0.0
    return 10.0 ** rng.uniform(-12, 12, size=rows), grad, hess


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_log_levi_form_equals_numpy_division(n):
    """Scaling the float views by 1/rho and 1/rho^2 gives numpy's complex
    division by a real rho value for value (np.array_equal: a zero part may
    change sign), on stacks and on one point."""
    rng = np.random.default_rng(400 + n)
    rho, grad, hess = _random_fields(rng, 2000, n)
    u = log_levi_form(rho, grad, hess)
    assert u.dtype == complex
    assert np.array_equal(u, _divided_levi_form(rho, grad, hess))
    assert np.array_equal(log_levi_form(float(rho[3]), grad[3], hess[3]), u[3])


def test_log_levi_form_takes_real_arrays():
    """Real gradients and Hessians give a complex U equal to the division of
    the same values as complex arrays. numpy's real division rounds the
    quotient itself, so U may differ from the real-dtype division by the last
    bits of its two terms."""
    rng = np.random.default_rng(409)
    rho, grad, hess = _random_fields(rng, 500, 3)
    grad, hess = grad.real.copy(), hess.real.copy()
    u = log_levi_form(rho, grad, hess)
    assert u.dtype == complex and not u.imag.any()
    assert np.array_equal(u, _divided_levi_form(rho, grad.astype(complex), hess.astype(complex)))
    r = rho[:, None, None]
    terms = np.abs(hess) / r + np.abs(grad[:, :, None] * grad[:, None, :]) / r**2
    assert np.all(np.abs(u.real - _divided_levi_form(rho, grad, hess)) <= 4.5e-16 * terms)


def test_ma_from_fields_is_the_division_bit_for_bit(bundled_and_generated):
    """raw and scaled |det U| of the scaled Levi form are those of numpy's
    division, bit for bit, on the jets of every bundled and generated input."""
    rng = np.random.default_rng(411)
    for name, p in bundled_and_generated.items():
        rho, grad, hess = fields_at_many(p, sample_domain(p, 300, 1.5, rng))
        u = _divided_levi_form(rho, grad, hess)
        raw = np.abs(np.linalg.det(u))
        scaled = raw / np.maximum(1.0, np.linalg.norm(u, axis=(1, 2))) ** p.dim
        _, got_raw, got_scaled = ma_from_fields(rho, grad, hess)
        assert np.array_equal(got_raw.view(np.int64), raw.view(np.int64)), name
        assert np.array_equal(got_scaled.view(np.int64), scaled.view(np.int64)), name


def test_ma_residual_requires_positive_rho(nonma):
    with pytest.raises(ValueError, match="rho"):
        ma_residual(nonma, [0, 0])


def test_ma_residual_is_the_one_row_ma_scan(bundled_and_generated):
    # the scalar residual is its batched row bit for bit wherever the jet
    # rows agree (every row under one BLAS thread)
    rng = np.random.default_rng(1313)
    for name, p in bundled_and_generated.items():
        pts = sample_domain(p, 300, 1.5, rng)
        raw, _ = levi_scan(p, pts).ma[1:]
        agrees = one_row_jet_agrees(p, pts)
        for z, want in zip(pts[agrees], raw[agrees]):
            assert ma_residual(p, z) == want, name


def test_ma_examples_satisfy_equation(ma_examples):
    rng = np.random.default_rng(43)
    for p in ma_examples.values():
        pts = sample_domain(p, 300, 1.5, rng, min_rho=1e-3)
        raw, _ = levi_scan(p, pts).ma[1:]
        assert raw.max() < 1e-9


# -- rank identity ------------------------------------------------------------------


def test_rank_identity_ball(ball2):
    # rho detH = 2, gbar^T adj(H) g = 2
    assert float(rank_identity(*fields_at(ball2, [1, 1]))) == pytest.approx(0.0, abs=1e-12)


def test_rank_identity_nonma(nonma):
    # 3*3 - 8 = 1 with adj(H) = [[2,-1],[-1,2]], g = (2,2)
    assert float(rank_identity(*fields_at(nonma, [1, 1]))) == pytest.approx(1.0, abs=1e-9)


_GAUSSIAN_INTEGER = st.builds(complex, st.integers(-8, 8), st.integers(-8, 8))


def _gaussian_integers(data, count):
    return np.array(data.draw(st.lists(_GAUSSIAN_INTEGER, min_size=count, max_size=count)), dtype=complex)


def _leibniz_det(b):
    """Exact determinant of a small matrix of Gaussian integers: every
    product and sum stays an integer below 2^53, so Python's complex
    arithmetic makes no rounding."""
    n = len(b)
    total = 0j
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(b[i][perm[i]] for i in range(n))
    return total


@settings(deadline=None, max_examples=200)
@given(n=st.integers(1, 4), rank=st.integers(0, 4), rho=st.integers(-8, 8), data=st.data())
def test_rank_identity_matches_exact_bordered_determinant(n, rank, rho, data):
    # H is Hermitian with Gaussian-integer entries: a full one, or A A* of rank < n
    if rank < n:
        a = _gaussian_integers(data, n * rank).reshape(n, rank)
        hess = a @ a.conj().T
    else:
        upper = np.triu(_gaussian_integers(data, n * n).reshape(n, n), 1)
        hess = upper + upper.conj().T + np.diag(_gaussian_integers(data, n).real)
    grad = _gaussian_integers(data, n)
    bordered = np.block([[np.array([[rho]]), grad.conj()[None, :]], [grad[:, None], hess]])
    exact = _leibniz_det(bordered.tolist())
    assert exact.imag == 0 and exact.real == round(exact.real)  # the oracle made no rounding
    hadamard = np.prod(np.linalg.norm(bordered, axis=1))
    assert abs(float(rank_identity(float(rho), grad, hess)) - exact.real) <= 1e-12 * hadamard


def test_batched_rank_identity_matches_pointwise():
    rng = np.random.default_rng(61)
    p = random_hermitian_potential(rng, dim=4, pairs=6, max_exp=2)
    pts = random_points(rng, 4, 25, radius=1.0)  # rho of either sign
    rho, grad, hess = fields_at_many(p, pts)
    batched = rank_identity(rho, grad, hess)
    rhs = rho ** (p.dim + 1) * np.linalg.det(log_levi_form(rho, grad, hess)).real
    scale = np.maximum(1.0, np.abs(rhs))
    assert np.all(np.abs(batched - rhs) < 1e-9 * scale)
    for k, z in enumerate(pts):
        assert abs(batched[k] - float(rank_identity(*fields_at(p, z)))) <= 1e-12 * scale[k]


def test_determinant_lemma_equivalence(all_examples):
    rng = np.random.default_rng(53)
    for p in all_examples.values():
        pts = sample_domain(p, 200, 1.5, rng, min_rho=1e-6)
        for z in pts:
            rho = p.evaluate(z).real
            lhs = float(rank_identity(*fields_at(p, z)))
            rhs = rho ** (p.dim + 1) * np.linalg.det(log_levi_form(*fields_at(p, z))).real
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_rank_identity_vanishes_where_ma_does(weighted24):
    rng = np.random.default_rng(59)
    for z in sample_domain(weighted24, 100, 1.5, rng, min_rho=1e-3):
        rho = weighted24.evaluate(z).real
        assert abs(float(rank_identity(*fields_at(weighted24, z)))) < rho ** 3 * 1e-10 + 1e-10


# -- restricted Levi eigenvalues ------------------------------------------------------


def test_restricted_eigen_ball_is_one_over_rho(ball2):
    rng = np.random.default_rng(61)
    for z in random_points(rng, 2, 20):
        rho = ball2.evaluate(z).real
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
    comps = jet(p)
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


def _zero_coordinate_points(rng, dim):
    """The origin (with either sign of zero) and, for each coordinate, points
    where it is exactly 0 or -0."""
    out = [np.zeros(dim, dtype=complex), np.full(dim, complex(-0.0, -0.0))]
    for j in range(dim):
        for zero in (0j, complex(-0.0, 0.0), complex(0.0, -0.0)):
            z = random_points(rng, dim, 1)[0]
            z[j] = zero
            out.append(z)
    return np.array(out)


def test_one_row_jet_is_the_doubled_row_reference(bundled_and_generated):
    # the one-gather row against the factor loop on the doubled row, both on
    # one row: the rows of a large batch can differ under a threaded BLAS
    rng = np.random.default_rng(1212)
    degenerate = random_points(rng, 2, 100)
    degenerate[:, 1] = 0  # weighted24's degenerate set {z2 = 0}
    for name, p in bundled_and_generated.items():
        pts = [random_points(rng, p.dim, 300), _zero_coordinate_points(rng, p.dim)]
        if name == "weighted24":
            pts.append(degenerate)
        for z in np.concatenate(pts):
            got = fields_at_many(p, z[None])
            want = reference_one_row_jet(p, z[None])
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), (name, z)
