import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mafoliation import (
    PolyPotential,
    analyze_weights,
    default_lambda_samples,
    flow_level_map_check,
    linear_field_agreement,
    ma_residual,
    rescale_to_level,
    verify_weights,
)
from mafoliation.cli import bundled_corpus_dir
from mafoliation.homogeneity import weight_equations
from mafoliation.potential import parse_potential_file
from mafoliation.sampling import sample_domain
from helpers import generated_potentials


def test_find_weights_weighted(weighted24):
    analysis = analyze_weights(weighted24)
    assert analysis.status == "ok"
    assert np.allclose(analysis.weights, [1.0, 0.5], atol=1e-12)
    assert analysis.unique


def test_find_weights_square_norm(square_norm):
    analysis = analyze_weights(square_norm)
    assert analysis.status == "ok"
    assert np.allclose(analysis.weights, [0.5, 0.5], atol=1e-12)
    assert analysis.unique


def test_analyze_weights_residual_is_exact(bundled_and_generated):
    # 0 when feasible; |r| > 0, with r the constant of the certificate's
    # combination that cancels every c_j, when infeasible
    for name, p in bundled_and_generated.items():
        analysis = analyze_weights(p)
        if analysis.status == "infeasible":
            assert analysis.residual > 0, name
            assert analysis.residual == _certificate_constant(analysis.inconsistent_subset), name
        else:
            assert analysis.residual == 0.0, name


# -- exact elimination against a float reference ------------------------------
#
# On small integer matrices the float least-squares residual and matrix_rank
# are reliable, so they serve as an independent reference.

_REF_TOL = 1e-9


def _float_feasible(rows):
    if not rows:  # the empty system
        return True, None
    a = np.array(rows, dtype=float)
    sol = np.linalg.lstsq(a, np.ones(len(rows)), rcond=None)[0]
    return float(np.max(np.abs(a @ sol - 1), initial=0.0)) <= _REF_TOL, sol


def _certificate_constant(subset):
    """|r| of the combination of the equations that cancels every c_j, with
    the last equation's coefficient 1, solved in floats."""
    m = np.array([eq.coeffs for eq in subset], dtype=float)
    lam = np.linalg.lstsq(m[:-1].T, -m[-1], rcond=None)[0]
    assert np.allclose(m[-1] + lam @ m[:-1], 0, atol=_REF_TOL)
    return pytest.approx(abs(1 + lam.sum()), rel=1e-9)


def _diagonal_potential(dim, rows):
    """sum of |z^a|^2 over the rows a: its weight equations are the distinct rows."""
    return PolyPotential(dim, {(tuple(a), tuple(a)): 1 for a in rows})


@st.composite
def _exponent_systems(draw):
    dim = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=dim, max_size=dim), min_size=1, max_size=8))
    return dim, rows


@settings(deadline=None, max_examples=150)
@given(_exponent_systems())
def test_exact_weights_match_the_float_reference(system):
    dim, rows = system
    analysis = analyze_weights(_diagonal_potential(dim, rows))
    eq_rows = [eq.coeffs for eq in analysis.equations]
    feasible, sol = _float_feasible(eq_rows)
    assert (analysis.status != "infeasible") == feasible
    if feasible:
        assert analysis.unique == (np.linalg.matrix_rank(np.array(eq_rows)) == dim)
        assert np.allclose(analysis.weights, sol, atol=_REF_TOL)
        assert analysis.residual == 0.0
        return
    subset = [eq.coeffs for eq in analysis.inconsistent_subset]
    assert set(subset) <= set(eq_rows)
    assert len(subset) <= np.linalg.matrix_rank(np.array(eq_rows)) + 1
    assert not _float_feasible(subset)[0]
    # irreducible: every proper subset is consistent
    for k in range(len(subset)):
        assert _float_feasible(subset[:k] + subset[k + 1:])[0]
    assert analysis.residual == _certificate_constant(analysis.inconsistent_subset)


@settings(deadline=None, max_examples=60)
@given(_exponent_systems(), st.data())
def test_weights_permute_with_the_coordinates(system, data):
    dim, rows = system
    perm = data.draw(st.permutations(range(dim)))
    analysis = analyze_weights(_diagonal_potential(dim, rows))
    moved = analyze_weights(_diagonal_potential(dim, [[a[perm[j]] for j in range(dim)] for a in rows]))
    assert (moved.status, moved.unique) == (analysis.status, analysis.unique)
    if analysis.weights is not None:
        assert np.array_equal(moved.weights, analysis.weights[perm])


@pytest.mark.parametrize("seed", range(1, 21))
def test_generated_weights_are_exact(seed):
    for name, p in generated_potentials(seed).items():
        analysis = analyze_weights(p)
        if name.startswith("chain"):
            assert analysis.status == "infeasible"
            assert len(analysis.inconsistent_subset) <= p.dim + 1
            continue
        # weighted: one term |z_j|^(2 d_j) per j, weight 1/d_j; normsq: 1/2
        degree = {a.index(max(a)): max(a) for a, _ in p.terms}
        expected = [1 / degree[j] for j in range(p.dim)] if name.startswith("weighted") else [0.5] * p.dim
        assert analysis.status == "ok" and analysis.unique, name
        assert analysis.weights.tolist() == expected, name


def test_find_weights_nonma_infeasible(nonma):
    assert analyze_weights(nonma).status == "infeasible"


def test_nonma_inconsistent_equations(nonma):
    analysis = analyze_weights(nonma)
    assert analysis.status == "infeasible"
    labels = [eq.label for eq in analysis.inconsistent_subset]
    assert labels == ["c1 = 1", "c2 = 1", "c1 + c2 = 1"]


def test_weight_equations_deduplicate(weighted24):
    eqs = weight_equations(weighted24)
    assert [eq.coeffs for eq in eqs] == [(1, 0), (0, 2)]


def test_underdetermined_weights_flagged_nonunique():
    # |z1 z2|^2: single equation c1 + c2 = 1, minimum-norm solution (1/2, 1/2)
    p = PolyPotential(2, {((1, 1), (1, 1)): 1})
    analysis = analyze_weights(p)
    assert analysis.status == "ok"
    assert not analysis.unique
    assert np.allclose(analysis.weights, [0.5, 0.5], atol=1e-12)


def test_nonpositive_weights_reported():
    # |z1|^2 alone in C^2: c1 = 1, c2 free; minimum-norm gives c2 = 0
    p = PolyPotential(2, {((1, 0), (1, 0)): 1})
    analysis = analyze_weights(p)
    assert analysis.status == "not_positive"


# -- verification ----------------------------------------------------------------


def test_verify_weights_weighted(weighted24):
    rng = np.random.default_rng(139)
    pts = sample_domain(weighted24, 50, 1.5, rng, min_rho=1e-3)
    res = verify_weights(weighted24, np.array([1.0, 0.5]), pts, [1.0, 1j, 1 + 1j])
    assert res < 1e-10


def test_verify_weights_ball(ball2):
    rng = np.random.default_rng(149)
    pts = sample_domain(ball2, 50, 1.5, rng, min_rho=1e-3)
    assert verify_weights(ball2, np.array([1.0, 1.0]), pts, [1.0, 1j]) < 1e-12


def test_verify_weights_detects_wrong_weights(nonma):
    # rho(e z) = 2 e^2 + e^4 differs from e^2 rho(z) = 3 e^2 at (1,1)
    res = verify_weights(
        nonma, np.array([1.0, 1.0]), np.array([[1, 1]], dtype=complex), [1.0]
    )
    assert res > 0.1


def test_imaginary_lambda_detects_asymmetry(quartic_mixed):
    # the (3,1)/(1,3) terms scale correctly under real lambda with c = (1/2, 1/2)
    # but not under imaginary lambda; real-only sampling would wrongly accept
    z = np.array([[1, 1]], dtype=complex)
    c = np.array([0.5, 0.5])
    assert verify_weights(quartic_mixed, c, z, [1.0, 0.5]) < 1e-12
    assert verify_weights(quartic_mixed, c, z, [1j]) > 0.1


def test_weight_soundness(ma_examples):
    rng = np.random.default_rng(151)
    for p in ma_examples.values():
        analysis = analyze_weights(p)
        assert analysis.status == "ok"
        pts = sample_domain(p, 100, 1.5, rng, min_rho=1e-3)
        assert verify_weights(p, analysis.weights, pts, default_lambda_samples()) < 1e-9


def test_weights_imply_ma(ma_examples):
    rng = np.random.default_rng(157)
    for p in ma_examples.values():
        if analyze_weights(p).status != "ok":
            continue
        pts = sample_domain(p, 100, 1.5, rng, min_rho=1e-2)
        for z in pts:
            assert ma_residual(p, z) < 1e-9


def test_weights_imply_linear_field(ma_examples):
    rng = np.random.default_rng(163)
    for p in ma_examples.values():
        analysis = analyze_weights(p)
        pts = sample_domain(p, 100, 1.5, rng, min_rho=1e-3)
        assert linear_field_agreement(p, analysis.weights, pts) < 1e-8


def test_linear_field_agreement_examples(ball2, weighted24, square_norm):
    rng = np.random.default_rng(167)
    pts_b = sample_domain(ball2, 50, 1.5, rng, min_rho=1e-2)
    assert linear_field_agreement(ball2, np.array([1.0, 1.0]), pts_b) < 1e-12
    pts_w = sample_domain(weighted24, 50, 1.5, rng, min_rho=1e-2)
    assert linear_field_agreement(weighted24, np.array([1.0, 0.5]), pts_w) < 1e-9
    pts_s = sample_domain(square_norm, 50, 1.5, rng, min_rho=1e-2)
    assert linear_field_agreement(square_norm, np.array([0.5, 0.5]), pts_s) < 1e-9


# -- level set mapping ---------------------------------------------------------


def _level_samples(p, r, count, seed):
    rng = np.random.default_rng(seed)
    pts = sample_domain(p, count, 1.5, rng, min_rho=1e-3)
    return np.array([rescale_to_level(p, z, r) for z in pts])


def test_rescale_to_level(weighted24):
    samples = _level_samples(weighted24, 1.0, 20, 173)
    values = np.array([weighted24.evaluate(z).real for z in samples])
    assert np.max(np.abs(values - 1.0)) < 1e-10


@pytest.mark.parametrize("name", sorted(f.stem for f in bundled_corpus_dir().glob("*.pot")))
def test_rescale_to_level_lands_on_every_bundled_potential(name):
    p = parse_potential_file(bundled_corpus_dir() / f"{name}.pot")
    for k, r in enumerate((1e-3, 1.0, 1e3)):
        pts = sample_domain(p, 50, 1.5, np.random.default_rng(197 + k), min_rho=1e-3)
        values = p.evaluate_many(np.array([rescale_to_level(p, z, r) for z in pts])).real
        assert np.max(np.abs(values - r)) <= 1e-13 * max(1.0, r)


def test_rescale_to_level_refusals(ball2):
    with pytest.raises(ValueError, match=r"need rho\(z\) > 0"):
        rescale_to_level(ball2, [0, 0], 1.0)
    # rho(2^80 z) is about 1e48 here, far below the level
    with pytest.raises(ValueError, match="could not bracket the level set from above"):
        rescale_to_level(ball2, [1, 0], 1e300)
    # 1 + |z|^2 stays above 1/2 along every ray
    shifted = PolyPotential(2, {((0, 0), (0, 0)): 1, ((1, 0), (1, 0)): 1, ((0, 1), (0, 1)): 1})
    with pytest.raises(ValueError, match="could not bracket the level set from below"):
        rescale_to_level(shifted, [1, 0], 0.5)
    # rho = |z1|^2 - |z2|^4 is inf - inf = NaN at this finite point, which is
    # outside the domain (it used to fail to bracket from above); numpy would
    # warn about the overflow
    indefinite = PolyPotential(2, {((1, 0), (1, 0)): 1, ((0, 2), (0, 2)): -1})
    with pytest.raises(ValueError, match=r"need rho\(z\) > 0"), np.errstate(over="ignore", invalid="ignore"):
        rescale_to_level(indefinite, [1e200, 1e100], 1.0)


def test_flow_level_map_ball(ball2):
    samples = _level_samples(ball2, 1.0, 25, 179)
    assert flow_level_map_check(ball2, 1.0, np.e, samples) < 1e-6


def test_flow_level_map_weighted(weighted24):
    samples = _level_samples(weighted24, 1.0, 25, 181)
    assert flow_level_map_check(weighted24, 1.0, 2.0, samples) < 1e-5


def test_flow_level_map_identity(weighted24):
    samples = _level_samples(weighted24, 1.0, 10, 191)
    assert flow_level_map_check(weighted24, 1.0, 1.0, samples) < 1e-12


def test_flow_level_map_validates_samples(ball2):
    off_level = np.array([[2.0, 0.0]], dtype=complex)  # rho = 4, not 1
    with pytest.raises(ValueError, match="level set"):
        flow_level_map_check(ball2, 1.0, 2.0, off_level)
