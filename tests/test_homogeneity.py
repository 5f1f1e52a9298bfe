import numpy as np
import pytest

from mafoliation import (
    PolyPotential,
    analyze_weights,
    default_lambda_samples,
    evaluate,
    find_weights,
    flow_level_map_check,
    linear_field_agreement,
    ma_residual,
    rescale_to_level,
    verify_weights,
)
from mafoliation.cli import bundled_corpus_dir
from mafoliation import homogeneity
from mafoliation.homogeneity import WeightAnalysis, _lstsq_residual, weight_equations
from mafoliation.potential import parse_potential_file
from mafoliation.sampling import sample_domain


def test_find_weights_weighted(weighted24):
    wv = find_weights(weighted24)
    assert wv is not None
    assert np.allclose(wv.weights, [1.0, 0.5], atol=1e-12)
    assert wv.unique


def test_find_weights_square_norm(square_norm):
    wv = find_weights(square_norm)
    assert np.allclose(wv.weights, [0.5, 0.5], atol=1e-12)
    assert wv.unique


def test_find_weights_returns_the_analysis(weighted24):
    # one record: find_weights hands back analyze_weights' own result
    wv = find_weights(weighted24)
    assert isinstance(wv, WeightAnalysis) and wv.status == "ok"
    assert np.array_equal(wv.weights, analyze_weights(weighted24).weights)
    assert not hasattr(homogeneity, "WeightVector")


def test_analyze_weights_residual_is_the_lstsq_residual(bundled_and_generated):
    for name, p in bundled_and_generated.items():
        analysis = analyze_weights(p)
        sol, residual = _lstsq_residual([eq.coeffs for eq in analysis.equations])
        assert analysis.residual == residual, name
        if analysis.weights is not None:
            assert np.array_equal(analysis.weights, sol), name


def test_find_weights_nonma_infeasible(nonma):
    assert find_weights(nonma) is None


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
    wv = find_weights(p)
    assert not wv.unique


def test_nonpositive_weights_reported():
    # |z1|^2 alone in C^2: c1 = 1, c2 free; minimum-norm gives c2 = 0
    p = PolyPotential(2, {((1, 0), (1, 0)): 1})
    analysis = analyze_weights(p)
    assert analysis.status == "not_positive"
    assert find_weights(p) is None


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
        wv = find_weights(p)
        assert wv is not None
        pts = sample_domain(p, 100, 1.5, rng, min_rho=1e-3)
        assert verify_weights(p, wv, pts, default_lambda_samples()) < 1e-9


def test_weights_imply_ma(ma_examples):
    rng = np.random.default_rng(157)
    for p in ma_examples.values():
        if find_weights(p) is None:
            continue
        pts = sample_domain(p, 100, 1.5, rng, min_rho=1e-2)
        for z in pts:
            assert ma_residual(p, z) < 1e-9


def test_weights_imply_linear_field(ma_examples):
    rng = np.random.default_rng(163)
    for p in ma_examples.values():
        wv = find_weights(p)
        pts = sample_domain(p, 100, 1.5, rng, min_rho=1e-3)
        assert linear_field_agreement(p, wv, pts) < 1e-8


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
    values = np.array([evaluate(weighted24, z) for z in samples])
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
