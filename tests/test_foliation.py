import numpy as np
import pytest

from mafoliation import (
    IntegratorConfig,
    Stratum,
    evaluate,
    flow_level_map_check,
    flow_point,
    leaf_log_linearity,
    leaf_stratum_invariance,
    level_set_invariance,
    rescale_to_level,
    trace_leaf,
)
from mafoliation.foliation import DEFAULT_STEP, rk4_segment
from mafoliation.gradient import RealFieldKind
from mafoliation.sampling import sample_domain


@pytest.fixture(scope="module")
def ball_trace(ball2):
    t = np.linspace(0.0, 2.0, 5)
    s = np.linspace(0.0, 2 * np.pi, 9)
    return trace_leaf(ball2, [1, 0], t, s)


@pytest.fixture(scope="module")
def weighted_trace(weighted24):
    t = np.linspace(0.0, 2.0, 5)
    s = np.linspace(0.0, 2 * np.pi, 9)
    return trace_leaf(weighted24, [1, 1], t, s)


def test_ball_trace_matches_closed_form(ball_trace):
    # node(t, s) = (e^{(t+is)/2}, 0) and rho = e^t
    for it, t in enumerate(ball_trace.t_values):
        for isx, s in enumerate(ball_trace.s_values):
            expected = np.array([np.exp((t + 1j * s) / 2), 0.0])
            assert np.allclose(ball_trace.points[it, isx], expected, atol=1e-6)
            assert ball_trace.rho[it, isx] == pytest.approx(np.exp(t), rel=1e-6)


def test_weighted_trace_preserves_z1_zero(weighted24):
    t = np.linspace(0.0, 2.0, 5)
    s = np.linspace(0.0, 2 * np.pi, 9)
    trace = trace_leaf(weighted24, [0, 1], t, s)
    assert np.max(np.abs(trace.points[:, :, 0])) == 0.0
    for it, tv in enumerate(trace.t_values):
        assert np.allclose(trace.rho[it], np.exp(tv), rtol=1e-6)


def test_single_node_trace(weighted24):
    trace = trace_leaf(weighted24, [1, 1], [0.0], [0.0])
    assert trace.points.shape == (1, 1, 2)
    assert np.allclose(trace.points[0, 0], [1, 1])
    assert leaf_log_linearity(trace) == pytest.approx(0.0, abs=1e-14)
    assert level_set_invariance(trace) == 0.0


def test_trace_outside_domain(weighted24):
    with pytest.raises(ValueError, match="rho"):
        trace_leaf(weighted24, [0, 0], [0.0, 1.0], [0.0])


def test_base_node_equals_base(ball_trace):
    it0 = int(np.argmin(np.abs(ball_trace.t_values)))
    is0 = int(np.argmin(np.abs(ball_trace.s_values)))
    assert np.allclose(ball_trace.points[it0, is0], ball_trace.base, atol=1e-14)


def test_rho_positive_on_all_nodes(ball_trace, weighted_trace):
    assert np.all(ball_trace.rho > 0)
    assert np.all(weighted_trace.rho > 0)


# -- diagnostics -------------------------------------------------------------


def test_log_linearity(ball_trace, weighted_trace):
    assert leaf_log_linearity(ball_trace) < 1e-6
    assert leaf_log_linearity(weighted_trace) < 1e-6


def test_level_set_invariance(ball_trace, weighted_trace):
    assert level_set_invariance(ball_trace) < 1e-8
    assert level_set_invariance(weighted_trace) < 1e-6


def test_stratum_invariance_full_rank_leaf(weighted_trace):
    report = leaf_stratum_invariance(weighted_trace)
    assert report.passed
    assert report.base_stratum is Stratum.STRICTLY_PSH
    assert report.violations == []


def test_stratum_invariance_degenerate_leaf(weighted24):
    trace = trace_leaf(
        weighted24, [1, 0], np.linspace(0, 1, 3), np.linspace(0, np.pi, 5)
    )
    report = leaf_stratum_invariance(trace)
    assert report.passed
    assert report.base_stratum is Stratum.LOW_DEGENERACY


def test_stratum_invariance_ball(ball_trace):
    report = leaf_stratum_invariance(ball_trace)
    assert report.passed
    assert report.base_stratum is Stratum.STRICTLY_PSH


# -- integrator properties ------------------------------------------------------


def test_flow_composition(ball2):
    z0 = np.array([1.0, 0.5], dtype=complex)
    one_shot = flow_point(ball2, z0, 1.0, RealFieldKind.X)
    composed = flow_point(ball2, flow_point(ball2, z0, 0.5, RealFieldKind.X), 0.5, RealFieldKind.X)
    # identical step partition, so agreement is roundoff-level; 10x the per-step
    # tolerance h^4 is far looser
    assert np.max(np.abs(one_shot - composed)) < 10 * (1e-3) ** 4


def test_step_halving_fourth_order(ball2):
    z0 = np.array([1.0, 0.0], dtype=complex)
    exact = np.array([np.exp(1.0), 0.0])  # X flow for t=2: e^{t/2} z0
    err = {}
    for h in (0.1, 0.05):
        end = flow_point(ball2, z0, 2.0, RealFieldKind.X, step=h)
        err[h] = np.max(np.abs(end - exact))
    assert err[0.1] / err[0.05] >= 8.0


def test_exponential_growth_slope(ball_trace, weighted_trace):
    for trace in (ball_trace, weighted_trace):
        logr = np.log(trace.rho[:, 0])
        slope = np.polyfit(trace.t_values, logr, 1)[0]
        assert slope == pytest.approx(1.0, abs=1e-6)


def test_truncation_flag_on_small_box(ball2):
    cfg = IntegratorConfig(box_radius=1.5)
    trace = trace_leaf(ball2, [1, 0], np.linspace(0, 2, 5), [0.0], cfg)
    # e^{t/2} exceeds 1.5 before t = 2
    assert trace.truncated
    assert trace.t_values.max() < 2.0
    assert np.all(np.abs(trace.points.real) <= 1.5)


def test_truncation_keeps_prefix_common_to_all_columns(ball2):
    # node(t, s) = (e^{(t+is)/2}, 0): column s leaves the box [-1.5, 1.5]^2
    # once e^{t/2} max(|cos(s/2)|, |sin(s/2)|) > 1.5, so at different t per column
    box = 1.5
    t = np.linspace(0.0, 2.0, 9)
    s = np.array([0.0, np.pi / 2, 2 * np.pi / 3])  # first nodes outside: t = 1, 1.75, 1.25
    trace = trace_leaf(ball2, [1, 0], t, s, IntegratorConfig(box_radius=box))
    reach = np.exp(t[:, None] / 2) * np.maximum(np.abs(np.cos(s / 2)), np.abs(np.sin(s / 2)))
    inside = np.all(reach <= box, axis=1)
    expected_t = t[: int(np.argmin(inside))]
    assert trace.truncated
    assert np.array_equal(trace.t_values, expected_t)
    assert np.array_equal(trace.s_values, s)
    assert trace.points.shape == (len(expected_t), len(s), 2)
    assert np.all(np.abs(trace.points.real) <= box)
    assert np.all(np.abs(trace.points.imag) <= box)


def test_default_step_margin(ball2, weighted24):
    # accuracy at DEFAULT_STEP, three orders inside the 1e-6 and 1e-5 gates
    t = np.linspace(0.0, 2.0, 5)
    s = np.linspace(0.0, 2 * np.pi, 9)
    trace = trace_leaf(weighted24, [1, 1], t, s, IntegratorConfig(step=DEFAULT_STEP))
    assert leaf_log_linearity(trace) <= 1e-9
    for p in (ball2, weighted24):
        rng = np.random.default_rng(2029)
        pts = sample_domain(p, 50, 1.5, rng, min_rho=1e-3)
        samples = np.array([rescale_to_level(p, z, 1.0) for z in pts])
        assert flow_level_map_check(p, 1.0, 2.0, samples, step=DEFAULT_STEP) <= 1e-9


def test_y_flow_alone_preserves_rho(weighted24):
    z0 = np.array([1.0, 1.0], dtype=complex)
    rho0 = evaluate(weighted24, z0)
    end = flow_point(weighted24, z0, 2.0, RealFieldKind.Y)
    assert evaluate(weighted24, end) == pytest.approx(rho0, rel=1e-8)


def test_stratum_invariance_all_ma_examples(square_norm, quartic_diag):
    # short leaves on the homogeneous quartics; base points in the full-rank set
    t = np.linspace(0.0, 0.5, 3)
    s = np.linspace(0.0, np.pi, 5)
    for p in (square_norm, quartic_diag):
        trace = trace_leaf(p, [1, 0.5], t, s)
        report = leaf_stratum_invariance(trace)
        assert report.passed
        assert leaf_log_linearity(trace) < 1e-6


@pytest.mark.parametrize("step", [0.0, -0.01, np.inf, -np.inf, np.nan])
def test_rk4_rejects_a_step_that_is_not_finite_and_positive(ball2, step):
    with pytest.raises(ValueError, match="--step"):
        flow_point(ball2, [1, 0], 0.5, step=step)
    with pytest.raises(ValueError, match="--step"):
        rk4_segment(lambda z: z, np.ones(2), 0.0, step)
