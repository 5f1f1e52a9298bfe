import dataclasses
import os

import numpy as np
import pytest

from mafoliation import (
    Stratum,
    flow_level_map_check,
    flow_points,
    leaf_log_linearity,
    leaf_stratum_invariance,
    level_set_invariance,
    rescale_to_level,
    trace_leaf,
)
from mafoliation import gradient
from mafoliation.foliation import _sweep
from mafoliation.gradient import RealFieldKind, _direct_z, gradient_field, rk4_path
from mafoliation.levi import _batch_jet, fields_at_many, levi_scan
from mafoliation.sampling import sample_domain
from mafoliation.thresholds import DEFAULT_STEP
from helpers import generated_potentials, weighted_sum_potential


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


def test_trace_rows_are_one_levi_scan_of_all_nodes(ball3, weighted24, quartic_diag):
    """trace_leaf scans each t row on its own. Each row's rho, det H and
    strata equal those of one levi_scan of every node, bit for bit, wherever
    the row's jet equals that row of the whole jet: on every row under one
    BLAS thread, where no jet row depends on its batch; a threaded BLAS may
    sum the n = 8 products in another order by batch size."""
    one_thread = os.environ.get("OPENBLAS_NUM_THREADS") == "1"
    inputs = [(ball3, [1, 0.5 + 0.5j, 0.3 - 0.2j]), (weighted24, [1, 1]), (quartic_diag, [1, 0])]
    inputs += [(p, [0.4 + 0.1j] * 8) for name, p in generated_potentials(7).items() if name.endswith("n8")]
    for p, base in inputs:
        trace = trace_leaf(p, base, np.linspace(0.0, 0.5, 4), np.linspace(-1.0, 1.0, 9))
        nt, ns = trace.rho.shape
        nodes = trace.points.reshape(nt * ns, p.dim)
        whole, jet = levi_scan(p, nodes), fields_at_many(p, nodes)
        agree = []
        for row in range(nt):
            block = slice(row * ns, (row + 1) * ns)
            agree.append(all(np.array_equal(a[block], b) for a, b in zip(jet, fields_at_many(p, trace.points[row]))))
            if agree[-1]:
                assert trace.rho[row].tobytes() == whole.rho[block].tobytes()
                assert trace.det_hessian[row].tobytes() == whole.det_hessian[block].tobytes()
                assert list(trace.strata[row]) == list(whole.strata[block])
        assert all(agree) or not one_thread
        assert nt * ns == 36 and not trace.truncated


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


def test_stratum_invariance_reports_the_node_off_the_base_stratum(weighted_trace):
    # the check reads the strata stored with the trace: one node moved to
    # another stratum is the one violation, with that node's |det H|
    strata = weighted_trace.strata.copy()
    strata[2, 5] = Stratum.LOW_DEGENERACY
    report = leaf_stratum_invariance(dataclasses.replace(weighted_trace, strata=strata))
    assert not report.passed
    assert report.base_stratum is Stratum.STRICTLY_PSH
    assert report.violations == [(2, 5, Stratum.LOW_DEGENERACY, float(np.abs(weighted_trace.det_hessian)[2, 5]))]


def test_stratum_invariance_reports_the_abs_det_of_the_trace_csv(weighted_trace):
    # numpy's vectorized abs and Python's abs() of a complex scalar can round
    # |x| differently in the last bit when both parts are nonzero (they do on
    # this value with numpy's SIMD loop); the violation reports the trace
    # CSV's abs_detH, which is np.abs of the det H array
    strata, det = weighted_trace.strata.copy(), weighted_trace.det_hessian.copy()
    strata[2, 5] = Stratum.LOW_DEGENERACY
    det[2, 5] = 0.6404226504432821 + 0.19205435028986062j
    report = leaf_stratum_invariance(dataclasses.replace(weighted_trace, strata=strata, det_hessian=det))
    (violation,) = report.violations
    assert violation[:3] == (2, 5, Stratum.LOW_DEGENERACY)
    assert violation[3] == np.abs(det)[2, 5] == np.abs(det.ravel())[2 * det.shape[1] + 5]


def test_stratum_invariance_ball(ball_trace):
    report = leaf_stratum_invariance(ball_trace)
    assert report.passed
    assert report.base_stratum is Stratum.STRICTLY_PSH


# -- integrator properties ------------------------------------------------------


def test_flow_composition(ball2):
    z0 = np.array([[1.0, 0.5]], dtype=complex)
    one_shot = flow_points(ball2, z0, 1.0, RealFieldKind.X)
    composed = flow_points(ball2, flow_points(ball2, z0, 0.5, RealFieldKind.X), 0.5, RealFieldKind.X)
    # identical step partition, so agreement is roundoff-level; 10x the per-step
    # tolerance h^4 is far looser
    assert np.max(np.abs(one_shot - composed)) < 10 * (1e-3) ** 4


@pytest.mark.parametrize("kind", [RealFieldKind.X, RealFieldKind.Y])
@pytest.mark.parametrize("case", ["weighted24 (1, 1)", "weighted24 (1, 0)", "ball3", "|z1|^2 + |z2|^12"])
def test_one_row_flow_is_the_batched_field_flow(weighted24, ball3, case, kind):
    # a one-row batch is solved in buffers of its own; every stage must be
    # gradient_field's, on a directly solved row, on one that the direct
    # solve leaves to the least-squares Z, and on a jet whose power chain
    # skips powers. Both sides evaluate one doubled row on gemm, so this holds
    # under a threaded BLAS too
    p, z0 = {
        "weighted24 (1, 1)": (weighted24, [1, 1]),
        "weighted24 (1, 0)": (weighted24, [1, 0]),
        "ball3": (ball3, [0.3 + 0.2j, -0.4, 0.1j]),
        "|z1|^2 + |z2|^12": (weighted_sum_potential((1.0, 1.0), (1, 6)), [0.6, 0.5 + 0.3j]),
    }[case]
    z0 = np.array([z0], dtype=complex)
    assert _direct_z(*fields_at_many(p, z0)[1:])[1].size == (case == "weighted24 (1, 0)")
    assert min(_batch_jet(p)._chain) < 0 or case != "|z1|^2 + |z2|^12"
    mult = kind.multiplier
    want = next(rk4_path(lambda w: mult * gradient_field(p, w), z0, (0.5,), DEFAULT_STEP))
    assert flow_points(p, z0, 0.5, kind).tobytes() == want.tobytes()


def test_step_halving_fourth_order(ball2):
    z0 = np.array([[1.0, 0.0]], dtype=complex)
    exact = np.array([np.exp(1.0), 0.0])  # X flow for t=2: e^{t/2} z0
    err = {}
    for h in (0.1, 0.05):
        end = flow_points(ball2, z0, 2.0, RealFieldKind.X, step=h)[0]
        err[h] = np.max(np.abs(end - exact))
    assert err[0.1] / err[0.05] >= 8.0


def test_exponential_growth_slope(ball_trace, weighted_trace):
    for trace in (ball_trace, weighted_trace):
        logr = np.log(trace.rho[:, 0])
        slope = np.polyfit(trace.t_values, logr, 1)[0]
        assert slope == pytest.approx(1.0, abs=1e-6)


def test_default_step_margin(ball2, weighted24):
    # accuracy at DEFAULT_STEP, three orders inside the 1e-6 and 1e-5 gates
    t = np.linspace(0.0, 2.0, 5)
    s = np.linspace(0.0, 2 * np.pi, 9)
    trace = trace_leaf(weighted24, [1, 1], t, s, DEFAULT_STEP)
    assert leaf_log_linearity(trace) <= 1e-9
    for p in (ball2, weighted24):
        rng = np.random.default_rng(2029)
        pts = sample_domain(p, 50, 1.5, rng, min_rho=1e-3)
        samples = np.array([rescale_to_level(p, z, 1.0) for z in pts])
        assert flow_level_map_check(p, 1.0, 2.0, samples) <= 1e-9


def test_y_flow_alone_preserves_rho(weighted24):
    z0 = np.array([1.0, 1.0], dtype=complex)
    rho0 = weighted24.evaluate(z0).real
    end = flow_points(weighted24, z0.reshape(1, -1), 2.0, RealFieldKind.Y)[0]
    assert weighted24.evaluate(end).real == pytest.approx(rho0, rel=1e-8)


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
        flow_points(ball2, np.array([[1, 0]]), 0.5, step=step)
    with pytest.raises(ValueError, match="--step"):
        next(rk4_path(lambda z: z, np.ones(2), (0.0,), step))


@pytest.mark.parametrize("duration", [np.inf, -np.inf, np.nan])
def test_rk4_rejects_a_duration_that_is_not_finite(ball2, duration):
    with pytest.raises(ValueError, match="--t-max, --s-max"):
        flow_points(ball2, np.array([[1, 0]]), duration)


# -- the RK4 driver -------------------------------------------------------------


@pytest.mark.parametrize("kind", [RealFieldKind.X, RealFieldKind.Y])
@pytest.mark.parametrize("rows", [[[1.0, 0.5]], [[1, 1], [0.5 - 0.2j, 0.3j], [0.8, 0]]])
def test_rk4_path_yields_the_chained_flows(weighted24, kind, rows):
    # the state after each duration is that of one flow_points call per
    # duration, each starting where the last one ended
    z0 = np.array(rows, dtype=complex)
    mult = kind.multiplier
    first, second = rk4_path(lambda w: mult * gradient_field(weighted24, w), z0, (0.35, -0.6), DEFAULT_STEP)
    once = flow_points(weighted24, z0, 0.35, kind)
    assert first.tobytes() == once.tobytes()
    assert second.tobytes() == flow_points(weighted24, once, -0.6, kind).tobytes()


def test_rk4_path_zero_duration_yields_its_input_and_evaluates_nothing():
    calls = []

    def vel(w):
        calls.append(w)
        return 1j * w

    z0 = np.array([[1.0, 2.0j]])
    path = rk4_path(vel, z0, (0.0, 0.05, 0.0), 0.1)
    assert next(path).tobytes() == z0.tobytes()
    assert not calls
    moved = next(path)
    assert len(calls) == 4  # one RK4 step of 0.05
    assert next(path).tobytes() == moved.tobytes()
    assert len(calls) == 4


@pytest.mark.parametrize("step", [0.0, -0.01, np.inf, np.nan])
@pytest.mark.parametrize("durations", [(0.5, np.nan), ()])
def test_rk4_path_refuses_a_bad_step_before_any_duration(step, durations):
    calls = []
    with pytest.raises(ValueError, match="--step"):
        next(rk4_path(calls.append, np.ones(2), durations, step))
    assert not calls


def test_rk4_path_checks_each_duration_when_it_reaches_it():
    path = rk4_path(lambda w: -w, np.ones(2), (0.1, np.inf), 0.1)
    assert np.all(next(path) < 1)
    with pytest.raises(ValueError, match="--t-max, --s-max"):
        next(path)


def test_sweep_builds_one_row_stage_per_direction(ball2, monkeypatch):
    # each direction of the one-row s sweep is one integration with one stage,
    # whose nodes are those of one flow_points call per node interval
    built = []

    class CountedStage(gradient._RowStage):
        def __init__(self, p):
            built.append(p)
            super().__init__(p)

    z0 = np.array([[0.8, 0.3 - 0.1j]])
    values = np.linspace(-1.0, 1.5, 11)
    monkeypatch.setattr(gradient, "_RowStage", CountedStage)
    kept, points, truncated = _sweep(ball2, z0, values, RealFieldKind.Y, DEFAULT_STEP)
    assert len(built) == 2
    assert not truncated and kept.tobytes() == values.tobytes()
    for direction in (values[values >= 0], values[values < 0][::-1]):
        z, prev = z0, 0.0
        for v in direction:
            z = flow_points(ball2, z, v - prev, RealFieldKind.Y)
            prev = v
            assert points[np.flatnonzero(kept == v)[0]].tobytes() == z.tobytes()
