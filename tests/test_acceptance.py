"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from mafoliation import (
    Stratum,
    analyze_weights,
    burns_check,
    cr_scan,
    extended_gradient,
    flow_level_map_check,
    gradient_field,
    leaf_log_linearity,
    level_set_invariance,
    levi_data,
    ma_residual,
    rescale_to_level,
    theta_orbit_det_check,
    trace_leaf,
)
from mafoliation.cli import main
from mafoliation.levi import fields_at, levi_scan, log_levi_form, rank_identity
from mafoliation.sampling import real_grid, sample_domain
from helpers import hessian_fd


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_ball_identity(ball2, ball3):
    t0 = time.perf_counter()
    worst_ma = 0.0
    worst_z = 0.0
    for p in (ball2, ball3):
        rng = np.random.default_rng(2024)
        pts = sample_domain(p, 1000, 1.5, rng, min_rho=0.1)
        raw, _ = levi_scan(p, pts).ma[1:]
        worst_ma = max(worst_ma, float(raw.max()))
        z_field = gradient_field(p, pts)
        worst_z = max(worst_z, float(np.max(np.linalg.norm(z_field - pts, axis=1))))
    elapsed = time.perf_counter() - t0
    ok = worst_ma < 1e-10 and worst_z < 1e-12 and elapsed < 1.0
    report(
        1,
        "ball identity",
        ok,
        f"max ma={worst_ma:.2e} (<1e-10), max |Z-z|={worst_z:.2e} (<1e-12), {elapsed:.2f}s (<1s)",
    )


def test_criterion_02_weighted_example(weighted24):
    t0 = time.perf_counter()
    analysis = analyze_weights(weighted24)
    assert analysis.status == "ok"
    weight_err = float(np.max(np.abs(analysis.weights - np.array([1.0, 0.5]))))

    rng = np.random.default_rng(2025)
    pts = sample_domain(weighted24, 1500, 1.5, rng)
    scan = levi_scan(weighted24, pts)
    p_points = pts[scan.strata == Stratum.STRICTLY_PSH][:1000]
    assert len(p_points) == 1000
    raw, _ = levi_scan(weighted24, p_points).ma[1:]

    ext = extended_gradient(weighted24, [1, 0])
    ext_err = float(np.max(np.abs(ext.Z - np.array([1.0, 0.0]))))
    lin = float(np.max(np.linalg.norm(gradient_field(weighted24, p_points) - analysis.weights * p_points, axis=1)))
    elapsed = time.perf_counter() - t0
    ok = (
        weight_err < 1e-12
        and raw.max() < 1e-9
        and ext_err < 1e-8
        and lin < 1e-8
        and elapsed < 2.0
    )
    report(
        2,
        "weighted example",
        ok,
        f"weights err={weight_err:.2e} (<1e-12), max ma={raw.max():.2e} (<1e-9), "
        f"ext err={ext_err:.2e} (<1e-8), field={lin:.2e} (<1e-8), {elapsed:.2f}s (<2s)",
    )


def test_criterion_03_stratification_and_orbit(weighted24):
    s11 = levi_data(weighted24, [1, 1]).stratum
    s10 = levi_data(weighted24, [1, 0]).stratum
    orbit = theta_orbit_det_check(weighted24, [1, 0], t_max=5.0, steps=5000)
    ok = (
        s11 is Stratum.STRICTLY_PSH
        and s10 is Stratum.LOW_DEGENERACY
        and not orbit.skipped
        and orbit.max_abs_det < 1e-8
        and orbit.max_rho_drift < 1e-6
    )
    report(
        3,
        "stratification & orbit invariance",
        ok,
        f"stratum(1,1)={s11}, stratum(1,0)={s10}, max|D|={orbit.max_abs_det:.2e} (<1e-8), "
        f"max|rho-1|={orbit.max_rho_drift:.2e} (<1e-6)",
    )


def test_criterion_04_flow_laws(ball2, weighted24):
    worst_log = 0.0
    worst_level = 0.0
    t_grid = np.linspace(0.0, 2.0, 5)
    s_grid = np.linspace(0.0, 2 * np.pi, 9)
    for p, base in ((ball2, [1, 0]), (weighted24, [1, 1])):
        trace = trace_leaf(p, base, t_grid, s_grid)
        worst_log = max(worst_log, leaf_log_linearity(trace))
        worst_level = max(worst_level, level_set_invariance(trace))
    ok = worst_log < 1e-6 and worst_level < 1e-6
    report(
        4,
        "flow laws",
        ok,
        f"max |log rho - log rho0 - t|={worst_log:.2e} (<1e-6), "
        f"rho variation along s={worst_level:.2e} (<1e-6)",
    )


def test_criterion_05_holomorphy(ball2, weighted24, nonma):
    rng = np.random.default_rng(2026)
    pts_ball = sample_domain(ball2, 200, 1.5, rng, min_rho=1e-2)
    res_ball = cr_scan(ball2, pts_ball).max_residual

    pts_w = sample_domain(weighted24, 195, 1.5, rng, min_rho=1e-2)
    straddle = np.array(
        [[1, 0], [0.7, 5e-5], [1.2, 5e-5j], [0.5, 1e-4], [1, -5e-5]], dtype=complex
    )
    scan = cr_scan(weighted24, np.concatenate([pts_w, straddle]))
    res_w = scan.max_residual

    pts_bad = sample_domain(nonma, 200, 1.5, rng, min_rho=1e-2)
    res_bad = cr_scan(nonma, pts_bad).max_residual

    ok = res_ball < 1e-6 and res_w < 1e-6 and res_bad > 1e-2
    report(
        5,
        "holomorphy",
        ok,
        f"ball={res_ball:.2e} (<1e-6), weighted={res_w:.2e} (<1e-6, {len(scan.mixed_stratum_points)} "
        f"straddling stencils), counterexample={res_bad:.2e} (>1e-2)",
    )


def test_criterion_06_non_ma_detection(nonma):
    ma = ma_residual(nonma, [1, 1])
    rid = float(rank_identity(*fields_at(nonma, [1, 1])))
    analysis = analyze_weights(nonma)
    labels = (
        [eq.label for eq in analysis.inconsistent_subset]
        if analysis.inconsistent_subset
        else []
    )
    ok = (
        abs(ma - 1 / 27) < 1e-10
        and abs(rid - 1.0) < 1e-9
        and analysis.status == "infeasible"
        and labels == ["c1 = 1", "c2 = 1", "c1 + c2 = 1"]
    )
    report(
        6,
        "non-MA detection",
        ok,
        f"ma(1,1)={ma:.12f} (1/27 +- 1e-10), rank identity={rid:.9f} (1 +- 1e-9), "
        f"infeasible={{{', '.join(labels)}}}",
    )


def test_criterion_07_burns(square_norm, quartic_diag, quartic_mixed):
    grid = real_grid(2, 20, 1.5)
    t0 = time.perf_counter()
    rep_sq = burns_check(square_norm, grid)
    rep_qd = burns_check(quartic_diag, grid)
    rep_qm = burns_check(quartic_mixed, grid)
    elapsed = time.perf_counter() - t0
    positives_ok = (
        rep_sq.verdict
        and rep_qd.verdict
        and rep_sq.degree2k == 4
        and rep_qd.degree2k == 4
        and rep_sq.radial_field_residual < 1e-8
        and rep_qd.radial_field_residual < 1e-8
    )
    negative_ok = (
        not rep_qm.verdict
        and rep_qm.bidegree_mass.get((3, 1), 0) > 0
        and rep_qm.bidegree_mass.get((1, 3), 0) > 0
        and rep_qm.ma_max_scaled > 1e-3
        and rep_qm.worst_ma_point is not None
    )
    ok = positives_ok and negative_ok and elapsed < 5.0
    report(
        7,
        "burns positive/negative",
        ok,
        f"passes k=2 radial<1e-8: {positives_ok}; fail with (3,1)/(1,3) mass and scaled "
        f"ma={rep_qm.ma_max_scaled:.2e} (>1e-3) at grid point: {negative_ok}; {elapsed:.2f}s (<5s)",
    )


def test_criterion_08_derivative_oracles(all_examples):
    worst_fd = 0.0
    for p in all_examples.values():
        rng = np.random.default_rng(2027)
        pts = sample_domain(p, 100, 1.5, rng, min_rho=1e-6)
        scan = levi_scan(p, pts)
        for i in range(len(pts)):
            for mu in range(p.dim):
                for nu in range(p.dim):
                    ref = scan.hessian[i, mu, nu]
                    fd = hessian_fd(p, pts[i], mu, nu)
                    worst_fd = max(worst_fd, abs(fd - ref) / max(1.0, abs(ref)))
    worst_lemma = 0.0
    for p in all_examples.values():
        rng = np.random.default_rng(2028)
        pts = sample_domain(p, 1000, 1.5, rng, min_rho=1e-6)
        for z in pts:
            rho = p.evaluate(z).real
            lhs = float(rank_identity(*fields_at(p, z)))
            rhs = rho ** (p.dim + 1) * np.linalg.det(log_levi_form(*fields_at(p, z))).real
            worst_lemma = max(worst_lemma, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = worst_fd < 1e-5 and worst_lemma < 1e-9
    report(
        8,
        "derivative oracles",
        ok,
        f"hessian vs FD rel={worst_fd:.2e} (<1e-5), det-lemma={worst_lemma:.2e} (<1e-9)",
    )


def test_criterion_09_level_set_mapping(ball2, weighted24):
    worst = 0.0
    for p in (ball2, weighted24):
        rng = np.random.default_rng(2029)
        pts = sample_domain(p, 50, 1.5, rng, min_rho=1e-3)
        samples = np.array([rescale_to_level(p, z, 1.0) for z in pts])
        worst = max(worst, flow_level_map_check(p, 1.0, 2.0, samples))
    ok = worst < 1e-5
    report(9, "level-set mapping", ok, f"max relative miss={worst:.2e} (<1e-5)")


def test_criterion_10_determinism(tmp_path, capsys):
    from mafoliation.cli import bundled_corpus_dir

    corpus = bundled_corpus_dir()
    rc1 = main(["suite", str(corpus), "--samples", "150", "--out", str(tmp_path / "r1")])
    rc2 = main(["suite", str(corpus), "--samples", "150", "--out", str(tmp_path / "r2")])
    capsys.readouterr()
    b1 = (tmp_path / "r1" / "suite_summary.csv").read_bytes()
    b2 = (tmp_path / "r2" / "suite_summary.csv").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and b1 == b2
    with capsys.disabled():
        report(
            10,
            "determinism",
            ok,
            f"exit codes {rc1},{rc2}; CSVs byte-identical: {b1 == b2} ({len(b1)} bytes)",
        )
