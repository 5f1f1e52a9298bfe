import ast
import math
import re
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

from mafoliation import (
    PolyPotential,
    cr_scan,
    extended_gradient,
    gradient_field,
    levi_data,
    theta_orbit_det_check,
)
from mafoliation import gradient, potential
from mafoliation.cli import ScanConfig, _analyze_scan
from mafoliation.gradient import (
    ORBIT_CHECK_BLOCK,
    RealFieldKind,
    _direct_z,
    _euler_residual,
    _linear_field_residual,
    _lstsq_rows,
    _solve_z,
    _system_ratio,
    _system_residual,
    flow_points,
)
from mafoliation.levi import Stratum, fields_at, fields_at_many
from mafoliation.sampling import sample_domain
from mafoliation.thresholds import DEFAULT_STEP, LSTSQ_RCOND, Z_SOLVE_TOL
from helpers import (
    one_row_jet_agrees,
    random_points,
    reference_cr_scan,
    reference_theta_orbit,
    weighted_sum_potential,
)

# sum_j a_j |z_j|^(2 d_j) on C^4: weights 1/d_j; degenerate where z_2, z_3 or z_4 is 0
N4_DEGREES = (1, 2, 3, 2)
WEIGHTED_N4 = weighted_sum_potential((1.0, 2.0, 0.5, 1.5), N4_DEGREES)
N4_DEGENERATE = [0.8 + 0.1j, 0.0, 0.6 - 0.3j, 0.5j]


# -- the complex gradient Z on rows the direct solve settles ----------------------


def test_complex_gradient_ball(ball2):
    g = extended_gradient(ball2, [1, 1j])
    assert np.allclose(g.Z, [1, 1j], atol=1e-14)
    assert g.method == "direct-solve"
    assert g.euler_residual < 1e-12


def test_complex_gradient_weighted(weighted24):
    g = extended_gradient(weighted24, [1, 1])
    assert g.method == "direct-solve"
    assert np.allclose(g.Z, [1, 0.5], atol=1e-12)


def test_complex_gradient_square_norm(square_norm):
    # radial field w/k with k = 2
    g = extended_gradient(square_norm, [1, 1])
    assert g.method == "direct-solve"
    assert np.allclose(g.Z, [0.5, 0.5], atol=1e-12)


def test_complex_gradient_outside_domain_raises(nonma):
    with pytest.raises(ValueError, match=r"rho\(z\) = 0.0 <= 0; outside the domain"):
        extended_gradient(nonma, [0, 0])


def test_extended_gradient_is_the_row_of_gradient_field(bundled_and_generated):
    # extended_gradient is row 0 of _solve_z on a one-row jet: where the jet
    # rows agree (every row under one BLAS thread) its Z is gradient_field's
    # row bit for bit, and its method is least squares exactly on the rows
    # that _direct_z leaves unsettled. A direct-solve Z is the plain solve of
    # H^T Z = conj(grad). The point (1, 0, ..., 0) is degenerate on weighted24
    # and on some generated potentials, so both branches are taken.
    rng = np.random.default_rng(2100)
    methods = set()
    for name, p in bundled_and_generated.items():
        pts = np.concatenate([sample_domain(p, 200, 1.5, rng), np.eye(1, p.dim, dtype=complex)])
        pts = pts[fields_at_many(p, pts)[0] > 0]
        _, grad, hess = fields_at_many(p, pts)
        batch = gradient_field(p, pts)
        unsettled = np.zeros(len(pts), dtype=bool)
        unsettled[_direct_z(grad, hess)[1]] = True
        for i in np.flatnonzero(one_row_jet_agrees(p, pts)):
            g = extended_gradient(p, pts[i])
            assert np.array_equal(g.Z, gradient_field(p, pts[i][None])[0]), name
            assert np.array_equal(g.Z, batch[i]), name
            assert g.method == ("least-squares-extension" if unsettled[i] else "direct-solve"), name
            methods.add(g.method)
            if g.method == "direct-solve":
                _, grad_i, hess_i = fields_at(p, pts[i])
                assert np.array_equal(g.Z, np.linalg.solve(hess_i.T, grad_i.conj())), name
    assert methods == {"direct-solve", "least-squares-extension"}


def test_solve_correctness(ma_examples):
    rng = np.random.default_rng(83)
    for p in ma_examples.values():
        pts = sample_domain(p, 100, 1.5, rng, min_rho=1e-3)
        for z in pts:
            _, grad, hess = fields_at(p, z)
            g = extended_gradient(p, z)
            if g.method != "direct-solve":
                continue
            gbar = grad.conj()
            res = np.linalg.norm(g.Z @ hess - gbar)
            assert res < 1e-10 * max(1.0, np.linalg.norm(gbar))


# -- extension ---------------------------------------------------------------


def test_extended_gradient_at_degenerate_point(weighted24):
    g = extended_gradient(weighted24, [1, 0])
    assert np.allclose(g.Z, [1, 0], atol=1e-8)
    assert g.method == "least-squares-extension"
    assert g.consistent


def test_extended_gradient_reduces_to_direct(ball2):
    g = extended_gradient(ball2, [1, 0])
    assert g.method == "direct-solve"
    assert np.allclose(g.Z, [1, 0], atol=1e-14)


def test_extended_gradient_continuity(weighted24):
    # closed form: Z = (z1, z2/2); error against the z2=0 value is |t|/2
    base = extended_gradient(weighted24, [1, 0]).Z
    for t in (1e-1, 1e-2, 1e-3, 1e-4):
        z = extended_gradient(weighted24, [1, t]).Z
        err = np.linalg.norm(z - base)
        assert err / t <= 1.0  # finite slope, here exactly 1/2
        assert np.allclose(z, [1, t / 2], atol=1e-10)


def test_extended_gradient_requires_positive_rho(weighted24):
    with pytest.raises(ValueError, match="rho"):
        extended_gradient(weighted24, [0, 0])


def test_extended_gradient_flags_inconsistent_system():
    # rho = |z1|^2 + z2^2 + zbar2^2: H = diag(1, 0) but rho_zbar2 = 2 z2 != 0
    p = PolyPotential(
        2, {((1, 0), (1, 0)): 1, ((0, 2), (0, 0)): 1, ((0, 0), (0, 2)): 1}
    )
    g = extended_gradient(p, [1, 1])
    assert not g.consistent
    assert g.system_residual > 0.1


def test_gradient_field_batch_matches_pointwise(ma_examples):
    rng = np.random.default_rng(97)
    for p in ma_examples.values():
        pts = sample_domain(p, 60, 1.5, rng, min_rho=1e-3)
        batch = gradient_field(p, pts)
        for i, z in enumerate(pts):
            assert np.allclose(batch[i], extended_gradient(p, z).Z, atol=1e-9)


def test_solve_z_falls_back_on_one_inconsistent_row_among_clean_rows(weighted24):
    # a nonsingular H^T with condition 2e13: its direct solve misses conj(grad) by 4e-4
    _, grad, hess = fields_at_many(weighted24, np.array([[0.6, 0.3], [0.2 + 0.5j, 0.9], [0.4, -0.7]]))
    u, v = np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2)
    bad_h = 2 * np.outer(u, u.conj()) + 1e-13 * np.outer(v, v.conj())
    bad_gbar = np.array([0.3 + 0.1j, 0.7])
    assert np.linalg.norm(bad_h.T @ np.linalg.solve(bad_h.T, bad_gbar) - bad_gbar) > 1e3 * Z_SOLVE_TOL
    z, fallback = _solve_z(np.vstack([grad, bad_gbar.conj()]), np.concatenate([hess, bad_h[None]]))
    assert fallback.tolist() == [3]
    assert np.array_equal(z[3], np.linalg.lstsq(bad_h.T, bad_gbar, rcond=LSTSQ_RCOND)[0])
    assert np.array_equal(z[:3], np.linalg.solve(hess.transpose(0, 2, 1), grad.conj()[..., None])[..., 0])


def _hessian_stack(rng, n, rank, scale, count):
    """count complex (n, n) matrices of the given rank, entries near scale:
    Hermitian positive semidefinite ones (Levi forms) and general ones."""
    a = rng.normal(size=(count, n, rank)) + 1j * rng.normal(size=(count, n, rank))
    b = rng.normal(size=(count, rank, n)) + 1j * rng.normal(size=(count, rank, n))
    herm = a @ a.conj().transpose(0, 2, 1)
    return scale * np.concatenate([herm, a @ b])


@pytest.mark.parametrize("n", range(1, 9))
def test_lstsq_rows_is_the_public_lstsq_bit_for_bit(n):
    # one stacked LAPACK call equals the public lstsq row by row, on full,
    # deficient and zero rank and at extreme scales of H and of conj(grad)
    rng = np.random.default_rng(1500 + n)
    for rank in range(n + 1):
        # at 1e200 the entries are finite but their squares overflow: the
        # finiteness guard's one reduction fails and the per-row test decides
        for h_scale in (1e-150, 1e-8, 1.0, 1e8, 1e150, 1e200):
            for g_scale in (1e-150, 1.0, 1e150):
                hess = _hessian_stack(rng, n, rank, h_scale, 3)
                grad = g_scale * (rng.normal(size=(len(hess), n)) + 1j * rng.normal(size=(len(hess), n)))
                got = _lstsq_rows(grad, hess)
                want = np.array([np.linalg.lstsq(h.T, g.conj(), rcond=LSTSQ_RCOND)[0] for g, h in zip(grad, hess)])
                assert got.shape == grad.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (rank, h_scale, g_scale)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lstsq_rows_raises_on_a_non_finite_hessian(bad):
    hess = np.repeat(np.eye(2, dtype=complex)[None], 3, axis=0)
    hess[1, 0, 1] = bad
    grad = np.ones((3, 2), dtype=complex)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        np.linalg.lstsq(hess[1].T, grad[1].conj(), rcond=LSTSQ_RCOND)
    with pytest.raises(np.linalg.LinAlgError, match="non-finite Hessian in row 1 "):
        _lstsq_rows(grad, hess)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lstsq_rows_keeps_lapack_text_off_stdout(bad, capfd):
    # LAPACK's xerbla prints "** On entry to ZLASCL ..." on fd 1 for a
    # non-finite matrix; the kernel refuses the stack before LAPACK sees it
    hess = np.repeat(np.eye(2, dtype=complex)[None], 3, axis=0)
    hess[2, 1, 1] = bad
    with pytest.raises(ValueError, match="non-finite Hessian in row 2 "):
        _lstsq_rows(np.ones((3, 2), dtype=complex), hess)
    out, err = capfd.readouterr()
    assert "On entry to" not in out + err


def test_lstsq_rows_of_an_empty_stack():
    assert _lstsq_rows(np.zeros((0, 3), dtype=complex), np.zeros((0, 3, 3), dtype=complex)).shape == (0, 3)


def test_lstsq_rows_names_the_numpy_it_needs(monkeypatch):
    monkeypatch.setattr(gradient, "_umath_linalg", types.SimpleNamespace())  # numpy < 2.0 has no lstsq
    with pytest.raises(ImportError, match=r"numpy >= 2\.0"):
        _lstsq_rows(np.ones((1, 2), dtype=complex), np.eye(2, dtype=complex)[None])


def _singular_stack():
    # rows 1 and 6 exactly singular, the others full rank
    rng = np.random.default_rng(1600)
    hess = _hessian_stack(rng, 3, 3, 1.0, 4)
    hess[1], hess[6] = np.diag([1.0, 0.0, 2.0]), 0.0
    return rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3)), hess


def test_the_kernels_hold_their_own_error_state():
    # a caller's error state reaches neither LAPACK call: the singular rows'
    # NaN raises no FloatingPointError, and a NaN Hessian is still refused
    grad, hess = _singular_stack()
    with np.errstate(all="raise"):
        z, unsettled = _direct_z(grad, hess)
    assert unsettled.tolist() == [1, 6] and np.isnan(z[unsettled]).all()
    hess[4, 2, 0] = np.nan
    with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError, match="non-finite Hessian in row 4 "):
        _lstsq_rows(grad, hess)


def test_the_kernels_are_thread_safe(weighted24):
    # each call sets and resets its error state with a token of its own, so
    # threads in the kernels at once get the one-thread answers; each Theta
    # orbit runs its stages in buffers of its own
    grad, hess = _singular_stack()
    want = [_direct_z(grad, hess), _lstsq_rows(grad, hess)]
    starts = ([1, 0], [0.5, 0])
    orbits = [theta_orbit_det_check(weighted24, z0, t_max=5.0, steps=500) for z0 in starts]
    start = threading.Barrier(4 + len(starts), timeout=60)
    failures = []

    def orbit(z0, serial):
        try:
            start.wait()
            got = theta_orbit_det_check(weighted24, z0, t_max=5.0, steps=500)
            if got != serial:
                failures.append((z0, got))
        except Exception as exc:
            failures.append(exc)

    def worker():
        try:
            start.wait()
            with np.errstate(all="raise"):
                for _ in range(300):
                    (z, unsettled), lstsq = _direct_z(grad, hess), _lstsq_rows(grad, hess)
                    if not (np.array_equal(z, want[0][0], equal_nan=True) and np.array_equal(unsettled, want[0][1])
                            and np.array_equal(lstsq, want[1])):
                        failures.append((z, unsettled, lstsq))
        except Exception as exc:  # e.g. "Cannot enter np.errstate twice" from a shared context
            failures.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]  # more threads than CI's cores
    threads += [threading.Thread(target=orbit, args=args) for args in zip(starts, orbits)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures


def test_direct_z_leaves_an_exactly_singular_row_unsettled():
    # the singular rows come back NaN and fail the Z-system test; every other
    # row is the plain solve's, bit for bit
    grad, hess = _singular_stack()
    z, unsettled = _direct_z(grad, hess)
    assert unsettled.tolist() == [1, 6] and np.isnan(z[unsettled]).all()
    for i in (0, 2, 3, 4, 5, 7):
        assert np.array_equal(z[i], np.linalg.solve(hess[i].T, grad[i].conj()))


# -- the Z-system test of a linear field ---------------------------------------------


@pytest.mark.parametrize("field", [0, 1], ids=["nan_point", "nan_gradient"])
def test_a_nan_row_makes_the_linear_field_residual_nan(field):
    rng = np.random.default_rng(3)
    points, grad = (rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2)) for _ in range(2))
    (points, grad)[field][6, 1] = np.nan
    assert np.isnan(_linear_field_residual(points / 2, grad, np.repeat(np.eye(2, dtype=complex)[None], 10, axis=0)))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_the_linear_field_residual_is_the_max_ratio_of_norms(dim):
    """The Z-system test's ratio, the root of the ratio of squared norms, is
    the ratio of norms to rtol 1e-15 on every row, and the linear-field
    residual its max, over gradients of norm below and above 1 and a spread of
    scales. The gradient is a column slice of a wider array, as the jet's is."""
    rng = np.random.default_rng(97 + dim)
    rows = 500
    scale = 10.0 ** rng.uniform(-6, 6, size=(rows, 1))
    points, jet = ((rng.normal(size=(rows, 2 * dim)) + 1j * rng.normal(size=(rows, 2 * dim))) * scale for _ in range(2))
    points, grad = points[:, :dim], jet[:, 1 : 1 + dim]
    hess = (rng.normal(size=(rows, dim, dim)) + 1j * rng.normal(size=(rows, dim, dim))) * scale[..., None]
    for k in (1, 2, 3):
        system = np.einsum("nji,nj->ni", hess, points / k) - grad.conj()
        ratio = np.linalg.norm(system, axis=1) / np.maximum(1.0, np.linalg.norm(grad, axis=1))
        np.testing.assert_allclose(_system_ratio(system, grad), ratio, rtol=1e-15, atol=0)
        for m in (1, 7, rows):  # the max over one row, a few and all
            got = _linear_field_residual(points[:m] / k, grad[:m], hess[:m])
            np.testing.assert_allclose(got, np.max(ratio[:m]), rtol=1e-15, atol=0)


def test_the_linear_field_residual_holds_where_h_is_singular(weighted24):
    """c z = (z1, z2 / 2) solves H^T Z = conj(grad) on weighted24's degenerate
    set z2 = 0, where H = diag(1, 4|z2|^2) is singular and the minimum-norm Z is
    one of many solutions; and at points near it, where det H is tiny."""
    rng = np.random.default_rng(139)
    z1 = rng.normal(size=200) + 1j * rng.normal(size=200)
    for z2 in (np.zeros(200), 1e-9 * (rng.normal(size=200) + 1j * rng.normal(size=200))):
        pts = np.stack([z1, z2], axis=1)
        rho, grad, hess = fields_at_many(weighted24, pts)
        assert (rho > 0).all() and np.max(np.abs(np.linalg.det(hess))) < 1e-16
        assert _linear_field_residual(pts * np.array([1.0, 0.5]), grad, hess) < 1e-15


# -- Euler identity -------------------------------------------------------------


def _euler_scan(p, pts):
    """Max |Z(rho) - rho| over the points, of gradient_field's Z on one jet:
    the maximum of analyze's Euler column."""
    rho, grad, _ = fields_at_many(p, pts)
    return np.max(_euler_residual(gradient_field(p, pts), grad, rho))


def test_euler_scan_weighted(weighted24):
    rng = np.random.default_rng(101)
    pts = sample_domain(weighted24, 100, 1.5, rng, min_rho=1e-1)
    assert _euler_scan(weighted24, pts) < 1e-9


def test_euler_scan_ball(ball2):
    rng = np.random.default_rng(103)
    pts = sample_domain(ball2, 100, 1.5, rng, min_rho=1e-1)
    assert _euler_scan(ball2, pts) < 1e-12


def test_euler_scan_nonma_large(nonma):
    # at (1,1): Z = (2/3, 2/3), Z(rho) = 8/3 vs rho = 3 -> residual 1/3
    g = extended_gradient(nonma, [1, 1])
    assert g.euler_residual == pytest.approx(1 / 3, abs=1e-10)
    rng = np.random.default_rng(107)
    pts = np.concatenate(
        [sample_domain(nonma, 99, 1.5, rng), np.array([[1, 1]], dtype=complex)]
    )
    assert _euler_scan(nonma, pts) > 1e-3


def test_euler_scan_equals_pointwise_max(bundled_and_generated):
    # the scan's max is extended_gradient's per-point maximum bit for bit where
    # the rows of one batched jet equal the one-row jet's; they differ only
    # where multithreaded BLAS sums a large product in another order
    # (normsq_n8 on two threads)
    rng = np.random.default_rng(151)
    for name, p in bundled_and_generated.items():
        pts = sample_domain(p, 80, 1.5, rng)
        if one_row_jet_agrees(p, pts).all():
            assert _euler_scan(p, pts) == max(extended_gradient(p, z).euler_residual for z in pts), name


def test_scalar_samples_are_their_batched_rows(bundled_and_generated):
    # a GradientSample carries the row of the batched kernels on its jet row:
    # of _solve_z's Z, and so of the analyze scan's Euler column, and of the
    # Z-system test's ratio, which it passes at most Z_SOLVE_TOL. Compared
    # where the jet rows agree (every row under one BLAS thread).
    rng = np.random.default_rng(1717)
    for seed, (name, p) in enumerate(bundled_and_generated.items()):
        pts = sample_domain(p, 300, 1.5, rng)
        rho, grad, hess = fields_at_many(p, pts)
        z_field = _solve_z(grad, hess)[0]
        euler = _euler_residual(z_field, grad, rho)
        system = _system_ratio(_system_residual(z_field, grad, hess), grad)
        for i in np.flatnonzero(one_row_jet_agrees(p, pts)):
            got = extended_gradient(p, pts[i])
            assert got.euler_residual == euler[i], name
            assert got.system_residual == system[i], name
            assert got.consistent == (system[i] <= Z_SOLVE_TOL), name

        pts, _, _, _, euler = _analyze_scan(p, ScanConfig(samples=300, rng_seed=seed))
        for i in np.flatnonzero(one_row_jet_agrees(p, pts)):
            assert extended_gradient(p, pts[i]).euler_residual == euler[i], name


def test_euler_iff_ma(all_examples):
    from mafoliation import ma_residual

    rng = np.random.default_rng(109)
    for p in all_examples.values():
        pts = sample_domain(p, 100, 1.5, rng, min_rho=1e-3)
        for z in pts:
            euler_small = extended_gradient(p, z).euler_residual < 1e-9
            ma_small = ma_residual(p, z) < 1e-9
            assert euler_small == ma_small


# -- holomorphy (CR residual) -----------------------------------------------------


def test_cr_residual_ball(ball2):
    rng = np.random.default_rng(113)
    pts = sample_domain(ball2, 60, 1.5, rng, min_rho=1e-2)
    assert cr_scan(ball2, pts).max_residual < 1e-8


def test_cr_residual_weighted_with_straddling_stencils(weighted24):
    rng = np.random.default_rng(127)
    pts = sample_domain(weighted24, 60, 1.5, rng, min_rho=1e-2)
    straddle = np.array(
        [[1, 0], [0.7, 5e-5], [1.2, 5e-5j], [0.5, 1e-4], [1, -5e-5]], dtype=complex
    )
    report = cr_scan(weighted24, np.concatenate([pts, straddle]))
    assert report.max_residual < 1e-6
    assert len(report.mixed_stratum_points) >= 1  # straddles are flagged


def test_cr_residual_nonma_detects_antiholomorphy(nonma):
    rng = np.random.default_rng(131)
    pts = sample_domain(nonma, 60, 1.5, rng, min_rho=1e-2)
    assert cr_scan(nonma, pts).max_residual > 1e-2


# stencils of these points cross the degenerate set {z2 = 0} of weighted24
STRADDLE = np.array([[1, 0], [0.7, 5e-5], [1.2, 5e-5j], [0.5, 1e-4], [1, -5e-5]], dtype=complex)


def _criterion_5_inputs(ball2, weighted24, nonma):
    # the sampling sequence of test_acceptance.test_criterion_05_holomorphy
    rng = np.random.default_rng(2026)
    pts_ball = sample_domain(ball2, 200, 1.5, rng, min_rho=1e-2)
    pts_w = sample_domain(weighted24, 195, 1.5, rng, min_rho=1e-2)
    pts_bad = sample_domain(nonma, 200, 1.5, rng, min_rho=1e-2)
    return {
        "ball2": (ball2, pts_ball),
        "weighted24": (weighted24, np.concatenate([pts_w, STRADDLE])),
        "nonma": (nonma, pts_bad),
        "straddle": (weighted24, STRADDLE),
        "empty": (weighted24, np.zeros((0, 2), dtype=complex)),
        "one 1-D sample": (nonma, np.array([1, 0.5j])),
    }


def _same_report(got, want):
    assert got.max_residual == want.max_residual
    assert type(got.max_residual) is type(want.max_residual)
    if want.worst_point is None:
        assert got.worst_point is None
    else:
        assert np.array_equal(got.worst_point, want.worst_point)
    assert len(got.mixed_stratum_points) == len(want.mixed_stratum_points)
    for a, b in zip(got.mixed_stratum_points, want.mixed_stratum_points):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("case", ["ball2", "weighted24", "nonma", "straddle", "empty", "one 1-D sample"])
def test_cr_scan_matches_per_point_reference(ball2, weighted24, nonma, case):
    p, samples = _criterion_5_inputs(ball2, weighted24, nonma)[case]
    got = cr_scan(p, samples)
    _same_report(got, reference_cr_scan(p, samples))
    if case == "straddle":
        assert len(got.mixed_stratum_points) == 5
    if case == "empty":
        assert got.max_residual == 0.0 and got.worst_point is None


def test_cr_scan_outside_stencil_raises_the_reference_message():
    # rho = |z1|^2 - |z2|^2: the second sample's first stencil point outside
    # the domain is (0, 5e-5) (rho = -2.5e-9); later ones have other values
    p = PolyPotential(2, {((1, 0), (1, 0)): 1, ((0, 1), (0, 1)): -1})
    samples = np.array([[1, 0.5], [1e-4, 5e-5]], dtype=complex)
    with pytest.raises(ValueError) as want:
        reference_cr_scan(p, samples)
    with pytest.raises(ValueError) as got:
        cr_scan(p, samples)
    assert str(got.value) == str(want.value)
    assert "outside the domain" in str(got.value)


# -- theta orbit ----------------------------------------------------------------


def test_theta_orbit_weighted_degenerate(weighted24):
    res = theta_orbit_det_check(weighted24, [1, 0], t_max=5.0, steps=5000)
    assert not res.skipped
    assert res.max_abs_det < 1e-8
    assert res.max_rho_drift < 1e-6


def test_theta_orbit_smaller_radius(weighted24):
    res = theta_orbit_det_check(weighted24, [0.5, 0], t_max=5.0, steps=5000)
    assert not res.skipped
    assert res.max_abs_det < 1e-8


@pytest.mark.parametrize("steps", [5000, 7, ORBIT_CHECK_BLOCK + 1, 2 * ORBIT_CHECK_BLOCK])
@pytest.mark.parametrize("start", ["weighted24 (1, 0)", "weighted24 (0.5, 0)", "weighted_n4", "|z1|^2 + |z2|^12 (1, 0)"])
def test_theta_orbit_matches_per_step_reference(weighted24, start, steps):
    # the end-of-step checks run in blocks, and the stages in buffers of their
    # own; every value must be the per-step loop's. The jet of |z1|^2 + |z2|^12
    # skips the powers 2 to 4 of each coordinate
    p, z0 = {
        "weighted24 (1, 0)": (weighted24, [1, 0]),
        "weighted24 (0.5, 0)": (weighted24, [0.5, 0]),
        "weighted_n4": (WEIGHTED_N4, N4_DEGENERATE),
        "|z1|^2 + |z2|^12 (1, 0)": (weighted_sum_potential((1.0, 1.0), (1, 6)), [1, 0]),
    }[start]
    got = theta_orbit_det_check(p, z0, t_max=5.0, steps=steps)
    assert not got.skipped
    assert got == reference_theta_orbit(p, z0, t_max=5.0, steps=steps)


def test_theta_orbit_first_failing_step_decides_the_error(monkeypatch):
    # rho = |z1|^2 - |z2|^4 is degenerate on {z2 = 0}; scripted steps stand in for RK4
    p = PolyPotential(2, {((1, 0), (1, 0)): 1, ((0, 2), (0, 2)): -1})

    def scripted(*points):
        return lambda vel, z, durations, step: iter(np.array(points, dtype=complex))

    # the step that leaves {rho > 0} comes first, so it decides, though the
    # non-finite step after it fails before that step's block is checked
    monkeypatch.setattr(gradient, "rk4_path", scripted([1, 0], [0.5, 1.0], [np.nan, 0]))
    with pytest.raises(ValueError, match="exited the domain"):
        theta_orbit_det_check(p, [1, 0], steps=10)
    monkeypatch.setattr(gradient, "rk4_path", scripted([1, 0], [np.nan, 0], [0.5, 1.0]))
    with pytest.raises(ValueError, match="non-finite"):
        theta_orbit_det_check(p, [1, 0], steps=10)
    # a finite state where rho is inf - inf = NaN is outside too; a NaN rho
    # used to pass, and Python's max() dropped it from both maxima. Its jet
    # overflows, which numpy would warn about
    monkeypatch.setattr(gradient, "rk4_path", scripted([1, 0], [1e200, 1e100], [np.nan, 0]))
    with pytest.raises(ValueError, match="exited the domain"), np.errstate(over="ignore", invalid="ignore"):
        theta_orbit_det_check(p, [1, 0], steps=10)


def test_theta_orbit_default_step(weighted24):
    # steps=None takes ceil(t_max / DEFAULT_STEP) steps of DEFAULT_STEP
    res = theta_orbit_det_check(weighted24, [1, 0], t_max=1.0)
    assert res == reference_theta_orbit(weighted24, [1, 0], t_max=1.0, steps=100)
    assert res.max_abs_det < 1e-8
    assert res.max_rho_drift < 1e-6


@pytest.mark.parametrize("name", ["weighted24", "weighted_n4"])
def test_theta_flow_follows_the_exact_orbit(weighted24, name):
    # weighted homogeneous rho has Z = (c_j z_j), so the Theta orbit is
    # exactly z_j(t) = e^{i c_j t} z_j(0); at DEFAULT_STEP over t = 5 RK4 stays within 4e-10
    if name == "weighted24":
        p, c = weighted24, np.array([1.0, 0.5])
        z0 = np.array([[1, 0], [0.5, 0], [0.6, 0.3], [0.3 - 0.4j, 0.8j]])
    else:
        p, c = WEIGHTED_N4, 1.0 / np.array(N4_DEGREES)
        z0 = np.array([N4_DEGENERATE, [0.8, 0, 0, 0.5j], [0.8 + 0.1j, 0.7, 0.6 - 0.3j, 0.5j]])
    strata = {levi_data(p, z).stratum for z in z0}
    assert Stratum.STRICTLY_PSH in strata and len(strata) >= 2
    z, worst = z0, 0.0
    for t in range(1, 6):
        z = flow_points(p, z, 1.0, RealFieldKind.THETA, DEFAULT_STEP)
        worst = max(worst, float(np.max(np.abs(z - np.exp(1j * c * t) * z0))))
    assert worst < 1e-8


@pytest.mark.parametrize(
    "t_max, steps", [(0.0, None), (-1.0, None), (math.inf, 10), (math.nan, 10), (5.0, 0), (5.0, -3), (5.0, 2.5)]
)
def test_theta_orbit_rejects_an_empty_or_invalid_interval(weighted24, t_max, steps):
    with pytest.raises(ValueError, match="t_max > 0 and steps >= 1"):
        theta_orbit_det_check(weighted24, [1, 0], t_max=t_max, steps=steps)


def test_theta_orbit_skips_full_rank_point(ball2):
    res = theta_orbit_det_check(ball2, [1, 0])
    assert res.skipped
    assert "full-rank" in res.reason


def test_theta_orbit_outside_domain(weighted24):
    with pytest.raises(ValueError, match="rho"):
        theta_orbit_det_check(weighted24, [0, 0])


def test_real_field_multipliers():
    assert RealFieldKind.X.multiplier == 0.5
    assert RealFieldKind.Y.multiplier == 0.5j
    assert RealFieldKind.THETA.multiplier == 1j


# -- zero set of Z -----------------------------------------------------------------


def test_weighted_gradient_is_linear_field(weighted24):
    # Z = (c1 z1, c2 z2) with c = (1, 1/2); vanishes only at the origin
    rng = np.random.default_rng(137)
    pts = sample_domain(weighted24, 100, 1.5, rng, min_rho=1e-4)
    z_field = gradient_field(weighted24, pts)
    expected = pts * np.array([1.0, 0.5])
    assert np.max(np.linalg.norm(z_field - expected, axis=1)) < 1e-9
    assert np.min(np.linalg.norm(z_field, axis=1)) > 0


def test_gradient_sample_euler_residual_matches_recomputation(weighted24):
    g = extended_gradient(weighted24, [0.3, 0.7 + 0.2j])
    rho, grad, _ = fields_at(weighted24, g.point)
    recomputed = abs(g.Z @ grad - rho)
    assert recomputed == pytest.approx(g.euler_residual, abs=1e-14)


# -- layout of the flows of Z --------------------------------------------------------


def test_the_flows_of_z_live_in_gradient_alone():
    # gradient integrates Z without importing foliation, its one-row stage is
    # named nowhere else, one class of potential has the one-row buffer API and
    # gradient is its one caller outside potential, and the RK4 update is
    # written once, in rk4_path
    src = Path(gradient.__file__).parent
    modules = []
    for node in ast.walk(ast.parse((src / "gradient.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            modules += [node.module or "", *(f"{node.module or ''}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
    assert not [m for m in modules if "foliation" in m.split(".")]
    naming = {path.name for path in src.glob("*.py") if re.search(r"\b_RowStage\b", path.read_text(encoding="utf-8"))}
    assert naming == {"gradient.py"}
    assert isinstance(gradient.__dict__.get("_RowStage"), type)
    row_api = {"row_buffers", "doubled_row"}
    owners = [cls for cls in vars(potential).values() if isinstance(cls, type) and row_api & set(vars(cls))]
    assert len(owners) == 1 and row_api <= set(vars(owners[0]))
    calling = {path.name for path in src.glob("*.py") if re.search(r"\.(row_buffers|doubled_row)\b", path.read_text(encoding="utf-8"))}
    assert calling - {"potential.py"} == {"gradient.py"}
    assert not hasattr(gradient, "rk4_segment")
    updating = {path.name: len(re.findall(r"\bk4 = vel\(", path.read_text(encoding="utf-8"))) for path in src.glob("*.py")}
    assert {name: count for name, count in updating.items() if count} == {"gradient.py": 1}
