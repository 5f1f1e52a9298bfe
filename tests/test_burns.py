import dataclasses
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from mafoliation import PolyPotential, analyze_weights, burns, burns_check, cli, sampling, thresholds, verify_weights
from mafoliation.cli import bundled_corpus_dir, main
from mafoliation.levi import fields_at_many
from mafoliation.potential import format_potential, homogeneous_degree, parse_potential_file
from mafoliation.sampling import real_grid
from mafoliation.thresholds import RHO_FLOOR

from helpers import reference_radial


@pytest.fixture(scope="module")
def grid():
    return real_grid(2, 12, 1.5)


def test_square_norm_passes(square_norm, grid):
    report = burns_check(square_norm, grid)
    assert report.verdict
    assert report.degree2k == 4
    assert set(report.bidegree_mass) == {(2, 2)}
    assert report.ma_max_scaled < 1e-8
    assert report.radial_field_residual < 1e-8
    assert report.reasons == []


def test_quartic_diag_passes(quartic_diag, grid):
    report = burns_check(quartic_diag, grid)
    assert report.verdict
    assert report.degree2k == 4
    assert report.radial_field_residual < 1e-8


def test_quartic_mixed_fails(quartic_mixed, grid):
    report = burns_check(quartic_mixed, grid)
    assert not report.verdict
    assert report.bidegree_mass[(3, 1)] == pytest.approx(0.5)
    assert report.bidegree_mass[(1, 3)] == pytest.approx(0.5)
    assert report.ma_max_scaled > 1e-3
    assert report.worst_ma_point is not None
    assert len(report.reasons) == 2  # both failing gates listed


def test_non_homogeneous_fails_at_gate(weighted24, grid):
    report = burns_check(weighted24, grid)
    assert not report.verdict
    assert not report.is_homogeneous
    assert report.degree2k is None
    assert any("not homogeneous" in r for r in report.reasons)


def test_odd_degree_fails_at_gate(grid):
    p = PolyPotential(2, {((1, 0), (0, 0)): 1, ((0, 0), (1, 0)): 1})  # 2 Re z1
    report = burns_check(p, grid)
    assert not report.verdict
    assert report.is_homogeneous
    assert any("odd" in r for r in report.reasons)


def test_ball_passes_with_k1(ball2, grid):
    report = burns_check(ball2, grid)
    assert report.verdict
    assert report.degree2k == 2
    assert report.radial_field_residual < 1e-10  # Z = w with k = 1


def test_positivity_margin_reported(square_norm, quartic_mixed, grid):
    # rho = v* C v with v = (z1^2, z2^2, z1 z2) and C = diag(1, 1, 2)
    report = burns_check(square_norm, grid)
    assert report.positivity_margin == 0.5
    assert "positivity margin : 0.5 (" in report.format()
    # mass outside (2,2): no (k,k) form to certify, and the bidegree gate fails
    assert burns_check(quartic_mixed, grid).positivity_margin is None


Q1, Q2, Q12 = ((2, 0), (2, 0)), ((0, 2), (0, 2)), ((1, 1), (1, 1))


@pytest.mark.parametrize(
    "terms, margin",
    [
        ({Q1: 1, Q2: 1, Q12: -3}, -1.0),  # C = diag(1, 1, -3); rho < 0 at (1, 1)/sqrt(2)
        ({Q1: 1}, 0.0),  # no |z2|^4 term: rho(e2) = 0
        ({Q1: 1, Q2: 1, ((2, 0), (0, 2)): 0.5, ((0, 2), (2, 0)): 0.5}, 0.5 / 1.5),  # C = [[1, .5], [.5, 1]]
        ({Q1: 2, Q2: 1, Q12: 2}, 0.5),  # C = diag(2, 1, 2)
    ],
)
def test_positivity_gate(terms, margin, grid):
    report = burns_check(PolyPotential(2, terms), grid)
    assert report.positivity_margin == pytest.approx(margin, abs=1e-15)
    gated = [r for r in report.reasons if r.startswith("rho > 0 on the unit sphere not certified")]
    assert len(gated) == (margin <= 0)


def test_uncertified_rho_without_strict_points_is_a_finding(tmp_path, capsys):
    # |z1|^4: every Hessian is singular, so the radial invariant has no point
    # to run on, and rho = 0 on {z1 = 0} of the sphere, which the grid misses
    pot = tmp_path / "z1_quartic.pot"
    pot.write_text(format_potential(PolyPotential(2, {Q1: 1})))
    rc = main(["burns", str(pot), "--grid-n", "6", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "radial residual   : not applicable (no strictly psh grid point)" in out
    assert "verdict           : fail" in out
    assert "  - rho > 0 on the unit sphere not certified: positivity margin 0 <= 1e-12" in out
    assert "nan" not in out


def test_equal_weights_iff_pass(square_norm, quartic_diag, grid):
    # internal cross-check: bidegree-(k,k) support matches feasibility of
    # equal weights c_j = 1/k
    for p in (square_norm, quartic_diag):
        report = burns_check(p, grid)
        k = report.degree2k // 2
        analysis = analyze_weights(p)
        assert report.verdict
        assert analysis.status == "ok"
        assert np.allclose(analysis.weights, np.full(p.dim, 1.0 / k), atol=1e-12)


def test_mixed_quartic_has_no_weights(quartic_mixed):
    assert analyze_weights(quartic_mixed).status != "ok"


# -- log growth -----------------------------------------------------------------
# rho(lam z) = |lam|^{2k} rho(z): the homogeneity identity with weights 1/k at L = k log lam


def test_log_growth_square_norm(square_norm):
    z = np.array([[1, 0]], dtype=complex)
    assert verify_weights(square_norm, np.full(2, 0.5), z, [2 * np.log(2.0)]) == pytest.approx(0.0, abs=1e-12)


def test_log_growth_identity_at_lambda_one(quartic_diag):
    rng = np.random.default_rng(193)
    z = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    assert verify_weights(quartic_diag, np.full(2, 0.5), z, [0.0]) == 0.0


def test_log_growth_phase_invariance(square_norm):
    z = np.array([[1, 1]], dtype=complex)
    assert verify_weights(square_norm, np.full(2, 0.5), z, [2 * np.log(1j)]) < 1e-12


def test_log_growth_random_scalings(square_norm):
    rng = np.random.default_rng(197)
    z = rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2))
    lams = [0.5 + 0.3j, 2.0 - 1.0j, 0.1j, 3.0]
    assert verify_weights(square_norm, np.full(2, 0.5), z, [2 * np.log(lam) for lam in lams]) < 1e-10


def test_skipped_points_reported(square_norm):
    # an odd axis holds the origin, where rho = 0
    report = burns_check(square_norm, real_grid(2, 5, 1.5))
    assert (report.kept_points, report.skipped_points) == (624, 1)
    assert "skipped points    : 1 of 625 (rho <= 1e-12)" in report.format()


@pytest.mark.parametrize("radius", [0.0, 1e-7, 1e200])  # rho = 0, below RHO_FLOOR, NaN (overflow)
def test_a_grid_without_a_kept_point_fails(ball2, radius):
    # the Monge-Ampere gate measured nothing; it used to pass with max 0
    with np.errstate(all="ignore"):
        report = burns_check(ball2, real_grid(2, 3, radius))
    assert (report.kept_points, report.skipped_points) == (0, 81)
    assert not report.verdict
    assert report.reasons == ["no grid point with rho > RHO_FLOOR = 1e-12: the Monge-Ampere gate measured nothing"]
    ma = report.gate("ma_residual_scaled")
    assert ma.measured is None and ma.status == "finding"
    assert np.isnan(report.ma_max_residual) and np.isnan(report.ma_max_scaled)
    assert report.worst_ma_point is None and report.radial_field_residual is None
    assert "max |det U|       : not applicable (no grid point with rho > 1e-12)" in report.format()


def test_burns_and_suite_without_a_kept_point(ball2, tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "ball2.pot").write_text(format_potential(ball2))
    (corpus / "expect.json").write_text('{"ball2.pot": {"burns": "pass"}}')
    rc = main(["burns", str(corpus / "ball2.pot"), "--box", "1e-7", "--grid-n", "3", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0  # a finding about the input
    assert "max |det U|       : not applicable (no grid point with rho > 1e-12)" in out
    assert "verdict           : fail" in out

    # the suite samples its scan at --box; only its burns grid misses the domain
    monkeypatch.setattr(cli, "real_grid", lambda dim, per_axis, radius: real_grid(dim, per_axis, 1e-7))
    rc = main(["suite", str(corpus), "--samples", "100", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert re.search(r"ball2\.pot\s+burns_verdict\s+FAIL measured=n/a ", out)


# -- the streamed grid ------------------------------------------------------------


def _exact(value):
    return value.tobytes() if isinstance(value, np.ndarray) else repr(value)


def _burns_outputs(name, grid_n, tmp_path):
    """Every BurnsReport field, and the stdout and CSV sha256 of burns --csv."""
    pot = bundled_corpus_dir() / f"{name}.pot"
    report = burns_check(parse_potential_file(pot), real_grid(2, grid_n, 1.5))
    fields = {f.name: _exact(getattr(report, f.name)) for f in dataclasses.fields(report)}
    out = tmp_path / str(sampling.GRID_CHUNK_ROWS)
    rc = main(["burns", str(pot), "--grid-n", str(grid_n), "--csv", "--out", str(out)])
    digest = hashlib.sha256((out / f"{name}_burns.csv").read_bytes()).hexdigest()
    return rc, fields, digest


# even grids; an odd axis (it holds the origin, where rho = 0); a degree gate
# fails but --csv still scans the grid. At about 1 ms per chunk, chunk sizes 1
# and 7 would take minutes on the 160,000 points of square_norm --grid-n 20, so
# that grid is split at an unaligned size instead.
@pytest.mark.parametrize(
    "name, grid_n, sizes",
    [
        ("square_norm", 20, (997,)),
        ("quartic_mixed", 6, (1, 7)),
        ("quartic_mixed", 5, (1, 7)),
        ("nonma", 6, (1, 7)),
    ],
)
def test_results_do_not_depend_on_chunk_size(name, grid_n, sizes, tmp_path, capsys, monkeypatch):
    results = []
    for size in (sampling.GRID_CHUNK_ROWS, *sizes):
        monkeypatch.setattr(sampling, "GRID_CHUNK_ROWS", size)
        rc, fields, digest = _burns_outputs(name, grid_n, tmp_path)
        stdout = capsys.readouterr().out.replace(str(tmp_path / str(size)), "<out>")
        results.append((rc, fields, stdout, digest))
    assert results[0][0] == 0
    for other in results[1:]:
        assert other == results[0]


def test_real_grid_chunks_follow_meshgrid_order(monkeypatch):
    monkeypatch.setattr(sampling, "GRID_CHUNK_ROWS", 7)
    grid = real_grid(2, 3, 1.5)
    chunks = list(grid)
    assert len(grid) == 81 and [len(c) for c in chunks] == [7] * 11 + [4]
    axes = np.meshgrid(*[np.linspace(-1.5, 1.5, 3)] * 4, indexing="ij")
    flat = np.stack([a.ravel() for a in axes], axis=-1)
    np.testing.assert_array_equal(np.concatenate(chunks), flat[:, 0::2] + 1j * flat[:, 1::2])


def test_burns_and_suite_share_the_radial_invariant(square_norm, tmp_path, capsys, monkeypatch):
    # no residual is below 0: the verdict passes, but the radial invariant fails
    monkeypatch.setattr(thresholds, "RADIAL_TOL", 0.0)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "square_norm.pot").write_text(format_potential(square_norm))
    (corpus / "expect.json").write_text('{"square_norm.pot": {"burns": "pass"}}')
    report = burns_check(square_norm, real_grid(2, 6, 1.5))
    assert report.verdict and report.internal_failure.startswith("verdict passes but radial residual")

    rc = main(["burns", str(corpus / "square_norm.pot"), "--grid-n", "6", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "verdict           : pass" in out
    assert "internal invariant FAIL: verdict passes but radial residual" in out

    rc = main(["suite", str(corpus), "--samples", "100", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert re.search(r"square_norm\.pot\s+burns_verdict\s+FAIL", out)


def test_burns_check_memory_is_bounded(ball3):
    # 8^6 = 262,144 points; the whole-grid arrays took about 290 MB RSS
    grid = real_grid(3, 8, 1.5)
    tracemalloc.start()
    try:
        report = burns_check(ball3, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict and report.kept_points == len(grid)
    assert peak < 64 * 2**20


# -- the lazy radial gate -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _PointGrid:
    """Fixed points read in chunks of sampling.GRID_CHUNK_ROWS, as burns_check reads a RealGrid."""

    points: np.ndarray

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        step = sampling.GRID_CHUNK_ROWS
        return (self.points[i : i + step] for i in range(0, len(self.points), step))


def _inside_chunks(p, grid):
    for chunk in grid:
        rho, grad, hess = fields_at_many(p, chunk)
        inside = rho > RHO_FLOOR
        yield chunk[inside], grad[inside], hess[inside]


def _same(a, b):
    """Equal, or both None, or both NaN."""
    return (a is None) == (b is None) and (a is None or np.array_equal(a, b, equal_nan=True))


@pytest.mark.parametrize("size", [1, 7, 4096])
def test_lazy_radial_equals_the_eager_rule(bundled_and_generated, size, monkeypatch):
    monkeypatch.setattr(sampling, "GRID_CHUNK_ROWS", size)
    rng = np.random.default_rng(11)
    axis = np.linspace(-1.5, 1.5, 5)  # holds 0, where the diagonal potentials degenerate
    checked = []
    for name, p in bundled_and_generated.items():
        x = axis[rng.integers(0, len(axis), (300, 2 * p.dim))]
        grid = _PointGrid(x[:, 0::2] + 1j * x[:, 1::2])
        got = burns_check(p, grid).radial_field_residual
        degree = homogeneous_degree(p)
        if degree is None or degree % 2:
            assert np.isnan(got), name  # a degree gate stops the check before the grid
            continue
        assert _same(got, reference_radial(_inside_chunks(p, grid), degree // 2)), name
        checked.append(name)
    assert len(checked) == 7


def _rows(rng, count, hess):
    """count rows at random points and gradients, every Hessian equal to hess."""
    points = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    grad = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    return points, grad, np.repeat(np.asarray(hess, dtype=complex)[None], count, axis=0)


def _stack(*blocks, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(sum(len(b[0]) for b in blocks))
    return tuple(np.concatenate([b[i] for b in blocks])[order] for i in range(3))


EYE = np.eye(2)
NEAR_SINGULAR = np.diag([1.0, 1e-10])  # rank 1 under DEFAULT_TOL_RANK, yet solvable
SINGULAR = np.diag([1.0, 0.0])  # exactly singular: the direct solve returns NaN
# eigvalsh reads the lower triangle (the identity), so the row is strict, but
# the 1e20 entry leaves the direct solve inconsistent: the row takes the lstsq fallback
SKEW = np.array([[1.0, 1e20], [0.0, 1.0]])


FAR_STRICT = 1e-6 * EYE  # strict (1e-6 > 1e-8), and Z = 1e6 conj(g) lies far from z/k


def _nan_row(rng, field):
    """One strict row whose point (field 0) or gradient (field 1) holds a NaN."""
    row = _rows(rng, 1, EYE)
    row[field][0, 1] = np.nan
    return row


@pytest.mark.parametrize(
    "case, blocks, expect",
    [
        # 100 settled non-strict rows farther from z/k than any strict one
        # fill the first block: every settled row is classified
        ("classify_all", lambda r: [_rows(r, 100, NEAR_SINGULAR), _rows(r, 10, EYE)], "small"),
        ("singular_and_fallback", lambda r: [_rows(r, 5, SINGULAR), _rows(r, 10, EYE), _rows(r, 3, SKEW)], "finite"),
        # a settled row at distance NaN comes before 70 strict rows
        ("nan_point", lambda r: [_rows(r, 70, FAR_STRICT), _nan_row(r, 0)], "nan"),
        ("nan_gradient", lambda r: [_rows(r, 10, EYE), _nan_row(r, 1)], "nan"),
        ("no_strict_row", lambda r: [_rows(r, 5, SINGULAR), _rows(r, 80, NEAR_SINGULAR)], "none"),
    ],
)
def test_lazy_radial_on_hand_built_rows(case, blocks, expect):
    rng = np.random.default_rng(3)
    points, grad, hess = _stack(*blocks(rng), seed=4)
    got = burns._radial_max(points, grad, hess, 2)
    assert _same(got, reference_radial([(points, grad, hess)], 2))
    if expect == "none":
        assert got is None
    elif expect == "nan":
        assert np.isnan(got)
    else:
        assert np.isfinite(got) and (expect != "small" or got < 1e3)


# -- the chunk map and its fold ------------------------------------------------------


def _fields(report):
    """Every BurnsReport field, bit for bit; gate records without their wall times."""
    fields = {f.name: _exact(getattr(report, f.name)) for f in dataclasses.fields(report)}
    fields["gates"] = [(oc.name, oc.status, _exact(oc.measured), oc.threshold) for oc in report.gates]
    return fields


def _mixed_points(dim, seed):
    """300 points on the 5-point axis (it holds 0, where the diagonal potentials
    degenerate) and the origin, where rho = 0: with 1 row per chunk, its chunk
    keeps no row."""
    x = np.linspace(-1.5, 1.5, 5)[np.random.default_rng(seed).integers(0, 5, (300, 2 * dim))]
    return np.concatenate([x[:, 0::2] + 1j * x[:, 1::2], np.zeros((1, dim))])


def test_burns_does_not_depend_on_the_chunk_size(bundled_and_generated, tmp_path, capsys, monkeypatch):
    """Equal reports, stdout and burns --csv bytes at the chunk sizes 4,096, 7
    and 1, except on n = 8, whose jet products a threaded BLAS may sum in
    another order by batch size."""
    for name, p in bundled_and_generated.items():
        if p.dim == 8:
            continue
        grid = _PointGrid(_mixed_points(p.dim, 5))
        monkeypatch.setattr("mafoliation.cli.real_grid", lambda *_: grid)
        pot = tmp_path / f"{name}.pot"
        pot.write_text(format_potential(p))
        by_size = []
        for size in (4096, 7, 1):
            monkeypatch.setattr(sampling, "GRID_CHUNK_ROWS", size)
            out = tmp_path / str(size)
            rc = main(["burns", str(pot), "--csv", "--out", str(out)])
            stdout = capsys.readouterr().out.replace(str(out), "<out>")
            by_size.append((_fields(burns_check(p, grid)), rc, stdout, (out / f"{name}_burns.csv").read_bytes()))
        assert by_size[1] == by_size[0] and by_size[2] == by_size[0], name
