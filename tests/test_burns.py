import dataclasses
import hashlib
import os
import re
import tracemalloc

import numpy as np
import pytest

from mafoliation import PolyPotential, analyze_weights, burns_check, cli, sampling, thresholds, verify_weights
from mafoliation.cli import bundled_corpus_dir, main
from mafoliation.potential import bidegree_decompose, format_potential, homogeneous_degree, parse_potential_file
from mafoliation.sampling import real_grid


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
    # |z1|^4: every Hessian is singular, yet w/k still solves the Z system,
    # and rho = 0 on {z1 = 0} of the sphere, which the grid misses
    pot = tmp_path / "z1_quartic.pot"
    pot.write_text(format_potential(PolyPotential(2, {Q1: 1})))
    rc = main(["burns", str(pot), "--grid-n", "6", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert float(re.search(r"^radial residual   : (\S+) \(", out, re.M)[1]) < 1e-15
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


@pytest.mark.parametrize("box", ["1e10", "1e40", "1e80", "1e160", "1e300"])
def test_a_box_whose_rho_squared_overflows_is_refused(box, tmp_path, capsys):
    """burns refuses (exit 2, one line) a box on which |rho| may square past
    the largest float; on any other box it runs without a numpy warning."""
    refused = re.compile(rf"error: --box {re.escape(repr(float(box)))} is too large for this potential: "
                         r"\|rho\| on the grid may reach 1e\d+, whose square overflows a float; use a smaller box \(burns --box\)\n")
    for pot in sorted(bundled_corpus_dir().glob("*.pot")):
        rc = main(["burns", str(pot), "--box", box, "--grid-n", "3", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert (rc == 2 and refused.fullmatch(err)) or (rc != 2 and err == ""), (pot.name, rc, err)


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


# chunk sizes 7 (11 chunks and a rest of 4), GRID_CHUNK_ROWS (2 whole chunks)
# and 1,500 (a rest of 1,096 on 4,096 points)
@pytest.mark.parametrize("dim, per_axis, size", [(2, 3, 7), (2, 8, 2048), (3, 4, 1500)],
                         ids=["chunk7", "chunk2048", "chunk1500"])
def test_real_grid_chunks_follow_meshgrid_order(monkeypatch, dim, per_axis, size):
    monkeypatch.setattr(sampling, "GRID_CHUNK_ROWS", size)
    grid = real_grid(dim, per_axis, 1.5)
    chunks = list(grid)
    count = per_axis ** (2 * dim)
    assert len(grid) == count
    assert [len(c) for c in chunks] == [size] * (count // size) + [count % size] * (count % size > 0)
    axes = np.meshgrid(*[np.linspace(-1.5, 1.5, per_axis)] * (2 * dim), indexing="ij")
    flat = np.stack([a.ravel() for a in axes], axis=-1)
    want = flat[:, 0::2] + 1j * flat[:, 1::2]
    got = np.concatenate(chunks)
    assert got.dtype == complex and np.array_equal(got.view(np.int64), want.view(np.int64))  # bit for bit


def test_burns_and_suite_share_the_radial_invariant(square_norm, tmp_path, capsys, monkeypatch):
    # no residual is below 0: the verdict passes, but the radial invariant fails
    monkeypatch.setattr(thresholds, "Z_SOLVE_TOL", 0.0)
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


# -- the radial invariant -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _PointGrid:
    """Fixed points read in chunks of sampling.GRID_CHUNK_ROWS, as burns_check reads a RealGrid."""

    points: np.ndarray

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        step = sampling.GRID_CHUNK_ROWS
        return (self.points[i : i + step] for i in range(0, len(self.points), step))


@pytest.mark.parametrize("box", [1e-3, 1e-1, 10.0, 1e3, 1e5, 1e8])
def test_the_radial_residual_does_not_grow_with_the_box(bundled_and_generated, box, tmp_path, capsys):
    """w/k solves H^T Z = conj(grad) at every point of a pure-(k,k) rho, to
    roundoff relative to the gradient, at any scale; an absolute ||Z - w/k||
    grows in proportion to the box and exceeds 1e-8 at box 1e8."""
    rng = np.random.default_rng(17)
    checked = []
    for name, p in bundled_and_generated.items():
        degree = homogeneous_degree(p)
        if degree is None or degree % 2 or set(bidegree_decompose(p)) != {(degree // 2, degree // 2)}:
            continue
        grid = _PointGrid(box * (rng.uniform(-1, 1, (64, p.dim)) + 1j * rng.uniform(-1, 1, (64, p.dim))))
        report = burns_check(p, grid)
        assert report.verdict and report.internal_failure is None, name
        assert report.radial_field_residual < 1e-15, name
        checked.append(name)
    assert sorted(checked) == ["ball2", "ball3", "normsq_n4", "normsq_n8", "quartic_diag", "square_norm"]
    pot = bundled_corpus_dir() / "square_norm.pot"
    assert main(["burns", str(pot), "--box", repr(box), "--grid-n", "6", "--out", str(tmp_path)]) == 0
    assert "internal invariant" not in capsys.readouterr().out


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
    and 1. The n = 8 inputs are left out unless OPENBLAS_NUM_THREADS is "1":
    a threaded BLAS may sum their jet products in another order by batch size
    (they pass with one thread and differ with two). They are left out
    rather than skipped, so that the other inputs still count as a pass."""
    one_thread = os.environ.get("OPENBLAS_NUM_THREADS") == "1"
    for name, p in bundled_and_generated.items():
        if p.dim == 8 and not one_thread:
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
