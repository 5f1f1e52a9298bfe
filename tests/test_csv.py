"""The column-wise CSV writer against csv.writer with repr(float(x)) per cell."""

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from helpers import reference_csv_bytes
from hypothesis import given, settings
from hypothesis import strategies as st

from mafoliation.cli import ScanConfig, _analyze_scan, _cells, _write_csv, bundled_corpus_dir, main
from mafoliation.foliation import trace_leaf
from mafoliation.levi import levi_scan, ma_from_fields
from mafoliation.potential import parse_potential_file
from mafoliation.sampling import real_grid
from mafoliation.thresholds import RHO_FLOOR

# values whose repr a float-keyed dedup would get wrong, plus subnormals
_SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -1e-310, 2.2250738585072014e-308]
_FLOATS = st.one_of(st.floats(), st.sampled_from(_SPECIAL))


@pytest.fixture(scope="module")
def corpus():
    return bundled_corpus_dir()


def _column(pool, picks):
    """A float64 column drawn with repeats from a small pool of values."""
    return np.array([pool[i % len(pool)] for i in picks], dtype=float)


@settings(deadline=None)
@given(pool=st.lists(_FLOATS, min_size=1, max_size=8), picks=st.lists(st.integers(0, 7), max_size=60))
def test_cells_are_repr_of_each_value(pool, picks):
    col = _column(pool, picks)
    cells = _cells([col, col[::-2]])  # one write's columns may be strided views, of any length
    assert [list(c) for c in cells] == [[repr(float(x)) for x in c] for c in (col, col[::-2])]


@settings(deadline=None)
@given(
    drawn=st.lists(_FLOATS, max_size=4),
    picks=st.lists(st.lists(st.integers(0, len(_SPECIAL) + 3), min_size=4, max_size=4), max_size=40),
    texts=st.lists(st.sampled_from(["a", 'b,"c', "0.0"]), min_size=40, max_size=40),
)
def test_write_csv_shares_values_across_columns(drawn, picks, texts):
    # every float column draws from one pool, so 0.0 and -0.0, NaN payloads,
    # infinities and subnormals repeat across the columns of one write
    pool = _SPECIAL + drawn
    columns = [_column(pool, [row[j] for row in picks]) for j in range(4)]
    texts = texts[: len(picks)]
    header = ["x", "name", "y", "z", "w"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        _write_csv(path, header, columns[0], texts, *columns[1:])
        written = path.read_bytes()
    rows = zip(columns[0], texts, *columns[1:])
    assert written == reference_csv_bytes(header, rows)


def test_write_csv_of_no_rows(tmp_path):
    # a burns chunk whose every row has rho <= RHO_FLOOR writes no row, the
    # first one (the header, in a new directory) or a later one (appended)
    path = tmp_path / "new" / "out.csv"
    empty = np.zeros(0)
    _write_csv(path, ["re_z1", "rho", "stratum"], empty, empty, [])
    assert path.read_bytes() == reference_csv_bytes(["re_z1", "rho", "stratum"], [])
    _write_csv(path, None, empty, empty, [])
    assert path.read_bytes() == b"re_z1,rho,stratum\n"
    _write_csv(path, None, np.array([0.5]), np.array([-0.0]), ["a,b"])
    _write_csv(path, None, empty, empty, [])
    assert path.read_bytes() == b're_z1,rho,stratum\n0.5,-0.0,"a,b"\n'


@settings(deadline=None)
@given(
    texts=st.lists(st.one_of(st.text(alphabet='ab ,;"\r\n\té'),
                             st.sampled_from(["", " ", '""', ",", '"', "\r", "\n", " a ", "a b"])), max_size=12),
    pool=st.lists(_FLOATS, min_size=1, max_size=4),
)
def test_write_csv_matches_row_writer(texts, pool):
    header = ["sample", "name", 'x,"y"']
    values = _column(pool, range(len(texts)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        _write_csv(path, header, range(-1, len(texts) - 1), texts, values)
        written = path.read_bytes()
    assert written == reference_csv_bytes(header, zip(range(-1, len(texts) - 1), texts, values))


def _coords(z):
    return [c for v in z for c in (v.real, v.imag)]


COORDS2 = ["re_z1", "im_z1", "re_z2", "im_z2"]


@pytest.mark.parametrize("name", ["square_norm", "quartic_mixed"])
def test_burns_csv_bytes_match_row_writer(corpus, tmp_path, capsys, name):
    pot = corpus / f"{name}.pot"
    assert main(["burns", str(pot), "--grid-n", "10", "--csv", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    grid = np.concatenate(list(real_grid(2, 10, 1.5)))
    scan = levi_scan(parse_potential_file(pot), grid)
    inside = scan.rho > RHO_FLOOR
    _, raw, scaled = ma_from_fields(scan.rho[inside], scan.grad[inside], scan.hessian[inside])
    rows = [_coords(z) + [rho, r, sc] for z, rho, r, sc in zip(grid[inside], scan.rho[inside], raw, scaled)]
    header = COORDS2 + ["rho", "ma_residual", "ma_residual_scaled"]
    assert (tmp_path / f"{name}_burns.csv").read_bytes() == reference_csv_bytes(header, rows)


def test_analyze_csv_bytes_match_row_writer(corpus, tmp_path, capsys):
    pot = corpus / "weighted24.pot"
    assert main(["analyze", str(pot), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    p = parse_potential_file(pot)
    pts, _, raw, scaled, euler = _analyze_scan(p, ScanConfig())
    scan = levi_scan(p, pts)
    det = scan.det_hessian
    rows = [
        [i] + _coords(pts[i]) + [scan.rho[i], det[i].real, det[i].imag, scan.strata[i], raw[i], scaled[i], euler[i]]
        for i in range(len(pts))
    ]
    header = (
        ["sample"]
        + COORDS2
        + ["rho", "re_detH", "im_detH", "stratum", "ma_residual", "ma_residual_scaled", "euler_residual"]
    )
    assert (tmp_path / "weighted24_analyze.csv").read_bytes() == reference_csv_bytes(header, rows)


def test_trace_csv_bytes_match_row_writer(corpus, tmp_path, capsys):
    pot = corpus / "ball2.pot"
    assert main(["trace", str(pot), "--base", "1+0i,0+0i", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    trace = trace_leaf(
        parse_potential_file(pot), [1, 0], np.linspace(0.0, 2.0, 9), np.linspace(0.0, 2 * math.pi, 13)
    )
    abs_det = np.abs(trace.det_hessian)
    rows = [
        [t, s] + _coords(trace.points[it, isx])
        + [trace.rho[it, isx], abs_det[it, isx], trace.strata[it, isx]]
        for it, t in enumerate(trace.t_values)
        for isx, s in enumerate(trace.s_values)
    ]
    header = ["t", "s"] + COORDS2 + ["rho", "abs_detH", "stratum"]
    assert (tmp_path / "ball2_trace.csv").read_bytes() == reference_csv_bytes(header, rows)


def test_suite_csv_quotes_file_names_like_csv_writer(corpus, tmp_path, capsys):
    directory = tmp_path / "corpus"
    directory.mkdir()
    (directory / 'a,"b.pot').write_text((corpus / "ball2.pot").read_text())
    assert main(["suite", str(directory), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    path = tmp_path / "suite_summary.csv"
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert rows and {row[0] for row in rows} == {'a,"b.pot'}
    assert path.read_bytes() == reference_csv_bytes(header, rows)
