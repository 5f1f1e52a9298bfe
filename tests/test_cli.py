import argparse
import csv
import math
import shutil
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from mafoliation import cli
from mafoliation.cli import _suite_grid_axis, build_parser, bundled_corpus_dir, main
from mafoliation.foliation import MAX_TRACE_STEPS
from mafoliation.gradient import gradient_field
from mafoliation.levi import fields_at_many, levi_scan
from mafoliation.potential import PolyPotential, format_potential, parse_potential_file
from mafoliation.sampling import MAX_GRID_POINTS, MAX_SAMPLES
from helpers import generated_potentials, product


@pytest.fixture(scope="module")
def corpus():
    return bundled_corpus_dir()


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_analyze_ball_clean(corpus, tmp_path, capsys):
    rc = main(
        ["analyze", str(corpus / "ball2.pot"), "--samples", "300", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "seed = 1234" in out
    assert "strict" in out and "(100.0%)" in out
    rows = _read_csv(tmp_path / "ball2_analyze.csv")
    assert len(rows) == 300
    assert set(rows[0]) >= {
        "rho",
        "re_detH",
        "im_detH",
        "stratum",
        "ma_residual",
        "ma_residual_scaled",
        "euler_residual",
    }
    assert max(float(r["ma_residual"]) for r in rows) < 1e-10


def test_analyze_euler_line_prints_the_threshold_applied(corpus, tmp_path, capsys):
    # only euler_ma_iff cuts the Euler residual, at IFF_TOL
    assert main(["analyze", str(corpus / "ball2.pot"), "--samples", "50", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    line = next(line for line in out.splitlines() if line.startswith("max euler_residual"))
    assert line.endswith("(threshold 1e-09)")


def test_each_subcommand_takes_only_the_options_it_reads():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: {a.dest for a in cmd._actions if a.option_strings and a.dest != "help"}
               for name, cmd in subparsers.choices.items()}
    assert options == {
        "analyze": {"seed", "samples", "box", "out"},
        "trace": {"seed", "step", "out", "base", "t_max", "t_nodes", "s_max", "s_nodes"},
        "weights": {"seed", "samples", "box", "out"},
        "burns": {"seed", "box", "out", "grid_n", "csv"},
        "suite": {"seed", "samples", "box", "out"},
    }
    assert sum(map(len, options.values())) == 25


@pytest.mark.parametrize("argv", [
    ["analyze", "--tol-rank", "1e-6"],
    ["analyze", "--tol-ma", "1e3"],
    ["burns", "--tol-ma", "1e3"],
    ["analyze", "--step", "0.1"],
    ["burns", "--samples", "10"],
    ["trace", "--base", "1+0i,0+0i", "--box", "1"],
])
def test_an_option_the_subcommand_does_not_read_exits_2(corpus, tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(corpus / "ball2.pot"), *argv[1:], "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, settings", [
    (["analyze", "ball2.pot", "--samples", "20"], "seed = 1234; samples = 20; box = 1.5"),
    (["weights", "ball2.pot", "--seed", "7"], "seed = 7; samples = 1000; box = 1.5"),
    (["burns", "ball2.pot", "--grid-n", "4", "--box", "2"], "seed = 1234; box = 2.0"),
    (["trace", "ball2.pot", "--base", "1+0i,0+0i", "--t-nodes", "3", "--s-nodes", "2"], "seed = 1234; step = 0.01"),
    (["suite", ".", "--samples", "20"], "seed = 1234; samples = 20; box = 1.5"),
])
def test_the_header_prints_the_settings_the_subcommand_takes(corpus, tmp_path, capsys, argv, settings):
    directory = tmp_path / "corpus"
    directory.mkdir()
    (directory / "ball2.pot").write_text((corpus / "ball2.pot").read_text())
    assert main([argv[0], str(directory / argv[1]), *argv[2:], "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == settings


def test_analyze_nonma_is_finding_not_failure(corpus, tmp_path, capsys):
    rc = main(
        ["analyze", str(corpus / "nonma.pot"), "--samples", "300", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0  # non-MA is a finding, analysis still succeeds
    rows = _read_csv(tmp_path / "nonma_analyze.csv")
    assert max(float(r["ma_residual"]) for r in rows) > 1e-3


def test_analyze_malformed_file_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.pot"
    bad.write_text("n = 2\nmonomial: a=[1,0 b=[1,0] c=1\n")
    rc = main(["analyze", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 2" in err


def test_analyze_missing_file_exit2(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "nope.pot")])
    assert rc == 2


def test_trace_weighted_diagnostics_pass(corpus, tmp_path, capsys):
    rc = main(
        [
            "trace",
            str(corpus / "weighted24.pot"),
            "--base",
            "1+0i,1+0i",
            "--t-nodes",
            "5",
            "--s-nodes",
            "9",
            "--out",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("ok ") >= 3
    rows = _read_csv(tmp_path / "weighted24_trace.csv")
    assert set(rows[0]) == {
        "t",
        "s",
        "re_z1",
        "im_z1",
        "re_z2",
        "im_z2",
        "rho",
        "abs_detH",
        "stratum",
    }


def test_trace_csv_deterministic(corpus, tmp_path, capsys):
    csvs = []
    for run in ("r1", "r2"):
        argv = ["trace", str(corpus / "weighted24.pot"), "--base", "1+0i,1+0i",
                "--t-nodes", "5", "--s-nodes", "9", "--out", str(tmp_path / run)]
        assert main(argv) == 0
        csvs.append((tmp_path / run / "weighted24_trace.csv").read_bytes())
    capsys.readouterr()
    assert csvs[0] == csvs[1]


def test_trace_base_of_another_dimension_exit2(corpus, tmp_path, capsys):
    rc = main(["trace", str(corpus / "ball2.pot"), "--base", "1+0i", "--out", str(tmp_path)])
    assert rc == 2
    assert "base point has 1 coordinates, potential has n = 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_trace_truncation_names_the_node_of_the_final_rho(corpus, tmp_path, capsys):
    # rho = e^t along the ball's leaf, so t = -30 lies below RHO_FLOOR and the
    # backward t sweep stops at -26.25; the largest kept t is the base's 0
    rc = main(["trace", str(corpus / "ball2.pot"), "--base", "1+0i,0+0i", "--t-max", "-30", "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert "note: trace truncated at the domain boundary" in lines
    t_values = {float(row["t"]) for row in _read_csv(tmp_path / "ball2_trace.csv")}
    assert (min(t_values), max(t_values)) == (-26.25, 0.0)
    assert lines[-1] == "final rho at (t = 0.0, s = 0.0): 1.0"


def test_trace_from_origin_exit2(corpus, capsys):
    rc = main(["trace", str(corpus / "weighted24.pot"), "--base", "0+0i,0+0i"])
    assert rc == 2


@pytest.mark.parametrize("step", ["0", "-0.01", "inf", "nan"])
def test_trace_step_not_finite_and_positive_exit2(corpus, tmp_path, capsys, step):
    # refused by argparse, as --box is, before the header is printed
    with pytest.raises(SystemExit) as exc:
        main(["trace", str(corpus / "weighted24.pot"), "--base", "1+0i,1+0i", f"--step={step}",
              "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert f"argument --step: must be a finite number > 0, got '{step}'" in err
    assert out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("step, extra", [("1e9", []), ("0.26", []), ("0.6", ["--t-nodes", "2", "--s-nodes", "13"])])
def test_trace_step_longer_than_a_node_interval_exit2(corpus, tmp_path, capsys, step, extra):
    # the smallest node interval is 0.25 in t by default (0.524 in s)
    rc = main(["trace", str(corpus / "weighted24.pot"), "--base", "1+0i,1+0i", f"--step={step}", *extra,
               "--out", str(tmp_path)])
    assert rc == 2
    assert "--step" in capsys.readouterr().err
    assert not (tmp_path / "weighted24_trace.csv").exists()


def test_trace_step_equal_to_the_node_interval_runs(corpus, tmp_path, capsys):
    rc = main(["trace", str(corpus / "weighted24.pot"), "--base", "1+0i,1+0i", "--step=0.25", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc != 2  # accepted; the diagnostics then judge the one step per interval
    assert (tmp_path / "weighted24_trace.csv").exists()


def test_trace_failing_diagnostic_exit1(corpus, tmp_path, capsys):
    # the growth law rho = e^t rho0 only holds for Monge-Ampere potentials, so
    # log-linearity fails on the counterexample
    rc = main(
        [
            "trace",
            str(corpus / "nonma.pot"),
            "--base",
            "1+0i,1+0i",
            "--t-max",
            "1",
            "--t-nodes",
            "3",
            "--s-nodes",
            "3",
            "--out",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_trace_ball_exponential_growth(corpus, tmp_path, capsys):
    rc = main(
        [
            "trace",
            str(corpus / "ball2.pot"),
            "--base",
            "1+0i,0+0i",
            "--t-max",
            "2",
            "--t-nodes",
            "3",
            "--s-nodes",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    final = float(out.split("final rho at (t = 2.0, s = 0.0):")[1].strip())
    assert final == pytest.approx(math.e**2, abs=1e-6)


def test_weights_weighted24(corpus, capsys):
    rc = main(["weights", str(corpus / "weighted24.pot"), "--samples", "100"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "c = (1, 0.5)" in out
    assert "unique" in out


def test_weights_nonma_certificate(corpus, capsys):
    rc = main(["weights", str(corpus / "nonma.pot")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "infeasible" in out
    assert "{c1 = 1, c2 = 1, c1 + c2 = 1}" in out


def test_weights_chain_n8_certificate_is_three_equations(tmp_path, capsys):
    # 15 equations in 8 unknowns; an irreducible certificate has at most n + 1 = 9
    pot = tmp_path / "chain_n8.pot"
    pot.write_text(format_potential(generated_potentials(7)["chain_n8"]))
    rc = main(["weights", str(pot), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "infeasible: equations {c1 = 1, c2 = 1, c1 + c2 = 1}" in out.splitlines()


@pytest.mark.parametrize("command", ["analyze", "weights", "burns"])
@pytest.mark.parametrize("body", ["", "monomial: a=[1,0] b=[1,0] c=1+0i\nmonomial: a=[1,0] b=[1,0] c=-1+0i\n"])
def test_potential_without_monomials_exit2(tmp_path, capsys, command, body):
    # weights used to print the empty certificate "equations {}", burns a
    # degree finding and analyze to sample 1000 batches of points with rho = 0
    pot = tmp_path / "empty.pot"
    pot.write_text("n = 2\n" + body)
    extra = {"analyze": ["--samples", "10"], "weights": [], "burns": ["--grid-n", "4"]}[command]
    rc = main([command, str(pot), "--out", str(tmp_path), *extra])
    captured = capsys.readouterr()
    assert rc == 2
    assert "no monomials" in captured.err
    assert captured.out == ""


def test_weights_not_positive_is_a_finding(tmp_path, capsys):
    # |z1|^2 + |z1^2 z2|^2: c1 = 1 and 2 c1 + c2 = 1 give the unique c = (1, -1)
    pot = tmp_path / "negative.pot"
    pot.write_text(format_potential(PolyPotential(2, {((1, 0), (1, 0)): 1, ((2, 1), (2, 1)): 1})))
    rc = main(["weights", str(pot), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "weights exist but not positive: c = (1, -1), unique" in out.splitlines()


@pytest.mark.parametrize("factors", [("ball2", "weighted24"), ("quartic_diag", "square_norm")], ids="x".join)
def test_weights_of_a_product_pass_the_linear_field_test(corpus, tmp_path, capsys, factors):
    # rho_1(z) rho_2(w) of two Monge-Ampere factors has a line of weights and
    # a singular H at every point, so the solved Z need not be c z: weights
    # read 2.454e+01 and 4.998e+01 when weights_field compared Z with c z, and exited 1
    pot = tmp_path / "product.pot"
    pot.write_text(format_potential(product(*(parse_potential_file(corpus / f"{name}.pot") for name in factors))))
    rc = main(["weights", str(pot), "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert any(line.startswith("c = (") and "non-unique" in line for line in lines)
    field = [line for line in lines if line.startswith("linear field residual")]
    assert len(field) == 1 and field[0].endswith(" ok")
    assert float(field[0].split("=")[1].split()[0]) < 1e-15


def test_weights_ball(corpus, capsys):
    rc = main(["weights", str(corpus / "ball2.pot"), "--samples", "50"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "c = (1, 1)" in out


@pytest.mark.parametrize("samples, applied", [(5000, 100), (50, 50)])
def test_weights_prints_the_sample_count_it_checks(corpus, capsys, monkeypatch, samples, applied):
    # the weight checks run on at most WEIGHT_CHECK_SAMPLES of --samples, and say so
    seen, checks = [], cli._weight_checks

    def counted(p, weights, pts):
        seen.append(len(pts))
        return checks(p, weights, pts)

    monkeypatch.setattr(cli, "_weight_checks", counted)
    rc = main(["weights", str(corpus / "ball2.pot"), "--samples", str(samples)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0 and seen == [applied]
    assert f"weight checks on {applied} samples (at most {cli.WEIGHT_CHECK_SAMPLES})" in lines
    assert f"seed = 1234; samples = {samples}; box = 1.5" in lines  # the settings as given


def test_burns_pass_and_fail_both_exit0(corpus, tmp_path, capsys):
    rc = main(
        ["burns", str(corpus / "square_norm.pot"), "--grid-n", "10", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict           : pass" in out

    rc = main(
        [
            "burns",
            str(corpus / "quartic_mixed.pot"),
            "--grid-n",
            "10",
            "--csv",
            "--out",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0  # a fail verdict is a finding, not an error
    assert "verdict           : fail" in out
    assert "(3,1): 0.5" in out
    rows = _read_csv(tmp_path / "quartic_mixed_burns.csv")
    assert max(float(r["ma_residual_scaled"]) for r in rows) > 1e-3


def test_suite_bundled_corpus(corpus, tmp_path, capsys):
    rc = main(["suite", str(corpus), "--samples", "200", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK: 0 failing checks" in out
    assert (tmp_path / "suite_summary.csv").exists()


def test_suite_empty_directory_exit2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["suite", str(empty)])
    assert rc == 2


def test_suite_on_a_file_exit2(corpus, tmp_path, capsys):
    rc = main(["suite", str(corpus / "ball2.pot"), "--out", str(tmp_path)])
    assert rc == 2
    assert "is not a directory" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_suite_determinism(corpus, tmp_path, capsys):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["suite", str(corpus), "--samples", "150", "--out", str(out1)]) == 0
    assert main(["suite", str(corpus), "--samples", "150", "--out", str(out2)]) == 0
    capsys.readouterr()
    b1 = (out1 / "suite_summary.csv").read_bytes()
    b2 = (out2 / "suite_summary.csv").read_bytes()
    assert b1 == b2


def test_suite_honors_expectation_metadata(tmp_path, capsys, nonma):
    # a corpus holding only the counterexample, declared expect-nonMA
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "nonma.pot").write_text(format_potential(nonma))
    (corpus / "expect.json").write_text('{"nonma.pot": {"ma": false, "weights": null}}')
    rc = main(["suite", str(corpus), "--samples", "150", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ma_fails" in out and "weights_infeasible" in out


def test_suite_grid_axis_fits_the_grid_limit():
    # today's axis wherever it fits, else the largest axis >= 2 that fits
    assert [_suite_grid_axis(n) for n in range(1, 6)] == [141, 11, 5, 4, 4]
    assert _suite_grid_axis(6) == 3
    assert _suite_grid_axis(8) == 2
    for n in range(1, 11):
        assert _suite_grid_axis(n) ** (2 * n) <= MAX_GRID_POINTS


def test_suite_burns_on_c6_ball(tmp_path, capsys):
    n = 6
    terms = {(e, e): 1 for e in (tuple(int(i == j) for i in range(n)) for j in range(n))}
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "ball6.pot").write_text(format_potential(PolyPotential(n, terms)))
    (corpus / "expect.json").write_text('{"ball6.pot": {"burns": "pass"}}')
    tracemalloc.start()
    try:
        rc = main(["suite", str(corpus), "--samples", "100", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert rc == 0
    assert "burns_verdict" in out
    assert peak < 200 * 10**6  # 3^12 grid points, streamed in chunks


def test_suite_weights_match_fails_beyond_its_threshold(tmp_path, capsys, ball2):
    # off by 5e-6, inside numpy's default rtol but 5,000 times the printed threshold
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "ball2.pot").write_text(format_potential(ball2))
    (corpus / "expect.json").write_text('{"ball2.pot": {"weights": [1.000005, 1.0]}}')
    rc = main(["suite", str(corpus), "--samples", "100", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "weights_match        FAIL measured=5.000e-06 threshold=1e-09" in out


def test_suite_flags_wrong_expectation(tmp_path, capsys, nonma):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "nonma.pot").write_text(format_potential(nonma))
    (corpus / "expect.json").write_text('{"nonma.pot": {"ma": true}}')
    rc = main(["suite", str(corpus), "--samples", "150", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 1


@pytest.mark.parametrize("body, message", [
    # a traceback (AttributeError: 'list' object has no attribute 'get'), exit 1
    ('[{"ball2.pot": {"ma": true}}]', "must be an object of per-file objects"),
    # a traceback from .get, exit 1
    ('{"ball2.pot": [true]}', '"ball2.pot" must map to an object, got [true]'),
    # numpy's "operands could not be broadcast together", exit 2 after the header
    ('{"ball2.pot": {"weights": [0.5, 0.5, 0.5]}}',
     '"ball2.pot" key "weights": must be null or a list of 2 finite numbers, got [0.5, 0.5, 0.5]'),
    # weights_match FAIL with measured=nan, exit 1
    ('{"ball2.pot": {"weights": [1.0, NaN]}}',
     '"ball2.pot" key "weights": must be null or a list of 2 finite numbers, got [1.0, NaN]'),
    # read as true: ma_holds, exit 0
    ('{"ball2.pot": {"ma": "yes"}}', '"ball2.pot" key "ma": must be true, false or null, got "yes"'),
    # read as an expected fail: burns_verdict FAIL, exit 1
    ('{"ball2.pot": {"burns": "maybe"}}', '"ball2.pot" key "burns": must be "pass", "fail" or null, got "maybe"'),
    # ignored: exit 0
    ('{"ball2.pot": {"mA": true}}', '"ball2.pot" has the unknown key "mA"; the keys are ma, weights and burns'),
    # exit 2, without the file's name
    ('{"ball2.pot": ', "Expecting value: line 1 column 15 (char 14)"),
], ids=["list", "entry-not-object", "weights-length", "weights-nan", "ma-string", "burns-string", "unknown-key",
        "not-json"])
def test_suite_refuses_a_malformed_expect_json_exit2(corpus, tmp_path, capsys, body, message):
    directory = tmp_path / "corpus"
    directory.mkdir()
    shutil.copy(corpus / "ball2.pot", directory)
    (directory / "expect.json").write_text(body)
    rc = main(["suite", str(directory), "--samples", "50", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {directory / 'expect.json'}: {message}"]
    assert not (tmp_path / "out").exists()


def test_suite_refuses_an_expect_json_entry_without_its_file_exit2(corpus, tmp_path, capsys):
    # a misspelled name used to drop that file's expectations: exit 0 with "OK: 0 failing checks"
    directory = tmp_path / "corpus"
    directory.mkdir()
    shutil.copy(corpus / "ball2.pot", directory)
    (directory / "expect.json").write_text('{"bal2.pot": {"ma": false}}')
    rc = main(["suite", str(directory), "--samples", "50", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f'error: {directory / "expect.json"}: "bal2.pot" names no .pot file in {directory}']
    assert not (tmp_path / "out").exists()


def test_suite_entry_of_a_file_that_does_not_parse_is_its_parse_record(tmp_path, capsys):
    directory = tmp_path / "corpus"
    directory.mkdir()
    (directory / "bad.pot").write_text("n = 2\nmonomial: a=[1,0 b=[1,0] c=1\n")
    (directory / "expect.json").write_text('{"bad.pot": {"ma": true, "weights": [1.0, 1.0]}}')
    rc = main(["suite", str(directory), "--samples", "50", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "bad.pot: parse error:" in out
    assert (tmp_path / "suite_summary.csv").read_text().splitlines()[1:] == ["bad.pot,parse,fail,,0.0"]


def test_analyze_csv_determinism(corpus, tmp_path, capsys):
    out1 = tmp_path / "a1"
    out2 = tmp_path / "a2"
    for out in (out1, out2):
        assert (
            main(
                [
                    "analyze",
                    str(corpus / "weighted24.pot"),
                    "--samples",
                    "200",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    capsys.readouterr()
    assert (out1 / "weighted24_analyze.csv").read_bytes() == (
        out2 / "weighted24_analyze.csv"
    ).read_bytes()


def _csv_points(rows, dim):
    return np.array(
        [[complex(float(r[f"re_z{j + 1}"]), float(r[f"im_z{j + 1}"])) for j in range(dim)] for r in rows]
    )


def _column(rows, name):
    return np.array([float(r[name]) for r in rows])


def _assert_close(got, want, scale=None):
    # 1e-12 relative to the magnitude of the column (or of the given scale)
    scale = np.max(np.abs(want if scale is None else scale))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


# nonma is stopped by the homogeneity gate, so its CSV takes the other path
@pytest.mark.parametrize("name", ["square_norm", "quartic_mixed", "nonma"])
def test_burns_csv_matches_fresh_evaluation(corpus, tmp_path, capsys, name):
    pot = corpus / f"{name}.pot"
    assert main(["burns", str(pot), "--grid-n", "10", "--csv", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    p = parse_potential_file(pot)
    rows = _read_csv(tmp_path / f"{name}_burns.csv")
    pts = _csv_points(rows, p.dim)
    rho = p.evaluate_many(pts).real
    raw, scaled = levi_scan(p, pts).ma[1:]
    assert len(rows) == 10 ** (2 * p.dim) and np.all(rho > 1e-12)
    _assert_close(_column(rows, "rho"), rho)
    _assert_close(_column(rows, "ma_residual"), raw)
    _assert_close(_column(rows, "ma_residual_scaled"), scaled)


@pytest.mark.parametrize("argv, csv_name", [
    (["analyze", "--samples", "50"], "ball2_analyze.csv"),
    (["burns", "--grid-n", "4", "--csv"], "ball2_burns.csv"),
    (["burns", "--grid-n", "4", "--csv", "--box", "1e-7"], "ball2_burns.csv"),  # no kept point: the header only
], ids=["analyze", "burns", "burns-no-kept-point"])
def test_a_streamed_csv_is_created_by_its_first_block(corpus, tmp_path, capsys, argv, csv_name):
    # the first block writes the header into a new file and the others append,
    # so a second run into the same directory writes the same bytes
    command, *options = argv
    written = []
    for _ in range(2):
        main([command, str(corpus / "ball2.pot"), *options, "--out", str(tmp_path / "out")])
        capsys.readouterr()
        written.append((tmp_path / "out" / csv_name).read_bytes())
    assert written[0] == written[1] and written[0].count(b"\n") > 0
    if "1e-7" in options:
        assert written[0] == b"re_z1,im_z1,re_z2,im_z2,rho,ma_residual,ma_residual_scaled\n"


@pytest.mark.parametrize("name", ["weighted24", "nonma"])
def test_analyze_euler_residual_matches_gradient_field(corpus, tmp_path, capsys, name):
    pot = corpus / f"{name}.pot"
    assert main(["analyze", str(pot), "--samples", "200", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    p = parse_potential_file(pot)
    rows = _read_csv(tmp_path / f"{name}_analyze.csv")
    pts = _csv_points(rows, p.dim)
    rho, grad, _ = fields_at_many(p, pts)
    euler = np.abs(np.einsum("ni,ni->n", gradient_field(p, pts), grad) - rho)
    # |Z(rho) - rho| is rounding noise on MA potentials: compare on the scale of rho
    _assert_close(_column(rows, "euler_residual"), euler, rho)


def test_burns_default_grid_on_c3_refused(corpus, tmp_path, capsys):
    # 20 points per axis on C^3 would be 64M points built up front
    rc = main(["burns", str(corpus / "ball3.pot"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "20^6 = 64000000 points exceeds the limit of 1048576" in err
    assert "burns --grid-n" in err


@pytest.mark.parametrize("box", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("command", ["analyze", "weights", "burns", "suite"])
def test_box_not_finite_and_positive_exit2(corpus, tmp_path, capsys, command, box):
    # inf and nan used to die in the sampler with a traceback (exit 1); burns
    # passed on a grid where it kept no point
    target = corpus if command == "suite" else corpus / "ball2.pot"
    with pytest.raises(SystemExit) as exc:
        main([command, str(target), "--box", box, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument --box: must be a finite number > 0, got '{box}'" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["analyze", "weights", "suite"])
def test_a_box_whose_rho_squared_overflows_is_refused_in_one_line(corpus, tmp_path, capsys, command):
    # analyze and weights printed numpy RuntimeWarnings, then exit 2 with
    # "could not collect 50 admissible samples"; burns' bound now guards all four
    target, name = (corpus, "ball2.pot") if command == "suite" else (corpus / "ball2.pot", "this potential")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, str(target), "--box", "1e200", "--samples", "50", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"error: --box 1e+200 is too large for {name}: |rho| in the box may reach 1e401, "
                   f"whose square overflows a float; use a smaller box ({command} --box)\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, box, target, message", [
    ("analyze", "1e60", "ball2.pot", "--box 1e+60 is too large for this potential: |rho| in the box may reach 1e121"),
    ("suite", "1e40", None, "--box 1e+40 is too large for ball3.pot: |rho| in the box may reach 1e81"),
])
def test_a_box_whose_rho_power_n_plus_1_overflows_is_refused_in_one_line(
        corpus, tmp_path, capsys, command, box, target, message):
    # det_lemma forms rho^(n+1): below the rho^2 bound these printed numpy
    # RuntimeWarnings, and analyze read det_lemma nan and exit 1, suite stopped
    # at nonma.pot with exit 2 and no summary. suite checks every box first
    target = corpus if target is None else corpus / target
    n = 3 if command == "suite" else 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, str(target), "--box", box, "--samples", "50", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err == (f"error: {message}, whose power n + 1 = {n + 1} overflows a float; "
                   f"use a smaller box ({command} --box)\n")
    assert out == ""
    assert not list(tmp_path.iterdir())


def test_a_box_just_inside_the_rho_power_bound_is_not_refused(corpus, tmp_path, capsys):
    # ball2 = |z1|^2 + |z2|^2 has M = 4 box^2, and analyze needs M^3 finite
    edge = math.sqrt(sys.float_info.max ** (1 / 3) / 4)
    p = parse_potential_file(corpus / "ball2.pot")
    with pytest.raises(ValueError, match="power n \\+ 1 = 3"):
        cli._check_box(p, edge * (1 + 1e-9), "analyze")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["analyze", str(corpus / "ball2.pot"), "--box", repr(edge * (1 - 1e-9)), "--samples", "50",
                   "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc != 2 and err == ""
    assert "invariant det_lemma" in out and (tmp_path / "ball2_analyze.csv").exists()


@pytest.mark.parametrize("samples", ["-5", "0"])
@pytest.mark.parametrize("command, target", [("analyze", "ball2.pot"), ("weights", "nonma.pot"),
                                             ("weights", "ball2.pot"), ("suite", None)],
                         ids=["analyze", "weights-nonma", "weights-ball2", "suite"])
def test_samples_below_one_exit2(corpus, tmp_path, capsys, command, target, samples):
    # refused by argparse, as --box is. analyze -5 used to scan 59 points (the
    # first 64-row batch cut at [:-5]); weights printed "infeasible" on nonma
    # and exited 0, and the weights of ball2 before exit 2; analyze and suite
    # printed their header first
    with pytest.raises(SystemExit) as exc:
        main([command, str(corpus / target if target else corpus), "--samples", samples, "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert [line for line in err.splitlines() if "error" in line] == [
        f"mafoliation {command}: error: argument --samples: must be an integer >= 1, got '{samples}'"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["analyze", "suite", "weights"])
def test_samples_above_the_limit_exit2(corpus, tmp_path, capsys, command):
    # refused by argparse, as --samples 0 is; analyze and suite used to print
    # their header and settings lines before sample_domain refused it
    target = corpus if command == "suite" else corpus / "ball2.pot"
    with pytest.raises(SystemExit) as exc:
        main([command, str(target), "--samples", str(MAX_SAMPLES + 1), "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert [line for line in err.splitlines() if "error" in line] == [
        f"mafoliation {command}: error: argument --samples: must be at most {MAX_SAMPLES}, got '{MAX_SAMPLES + 1}'"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("extra", [[], ["--csv"]])
@pytest.mark.parametrize("grid_n", ["0", "1"])
def test_burns_grid_below_two_per_axis_exit2(tmp_path, capsys, grid_n, extra):
    # |z1|^4 + 3|z1|^2|z2|^2 + |z2|^4 passes every degree gate, so an empty
    # grid used to reach a verdict on 0 points
    pot = tmp_path / "homog22.pot"
    terms = {((2, 0), (2, 0)): 1, ((1, 1), (1, 1)): 3, ((0, 2), (0, 2)): 1}
    pot.write_text(format_potential(PolyPotential(2, terms)))
    rc = main(["burns", str(pot), "--grid-n", grid_n, "--out", str(tmp_path), *extra])
    captured = capsys.readouterr()
    assert rc == 2
    assert "burns --grid-n" in captured.err
    assert "verdict" not in captured.out


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--t-max", "inf"], "--t-max must be finite, got inf"),
        (["--s-max=-inf"], "--s-max must be finite, got -inf"),
        (["--t-max", "nan"], "--t-max must be finite, got nan"),
        # (2 + 2 pi) / 1e-300 and (2 + 1e7) / 0.01 RK4 steps
        (["--step", "1e-300"], "--t-max 2 and --s-max 6.28319 at --step 1e-300 take 8.28e+300 RK4 steps"),
        (["--s-max", "1e7"], f"take 1e+09 RK4 steps, above the limit of {MAX_TRACE_STEPS}; use a larger --step"),
        # many nodes do not lift the limit: 4e4 / 0.01 steps in 255 segments of 1,569
        (["--t-max", "4e4", "--t-nodes", "256"], f"take 4e+06 RK4 steps, above the limit of {MAX_TRACE_STEPS}"),
        # a count below 1 used to print the header, then blame the domain (0)
        # or reach np.linspace (-1); so did a non-finite base (the s sweep)
        (["--t-nodes", "0"], "--t-nodes must be at least 1, got 0"),
        (["--t-nodes=-1"], "--t-nodes must be at least 1, got -1"),
        (["--s-nodes", "0"], "--s-nodes must be at least 1, got 0"),
        (["--s-nodes=-1"], "--s-nodes must be at least 1, got -1"),
        (["--base", "nan+0i,0+0i"], "--base must be finite, got nan+0i,0+0i"),
        (["--base=1+0i,-inf+0i"], "--base must be finite, got 1+0i,-inf+0i"),
        # an infinite imaginary part used to be read as inf1j, a malformed string
        (["--base", "1+0i,0+infi"], "--base must be finite, got 1+0i,0+infi"),
        (["--base=-inf-infi,0"], "--base must be finite, got -inf-infi,0"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_trace_refuses_what_it_cannot_finish_exit2(corpus, tmp_path, capsys, extra, message):
    rc = main(["trace", str(corpus / "ball2.pot"), "--base", "1+0i,0+0i", *extra, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""  # refused before the header
    assert not (tmp_path / "ball2_trace.csv").exists()


@pytest.mark.parametrize("name, base", [("ball2", "1e160+0i,0+0i"), ("weighted24", "1e200+0i,0+0i")])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_trace_refuses_a_base_whose_rho_is_not_finite_exit2(corpus, tmp_path, capsys, name, base):
    # a finite base whose rho overflows used to print the header, numpy's
    # overflow warnings and "rho(z) = nan <= 0; outside the domain"
    rc = main(["trace", str(corpus / f"{name}.pot"), "--base", base, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: rho(z) = nan at --base {base} is not finite; use a base nearer the origin"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["analyze", "weights", "burns", "trace"])
@pytest.mark.parametrize("body, message", [
    ("c=inf+0i", "line 2: coefficient 'inf+0i' is not finite"),
    ("c=1e308\na=[1,0] b=[1,0] c=1e308", "line 3: coefficient '1e308' overflows the sum of its key"),
], ids=["inf", "overflow"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_coefficient_that_is_not_finite_exit2(tmp_path, capsys, command, body, message):
    # these used to warn and fail to sample (analyze, weights), print an
    # infinite bidegree mass (burns) or blame the domain (trace)
    path = tmp_path / "bad.pot"
    path.write_text(f"n = 2\na=[1,0] b=[1,0] {body}\na=[0,1] b=[0,1] c=1\n", encoding="utf-8")
    extra = ["--base", "1+0i,0+0i"] if command == "trace" else []
    rc = main([command, str(path), *extra, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", ["--t-nodes", "--s-nodes"])
def test_trace_node_count_limit_exit2(corpus, tmp_path, capsys, monkeypatch, option):
    monkeypatch.setattr(cli, "MAX_TRACE_NODES", 13)  # the default --s-nodes
    base = ["trace", str(corpus / "ball2.pot"), "--base", "1+0i,0+0i", "--out", str(tmp_path)]
    assert main([*base, option, "14"]) == 2
    err = capsys.readouterr().err
    assert f"{option} 14 exceeds the limit of 13 nodes" in err and "Traceback" not in err
    assert main([*base, "--t-nodes", "13", "--s-nodes", "13"]) == 0


def test_trace_step_limit_is_on_the_whole_trace(corpus, tmp_path, monkeypatch):
    # (|t_max| + |s_max|) / step against the limit, whatever the node counts
    monkeypatch.setattr(cli, "MAX_TRACE_STEPS", 828)  # the default trace: (2 + 2 pi) / 0.01 = 828.3 steps
    base = ["trace", str(corpus / "ball2.pot"), "--base", "1+0i,0+0i", "--out", str(tmp_path)]
    assert main(base) == 2
    assert main([*base, "--t-nodes", "256", "--s-nodes", "256"]) == 2
    assert main([*base, "--t-max", "1.9", "--t-nodes", "2", "--s-nodes", "2"]) == 0
