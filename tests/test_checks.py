"""Every check line the commands print on the bundled corpus is its record.

Each command runs in-process while every CheckOutcome it builds is recorded.
A printed line is matched to the next record of its check, and its pass or
fail is re-derived from the record's full-precision measured value, its
threshold and the comparison of its entry in the check table.
"""

import json
import operator
import re

import pytest

from mafoliation import cli, thresholds
from mafoliation.burns import burns_check
from mafoliation.cli import _suite_grid_axis, bundled_corpus_dir, main
from mafoliation.potential import format_potential, parse_potential_file
from mafoliation.sampling import real_grid
from mafoliation.thresholds import CHECKS

CORPUS = bundled_corpus_dir()
NAMES = sorted(path.stem for path in CORPUS.glob("*.pot"))
OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, "==": operator.eq}
NUM = r"(n/a|[-+0-9.e]+|nan|inf)"

# (pattern, check name or None for the name group); groups: mark?, measured, threshold.
# Measured values print as .3e, but for the positivity margin (.6g).
LINES = [
    (rf"^max ma_residual\s+= \S+ \(scaled {NUM}, threshold (\S+)\)$", "ma_residual_scaled"),
    (rf"^max euler_residual\s+= {NUM} \(threshold (\S+)\)$", "euler_residual"),
    (rf"^invariant (\w+)\s+(ok|FAIL)\s+measured={NUM} threshold=(\S+)$", None),
    (rf"^(log_linearity|level_set_invariance|stratum_invariance)\s+(ok|FAIL)\s+measured={NUM} threshold=(\S+)$", None),
    (rf"^homogeneity residual\s+= {NUM} \(threshold (\S+)\) (ok|FAIL)$", "weights_verify"),
    (rf"^linear field residual\s+= {NUM} \(threshold (\S+)\) (ok|FAIL)$", "weights_field"),
    (rf"^max \|det U\|\s+: \S+ \(scaled {NUM}, threshold (\S+)\)$", "ma_residual_scaled"),
    (rf"^positivity margin : {NUM} \(.*threshold > (\S+)\)$", "positivity_margin"),
    (rf"^radial residual   : {NUM} \(max \|\|H\^T \(w/k\) - conj\(grad\)\|\| / max\(1, \|\|grad\|\|\), threshold (\S+) on pass\)$",
     "radial_field_residual"),
    (rf"^\S+\.pot\s+(\w+)\s+(ok|FAIL)\s+measured={NUM} threshold=(\S+) \[\d+\.\d+s\]$", None),
]


@pytest.fixture
def recorded(monkeypatch):
    """Run main(argv) and return (exit code, stdout lines, records in build order)."""
    original = thresholds.CheckOutcome

    def run(argv, capsys):
        records = []

        def record(*args, **kwargs):
            records.append(original(*args, **kwargs))
            return records[-1]

        monkeypatch.setattr(thresholds, "CheckOutcome", record)
        monkeypatch.setattr(cli, "CheckOutcome", record)
        rc = main(argv)
        return rc, capsys.readouterr().out.splitlines(), records

    return run


def _parse(line):
    """(check name, mark or None, measured text, threshold text, measured format) of a check line, or None."""
    for pattern, name in LINES:
        found = re.match(pattern, line)
        if not found:
            continue
        groups = list(found.groups())
        if name is None:
            name = groups.pop(0)
        mark = next((g for g in groups if g in ("ok", "FAIL")), None)
        measured, threshold = [g for g in groups if g not in ("ok", "FAIL")]
        return name, mark, measured, threshold, ".6g" if name == "positivity_margin" else ".3e"
    return None


def _burns_verdict_ok(pot):
    """burns_verdict re-derived from the BurnsReport of the suite's grid."""
    p = parse_potential_file(CORPUS / pot)
    report = burns_check(p, real_grid(p.dim, _suite_grid_axis(p.dim), 1.5))
    expected = json.loads((CORPUS / "expect.json").read_text())[pot]["burns"]
    return report.verdict == (expected == "pass") and report.internal_failure is None, report


def _check_lines(lines, records):
    """Match every check line to its record and re-derive its outcome; returns the records matched."""
    unused = list(records)
    matched = 0
    for line in lines:
        parsed = _parse(line)
        if parsed is None:
            continue
        name, mark, measured, threshold, fmt = parsed
        rec = next((r for r in unused if r.name == name), None)
        if rec is None:  # burns' radial line on a fail verdict: a measurement, not a check
            assert name == "radial_field_residual", line
            assert threshold == f"{thresholds.Z_SOLVE_TOL:.0e}", line
            continue
        unused.remove(rec)
        matched += 1
        assert measured == ("n/a" if rec.measured is None else format(rec.measured, fmt)), line
        assert threshold in (f"{rec.threshold:g}", f"{rec.threshold:.0e}"), line
        if name == "burns_verdict":
            ok, report = _burns_verdict_ok(line.split()[0])
            gate = report.gate("ma_residual_scaled")
            assert rec.measured == (gate and gate.measured) and rec.threshold == thresholds.VERDICT_MA_TOL, line
            assert rec.status == ("pass" if ok else "fail"), line
        else:
            entry = CHECKS[name]
            assert rec.threshold_name == entry.threshold, line
            assert rec.threshold == getattr(thresholds, entry.threshold), line
            ok = rec.measured is not None and OPS[entry.op](rec.measured, rec.threshold)
            assert rec.status == ("pass" if ok else "finding" if entry.finding else "fail"), line
        if mark is not None:
            assert mark == ("ok" if rec.status == "pass" else "FAIL"), line
    return matched


def _exit_rule(records):
    return int(any(r.status == "fail" for r in records))


@pytest.mark.parametrize("name", NAMES)
def test_analyze_lines_are_records(name, tmp_path, capsys, recorded):
    rc, lines, records = recorded(["analyze", str(CORPUS / f"{name}.pot"), "--out", str(tmp_path)], capsys)
    assert _check_lines(lines, records) == 7
    assert rc == _exit_rule(records) == 0


def test_trace_lines_are_records(tmp_path, capsys, recorded):
    argv = ["trace", str(CORPUS / "weighted24.pot"), "--base", "1+0i,1+0i", "--out", str(tmp_path)]
    rc, lines, records = recorded(argv, capsys)
    assert _check_lines(lines, records) == 3
    assert rc == _exit_rule(records) == 0


@pytest.mark.parametrize("name, count", [("weighted24", 2), ("nonma", 0)])
def test_weights_lines_are_records(name, count, tmp_path, capsys, recorded):
    rc, lines, records = recorded(["weights", str(CORPUS / f"{name}.pot"), "--out", str(tmp_path)], capsys)
    assert _check_lines(lines, records) == count == len(records)
    assert rc == _exit_rule(records) == 0


@pytest.mark.parametrize("name", NAMES)
def test_burns_lines_are_records(name, tmp_path, capsys, recorded):
    grid_n = "6" if name == "ball3" else "12"
    argv = ["burns", str(CORPUS / f"{name}.pot"), "--grid-n", grid_n, "--out", str(tmp_path)]
    rc, lines, records = recorded(argv, capsys)
    assert _check_lines(lines, records) == len(records)
    assert rc == _exit_rule(records) == 0
    assert not [line for line in lines if re.search(r"\b(nan|inf)\b", line)]


def test_suite_lines_are_records(tmp_path, capsys, recorded):
    rc, lines, records = recorded(["suite", str(CORPUS), "--out", str(tmp_path)], capsys)
    suite_lines = [line for line in lines if re.match(r"^\S+\.pot\s", line)]
    assert _check_lines(suite_lines, records) == len(suite_lines) > 0
    assert rc == _exit_rule(records) == 0
    assert not [line for line in lines if re.search(r"\b(nan|inf)\b", line)]
    summary = (tmp_path / "suite_summary.csv").read_text()
    assert not re.search(r",(nan|inf),", summary)
    # a degree gate stops burns on these two before the Monge-Ampere gate runs
    assert re.findall(r"^(\S+),burns_verdict,pass,,1e-08$", summary, re.M) == ["nonma.pot", "weighted24.pot"]


def test_suite_parse_error_is_a_failed_record_without_a_value(tmp_path, capsys, recorded):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "bad.pot").write_text("n = 2\nmonomial: a=[1,0 b=[1,0] c=1\n")
    rc, lines, records = recorded(["suite", str(corpus), "--samples", "50", "--out", str(tmp_path)], capsys)
    bad = [line for line in lines if line.startswith("bad.pot ")]
    assert len(bad) == 1 and re.fullmatch(r"bad\.pot +parse +FAIL measured=n/a threshold=0 \[\d+\.\d+s\]", bad[0])
    assert _check_lines(lines, records) == len(records) == 1
    assert rc == _exit_rule(records) == 1
    assert (tmp_path / "suite_summary.csv").read_text().splitlines()[1] == "bad.pot,parse,fail,,0.0"


def test_suite_weights_match_without_weights_is_a_failed_record_without_a_value(tmp_path, capsys, recorded, nonma):
    # nonma has no weight vector, so the expected one is never compared
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "nonma.pot").write_text(format_potential(nonma))
    (corpus / "expect.json").write_text('{"nonma.pot": {"weights": [1.0, 1.0]}}')
    rc, lines, records = recorded(["suite", str(corpus), "--samples", "50", "--out", str(tmp_path)], capsys)
    match = [line for line in lines if " weights_match " in line]
    assert len(match) == 1 and re.fullmatch(
        r"nonma\.pot +weights_match +FAIL measured=n/a threshold=1e-09 \[\d+\.\d+s\]", match[0])
    assert _check_lines(lines, records) == len(records)
    assert rc == _exit_rule(records) == 1
    assert "nonma.pot,weights_match,fail,,1e-09" in (tmp_path / "suite_summary.csv").read_text().splitlines()


@pytest.mark.parametrize("name", ["ma_residual_scaled", "ma_holds"])
def test_a_ma_residual_at_the_threshold_fails(name):
    # one comparison for the Monge-Ampere check: below the threshold passes, at it does not
    at = thresholds.outcome(name, thresholds.VERDICT_MA_TOL, 0.0)
    below = thresholds.outcome(name, thresholds.VERDICT_MA_TOL * (1 - 1e-15), 0.0)
    nan = thresholds.outcome(name, float("nan"), 0.0)
    assert below.status == "pass"
    assert at.status == nan.status == ("finding" if name == "ma_residual_scaled" else "fail")
    assert CHECKS[name].op == "<"
