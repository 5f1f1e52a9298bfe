"""The blocked sampled scan of analyze and suite: its outputs do not depend on
the block size, and its memory does not grow with the samples' jets."""

import os
import re
import shutil
import tracemalloc

import numpy as np

from mafoliation import cli, potential
from mafoliation.cli import (
    ScanConfig,
    _analyze_scan,
    _internal_invariants,
    _invariant_records,
    bundled_corpus_dir,
    main,
)
from mafoliation.levi import levi_scan
from mafoliation.potential import format_potential
from mafoliation.sampling import MAX_SAMPLES, sample_domain

_WALL = re.compile(r" \[\d+\.\d+s\]")


def test_analyze_and_suite_do_not_depend_on_the_block_size(bundled_and_generated, tmp_path, capsys, monkeypatch):
    """Equal analyze CSV bytes and stdout, suite stdout and summary bytes
    without wall times, and _analyze_scan arrays at the default block size
    and at 7 and 1 rows per block. 250 samples cross det_lemma's first 200 in
    the middle of a 7-row block. The n = 8 inputs are left out unless
    OPENBLAS_NUM_THREADS is "1", as in the burns chunk-size test: a threaded
    BLAS may sum their jet products in another order by batch size."""
    one_thread = os.environ.get("OPENBLAS_NUM_THREADS") == "1"
    inputs = {name: p for name, p in bundled_and_generated.items() if p.dim < 8 or one_thread}
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, p in inputs.items():
        (corpus / f"{name}.pot").write_text(format_potential(p))
    shutil.copy(bundled_corpus_dir() / "expect.json", corpus)
    by_size = {}
    for size in (None, 7, 1):
        if size is not None:
            monkeypatch.setattr(cli, "_scan_block_rows", lambda p, rows=size: rows)
        out = tmp_path / f"out{size}"
        outputs = []
        for name, p in inputs.items():
            rc = main(["analyze", str(corpus / f"{name}.pot"), "--samples", "250", "--out", str(out)])
            stdout = capsys.readouterr().out.replace(str(out), "<out>")
            scan = _analyze_scan(p, ScanConfig(samples=250))
            outputs.append((name, rc, stdout, (out / f"{name}_analyze.csv").read_bytes(),
                            [array.tobytes() for array in scan]))
        rc = main(["suite", str(corpus), "--samples", "250", "--out", str(out)])
        stdout = _WALL.sub("", capsys.readouterr().out.replace(str(out), "<out>"))
        outputs.append(("suite", rc, stdout, (out / "suite_summary.csv").read_bytes()))
        by_size[size] = outputs
    assert by_size[7] == by_size[None]
    assert by_size[1] == by_size[None]


def test_the_invariant_fold_over_blocks_is_the_fold_of_one_block(bundled_and_generated):
    """The five invariants folded over 7-row blocks of 1,000 samples equal
    them on the samples as one block, det_lemma on the first 200 only: the
    maxima of 800 more samples would differ on some input."""
    one_thread = os.environ.get("OPENBLAS_NUM_THREADS") == "1"
    for name, p in bundled_and_generated.items():
        if p.dim == 8 and not one_thread:
            continue
        pts, _, _, _, euler = _analyze_scan(p, ScanConfig())
        whole, blocked = {}, {}
        _internal_invariants(p, 0, levi_scan(p, pts), euler, whole)
        for start in range(0, len(pts), 7):
            _internal_invariants(p, start, levi_scan(p, pts[start : start + 7]), euler[start : start + 7], blocked)
        records = [_invariant_records(folded) for folded in (whole, blocked)]
        assert [(oc.name, oc.status, oc.measured) for oc in records[1]] == [
            (oc.name, oc.status, oc.measured) for oc in records[0]], name


def test_scan_block_rows_follow_the_byte_budget(bundled_and_generated, monkeypatch):
    # 16 bytes for each of ball3's 7 monomials, 13 jet columns and 9 entries of U
    assert cli._scan_block_rows(bundled_and_generated["ball3"]) == potential.TABLE_BLOCK_BYTES // 464
    rows = {name: cli._scan_block_rows(p) for name, p in bundled_and_generated.items()}
    assert rows["normsq_n8"] < rows["normsq_n4"] < rows["ball3"] < rows["ball2"]
    monkeypatch.setattr(potential, "TABLE_BLOCK_BYTES", 1)
    assert {cli._scan_block_rows(p) for p in bundled_and_generated.values()} == {1}


def test_analyze_at_the_sample_limit_holds_no_whole_jet(tmp_path, capsys):
    # the whole-batch scan traced 98.3 MiB here; the blocked scan keeps the
    # samples and four per-sample vectors (5 MiB) and one block's jet
    tracemalloc.start()
    try:
        rc = main(["analyze", str(bundled_corpus_dir() / "ball3.pot"), "--samples", str(2**16),
                   "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert rc == 0
    assert peak < 24 * 2**20
    with open(tmp_path / "ball3_analyze.csv", "rb") as fh:
        assert sum(1 for _ in fh) == 2**16 + 1


def test_sampling_at_the_sample_limit_holds_no_whole_monomial_table(bundled_and_generated):
    # rho over one batch of 2^16 points of normsq_n8 (36 monomials) traced
    # 46.7 MiB with its whole monomial table; the evaluator takes each
    # block's product before it fills the next
    p = bundled_and_generated["normsq_n8"]
    tracemalloc.start()
    try:
        pts = sample_domain(p, MAX_SAMPLES, 1.5, np.random.default_rng(1234))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pts.shape == (MAX_SAMPLES, 8)
    assert peak < 32 * 2**20
