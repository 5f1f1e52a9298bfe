"""Command-line driver: file-driven scans with seeded, reproducible output.

Commands
--------
analyze   per-sample Levi/gradient scan with stratum census and residual summary
trace     integrate one foliation leaf and run its diagnostics
weights   homogeneity weight recovery with residual verification
burns     bidegree-(k,k) verdict on a real grid
suite     run the invariant suite over a directory of potential files

Exit codes: 0 clean, 1 failed check or internal invariant, 2 input/usage
error. CSV columns are fixed (see --help of each command); identical seeds
and configs give byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

import numpy as np

from .burns import burns_check
from .foliation import IntegratorConfig, leaf_log_linearity, leaf_stratum_invariance, level_set_invariance, trace_leaf
from .gradient import _solve_z
from .homogeneity import (
    analyze_weights,
    default_lambda_samples,
    linear_field_agreement,
    verify_weights,
)
from .levi import levi_scan, log_levi_form, ma_from_fields, rank_identity
from .potential import PotentialFormatError, parse_complex, parse_potential_file
from .sampling import MAX_GRID_POINTS, real_grid, sample_domain
from .thresholds import (
    DEFAULT_STEP, DEFAULT_TOL_RANK, DET_LEMMA_TOL, DET_REAL_TOL, HERMITIAN_EVAL_TOL, HESSIAN_SYMMETRY_TOL, IFF_TOL,
    NON_MA_FLOOR, TRACE_LEVEL_TOL, TRACE_LOG_LIN_TOL, VERDICT_MA_TOL, WEIGHT_FIELD_TOL, WEIGHT_VERIFY_TOL, WEIGHTS_MATCH_TOL,
)

_CSV_BLOCK_ROWS = 16_384  # rows joined per write, to bound the memory of one write


@dataclass
class ScanConfig:
    box_radius: float = 1.5
    samples: int = 1000
    rng_seed: int = 1234
    tol_rank: float = DEFAULT_TOL_RANK
    tol_ma: float = VERDICT_MA_TOL
    step: float = DEFAULT_STEP
    out_dir: Path = Path(".")


@dataclass
class CheckOutcome:
    name: str
    status: str          # pass | fail | skip
    measured: float
    threshold: float
    wall: float


def _outcome(name, ok, measured, threshold, t0):
    """Pass/fail outcome of a check that started at perf_counter() == t0."""
    return CheckOutcome(name, "pass" if ok else "fail", measured, threshold, time.perf_counter() - t0)


def _csv_field(text):
    """text as csv.writer (QUOTE_MINIMAL) writes it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _cells(col):
    """The cell strings of one column, each distinct value formatted once.

    A float ndarray gives repr(float(x)), Python's shortest round-trip form,
    keyed on the bit pattern because np.unique on floats merges -0.0 with 0.0
    and collapses NaNs. Any other sequence gives str(x), quoted as csv.writer
    quotes it.
    """
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        bits = np.ascontiguousarray(col, dtype=np.float64).view(np.int64)
        keys, inverse = np.unique(bits, return_inverse=True)
        text = np.empty(len(keys), dtype=object)
        text[:] = list(map(repr, keys.view(np.float64).tolist()))
        return text[inverse]
    quoted = {v: _csv_field(str(v)) for v in set(col)}
    return [quoted[v] for v in col]


def _write_csv(out, header, *columns):
    """Write the header (unless None) and the rows of the equal-length columns
    (see _cells), byte for byte as csv.writer with lineterminator "\n" would.

    out is a path, or a text file opened with newline="" that further calls
    append to (burns --csv writes one call per grid chunk).
    """
    opened = contextlib.nullcontext(out) if hasattr(out, "write") else open(out, "w", newline="", encoding="utf-8")
    with opened as fh:
        if header is not None:
            fh.write(",".join(map(_csv_field, header)) + "\n")
        lines = map(",".join, zip(*map(_cells, columns)))
        while block := list(itertools.islice(lines, _CSV_BLOCK_ROWS)):
            fh.write("\n".join(block) + "\n")


def _coord_header(dim):
    return [f"{part}_z{j + 1}" for j in range(dim) for part in ("re", "im")]


def _coord_columns(points):
    """The re_z1, im_z1, ... columns of an (N, n) complex array, as rows of a 2-D array."""
    return np.stack([points.real, points.imag], axis=-1).reshape(len(points), 2 * points.shape[1]).T


def _config_from(args):
    return ScanConfig(
        box_radius=args.box,
        samples=args.samples,
        rng_seed=args.seed,
        tol_rank=args.tol_rank,
        tol_ma=args.tol_ma,
        step=args.step,
        out_dir=Path(args.out),
    )


def _print_header(title, cfg):
    print(f"== {title}")
    print(
        f"seed = {cfg.rng_seed}; samples = {cfg.samples}; box = {cfg.box_radius}; "
        f"tol_rank = {cfg.tol_rank:g}; tol_ma = {cfg.tol_ma:g}; step = {cfg.step:g}"
    )


def _internal_invariants(p, scan, raw_ma, euler_res):
    """Invariants that must hold for any potential; failures mean a code bug."""
    outcomes = []

    t0 = time.perf_counter()
    vals = p.evaluate_many(scan.points)
    herm = float(np.max(np.abs(vals.imag) / np.maximum(1.0, np.abs(vals))))
    outcomes.append(_outcome("hermitian_eval", herm < HERMITIAN_EVAL_TOL, herm, HERMITIAN_EVAL_TOL, t0))

    t0 = time.perf_counter()
    h = scan.hessian
    asym = np.max(np.abs(h - h.conj().transpose(0, 2, 1)))
    scale = max(1.0, float(np.max(np.abs(h))))
    hsym = float(asym / scale)
    outcomes.append(_outcome("hessian_symmetry", hsym < HESSIAN_SYMMETRY_TOL, hsym, HESSIAN_SYMMETRY_TOL, t0))

    t0 = time.perf_counter()
    det_imag = float(
        np.max(np.abs(scan.det_hessian.imag) / np.maximum(1.0, np.abs(scan.det_hessian)))
    )
    outcomes.append(_outcome("det_real", det_imag < DET_REAL_TOL, det_imag, DET_REAL_TOL, t0))

    t0 = time.perf_counter()
    rho, grad, hess = scan.rho[:200], scan.grad[:200], scan.hessian[:200]
    lhs = rank_identity(rho, grad, hess)
    rhs = rho ** (p.dim + 1) * np.linalg.det(log_levi_form(rho, grad, hess)).real
    worst = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs)), initial=0.0))
    outcomes.append(_outcome("det_lemma", worst < DET_LEMMA_TOL, worst, DET_LEMMA_TOL, t0))

    t0 = time.perf_counter()
    mismatch = int(np.count_nonzero((euler_res < IFF_TOL) != (raw_ma < IFF_TOL)))
    outcomes.append(_outcome("euler_ma_iff", mismatch == 0, float(mismatch), 0.0, t0))
    return outcomes


def _analyze_scan(p, cfg):
    rng = np.random.default_rng(cfg.rng_seed)
    pts = sample_domain(p, cfg.samples, cfg.box_radius, rng)
    scan = levi_scan(p, pts, cfg.tol_rank)
    raw, scaled = ma_from_fields(scan.rho, scan.grad, scan.hessian, p.dim)
    z_field = _solve_z(scan.grad, scan.hessian)
    euler = np.abs(np.einsum("ni,ni->n", z_field, scan.grad) - scan.rho)
    return pts, scan, raw, scaled, euler


def cmd_analyze(args):
    cfg = _config_from(args)
    p = parse_potential_file(args.potential)
    _print_header(f"analyze {args.potential}", cfg)
    pts, scan, raw, scaled, euler = _analyze_scan(p, cfg)

    census = {}
    for s in scan.strata:
        census[str(s)] = census.get(str(s), 0) + 1

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.out_dir / (Path(args.potential).stem + "_analyze.csv")
    header = (
        ["sample"]
        + _coord_header(p.dim)
        + ["rho", "re_detH", "im_detH", "stratum", "ma_residual", "ma_residual_scaled", "euler_residual"]
    )
    det = scan.det_hessian
    _write_csv(out_path, header, range(len(pts)), *_coord_columns(pts), scan.rho, det.real, det.imag, scan.strata,
               raw, scaled, euler)

    total = len(pts)
    print("stratum census:")
    for name, count in sorted(census.items()):
        print(f"  {name:15} {count:6d}  ({100.0 * count / total:.1f}%)")
    print(f"max ma_residual        = {raw.max():.3e} (scaled {scaled.max():.3e}, threshold {cfg.tol_ma:g})")
    print(f"max euler_residual     = {euler.max():.3e} (threshold {IFF_TOL:g})")
    print(f"csv: {out_path}")

    failures = 0
    for oc in _internal_invariants(p, scan, raw, euler):
        mark = "ok " if oc.status == "pass" else "FAIL"
        print(f"invariant {oc.name:18} {mark} measured={oc.measured:.3e} threshold={oc.threshold:g}")
        failures += oc.status == "fail"
    return 1 if failures else 0


def cmd_trace(args):
    cfg = _config_from(args)
    p = parse_potential_file(args.potential)
    base = np.array([parse_complex(tok) for tok in args.base.split(",")], dtype=complex)
    if base.size != p.dim:
        raise ValueError(f"base point has {base.size} coordinates, potential has n = {p.dim}")
    _print_header(f"trace {args.potential}", cfg)
    icfg = IntegratorConfig(step=cfg.step, tol_rank=cfg.tol_rank)
    t_grid = np.linspace(0.0, args.t_max, args.t_nodes)
    s_grid = np.linspace(0.0, args.s_max, args.s_nodes)
    trace = trace_leaf(p, base, t_grid, s_grid, icfg)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.out_dir / (Path(args.potential).stem + "_trace.csv")
    header = ["t", "s"] + _coord_header(p.dim) + ["rho", "abs_detH", "stratum"]
    nt, ns = trace.rho.shape
    _write_csv(out_path, header, np.repeat(trace.t_values, ns), np.tile(trace.s_values, nt),
               *_coord_columns(trace.points.reshape(nt * ns, p.dim)), trace.rho.ravel(),
               np.abs(trace.det_hessian).ravel(), trace.strata.ravel())
    print(f"csv: {out_path}")
    if trace.truncated:
        print("note: trace truncated at the domain/box boundary")

    log_lin = leaf_log_linearity(trace)
    level = level_set_invariance(trace)
    strat = leaf_stratum_invariance(trace)
    checks = [
        ("log_linearity", log_lin, TRACE_LOG_LIN_TOL, log_lin < TRACE_LOG_LIN_TOL),
        ("level_set_invariance", level, TRACE_LEVEL_TOL, level < TRACE_LEVEL_TOL),
        ("stratum_invariance", float(len(strat.violations)), 0.0, strat.passed),
    ]
    failed = 0
    for name, measured, threshold, ok in checks:
        mark = "ok " if ok else "FAIL"
        print(f"{name:22} {mark} measured={measured:.3e} threshold={threshold:g}")
        failed += not ok
    print(f"final rho at (t_max, s=0): {float(trace.rho[-1, 0])!r}")
    return 1 if failed else 0


def cmd_weights(args):
    cfg = _config_from(args)
    p = parse_potential_file(args.potential)
    _print_header(f"weights {args.potential}", cfg)
    analysis = analyze_weights(p)
    if analysis.status == "infeasible":
        eqs = ", ".join(eq.label for eq in analysis.inconsistent_subset)
        print(f"infeasible: equations {{{eqs}}}")
        return 0
    weights = ", ".join(f"{w:.12g}" for w in analysis.weights)
    tag = "unique" if analysis.unique else "non-unique (minimum-norm)"
    if analysis.status == "not_positive":
        print(f"weights exist but not positive: c = ({weights}), {tag}")
        return 0
    print(f"c = ({weights}), {tag}, system residual {analysis.residual:.3e}")
    rng = np.random.default_rng(cfg.rng_seed)
    pts = sample_domain(p, min(cfg.samples, 100), cfg.box_radius, rng)
    ver = verify_weights(p, analysis.weights, pts, default_lambda_samples())
    lin = linear_field_agreement(p, analysis.weights, pts)
    ok_ver = ver < WEIGHT_VERIFY_TOL
    ok_lin = lin < WEIGHT_FIELD_TOL
    print(f"homogeneity residual   = {ver:.3e} (threshold {WEIGHT_VERIFY_TOL:g}) {'ok' if ok_ver else 'FAIL'}")
    print(f"linear field residual  = {lin:.3e} (threshold {WEIGHT_FIELD_TOL:g}) {'ok' if ok_lin else 'FAIL'}")
    return 0 if (ok_ver and ok_lin) else 1


def cmd_burns(args):
    cfg = _config_from(args)
    p = parse_potential_file(args.potential)
    _print_header(f"burns {args.potential}", cfg)
    grid = real_grid(p.dim, args.grid_n, cfg.box_radius)
    if not args.csv:
        report = burns_check(p, grid, tol=cfg.tol_ma, tol_rank=cfg.tol_rank)
    else:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        out_path = cfg.out_dir / (Path(args.potential).stem + "_burns.csv")
        header = _coord_header(p.dim) + ["rho", "ma_residual", "ma_residual_scaled"]
        with open(out_path, "w", newline="", encoding="utf-8") as fh:

            def write_rows(res):  # the header goes out with the first chunk
                nonlocal header
                _write_csv(fh, header, *_coord_columns(res.points), res.rho, res.raw, res.scaled)
                header = None

            report = burns_check(p, grid, tol=cfg.tol_ma, tol_rank=cfg.tol_rank, rows=write_rows)
    print(report.format())
    if args.csv:
        print(f"csv: {out_path}")
    if report.internal_failure:
        print(f"internal invariant FAIL: {report.internal_failure}")
        return 1
    return 0


SUITE_GRID_BUDGET = 20_000  # total burns grid points per potential in the suite


def _suite_grid_axis(dim):
    """Burns grid points per real axis: about SUITE_GRID_BUDGET points and at
    least 4 per axis where that fits under MAX_GRID_POINTS, else the largest
    axis >= 2 that fits."""
    axis = max(4, int(SUITE_GRID_BUDGET ** (1.0 / (2 * dim))))
    while axis > 2 and axis ** (2 * dim) > MAX_GRID_POINTS:
        axis -= 1
    return axis


def _suite_checks(p, expect, cfg):
    outcomes = []
    pts, scan, raw, scaled, euler = _analyze_scan(p, cfg)
    outcomes.extend(_internal_invariants(p, scan, raw, euler))

    exp_ma = expect.get("ma")
    if exp_ma is not None:
        t0 = time.perf_counter()
        worst = float(scaled.max())
        if exp_ma:
            outcomes.append(_outcome("ma_holds", worst < cfg.tol_ma, worst, cfg.tol_ma, t0))
        else:
            outcomes.append(_outcome("ma_fails", worst > NON_MA_FLOOR, worst, NON_MA_FLOOR, t0))

    if "weights" in expect:
        t0 = time.perf_counter()
        exp_w = expect["weights"]
        analysis = analyze_weights(p)
        if exp_w is None:
            ok = analysis.status == "infeasible"
            outcomes.append(_outcome("weights_infeasible", ok, analysis.residual, 0.0, t0))
        else:
            measured = float(
                np.max(np.abs(analysis.weights - np.asarray(exp_w)))
                if analysis.status == "ok"
                else math.inf
            )
            outcomes.append(_outcome("weights_match", measured <= WEIGHTS_MATCH_TOL, measured, WEIGHTS_MATCH_TOL, t0))
            if analysis.status == "ok":
                t0 = time.perf_counter()
                ver = verify_weights(p, analysis.weights, pts[:100], default_lambda_samples())
                outcomes.append(_outcome("weights_verify", ver < WEIGHT_VERIFY_TOL, ver, WEIGHT_VERIFY_TOL, t0))
                t0 = time.perf_counter()
                lin = linear_field_agreement(p, analysis.weights, pts[:100])
                outcomes.append(_outcome("weights_field", lin < WEIGHT_FIELD_TOL, lin, WEIGHT_FIELD_TOL, t0))

    exp_burns = expect.get("burns")
    if exp_burns is not None:
        t0 = time.perf_counter()
        grid = real_grid(p.dim, _suite_grid_axis(p.dim), cfg.box_radius)
        report = burns_check(p, grid, tol=cfg.tol_ma, tol_rank=cfg.tol_rank)
        ok = ("pass" if report.verdict else "fail") == exp_burns and not report.internal_failure
        measured = report.ma_max_scaled if math.isfinite(report.ma_max_scaled) else math.inf
        outcomes.append(_outcome("burns_verdict", ok, measured, cfg.tol_ma, t0))
    return outcomes


def cmd_suite(args):
    cfg = _config_from(args)
    directory = Path(args.directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"{directory} is not a directory")
    pot_files = sorted(directory.glob("*.pot"))
    if not pot_files:
        print(f"error: no .pot files in {directory}", file=sys.stderr)
        return 2
    expect_path = directory / "expect.json"
    expectations = {}
    if expect_path.exists():
        expectations = json.loads(expect_path.read_text(encoding="utf-8"))

    _print_header(f"suite {directory}", cfg)
    names, results = [], []
    failed = 0
    for pot_path in pot_files:
        try:
            p = parse_potential_file(pot_path)
            outcomes = _suite_checks(p, expectations.get(pot_path.name, {}), cfg)
        except PotentialFormatError as exc:
            outcomes = [CheckOutcome("parse", "fail", math.inf, 0.0, 0.0)]
            print(f"{pot_path.name}: parse error: {exc}")
        for oc in outcomes:
            mark = "ok " if oc.status == "pass" else ("--  " if oc.status == "skip" else "FAIL")
            print(
                f"{pot_path.name:20} {oc.name:20} {mark} measured={oc.measured:.3e} "
                f"threshold={oc.threshold:g} [{oc.wall:.2f}s]"
            )
            failed += oc.status == "fail"
            names.append(pot_path.name)
            results.append(oc)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.out_dir / "suite_summary.csv"
    _write_csv(out_path, ["potential", "check", "status", "measured", "threshold"], names,
               [oc.name for oc in results], [oc.status for oc in results],
               np.array([oc.measured for oc in results], dtype=float),
               np.array([oc.threshold for oc in results], dtype=float))
    print(f"csv: {out_path}")
    print(f"{'FAILED' if failed else 'OK'}: {failed} failing checks")
    return 1 if failed else 0


def bundled_corpus_dir():
    """Directory with the shipped example potentials and their expectations."""
    return Path(str(files("mafoliation").joinpath("data")))


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=1234, help="RNG seed (printed in the report header)")
    sub.add_argument("--samples", type=int, default=1000, help="number of random samples")
    sub.add_argument("--box", type=float, default=1.5, help="half-width of the real sampling cube")
    sub.add_argument("--tol-rank", dest="tol_rank", type=float, default=DEFAULT_TOL_RANK, help="rank tolerance for strata")
    sub.add_argument("--tol-ma", dest="tol_ma", type=float, default=VERDICT_MA_TOL, help="Monge-Ampere residual threshold")
    sub.add_argument("--step", type=float, default=DEFAULT_STEP, help="RK4 step size (read by trace only)")
    sub.add_argument("--out", default=".", help="output directory for CSV artifacts")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mafoliation",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser(
        "analyze",
        help="per-sample Levi/gradient scan",
        description="CSV columns: sample, re_z*/im_z*, rho, re_detH, im_detH, "
        "stratum, ma_residual, ma_residual_scaled, euler_residual.",
    )
    pa.add_argument("potential")
    _add_common(pa)
    pa.set_defaults(func=cmd_analyze)

    pt = sub.add_parser(
        "trace",
        help="integrate one foliation leaf",
        description="CSV columns: t, s, re_z*/im_z*, rho, abs_detH, stratum.",
    )
    pt.add_argument("potential")
    pt.add_argument("--base", required=True, help="comma-separated complex coordinates, e.g. '1+0i,0.5-0.5i'")
    pt.add_argument("--t-max", dest="t_max", type=float, default=2.0)
    pt.add_argument("--t-nodes", dest="t_nodes", type=int, default=9)
    pt.add_argument("--s-max", dest="s_max", type=float, default=2 * math.pi)
    pt.add_argument("--s-nodes", dest="s_nodes", type=int, default=13)
    _add_common(pt)
    pt.set_defaults(func=cmd_trace)

    pw = sub.add_parser("weights", help="homogeneity weight recovery")
    pw.add_argument("potential")
    _add_common(pw)
    pw.set_defaults(func=cmd_weights)

    pb = sub.add_parser(
        "burns",
        help="bidegree-(k,k) verdict on a real grid",
        description="Optional CSV columns: re_z*/im_z*, rho, ma_residual, ma_residual_scaled.",
    )
    pb.add_argument("potential")
    pb.add_argument("--grid-n", dest="grid_n", type=int, default=20, help="grid points per real axis")
    pb.add_argument("--csv", action="store_true", help="also write per-grid-point residuals")
    _add_common(pb)
    pb.set_defaults(func=cmd_burns)

    ps = sub.add_parser("suite", help="invariant suite over a directory of .pot files")
    ps.add_argument("directory")
    _add_common(ps)
    ps.set_defaults(func=cmd_suite)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # PotentialFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
