"""Command-line driver: file-driven scans with seeded, reproducible output.

Commands
--------
analyze   per-sample Levi/gradient scan with stratum census and residual summary
trace     integrate one foliation leaf and run its diagnostics
weights   homogeneity weight recovery with residual verification
burns     bidegree-(k,k) verdict on a real grid
suite     run the invariant suite over a directory of potential files

Every check line prints one record of the check table in thresholds.py. Exit
codes: 1 if any record of the command failed (a check or an internal
invariant), else 0; 2 for an input or usage error. Findings about the input
exit 0: the max residual lines of analyze on a non-Monge-Ampere potential,
the gates of a burns fail verdict, and an infeasible or non-positive weights
result. CSV columns are fixed (see --help of each command); identical seeds
and configs give byte-identical CSVs. Each command takes only the options it
reads, plus --seed and --out; every tolerance is a constant of thresholds.py.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import operator
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

import numpy as np

from .burns import burns_check
from .foliation import (
    MAX_TRACE_NODES,
    MAX_TRACE_STEPS,
    leaf_log_linearity,
    leaf_stratum_invariance,
    level_set_invariance,
    trace_leaf,
)
from .gradient import _euler_residual, _linear_field_residual, _solve_z
from .homogeneity import LAMBDA_SAMPLES, analyze_weights, verify_weights
from .levi import _batch_jet, fields_at_many, levi_scan, rank_identity
from .potential import PotentialFormatError, parse_complex, parse_potential_file
from .sampling import MAX_GRID_POINTS, MAX_SAMPLES, real_grid, sample_domain
from .thresholds import DEFAULT_STEP, IFF_TOL, VERDICT_MA_TOL, CheckOutcome, outcome

_CSV_BLOCK_ROWS = 16_384  # rows joined per write, to bound the memory of one write


@dataclass
class ScanConfig:  # the settings of the sampled scan of analyze, weights and suite
    box_radius: float = 1.5
    samples: int = 1000
    rng_seed: int = 1234
    out_dir: Path = Path(".")
    tol_ma = VERDICT_MA_TOL  # not a setting: the ma_holds threshold a scan is judged by


def _timed(name, measure):
    """The record of check `name` on measure(), timed."""
    t0 = time.perf_counter()
    return outcome(name, float(measure()), t0)


def _check_text(oc):
    measured = "n/a" if oc.measured is None else f"{oc.measured:.3e}"
    return f"{'ok ' if oc.status == 'pass' else 'FAIL'} measured={measured} threshold={oc.threshold:g}"


def _exit_code(records):
    """The one exit rule (see the module docstring): findings do not fail."""
    return int(any(oc.status == "fail" for oc in records))


def _csv_field(text):
    """text as csv.writer (QUOTE_MINIMAL) writes it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


_QUOTED = re.compile('[,"\r\n]')  # the characters for which csv.writer quotes a field here


def _cells(columns):
    """The cell strings of each of the columns of one write.

    The float ndarray columns are formatted together, each distinct value
    once: repr(float(x)), Python's shortest round-trip form, keyed on the bit
    pattern because np.unique on floats merges -0.0 with 0.0 and collapses
    NaNs. Any other sequence gives str(x), quoted as csv.writer quotes it
    (``_csv_field``) when x is a string that holds a character of _QUOTED;
    the str of an int or a Stratum holds none.
    """
    cells = list(columns)
    floats = [i for i, col in enumerate(cells) if isinstance(col, np.ndarray) and col.dtype.kind == "f"]
    if floats:
        parts = [np.asarray(cells[i], dtype=np.float64).ravel() for i in floats]
        keys, inverse = np.unique(np.concatenate(parts).view(np.int64), return_inverse=True)
        text = np.empty(len(keys), dtype=object)
        text[:] = list(map(repr, keys.view(np.float64).tolist()))
        splits = np.cumsum([len(part) for part in parts])[:-1]
        for i, part in zip(floats, np.split(text[inverse], splits)):
            cells[i] = part
    for i, col in enumerate(cells):
        if i not in floats:
            text = {v: _csv_field(v) if isinstance(v, str) and _QUOTED.search(v) else str(v) for v in set(col)}
            cells[i] = [text[v] for v in col]
    return cells


def _write_csv(path, header, *columns):
    """Write the rows of the equal-length columns (see _cells) to the file at
    the Path path, byte for byte as csv.writer with lineterminator "\n" would.
    With a header, create the file and its directory and write the header
    first; with None, append: analyze and burns --csv write one call per block."""
    if header is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a" if header is None else "w", newline="", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(map(_csv_field, header)) + "\n")
        lines = map(",".join, zip(*_cells(columns)))
        while block := list(itertools.islice(lines, _CSV_BLOCK_ROWS)):
            fh.write("\n".join(block) + "\n")


def _coord_header(dim):
    return [f"{part}_z{j + 1}" for j in range(dim) for part in ("re", "im")]


def _coord_columns(points):
    """The re_z1, im_z1, ... columns of an (N, n) complex array, as rows of a 2-D array."""
    return np.stack([points.real, points.imag], axis=-1).reshape(len(points), 2 * points.shape[1]).T


def _config_from(args):
    return ScanConfig(box_radius=args.box, samples=args.samples, rng_seed=args.seed, out_dir=Path(args.out))


def _print_header(title, args):
    """The title and the settings the command takes, in the order seed, samples, box, step."""
    print(f"== {title}")
    specs = {"seed": "", "samples": "", "box": "", "step": "g"}
    print("; ".join(f"{key} = {getattr(args, key):{spec}}" for key, spec in specs.items() if hasattr(args, key)))


def _internal_invariants(p, start, scan, euler, folded):
    """Fold one block of the scan (its LeviScan and Euler residuals, from
    sample number `start`) into the invariants that must hold for any
    potential; failures mean a code bug. folded maps each invariant to its
    value so far and the seconds spent on it. The folds are exact, so no block
    size changes a value: maxima by np.maximum (a NaN wins, as in np.max), a
    count by a sum, det_lemma on the samples numbered below 200, and
    hessian_symmetry as (max |H - H*|, max |H|), divided in _invariant_records."""
    h, det = scan.hessian, scan.det_hessian
    det_u, raw_ma, _ = scan.ma
    head = slice(0, max(0, 200 - start))
    rho, grad, hess = scan.rho[head], scan.grad[head], h[head]

    def hermitian_eval():
        vals = p.evaluate_many(scan.points)
        return np.max(np.abs(vals.imag) / np.maximum(1.0, np.abs(vals)))

    def hessian_symmetry():
        return np.array([np.max(np.abs(h - h.conj().transpose(0, 2, 1))), np.max(np.abs(h))])

    def det_lemma():
        rhs = rho ** (p.dim + 1) * det_u[head].real
        return np.max(np.abs(rank_identity(rho, grad, hess) - rhs) / np.maximum(1.0, np.abs(rhs)), initial=0.0)

    for name, fold, measure in (
        ("hermitian_eval", np.maximum, hermitian_eval),
        ("hessian_symmetry", np.maximum, hessian_symmetry),
        ("det_real", np.maximum, lambda: np.max(np.abs(det.imag) / np.maximum(1.0, np.abs(det)))),
        ("det_lemma", np.maximum, det_lemma),
        ("euler_ma_iff", operator.add, lambda: np.count_nonzero((euler < IFF_TOL) != (raw_ma < IFF_TOL))),
    ):
        old, seconds = folded.get(name, (None, 0.0))
        t0 = time.perf_counter()
        value = measure()
        folded[name] = value if old is None else fold(old, value), seconds + time.perf_counter() - t0


def _invariant_records(folded):
    """The records of the invariants ``_internal_invariants`` folded, each timed by its seconds."""
    values = {name: value for name, (value, _) in folded.items()}
    asymmetry, size = values["hessian_symmetry"]
    values["hessian_symmetry"] = asymmetry / max(1.0, float(size))
    now = time.perf_counter()
    return [outcome(name, float(values[name]), now - seconds) for name, (_, seconds) in folded.items()]


def _analyze_scan(p, cfg, rows=None):
    """The scan of analyze and suite over cfg's seeded samples, in sample
    order, a block at a time: each block is the ``rows`` of the jet's
    ``Evaluator``, one fill of its table. Each block's LeviScan goes to
    rows(start, scan, euler) (if given), with the number of its first sample
    and its Euler residuals; no row depends on the block size, with one BLAS
    thread. Returns the samples and, per sample, rho, |det U|, the scaled
    |det U| and the Euler residual: the only arrays kept whole."""
    pts = sample_domain(p, cfg.samples, cfg.box_radius, np.random.default_rng(cfg.rng_seed))
    rho, raw, scaled, euler = np.empty((4, len(pts)))
    step = _batch_jet(p).rows
    for start in range(0, len(pts), step):
        block = slice(start, start + step)
        scan = levi_scan(p, pts[block])
        rho[block] = scan.rho
        _, raw[block], scaled[block] = scan.ma
        euler[block] = _euler_residual(_solve_z(scan.grad, scan.hessian), scan.grad, scan.rho)
        if rows is not None:
            rows(start, scan, euler[block])
    return pts, rho, raw, scaled, euler


def cmd_analyze(args):
    cfg = _config_from(args)
    p = parse_potential_file(args.potential)
    _check_box(p, cfg.box_radius, "analyze")
    _print_header(f"analyze {args.potential}", args)
    out_path = cfg.out_dir / (Path(args.potential).stem + "_analyze.csv")
    header = ["sample", *_coord_header(p.dim), "rho", "re_detH", "im_detH", "stratum", "ma_residual",
              "ma_residual_scaled", "euler_residual"]
    census, folded = Counter(), {}

    def rows(start, scan, euler):  # the first block creates the CSV, once the samples are drawn
        det, (_, raw, scaled) = scan.det_hessian, scan.ma
        _write_csv(out_path, None if start else header, range(start, start + len(scan.rho)),
                   *_coord_columns(scan.points), scan.rho, det.real, det.imag, scan.strata, raw, scaled, euler)
        census.update(map(str, scan.strata))
        _internal_invariants(p, start, scan, euler, folded)

    pts, _, raw, scaled, euler = _analyze_scan(p, cfg, rows)

    print("stratum census:")
    for name, count in sorted(census.items()):
        print(f"  {name:15} {count:6d}  ({100.0 * count / len(pts):.1f}%)")
    ma, eu = _timed("ma_residual_scaled", scaled.max), _timed("euler_residual", euler.max)
    print(f"max ma_residual        = {raw.max():.3e} (scaled {ma.measured:.3e}, threshold {ma.threshold:g})")
    print(f"max euler_residual     = {eu.measured:.3e} (threshold {eu.threshold:g})")
    print(f"csv: {out_path}")
    invariants = _invariant_records(folded)
    for oc in invariants:
        print(f"invariant {oc.name:18} {_check_text(oc)}")
    return _exit_code([ma, eu, *invariants])


def cmd_trace(args):
    p = parse_potential_file(args.potential)
    base = np.array([parse_complex(tok) for tok in args.base.split(",")], dtype=complex)
    if base.size != p.dim:
        raise ValueError(f"base point has {base.size} coordinates, potential has n = {p.dim}")
    if not np.isfinite(base).all():
        raise ValueError(f"--base must be finite, got {args.base}")
    with np.errstate(over="ignore", invalid="ignore"):  # a rho that overflows is refused below, not warned about
        rho = p.evaluate(base).real
    if not math.isfinite(rho):
        raise ValueError(f"rho(z) = {rho} at --base {args.base} is not finite; use a base nearer the origin")
    for option, end, count in (("t", args.t_max, args.t_nodes), ("s", args.s_max, args.s_nodes)):
        if not math.isfinite(end):  # refused before np.linspace warns about it
            raise ValueError(f"--{option}-max must be finite, got {end}")
        if count < 1:
            raise ValueError(f"--{option}-nodes must be at least 1, got {count}")
        if count > MAX_TRACE_NODES:
            raise ValueError(f"--{option}-nodes {count} exceeds the limit of {MAX_TRACE_NODES} nodes")
    if (steps := (abs(args.t_max) + abs(args.s_max)) / args.step) > MAX_TRACE_STEPS:
        raise ValueError(
            f"--t-max {args.t_max:g} and --s-max {args.s_max:g} at --step {args.step:g} take {steps:.3g} RK4 steps, "
            f"above the limit of {MAX_TRACE_STEPS}; use a larger --step or a smaller --t-max, --s-max"
        )
    t_grid = np.linspace(0.0, args.t_max, args.t_nodes)
    s_grid = np.linspace(0.0, args.s_max, args.s_nodes)
    gaps = np.abs(np.concatenate([np.diff(t_grid), np.diff(s_grid)]))
    if args.step > (gap := gaps[gaps > 0].min(initial=math.inf)):  # RK4 would silently cut it to the interval
        raise ValueError(f"--step {args.step:g} is larger than the smallest node interval {gap:g}")
    _print_header(f"trace {args.potential}", args)
    trace = trace_leaf(p, base, t_grid, s_grid, args.step)

    out_path = Path(args.out) / (Path(args.potential).stem + "_trace.csv")
    header = ["t", "s"] + _coord_header(p.dim) + ["rho", "abs_detH", "stratum"]
    nt, ns = trace.rho.shape
    _write_csv(out_path, header, np.repeat(trace.t_values, ns), np.tile(trace.s_values, nt),
               *_coord_columns(trace.points.reshape(nt * ns, p.dim)), trace.rho.ravel(),
               np.abs(trace.det_hessian).ravel(), trace.strata.ravel())
    print(f"csv: {out_path}")
    if trace.truncated:
        print("note: trace truncated at the domain boundary")

    records = [
        _timed("log_linearity", lambda: leaf_log_linearity(trace)),
        _timed("level_set_invariance", lambda: level_set_invariance(trace)),
        _timed("stratum_invariance", lambda: len(leaf_stratum_invariance(trace).violations)),
    ]
    for oc in records:
        print(f"{oc.name:22} {_check_text(oc)}")
    t, s = float(trace.t_values[-1]), float(trace.s_values[0])  # the largest kept t, the smallest kept s
    print(f"final rho at (t = {t!r}, s = {s!r}): {float(trace.rho[-1, 0])!r}")
    return _exit_code(records)


WEIGHT_CHECK_SAMPLES = 100  # the weight checks of weights and suite use at most this many samples


def _weight_checks(p, weights, pts):
    """The homogeneity identity, and the Z-system test of Z = c z, at pts
    (weights and suite); the latter needs only the jet, not a Z solve."""
    return [
        _timed("weights_verify", lambda: verify_weights(p, weights, pts, LAMBDA_SAMPLES)),
        _timed("weights_field", lambda: _linear_field_residual(weights * pts, *fields_at_many(p, pts)[1:])),
    ]


def cmd_weights(args):
    cfg = _config_from(args)
    p = parse_potential_file(args.potential)
    _check_box(p, cfg.box_radius, "weights")
    _print_header(f"weights {args.potential}", args)
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
    pts = sample_domain(p, min(cfg.samples, WEIGHT_CHECK_SAMPLES), cfg.box_radius, rng)
    print(f"weight checks on {len(pts)} samples (at most {WEIGHT_CHECK_SAMPLES})")
    records = _weight_checks(p, analysis.weights, pts)
    for label, oc in zip(("homogeneity residual", "linear field residual"), records):
        print(f"{label:22} = {oc.measured:.3e} (threshold {oc.threshold:g}) {'ok' if oc.status == 'pass' else 'FAIL'}")
    return _exit_code(records)


def _check_box(p, box, command, name="this potential"):
    """Refuse a --box on which |rho| may square past the largest float (the
    Levi form of log rho divides by rho^2), or for analyze and suite reach a
    power n + 1 past it (det_lemma forms rho^(n+1)); the message names the
    lower power that overflows. M = sum_k |c_k| (sqrt(2) box)^(|alpha_k|
    + |beta_k|) bounds |rho| on [-box, box]^{2n}; its log is summed in log space."""
    logs = [math.log(abs(c)) + (sum(a) + sum(b)) * math.log(math.sqrt(2) * box) for (a, b), c in p.terms.items()]
    top = max(logs)
    log_bound = top + math.log(sum(math.exp(v - top) for v in logs))
    highest = p.dim + 1 if command in ("analyze", "suite") else 2
    power = next((k for k in (2, highest) if k * log_bound >= math.log(sys.float_info.max)), None)
    if power is not None:
        raise ValueError(
            f"--box {box!r} is too large for {name}: |rho| {'on the grid' if command == 'burns' else 'in the box'} "
            f"may reach 1e{log_bound / math.log(10):.0f}, whose {'square' if power == 2 else f'power n + 1 = {power}'} "
            f"overflows a float; use a smaller box ({command} --box)"
        )


def _check_expect(path, expectations, dims):
    """Refuse an expect.json (at path) unless it is an object of objects, one
    per .pot file named in dims (each name's dimension, None when the file
    does not parse), whose keys are among ma (true, false or null), weights
    (null or a list of n finite numbers, n that file's dimension) and burns
    ("pass", "fail" or null); the message names the file and the key."""
    if not isinstance(expectations, dict):
        raise ValueError(f"{path}: must be an object of per-file objects")
    for name, expect in expectations.items():
        if name not in dims:
            raise ValueError(f"{path}: {json.dumps(name)} names no .pot file in {path.parent}")
        if not isinstance(expect, dict):
            raise ValueError(f"{path}: {json.dumps(name)} must map to an object, got {json.dumps(expect)}")
        n = dims[name]
        for key, value in expect.items():
            if key == "ma":
                ok, wanted = value is None or isinstance(value, bool), "true, false or null"
            elif key == "weights":
                ok = value is None or (isinstance(value, list) and (n is None or len(value) == n)
                                       and all(type(w) in (int, float) and abs(w) <= sys.float_info.max for w in value))
                wanted = f"null or a list of {n or 'n'} finite numbers"
            elif key == "burns":
                ok, wanted = value in (None, "pass", "fail"), '"pass", "fail" or null'
            else:
                raise ValueError(f"{path}: {json.dumps(name)} has the unknown key {json.dumps(key)}; "
                                 "the keys are ma, weights and burns")
            if not ok:
                raise ValueError(f"{path}: {json.dumps(name)} key {json.dumps(key)}: must be {wanted}, "
                                 f"got {json.dumps(value)}")


def cmd_burns(args):
    p = parse_potential_file(args.potential)
    _check_box(p, args.box, "burns")
    _print_header(f"burns {args.potential}", args)
    grid = real_grid(p.dim, args.grid_n, args.box)
    out_path = Path(args.out) / (Path(args.potential).stem + "_burns.csv")
    header = _coord_header(p.dim) + ["rho", "ma_residual", "ma_residual_scaled"]

    def rows(start, scan):  # the first chunk creates the CSV
        _write_csv(out_path, None if start else header, *_coord_columns(scan.points), scan.rho, *scan.ma[1:])

    report = burns_check(p, grid, rows if args.csv else None)
    print(report.format())
    if args.csv:
        print(f"csv: {out_path}")
    if report.internal_failure:
        print(f"internal invariant FAIL: {report.internal_failure}")
    return _exit_code(report.gates)


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
    folded = {}
    pts, _, _, scaled, _ = _analyze_scan(p, cfg, lambda *block: _internal_invariants(p, *block, folded))
    outcomes = _invariant_records(folded)
    if expect.get("ma") is not None:
        outcomes.append(_timed("ma_holds" if expect["ma"] else "ma_fails", scaled.max))

    if "weights" in expect:
        t0 = time.perf_counter()
        analysis = analyze_weights(p)
        if expect["weights"] is None:
            outcomes.append(outcome("weights_infeasible", analysis.residual, t0))
        else:
            ok = analysis.status == "ok"
            measured = float(np.max(np.abs(analysis.weights - np.asarray(expect["weights"])))) if ok else None
            outcomes.append(outcome("weights_match", measured, t0))
            if ok:
                outcomes += _weight_checks(p, analysis.weights, pts[:WEIGHT_CHECK_SAMPLES])

    exp_burns = expect.get("burns")
    if exp_burns is not None:
        t0 = time.perf_counter()
        grid = real_grid(p.dim, _suite_grid_axis(p.dim), cfg.box_radius)
        report = burns_check(p, grid)
        # the one record not decided by its printed value: it passes when the
        # verdict is the expected one and no burns invariant failed
        matches = report.verdict == (exp_burns == "pass") and not report.internal_failure
        ma = report.gate("ma_residual_scaled")
        outcomes.append(CheckOutcome("burns_verdict", "pass" if matches else "fail", ma and ma.measured,
                                     "VERDICT_MA_TOL", VERDICT_MA_TOL, time.perf_counter() - t0))
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
    try:
        expectations = json.loads(expect_path.read_text(encoding="utf-8")) if expect_path.exists() else {}
    except json.JSONDecodeError as exc:
        raise ValueError(f"{expect_path}: {exc}") from None

    potentials, parse_errors = {}, {}
    for pot_path in pot_files:  # every box and expectation before any scan: a refusal leaves no partial output
        t0 = time.perf_counter()
        try:
            potentials[pot_path] = parse_potential_file(pot_path)
            _check_box(potentials[pot_path], cfg.box_radius, "suite", pot_path.name)
        except PotentialFormatError as exc:
            parse_errors[pot_path] = (outcome("parse", None, t0), exc)
    _check_expect(expect_path, expectations,
                  {path.name: potentials[path].dim if path in potentials else None for path in pot_files})
    _print_header(f"suite {directory}", args)
    names, results = [], []
    for pot_path in pot_files:
        if pot_path in parse_errors:
            parse, exc = parse_errors[pot_path]
            outcomes = [parse]
            print(f"{pot_path.name}: parse error: {exc}")
        else:
            outcomes = _suite_checks(potentials[pot_path], expectations.get(pot_path.name, {}), cfg)
        for oc in outcomes:
            print(f"{pot_path.name:20} {oc.name:20} {_check_text(oc)} [{oc.wall:.2f}s]")
            names.append(pot_path.name)
            results.append(oc)
    out_path = cfg.out_dir / "suite_summary.csv"
    _write_csv(out_path, ["potential", "check", "status", "measured", "threshold"], names,
               [oc.name for oc in results], [oc.status for oc in results],
               ["" if oc.measured is None else repr(float(oc.measured)) for oc in results],
               np.array([oc.threshold for oc in results], dtype=float))
    failed = sum(oc.status == "fail" for oc in results)
    print(f"csv: {out_path}")
    print(f"{'FAILED' if failed else 'OK'}: {failed} failing checks")
    return _exit_code(results)


def bundled_corpus_dir():
    """Directory with the shipped example potentials and their expectations."""
    return Path(str(files("mafoliation").joinpath("data")))


def _positive(convert, wanted, limit=math.inf):
    """An option's argparse type: convert(text), refused (exit 2) unless it is
    finite and > 0, with a message that it must be `wanted`, or above `limit`."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        if value > limit:
            raise argparse.ArgumentTypeError(f"must be at most {limit}, got {text!r}")
        return value

    return parse


# the options a command may take: every command takes --seed and --out, and the others only where it reads them
_OPTIONS = {
    "seed": dict(type=int, default=1234, help="RNG seed (printed in the report header)"),
    "samples": dict(type=_positive(int, "an integer >= 1", MAX_SAMPLES), default=1000,
                    help="number of random samples"),
    "box": dict(type=_positive(float, "a finite number > 0"), default=1.5, help="half-width of the real sampling cube"),
    "step": dict(type=_positive(float, "a finite number > 0"), default=DEFAULT_STEP, help="fixed RK4 step size"),
    "out": dict(default=".", help="output directory for CSV artifacts"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mafoliation",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(func, target, options, help, description=None):
        cmd = sub.add_parser(func.__name__.removeprefix("cmd_"), help=help, description=description)
        cmd.add_argument(target)
        for name in ("seed", *options, "out"):
            cmd.add_argument(f"--{name}", **_OPTIONS[name])
        cmd.set_defaults(func=func)
        return cmd

    command(cmd_analyze, "potential", ("samples", "box"), "per-sample Levi/gradient scan",
            "CSV columns: sample, re_z*/im_z*, rho, re_detH, im_detH, "
            "stratum, ma_residual, ma_residual_scaled, euler_residual.")
    pt = command(cmd_trace, "potential", ("step",), "integrate one foliation leaf",
                 "CSV columns: t, s, re_z*/im_z*, rho, abs_detH, stratum.")
    pt.add_argument("--base", required=True, help="comma-separated complex coordinates, e.g. '1+0i,0.5-0.5i'")
    pt.add_argument("--t-max", dest="t_max", type=float, default=2.0)
    pt.add_argument("--t-nodes", dest="t_nodes", type=int, default=9)
    pt.add_argument("--s-max", dest="s_max", type=float, default=2 * math.pi)
    pt.add_argument("--s-nodes", dest="s_nodes", type=int, default=13)
    command(cmd_weights, "potential", ("samples", "box"), "homogeneity weight recovery")
    pb = command(cmd_burns, "potential", ("box",), "bidegree-(k,k) verdict on a real grid",
                 "Optional CSV columns: re_z*/im_z*, rho, ma_residual, ma_residual_scaled.")
    pb.add_argument("--grid-n", dest="grid_n", type=int, default=20, help="grid points per real axis")
    pb.add_argument("--csv", action="store_true", help="also write per-grid-point residuals")
    command(cmd_suite, "directory", ("samples", "box"), "invariant suite over a directory of .pot files")
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
