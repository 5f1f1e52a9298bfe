"""Benchmark for the mafoliation CLI and library: leaf, scan and grid workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload leaf --seed 1 --seconds 34 --trace 0

One caller, no extra threads: operations run one after another (closed loop).

``--trace 0`` repeats passes over the workload and prints the end-to-end
metrics. Each operation of a timed pass runs in a fresh subprocess, so it
starts with cold caches, as a fresh CLI process does. The subprocess first
times set-up (``import mafoliation.cli`` and parsing the workload's inputs,
``setup_s``), then the operation, then records its peak RSS and runs the
reference loop of ``calibrate.py``. Times are reported in reference-speed
seconds: measured seconds x REF_SECONDS / reference time of the same
process, which takes out the drift of a shared host's speed. The ``scan``
workload then runs the operations that show the known defects once, untimed,
and prints what they show.

``--trace 1`` runs passes in this process, untraced and traced in turn, and
prints the per-layer metrics. Before each pass it clears the ``lru_cache``s
``levi.jet`` and ``levi._batch_jet``, and every operation parses its input
files again.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REF_SECONDS, reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT = 150

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MiB"),
)
# <kind>_s is printed with the end-to-end metrics on the workloads that run it;
# weights operations count only toward pass_s
OPERATION_KINDS = ("trace", "theta_orbit", "level_map", "suite", "analyze", "burns")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


def _git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def environment():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "cold_state": "timed passes: every operation in a fresh process; traced passes: "
                      "in-process, levi.jet and levi._batch_jet cleared before every pass",
        "loop": "closed loop, 1 caller, no extra threads",
    }


def run_op(op):
    """Run one operation; an exception is recorded as a problem, not raised."""
    try:
        outcome = op.run()
        return list(outcome.problems), outcome.digest
    except Exception as exc:  # the benchmark must go on and report the failure
        import traceback

        traceback.print_exc(file=sys.stderr)
        return [f"raised {type(exc).__name__}: {exc}"], None


def _record(op, seconds, problems, digest, **extra):
    return {"op": op.name, "kind": op.kind, "seconds": seconds,
            "problems": problems, "digest": digest, **extra}


def run_pass(ops, tracer=None):
    """One cold in-process pass; returns (wall seconds, per-op records)."""
    from mafoliation import levi

    levi.jet.cache_clear()
    levi._batch_jet.cache_clear()
    gc.collect()
    records = []
    t0 = time.perf_counter()
    for op in ops:
        t_op = time.perf_counter()
        if tracer is None:
            problems, digest = run_op(op)
        else:
            with tracer.operation(op.name):
                problems, digest = run_op(op)
        records.append(_record(op, time.perf_counter() - t_op, problems, digest))
    return time.perf_counter() - t0, records


def _peak_rss_kb():
    """Peak RSS of this process's own address space (VmHWM).

    ru_maxrss is not used: Linux carries the parent's peak across fork and
    exec, so a subprocess of a large parent would report the parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def child_main(args, ops, probe, import_s):
    """In this fresh process: finish timing set-up (the import of
    mafoliation.cli, import_s, plus parsing the workload's inputs), run the
    operation, then the reference loop."""
    from mafoliation import potential

    t0 = time.perf_counter()
    for path in sorted({str(f) for op in ops for f in op.files}):
        potential.parse_potential_file(path)
    setup = import_s + time.perf_counter() - t0
    (op,) = [op for op in ops + probe if op.name == args.child]
    t0 = time.perf_counter()
    problems, digest = run_op(op)
    seconds = time.perf_counter() - t0
    peak = _peak_rss_kb()
    print(json.dumps({"seconds": seconds, "problems": problems, "digest": digest,
                      "peak_rss_kb": peak, "setup_s": setup, "ref_s": reference()}))
    return 0


def run_child(args, op):
    """Run one operation in a fresh subprocess; returns its record."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--child", op.name],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    try:
        rec = json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return _record(op, 0.0, [f"child exit {out.returncode}: {out.stderr.strip()[-300:]}"],
                       None, peak_rss_kb=0, setup_s=0.0, ref_s=None)
    return _record(op, rec["seconds"], rec["problems"], rec["digest"],
                   peak_rss_kb=rec["peak_rss_kb"], setup_s=rec["setup_s"], ref_s=rec["ref_s"])


def _scaled(rec, key):
    """rec[key] in reference-speed seconds, by the reference time of the
    record's own process (0 when the process failed)."""
    return rec[key] * REF_SECONDS / rec["ref_s"] if rec["ref_s"] else 0.0


def judge(records):
    """(attempted, failed, fail list) over every execution of every op.

    An execution fails when it raised, deviated from the expectation, or wrote
    a different digest than the first execution of the same operation.
    """
    first_digest = {}
    failures = []
    for rec in records:
        problems = list(rec["problems"])
        if rec["digest"] != first_digest.setdefault(rec["op"], rec["digest"]):
            problems.append("digest differs between repeats")
        if problems:
            failures.append((rec["op"], problems))
    return len(records), len(failures), failures


def probe_defects(args, probe):
    """Run each defect-probe operation once, untimed; True when every
    deviation it shows is one of its known defects."""
    expected = True
    for op in probe:
        rec = run_child(args, op)
        shown = set(rec["problems"])
        print(f"known_defect {op.name}: shown {sorted(shown & op.known_defects)}; "
              f"known but not shown {sorted(op.known_defects - shown)}")
        if shown - op.known_defects:
            print(f"failed {op.name} (defect probe): {'; '.join(sorted(shown - op.known_defects))}")
            expected = False
    return expected


def _repeat(seconds, run_one, at_least=1):
    """Repeat run_one until the next repeat would end well after `seconds`."""
    results = []
    t0 = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        results.append(run_one())
        last = time.perf_counter() - t_rep
        if len(results) >= at_least and time.perf_counter() - t0 + 0.5 * last >= seconds:
            return results


def timed_run(args, ops):
    # at least two passes, so every digest is compared with a repeat
    passes = _repeat(args.seconds, lambda: [run_child(args, op) for op in ops], at_least=2)
    records = [rec for recs in passes for rec in recs]
    walls = [sum(r["seconds"] for r in recs) for recs in passes]
    peaks = [max(r["peak_rss_kb"] for r in recs) for recs in passes]
    metrics = {
        "setup_s": statistics.median(_scaled(r, "setup_s") for r in records),
        "pass_s": statistics.median(sum(_scaled(r, "seconds") for r in recs) for recs in passes),
        "peak_rss_mb": statistics.median(peaks) / 1024.0,
    }
    per_kind = {
        f"{kind}_s": statistics.median(sum(_scaled(r, "seconds") for r in recs if r["kind"] == kind) for recs in passes)
        for kind in OPERATION_KINDS
        if any(op.kind == kind for op in ops)
    }
    detail = {"passes": len(passes), "walls": walls, "peaks_kb": peaks, "operation_s": per_kind,
              "calibration": {"ref_seconds": REF_SECONDS,
                              "ref_s": statistics.median(r["ref_s"] or 0.0 for r in records),
                              "raw_setup_s": statistics.median(r["setup_s"] for r in records),
                              "raw_pass_s": statistics.median(walls)}}
    return metrics, records, detail


def traced_run(args, ops, work):
    import layer_metrics
    from tracer import Tracer, layer_targets

    targets = layer_targets()
    tracers = []

    def pair():
        untraced, recs_u = run_pass(ops)
        tracer = Tracer()
        with tracer.installed(targets):
            traced, recs_t = run_pass(ops, tracer)
        tracers.append(tracer)
        return untraced, traced, recs_u + recs_t

    # the first pass in a process also pays first-touch costs (allocator,
    # page faults); an untimed pass first gives both sides of a pair the same
    _, warm_records = run_pass(ops)
    pairs = _repeat(args.seconds, pair)
    untraced = statistics.median(u for u, _, _ in pairs)
    traced = statistics.median(t for _, t, _ in pairs)
    per_pass = [layer_metrics.compute(tracer) for tracer in tracers]
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        exact = all(isinstance(v, int) for v in values)  # counts stay whole numbers
        metrics[name] = (statistics.median_low if exact else statistics.median)(values)
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    spans_path = work / f"spans-{args.workload}.npz"
    tracers[-1].write(spans_path)
    detail = {"pairs": len(pairs), "untraced_wall_s": untraced, "traced_wall_s": traced,
              "spans": str(spans_path.relative_to(ROOT)), "spans_recorded": len(tracers[-1].start)}
    return metrics, warm_records + [rec for _, _, recs in pairs for rec in recs], detail


def _units():
    import layer_metrics

    kinds = {f"{k}_s": "s" for k in OPERATION_KINDS}
    return dict(END_TO_END) | kinds | {"fail_share": "share"} | dict(layer_metrics.PER_LAYER)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("leaf", "scan", "grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mafoliation" / "__init__.py").is_file():
        print(f"error: no mafoliation sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.child:
        # set-up starts here: what a fresh CLI process imports, numpy included
        t0 = time.perf_counter()
        import mafoliation.cli  # noqa: F401

        import_s = time.perf_counter() - t0
    import workloads

    ops = workloads.build(args.workload, args.seed)
    probe = workloads.defect_probe(args.seed) if args.workload == "scan" and not args.trace else []
    if args.child:
        return child_main(args, ops, probe, import_s)

    work = workloads.work_dir(args.seed)
    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}")
    if args.trace:
        metrics, records, detail = traced_run(args, ops, work)
    else:
        metrics, records, detail = timed_run(args, ops)
        print(f"calibration {json.dumps(detail['calibration'], sort_keys=True)}")
    attempted, failed, failures = judge(records)
    for op_name, problems in failures:
        print(f"failed {op_name}: {'; '.join(problems)}")
    correct = not failures and probe_defects(args, probe)

    units = _units()
    printed = metrics | detail.get("operation_s", {}) | {"fail_share": failed / attempted}
    for name, value in printed.items():
        print(f"metric {name} {value!r} {units[name]}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "detail": detail,
              "printed": printed, "records": records, "result": result}
    for op in ops + probe:
        shutil.rmtree(work / op.name, ignore_errors=True)
    (work / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
