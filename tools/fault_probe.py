"""Print the minor page faults, CPU seconds and peak RSS of each benchmark operation.

Each operation of a ``perfbench/run.py`` workload runs in a fresh subprocess
with one BLAS thread, as in a timed benchmark pass. The subprocess imports
``mafoliation.cli`` and writes the workload's seeded inputs first; the minor
faults and the user and system seconds printed are those of the operation
alone (``getrusage`` before and after it), and ``vmhwm_kb`` is the process's
peak RSS (VmHWM) after it. The operation's own outcome check runs too, and any
problem it reports is printed after the table. The numbers are reported, not
judged: compare two commits on one machine.

Usage, from the root of a checkout:

    python3 tools/fault_probe.py --workload grid --seed 1 [--op burns_square_norm]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COLUMNS = ("minflt", "user_s", "sys_s", "vmhwm_kb")


def _operations(workload, seed):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    return workloads.build(workload, seed)


def _vmhwm_kb():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def child(workload, seed, name):
    """Run one operation in this fresh process and print its record as JSON."""
    (op,) = [op for op in _operations(workload, seed) if op.name == name]
    import mafoliation.cli  # noqa: F401  (what a fresh CLI process imports, numpy included)

    before = resource.getrusage(resource.RUSAGE_SELF)
    outcome = op.run()
    after = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "minflt": after.ru_minflt - before.ru_minflt,
        "user_s": round(after.ru_utime - before.ru_utime, 3),
        "sys_s": round(after.ru_stime - before.ru_stime, 3),
        "vmhwm_kb": _vmhwm_kb(),
        "problems": outcome.problems,
    }))


def probe(workload, seed, name):
    """Run one operation in a fresh subprocess; returns its record."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{var: "1" for var in BLAS_VARS})
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--child", name],
        env=env, cwd=ROOT, capture_output=True, text=True, check=False,
    )
    try:
        return json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"problems": [f"child exit {out.returncode}: {out.stderr.strip()[-300:]}"]}


def _cell(value):
    return f"{value:>10.3f}" if isinstance(value, float) else f"{value:>10}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("leaf", "scan", "grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--op", help="probe only the operation of this name")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.workload, args.seed, args.child)
        return 0

    names = [op.name for op in _operations(args.workload, args.seed)]
    if args.op is not None and args.op not in names:
        parser.error(f"no operation {args.op!r} in workload {args.workload}; it has {', '.join(names)}")
    width = max(map(len, names))
    print(f"{'op':<{width}}" + "".join(f"{col:>10}" for col in COLUMNS))
    failed = []
    for name in [args.op] if args.op else names:
        rec = probe(args.workload, args.seed, name)
        print(f"{name:<{width}}" + "".join(_cell(rec.get(col, "")) for col in COLUMNS))
        failed += [f"{name}: {problem}" for problem in rec["problems"]]
    for line in failed:
        print(f"failed {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
