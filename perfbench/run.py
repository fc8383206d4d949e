"""factlab benchmark: run one seeded workload and report its metrics.

    python3 perfbench/run.py --workload nodal_scan|pointset_cert|locus_stress
                             --seed N --seconds S --trace 0|1 [--scale full|tiny]

Run it from the root of a checkout; factlab is imported from ``src/``.  Each
workload runs in a process of its own (worker.py).  ``--trace 0`` reports the
end-to-end metrics: set-up time is the median over SETUP_REPS set-up-only
processes, the rest come from the timed passes.  ``--trace 1`` reports the
per-layer metrics of one traced pass, next to one untraced pass.

Output: a table of the metrics with their units, then, as the last line,
one JSON object {"correct", "attempted", "failed", "metrics"}.  The metric
names and units are those declared in BENCHMARK.json.  A job fails on a
wrong exit code or a failed output check; ``correct`` is true when no job
failed.  A wrong answer the program is known to give (``known_defects`` of
the workload) is still checked, and printed on a line of its own, but is not
counted as failed.  ``--scale tiny`` shrinks every input, for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("nodal_scan", "pointset_cert", "locus_stress")
SETUP_REPS = 5
DEADLINE_S = 170.0


def _worker(mode: str, args, deadline: float):
    """Run worker.py to completion; its stdout, or None if it failed."""
    argv = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
    # numpy asks for transparent huge pages on large arrays; whether the host
    # grants them depends on its free memory, and moved peak RSS by 15%
    # between otherwise identical runs.  Turning the requests off did not
    # change wall or CPU time (README).
    env = dict(os.environ, NUMPY_MADVISE_HUGEPAGE="0")
    try:
        proc = subprocess.run(argv, cwd=HERE.parent, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        print(f"error: {mode} process exceeded the time limit", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"error: {mode} process exited with {proc.returncode}", file=sys.stderr)
        return None
    return proc.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    setup_times = []
    if not args.trace:
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            if _worker("setup", args, deadline) is None:
                return 1
            setup_times.append(time.perf_counter() - t0)
    out = _worker("run", args, deadline)
    if out is None:
        return 1
    result = json.loads(out.strip().splitlines()[-1])

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = [(m["name"], m["unit"]) for m in declared["per_layer" if args.trace else "end_to_end"]]
    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setup_times)
    missing = [name for name, _ in units if name not in values]
    if missing:
        print(f"error: declared metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}

    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}, "
          f"{result['passes']} passes")
    for name, unit in units:
        print(f"  {name:40s} {values[name]:>16.6g} {unit}")
    if not args.trace:
        t = result["tail"]
        print(f"  (job_s_tail is the p{t['percentile']:.1f} of {t['samples']} job samples; "
              f"setup_s is the median of {SETUP_REPS} set-ups)")
    print(f"  {'fail_ratio':40s} {result['failed'] / result['attempted']:>16.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} jobs)")
    for label, why in result["failures"]:
        print(f"  FAILED {label}: {why}")
    for label, why in result["known_defects"]:
        print(f"  KNOWN DEFECT {label}: {why} (checked; a wrong answer of the program "
              f"at the seed commit, not counted in failed)")
    for label in result["fixed_defects"]:
        print(f"  known defect {label} no longer shows: delete it from workloads.py")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
