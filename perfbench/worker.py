"""One workload in one process, so that its peak RSS is its own.

    python3 perfbench/worker.py --mode setup|run --workload NAME --seed N
                                --seconds S --trace 0|1 --scale full|tiny

``setup`` imports factlab from the checkout's ``src/``, writes the seeded
inputs and runs a warm-up pass at tiny scale, then exits.  ``run`` does the
same set-up and then the timed passes; it prints one JSON object as its last
line of output.  run.py starts these processes and reports the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WARMUP_SEED = 1


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pass(jobs, tracer=None, reference=None, record_stdout=None, tag=""):
    """Run the jobs in order and check each output.

    Checks run with tracing paused and outside the per-job time, but inside
    the pass wall time.  ``reference`` maps job labels to the stdout of a
    threads=1 pass; a mismatch fails the job.  Returns
    (wall seconds, cpu seconds, [(label, seconds, failure or None)]).
    """
    from checks import CheckFailed

    results = []
    gc.collect()  # garbage left by set-up or the previous pass is not this pass's cost
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    if tracer is not None:
        tracer.enabled = True
    for job in jobs:
        t0 = time.perf_counter()
        try:
            outcome, failure = job.run(), None
        except Exception as exc:  # a crashing job is a failed job; keep going
            outcome, failure = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        if failure is None:
            try:
                job.check(outcome)
                if reference is not None and outcome.out != reference[job.label]:
                    raise CheckFailed("stdout differs from the threads=1 reference")
            except CheckFailed as exc:
                failure = str(exc)
            except Exception as exc:  # malformed output the check could not read
                failure = f"check raised {type(exc).__name__}: {exc}"
        if record_stdout is not None and hasattr(outcome, "out"):
            record_stdout[job.label] = outcome.out
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += len(getattr(outcome, "out", "").encode())
            tracer.enabled = True
        if failure:
            log(f"{tag}FAIL {job.label}: {failure}")
        results.append((job.label, elapsed, failure))
    if tracer is not None:
        tracer.enabled = False
    return time.perf_counter() - wall0, cpu_seconds() - cpu0, results


def tail(samples):
    """The highest percentile with at least ten samples above it:
    (value, percentile, sample count)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def split_failures(jobs, known_defects):
    """(failures, known defects that showed, known defects that did not).

    A failure counts as a known defect only if its message is exactly the
    recorded one; any other failure of the same job is a failure."""
    failures, known = [], []
    for label, _, why in jobs:
        if why:
            (known if known_defects.get(label) == why else failures).append((label, why))
    fixed = sorted(set(known_defects) - {label for label, _ in known})
    return failures, known, fixed


def import_factlab() -> bool:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import factlab
    except ImportError as exc:
        log(f"error: cannot import factlab from {ROOT / 'src'}: {exc}")
        return False
    if Path(factlab.__file__).resolve().parent != ROOT / "src" / "factlab":
        log(f"error: factlab imported from {factlab.__file__}, not from the checkout")
        return False
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), required=True)
    args = ap.parse_args(argv)

    if not import_factlab():
        return 3
    import workloads

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        return _run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workloads, workdir: Path) -> int:
    make = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    (workdir / "warmup").mkdir(parents=True)
    wl = make(args.seed, args.scale, workdir)
    warm = make(WARMUP_SEED, "tiny", workdir / "warmup")
    run_pass(warm.jobs(0, warm.threads), tag="warm-up ")
    setup_s = time.perf_counter() - t0
    log(f"{args.workload}: set-up {setup_s:.3f} s")
    if args.mode == "setup":
        return 0

    reference = None
    if wl.compare_threads:
        reference = {}
        t0 = time.perf_counter()
        run_pass(wl.jobs(0, 1), record_stdout=reference, tag="reference ")
        log(f"{args.workload}: threads=1 reference pass {time.perf_counter() - t0:.3f} s")

    passes = []
    if args.trace:
        import tracing

        passes.append(run_pass(wl.jobs(0, wl.threads), reference=reference))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes.append(run_pass(wl.jobs(0, wl.threads), tracer=tracer, reference=reference))
        finally:
            tracer.uninstall()
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = tracer.metrics(passes[1][0], passes[0][0])
    else:
        count = max(wl.min_passes, round(args.seconds / wl.nominal_pass_s))
        for i in range(count):
            passes.append(run_pass(wl.jobs(i if wl.vary_inputs else 0, wl.threads),
                                   reference=reference))
            log(f"{args.workload}: pass {i + 1}/{count} {passes[-1][0]:.3f} s")
        job_times = [t for _, _, jobs in passes for _, t, _ in jobs]
        tail_value, tail_pct, tail_n = tail(job_times)
        metrics = {
            "wall_s": statistics.median(w for w, _, _ in passes),
            "job_s_p50": statistics.median(job_times),
            "job_s_tail": tail_value,
            "cpu_s": statistics.median(c for _, c, _ in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    jobs = [job for _, _, results in passes for job in results]
    failures, known, fixed = split_failures(jobs, wl.known_defects)
    result = {"attempted": len(jobs), "failed": len(failures), "failures": failures,
              "known_defects": known, "fixed_defects": fixed,
              "passes": len(passes), "metrics": metrics}
    if not args.trace:
        result["tail"] = {"percentile": tail_pct, "samples": tail_n}
    OUT.mkdir(parents=True, exist_ok=True)
    details = OUT / f"jobs-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details.write_text(json.dumps([results for _, _, results in passes]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
