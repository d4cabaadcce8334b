"""End-to-end benchmark of chordalbounds, with an optional traced run.

    python3 perfbench/run.py --workload reliability --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Each workload is one closed loop: a single client in one
thread runs a fixed job list (one pass) over and over, each job only after
the previous one finished, for as many passes as fill about `--seconds` on
the reference host and give at least MIN_SAMPLES job latencies.  Every
output is checked against an independent reference (oracle.py).

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics.  With `--trace 1` every job runs untraced and then
traced (layers.py); the last line holds the per-layer metrics, averaged
per pass, and the tracing overhead from those pairs.  `--workload all`
runs every workload in a process of its own, one after the other.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("reliability", "bounds", "optimize")
MIN_SAMPLES = 100  # at least ten latencies beyond p90
SETUP_REPEATS = 3
WARMUP_JOBS = 2
# Time the speed probe takes at reference speed; see SpeedProbe.
PROBE_REF_S = 0.002
_PROBE_MASK = int("1101001" * 300, 2)


class SpeedProbe:
    """Rescales times to a reference interpreter speed.

    Shared hosts drift in speed by up to a fifth, from one second to the
    next and over tens of seconds, more than the bounds this benchmark has
    to resolve.  A fixed pure-Python probe runs right before every job; it
    mirrors the package's inner loops (Fraction sums, walking the set bits
    of a large mask, scaling a list of floats).  The job's time is
    multiplied by PROBE_REF_S / (that probe's time).  The package never
    runs inside the probe, so a change to it moves only the job times.
    """

    def __init__(self):
        self.last = PROBE_REF_S

    def sample(self):
        start = perf_counter()
        acc = Fraction(0)
        for i in range(1, 150):
            acc += Fraction(i, i + 1)
        weights = [0.5] * 1024
        total, mask = 0.0, _PROBE_MASK
        while mask:
            low = mask & -mask
            total += weights[low.bit_length() % 1024]
            mask ^= low
        for _ in range(3):
            weights = [w * 0.9 for w in weights] + [w * 0.1 for w in weights]
        self.last = perf_counter() - start

    def scale(self) -> float:
        return PROBE_REF_S / self.last


def percentile(samples, q: float) -> float:
    """Smoothed percentile: the mean of the sorted latencies whose rank lies
    within five percentile points of q.  Failed jobs are +inf and rank last.

    A single order statistic jumps between neighbouring job sizes from one
    seed to the next; the window keeps at least ten samples (a run has at
    least MIN_SAMPLES) and moves only where the latencies around q move.
    """
    ordered = sorted(samples)
    n = len(ordered)
    low = max(0, math.ceil((q - 0.05) * n) - 1)
    high = max(low + 1, min(n, math.ceil((q + 0.05) * n)))
    return statistics.fmean(ordered[low:high])


def time_job(job, check, probe):
    """Run one job.  Returns its rescaled latency (+inf if it failed) and
    None, or "error" when it raised or exited non-zero, or "wrong" when its
    output disagreed with the reference."""
    # A CLI user pays for a fresh interpreter, not for the previous job's garbage.
    gc.collect()
    probe.sample()
    start = perf_counter()
    try:
        result = job.call()
    except Exception:
        return math.inf, "error"
    elapsed = (perf_counter() - start) * probe.scale()
    if isinstance(result, tuple) and result[0] != 0:
        return math.inf, "error"
    try:
        ok = bool(check(result))
    except Exception:
        ok = False
    return (elapsed, None) if ok else (math.inf, "wrong")


def run_passes(jobs, checks, probe, passes: int, tracer=None):
    """Run the job list `passes` times.  Returns latencies and the failed
    jobs as (label, kind).  With a tracer, each job runs untraced and then
    traced, and the traced latencies come back as a third list."""
    latencies, failed, traced = [], [], []
    for _ in range(passes):
        for job, check in zip(jobs, checks):
            latency, kind = time_job(job, check, probe)
            latencies.append(latency)
            if kind:
                failed.append((job.label, kind))
            if tracer is not None:
                tracer.start_job(len(traced))
                tracer.install()
                try:
                    traced.append(time_job(job, check, probe)[0])
                finally:
                    tracer.uninstall()
    return latencies, failed, traced


def pass_count(workload: str, seconds: float, jobs: int) -> int:
    """Passes that fill about `seconds` on the reference host and give at
    least MIN_SAMPLES latencies.  Fixed from the arguments, not from the
    clock, so a slow spell on the host never changes which jobs are timed."""
    from workloads import PASS_S

    return max(1, round(seconds / PASS_S[workload]), math.ceil(MIN_SAMPLES / jobs))


def setup(workload: str, seed: int, workdir: str, probe):
    """Generate and write the inputs, then warm up.  Repeated; returns the
    job list and the median rescaled time of one repetition."""
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        start = perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        jobs = workloads.JOB_LISTS[workload](seed, workdir)
        for job in jobs[:WARMUP_JOBS]:
            try:
                job.call()
            except Exception:
                pass  # counted when the job runs for real
        times.append((perf_counter() - start) * probe.scale())
    return jobs, statistics.median(times)


def end_to_end(workload: str, latencies, setup_s: float) -> dict:
    from workloads import JOB_LIMIT_S

    limit = JOB_LIMIT_S[workload]
    done = [x for x in latencies if x != math.inf]
    # A failed job is charged the per-job limit, so turning a failure into
    # a correct answer can never read as a slowdown.
    charged = sum(done) + limit * (len(latencies) - len(done))

    def ms(x):
        # JSON has no infinity: a percentile that falls on a failed job
        # reads as twice the per-job limit.
        return 1000 * (2 * limit if x == math.inf else x)

    return {
        "jobs_per_s": (len(done) / charged, "1/s"),
        "job_p50_ms": (ms(percentile(latencies, 0.5)), "ms"),
        "job_p90_ms": (ms(percentile(latencies, 0.9)), "ms"),
        "success_rate": (len(done) / len(latencies), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(workload: str, seed: int, jobs, checks, probe, seconds: float):
    """Each job untraced and then traced, in passes filling the run.
    Returns latencies, failed jobs, per-layer metrics (per pass) and the
    spans file."""
    from layers import Tracer
    from workloads import PASS_S

    passes = max(1, round(seconds / 2 / PASS_S[workload]))
    tracer = Tracer()
    plain, failed, lat = run_passes(jobs, checks, probe, passes, tracer)
    metrics = {
        name: (value if unit == "ratio" else value / passes, unit)
        for name, (value, unit) in tracer.metrics().items()
    }
    # Rescaled job time per pass of the jobs that succeeded, with and
    # without tracing; each job ran both ways back to back.
    pairs = [(a, b) for a, b in zip(plain, lat) if a != math.inf and b != math.inf]
    plain_pass = sum(a for a, _ in pairs) / passes
    traced_pass = sum(b for _, b in pairs) / passes
    metrics["trace.overhead_ratio"] = (traced_pass / plain_pass - 1, "ratio")
    metrics["trace.overhead_ms_per_job"] = (1000 * (traced_pass - plain_pass) / len(jobs), "ms")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    tracer.write_spans(spans, {"workload": workload, "seed": seed, "passes": passes})
    return plain, failed, metrics, spans


def run_workload(args) -> dict:
    start = perf_counter()
    sys.path.insert(0, SRC)
    import chordalbounds
    import chordalbounds.cli  # noqa: F401  (imported by every CLI job)

    import_s = perf_counter() - start
    probe = SpeedProbe()
    probe.sample()
    import_s *= probe.scale()
    if not os.path.abspath(chordalbounds.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"chordalbounds was imported from {chordalbounds.__file__}, not from {SRC}")
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        jobs, setup_s = setup(args.workload, args.seed, workdir, probe)
        start = perf_counter()
        checks = [job.make_check() for job in jobs]
        reference_s = perf_counter() - start
        if args.trace:
            latencies, failed, metrics, spans = traced(args.workload, args.seed, jobs, checks, probe, args.seconds)
        else:
            passes = pass_count(args.workload, args.seconds, len(jobs))
            latencies, failed, _ = run_passes(jobs, checks, probe, passes)
            metrics = end_to_end(args.workload, latencies, import_s + setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    print(f"workload {args.workload}  seed {args.seed}  jobs/pass {len(jobs)}  "
          f"samples {len(latencies)}  reference {reference_s:.2f} s  python {sys.version.split()[0]}")
    if failed:
        counts = {item: failed.count(item) for item in failed}
        print("failed jobs: " + ", ".join(f"{label} ({kind}) x{n}" for (label, kind), n in counts.items()))
    if args.trace:
        print(f"spans written to {os.path.relpath(spans, ROOT)}")
        shown = sorted((m for m in metrics if m.endswith(".self_s") and metrics[m][0]), key=lambda m: -metrics[m][0])
        for name in shown:
            calls = metrics[name[: -len("self_s")] + "calls"][0]
            print(f"  {name:<42} {metrics[name][0]:>10.4f} s  calls/pass {calls:g}")
    else:
        print(f"passes {passes}  error_rate {len(failed) / len(latencies):.4f} ratio")
    for name, (value, unit) in metrics.items():
        if not args.trace or name.startswith("trace."):
            print(f"  {name:<28} {value:.6g} {unit}")
    return {
        # Jobs that raised or exited non-zero are failed operations; an
        # output that disagrees with the reference makes the run incorrect.
        "correct": all(kind != "wrong" for _, kind in failed),
        "attempted": len(latencies),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in a fresh process, so peak RSS belongs to one workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "chordalbounds", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
