"""Closed-loop benchmark of the leibniz-rb library.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-golden --seed 1 --seconds 15 --trace 0

One process, no threads, one caller: the next job starts only after the
previous one has returned, so nothing ever queues and there are no wait
metrics.  Jobs are timed from outside the library and every output is
checked.  The run stops at the first pass boundary after ``--seconds``.
Times are calibrated to a reference host speed (see ``calibration.py``);
the raw wall times are reported in the metadata line.

``--trace 0`` reports the end-to-end metrics: throughput (median over
passes of items per second), job_p50_s, job_p90_s, setup_s (median of
several fresh interpreters that import, build the inputs and warm up) and
peak_rss_mb.  ``--trace 1`` first runs untraced for half the time, then
replays the same passes with the per-layer wrappers of ``tracing.py``, and
reports the per-layer table (counts and times per job) and the tracing
overhead, the relative difference in mean job time between the two.

The last line of stdout is the result JSON; the line before it holds the
run's metadata (seed, git SHA, Python, nproc, load average).  Exit code 0
means every output was correct; 1 means a check failed; 2 means the
benchmark could not run (for instance, no library source beside it).
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from calibration import Calibrator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
MAX_FAILURE_MESSAGES = 5


def die(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_workloads():
    """Import the library from ROOT/src and the workload definitions."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import leibniz_rb
        import workloads
    except ImportError as exc:
        die("cannot import the library from %s: %s" % (src, exc))
    if not os.path.abspath(leibniz_rb.__file__).startswith(src + os.sep):
        die("leibniz_rb imported from %s, not from %s"
            % (leibniz_rb.__file__, src))
    return workloads


def git_sha():
    """HEAD of ROOT/.git without running git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


class Loop:
    """Jobs run by ``run_passes``: (pass index, start, end, items done)."""

    def __init__(self):
        self.jobs = []
        self.failed = 0
        self.passes = 0

    def timed(self, cal):
        """Calibrated and raw job times, and calibrated items/s per pass."""
        times, raw, per_pass = [], [], {}
        for k, t0, t1, items in self.jobs:
            c, r = cal.job_time(t0, t1)
            times.append(c)
            raw.append(r)
            done, busy = per_pass.get(k, (0, 0.0))
            per_pass[k] = (done + items, busy + c)
        return times, raw, [done / busy for done, busy in per_pass.values()]


def run_passes(passes, seconds):
    """Run whole passes until ``seconds`` have elapsed (at least one pass)."""
    loop = Loop()
    clock = time.perf_counter
    start = clock()
    for jobs in passes:
        for job in jobs:
            t0 = clock()
            try:
                result = job.call()
                t1 = clock()
                reason = None
            # A raising job is a failed job; the run goes on and reports it.
            except Exception as exc:
                t1 = clock()
                reason = "%s raised %s: %s" % (job.name, type(exc).__name__,
                                               exc)
            if reason is None:
                reason = job.check(result)
            loop.jobs.append((loop.passes, t0, t1,
                              job.items if reason is None else 0))
            if reason is not None:
                loop.failed += 1
                if loop.failed <= MAX_FAILURE_MESSAGES:
                    sys.stderr.write("perfbench: job failed: %s\n" % reason)
        loop.passes += 1
        if clock() - start >= seconds:
            break
    return loop


def setup_seconds(args):
    """Median calibrated time for a fresh interpreter to import, build and warm up.

    Returns (calibrated median, raw samples).
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    cal = Calibrator()
    samples, raw = [], []
    for _ in range(SETUP_SAMPLES):
        cal.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        t1 = time.perf_counter()
        cal.sample()
        if proc.returncode != 0:
            die("set-up run failed:\n" + proc.stderr)
        c, r = cal.job_time(t0, t1)
        samples.append(c)
        raw.append(r)
    return statistics.median(samples), raw


def p90(times):
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def measure(passes, seconds):
    """The timed end-to-end metrics, and raw figures for the metadata."""
    with Calibrator() as cal:
        loop = run_passes(passes, seconds)
    times, raw, rates = loop.timed(cal)
    metrics = {
        "throughput": (statistics.median(rates), "items/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (p90(times), "s"),
    }
    extra = {"raw_job_p50_s": statistics.median(raw),
             "raw_job_mean_s": statistics.fmean(raw),
             "reference_loop_s": statistics.median(d for _, d in cal.samples)}
    return loop, metrics, extra


def traced(workload, passes, seconds):
    """Untraced then traced runs of the same passes.

    Returns (loop, per-layer table, metadata, names of required metrics
    that are zero).
    """
    import tracing

    ran = []

    def recorded():
        for jobs in passes:
            ran.append(jobs)
            yield jobs

    tracer = tracing.Tracer()
    with Calibrator() as cal:
        ref = run_passes(recorded(), seconds / 2)
        tracer.install()
        try:
            loop = run_passes(ran, float("inf"))
        finally:
            tracer.remove()
    ref_times = ref.timed(cal)[0]
    times, raw, _ = loop.timed(cal)
    overhead = statistics.fmean(times) / statistics.fmean(ref_times) - 1.0
    table = tracer.table(len(loop.jobs), overhead, sum(times) / sum(raw))
    missing = [name for name in tracing.REQUIRED[workload]
               if not table[name][0]]
    loop.jobs = ref.jobs + loop.jobs
    loop.failed += ref.failed
    extra = {"traced_job_mean_s": statistics.fmean(times)}
    return loop, table, extra, missing


def main(argv=None):
    args = parse_args(argv)
    wall0 = time.perf_counter()
    load_start = os.getloadavg()
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        die("unknown workload %r; choose from %s"
            % (args.workload, ", ".join(workloads.WORKLOADS)))
    os.chdir(ROOT)
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.seed).warm_up()
        return 0

    if args.trace:
        w = cls(args.seed)
        w.warm_up()
        loop, metrics, extra, missing = traced(args.workload, w.passes(),
                                               args.seconds)
        for name in missing:
            sys.stderr.write("perfbench: per-layer metric %s is zero on %s\n"
                             % (name, args.workload))
    else:
        setup_s, setup_raw = setup_seconds(args)
        w = cls(args.seed)
        w.warm_up()
        loop, metrics, extra = measure(w.passes(), args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        extra["raw_setup_s"] = setup_raw
        missing = []

    attempted = len(loop.jobs)
    correct = loop.failed == 0 and not missing
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "passes": loop.passes, "jobs": attempted,
        "failed_frac": loop.failed / attempted,
        "wall_s": time.perf_counter() - wall0,
    }
    meta.update(extra)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
