"""Benchmark of the neumann_domains pipeline; see README.md beside this file.

    python3 perfbench/run.py --workload lambda17-spectral --seed 1 \
        --seconds 50 --trace 0

runs one workload in this process and prints a summary, then, as its last
line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The untraced run (``--trace 0``) repeats the workload's passes
step by step until ``--seconds`` have passed (at least one whole pass) and
reports the end-to-end metrics; the traced run (``--trace 1``) reports the
per-layer ones.  ``--workload all`` runs every workload, each in its own
process.  The package is imported from ``src/`` of the checkout this file
sits in.

Times are scaled to a reference host speed.  On a small shared host the
same step runs up to 1.6 times slower while neighbours load it, for
seconds to minutes, and CPU time slows with it.  A fixed pure-Python loop
timed beside every step measures that speed; a step's time is scaled by
CAL_REF_S over the loop's time, CAL_REF_S being the loop's time on the
reference machine when the host is quiet.
"""

import time

CAL_LOOP = 50_000
CAL_REF_S = 0.0031


def calibration_loop():
    """Time of a fixed pure-Python loop: how fast the host runs just now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_LOOP):
        s += i * i
    return time.perf_counter() - t0


CAL_START = calibration_loop()
START = time.perf_counter()

import argparse  # noqa: E402  (the set-up time starts before any import)
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
NPROC = len(os.sched_getaffinity(0))
# one BLAS thread: on a small shared host, a second BLAS thread waits on
# whichever core a neighbour holds, and the solve times follow the neighbour
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
WORKLOAD_NAMES = ("lambda17-spectral", "separable-fine")
CAL_EVERY_S = 0.25
SETUP_SAMPLES = 3           # set-ups per run, the first in this process
SETUP_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 900


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)   # one set-up sample, for a parent
    return ap.parse_args(argv)


def setup(args, work_dir):
    """Import the package, generate the inputs and load the field."""
    if not os.path.isdir(os.path.join(SRC, "neumann_domains")):
        raise SystemExit(f"no package source at {SRC}")
    sys.path.insert(0, SRC)
    import workloads
    workload = workloads.WORKLOADS[args.workload]()
    inputs = workload.setup(args.seed, work_dir)
    return workload, inputs


def scaled_setup_s():
    """Time since START, scaled by the loops before START and now."""
    took = time.perf_counter() - START
    return took * CAL_REF_S / statistics.fmean((CAL_START,
                                                calibration_loop()))


def setup_sample(args):
    """Set-up time of a fresh process running the same workload and seed."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(out.stdout.split()[-1])


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class HostClock:
    """Times steps, and the host's speed while each step ran.

    The calibration loop runs at every step boundary and, from a SIGALRM
    handler, every ``CAL_EVERY_S`` seconds inside a step.  A step's speed
    is the mean loop time from its start to its end; its duration leaves
    out the time spent in the handler.
    """

    def __init__(self):
        self.loops = []          # (end time, loop time)
        self.spent = 0.0         # seconds spent in the handler

    def _sample(self, signum, frame):
        t = calibration_loop()
        self.loops.append((time.perf_counter(), t))
        self.spent += t

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def mark(self):
        """A step boundary: the time and handler total on each side of one
        calibration loop."""
        before = (time.perf_counter(), self.spent)
        loop = calibration_loop()
        loop -= self.spent - before[1]      # a handler that fired inside
        self.loops.append((time.perf_counter(), loop))
        return len(self.loops) - 1, before, (time.perf_counter(), self.spent)

    def step(self, start, end):
        """Duration and mean loop time of the step between two marks."""
        (i0, _, (t0, spent0)), (i1, (t1, spent1), _) = start, end
        loops = [t for _, t in self.loops[i0:i1 + 1]]
        return t1 - t0 - (spent1 - spent0), statistics.fmean(loops)


def run_pass(workload, samples, deadline=None, clock=None):
    """One pass, step by step, timing each step into ``samples``.

    ``samples[name]`` gets (duration, loop time) per step; the loop time is
    None without a ``clock``.  With a ``deadline``, the pass stops before
    the first step that would start after it.  Returns the PassResult,
    whether the pass was whole, and its duration.
    """
    res = workload.begin_pass()
    total = 0.0
    mark = clock.mark() if clock else None
    for name, _, step in workload.steps:
        t0 = time.perf_counter()
        if deadline is not None and t0 >= deadline:
            return res, False, total
        step(res)
        if clock:
            end = clock.mark()
            dur, loop = clock.step(mark, end)
            mark = end
        else:
            dur, loop = time.perf_counter() - t0, None
        samples[name].append((dur, loop))
        total += dur
    workload.end_pass(res)
    return res, True, total


def check_repeat(whole, what, key=lambda p: p.work):
    """One operation per extra whole pass: work counts must repeat."""
    first = key(whole[0])
    return [(key(p) == first, f"{what} differ between passes: "
             f"{key(p)} vs {first}") for p in whole[1:]]


def summarize(results, checks):
    attempted = sum(r.attempted for r in results) + len(checks)
    failed = sum(r.failed for r in results) + sum(not ok for ok, _ in checks)
    problems = [w for r in results for w in r.problems]
    problems += [w for ok, w in checks if not ok]
    return attempted, failed, problems


def env_line(inputs):
    import numpy
    import scipy
    return (f"python {platform.python_version()} numpy {numpy.__version__} "
            f"scipy {scipy.__version__} nproc {NPROC} blas_threads "
            f"{os.environ['OPENBLAS_NUM_THREADS']} inputs "
            f"{json.dumps(inputs, sort_keys=True)}")


def run_untraced(args, workload, setup_s):
    """Passes until ``--seconds`` are up.

    A step's figure is the median of its repeats, each scaled to the
    reference host speed: duration x CAL_REF_S / loop time beside it.
    """
    samples = defaultdict(list)
    results, whole, whole_s = [], [], []
    deadline = time.perf_counter() + args.seconds
    with HostClock() as clock:
        while True:
            res, complete, dur = run_pass(workload, samples,
                                          deadline if whole else None, clock)
            results.append(res)
            if complete:
                whole.append(res)
                whole_s.append(round(dur, 3))
            if not complete or time.perf_counter() >= deadline:
                break
    checks = check_repeat(whole, "work counts")
    scaled = {name: [d * CAL_REF_S / loop for d, loop in samples[name]]
              for name in samples}

    def step_sum(kinds, times):
        return sum(statistics.median(times[name])
                   for name, kind, _ in workload.steps if kind in kinds)

    kinds = {kind for _, kind, _ in workload.steps}
    domain_s = sorted(t for name, kind, _ in workload.steps
                      if kind == "domain" for t in scaled[name])
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "pass_s": (step_sum(kinds, scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    wall = {name: [d for d, _ in samples[name]] for name in samples}
    loops = sorted(t for _, t in clock.loops)
    # summary only: a shorter window than pass_s, or not on every workload
    notes = [f"{'partition_s':<24}{step_sum({'partition'}, scaled):16.6g} s"]
    notes += [f"{'domain_s.p%d' % q:<24}{percentile(domain_s, q):16.6g} s   "
              f"({len(domain_s)} domain solves)" for q in (50, 90)]
    notes.append(f"{'wall_pass_s':<24}{step_sum(kinds, wall):16.6g} s   "
                 f"(unscaled)")
    counts = sorted(len(v) for v in samples.values())
    notes += [f"setup_s: median of {len(setup_s)} set-ups",
              f"pass_s: sum of step medians over {len(results)} passes "
              f"({len(whole)} whole), {counts[0]}-{counts[-1]} samples per "
              f"step; whole passes took {whole_s} s of wall time",
              f"host speed: calibration loop {len(loops)} times, "
              f"min/median/max {loops[0] * 1e3:.2f}/"
              f"{statistics.median(loops) * 1e3:.2f}/{loops[-1] * 1e3:.2f} ms, "
              f"reference {CAL_REF_S * 1e3:.2f} ms"]
    work = dict(whole[0].work)
    digest = hashlib.sha256(json.dumps(work, sort_keys=True).encode())
    notes.append(f"work {json.dumps(work, sort_keys=True)} "
                 f"digest {digest.hexdigest()[:12]}")
    return results, checks, metrics, notes


def run_traced(args, workload):
    """Whole traced passes for half of ``--seconds`` (at least one), then one
    untraced pass for the tracing overhead.

    The untraced pass comes last, so it runs warm where the first traced
    pass ran cold, and the overhead errs on the high side.
    """
    import spans
    traced = []
    deadline = time.perf_counter() + args.seconds / 2
    with spans.Tracer(spans.public_functions()) as tracer:
        while not traced or time.perf_counter() < deadline:
            tracer.reset()
            res, _, dur = run_pass(workload, defaultdict(list))
            layers = tracer.layer_metrics()
            layers["cli.report_bytes"] = res.work.get("report_bytes", 0)
            traced.append((res, dur, layers))
        peak_alloc_mb = tracer.peak_alloc_mb()
    base, _, base_s = run_pass(workload, defaultdict(list))
    per_pass = [p[2] for p in traced]
    counts = [k for k in per_pass[0] if unit_of(k) in ("count", "bytes")]
    results = [p[0] for p in traced] + [base]
    checks = check_repeat(results, "work counts")
    checks += check_repeat(per_pass, "layer counts",
                           key=lambda p: {k: p[k] for k in counts})
    metrics = {key: (per_pass[0][key] if key in counts else
                     statistics.median(p[key] for p in per_pass),
                     unit_of(key)) for key in sorted(per_pass[0])}
    metrics["meshing.peak_alloc_mb"] = (peak_alloc_mb, "MB")
    metrics["trace.overhead_s"] = (
        statistics.median(p[1] for p in traced) - base_s, "s")
    notes = [f"traced passes {[round(p[1], 3) for p in traced]}, then "
             f"untraced pass {round(base_s, 3)}"]
    return results, checks, metrics, notes


def unit_of(key):
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if key.endswith("_bytes"):
        return "bytes"
    return "count"


def run_all(args):
    """Every workload in its own process, so no memory peak carries over."""
    worst = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        code = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], timeout=WORKLOAD_TIMEOUT_S
        ).returncode
        worst = max(worst, code)
    return worst


def main(argv=None):
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as work_dir:
        workload, inputs = setup(args, work_dir)
        setup_s = [scaled_setup_s()]
        if args.setup_only:
            print(repr(setup_s[0]))
            return 0
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        print(env_line(inputs))
        if args.trace:
            results, checks, metrics, notes = run_traced(args, workload)
        else:
            setup_s += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
            results, checks, metrics, notes = run_untraced(args, workload,
                                                           setup_s)
    attempted, failed, problems = summarize(results, checks)
    for name, (value, unit) in metrics.items():
        print(f"{name:<24}{value:16.6g} {unit}")
    for line in notes:
        print(line)
    print(f"{'fail_frac':<24}{failed / attempted:16.6g}   "
          f"({failed} of {attempted} operations)")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
