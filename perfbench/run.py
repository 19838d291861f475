"""tmes benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verdict --seed 0 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/`` next to
this directory.  One process is the only caller and works in a closed loop:
each call starts when the previous one returns.  A pass runs every item of
the workload once; passes repeat until ``--seconds`` have elapsed.  Before
and after every item its fixed kernel from ``reference.py`` runs, outside the
pass time.  The end-to-end timings count each call in units of that kernel's
time around it (unit ``ref``): the shared host's speed drifts by up to a
quarter within minutes, and the ratio cancels that.  BLAS runs
on one thread, set before numpy is imported and recorded in the fingerprint:
on a shared two-CPU machine a second BLAS thread made passes both slower and
less steady.  The traced ``protocols`` run is repeated on two BLAS threads.

The last line of standard output is the result: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run whose
passes alternate traced and untraced.  The line before it is the run record:
environment fingerprint, sample counts, the timings in wall seconds and any
correctness failures.  Both,
and the spans of a traced run, are also written to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_runs"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
REPEAT_THREADS = 2
SETUP_REPEATS = 5
# The tail slowdown is the highest that still has this many calls above it.
TAIL_ABOVE = 10
REFERENCE = "reference"
# Reference calls whose median times each call; see relative().
REFERENCE_WINDOW = 9
CHILD_TIMEOUT_S = 120

END_TO_END = (
    ("pass_ref", "ref"),
    ("pass_tail_ref", "ref"),
    ("frontier_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--threads", type=int, default=None,
        help=f"BLAS threads (default {BLAS_THREADS}); the traced protocols run "
        f"repeats itself with {REPEAT_THREADS}",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="build the inputs and exit; timed from outside for setup_s",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.threads is not None and args.threads < 1:
        parser.error("--threads must be at least 1")
    return args


def blas_threads_in_effect() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import numpy

    for lib_path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str | None:
    # The ceiling keeps git from reporting an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(seed: int, threads: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_requested": threads,
        "blas_threads_in_effect": blas_threads_in_effect(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def self_command(args: argparse.Namespace, threads: int, *extra: str) -> list[str]:
    """This script on the same workload and seed, as a child process."""
    return [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--threads", str(threads), *extra,
    ]


def time_setup(args: argparse.Namespace, threads: int) -> list[float]:
    """Time from spawning a fresh process to its inputs being built.

    The child prints the system-wide monotonic clock once its inputs exist,
    so neither interpreter shutdown nor the parent's wait is counted.
    """
    cmd = self_command(args, threads, "--setup-only")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        out = subprocess.run(
            cmd, check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        times.append(float(out.stdout.split()[-1]) - start)
    return times


def _guarded(fn, *args):
    """Run one call; an exception becomes a failure message, not an exit."""
    try:
        return fn(*args), None
    except Exception as err:  # a failing item is counted, and the run goes on
        return None, "".join(traceback.format_exception_only(err)).strip()


class Runner:
    """Closed-loop passes over a workload's items, with outputs checked
    between passes, outside the timed region.

    Before and after each item its reference kernel runs, outside the pass
    time; between two items with the same kernel it runs once.  Every call
    of an untraced pass, item or kernel, goes into ``timeline`` as (pass
    index, name, kernel, start, duration); a kernel's name is REFERENCE."""

    def __init__(self, items, kernels, tracer=None, probe=None):
        self.items = items
        self.kernels = kernels
        self.tracer = tracer
        self.probe = probe
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.timeline: list[tuple[int, str, str, float, float]] = []
        self.attempted = 0
        self.failures: list[str] = []

    def _timed(self, name: str, kernel: str, fn, traced: bool):
        t0 = time.perf_counter()
        out = _guarded(fn)
        took = time.perf_counter() - t0
        if not traced:
            self.timeline.append((len(self.untraced), name, kernel, t0, took))
        return out, took

    def _references(self, kernels: list[str], traced: bool) -> None:
        for kernel in dict.fromkeys(kernels):
            self._timed(REFERENCE, kernel, self.kernels[kernel], traced)

    def one_pass(self, traced: bool) -> None:
        # Every pass starts from the same collector state, so the cyclic
        # collections inside it fall at the same calls in every run.
        gc.collect()
        if traced:
            self.tracer.install()
        results = []
        elapsed = 0.0
        kernels = [item.reference for item in self.items]
        for i, item in enumerate(self.items):
            self._references(kernels[max(i - 1, 0) : i + 1], traced)
            out, took = self._timed(item.name, item.reference, item.run, traced)
            results.append(out)
            elapsed += took
        self._references(kernels[-1:], traced)
        if traced:
            self.tracer.uninstall()
            self.traced.append(elapsed)
            if self.probe is not None:
                self.probe(self.tracer.span)
        else:
            self.untraced.append(elapsed)
        for item, (out, error) in zip(self.items, results):
            self.attempted += 1
            if error is None:
                verdict, crash = _guarded(item.check, out)
                error = crash or verdict
            if error:
                self.failures.append(f"{item.name}: {error}")

    def warm_up(self) -> None:
        for item in self.items:
            if item.warm:
                _guarded(item.run)
            self.kernels[item.reference]()

    def run(self, seconds: float) -> None:
        """Untraced passes, or untraced and traced in turn, for ``seconds``."""
        start = time.perf_counter()
        while True:
            traced = self.tracer is not None and len(self.untraced) > len(self.traced)
            self.one_pass(traced)
            done = time.perf_counter() - start >= seconds
            if done and (self.tracer is None or self.traced):
                return


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest sample with TAIL_ABOVE samples above it, and how many are
    above it.  With TAIL_ABOVE samples or fewer none qualifies, and the
    lowest is taken: the value then moves smoothly as the count changes."""
    ordered = sorted(samples)
    index = max(0, len(ordered) - 1 - TAIL_ABOVE)
    return ordered[index], len(ordered) - 1 - index


def slowdowns(item_times: dict[str, list[float]]) -> list[float]:
    """Every untraced call's time over the median time of its item.  The
    tail pass is the median pass times the tail of these.

    A run holds too few passes for a pass-time tail above the median, but
    many calls: pooled this way, a stall in any item counts as a sample."""
    out = []
    for times in item_times.values():
        if times:
            median = statistics.median(times)
            out += [t / median for t in times]
    return out


def relative(timeline: list[tuple[int, str, str, float, float]]) -> list[float]:
    """Each call's duration over the median duration of the REFERENCE_WINDOW
    runs of its kernel nearest to it in time.

    The window follows the host's drift over a few seconds while its median
    smooths out the jitter of single short samples."""
    refs: dict[str, list[tuple[float, float]]] = {}
    for _, name, kernel, start, took in timeline:
        if name == REFERENCE:
            refs.setdefault(kernel, []).append((start + took / 2, took))
    out = []
    for _, _, kernel, start, took in timeline:
        mid = start + took / 2
        nearest = sorted(refs[kernel], key=lambda ref: abs(ref[0] - mid))[:REFERENCE_WINDOW]
        out.append(took / statistics.median(d for _, d in nearest))
    return out


def by_pass(
    timeline: list[tuple[int, str, str, float, float]], values: list[float]
) -> tuple[list[float], dict[str, list[float]]]:
    """Per-pass sums and per-item lists of ``values`` (one per timeline
    entry), reference calls left out."""
    passes: dict[int, float] = {}
    items: dict[str, list[float]] = {}
    for (index, name, _, _, _), value in zip(timeline, values):
        if name != REFERENCE:
            passes[index] = passes.get(index, 0.0) + value
            items.setdefault(name, []).append(value)
    return list(passes.values()), items


def timings(
    passes: list[float], item_samples: dict[str, list[float]], frontier: str
) -> tuple[float, float, float]:
    """Median pass, tail pass and median frontier call, in the unit of the
    samples given: wall seconds or reference-relative."""
    median = statistics.median(passes)
    return (
        median,
        median * tail(slowdowns(item_samples))[0],
        statistics.median(item_samples[frontier]),
    )


def end_to_end(
    rel: tuple[float, float, float],
    setup: list[float],
    peak_rss_mb: float,
) -> dict[str, float]:
    pass_ref, pass_tail_ref, frontier_ref = rel
    return {
        "pass_ref": pass_ref,
        "pass_tail_ref": pass_tail_ref,
        "frontier_ref": frontier_ref,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }


def two_thread_repeat(args: argparse.Namespace) -> dict[str, float]:
    """Per-layer metrics of the same traced run with BLAS on two threads."""
    cmd = self_command(args, REPEAT_THREADS, "--trace", "1")
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    threads = args.threads or BLAS_THREADS
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    if not (SRC / "tmes" / "__init__.py").is_file():
        print(f"error: the tmes sources are missing from {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import reference
    import spans
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"expected one of {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp:
        workdir = Path(tmp)
        if args.setup_only:
            workload.build(args.seed, workdir)
            print(time.monotonic())
            return 0
        setup = [] if args.trace else time_setup(args, threads)
        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        items = workload.build(args.seed, workdir)
        if tracer is not None:
            tracer.uninstall()
        runner = Runner(items, reference.KERNELS, tracer, workload.probe)
        runner.warm_up()
        runner.run(args.seconds)

    durations = [took for _, _, _, _, took in runner.timeline]
    refs: dict[str, list[float]] = {}
    for _, name, kernel, _, took in runner.timeline:
        if name == REFERENCE:
            refs.setdefault(kernel, []).append(took)
    wall_passes, item_times = by_pass(runner.timeline, durations)
    rel_passes, item_rel = by_pass(runner.timeline, relative(runner.timeline))
    wall = timings(wall_passes, item_times, workload.frontier)
    rel = timings(rel_passes, item_rel, workload.frontier)
    reference_s = {kernel: statistics.median(times) for kernel, times in refs.items()}
    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = end_to_end(rel, setup, peak_rss_mb)
        units = dict(END_TO_END)
    else:
        repeat = None
        usable = len(os.sched_getaffinity(0))
        if workload.two_thread_repeat and threads != REPEAT_THREADS and usable >= REPEAT_THREADS:
            repeat = two_thread_repeat(args)
        values = tracer.layer_metrics(
            runner.traced, runner.untraced, reference_s["mixed"], repeat
        )
        units = {name: unit for name, unit, _ in spans.layer_names()}

    failed = len(runner.failures)
    slowdown = slowdowns(item_rel)
    tail_slowdown, above = tail(slowdown)
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "fingerprint": fingerprint(args.seed, threads),
        "frontier_item": workload.frontier,
        "passes": {"untraced": len(runner.untraced), "traced": len(runner.traced)},
        "wall_s": dict(zip(("pass_s", "pass_tail_s", "frontier_s"), wall)),
        "reference_s": reference_s,
        "reference_calls": {kernel: len(times) for kernel, times in refs.items()},
        "tail_slowdown": tail_slowdown,
        "tail_calls_pooled": len(slowdown),
        "tail_calls_above": above,
        "setup_samples": setup,
        "item_medians_s": {
            name: statistics.median(times) for name, times in item_times.items()
        },
        "item_medians_ref": {
            name: statistics.median(times) for name, times in item_rel.items()
        },
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures[:20],
    }
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}-threads{threads}"
    doc = {"record": record, "result": result, "timeline": runner.timeline}
    if tracer is not None:
        doc["trace"] = tracer.dump()
    (RUN_DIR / f"{stem}.json").write_text(json.dumps(doc))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
