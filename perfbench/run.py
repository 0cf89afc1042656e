"""temcgl benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload grow-coverage --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports ``temcgl`` from ``src/`` and
nothing else. One process runs one workload: set-up (repeated, median
reported), one untimed warm-up run, then whole runs back to back until
``--seconds`` have passed. Every run's outputs are checked; a run that raises
or fails a check counts in ``failed``. The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``. Metric names and units come from
BENCHMARK.json.

With ``--trace 1`` the first half of the measuring time runs untraced and
the second half traced (see tracer.py); the ratio of the two median run
times is ``trace.overhead_frac``. Spans are written to
``.perfbench-results/`` at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import RUN_ROOT, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MIN_RUNS = 3
SETUP_SECONDS = 2.0  # set-up repeats at least this long (and MIN_RUNS times)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time per process")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny is for the smoke test only")
    p.add_argument("--inject-fault", choices=("none", "truncate-buffer"), default="none",
                   help="corrupt an output copy before it is checked (smoke test)")
    return p.parse_args(argv)


def import_temcgl():
    """Import temcgl from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import temcgl

    if not Path(temcgl.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"temcgl was imported from {temcgl.__file__}, not from {src}")
    return temcgl


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


class Tally:
    """Runs attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("; ".join(problems))


def checked_run(wl, ref, tally: Tally, tracer=None):
    """One whole run (timed) and its output checks (untimed).

    Returns (seconds, output). A run that raises counts as failed and
    returns (None, None); a run whose outputs fail a check counts as failed
    but keeps its time.
    """
    start = time.perf_counter()
    try:
        if tracer is None:
            out = wl.run()
        else:
            with tracer.span(RUN_ROOT):
                out = wl.run()
    except Exception as exc:  # a failing run is a result, not a crash
        tally.record([f"run raised {type(exc).__name__}: {exc}"])
        return None, None
    elapsed = time.perf_counter() - start
    try:
        problems = wl.check(out, ref)
    except Exception as exc:
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    tally.record(problems)
    return elapsed, out


def timed_loop(wl, ref, seconds: float, tally: Tally, tracer=None):
    """Closed loop: whole runs back to back until `seconds` have passed."""
    times, written = [], []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_RUNS or time.perf_counter() < deadline:
        elapsed, out = checked_run(wl, ref, tally, tracer)
        if out is None:
            if time.perf_counter() >= deadline:
                break
            continue
        times.append(elapsed)
        written.append(wl.bytes_written(out))
        wl.discard(out)
    return times, written


def measure(args):
    import workloads

    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl = workloads.make(args.workload, args.seed, args.scale, Path(tmp), args.inject_fault)
        wl.prepare()
        setup_times = []
        while len(setup_times) < MIN_RUNS or sum(setup_times) < SETUP_SECONDS:
            start = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - start)

        # Untimed warm-up; its outputs are the reference later runs must equal.
        try:
            out = wl.run()
            ref = wl.reference(out)
            problems = wl.check(out, None)
        except Exception as exc:  # a failing run is a result, not a crash
            tally.record([f"warm-up raised {type(exc).__name__}: {exc}"])
            return tally, None, {}
        tally.record(problems)
        wl.discard(out)
        figures = wl.metrics(ref)

        if not args.trace:
            times, _ = timed_loop(wl, ref, args.seconds, tally)
            if not times:
                return tally, None, {}
            run_s = statistics.median(times)
            figures.update(
                setup_s=statistics.median(setup_times),
                run_s=run_s,
                node_tasks_per_s=figures["node_tasks"] / run_s,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
            return tally, times, figures

        plain, _ = timed_loop(wl, ref, args.seconds / 2, tally)
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                wl.setup()
            traced, written = timed_loop(wl, ref, args.seconds / 2, tally, tracer)
        finally:
            tracer.uninstall()
        tracer.write(ROOT / ".perfbench-results" / f"spans-{args.workload}-seed{args.seed}.jsonl")
        if not plain or not traced:
            return tally, None, {}
        figures.update(layer_metrics(tracer.spans))
        candidates = figures["coverage.candidates"]
        figures.update({
            "harness.self_s": figures["harness.run_continual.self_s"],
            "coverage.selected_per_candidate":
                figures["coverage.selected"] / candidates if candidates else 0.0,
            "buffer.serialized_per_final_byte":
                figures["buffer.bytes_serialized"] / figures["buffer_bytes"],
            "cli.bytes_written": statistics.median(written),
            "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
        })
        figures["absent"] = tracer.absent
        return tally, traced, figures


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "openblas_threads": openblas_threads(),
        "cpu": cpu,
        "commit": commit,
    }


def tail_line(times: list[float]) -> str:
    """The median and the highest percentile with at least ten samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    line = f"run_s: median {statistics.median(ordered):.6f} s over {n} runs"
    if n > 10:
        k = n - 10
        line += f"; p{100.0 * k / n:.0f} {ordered[k - 1]:.6f} s (10 runs above it)"
    else:
        line += "; too few runs for a tail percentile with ten runs above it"
    return line + "\nrun times: " + " ".join(f"{t:.4f}" for t in times)


def report(args, tally: Tally, times, figures) -> int:
    section = "per_layer" if args.trace else "end_to_end"
    print("env: " + json.dumps(environment(args), sort_keys=True))
    correct = tally.failed == 0 and times is not None
    metrics = {}
    if times is not None:
        print(tail_line(times))
        for metric in SPEC[section]:
            metrics[metric["name"]] = {"value": figures[metric["name"]], "unit": metric["unit"]}
            print(f"{metric['name']} = {figures[metric['name']]!r} {metric['unit']}")
        if "final_af" in figures:
            print(f"final_af = {figures['final_af']!r} fraction")
        if figures.get("absent"):
            print("absent (reads 0): " + ", ".join(figures["absent"]))
    print(f"error_rate = {tally.failed}/{tally.attempted}")
    for reason in tally.reasons:
        print(f"failed: {reason}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale,
               "--inject-fault", args.inject_fault]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread: the matrices here are small enough that a second thread
    # gains nothing, and run times vary less without it on a shared 2-core VM.
    # Set before numpy is first imported; `all` passes it to its children.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if args.workload == "all":
        return run_all(args)
    try:
        import_temcgl()
    except ImportError as exc:
        print(f"error: cannot import temcgl: {exc}", file=sys.stderr)
        return 2
    tally, times, figures = measure(args)
    return report(args, tally, times, figures)


if __name__ == "__main__":
    raise SystemExit(main())
