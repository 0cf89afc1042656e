"""Smoke test of the benchmark itself, at a tiny size (about a minute).

    python3 perfbench/smoke.py

For every workload it checks that an untraced and a traced run print every
metric of BENCHMARK.json with its unit and pass their output checks, and
that a truncated copy of ``buffer.bin`` is counted as a failed run. It also
checks that a directory holding only the benchmark, without ``src/``, makes
the benchmark exit non-zero without printing a result. Exits 1 on any
failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)
        print(f"FAIL {message}", flush=True)


def bench(root: Path, *args: str) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--seconds", "1", *args]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170, check=False)
    return done.returncode, done.stdout.splitlines()


def result(lines: list[str]) -> dict | None:
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_metrics(name: str, trace: int) -> None:
    section = "per_layer" if trace else "end_to_end"
    code, lines = bench(ROOT, "--workload", name, "--seed", "3", "--trace", str(trace),
                        "--scale", "tiny")
    tag = f"{name} --trace {trace}"
    res = result(lines)
    expect(code == 0, f"{tag}: exit code {code}")
    if res is None:
        expect(False, f"{tag}: last line is not a JSON result")
        return
    expect(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{tag}: result keys")
    expect(res["correct"] and res["failed"] == 0, f"{tag}: {res['failed']} failed runs")
    expect(res["attempted"] >= 2, f"{tag}: only {res['attempted']} runs attempted")
    names = [m["name"] for m in SPEC[section]]
    expect(sorted(res["metrics"]) == sorted(names), f"{tag}: metric names differ from BENCHMARK.json")
    for metric in SPEC[section]:
        got = res["metrics"].get(metric["name"], {})
        expect(got.get("unit") == metric["unit"], f"{tag}: {metric['name']} unit")
        expect(isinstance(got.get("value"), (int, float)), f"{tag}: {metric['name']} value")
        expect(any(line.startswith(f"{metric['name']} = ") and line.endswith(f" {metric['unit']}")
                   for line in lines), f"{tag}: {metric['name']} not printed with its unit")
        if not trace:
            expect(got.get("value") != 0, f"{tag}: end-to-end metric {metric['name']} reads 0")


def check_fault(name: str) -> None:
    code, lines = bench(ROOT, "--workload", name, "--seed", "3", "--scale", "tiny",
                        "--inject-fault", "truncate-buffer")
    res = result(lines)
    tag = f"{name} with a truncated buffer.bin"
    expect(code != 0, f"{tag}: exit code 0")
    expect(res is not None and not res["correct"] and res["failed"] == res["attempted"] >= 1,
           f"{tag}: not every run counted as failed: {res}")


def check_without_source() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "3")
        expect(code != 0, "without src/: exit code 0")
        expect(result(lines) is None, "without src/: a result was printed")


def main() -> int:
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            check_metrics(workload["name"], trace)
        check_fault(workload["name"])
        print(f"checked {workload['name']}", flush=True)
    check_without_source()
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
