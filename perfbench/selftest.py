#!/usr/bin/env python3
"""Fast self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Runs every workload at toy size (``--size tiny``), untraced and traced,
each in its own process, and checks that the run exits with 0, reports
``correct`` with no failed operation, and prints every metric that
BENCHMARK.json names, with its unit, both in the report and in the final
JSON line. It then checks that, in a directory holding only
BENCHMARK.json and the benchmark's files, the benchmark exits non-zero
without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(workload: str, trace: int, metrics: list[dict]) -> list[str]:
    proc = run_benchmark(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    if set(result["metrics"]) != {m["name"] for m in metrics}:
        problems.append(f"{where}: metrics {sorted(result['metrics'])}")
    report = "\n".join(lines[:-1])
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {name} reported as {got}")
        if not re.search(rf"^\w+\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\b",
                         report, re.MULTILINE):
            problems.append(f"{where}: {name} [{unit}] not printed in the report")
    return problems


def check_without_sources() -> list[str]:
    """A directory with only BENCHMARK.json and perfbench/ must fail cleanly."""
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run_benchmark(bare, "craft-learn", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:  # another run still uses it
            pass
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            found = check_run(workload["name"], trace, metrics)
            print(f"{workload['name']} --trace {trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
            problems += found
    problems += check_without_sources()
    for problem in problems:
        print(f"FAILED {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
