#!/usr/bin/env python3
"""Tiny-size smoke test of the benchmark.

usage: python3 fcmbench/smoke_test.py        (from the repository root)

Runs every workload of BENCHMARK.json with inputs 64x smaller for one
second, untraced and traced, and checks that each run passes its output
checks and prints every metric of its kind (end_to_end untraced, per_layer
traced) by name with the unit BENCHMARK.json gives, both as a text line and
in the final JSON line, and nothing else. Exits 0 when all runs pass.
"""
import json
import os
import subprocess
import sys


def check_run(root: str, workload: str, trace: str, specs: list) -> list:
    command = [sys.executable, os.path.join(root, "fcmbench", "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", trace, "--smoke"]
    run = subprocess.run(command, cwd=root, capture_output=True, text=True, check=False)
    label = f"{workload} --trace {trace}"
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        return [f"{label}: exit {run.returncode}: {run.stderr.strip()[-300:]}"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return [f"{label}: last line is not JSON: {lines[-1][:200]}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: output checks failed")
    metrics = result.get("metrics", {})
    if set(metrics) != {spec["name"] for spec in specs}:
        problems.append(f"{label}: metric names differ from BENCHMARK.json")
    text = {tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) == 3}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        if metrics.get(name, {}).get("unit") != unit:
            problems.append(f"{label}: {name} lacks unit {unit} in the JSON")
        if (name, unit) not in text:
            problems.append(f"{label}: no line prints {name} with unit {unit}")
    return problems


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    problems = []
    for workload in benchmark["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            problems += check_run(root, workload["name"], trace, benchmark[kind])
    for problem in problems:
        print(problem)
    print("smoke test:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
