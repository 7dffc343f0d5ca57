#!/usr/bin/env python3
"""Fast self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload at a toy size, untraced and traced, and checks that the
last stdout line has the result schema, that every metric named in
BENCHMARK.json is printed with its unit (and no other), and that the
benchmark refuses to run in a tree that holds only BENCHMARK.json and
perfbench/. Exits 0 when everything holds.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result(proc, expected, label):
    errors = []
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-400:]}"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{label}: not correct: {result}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted {result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {name} value {value!r}")
        if name in expected and m.get("unit") != expected[name]:
            errors.append(f"{label}: {name} unit {m.get('unit')!r}, "
                          f"BENCHMARK.json says {expected[name]!r}")
    return errors


def check_refuses_without_sources(build_dir):
    """Run from a tree holding only BENCHMARK.json and perfbench/."""
    bare = os.path.join(build_dir, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "paper-cells", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare tree: benchmark ran without the simulator sources"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "3", "--seconds",
                        "1", "--trace", str(trace), "--toy"])
            label = f"{workload} trace={trace}"
            found = check_result(proc, units[trace], label)
            print(f"{label}: {'ok' if not found else 'FAIL'}")
            errors += found
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    errors += check_refuses_without_sources(build_dir)
    for e in errors:
        print("error:", e)
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
