#!/usr/bin/env python3
"""Smoke-test every driver binary's command line.

The drivers are every executable directly under <build>/bench,
<build>/examples and <build>/tools, except the google-benchmark binary
bench_micro. Each one runs three cases in a temporary working directory:

  1. [toy]      a toy-size run (the TOY table below) exits 0;
  2. [unknown]  the toy run plus `nosuchkey=1` exits 1 with "unrecognized"
                on stderr;
  3. [malformed] the toy run with a numeric key the binary reads set to
                "abc" exits 1 with "error:" on stderr.

No case may end by a signal (an uncaught exception aborts with SIGABRT).
A driver missing from TOY fails the test instead of being skipped, so a new
binary must be given toy arguments here.

Usage:
  python3 tools/driver_smoke.py --build-dir build [--only NAME ...]
Exit 0 when every case passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

EXCLUDED = {"bench_micro"}

SMALL = ["jobs=20", "nodes=8"]
TRACE = ["files=50", "accesses=2000"]

# name -> (toy arguments, the numeric key the malformed case sets to "abc").
# swim2trace's two paths are prepended by the harness.
TOY: dict[str, tuple[list[str], str]] = {
    "bench_ablation": (SMALL, "jobs"),
    "bench_churn": (SMALL, "jobs"),
    "bench_cloning": (SMALL, "jobs"),
    "bench_delay_sweep": (SMALL, "jobs"),
    "bench_failure": (SMALL, "jobs"),
    "bench_fairness": (SMALL, "jobs"),
    "bench_fig1_hopcount": (["nodes=8", "placements=5"], "placements"),
    "bench_fig2_popularity": (TRACE, "files"),
    "bench_fig3_age_cdf": (TRACE, "files"),
    "bench_fig4_windows": (TRACE, "files"),
    "bench_fig5_windows_day": (TRACE, "day"),
    "bench_fig6_access_cdf": (["zipf=1.1"], "zipf"),
    "bench_fig7_cct": (SMALL + ["seeds=1"], "seeds"),
    "bench_fig8_sensitivity": (SMALL, "jobs"),
    "bench_fig9_budget": (SMALL, "jobs"),
    "bench_fig10_ec2": (SMALL + ["seeds=1"], "threads"),
    "bench_fig11_uniformity": (SMALL, "jobs"),
    "bench_map_times": (SMALL, "jobs"),
    "bench_model_check": (SMALL, "jobs"),
    # The netfault sweep is 24 cells with partitions and churn: keep it tiny.
    "bench_netfault": (["jobs=10", "nodes=8"], "jobs"),
    # max_scale=0 skips every cell (the smallest has 20 nodes).
    "bench_scale": (["mode=smoke", "max_scale=0", "json="], "repeats"),
    "bench_speculation": (SMALL, "jobs"),
    "bench_table1_rtt": (["nodes=8", "pings=1"], "pings"),
    "bench_table2_bandwidth": (["nodes=8", "samples=5", "pairs=20"],
                               "samples"),
    "churn_run": (SMALL, "jobs"),
    "cloud_vs_dedicated": (SMALL, "seed"),
    "custom_policy": (["accesses=500"], "accesses"),
    "facebook_workload": (SMALL, "jobs"),
    "failure_drill": (SMALL, "kills"),
    "netfault_run": (["jobs=10", "nodes=8"], "jobs"),
    "quickstart": (SMALL, "jobs"),
    "straggler_run": (SMALL, "jobs"),
    "swim_replay": (["count=20"], "count"),
    "trace_analysis": (TRACE, "accesses"),
    "trace_run": (SMALL, "jobs"),
    "dare_farm": (["profile=cct", "nodes=6", "jobs=10", "scheduler=fifo,fair",
                   "out=farm", "journal="], "threads"),
    "swim2trace": (["count=20"], "count"),
}

SWIM_SAMPLE = "".join(
    f"job{i} {6.0 * i} 6.0 {(1 + i % 4) * 134217728} 8388608 4194304\n"
    for i in range(40))


def drivers(build_dir: Path) -> list[Path]:
    found = []
    for sub in ("bench", "examples", "tools"):
        directory = build_dir / sub
        if not directory.is_dir():
            continue
        for path in sorted(directory.iterdir()):
            if (path.is_file() and os.access(path, os.X_OK)
                    and path.name not in EXCLUDED):
                found.append(path)
    return found


def run(binary: Path, args: list[str],
        cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([str(binary)] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def check(binary: Path, workdir: Path) -> list[str]:
    """Run the three cases; return one message per failed case."""
    name = binary.name
    if name not in TOY:
        return [f"{name}: no toy arguments in tools/driver_smoke.py"]
    toy, numeric = TOY[name]
    prefix = []
    if name == "swim2trace":
        (workdir / "in.swim").write_text(SWIM_SAMPLE)
        prefix = ["in.swim", "out.trace"]
    malformed = [a for a in toy if not a.startswith(numeric + "=")]
    cases = [
        ("toy", prefix + toy, 0, None),
        ("unknown", prefix + toy + ["nosuchkey=1"], 1, "unrecognized"),
        ("malformed", prefix + malformed + [numeric + "=abc"], 1, "error:"),
    ]
    failures = []
    for label, args, want_code, want_text in cases:
        proc = run(binary, args, workdir)
        if proc.returncode < 0:
            failures.append(f"{name} [{label}]: killed by signal "
                            f"{-proc.returncode}\n{proc.stderr[-2000:]}")
        elif proc.returncode != want_code:
            failures.append(f"{name} [{label}]: exit {proc.returncode}, "
                            f"want {want_code}\n{proc.stderr[-2000:]}")
        elif want_text is not None and want_text not in proc.stderr:
            failures.append(f"{name} [{label}]: stderr lacks "
                            f"'{want_text}'\n{proc.stderr[-2000:]}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", required=True, type=Path)
    parser.add_argument("--only", nargs="*", default=None,
                        help="check only these driver names")
    args = parser.parse_args()

    binaries = drivers(args.build_dir)
    if args.only:
        binaries = [b for b in binaries if b.name in args.only]
    if not binaries:
        print(f"error: no driver binaries under {args.build_dir}",
              file=sys.stderr)
        return 1
    failures = []
    failed = 0
    with tempfile.TemporaryDirectory(prefix="dare_driver_smoke_") as tmp:
        for binary in binaries:
            workdir = Path(tmp) / binary.name
            workdir.mkdir()
            start = time.monotonic()
            found = check(binary, workdir)
            failures += found
            failed += 1 if found else 0
            print(f"{'FAIL' if found else 'ok  '} {binary.name} "
                  f"({time.monotonic() - start:.2f} s)")
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"{len(binaries) - failed}/{len(binaries)} drivers passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
