#!/usr/bin/env python3
"""Compare a fresh bench JSON against a committed perf baseline.

Both tracked baselines share one row schema: `profile`, `nodes`, `jobs`,
`scheduler`, `policy`, `cpu_ms` and `fingerprint`. BENCH_PR8.json
(bench_scale, one forked process per configuration) also records
`peak_rss_kb` and `allocations`; BENCH_PR3.json (bench_sched_e2e) does not.

Checks, in order of severity (every failure names the judged field):

  1. [fingerprint] (hard fail, no tolerance). Every configuration's
     metrics::fingerprint must equal the committed baseline's. A mismatch
     means simulation *behavior* changed, e.g. an "observability" hook that
     consumed an RNG draw or reordered a float sum, which silently
     invalidates every recorded figure.

  2. [cpu_ms] (tolerance, default 5%). The summed CPU time across all
     compared configurations must not exceed the baseline's sum by more
     than --cpu-tolerance. The sum (not per-row deltas) is compared because
     individual rows are noisy on shared runners while the aggregate is
     stable; getting faster never fails.

  3. [peak_rss_kb] / [allocations] (tolerance, default 25%). Only judged
     when both sides record them. RSS gets a looser budget than CPU: the
     kernel's high-water mark is quantized by page reclaim and allocator
     chunking, so small relative wobble at the small scale points is
     expected. Shrinking never fails.

Rows are keyed by (profile, nodes, jobs, scheduler, policy). A fresh row
whose scale fields match no baseline key but whose configuration does is a
refusal (exit 2): timings at different scales are not comparable. With
--allow-subset the fresh run may cover a subset of the baseline's rows
(CI smoke slices) and the `mode` fields may differ; sums are then taken
over the common rows only.

Usage:
  python3 tools/check_bench_baseline.py \
      --baseline BENCH_PR3.json --fresh build/BENCH_FRESH.json \
      [--cpu-tolerance 0.05] [--rss-tolerance 0.25] [--allow-subset]
  python3 tools/check_bench_baseline.py --self-test

Exit codes: 0 ok, 1 check failed, 2 inputs unusable.
"""

from __future__ import annotations

import argparse
import json
import sys


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read {path}: {exc}")


def key(row: dict) -> tuple:
    return (row["profile"], row["nodes"], row["jobs"], row["scheduler"],
            row["policy"])


def label(k: tuple) -> str:
    profile, nodes, jobs, scheduler, policy = k
    return f"{profile}/{nodes}x{jobs}/{scheduler}/{policy}"


def sum_check(name: str, base_rows: dict, fresh_rows: dict, keys: list,
              tolerance: float, failures: list, required: bool) -> None:
    """Budget check on a summed numeric field; absent fields are skipped
    (unless required), shrinking never fails."""
    judged = [k for k in keys
              if name in base_rows[k] and name in fresh_rows[k]]
    if not judged:
        if required:
            failures.append(f"[{name}] field missing from both runs")
        return
    base_total = sum(base_rows[k][name] for k in judged)
    fresh_total = sum(fresh_rows[k][name] for k in judged)
    ratio = fresh_total / base_total if base_total > 0 else float("inf")
    budget = 1.0 + tolerance
    print(f"{name}: baseline {base_total:.1f}, fresh {fresh_total:.1f} "
          f"({ratio:.3f}x, budget {budget:.2f}x, {len(judged)} rows)")
    if ratio > budget:
        failures.append(
            f"[{name}] summed total regressed {ratio:.3f}x > {budget:.2f}x "
            f"budget ({fresh_total:.1f} vs {base_total:.1f})")


def compare(baseline: dict, fresh: dict, cpu_tolerance: float,
            rss_tolerance: float, allow_subset: bool) -> int:
    base_rows = {key(r): r for r in baseline.get("results", [])}
    fresh_rows = {key(r): r for r in fresh.get("results", [])}
    if not base_rows:
        print("error: baseline has no results", file=sys.stderr)
        return 2
    if not fresh_rows:
        print("error: fresh run has no results", file=sys.stderr)
        return 2
    if not allow_subset and baseline.get("mode") != fresh.get("mode"):
        print(f"error: [mode] mismatch (baseline={baseline.get('mode')!r}, "
              f"fresh={fresh.get('mode')!r}): runs are not comparable "
              f"(pass --allow-subset for smoke slices)", file=sys.stderr)
        return 2

    # A fresh row whose configuration exists in the baseline at a different
    # scale is a setup error, not a perf regression: refuse to judge.
    base_configs = {(k[0], k[3], k[4]): k for k in base_rows}
    for k in fresh_rows:
        if k in base_rows:
            continue
        other = base_configs.get((k[0], k[3], k[4]))
        if other is not None:
            print(f"error: [nodes/jobs] {label(k)} does not match the "
                  f"baseline scale {label(other)}: runs are not comparable",
                  file=sys.stderr)
            return 2

    failures = []
    common = []
    for k, base in sorted(base_rows.items()):
        row = fresh_rows.get(k)
        if row is None:
            if not allow_subset:
                failures.append(f"[row] {label(k)}: missing from fresh run")
            continue
        common.append(k)
        if row["fingerprint"] != base["fingerprint"]:
            failures.append(
                f"[fingerprint] {label(k)}: {row['fingerprint']} != baseline "
                f"{base['fingerprint']} (simulation behavior changed)")

    if allow_subset and not common:
        print("error: fresh run shares no rows with the baseline",
              file=sys.stderr)
        return 2
    for k in sorted(set(fresh_rows) - set(base_rows)):
        print(f"note: {label(k)}: new configuration not in baseline "
              f"(not judged)")

    if common:
        sum_check("cpu_ms", base_rows, fresh_rows, common, cpu_tolerance,
                  failures, required=True)
        for name in ("peak_rss_kb", "allocations"):
            sum_check(name, base_rows, fresh_rows, common, rss_tolerance,
                      failures, required=False)

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print(f"ok: {len(common)} configurations match the baseline "
          f"fingerprints; resources within budget")
    return 0


# --- self-test fixtures ----------------------------------------------------

def _e2e_fixture(**overrides) -> dict:
    """A two-row bench_sched_e2e-style file; overrides patch row 0."""
    rows = [
        {"profile": "ec2", "nodes": 100, "jobs": 2000, "scheduler": "FIFO",
         "policy": "vanilla", "cpu_ms": 40.0, "fingerprint": "aa00"},
        {"profile": "ec2", "nodes": 100, "jobs": 2000, "scheduler": "Fair",
         "policy": "lru", "cpu_ms": 60.0, "fingerprint": "bb11"},
    ]
    rows[0].update(overrides)
    return {"mode": "full", "results": rows}


def _scale_fixture(**overrides) -> dict:
    """A two-scale-point bench_scale-style file; overrides patch row 0."""
    rows = [
        {"profile": "ec2", "nodes": 100, "jobs": 2000, "scheduler": "FIFO",
         "policy": "vanilla", "cpu_ms": 50.0, "peak_rss_kb": 20000,
         "allocations": 1000000, "fingerprint": "cc22"},
        {"profile": "ec2", "nodes": 1000, "jobs": 10000, "scheduler": "FIFO",
         "policy": "vanilla", "cpu_ms": 700.0, "peak_rss_kb": 41000,
         "allocations": 6000000, "fingerprint": "dd33"},
    ]
    rows[0].update(overrides)
    return {"mode": "full", "results": rows}


def self_test() -> int:
    cases = [
        # (name, baseline, fresh, allow_subset, expected exit, expected text)
        ("e2e identical ok",
         _e2e_fixture(), _e2e_fixture(), False, 0, None),
        ("fingerprint mismatch fails hard",
         _e2e_fixture(), _e2e_fixture(fingerprint="9999"), False, 1,
         "[fingerprint]"),
        ("cpu regression beyond budget fails",
         _e2e_fixture(), _e2e_fixture(cpu_ms=80.0), False, 1,
         "[cpu_ms]"),
        ("cpu wobble within budget ok",
         _e2e_fixture(), _e2e_fixture(cpu_ms=43.0), False, 0, None),
        ("getting faster never fails",
         _e2e_fixture(), _e2e_fixture(cpu_ms=1.0), False, 0, None),
        ("scale rows with rss wobble within looser budget ok",
         _scale_fixture(), _scale_fixture(peak_rss_kb=24000), False, 0, None),
        ("rss regression beyond budget fails",
         _scale_fixture(), _scale_fixture(peak_rss_kb=45000), False, 1,
         "[peak_rss_kb]"),
        ("allocation regression beyond budget fails",
         _scale_fixture(), _scale_fixture(allocations=9000000), False, 1,
         "[allocations]"),
        ("missing row fails without subset",
         _scale_fixture(),
         {"mode": "full", "results": _scale_fixture()["results"][:1]},
         False, 1, "[row]"),
        ("smoke slice ok with --allow-subset",
         _scale_fixture(),
         {"mode": "smoke", "results": _scale_fixture()["results"][:1]},
         True, 0, None),
        ("scale mismatch refuses to judge",
         _scale_fixture(),
         _scale_fixture(nodes=200), False, 2, None),
        ("mode mismatch refuses without subset",
         _scale_fixture(),
         {"mode": "smoke", "results": _scale_fixture()["results"]},
         False, 2, None),
    ]
    import contextlib
    import io
    bad = 0
    for name, base, fresh, subset, want_rc, want_text in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = compare(base, fresh, cpu_tolerance=0.05, rss_tolerance=0.25,
                         allow_subset=subset)
        ok = rc == want_rc and (want_text is None or
                                want_text in err.getvalue())
        if not ok:
            bad += 1
            print(f"self-test FAIL: {name}: rc={rc} (want {want_rc}), "
                  f"stderr:\n{err.getvalue()}", file=sys.stderr)
    if bad:
        return 1
    print(f"self-test ok: {len(cases)} fixture cases")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="BENCH_PR3.json",
                        help="committed baseline JSON (default: %(default)s)")
    parser.add_argument("--fresh",
                        help="freshly produced bench JSON")
    parser.add_argument("--cpu-tolerance", type=float, default=0.05,
                        help="allowed relative increase of summed CPU ms "
                             "(default: %(default)s)")
    parser.add_argument("--rss-tolerance", type=float, default=0.25,
                        help="allowed relative increase of summed peak RSS / "
                             "allocations (default: %(default)s)")
    parser.add_argument("--allow-subset", action="store_true",
                        help="fresh run may cover a subset of baseline rows "
                             "(CI smoke slices)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in fixture cases and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.fresh:
        parser.error("--fresh is required (or use --self-test)")
    return compare(load(args.baseline), load(args.fresh),
                   cpu_tolerance=args.cpu_tolerance,
                   rss_tolerance=args.rss_tolerance,
                   allow_subset=args.allow_subset)


if __name__ == "__main__":
    sys.exit(main())
