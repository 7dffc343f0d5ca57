#!/usr/bin/env python3
"""Compare a fresh bench_scale JSON against the committed BENCH_PR8.json.

Every row carries every field: `point` (paper, 1k or 10k), `profile`,
`nodes`, `jobs`, `scheduler`, `policy`, `cpu_ms`, `peak_rss_kb`,
`allocations`, `fingerprint`, and `work`, the run's deterministic work
counters (`sweeps`, `node_visits`, `select_map_calls`,
`select_reduce_calls`, `job_probes`, `memo_answers`, the locality index's
`candidate_inserts`, `candidate_erases`, `candidate_allocations` and
`watcher_visits`, and `events`, the nonzero executed-event counts by kind).
A row missing a field makes the file unusable (exit 2).

Checks, in order of severity (every failure names the judged field):

  1. [fingerprint] (hard fail, no tolerance). Every cell's
     metrics::fingerprint must equal the committed baseline's. A mismatch
     means simulation *behavior* changed, e.g. an "observability" hook that
     consumed an RNG draw or reordered a float sum, which silently
     invalidates every recorded figure.

  2. [work.<name>] (hard fail, no tolerance). Every work counter must equal
     the baseline's; an event kind absent from a row counts 0. Counters are
     exact on any machine, so a change in how much work a cell does fails
     here where a CPU budget could not tell.

  3. [cpu_ms] (tolerance, default 5%). Per scale point, the summed CPU time
     of the compared cells must not exceed the baseline's sum by more than
     --cpu-tolerance. Sums (not per-row deltas) are compared because single
     rows are noisy on shared runners while the aggregate is stable; they
     are taken per point so the small paper cells are not hidden under the
     large ones. Getting faster never fails.

  4. [peak_rss_kb] / [allocations] (tolerance, default 25%), summed per
     point like CPU. RSS gets a looser budget than CPU: the kernel's
     high-water mark is quantized by page reclaim and allocator chunking,
     so small relative wobble at the small cells is expected. Shrinking
     never fails.

Rows are keyed by (point, profile, nodes, jobs, scheduler, policy). A fresh
row whose scale fields match no baseline key but whose point and
configuration do is a refusal (exit 2): timings at different scales are not
comparable. With --allow-subset the fresh run may leave out whole scale
points (CI's smoke run has no 10k cells) and the `mode` fields may differ;
a point it does run must still have every baseline row. With --exact-only
only checks 1 and 2 (and the row check) are judged: CPU, RSS and
allocation budgets mean nothing in Debug and sanitizer builds, whose
fingerprints and counters are still exact.

Usage:
  python3 tools/check_bench_baseline.py \\
      --baseline BENCH_PR8.json --fresh build/BENCH_FRESH.json \\
      [--cpu-tolerance 0.05] [--rss-tolerance 0.25] [--allow-subset]
      [--exact-only]
  python3 tools/check_bench_baseline.py --self-test

Exit codes: 0 ok, 1 check failed, 2 inputs unusable.
"""

from __future__ import annotations

import argparse
import json
import sys

FIELDS = ("point", "profile", "nodes", "jobs", "scheduler", "policy",
          "cpu_ms", "peak_rss_kb", "allocations", "fingerprint", "work")
WORK_FIELDS = ("sweeps", "node_visits", "select_map_calls",
               "select_reduce_calls", "job_probes", "memo_answers",
               "candidate_inserts", "candidate_erases",
               "candidate_allocations", "watcher_visits", "events")


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read {path}: {exc}")


def key(row: dict) -> tuple:
    return (row["point"], row["profile"], row["nodes"], row["jobs"],
            row["scheduler"], row["policy"])


def label(k: tuple) -> str:
    point, profile, nodes, jobs, scheduler, policy = k
    return f"{point}/{profile}/{nodes}x{jobs}/{scheduler}/{policy}"


def missing_fields(row: dict) -> list:
    missing = [f for f in FIELDS if f not in row]
    work = row.get("work")
    if isinstance(work, dict):
        missing += [f"work.{f}" for f in WORK_FIELDS if f not in work]
    return missing


def work_counters(row: dict) -> dict:
    work = row["work"]
    flat = {name: work[name] for name in WORK_FIELDS if name != "events"}
    flat.update({f"events.{kind}": n for kind, n in work["events"].items()})
    return flat


def sum_check(name: str, base_rows: dict, fresh_rows: dict, keys: list,
              tolerance: float, failures: list) -> None:
    """Budget check on a field summed per scale point; shrinking never
    fails."""
    points = sorted({k[0] for k in keys})
    for point in points:
        judged = [k for k in keys if k[0] == point]
        base_total = sum(base_rows[k][name] for k in judged)
        fresh_total = sum(fresh_rows[k][name] for k in judged)
        ratio = fresh_total / base_total if base_total > 0 else float("inf")
        budget = 1.0 + tolerance
        print(f"{name} [{point}]: baseline {base_total:.1f}, fresh "
              f"{fresh_total:.1f} ({ratio:.3f}x, budget {budget:.2f}x, "
              f"{len(judged)} rows)")
        if ratio > budget:
            failures.append(
                f"[{name}] point {point}: summed total regressed "
                f"{ratio:.3f}x > {budget:.2f}x budget ({fresh_total:.1f} vs "
                f"{base_total:.1f})")


def compare(baseline: dict, fresh: dict, cpu_tolerance: float,
            rss_tolerance: float, allow_subset: bool,
            exact_only: bool = False) -> int:
    for name, doc in (("baseline", baseline), ("fresh run", fresh)):
        if not doc.get("results"):
            print(f"error: {name} has no results", file=sys.stderr)
            return 2
        for i, row in enumerate(doc["results"]):
            missing = missing_fields(row)
            if missing:
                print(f"error: {name} row {i} lacks {', '.join(missing)}",
                      file=sys.stderr)
                return 2
    base_rows = {key(r): r for r in baseline["results"]}
    fresh_rows = {key(r): r for r in fresh["results"]}
    if not allow_subset and baseline.get("mode") != fresh.get("mode"):
        print(f"error: [mode] mismatch (baseline={baseline.get('mode')!r}, "
              f"fresh={fresh.get('mode')!r}): runs are not comparable "
              f"(pass --allow-subset for smoke runs)", file=sys.stderr)
        return 2

    # A fresh row whose point and configuration exist in the baseline at a
    # different scale is a setup error, not a perf regression: refuse to
    # judge.
    base_configs = {(k[0], k[1], k[4], k[5]): k for k in base_rows}
    for k in fresh_rows:
        if k in base_rows:
            continue
        other = base_configs.get((k[0], k[1], k[4], k[5]))
        if other is not None:
            print(f"error: [nodes/jobs] {label(k)} does not match the "
                  f"baseline scale {label(other)}: runs are not comparable",
                  file=sys.stderr)
            return 2

    failures = []
    common = []
    fresh_points = {k[0] for k in fresh_rows}
    for k, base in sorted(base_rows.items()):
        row = fresh_rows.get(k)
        if row is None:
            if not allow_subset or k[0] in fresh_points:
                failures.append(f"[row] {label(k)}: missing from fresh run")
            continue
        common.append(k)
        if row["fingerprint"] != base["fingerprint"]:
            failures.append(
                f"[fingerprint] {label(k)}: {row['fingerprint']} != baseline "
                f"{base['fingerprint']} (simulation behavior changed)")
        base_work, fresh_work = work_counters(base), work_counters(row)
        for name in sorted(set(base_work) | set(fresh_work)):
            if fresh_work.get(name, 0) != base_work.get(name, 0):
                failures.append(
                    f"[work.{name}] {label(k)}: {fresh_work.get(name, 0)} != "
                    f"baseline {base_work.get(name, 0)}")

    if allow_subset and not common:
        print("error: fresh run shares no rows with the baseline",
              file=sys.stderr)
        return 2
    for k in sorted(set(fresh_rows) - set(base_rows)):
        print(f"note: {label(k)}: new configuration not in baseline "
              f"(not judged)")

    if not exact_only:
        sum_check("cpu_ms", base_rows, fresh_rows, common, cpu_tolerance,
                  failures)
        for name in ("peak_rss_kb", "allocations"):
            sum_check(name, base_rows, fresh_rows, common, rss_tolerance,
                      failures)

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print(f"ok: {len(common)} cells match the baseline fingerprints and "
          f"work counters; "
          + ("resources not judged (--exact-only)" if exact_only
             else "resources within budget"))
    return 0


# --- self-test fixtures ----------------------------------------------------

def _work(**overrides) -> dict:
    work = {"sweeps": 100, "node_visits": 900, "select_map_calls": 800,
            "select_reduce_calls": 50, "job_probes": 0, "memo_answers": 0,
            "candidate_inserts": 700, "candidate_erases": 30,
            "candidate_allocations": 40, "watcher_visits": 60,
            "events": {"job_arrival": 20, "heartbeat": 300}}
    work.update(overrides)
    return work


def _fixture(**overrides) -> dict:
    """One cell per point (two at paper); overrides patch row 0."""
    def row(point, profile, nodes, jobs, cpu, rss, allocs, fp):
        return {"point": point, "profile": profile, "nodes": nodes,
                "jobs": jobs, "scheduler": "FIFO", "policy": "vanilla",
                "cpu_ms": cpu, "peak_rss_kb": rss, "allocations": allocs,
                "fingerprint": fp, "work": _work()}
    rows = [
        row("paper", "cct", 20, 600, 10.0, 5000, 40000, "aa00"),
        row("paper", "ec2", 100, 2000, 40.0, 20000, 1000000, "bb11"),
        row("1k", "ec2", 1000, 10000, 700.0, 41000, 6000000, "cc22"),
        row("10k", "ec2", 10000, 100000, 20000.0, 190000, 9000000, "dd33"),
    ]
    rows[0].update(overrides)
    return {"mode": "full", "results": rows}


def _subset(mode: str, indices: list) -> dict:
    rows = _fixture()["results"]
    return {"mode": mode, "results": [rows[i] for i in indices]}


def self_test() -> int:
    no_allocs = _fixture()
    del no_allocs["results"][1]["allocations"]
    no_visits = _fixture()
    del no_visits["results"][2]["work"]["watcher_visits"]
    cases = [
        # (name, baseline, fresh, allow_subset, expected exit, expected text
        #  [, exact_only])
        ("identical ok",
         _fixture(), _fixture(), False, 0, None),
        ("fingerprint mismatch fails hard",
         _fixture(), _fixture(fingerprint="9999"), False, 1,
         "[fingerprint]"),
        ("work counter off by one fails exactly",
         _fixture(), _fixture(work=_work(select_reduce_calls=51)), False, 1,
         "[work.select_reduce_calls] paper/cct/20x600/FIFO/vanilla"),
        ("event count off by one fails exactly",
         _fixture(),
         _fixture(work=_work(events={"job_arrival": 20, "heartbeat": 301})),
         False, 1, "[work.events.heartbeat]"),
        ("new nonzero event kind fails",
         _fixture(),
         _fixture(work=_work(events={"job_arrival": 20, "heartbeat": 300,
                                     "scheduler_retry": 1})),
         False, 1, "[work.events.scheduler_retry]"),
        ("cpu regression beyond budget fails",
         _fixture(), _fixture(cpu_ms=40.0), False, 1, "[cpu_ms]"),
        ("10% paper cpu regression fails while 1k is flat",
         _fixture(), _fixture(cpu_ms=15.0), False, 1,
         "[cpu_ms] point paper"),
        ("cpu wobble within budget ok",
         _fixture(), _fixture(cpu_ms=12.0), False, 0, None),
        ("getting faster never fails",
         _fixture(), _fixture(cpu_ms=1.0), False, 0, None),
        ("rss wobble within looser budget ok",
         _fixture(), _fixture(peak_rss_kb=10000), False, 0, None),
        ("rss regression beyond budget fails",
         _fixture(), _fixture(peak_rss_kb=13000), False, 1,
         "[peak_rss_kb] point paper"),
        ("allocation regression beyond budget fails",
         _fixture(), _fixture(allocations=400000), False, 1,
         "[allocations] point paper"),
        ("row missing a field is unusable",
         _fixture(), no_allocs, False, 2, "lacks allocations"),
        ("row missing an upkeep counter is unusable",
         _fixture(), no_visits, False, 2, "lacks work.watcher_visits"),
        ("upkeep counter off by one fails exactly",
         _fixture(), _fixture(work=_work(candidate_allocations=41)), False, 1,
         "[work.candidate_allocations] paper/cct/20x600/FIFO/vanilla"),
        ("exact-only skips every resource budget",
         _fixture(), _fixture(cpu_ms=40.0, peak_rss_kb=13000,
                              allocations=0), True, 0, None, True),
        ("exact-only still fails on a fingerprint mismatch",
         _fixture(), _fixture(fingerprint="9999"), True, 1, "[fingerprint]",
         True),
        ("exact-only still fails on a counter off by one",
         _fixture(), _fixture(work=_work(candidate_erases=31)), True, 1,
         "[work.candidate_erases] paper/cct/20x600/FIFO/vanilla", True),
        ("exact-only still fails on a missing paper row",
         _fixture(), _subset("smoke", [1, 2]), True, 1,
         "[row] paper/cct/20x600/FIFO/vanilla", True),
        ("missing row fails without subset",
         _fixture(), _subset("full", [0, 1, 2]), False, 1, "[row]"),
        ("smoke run ok with --allow-subset",
         _fixture(), _subset("smoke", [0, 1, 2]), True, 0, None),
        ("smoke run missing one paper row fails",
         _fixture(), _subset("smoke", [1, 2]), True, 1,
         "[row] paper/cct/20x600/FIFO/vanilla"),
        ("scale mismatch refuses to judge",
         _fixture(), _fixture(nodes=200), False, 2, None),
        ("mode mismatch refuses without subset",
         _fixture(), _subset("smoke", [0, 1, 2, 3]), False, 2, None),
    ]
    import contextlib
    import io
    bad = 0
    for name, base, fresh, subset, want_rc, want_text, *exact in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = compare(base, fresh, cpu_tolerance=0.05, rss_tolerance=0.25,
                         allow_subset=subset, exact_only=bool(exact))
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
    parser.add_argument("--baseline", default="BENCH_PR8.json",
                        help="committed baseline JSON (default: %(default)s)")
    parser.add_argument("--fresh",
                        help="freshly produced bench_scale JSON")
    parser.add_argument("--cpu-tolerance", type=float, default=0.05,
                        help="allowed relative increase of summed CPU ms per "
                             "point (default: %(default)s)")
    parser.add_argument("--rss-tolerance", type=float, default=0.25,
                        help="allowed relative increase of summed peak RSS / "
                             "allocations per point (default: %(default)s)")
    parser.add_argument("--allow-subset", action="store_true",
                        help="fresh run may leave out whole scale points "
                             "(CI smoke runs)")
    parser.add_argument("--exact-only", action="store_true",
                        help="judge fingerprints, work counters and rows "
                             "only; skip the CPU/RSS/allocation budgets "
                             "(Debug and sanitizer builds)")
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
                   allow_subset=args.allow_subset,
                   exact_only=args.exact_only)


if __name__ == "__main__":
    sys.exit(main())
