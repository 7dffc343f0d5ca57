#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1> [--toy]

Builds the cell runner (perfbench/CMakeLists.txt) on first use, into
$CARGO_TARGET_DIR (default .bench_build) under the checkout root. Every cell
of the workload runs in a fresh process, one at a time, and the whole set of
cells repeats until --seconds have passed; timings are per-cell medians over
those repetitions. With --trace 0 the last stdout line reports the
end-to-end metrics; with --trace 1 each repetition also makes a traced pass
and the line reports the per-layer metrics. --toy runs every cell at a toy
size (perfbench/selftest.py). Fingerprints recorded in perfbench/baseline.json
are checked whenever a run reproduces a recorded cell.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Stop starting cells after this long, so a run ends well within 180 s.
DEADLINE_S = 170.0

END_TO_END = {
    "jobs_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "locality": "ratio",
    "gmtt_s": "s",
}

SKIP_REASONS = ("coin_failed", "too_large", "already_present", "no_victim",
                "below_threshold", "quarantined")

PER_LAYER = {
    "cluster.sweep_self_ms": "ms",
    "cluster.sweeps": "count",
    "cluster.sweep_us_per_launch": "us",
    "cluster.other_ms": "ms",
    "cluster.load_ms": "ms",
    "cluster.remote_read_frac": "ratio",
    "cluster.clone_win_ratio": "ratio",
    "cluster.clone_wasted_s": "s",
    "cluster.repairs_landed": "count",
    "cluster.repair_retry_ratio": "ratio",
    "sched.decisions": "count",
    "sched.delay_waits": "count",
    "sched.launch_ratio": "ratio",
    "core.policy_ms": "ms",
    "core.policy_ns_per_call": "ns",
    "core.adopted": "count",
    "core.evicted": "count",
    **{f"core.skipped.{r}": "count" for r in SKIP_REASONS},
    "core.adopt_ratio": "ratio",
    "storage.heartbeat_ms": "ms",
    "storage.heartbeats": "count",
    "storage.heartbeats_per_launch": "ratio",
    "storage.reclaims": "count",
    "faults.churn_ms": "ms",
    "faults.node_failures": "count",
    "faults.declared_dead": "count",
    "faults.rejoins": "count",
    "faults.partitions": "count",
    "faults.checksum_failures": "count",
    "faults.quarantines": "count",
    "faults.stragglers_detected": "count",
    "sim.event_loop_ms": "ms",
    "workload.gen_ms": "ms",
    "workload.jobs_per_s": "1/s",
    "obs.trace_events": "count",
    "obs.trace_mb": "MB",
    "obs.traced_cpu_ratio": "ratio",
    "obs.traced_rss_mb": "MB",
    "process.allocs_per_job": "count",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the cell runner; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found next to perfbench/")
        sys.exit(2)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "dare_perfbench")


def list_cells(binary, workload, seed, toy):
    out = subprocess.run([binary, "list", workload, str(seed)] +
                         (["toy"] if toy else []),
                         check=True, capture_output=True, text=True).stdout
    cells = []
    for line in out.splitlines():
        index, sim_seed, name = line.split()
        cells.append((index, sim_seed, name))
    return cells


class Runner:
    """Runs cells, one process each, and applies the per-cell checks."""

    def __init__(self, binary, workload, toy, recorded, deadline):
        self.binary = binary
        self.workload = workload
        self.toy = toy
        self.recorded = recorded
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.first_fp = {}

    def run(self, cell, mode):
        index, sim_seed, name = cell
        self.attempted += 1
        cmd = [self.binary, "run", self.workload, index, sim_seed, mode]
        if self.toy:
            cmd.append("toy")
        problem = None
        result = None
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()))
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or result is None:
                detail = (result or {}).get("error", proc.stderr.strip())
                problem = f"exit {proc.returncode}: {detail}"
        except subprocess.TimeoutExpired:
            problem = "timed out"
        except json.JSONDecodeError as exc:
            problem = f"unreadable output: {exc}"
        if problem is None:
            problem = self.check(name, result)
        if problem is not None:
            self.failed += 1
            log(f"FAILED {self.workload} {name} ({mode}): {problem}")
            return None
        return result

    def check(self, name, r):
        if not r.get("valid"):
            return f"validate() failed: {r.get('error')}"
        if r.get("layer_check"):
            return f"layer self-check: {r['layer_check']}"
        fp = r["fingerprint"]
        want = self.recorded.get(name)
        if want is not None and fp != want:
            return f"fingerprint {fp} != recorded {want}"
        # Every repetition and the traced pass must reproduce the first
        # untraced result: twice-run determinism plus tracing purity.
        first = self.first_fp.setdefault(name, fp)
        if fp != first:
            return f"fingerprint {fp} != first run {first}"
        return None


def median_of(runs, key):
    return statistics.median(r[key] for r in runs)


def end_to_end(cells, plain):
    """plain: name -> list of untraced results, one per repetition."""
    jobs = sum(plain[n][0]["completed_jobs"] for n in cells)
    cpu = sum(median_of(plain[n], "setup_cpu_s") +
              median_of(plain[n], "run_cpu_s") for n in cells)
    reps = min(len(v) for v in plain.values())
    rss = statistics.median(
        max(plain[n][i]["peak_rss_kb"] for n in cells) for i in range(reps))
    first = [plain[n][0] for n in cells]
    maps = sum(r["maps"] for r in first)
    return {
        "jobs_per_cpu_s": jobs / cpu,
        "peak_rss_mb": rss / 1024.0,
        "setup_s": statistics.mean(median_of(plain[n], "setup_cpu_s")
                                   for n in cells),
        "locality": sum(r["local_maps"] for r in first) / maps,
        "gmtt_s": math.exp(sum(r["gmtt_log_sum"] for r in first) /
                           sum(r["gmtt_jobs"] for r in first)),
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(cells, plain, traced):
    """Per-layer metrics from the traced passes (per-cell medians of the
    timings, deterministic counts from the first pass)."""
    t0 = [traced[n][0] for n in cells]

    def ms(phase):
        return sum(median_of(traced[n], "phase_ns." + phase)
                   for n in cells) / 1e6

    def events(kind):
        return sum(r["events." + kind] for r in t0)

    def total(key):
        return sum(r[key] for r in t0)

    schedule, replication = ms("schedule"), ms("replication")
    heartbeat, churn = ms("heartbeat"), ms("churn")
    loop, sampling = ms("event_loop"), ms("sampling")
    run_ms = sum(median_of(traced[n], "run_cpu_s") for n in cells) * 1e3
    plain_run_ms = sum(median_of(plain[n], "run_cpu_s") for n in cells) * 1e3
    gen_s = sum(median_of(traced[n], "gen_cpu_s") for n in cells)
    launches = events("map_launched")
    decisions, waits = events("scheduler_decision"), events("delay_wait")
    adopted = events("replica_adopted")
    skipped = {r: total("skipped." + r) for r in SKIP_REASONS}
    sweep_self = schedule - replication
    return {
        "cluster.sweep_self_ms": sweep_self,
        "cluster.sweeps": total("phase_calls.schedule"),
        "cluster.sweep_us_per_launch": ratio(sweep_self * 1e3, launches),
        "cluster.other_ms": loop - (schedule + heartbeat + churn + sampling),
        "cluster.load_ms": run_ms - loop,
        "cluster.remote_read_frac": ratio(total("map_launched_remote"),
                                          launches),
        "cluster.clone_win_ratio": ratio(total("clone_wins"),
                                         total("clones_launched")),
        "cluster.clone_wasted_s": total("clone_wasted_s"),
        "cluster.repairs_landed": total("repairs_landed"),
        "cluster.repair_retry_ratio": ratio(total("repair_retries"),
                                            total("repairs_enqueued")),
        "sched.decisions": decisions,
        "sched.delay_waits": waits,
        "sched.launch_ratio": ratio(decisions, decisions + waits),
        "core.policy_ms": replication,
        "core.policy_ns_per_call": ratio(replication * 1e6,
                                         total("phase_calls.replication")),
        "core.adopted": adopted,
        "core.evicted": events("replica_evicted"),
        **{f"core.skipped.{r}": skipped[r] for r in SKIP_REASONS},
        "core.adopt_ratio": ratio(adopted, adopted + sum(skipped.values())),
        "storage.heartbeat_ms": heartbeat,
        "storage.heartbeats": events("heartbeat"),
        "storage.heartbeats_per_launch": ratio(events("heartbeat"), launches),
        "storage.reclaims": events("disk_reclaim"),
        "faults.churn_ms": churn,
        "faults.node_failures": events("node_failed"),
        "faults.declared_dead": events("node_declared_dead"),
        "faults.rejoins": events("node_rejoined"),
        "faults.partitions": events("partition_started"),
        "faults.checksum_failures": events("checksum_failed"),
        "faults.quarantines": events("replica_quarantined"),
        "faults.stragglers_detected": events("straggler_detected"),
        "sim.event_loop_ms": loop,
        "workload.gen_ms": gen_s * 1e3,
        "workload.jobs_per_s": ratio(total("gen_jobs"), gen_s),
        "obs.trace_events": total("trace_events"),
        "obs.trace_mb": total("trace_bytes") / 2**20,
        "obs.traced_cpu_ratio": ratio(run_ms, plain_run_ms),
        "obs.traced_rss_mb": max(r["peak_rss_kb"] for r in t0) / 1024.0,
        "process.allocs_per_job": ratio(
            sum(plain[n][0]["allocs"] for n in cells),
            sum(plain[n][0]["jobs"] for n in cells)),
    }


def main():
    with open(os.path.join(HERE, "baseline.json")) as f:
        baseline = json.load(f)["workloads"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(baseline))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    start = time.monotonic()
    recorded = baseline[args.workload]["fingerprints"]
    cells = list_cells(binary, args.workload, args.seed, args.toy)
    names = [c[2] for c in cells]
    runner = Runner(binary, args.workload, args.toy, recorded,
                    start + DEADLINE_S)
    plain = {n: [] for n in names}
    traced = {n: [] for n in names}
    rep_times = []
    # Repeat the whole set of cells (at least once) while the next
    # repetition would end, on average, within --seconds.
    while not rep_times or (time.monotonic() - start +
                            statistics.mean(rep_times) / 2 <= args.seconds):
        t = time.monotonic()
        for cell in cells:
            for mode, store in (("plain", plain), ("traced", traced)):
                if mode == "traced" and not args.trace:
                    continue
                result = runner.run(cell, mode)
                if result is not None:
                    store[cell[2]].append(result)
        rep_times.append(time.monotonic() - t)
        cpu = sum(plain[n][-1]["setup_cpu_s"] + plain[n][-1]["run_cpu_s"]
                  for n in names if plain[n])
        log(f"repetition {len(rep_times)}: {rep_times[-1]:.2f} s wall, "
            f"{cpu:.3f} s untraced cell CPU")
        if runner.failed or time.monotonic() > start + DEADLINE_S:
            break
    log(f"{args.workload}: {len(cells)} cells x {len(rep_times)} "
        f"repetitions in {time.monotonic() - start:.1f} s")

    metrics = {}
    if runner.failed == 0:
        if args.trace:
            values, units = per_layer(names, plain, traced), PER_LAYER
        else:
            values, units = end_to_end(names, plain), END_TO_END
        for key, unit in units.items():
            metrics[key] = {"value": values[key], "unit": unit}
            print(f"{key:32s} {values[key]:>16.6g} {unit}")
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
