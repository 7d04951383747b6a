#!/usr/bin/env python3
"""Host-time benchmark of the Hetero-DMR reproduction.

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a source checkout.  The first run builds the
libraries and the hostbench binary (hostbench/hostbench.cc) from the
checkout's sources into .bench_build/; later runs only check the build
is current.  The binary runs one workload in a closed loop for
--seconds of host time.  This script then

  * checks every operation's modelled outputs: invariants, bit-identity
    with the run's first repetition, and the digests recorded for the
    seed in hostbench/manifest.json;
  * reduces the repetitions to medians;
  * prints each metric with its unit, the gate verdict, and as the last
    line one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
its per-layer metrics (self times of the spans in the Chrome trace the
binary writes to .bench_build/traces/, and the layers' own counts).
Exit status: 0 when every operation passed, 1 when any failed, 2 when
the benchmark could not run (bad flags, no sources, build failure).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "hostbench"
# A run must end within 180 s; leave room for start-up and reporting.
RUN_TIMEOUT_S = 170


def die(message):
    """Stop without a result line (exit 2)."""
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        die(f"cannot read {path}: {err}")


def build():
    """Configure once, then bring the binary up to date (stderr only)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no library sources under {ROOT / 'src'}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "hostbench", "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  check=False)
        except OSError as err:
            die(f"cannot run {step[0]}: {err}")
        if done.returncode != 0:
            die(f"build step failed: {' '.join(step)}")


def run_binary(args, trace_path):
    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the binary and waits for it.
        return None, f"hostbench exceeded {RUN_TIMEOUT_S} s"
    if done.returncode != 0:
        return None, f"hostbench exited with status {done.returncode}"
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, ValueError):
        return None, "hostbench printed no result"


# ----------------------------------------------------------------------
# Correctness gate


def gate(reps, recorded):
    """Check every operation of every repetition.

    An operation fails when it broke an invariant, when a digest differs
    from the same operation in the first repetition that carries it, or
    when a digest differs from (or is missing in) the record for the seed.
    `recorded` is the seed's list of per-operation digest maps, or None
    when the manifest holds no record for the seed.  Returns
    (attempted, failed, [failure messages]).
    """
    attempted = failed = 0
    messages = []
    first = {}
    for r, rep in enumerate(reps):
        if recorded is not None and len(rep["ops"]) != len(recorded):
            messages.append(f"rep {r + 1}: {len(rep['ops'])} operations, "
                            f"record has {len(recorded)}")
        for i, op in enumerate(rep["ops"]):
            attempted += 1
            problems = list(op["broken"])
            for name, value in op["digests"].items():
                seen = first.setdefault((i, name), value)
                if value != seen:
                    problems.append(f"{name} digest {value} differs from "
                                    f"the first repetition's {seen}")
                if recorded is None:
                    continue
                want = recorded[i].get(name) if i < len(recorded) else None
                if value != want:
                    problems.append(f"{name} digest {value} != recorded "
                                    f"{want}")
            if problems:
                failed += 1
                messages.append(f"rep {r + 1} op {i + 1}: "
                                + "; ".join(problems))
    return attempted, failed, messages


# ----------------------------------------------------------------------
# Spans


def span_self_times(trace_events):
    """Self seconds per span name, per track, from Chrome trace events.

    Spans nest strictly per track (the recorder enforces it), so a
    span's self time is its duration minus the durations of its direct
    children.  Returns {tid: {name: seconds}}, summed over spans of one
    name on a track.
    """
    tracks = {}
    stacks = {}
    for ev in trace_events:
        tid = ev.get("tid")
        if ev.get("ph") == "B":
            stacks.setdefault(tid, []).append([ev["name"], ev["ts"], 0.0])
        elif ev.get("ph") == "E":
            name, start, children_us = stacks[tid].pop()
            duration = ev["ts"] - start
            if stacks[tid]:
                stacks[tid][-1][2] += duration
            selfs = tracks.setdefault(tid, {})
            selfs[name] = selfs.get(name, 0.0) + \
                (duration - children_us) * 1e-6
    return tracks


def cost_growth(deciles):
    """Host cost per event over the last tenth / over the first tenth.

    `deciles` holds (event index, host us) at each tenth of a replay,
    first and last included.
    """
    (i0, t0), (i1, t1) = deciles[0], deciles[1]
    (i9, t9), (i10, t10) = deciles[-2], deciles[-1]
    return ((t10 - t9) / (i10 - i9)) / ((t1 - t0) / (i1 - i0))


# ----------------------------------------------------------------------
# Metrics


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(result):
    reps = result["reps"]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "ops_per_s": statistics.median(r["work"] / r["wall_s"] for r in reps),
        "peak_rss_mb": result["peak_rss_mb"],
    }


# Per-layer metrics that are a layer's count, read by the binary from the
# layer's public binding (telemetry registry, NodeStats, RunOutcome,
# SdcAudit::publishTelemetry) under the same name; 0 where the workload
# does not run the layer.
LAYER_COUNTS = (
    "sched.events", "sched.jobs_completed", "sched.ue_kills",
    "sched.requeues", "sched.nodes_failed", "sched.nodes_demoted",
    "sched.digests", "sim.events", "cpu.instructions",
    "cache.l3.writebacks", "cache.cleaned_lines", "dram.reads",
    "dram.writes", "dram.mode_switches", "core.write_mode_entries",
    "core.write_mode_s", "core.transition_s", "core.corrections",
    "core.margin_promotions", "monitor.samples", "monitor.aggregations",
    "monitor.splits", "monitor.merges", "monitor.regions",
    "monitor.scheme_hits", "monitor.scheme_fires", "verify.classified",
    "verify.detected", "verify.escapes", "verify.wide_draws",
    "verify.null_space_draws", "verify.guard_trips",
    "verify.unclassified",
)


def layer_values(rep, selfs):
    """Per-layer metrics of one traced repetition (0 where unused).

    `selfs` maps span names to self seconds on the repetition's track.
    """
    counts = rep["counts"]
    c = lambda name: counts.get(name, 0.0)  # noqa: E731
    s = lambda name: selfs.get(name, 0.0)  # noqa: E731
    values = {name: c(name) for name in LAYER_COUNTS}
    values.update({
        "traces.generate_s": s("traces.generate"),
        "sched.run_s": s("sched.run"),
        "sched.us_per_event": ratio(s("sched.run") * 1e6,
                                    c("sched.events")),
        "sched.cost_growth": (cost_growth(rep["event_deciles"])
                              if rep["event_deciles"] else 0.0),
        "sched.lost_work_frac": ratio(c("sched.lost_node_seconds"),
                                      c("sched.busy_node_seconds")),
        "node.construct_s": s("node.construct"),
        "node.run_s": s("node.run"),
        "node.ns_per_mem_op": ratio(s("node.run") * 1e9, rep["work"]),
        "node.sim_us": c("node.sim_seconds") * 1e6,
        "sim.ns_per_event": ratio(s("node.run") * 1e9, c("sim.events")),
        "dram.row_hit_ratio": ratio(c("dram.row_hits"),
                                    c("dram.row_hits")
                                    + c("dram.row_misses")),
        "dram.read_latency_ns": ratio(c("dram.read_latency_ns_x_reads"),
                                      c("dram.reads")),
        "dram.bus_utilization": ratio(c("dram.bus_utilization_sum"),
                                      c("node.simulations")),
        "monitor.overhead_frac": ratio(c("monitor.overhead_frac_sum"),
                                       c("node.simulations")),
        "monitor.fire_ratio": ratio(c("monitor.scheme_fires"),
                                    c("monitor.scheme_hits")),
        "verify.construct_s": s("verify.construct"),
        "verify.step_s": s("verify.step"),
        "verify.us_per_classified": ratio(s("verify.step") * 1e6,
                                          c("verify.classified")),
    })
    for level in ("l1", "l2", "l3"):
        hits = c(f"cache.{level}.hits")
        values[f"cache.{level}.hit_ratio"] = ratio(
            hits, hits + c(f"cache.{level}.misses"))
    return values


def per_layer(result, trace_events):
    """Medians over the traced repetitions of every per-layer metric,
    plus the tracing overhead against the untraced repetitions."""
    reps = result["reps"]
    selfs = span_self_times(trace_events)
    traced = [(k, r) for k, r in enumerate(reps) if r["traced"]]
    rows = [layer_values(r, selfs.get(k, {})) for k, r in traced]
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]}
    untraced_wall = statistics.median(
        r["wall_s"] for r in reps if not r["traced"])
    traced_wall = statistics.median(r["wall_s"] for _, r in traced)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return metrics


# ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    spec = load_json(ROOT / "BENCHMARK.json")
    manifest = load_json(HERE / "manifest.json")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    build()
    trace_path = BUILD_DIR / "traces" / f"{args.workload}-{args.seed}.json"
    if args.trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        if trace_path.exists():
            trace_path.unlink()
    started = time.monotonic()
    result, error = run_binary(args, trace_path)
    elapsed = time.monotonic() - started

    recorded = manifest["digests"].get(args.workload, {}).get(str(args.seed))
    if result is None:
        attempted, failed, messages = 1, 1, [error]
        metrics = {}
    else:
        attempted, failed, messages = gate(result["reps"], recorded)
        if args.trace:
            events = load_json(trace_path)["traceEvents"]
            metrics = per_layer(result, events)
        else:
            metrics = end_to_end(result)
        print(f"hostbench {args.workload} seed {args.seed} trace "
              f"{args.trace}: {len(result['reps'])} repetitions in "
              f"{elapsed:.1f} s")
    if result is not None and set(metrics) != set(units):
        messages.append("metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")
    for name in units:
        if name in metrics:
            print(f"  {name:<26} {metrics[name]:>16.6g} {units[name]}")
    if "ops_per_s" in metrics:
        print("  ops_per_s counts "
              + manifest["workloads"][args.workload]["ops_per_s"])
    print(f"  {'failed_frac':<26} {ratio(failed, attempted):>16.6g} "
          f"({failed}/{attempted} operations; digests "
          f"{'recorded' if recorded is not None else 'not recorded'} "
          "for this seed)")
    for message in messages:
        print(f"  FAIL {message}")
    correct = not messages
    print(f"gate: {'PASS' if correct else 'FAIL'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
