#!/usr/bin/env python3
"""Compare two checkouts on one hostbench workload over alternating pairs.

Usage: hostbench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed N \
           --pairs K

PARENT_DIR and CHANGE_DIR are the roots of two source checkouts (for
example a `git archive` of the parent commit and this tree).  Each
pair runs

    python3 hostbench/run.py --workload W --seed N --seconds S --trace 0

once in each checkout, parent first in odd pairs and change first in
even ones, where S is `run_seconds` from BENCHMARK.json (both
checkouts must agree on it).  Each run builds or checks its own
.bench_build/ first; its build output goes to stderr.

Printed per side: the median and quartiles of every end-to-end metric
of BENCHMARK.json, and the operations attempted and failed.  Printed
per metric: the change/parent ratio of the medians and the number of
pairs the change won in that metric's `better` direction (ties count
for neither side).  A gain is claimed by the rule of the
choosing-metrics method: the change wins at least nine tenths of the
pairs, and the medians differ by more than the parent's interquartile
range.  This tool prints the numbers; it claims nothing.

Exit status: 0 when every run was correct with no failed operation,
1 when any run was not correct or failed an operation, 2 on bad
arguments or when a run printed no result.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def die(message):
    print(f"hostbench_pairs: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec(root):
    path = root / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        die(f"cannot read {path}: {err}")


def run_once(root, args, seconds):
    """One run.py invocation; returns its parsed result line."""
    cmd = [sys.executable, "hostbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", "0"]
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              text=True, check=False)
    except OSError as err:
        die(f"cannot run {cmd[1]} in {root}: {err}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        return result["correct"], result["attempted"], result["failed"], \
            metrics
    except (IndexError, ValueError, KeyError, TypeError):
        die(f"run in {root} (exit {done.returncode}) printed no result")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.pairs < 1:
        die("--seed must be >= 0 and --pairs >= 1")
    roots = {"parent": args.parent_dir.resolve(),
             "change": args.change_dir.resolve()}
    for root in roots.values():
        if not (root / "hostbench" / "run.py").is_file():
            die(f"{root} has no hostbench/run.py")
    specs = {side: load_spec(root) for side, root in roots.items()}
    seconds = {side: spec.get("run_seconds") for side, spec in specs.items()}
    if seconds["parent"] != seconds["change"]:
        die(f"run_seconds differ: parent {seconds['parent']}, change "
            f"{seconds['change']}")
    if not isinstance(seconds["parent"], int) or seconds["parent"] < 1:
        die(f"run_seconds {seconds['parent']!r} is not a positive integer")
    if args.workload not in [w["name"] for w in specs["parent"]["workloads"]]:
        die(f"unknown workload {args.workload}")
    metrics = specs["parent"]["end_to_end"]

    values = {side: {m["name"]: [] for m in metrics} for side in roots}
    ops = {side: [0, 0] for side in roots}
    all_correct = True
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of "
          f"{seconds['parent']} s runs, parent first in odd pairs",
          flush=True)
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else \
            ("change", "parent")
        for side in order:
            correct, attempted, failed, got = run_once(
                roots[side], args, seconds[side])
            all_correct = all_correct and correct and failed == 0
            ops[side][0] += attempted
            ops[side][1] += failed
            for m in metrics:
                if m["name"] not in got:
                    die(f"{side} run reported no {m['name']}")
                values[side][m["name"]].append(got[m["name"]])
            shown = " ".join(f"{m['name']}={got[m['name']]:.6g}"
                             for m in metrics)
            print(f"  pair {pair + 1} {side}: {shown} correct="
                  f"{'true' if correct else 'false'} failed="
                  f"{failed}/{attempted}", flush=True)

    print(f"{'metric':<12} {'better':<7} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'ratio':>7} {'won':>7}")
    for m in metrics:
        name = m["name"]
        cells = []
        for side in roots:
            vals = values[side][name]
            q1, q3 = quartiles(vals)
            cells.append(f"{statistics.median(vals):.6g} "
                         f"[{q1:.6g}, {q3:.6g}]")
        parent_median = statistics.median(values["parent"][name])
        ratio = statistics.median(values["change"][name]) / parent_median \
            if parent_median else float("nan")
        sign = 1 if m["better"] == "higher" else -1
        won = sum(1 for p, c in zip(values["parent"][name],
                                    values["change"][name])
                  if sign * (c - p) > 0)
        print(f"{name:<12} {m['better']:<7} {cells[0]:>36} {cells[1]:>36} "
              f"{ratio:>7.3f} {won:>3}/{args.pairs}")
    for side in roots:
        print(f"{side} operations: {ops[side][0]} attempted, "
              f"{ops[side][1]} failed")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
