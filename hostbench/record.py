#!/usr/bin/env python3
"""Record the modelled-output digests the benchmark's gate checks.

    python3 hostbench/record.py <workload|all> <seeds>

<seeds> is a comma-separated list of seeds or ranges, e.g. "0-31".
Builds like run.py, runs one untraced repetition per workload and seed,
and stores its per-operation digests under "digests" in
hostbench/manifest.json.  Re-record only for a change that alters
modelled outputs on purpose; a change to simulator speed must leave
every recorded digest as it is.
"""

import json
import subprocess
import sys

import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv):
    if len(argv) != 2:
        run.die(__doc__.strip().splitlines()[2])
    spec = run.load_json(run.ROOT / "BENCHMARK.json")
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if argv[0] == "all" else [argv[0]]
    if not set(workloads) <= set(names):
        run.die(f"unknown workload {argv[0]}")
    path = run.HERE / "manifest.json"
    manifest = run.load_json(path)
    run.build()
    for workload in workloads:
        for seed in parse_seeds(argv[1]):
            out = subprocess.run(
                [str(run.BINARY), "--workload", workload, "--seed",
                 str(seed), "--seconds", "1", "--trace", "0"],
                stdout=subprocess.PIPE, check=True, text=True)
            rep = json.loads(out.stdout.splitlines()[-1])["reps"][0]
            broken = [b for op in rep["ops"] for b in op["broken"]]
            if broken:
                run.die(f"{workload} seed {seed}: {broken}")
            manifest["digests"].setdefault(workload, {})[str(seed)] = [
                op["digests"] for op in rep["ops"]]
            print(f"{workload} seed {seed}: {len(rep['ops'])} operations",
                  file=sys.stderr)
            with open(path, "w", encoding="utf-8") as f:
                json.dump(manifest, f, indent=1, sort_keys=False)
                f.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
