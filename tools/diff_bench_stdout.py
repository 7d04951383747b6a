#!/usr/bin/env python3
"""Run the deterministic bench invocations from two bench directories
and diff their stdout.

Usage: diff_bench_stdout.py A_DIR B_DIR [--quick]

A_DIR and B_DIR are bench binary directories (for example
build/bench and build-sanitize/bench, or the bench directories of two
commits' builds).  Every invocation runs once per side, each side in
a fresh scratch working directory of its own, so result caches
(results/) and snapshots never leak between sides or invocations.
The two sides of one invocation run concurrently.

Bench stdout is deterministic (fixed seeds, no wall-clock numbers), so
any difference is a real change: the script prints a unified diff per
differing invocation and exits 1.  A differing exit status counts as
a difference too.

--quick limits the list to the ten static figure/table binaries plus
the four deterministic --smoke runs (advisor_soak's counts and
latencies depend on timing, so it is never diffed).  Without it the
list adds the grid figures (fig05, fig12-16, each from an empty
results/ cache), fig17, fig18_resilience, and the full fig18_drift,
ablation_heterodmr, ablation_hetreliability, fig19_monitor and
sdc_audit runs (the last is the only one that prints the projected
MTT-SDC of the default fleet).
"""

import difflib
import subprocess
import sys
import tempfile
import time
from pathlib import Path

STATIC = [
    ["table1_study_scale"],
    ["table2_memory_settings"],
    ["table3_hierarchies"],
    ["table4_sim_config"],
    ["fig01_memory_utilization"],
    ["fig02_margin_distribution"],
    ["fig03_brand_chips_per_rank"],
    ["fig04_other_factors"],
    ["fig06_error_rates"],
    ["fig11_margin_variability"],
]

SMOKE = [
    ["sdc_audit", "--smoke"],
    ["fig18_drift", "--smoke"],
    ["ablation_hetreliability", "--smoke"],
    ["fig19_monitor", "--smoke"],
]

FULL = [
    ["fig05_margin_speedup"],
    ["fig12_normalized_performance"],
    ["fig13_energy_epi"],
    ["fig14_dram_accesses"],
    ["fig15_bandwidth_utilization"],
    ["fig16_silicon_corroboration"],
    ["fig17_system_wide"],
    ["fig18_resilience"],
    ["fig18_drift"],
    ["ablation_heterodmr"],
    ["ablation_hetreliability"],
    ["fig19_monitor"],
    ["sdc_audit"],
]


def start(bench_dir: Path, argv, scratch: Path):
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    binary = (bench_dir / argv[0]).resolve()
    return subprocess.Popen([str(binary)] + argv[1:], cwd=workdir,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)


def main(argv) -> int:
    args = [a for a in argv[1:] if a != "--quick"]
    quick = len(args) != len(argv) - 1
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    dirs = [Path(a) for a in args]
    for d in dirs:
        if not d.is_dir():
            print(f"error: {d} is not a directory", file=sys.stderr)
            return 2
    invocations = STATIC + SMOKE + ([] if quick else FULL)

    differing = 0
    with tempfile.TemporaryDirectory(prefix="diff-bench-") as tmp:
        scratch = Path(tmp)
        for argv_ in invocations:
            name = " ".join(argv_)
            began = time.monotonic()
            procs = [start(d, argv_, scratch) for d in dirs]
            outs = [p.communicate()[0] for p in procs]
            codes = [p.returncode for p in procs]
            same = outs[0] == outs[1] and codes[0] == codes[1]
            print(f"{'same' if same else 'DIFF'}: {name} "
                  f"(exit {codes[0]}/{codes[1]}, "
                  f"{time.monotonic() - began:.1f} s)", flush=True)
            if same:
                continue
            differing += 1
            sys.stdout.writelines(difflib.unified_diff(
                outs[0].splitlines(keepends=True),
                outs[1].splitlines(keepends=True),
                fromfile=f"{dirs[0]}/{name}",
                tofile=f"{dirs[1]}/{name}"))
    if differing:
        print(f"\n{differing} of {len(invocations)} invocation(s) "
              "differ")
        return 1
    print(f"\nall {len(invocations)} invocations identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
