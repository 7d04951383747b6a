#!/usr/bin/env python3
"""Check the bench CLI contract of every bench binary that takes flags.

Usage: bench_cli_contract.py BENCH_DIR SCRATCH_DIR

For each binary it checks, without starting a simulation (every case
must fail or finish while parsing flags):

  - `--help` exits 0 and lists exactly the binary's flags;
  - `--no-such-flag`, an empty `--telemetry-out=` and a
    `--telemetry-out=` path below a regular file each exit non-zero
    and name the flag or the path;
  - every numeric flag given `abc` exits non-zero and names the flag.

The binaries run with SCRATCH_DIR as their working directory.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

GRID = ["--telemetry-out", "--threads"]
SWEEP = ["--telemetry-out", "--snapshot-every", "--snapshot-path",
         "--snapshot-keep", "--resume-from", "--digest-every"]
SWEEP_NUMERIC = ["--snapshot-every", "--snapshot-keep", "--digest-every"]

# binary -> (every accepted flag but --help, the numeric ones)
BINARIES = {
    "fig05_margin_speedup": (GRID, ["--threads"]),
    "fig12_normalized_performance": (GRID, ["--threads"]),
    "fig13_energy_epi": (GRID, ["--threads"]),
    "fig14_dram_accesses": (GRID, ["--threads"]),
    "fig15_bandwidth_utilization": (GRID, ["--threads"]),
    "fig16_silicon_corroboration": (GRID, ["--threads"]),
    "fig17_system_wide": (SWEEP, SWEEP_NUMERIC),
    "fig18_resilience": (SWEEP, SWEEP_NUMERIC),
    "fig18_drift": (SWEEP + ["--smoke"], SWEEP_NUMERIC),
    "ablation_hetreliability": (SWEEP + ["--smoke"], SWEEP_NUMERIC),
    "sdc_audit": (
        ["--telemetry-out", "--smoke", "--seed", "--modules", "--hours",
         "--accesses-per-hour", "--overshoot", "--wide-oversample",
         "--snapshot-path", "--resume-from"],
        ["--seed", "--modules", "--hours", "--accesses-per-hour",
         "--overshoot", "--wide-oversample"]),
    "fig19_monitor": (
        ["--telemetry-out", "--smoke", "--dump-schemes"], []),
    "advisor_soak": (["--telemetry-out", "--smoke", "--seed"],
                     ["--seed"]),
    "ablation_heterodmr": (["--telemetry-out"], []),
}

FAILURES = 0


def check(ok: bool, what: str) -> None:
    global FAILURES
    if not ok:
        FAILURES += 1
        print(f"FAIL: {what}")


def run(binary: Path, arg: str, cwd: Path):
    """Run one case; a case still running after 30 s started a
    simulation instead of failing on its flags."""
    try:
        return subprocess.run([str(binary), arg], cwd=cwd,
                              capture_output=True, text=True,
                              timeout=30)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(
            [binary, arg], 0, "", "still running after 30 s")


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    bench_dir = Path(argv[1]).resolve()
    scratch = Path(argv[2])
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    regular_file = scratch / "regular-file"
    regular_file.write_text("not a directory\n")
    below_file = f"{regular_file}/x"

    for name, (flags, numeric) in BINARIES.items():
        binary = bench_dir / name

        helped = run(binary, "--help", scratch)
        check(helped.returncode == 0, f"{name} --help exits 0")
        listed = set(re.findall(r"^\s+(--[a-z0-9-]+)", helped.stdout,
                                re.MULTILINE)) - {"--help"}
        check(listed == set(flags),
              f"{name} --help lists {sorted(flags)}, "
              f"got {sorted(listed)}")

        cases = [("--no-such-flag", "--no-such-flag"),
                 ("--telemetry-out=", "--telemetry-out"),
                 (f"--telemetry-out={below_file}", below_file)]
        cases += [(f"{flag}=abc", flag) for flag in numeric]
        for arg, named in cases:
            done = run(binary, arg, scratch)
            check(done.returncode != 0, f"{name} {arg} exits non-zero")
            check(named in done.stderr,
                  f"{name} {arg} names '{named}' on stderr "
                  f"(got {done.stderr.strip()!r})")

    checked = len(BINARIES)
    if FAILURES:
        print(f"\n{FAILURES} check(s) FAILED over {checked} binaries")
        return 1
    print(f"bench CLI contract holds for {checked} binaries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
