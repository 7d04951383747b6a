#!/usr/bin/env python3
"""Fail if a command's stdout differs from a checked-in file.

Usage: stdout_golden_check.py EXPECTED SCRATCH_DIR COMMAND [ARG...]

Runs COMMAND with SCRATCH_DIR as its working directory (emptied
first, so no result cache or snapshot of an earlier run leaks in) and
compares its stdout byte for byte with the file EXPECTED.  Any
difference, or a nonzero exit status, prints a unified diff and exits
1.

The checked-in files it guards:

  * schemas/schemes/phase_adaptive.schemes, the operator-facing copy
    of monitor::defaultPhaseAdaptiveSchemes(), against
    `fig19_monitor --dump-schemes`;
  * tests/golden/<bench>.stdout, the stdout of the paper's tables and
    figures (table1_study_scale, table2_memory_settings,
    table3_hierarchies, table4_sim_config, fig01_memory_utilization,
    fig02_margin_distribution, fig03_brand_chips_per_rank,
    fig04_other_factors, fig06_error_rates, fig11_margin_variability,
    fig17_system_wide, fig18_resilience), of the margin-drift campaign
    (fig18_drift) and of the two design ablations
    (ablation_hetreliability, ablation_heterodmr);
  * tests/golden/<bench>_smoke.stdout, the stdout of the self-gating
    smokes `fig19_monitor --smoke`, `sdc_audit --smoke`,
    `fig18_drift --smoke` and `ablation_hetreliability --smoke`;
  * tests/golden/example_<name>.stdout, the stdout of the examples.

Bench stdout is deterministic, so a difference is a change of results.
Regenerating a file is a deliberate copy of the command's stdout over
it, made only for a deliberate change of results, for example:

    ./build/bench/fig17_system_wide > tests/golden/fig17_system_wide.stdout
"""

import difflib
import shutil
import subprocess
import sys
from pathlib import Path


def main() -> int:
    if len(sys.argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    expected_path = sys.argv[1]
    scratch = Path(sys.argv[2])
    command = sys.argv[3:]
    if "/" in command[0]:
        # Relative to the caller, not to the scratch directory.
        command[0] = str(Path(command[0]).resolve())
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)

    done = subprocess.run(command, cwd=scratch, stdout=subprocess.PIPE)
    with open(expected_path, "rb") as f:
        expected = f.read()
    shown = " ".join([Path(command[0]).name] + command[1:])
    if done.returncode == 0 and done.stdout == expected:
        print("ok: %s matches %s (%d bytes)" %
              (shown, expected_path, len(expected)))
        return 0
    print("FAIL: stdout of '%s' (exit status %d) differs from %s" %
          (shown, done.returncode, expected_path))
    sys.stdout.writelines(difflib.unified_diff(
        expected.decode(errors="replace").splitlines(keepends=True),
        done.stdout.decode(errors="replace").splitlines(keepends=True),
        fromfile=expected_path, tofile=shown))
    return 1


if __name__ == "__main__":
    sys.exit(main())
