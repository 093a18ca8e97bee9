"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks two things and exits non-zero if either fails:

* two traced runs with the same seed report identical counts
  (``floquet.cutoff``, ``floquet.rhs_evals``, ``bloch.fit_mollow.n_iter``,
  ``scans.rows``, ``csvio.bytes``) on the workloads that produce them;
* a product with a wrong result, or one that exits non-zero, counts as
  failed.

The file name keeps it out of pytest collection, so it adds nothing to
the test suite.  It takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

COUNTS = (
    "floquet.cutoff",
    "floquet.rhs_evals",
    "bloch.fit_mollow.n_iter",
    "scans.rows",
    "csvio.bytes",
)
# spectrum gives the floquet counts, map_pool the rows, closed_form the fit
COUNT_WORKLOADS = ("spectrum", "map_pool", "closed_form")


def traced(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def check_counts_repeat() -> list[str]:
    problems = []
    for workload in COUNT_WORKLOADS:
        first, second = traced(workload, 7), traced(workload, 7)
        for result in (first, second):
            if not result["correct"]:
                problems.append(f"{workload}: a traced run failed its gates")
        for name in COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            print(f"{workload} {name}: {a} / {b}")
            if a != b:
                problems.append(f"{workload} {name}: {a} != {b}")
    return problems


def check_failures_counted() -> list[str]:
    """Run one closed_form round with a Mollow spectrum 5% too wide, and a
    product whose config the CLI rejects; each must count as failed."""
    sys.path.insert(0, str(run.SRC))
    from bifluor import bloch
    from bifluor.emitter import DriveField

    scratch = run.ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    original = bloch.mollow_spectrum

    def too_wide(emitter, drive, grid):
        return original(emitter, DriveField(detuning=drive.detuning, rabi=1.05 * drive.rabi), grid)

    problems = []
    try:
        workload = workloads.closed_form(3, work)
        mollow, fit = workload.products[:2]
        rejected = workloads.Product(
            "mollow", mollow.config + "\n[extra]\nunknown = 1\n", mollow.gate
        )
        workload.products = [mollow, fit, rejected]
        runner = run.Runner(workload, work)
        bloch.mollow_spectrum = too_wide
        try:
            runner.run_pass()
        finally:
            bloch.mollow_spectrum = original
        failed = {index: reason for index, reason in runner.failures}
        print(f"injected faults: {runner.attempted} attempted, failed {failed}")
        if sorted(failed) != [0, 1, 2]:
            problems.append(f"expected products 0, 1 and 2 to fail, got {sorted(failed)}")
        if not failed.get(2, "").startswith("exit code 1"):
            problems.append("the rejected config was not counted by its exit code")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    return problems


def main() -> int:
    problems = check_failures_counted() + check_counts_repeat()
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
