"""Self-tests of the benchmark (about three minutes on two cores).

    python3 perfbench/selftest.py

1. Every count metric (layers.EXACT) repeats exactly across two traced runs
   with the same seed, on every workload.
2. A deliberately wrong reference value makes an operation fail: each
   reference used by paper-defaults is perturbed in turn and the checks of
   one pass's outputs are re-run; exactly the operation that reads it fails.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import checkout

SEED = 7


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(checkout.HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=checkout.ROOT, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts_repeat() -> list[str]:
    import layers
    import workloads

    errors = []
    for name in workloads.WORKLOADS:
        first, second = traced_run(name), traced_run(name)
        for result in (first, second):
            if not result["correct"] or result["failed"]:
                errors.append(f"{name}: traced run not correct ({result['failed']} failed)")
        for metric in layers.EXACT:
            a, b = first["metrics"][metric]["value"], second["metrics"][metric]["value"]
            if a != b:
                errors.append(f"{name}: {metric} {a} != {b}")
        print(f"{name}: counts " + ", ".join(f"{m}={first['metrics'][m]['value']}" for m in layers.EXACT))
    return errors


# reference path -> the operation whose check reads it
PERTURBATIONS = {
    ("quantum_fraction_outside", "128", "0.0187"): "run_scenario.transport",
    ("classical_fraction_outside", "value"): "run_scenario.transport",
    ("flux", "value"): "run_scenario.flux",
    ("poincare_fraction_outside",): "run_scenario.poincare",
    ("negativity", "128", "0.02"): "run_scenario.wigner",
    ("waterfall_energy", "128"): "run_scenario.waterfall",
}


def wrong_reference_fails() -> list[str]:
    import run
    import workloads

    refs = workloads.load_references()
    workload = workloads.PaperDefaults(SEED, refs)
    workload.warm_up()
    capture = workloads.QuantumCapture()
    capture.install()
    stamp = f"{os.getpid()}-selftest"
    errors = []
    try:
        ops = workload.run_pass(stamp, capture)
        tally = run.Tally()
        tally.check(ops)
        if tally.failed:
            errors.append(f"true references fail: {tally.problems}")
        for path, op_name in PERTURBATIONS.items():
            wrong = copy.deepcopy(refs)
            *parents, leaf = path
            node = wrong
            for key in parents:
                node = node[key]
            # A Monte Carlo reference must move by more than its allowed error.
            node[leaf] = node[leaf] * 1.5 + 1.0
            workload.refs = wrong
            tally = run.Tally()
            tally.check(ops)
            failed = sorted({p.split(":")[0] for p in tally.problems})
            if tally.failed == 0 or failed != [op_name]:
                errors.append(f"reference {'/'.join(path)} perturbed: failed ops {failed}, expected [{op_name}]")
            else:
                print(f"wrong {'/'.join(path)}: failed {tally.failed}/{tally.attempted} ({op_name})")
    finally:
        capture.close()
        checkout.remove_outputs(stamp)
    return errors


def main() -> int:
    checkout.import_program()
    os.chdir(checkout.ROOT)
    errors = wrong_reference_fails() + counts_repeat()
    for error in errors:
        print(f"FAIL: {error}", file=sys.stderr)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
