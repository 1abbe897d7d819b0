"""Write references.json, the values the benchmark's correctness checks compare against.

    python3 perfbench/make_references.py

Run it at the commit whose outputs define "correct".  Quantum and Wigner
values come from one run (they do not depend on the seed).  The classical
fraction outside and the flux are pooled over REFERENCE_SEEDS, which no
benchmark run is expected to use, so that the reference's own error is small
next to that of a single run.
"""

from __future__ import annotations

import json
import math
import os
import sys

import checkout

REFERENCE_SEEDS = range(900_001, 900_009)


def run(scenario: str, seed: int, overrides: dict | None = None):
    import workloads
    from cantori import cli

    cfg = cli.parse_config(workloads.generate_config(scenario, seed, overrides))
    stamp = f"{os.getpid()}-ref-{scenario}-{seed}"
    outdir, _ = cli.run_scenario(cfg, stamp=stamp)
    return cfg, outdir, stamp


def main() -> int:
    checkout.import_program()
    import numpy as np
    import workloads

    os.chdir(checkout.ROOT)
    refs: dict = {"quantum_fraction_outside": {}, "negativity": {}, "waterfall_energy": {}}

    classical, flux, flux_se = [], [], []
    for seed in REFERENCE_SEEDS:
        cfg, outdir, stamp = run("transport", seed)
        frac, quantum = workloads.read_transport(cfg, outdir)
        classical.append(frac)
        refs["quantum_fraction_outside"][str(cfg.params.basis_size)] = quantum
        checkout.remove_outputs(stamp)
        _, outdir, stamp = run("flux", seed)
        value, stderr = workloads.read_flux(outdir)
        flux.append(value)
        flux_se.append(stderr)
        checkout.remove_outputs(stamp)
    n = cfg.params.n_trajectories * len(classical)
    refs["classical_fraction_outside"] = {"value": float(np.mean(classical)), "n": n}
    refs["flux"] = {
        "value": float(np.mean(flux)),
        "stderr": math.sqrt(float(np.mean(np.square(flux_se))) / len(flux)),
    }

    seed = REFERENCE_SEEDS[0]
    for overrides in ({}, workloads.DecoherenceN512.overrides):
        cfg, outdir, stamp = run("wigner", seed, overrides)
        refs["negativity"][str(cfg.params.basis_size)] = workloads.read_negativity(outdir)
        checkout.remove_outputs(stamp)
    cfg, outdir, stamp = run("waterfall", seed)
    refs["waterfall_energy"][str(cfg.params.basis_size)] = workloads.read_waterfall(outdir)[1]
    checkout.remove_outputs(stamp)
    _, outdir, stamp = run("poincare", seed)
    refs["poincare_fraction_outside"] = workloads.poincare_outside(np.loadtxt(outdir / "poincare.dat"))
    checkout.remove_outputs(stamp)

    workloads.REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(json.dumps(refs, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
