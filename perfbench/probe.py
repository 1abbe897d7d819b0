"""Child processes of the benchmark, each in a fresh interpreter.

    python3 perfbench/probe.py setup WORKLOAD SEED T0
        Imports the program, parses the workload's config and makes the first
        call into each layer it uses; prints the seconds from T0 (the parent's
        ``time.monotonic()`` just before it started this process) to warm.

    python3 perfbench/probe.py pass WORKLOAD SEED
        Warms up, runs one traced pass and prints the pass's
        ``quantum.evolve_density`` time as JSON.  The parent runs it with
        ``OPENBLAS_NUM_THREADS=1`` for the single-thread baseline.
"""

from __future__ import annotations

import json
import os
import sys
import time

import checkout


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    checkout.import_program()
    import layers
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[name](seed, refs={})
    workload.warm_up()
    if mode == "setup":
        print(time.monotonic() - float(argv[3]))
        return 0

    tracer = Tracer()
    layers.install(tracer)
    stamp = f"{os.getpid()}-probe"
    try:
        workload.run_pass(stamp, workloads.QuantumCapture())
    finally:
        tracer.close()
        checkout.remove_outputs(stamp)
    evolve = sum(s.duration for s in tracer.spans if s.name == "quantum.evolve_density")
    print(json.dumps({"evolve_density_s": evolve}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
