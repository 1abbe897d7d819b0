"""cantori benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the repository root.  One process per workload, driven as a closed
loop by a single caller: a pass starts when the previous one has finished.
Passes repeat until S seconds have gone by (at least MIN_PASSES).  Every
operation's output is checked after its pass has been timed.  BLAS runs at
its library default thread count, which is recorded and never raised.

--trace 0 prints the end-to-end metrics:
    wall_s       median warm time of one pass
    setup_s      median, over SETUP_SAMPLES fresh interpreters, of the time from
                 process start to warm (imports, parse_config, first call into
                 each layer the workload uses)
    peak_rss_mb  peak resident set of this process
--trace 1 splits the time between untraced and traced passes (spans around
the public functions of every module, see tracer.py) and prints the
per-layer metrics of layers.py.  Spans are written to .perfbench_out/ at the
end, with the environment record.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Workloads are defined in workloads.py.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import checkout

SETUP_SAMPLES = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150


def openblas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library loaded into this process."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    counts = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[os.path.basename(path)] = fn()
                break
    return counts


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS, so its thread count is recorded too)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


class Tally:
    """Operations attempted and failed, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            try:
                problems = op.check()
            except Exception as exc:  # a check that cannot run fails its operation
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                self.problems += [f"{op.name}: {p}" for p in problems]


def run_passes(workload, capture, tally, seconds, min_passes, tag, tracer=None):
    """Closed loop of passes; returns (wall times, traced per-pass span lists)."""
    import layers

    walls, traced = [], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        stamp = f"{os.getpid()}-{tag}{len(walls)}"
        first_span = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.pass_id += 1
        t0 = time.perf_counter()
        ops = workload.run_pass(stamp, capture)
        walls.append(time.perf_counter() - t0)
        if tracer:
            layers.finish_pass(tracer.spans[first_span:])
            traced.append((first_span, len(tracer.spans), walls[-1]))
            tracer.recording = False
        tally.check(ops)
        checkout.remove_outputs(stamp)
        if tracer:
            tracer.recording = True
    return walls, traced


def child(args: list[str], env: dict | None = None) -> str:
    """Run probe.py in a fresh interpreter; returns its last line of output."""
    proc = subprocess.run(
        [sys.executable, str(checkout.HERE / "probe.py"), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env, cwd=checkout.ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args[0]} failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return proc.stdout.strip().splitlines()[-1]


def end_to_end(workload, seed, seconds, capture, tally) -> dict:
    setup = []
    for _ in range(SETUP_SAMPLES):
        setup.append(float(child(["setup", workload.name, str(seed), repr(time.monotonic())])))
    workload.warm_up()
    capture.install()
    walls, _ = run_passes(workload, capture, tally, seconds, MIN_PASSES, "p")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"wall_s: median of {len(walls)} passes {[round(w, 4) for w in walls]}")
    print(f"setup_s: median of {len(setup)} fresh interpreters {[round(s, 4) for s in setup]}")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(workload, seed, seconds, capture, tally, env) -> dict:
    import layers
    from tracer import Tracer, self_times

    workload.warm_up()
    capture.install()
    untraced, _ = run_passes(workload, capture, tally, seconds / 2, 1, "u")
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced_walls, traced = run_passes(workload, capture, tally, seconds / 2, 1, "t", tracer)
    finally:
        tracer.close()

    own = self_times(tracer.spans)
    per_pass = [layers.pass_metrics(tracer.spans[a:b], own[a:b], wall) for a, b, wall in traced]
    metrics = {}
    for name, _, _ in layers.METRICS:
        values = [p[name] for p in per_pass if name in p]
        if name in layers.EXACT:
            if len(set(values)) > 1:
                tally.problems.append(f"count {name} differs between passes of one run: {values}")
            metrics[name] = values[0]
        elif values:
            metrics[name] = statistics.median(values)

    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
    dominant, share, holds = layers.dominant(workload.name, per_pass)
    metrics["trace.dominant_share"] = share
    metrics["trace.prediction_holds"] = int(holds)
    ranking = layers.self_shares(per_pass)
    verdict = "holds" if holds else f"CONTRADICTED: the largest self time is {ranking[0][0]}"
    print(f"prediction: {dominant} dominates {workload.name}; share of traced wall_s {share:.3f}; {verdict}")
    print("self-time shares of traced wall_s: " + ", ".join(f"{n} {s:.3f}" for n, s in ranking[:6]))

    metrics["quantum.evolve_density.s_1thread"] = 0.0
    metrics["quantum.blas_speedup"] = 0.0
    if metrics["quantum.evolve_density.s"] > 0:
        single = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        s1 = json.loads(child(["pass", workload.name, str(seed)], single))["evolve_density_s"]
        metrics["quantum.evolve_density.s_1thread"] = s1
        metrics["quantum.blas_speedup"] = s1 / metrics["quantum.evolve_density.s"]

    print(f"traced passes {len(traced_walls)}, untraced passes {len(untraced)}")
    trace_file = checkout.OUT / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "environment": env,
        "metrics": metrics,
        "spans": [[s.name, s.start, s.end, s.parent, s.pass_id, s.attrs] for s in tracer.spans],
    }))
    print(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(checkout.ROOT)}")
    return {name: (metrics[name], layers.UNITS[name]) for name, _, _ in layers.METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        checkout.import_program()
    except checkout.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.chdir(checkout.ROOT)
    checkout.OUT.mkdir(exist_ok=True)

    env = environment()
    print("environment: " + json.dumps(env))
    if any(n > env["nproc"] for n in env["blas_threads"].values()):
        print("warning: BLAS threads exceed nproc", file=sys.stderr)

    tally = Tally()
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.load_references())
    capture = workloads.QuantumCapture()
    try:
        if args.trace:
            metrics = per_layer(workload, args.seed, args.seconds, capture, tally, env)
        else:
            metrics = end_to_end(workload, args.seed, args.seconds, capture, tally)
    finally:
        capture.close()

    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
