"""Per-layer metrics from the traced passes.

The layers are the program's modules.  ``model`` runs in set-up only (well
under 1 ms) and is traced but not reported; ``setup_s`` covers it.  Each
layer metric is written down with the end-to-end metric it should move:

==========================================  =====================================================
metric                                      should move
==========================================  =====================================================
classical.pendulum_segment.elliptic.s       wall_s on paper-defaults (main share), a little on
                                            backend-crosscheck, nothing on decoherence-N512
classical.pendulum_segment.symplectic.s     wall_s on backend-crosscheck (main share)
classical.kick_cycle.self_s                 per-call Python dispatch; poincare's 60-orbit batches
quantum.build_floquet.s                     setup_s (LAPACK warm-up) and decoherence-N512
quantum.evolve_density.self_s               wall_s on decoherence-N512 (main share), a little on
                                            paper-defaults
wigner.*                                    wall_s on decoherence-N512
analysis.*                                  wall_s on paper-defaults
cli.self_s                                  wall_s on decoherence-N512 (~30%), ~3% on paper-defaults
==========================================  =====================================================

Times are per pass (median over the traced passes); counts are per pass and
must repeat exactly.  A layer a workload does not use reports 0.
"""

from __future__ import annotations

import numpy as np

from tracer import Span, Tracer
from workloads import BACKENDS, SCENARIOS

from cantori import analysis, classical, cli, model, quantum, wigner

MODULES = {
    "model": model,
    "classical": classical,
    "quantum": quantum,
    "wigner": wigner,
    "analysis": analysis,
    "cli": cli,
}

# Band around the separatrix that _pendulum_elliptic hands to the substep
# integrator: |m - 1| < 1e-9, m = (E + k) / 2k.
SEPARATRIX_BAND = 1e-9

# The layer predicted to dominate each workload's wall time.
PREDICTED = {
    "paper-defaults": "classical.pendulum_segment.elliptic",
    "backend-crosscheck": "classical.pendulum_segment.symplectic",
    "decoherence-N512": "quantum.evolve_density",
}

# (name, unit, better) of every per-layer metric, in report order.
METRICS = [
    ("classical.pendulum_segment.elliptic.s", "s", "lower"),
    ("classical.pendulum_segment.symplectic.s", "s", "lower"),
    ("classical.drift_segment.s", "s", "lower"),
    ("classical.kick_cycle.calls", "count", "lower"),
    ("classical.kick_cycle.self_s", "s", "lower"),
    ("classical.traj_kicks", "count", "lower"),
    ("classical.ns_per_traj_kick.elliptic", "ns", "lower"),
    ("classical.ns_per_traj_kick.symplectic", "ns", "lower"),
    ("classical.separatrix_fallbacks", "count", "lower"),
    ("classical.flux.crossing_ratio", "ratio", "higher"),
    ("quantum.build_floquet.s", "s", "lower"),
    ("quantum.evolve_density.s", "s", "lower"),
    ("quantum.evolve_density.kicks", "count", "lower"),
    ("quantum.evolve_density.self_s", "s", "lower"),
    ("quantum.apply_decoherence.s", "s", "lower"),
    ("quantum.gflop_computed", "GFLOP", "lower"),
    ("quantum.gflops", "GFLOP/s", "higher"),
    ("quantum.evolve_density.s_1thread", "s", "lower"),
    ("quantum.blas_speedup", "ratio", "higher"),
    ("wigner.toroidal_wigner.s", "s", "lower"),
    ("wigner.toroidal_wigner.calls", "count", "lower"),
    ("wigner.coarse_grain.s", "s", "lower"),
    ("wigner.negativity_volume.s", "s", "lower"),
    ("analysis.transport_curve_classical.s", "s", "lower"),
    ("analysis.transport_curve_quantum.s", "s", "lower"),
    *[(f"cli.run_scenario.{sc}.s", "s", "lower") for sc in SCENARIOS],
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.files_written", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.dominant_share", "ratio", "higher"),
    ("trace.prediction_holds", "count", "higher"),
]
UNITS = {name: unit for name, unit, _ in METRICS}
# Counts that must repeat exactly between runs with the same seed.
EXACT = (
    "classical.kick_cycle.calls",
    "classical.traj_kicks",
    "classical.separatrix_fallbacks",
    "classical.flux.crossing_ratio",
    "quantum.evolve_density.kicks",
    "quantum.gflop_computed",
    "wigner.toroidal_wigner.calls",
    "cli.bytes_written",
    "cli.files_written",
)


def _method(args, kwargs) -> str:
    return kwargs.get("method", args[4] if len(args) > 4 else "symplectic")


def _pendulum(args, kwargs, result):
    method = _method(args, kwargs)
    # Inputs are kept by reference and counted after the pass, outside the spans.
    return method, {"inputs": args[:3]} if method == "elliptic" else {}


def _kick_cycle(args, kwargs, result):
    return _method(args, kwargs), {"n": int(np.size(args[0]))}


def _flux(args, kwargs, result):
    seeds = kwargs.get("n_seeds", 100_000) * kwargs.get("n_replicates", 8)
    return None, {"crossings": result.n_crossings, "seeds": seeds}


def _evolve_density(args, kwargs, result):
    floquet, n_kicks = args[1], args[3] if len(args) > 3 else kwargs["n_kicks"]
    return None, {"kicks": int(n_kicks), "N": floquet.size}


def _run_scenario(args, kwargs, result):
    outdir, manifest = result
    size = sum((outdir / name).stat().st_size for name in manifest.files)
    return args[0].scenario, {"files": len(manifest.files), "bytes": size}


HOOKS = {
    "classical": {"pendulum_segment": _pendulum, "kick_cycle": _kick_cycle, "cantorus_flux": _flux},
    "quantum": {"evolve_density": _evolve_density},
    "cli": {"run_scenario": _run_scenario},
}


def install(tracer: Tracer) -> None:
    for layer, module in MODULES.items():
        tracer.install(module, layer, HOOKS.get(layer))


def separatrix_count(phi, rho, k) -> int:
    """Trajectories _pendulum_elliptic hands to the substep integrator."""
    phin = np.mod(np.asarray(phi, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    k = np.asarray(k, dtype=float)
    energy = 0.5 * np.asarray(rho, dtype=float) ** 2 - k * np.cos(phin)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = (energy + k) / (2.0 * k)
    return int(np.count_nonzero(np.abs(m - 1.0) < SEPARATRIX_BAND))


def finish_pass(spans: list[Span]) -> None:
    """Turn the inputs kept by the pendulum hook into counts and drop them."""
    for s in spans:
        inputs = s.attrs.pop("inputs", None)
        if inputs is not None:
            s.attrs["fallbacks"] = separatrix_count(*inputs)


def pass_metrics(spans: list[Span], own: list[float], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``own`` holds the spans' self times."""
    total: dict[str, float] = {}
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr: dict[str, float] = {}
    for s, t in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        selfs[s.name] = selfs.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.attrs.items():
            attr[f"{s.name}:{key}"] = attr.get(f"{s.name}:{key}", 0) + value

    def tot(*names):
        return sum(total.get(n, 0.0) for n in names)

    def own_of(*names):
        return sum(selfs.get(n, 0.0) for n in names)

    kick_names = [f"classical.kick_cycle.{m}" for m in BACKENDS]
    runs = [f"cli.run_scenario.{sc}" for sc in SCENARIOS]
    m: dict[str, float] = {}
    for method in BACKENDS:
        m[f"classical.pendulum_segment.{method}.s"] = tot(f"classical.pendulum_segment.{method}")
        n = attr.get(f"classical.kick_cycle.{method}:n", 0)
        m[f"classical.ns_per_traj_kick.{method}"] = 1e9 * tot(f"classical.kick_cycle.{method}") / n if n else 0.0
    m["classical.drift_segment.s"] = tot("classical.drift_segment")
    m["classical.kick_cycle.calls"] = sum(calls.get(n, 0) for n in kick_names)
    m["classical.kick_cycle.self_s"] = own_of(*kick_names)
    m["classical.traj_kicks"] = sum(attr.get(f"{n}:n", 0) for n in kick_names)
    m["classical.separatrix_fallbacks"] = attr.get("classical.pendulum_segment.elliptic:fallbacks", 0)
    seeds = attr.get("classical.cantorus_flux:seeds", 0)
    m["classical.flux.crossing_ratio"] = attr.get("classical.cantorus_flux:crossings", 0) / seeds if seeds else 0.0

    m["quantum.build_floquet.s"] = tot("quantum.build_floquet")
    m["quantum.evolve_density.s"] = tot("quantum.evolve_density")
    m["quantum.evolve_density.kicks"] = attr.get("quantum.evolve_density:kicks", 0)
    m["quantum.evolve_density.self_s"] = own_of("quantum.evolve_density")
    m["quantum.apply_decoherence.s"] = tot("quantum.apply_decoherence")
    # Two complex N x N products per kick, 8 N^3 real flop each (computed, not counted).
    flop = sum(16.0 * s.attrs["N"] ** 3 * s.attrs["kicks"] for s in spans if s.name == "quantum.evolve_density")
    m["quantum.gflop_computed"] = flop / 1e9
    m["quantum.gflops"] = m["quantum.gflop_computed"] / m["quantum.evolve_density.self_s"] if flop else 0.0

    m["wigner.toroidal_wigner.s"] = tot("wigner.toroidal_wigner")
    m["wigner.toroidal_wigner.calls"] = calls.get("wigner.toroidal_wigner", 0)
    m["wigner.coarse_grain.s"] = tot("wigner.coarse_grain")
    m["wigner.negativity_volume.s"] = tot("wigner.negativity_volume")
    m["analysis.transport_curve_classical.s"] = tot("analysis.transport_curve_classical")
    m["analysis.transport_curve_quantum.s"] = tot("analysis.transport_curve_quantum")
    for name in runs:
        m[f"{name}.s"] = tot(name)
    m["cli.self_s"] = own_of(*runs)
    m["cli.bytes_written"] = sum(attr.get(f"{n}:bytes", 0) for n in runs)
    m["cli.files_written"] = sum(attr.get(f"{n}:files", 0) for n in runs)

    m["_wall"] = wall
    m["_self"] = selfs
    return m


def self_shares(per_pass: list[dict]) -> list[tuple[str, float]]:
    """Span names by their share of traced wall_s (self time), largest first."""
    wall = sum(p["_wall"] for p in per_pass)
    summed: dict[str, float] = {}
    for p in per_pass:
        for span, t in p["_self"].items():
            summed[span] = summed.get(span, 0.0) + t
    return sorted(((span, t / wall) for span, t in summed.items()), key=lambda item: -item[1])


def dominant(workload: str, per_pass: list[dict]) -> tuple[str, float, bool]:
    """(predicted span, its share of traced wall_s, prediction holds).

    The prediction holds when the predicted span has the largest self time of
    all spans over the traced passes.
    """
    name = PREDICTED[workload]
    ranking = self_shares(per_pass)
    share = dict(ranking).get(name, 0.0)
    return name, share, bool(ranking) and ranking[0][0] == name
