"""The benchmark's workloads: generated inputs, one timed pass, output checks.

Every input is generated from the workload seed; the program only sees the
resulting config text (parsed by ``cli.parse_config``) or ``SimParams``, with
``rng_seed`` equal to the seed.  A pass returns one ``Op`` per operation (a
scenario run or a library call); each ``Op`` carries the check of its output,
which the caller runs after the pass has been timed.

Reference values live in ``references.json`` (written by
``make_references.py``).  Quantum and Wigner numbers do not depend on the seed
and are compared at a tight relative tolerance; classical numbers are Monte
Carlo estimates and are compared against their statistical error.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cantori import analysis, classical, cli, quantum, wigner
from cantori.model import SimParams

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
OUTPUT_DIR = ".perfbench_out/runs"      # relative to the checkout root, so config.ini bytes repeat

BOUNDARY = 10.0 * np.pi
KICK = 70                                # kick at which fractions outside are compared
SCENARIOS = ("transport", "flux", "poincare", "wigner", "waterfall")
N512_ETAS = "0 0.0187 0.0503"            # the paper's eta sweep
CROSSCHECK_TRAJECTORIES = 2000
BACKENDS = ("symplectic", "elliptic")

# Monte Carlo checks allow Z standard errors: a false alarm is a ~1e-6 event.
Z = 5.0
# Seed-independent (quantum, Wigner) values: the files carry 10 significant digits.
RTOL = 1e-8
# Relative energy error per pendulum segment documented in classical.py.
ENERGY_TOL = 1e-9
# One driven segment, elliptic vs symplectic: both conserve energy to 1e-9,
# and their phase-space points agree to ~1e-10 on these ensembles.
AGREEMENT_TOL = 1e-8
POINCARE_TOL = 0.02


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text())


@dataclass
class Op:
    """One operation of a pass and the check of its output (problems, empty when correct)."""

    name: str
    check: Callable[[], list[str]]


def attempt(name: str, call: Callable, check: Callable) -> Op:
    try:
        result = call()
    except Exception as exc:  # an operation that raises is a failed operation; the run goes on
        problem = f"{name} raised {type(exc).__name__}: {exc}"
        return Op(name, lambda: [problem])
    return Op(name, lambda: check(result))


class QuantumCapture:
    """Keeps the Floquet operators and per-kick populations a pass computes.

    Installed as the ``quantum`` module attributes, like the tracer, so the
    CLI's own calls are seen; the invariant checks run on them after timing.
    """

    def __init__(self):
        self.floquets: list = []
        self.populations: list = []
        self._saved = (quantum.build_floquet, quantum.evolve_density)

    def install(self) -> None:
        build, evolve = self._saved

        @functools.wraps(build)
        def build_floquet(*args, **kwargs):
            op = build(*args, **kwargs)
            self.floquets.append(op)
            return op

        @functools.wraps(evolve)
        def evolve_density(*args, **kwargs):
            rec = evolve(*args, **kwargs)
            self.populations.append(rec.populations)
            return rec

        quantum.build_floquet, quantum.evolve_density = build_floquet, evolve_density

    def close(self) -> None:
        quantum.build_floquet, quantum.evolve_density = self._saved

    def take(self) -> tuple[list, list]:
        taken = (self.floquets, self.populations)
        self.floquets, self.populations = [], []
        return taken


def invariant_problems(floquets, populations) -> list[str]:
    problems = []
    for op in floquets:
        defect = op.unitarity_defect()
        if not defect <= quantum.UNITARITY_TOL:
            problems.append(f"unitarity defect {defect:.2e} > {quantum.UNITARITY_TOL:.0e} (N={op.size})")
    for pops in populations:
        drift = float(np.abs(np.diff(pops.sum(axis=1))).max()) if len(pops) > 1 else 0.0
        if not drift <= quantum.TRACE_TOL:
            problems.append(f"per-kick trace drift {drift:.2e} > {quantum.TRACE_TOL:.0e}")
    return problems


def manifest_problems(outdir: Path, manifest) -> list[str]:
    problems = []
    on_disk = {p.name for p in outdir.iterdir()} - {"manifest.json"}
    if on_disk != set(manifest.files):
        problems.append(f"files {sorted(on_disk)} != manifest {sorted(manifest.files)}")
    for name, digest in manifest.files.items():
        path = outdir / name
        if path.is_file() and hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"{name}: sha256 does not match the manifest")
    if not (outdir / "manifest.json").is_file():
        problems.append("manifest.json missing")
    return problems


def close_rel(name: str, value: float, ref: float, rtol: float = RTOL) -> list[str]:
    if abs(value - ref) <= rtol * abs(ref) + 1e-14:
        return []
    return [f"{name} = {value!r}, reference {ref!r} (rtol {rtol:g})"]


def binomial_problems(name: str, value: float, n: int, ref: dict) -> list[str]:
    """Fraction from n trajectories against a pooled reference from ref['n']."""
    p = ref["value"]
    bound = Z * math.sqrt(p * (1.0 - p) * (1.0 / n + 1.0 / ref["n"]))
    if abs(value - p) <= bound:
        return []
    return [f"{name} = {value:.4f}, reference {p:.4f} +- {bound:.4f} ({Z:g} sigma, n={n})"]


def eta_key(eta) -> str:
    return f"{float(eta):g}"


def generate_config(scenario: str, seed: int, overrides: dict | None = None) -> str:
    """Default config (``cantori default-config``) with this scenario, seed and overrides."""
    cp = configparser.ConfigParser()
    cp.read_string(cli.DEFAULT_CONFIG)
    cp["run"]["scenario"] = scenario
    cp["run"]["output_dir"] = OUTPUT_DIR
    cp["params"]["rng_seed"] = str(seed)
    for (section, key), value in (overrides or {}).items():
        cp[section][key] = value
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def warm_up(params, layers: set[str]) -> None:
    """First calls into each layer a workload uses, at its basis size but tiny work."""
    train = params.pulse_train()
    if "classical" in layers:
        small = dataclasses.replace(params, n_trajectories=16)
        ens = classical.thermal_ensemble(small)
        for method in BACKENDS:
            rec = classical.evolve_ensemble(ens, small, train, n_kicks=1, method=method)
        analysis.transport_curve_classical(rec, BOUNDARY)
    if "quantum" in layers:
        rho0 = quantum.DensityMatrix.thermal(params.basis_size, params.scaled_planck, params.init_momentum_sigma)
        op = quantum.build_floquet(params.basis_size, params.kick_strength, params.scaled_planck, train)
        rec = quantum.evolve_density(rho0, op, 0.02, 1, (1,))
        analysis.transport_curve_quantum(rec, params.scaled_planck, BOUNDARY)
        wigner.negativity_volume(wigner.toroidal_wigner(rec.checkpoints[1], params.scaled_planck))


class Workload:
    """A named set of generated inputs; why each exists is recorded in BENCHMARK.json."""

    name = ""
    uses: set[str] = set()      # layers the warm-up calls into

    def __init__(self, seed: int, refs: dict):
        self.refs = refs

    def warm_up(self) -> None:
        warm_up(self.params, self.uses)

    def run_pass(self, stamp: str, capture: QuantumCapture) -> list[Op]:
        raise NotImplementedError


class CliWorkload(Workload):
    """Scenarios run through ``cli.run_scenario`` on generated configs."""

    overrides: dict = {}
    scenarios: tuple[str, ...] = ()

    def __init__(self, seed: int, refs: dict):
        super().__init__(seed, refs)
        self.configs = {
            sc: cli.parse_config(generate_config(sc, seed, self.overrides)) for sc in self.scenarios
        }
        self.params = self.configs[self.scenarios[0]].params

    def run_pass(self, stamp: str, capture: QuantumCapture) -> list[Op]:
        ops = []
        for scenario, cfg in self.configs.items():
            capture.take()      # drop what a scenario that raised left behind
            ops.append(attempt(
                f"run_scenario.{scenario}",
                lambda: (cli.run_scenario(cfg, stamp=stamp), *capture.take()),
                functools.partial(self._check_run, cfg),
            ))
        return ops

    def _check_run(self, cfg, result) -> list[str]:
        (outdir, manifest), floquets, populations = result
        problems = manifest_problems(outdir, manifest) + invariant_problems(floquets, populations)
        return problems + getattr(self, f"_check_{cfg.scenario}")(cfg, outdir)

    def _check_transport(self, cfg, outdir: Path) -> list[str]:
        p = cfg.params
        classical_frac, quantum_frac = read_transport(cfg, outdir)
        problems = binomial_problems(
            f"classical fraction outside at kick {KICK}", classical_frac, p.n_trajectories,
            self.refs["classical_fraction_outside"],
        )
        refs = self.refs["quantum_fraction_outside"][str(p.basis_size)]
        for eta, frac in quantum_frac.items():
            problems += close_rel(f"quantum fraction outside at kick {KICK}, eta={eta}", frac, refs[eta])
        return problems

    def _check_flux(self, cfg, outdir: Path) -> list[str]:
        flux, stderr = read_flux(outdir)
        ref = self.refs["flux"]
        bound = Z * math.hypot(stderr, ref["stderr"])
        if abs(flux - ref["value"]) <= bound:
            return []
        return [f"flux {flux:.4f}, reference {ref['value']:.4f} +- {bound:.4f} ({Z:g} sigma of the reported stderr)"]

    def _check_poincare(self, cfg, outdir: Path) -> list[str]:
        pts = np.loadtxt(outdir / "poincare.dat")
        n_points = int(cfg.extra["n_seeds"]) * (int(cfg.extra["n_kicks"]) + 1)
        if pts.shape != (n_points, 2) or not np.all(np.isfinite(pts)):
            return [f"poincare.dat has shape {pts.shape}, expected ({n_points}, 2), all finite"]
        if not np.all((pts[:, 0] >= 0.0) & (pts[:, 0] < 2.0 * np.pi)):
            return ["poincare.dat: phi outside [0, 2 pi)"]
        outside = poincare_outside(pts)
        ref = self.refs["poincare_fraction_outside"]
        if abs(outside - ref) <= POINCARE_TOL:
            return []
        return [f"poincare fraction of points outside 10 pi = {outside:.4f}, reference {ref:.4f} +- {POINCARE_TOL}"]

    def _check_wigner(self, cfg, outdir: Path) -> list[str]:
        refs = self.refs["negativity"][str(cfg.params.basis_size)]
        volumes = read_negativity(outdir)
        expected = {eta_key(e) for e in cfg.extra["eta_values"].split()}
        if set(volumes) != expected:
            return [f"negativity.dat covers eta {sorted(volumes)}, expected {sorted(expected)}"]
        problems = []
        for eta, volume in volumes.items():
            problems += close_rel(f"negativity volume at kick {KICK}, eta={eta}", volume, refs[eta])
        return problems

    def _check_waterfall(self, cfg, outdir: Path) -> list[str]:
        total, energy = read_waterfall(outdir)
        problems = [] if abs(total - 1.0) <= 1e-8 else [f"waterfall: final populations sum to {total!r}"]
        ref = self.refs["waterfall_energy"][str(cfg.params.basis_size)]
        return problems + close_rel("waterfall final kinetic energy", energy, ref)


def read_transport(cfg, outdir: Path) -> tuple[float, dict[str, float]]:
    """Classical and per-eta quantum fraction outside at kick KICK."""
    kicks, frac = np.loadtxt(outdir / "classical.dat", unpack=True)
    classical_frac = float(frac[kicks == KICK][0])
    quantum_frac = {}
    for eta in cfg.extra["eta_values"].split():
        kicks, frac = np.loadtxt(outdir / f"quantum_eta_{eta_key(eta)}.dat", unpack=True)
        quantum_frac[eta_key(eta)] = float(frac[kicks == KICK][0])
    return classical_frac, quantum_frac


def read_flux(outdir: Path) -> tuple[float, float]:
    rows = dict(
        line.split()[:2] for line in (outdir / "flux.dat").read_text().splitlines()
        if line and not line.startswith(("#", "sample"))
    )
    return float(rows["flux"]), float(rows["stderr"])


def poincare_outside(points: np.ndarray) -> float:
    return float(np.mean(np.abs(points[:, 1]) > BOUNDARY))


def read_negativity(outdir: Path) -> dict[str, float]:
    """eta -> negativity volume (the workloads checkpoint at kick KICK only)."""
    volumes = {}
    for line in (outdir / "negativity.dat").read_text().splitlines():
        if not line.startswith("#"):
            eta, _, volume, _ = line.split()
            volumes[eta_key(eta)] = float(volume)
    return volumes


def read_waterfall(outdir: Path) -> tuple[float, float]:
    """(total population, kinetic energy) at the last kick."""
    data = np.loadtxt(outdir / "waterfall.dat")
    last = data[data[:, 0] == data[:, 0].max()]
    energy = np.sum(last[:, 2] * 0.5 * (last[:, 1] * np.pi) ** 2)
    return float(last[:, 2].sum()), float(energy)


class PaperDefaults(CliWorkload):
    """Every scenario at ``cantori default-config`` values: what a user runs to reproduce the paper."""

    name = "paper-defaults"
    uses = {"classical", "quantum"}
    scenarios = SCENARIOS


class DecoherenceN512(CliWorkload):
    """The wigner scenario at N=512 over the paper's eta sweep; no classical work."""

    name = "decoherence-N512"
    uses = {"quantum"}
    scenarios = ("wigner",)
    overrides = {
        ("params", "basis_size"): "512",
        ("wigner", "eta_values"): N512_ETAS,
        ("wigner", "checkpoint_kicks"): str(KICK),
    }


class BackendCrosscheck(Workload):
    """Library-API run: one thermal ensemble evolved with both pendulum backends."""

    name = "backend-crosscheck"
    uses = {"classical"}

    def __init__(self, seed: int, refs: dict):
        super().__init__(seed, refs)
        self.params = SimParams(
            kick_strength=270.0, scaled_planck=2.6, n_kicks=KICK,
            n_trajectories=CROSSCHECK_TRAJECTORIES, rng_seed=seed,
        )
        self.train = self.params.pulse_train()

    def run_pass(self, stamp: str, capture: QuantumCapture) -> list[Op]:
        ensemble = classical.thermal_ensemble(self.params)
        results = {}
        ops = []
        for method in BACKENDS:
            def evolve(method=method):
                rec = classical.evolve_ensemble(ensemble, self.params, self.train, method=method)
                results[method] = (rec, analysis.transport_curve_classical(rec, BOUNDARY))
                return results[method]
            ops.append(attempt(f"evolve_ensemble.{method}", evolve, functools.partial(self._check_curve, method, results)))
        ops.append(Op("pendulum_segment.single_cycle", functools.partial(self._check_single_cycle, results)))
        return ops

    def _check_curve(self, method: str, results: dict, result) -> list[str]:
        rec, curve = result
        n = self.params.n_trajectories
        problems = binomial_problems(
            f"{method} fraction outside at kick {KICK}", curve.fraction_outside[rec.kicks == KICK][0], n,
            self.refs["classical_fraction_outside"],
        )
        if method == "symplectic" and "elliptic" in results:
            # The two backends' trajectories decorrelate by chaotic divergence, so
            # the curves differ like two independent binomial estimates.
            gap = float(np.abs(curve.fraction_outside - results["elliptic"][1].fraction_outside).max())
            bound = Z * math.sqrt(0.5 / n)
            if gap > bound:
                problems.append(f"elliptic/symplectic transport gap {gap:.4f} > {bound:.4f} = {Z:g} sqrt(1/2n)")
        return problems

    def _check_single_cycle(self, results: dict) -> list[str]:
        """Driven segments from snapshots of the elliptic run, through both backends."""
        if "elliptic" not in results:
            return ["no elliptic record to start single-cycle segments from"]
        rec = results["elliptic"][0]
        k = self.params.kick_strength
        problems = []
        worst_gap = worst_energy = 0.0
        for kick in (0, KICK // 2, KICK - 1):
            phi, rho = rec.phi[kick], rec.rho[kick]
            e0 = 0.5 * rho**2 - k * np.cos(phi)
            for duration, driven in self.train.segments:
                if not driven:
                    continue
                out = {}
                for method in BACKENDS:
                    p1, r1 = classical.pendulum_segment(phi, rho, k, float(duration), method=method)
                    e1 = 0.5 * r1**2 - k * np.cos(p1)
                    worst_energy = max(worst_energy, float(np.max(np.abs(e1 - e0) / np.maximum(1.0, np.abs(e0)))))
                    out[method] = (p1, r1)
                dphi = np.abs(np.angle(np.exp(1j * (out["elliptic"][0] - out["symplectic"][0]))))
                drho = np.abs(out["elliptic"][1] - out["symplectic"][1])
                worst_gap = max(worst_gap, float(dphi.max()), float(drho.max()))
        if worst_energy > ENERGY_TOL:
            problems.append(f"per-segment relative energy error {worst_energy:.2e} > {ENERGY_TOL:.0e}")
        if worst_gap > AGREEMENT_TOL:
            problems.append(f"single-segment elliptic/symplectic gap {worst_gap:.2e} > {AGREEMENT_TOL:.0e}")
        return problems


WORKLOADS = {w.name: w for w in (PaperDefaults, DecoherenceN512, BackendCrosscheck)}
