"""Scenario runner: config parsing, named experiments, provenance manifest.

Configs are flat key-value INI text.  The [run] section names the scenario
and output root, [params] carries the SimParams fields, and an optional
section named after the scenario carries the options SCENARIOS lists for it.
An optional [physical] section derives kick_strength and scaled_planck from
laboratory parameters, overriding the [params] values.  One table, _SCHEMA,
names the parser of every key of every section: parse_config refuses any other
section or key and parses every written value of every section once, then the
chosen scenario's options take their fallbacks, all before anything runs.
Unreadable config text (not UTF-8, or not INI) is refused like a bad value.
A [physical] section whose Rabi frequency exceeds 10% of the smallest detuning
is used, with one "warning: [physical] ..." line on stderr once the whole
config has passed its checks; a refused config prints only its error line.
A quantum scenario whose population reached the momentum-ladder edge by more
than quantum.EDGE_TOL at any eta, where the periodic wrap is unphysical, ends
with one "warning: [params] basis_size = N: ..." line on stderr once its
files are written; the run still exits 0.

A scenario computes and writes nothing: it is a generator of its RunConfig
that yields one (name, templates, data, header) table per output file.
run_scenario alone writes: config.ini, then each table through _write_rows,
which refuses a table holding a NaN or an infinity before writing any of it.

All outputs of one run land in a single directory named by timestamp plus a
digest of the canonical config; a manifest.json listing every output file
with its SHA-256 digest is written last, beside the run's wall-clock time
and the environment the bytes depend on (see _environment).  The run writes
into a temporary sibling directory that takes the final name only once the
manifest is written, so a failed run leaves nothing behind.  Data files
contain no timestamps, so identical config + seed reproduce byte-identical
data on the same NumPy/BLAS build at the same BLAS thread setting.  Across
thread settings the BLAS products sum in another order: at N = 512 the
Wigner grid values agree to about 1e-15 absolute, and a few of their
10-digit texts differ.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import platform
import shutil
import sys
import time
import uuid
import warnings
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import __version__
from .model import ParameterError, PhysicalParams, SimParams, physical_to_scaled
from . import analysis, classical, quantum, wigner

DEFAULT_CONFIG = """\
# Default run configuration (caesium double-pulse experiment values).
[run]
scenario = transport
output_dir = runs

[params]
kick_strength = 270
scaled_planck = 2.6
se_probability = 0.0187
pulse_width = 1/20
pulse_spacing = 1/10
basis_size = 128
n_kicks = 70
n_trajectories = 10000
rng_seed = 20020
init_momentum_sigma = 10.0
kick_spread_rms = 0.0

[transport]
eta_values = 0 0.0187 0.0503
boundary_over_pi = 10

[waterfall]
n_kicks = 50

[poincare]
n_seeds = 60
n_kicks = 300
rho_max_over_pi = 16

[wigner]
eta_values = 0 0.02
checkpoint_kicks = 70

[flux]
boundary_over_pi = 10
n_seeds = 100000
n_replicates = 8
"""


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


class Option(NamedTuple):
    parse: Callable[[str], object]
    fallback: str       # text taken when the option is absent or empty; "{n_kicks}" names a SimParams field


class Scenario(NamedTuple):
    run: Callable[[RunConfig], Iterator[tuple]]     # yields (name, templates, data, header) per file
    description: str
    options: dict[str, Option]


@dataclass
class RunConfig:
    scenario: str
    output_dir: str
    params: SimParams
    extra: dict         # scenario-section options, as written; canonical() reads only their keys
    options: dict       # every option of the scenario, parsed, fallbacks taken

    def canonical(self) -> str:
        """Normalized key=value text; equal configs give equal text.  The
        scenario options written in the config are written from their parsed
        values (see _text), so 050, +50 and 50 give one text."""
        lines = [f"scenario={self.scenario}", f"output_dir={self.output_dir}"]
        lines += [f"params.{f.name}={getattr(self.params, f.name)}" for f in fields(SimParams)]
        lines += [f"{self.scenario}.{key}={_text(self.options[key])}" for key in sorted(self.extra)]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


@dataclass
class RunManifest:
    config_canonical: str
    version: str
    wall_clock_s: float
    environment: dict
    files: dict[str, str]            # relative path -> sha256

    def write(self, path: Path) -> None:
        payload = {
            "config": self.config_canonical,
            "version": self.version,
            "wall_clock_s": self.wall_clock_s,
            "environment": self.environment,
            "files": dict(sorted(self.files.items())),
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")


def _environment() -> dict:
    """What the output bytes depend on beyond the config: the Python, NumPy and BLAS builds,
    the cores this process may use and the *_NUM_THREADS variables as set."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _text(value) -> str:
    """An option value as canonical text: each int or float of it by its shortest
    round-trip repr less a trailing ".0", a tuple's space-joined."""
    return " ".join(repr(v).removesuffix(".0") for v in (value if isinstance(value, tuple) else (value,)))


def _parse(where: str, parse: Callable[[str], object], text: str):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where} = {text}: {exc}") from None


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value + 0.0      # -0.0 becomes 0.0, so both spellings give one value and one text


def _floats(text: str) -> tuple[float, ...]:
    return tuple(_finite(x) for x in text.replace(",", " ").split())


def _etas(text: str) -> tuple[float, ...]:
    etas = _floats(text)
    if not etas:
        raise ValueError("need one or more eta values")
    for e in etas:
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"eta value {e} outside [0, 1]")
    # Output files are named by the %g text of their eta.
    tags = [f"{e:g}" for e in etas]
    if len(set(tags)) < len(tags):
        raise ValueError(f"eta values must differ in their %g file-name text, got {' '.join(tags)}")
    return etas


# The most elements one float64 array can hold: no larger count could ever be allocated.
_MAX_COUNT = np.iinfo(np.intp).max // 8


def _count(text: str) -> int:
    if (n := int(text)) > _MAX_COUNT:
        raise ValueError(f"larger than {_MAX_COUNT}, the most elements one float64 array can hold")
    return n


def _positive_int(text: str) -> int:
    n = _count(text)
    if n < 1:
        raise ValueError("must be a positive integer")
    return n


def _nonnegative_int(text: str) -> int:
    n = _count(text)
    if n < 0:
        raise ValueError("must be an integer >= 0")
    return n


def _kicks(text: str) -> tuple[int, ...]:
    kicks = tuple(_nonnegative_int(x) for x in text.replace(",", " ").split())
    if not kicks:
        raise ValueError("need one or more kick numbers")
    if len(set(kicks)) < len(kicks):
        raise ValueError("kick numbers repeat")
    return kicks


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    written = {}        # section -> key -> parsed value; an empty scenario option is left to its fallback
    try:
        cp.read_string(text)
        for section in cp.sections():
            parsers = _SCHEMA.get(section)
            if parsers is None:
                raise ConfigError(f"unknown section [{section}]; known: {', '.join(_SCHEMA)}")
            unknown = [key for key in cp[section] if key not in parsers]
            if unknown:
                raise ConfigError(f"[{section}] unknown key {unknown[0]!r}; known: {', '.join(parsers)}")
            written[section] = {key: _parse(f"[{section}] {key}", parsers[key], value)
                                for key, value in cp[section].items() if value or section not in SCENARIOS}
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    if "run" not in written:
        raise ConfigError("missing [run] section")
    scenario = written["run"].get("scenario", "")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; known: {', '.join(sorted(SCENARIOS))}")
    output_dir = written["run"].get("output_dir", "runs")

    values = written.get("params", {})
    caught = []         # [physical] warnings, printed only once every check has passed
    if "physical" in written:
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                physical = PhysicalParams(**written["physical"])
        except (TypeError, ParameterError) as exc:
            raise ConfigError(f"[physical]: {exc}") from None
        values.update(zip(("kick_strength", "scaled_planck"), physical_to_scaled(physical)))
    try:
        params = SimParams(**values)
    except ParameterError as exc:
        raise ConfigError(f"[params]: {exc}") from None

    edge = params.basis_size / 2 * params.scaled_planck
    with np.errstate(over="ignore"):
        if not np.isfinite(np.float64(edge) ** 2):
            raise ConfigError(f"[params] (basis_size/2 * scaled_planck)^2 is not finite: edge momentum {edge:g}")
    try:
        quantum.thermal_weights(params.basis_size, params.scaled_planck, params.init_momentum_sigma)
    except ParameterError as exc:
        raise ConfigError(f"[params] {exc}") from None
    except (MemoryError, ValueError):
        # np.arange sizes the ladder in float64, so near _MAX_COUNT it raises ValueError before allocating.
        raise ConfigError(f"[params] basis_size = {params.basis_size}: its momentum ladder cannot be allocated") from None

    chosen = written.get(scenario, {})
    options = {name: chosen[name] if name in chosen else spec.parse(spec.fallback.format_map(vars(params)))
               for name, spec in SCENARIOS[scenario].options.items()}
    # Beyond the last ladder site the quantum fraction outside reads 0 by construction, and
    # below 0 every momentum is outside.
    if scenario == "transport" and not 0 <= options["boundary_over_pi"] * np.pi < edge:
        raise ConfigError(f"[transport] boundary_over_pi: boundary outside [0, ladder edge {edge:.6g})")
    # The run's largest array holds (kicks + 1) rows of a record: the populations over the ladder,
    # or a Poincare section's phi and rho over the seeds; flux keeps none.
    kicks = max(options.get("checkpoint_kicks", [options.get("n_kicks", params.n_kicks)]))
    width = {"poincare": 2 * options.get("n_seeds", 0), "flux": 0}.get(scenario, params.basis_size)
    if (kicks + 1) * width > _MAX_COUNT:
        raise ConfigError(f"[{scenario}] {kicks} kicks: the run's {kicks + 1} x {width} record is larger "
                          f"than {_MAX_COUNT} elements, the most one float64 array can hold")
    for w in caught:        # one stderr line each, naming the section
        print(f"warning: [physical] {w.message}", file=sys.stderr)
    return RunConfig(scenario, output_dir, params, dict(cp[scenario]) if scenario in cp else {}, options)


# Rows that _write_rows formats with one % operation: large enough to amortise
# the per-call cost, small enough to keep the formatted text a few MB.
_SAVETXT_ROWS = 16384


def _write_text(outdir: Path, name: str, text, files: dict) -> None:
    """Write text (a string or an iterable of strings) as UTF-8 and record its SHA-256."""
    digest = hashlib.sha256()
    with open(outdir / name, "wb") as fh:
        for part in [text] if isinstance(text, str) else text:
            data = part.encode()
            digest.update(data)
            fh.write(data)
    files[name] = digest.hexdigest()


def _templates(blocks: list[str], block_rows: int) -> list[tuple[int, str]]:
    """(row count, % template) per chunk of whole blocks, about _SAVETXT_ROWS rows each.

    Each block holds block_rows rows, every row preceded by "\n", and may open
    with one more "\n" for a blank line; the template puts the newline before
    each row at the end of the row instead.
    """
    step = max(1, _SAVETXT_ROWS // block_rows)
    chunks = (blocks[s:s + step] for s in range(0, len(blocks), step))
    return [(block_rows * len(chunk), "".join(chunk)[1:] + "\n") for chunk in chunks]


def _table(*columns) -> tuple[list[tuple[int, str]], np.ndarray]:
    """(templates, data) of the bytes np.savetxt(np.column_stack(columns), fmt="%.10g") writes."""
    data = np.column_stack(columns)
    return _templates(["\n" + " ".join(["%.10g"] * data.shape[1])] * len(data), 1), data


def _write_rows(outdir: Path, name: str, templates: list[tuple[int, str]], data, header: str, files: dict) -> None:
    """Write "# "-prefixed header lines, then each template % its own row count of the next rows of data.

    Data holding a NaN or an infinity is refused with NumericalDomainError before anything is written.
    """
    data = np.asarray(data)
    if not np.isfinite(data).all():
        raise classical.NumericalDomainError(f"{name}: non-finite values in the data")

    def parts():
        if header:
            yield "# " + header.replace("\n", "\n# ") + "\n"
        start = 0
        for rows, template in templates:
            yield template % tuple(data[start:start + rows].ravel().tolist())
            start += rows

    _write_text(outdir, name, parts(), files)


def _quantum_start(p: SimParams) -> tuple[quantum.DensityMatrix, quantum.FloquetOperator]:
    """The thermal initial state and the one-cycle Floquet operator of every quantum scenario."""
    rho0 = quantum.DensityMatrix.thermal(p.basis_size, p.scaled_planck, p.init_momentum_sigma)
    return rho0, quantum.build_floquet(p.basis_size, p.kick_strength, p.scaled_planck, p.pulse_train())


def _warn_edge(p: SimParams, edge_max: float) -> None:
    """One stderr line when a quantum run's largest ladder-edge population exceeds quantum.EDGE_TOL."""
    if edge_max > quantum.EDGE_TOL:
        print(f"warning: [params] basis_size = {p.basis_size}: a population of {edge_max:.3g} reached the "
              f"momentum-ladder edge, above {quantum.EDGE_TOL:g}; the periodic wrap there is unphysical",
              file=sys.stderr)


def _scenario_transport(cfg: RunConfig):
    p = cfg.params
    boundary = cfg.options["boundary_over_pi"] * np.pi

    counts = classical.transport_counts(p, boundary)
    yield ("classical.dat", *_table(np.arange(p.n_kicks + 1), counts / p.n_trajectories),
           f"classical fraction outside |rho|={boundary:.6g}, k={p.kick_strength}\nkick fraction_outside")

    rho0, floquet = _quantum_start(p)
    index, edge_max = "classical classical.dat\n", 0.0
    for eta in cfg.options["eta_values"]:
        qrec = quantum.evolve_density(rho0, floquet, eta, p.n_kicks)
        edge_max = max(edge_max, qrec.edge_population_max)
        qcurve = analysis.transport_curve_quantum(qrec, p.scaled_planck, boundary)
        name = f"quantum_eta_{eta:g}.dat"
        yield (name, *_table(qcurve.kicks, qcurve.fraction_outside),
               f"quantum fraction outside |rho|={boundary:.6g}, k={p.kick_strength}, eta={eta:g}\n"
               "kick fraction_outside")
        index += f"{eta:g} {name}\n"
    yield "index.dat", [(0, index)], (), "eta file"
    _warn_edge(p, edge_max)


def _scenario_waterfall(cfg: RunConfig):
    p = cfg.params
    rho0, floquet = _quantum_start(p)
    rec = quantum.evolve_density(rho0, floquet, p.se_probability, cfg.options["n_kicks"])
    # One block of N rows per kick, after a blank line from the second kick on.
    xs = ["%.10g" % v for v in (quantum.momentum_ladder(p.basis_size) * p.scaled_planck / np.pi).tolist()]
    column = "".join(f"\n {x} %.10g" for x in xs)
    blocks = [("\n" if kick else "") + column.replace("\n", f"\n{kick}") for kick in rec.kicks.tolist()]
    yield ("waterfall.dat", _templates(blocks, len(xs)), rec.populations.ravel(),
           f"momentum distributions, k={p.kick_strength}, eta={p.se_probability:g}\n"
           "kick rho_over_pi population  (blank line between kicks)")
    _warn_edge(p, rec.edge_population_max)


def _scenario_poincare(cfg: RunConfig):
    p = cfg.params
    n_seeds, n_kicks = cfg.options["n_seeds"], cfg.options["n_kicks"]
    rho_max = cfg.options["rho_max_over_pi"] * np.pi
    rho_seed = np.linspace(-rho_max, rho_max, n_seeds)
    seeds = classical.ClassicalEnsemble(np.full(n_seeds, np.pi), rho_seed)
    rec = classical.evolve_ensemble(seeds, p, n_kicks=n_kicks, method="elliptic")
    yield ("poincare.dat", *_table(rec.phi.ravel(), rec.rho.ravel()),
           f"Poincare section, k={p.kick_strength}, {n_seeds} seeds x {n_kicks} kicks\nphi rho")


def _scenario_wigner(cfg: RunConfig):
    p = cfg.params
    checkpoints = cfg.options["checkpoint_kicks"]
    rho0, floquet = _quantum_start(p)
    # The X and P columns repeat in every grid: format them once, X-major as np.meshgrid(..., indexing="ij"),
    # one block of N rows per X.
    xs, ps = (["%.10g" % v for v in axis.tolist()] for axis in wigner.coarse_axes(p.basis_size, p.scaled_planck))
    column = "".join(f"\n {q} %.10g" for q in ps)
    templates = _templates([column.replace("\n", "\n" + x) for x in xs], len(ps))
    summary, negativities, edge_max = "", [], 0.0
    for eta in cfg.options["eta_values"]:
        rec = quantum.evolve_density(rho0, floquet, eta, max(checkpoints), checkpoints)
        edge_max = max(edge_max, rec.edge_population_max)
        for kick in checkpoints:
            coarse = wigner.coarse_wigner(rec.checkpoints[kick], p.scaled_planck)
            name = f"wigner_eta_{eta:g}_kick_{kick}.dat"
            yield (name, templates, coarse.T.ravel(),
                   f"coarse toroidal Wigner function, k={p.kick_strength}, eta={eta:g}, kick={kick}\nX P w")
            negativities.append(wigner.coarse_negativity(coarse, p.scaled_planck))
            summary += f"{eta:g} {kick} %.10g {name}\n"
    yield "negativity.dat", [(len(negativities), summary)], negativities, "eta kick negativity_volume file"
    _warn_edge(p, edge_max)


def _scenario_flux(cfg: RunConfig):
    p = cfg.params
    boundary = cfg.options["boundary_over_pi"] * np.pi
    est = classical.cantorus_flux(p, boundary, n_seeds=cfg.options["n_seeds"], n_replicates=cfg.options["n_replicates"])
    template = ("flux %.10g\nstderr %.10g\nflux_over_hbar_k %.10g\nn_crossings %d\n"
                "# per-replicate samples (out, in alternating)\n" + "sample %.10g\n" * len(est.samples))
    yield ("flux.dat", [(4 + len(est.samples), template)],
           [est.flux, est.stderr, est.flux / p.scaled_planck, est.n_crossings, *est.samples],
           f"phase-space flux through |rho|={boundary:.6g} per kick cycle, k={p.kick_strength}")


SCENARIOS = {
    "transport": Scenario(
        _scenario_transport,
        "fraction outside the KAM boundary vs kick number, classical + quantum eta sweep",
        {"eta_values": Option(_etas, "{se_probability}"), "boundary_over_pi": Option(_finite, "10")},
    ),
    "waterfall": Scenario(
        _scenario_waterfall,
        "per-kick quantum momentum distributions",
        {"n_kicks": Option(_nonnegative_int, "{n_kicks}")},
    ),
    "poincare": Scenario(
        _scenario_poincare,
        "stroboscopic phase-space section of the classical map",
        {"n_seeds": Option(_positive_int, "60"), "n_kicks": Option(_nonnegative_int, "300"),
         "rho_max_over_pi": Option(_finite, "16")},
    ),
    "wigner": Scenario(
        _scenario_wigner,
        "coarse-grained toroidal Wigner snapshots and negativity, per eta",
        {"eta_values": Option(_etas, "{se_probability}"), "checkpoint_kicks": Option(_kicks, "{n_kicks}")},
    ),
    "flux": Scenario(
        _scenario_flux,
        "classical phase-space flux through the KAM boundary",
        {"boundary_over_pi": Option(_finite, "10"), "n_seeds": Option(_positive_int, "100000"),
         "n_replicates": Option(_positive_int, "8")},
    ),
}


# Parsers keyed by the annotation text of the SimParams and PhysicalParams fields; every int field
# but the seed is a count.
_FIELD_PARSERS = {"float": _finite, "int": _count, "Fraction": Fraction, "tuple[float, float, float]": _floats}

# Section -> key -> parser: the keys parse_config accepts, and how it parses each written value.
_SCHEMA = {
    "run": {"scenario": str, "output_dir": str},
    **{section: {f.name: int if f.name == "rng_seed" else _FIELD_PARSERS[f.type] for f in fields(cls)}
       for section, cls in (("params", SimParams), ("physical", PhysicalParams))},
    **{name: {key: option.parse for key, option in sc.options.items()} for name, sc in SCENARIOS.items()},
}


def run_scenario(cfg: RunConfig, stamp: str | None = None) -> tuple[Path, RunManifest]:
    """Execute a scenario; returns (run directory, manifest).

    The run directory is {stamp}-{digest[:8]}.  If it already exists the run
    is refused with FileExistsError before anything is computed: a run never
    overwrites another.  Outputs go to a sibling {stamp}-{digest[:8]}.partial-*
    directory, renamed on success and removed on any failure.
    """
    t0 = time.monotonic()
    stamp = stamp or datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    outdir = Path(cfg.output_dir) / f"{stamp}-{cfg.digest()[:8]}"
    if outdir.exists():
        raise FileExistsError(f"run directory {outdir} already exists")
    partial = outdir.with_name(f"{outdir.name}.partial-{uuid.uuid4().hex[:12]}")
    partial.mkdir(parents=True)
    try:
        files: dict[str, str] = {}
        _write_text(partial, "config.ini", cfg.canonical(), files)
        for name, templates, data, header in SCENARIOS[cfg.scenario].run(cfg):
            _write_rows(partial, name, templates, data, header, files)
            del data        # freed before the scenario computes its next table
        manifest = RunManifest(cfg.canonical(), __version__, time.monotonic() - t0, _environment(), files)
        manifest.write(partial / "manifest.json")
        partial.rename(outdir)
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    return outdir, manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cantori", description="Driven-rotor cantori transport simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (("run", "execute a scenario from a config file"),
                          ("validate", "check a config file without computing")):
        sub.add_parser(command, help=text).add_argument("config", type=Path)
    sub.add_parser("list-scenarios", help="list known scenarios")
    sub.add_parser("default-config", help="print the default configuration")
    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name, sc in sorted(SCENARIOS.items()):
            print(f"{name:10s} {sc.description}\n{'':10s} options: {' '.join(sc.options)}")
        return 0
    if args.command == "default-config":
        print(DEFAULT_CONFIG, end="")
        return 0

    try:
        cfg = parse_config(args.config.read_text(encoding="utf-8"))
        if args.command == "validate":
            print(f"ok: scenario={cfg.scenario} digest={cfg.digest()[:12]}")
            return 0
        # A named check refuses every non-finite value (FloquetOperator, the classical
        # runner, the writer), so NumPy's warnings would only repeat the error line.
        with np.errstate(all="ignore"):
            outdir, manifest = run_scenario(cfg)
    except (ConfigError, ParameterError, UnicodeDecodeError) as exc:
        # One line: configparser's messages and multi-line values hold newlines.
        print(f"error: invalid config: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2
    except (classical.NumericalDomainError, classical.StatisticsError, MemoryError) as exc:
        # A bare MemoryError has no message.
        print(f"error: compute failed in scenario {cfg.scenario}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {len(manifest.files)} files to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
