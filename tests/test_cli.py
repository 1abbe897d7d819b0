"""Tests for config parsing, the scenario runner, and the console entry point."""

import configparser
import hashlib
import io
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from datetime import datetime
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantori import cli, quantum, wigner
from cantori.cli import (
    DEFAULT_CONFIG,
    SCENARIOS,
    ConfigError,
    main,
    parse_config,
    run_scenario,
)
from cantori.classical import FluxEstimate
from cantori.model import SimParams

TINY = """\
[run]
scenario = transport
output_dir = {out}

[params]
kick_strength = 30
scaled_planck = 2.6
basis_size = 16
n_kicks = 3
n_trajectories = 50
rng_seed = 7
init_momentum_sigma = 5.0

[transport]
eta_values = 0 0.2
boundary_over_pi = 4
"""


class TestParse:
    def test_default_config_parses(self):
        cfg = parse_config(DEFAULT_CONFIG)
        assert cfg.scenario == "transport"
        assert cfg.params.kick_strength == 270.0
        assert cfg.params.scaled_planck == 2.6
        assert cfg.params.pulse_width == Fraction(1, 20)
        assert cfg.params.pulse_spacing == Fraction(1, 10)
        assert cfg.extra["eta_values"].split() == ["0", "0.0187", "0.0503"]

    def test_digest_is_stable_and_sensitive(self):
        a = parse_config(DEFAULT_CONFIG)
        b = parse_config(DEFAULT_CONFIG)
        assert a.digest() == b.digest()
        c = parse_config(DEFAULT_CONFIG.replace("kick_strength = 270", "kick_strength = 271"))
        assert c.digest() != a.digest()

    def test_missing_run_section(self):
        with pytest.raises(ConfigError):
            parse_config("[params]\nkick_strength = 1\n")

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\nscenario = frobnicate\n")

    def test_bad_fraction(self):
        bad = DEFAULT_CONFIG.replace("pulse_width = 1/20", "pulse_width = 1/0")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_bad_param_value(self):
        bad = DEFAULT_CONFIG.replace("n_kicks = 70", "n_kicks = seventy")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_invalid_schedule_rejected(self):
        bad = DEFAULT_CONFIG.replace("pulse_spacing = 1/10", "pulse_spacing = 19/20")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_physical_section_overrides_scaled(self):
        from cantori.model import PhysicalParams, physical_to_scaled

        text = DEFAULT_CONFIG + (
            "\n[physical]\n"
            "rabi_frequency = 1.7e9\n"
            "detunings = 1.76e10 1.92e10 2.04e10\n"
            "wave_number = 7.37e6\n"
            "atom_mass = 2.2069e-25\n"
            "pulse_period = 2.5e-5\n"
        )
        cfg = parse_config(text)
        expected = physical_to_scaled(
            PhysicalParams(1.7e9, (1.76e10, 1.92e10, 2.04e10), 7.37e6, 2.2069e-25, 2.5e-5)
        )
        assert cfg.params.kick_strength == pytest.approx(expected[0])
        assert cfg.params.scaled_planck == pytest.approx(expected[1])

    def test_default_config_lists_every_option(self):
        """The example config and the option schema cannot drift apart."""
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
        cp.read_string(DEFAULT_CONFIG)
        assert set(cp.sections()) == {"run", "params", *SCENARIOS}
        assert set(cp["params"]) == {f.name for f in fields(SimParams)}
        for name, scenario in SCENARIOS.items():
            assert set(cp[name]) == set(scenario.options), name

    def test_run_only_config_takes_simparams_defaults(self):
        """Every [params] fallback is a SimParams field default."""
        assert parse_config("[run]\nscenario = transport\n").params == SimParams()

    def test_options_parsed(self):
        cfg = parse_config(DEFAULT_CONFIG)
        assert cfg.options == {"eta_values": (0.0, 0.0187, 0.0503), "boundary_over_pi": 10.0}
        cfg = parse_config(DEFAULT_CONFIG.replace("scenario = transport", "scenario = wigner"))
        assert cfg.options == {"eta_values": (0.0, 0.02), "checkpoint_kicks": (70,)}

    @pytest.mark.parametrize(
        "scenario,line,name,expected",
        [
            ("transport", "eta_values = 0 0.0187 0.0503", "eta_values", (0.0187,)),
            ("waterfall", "n_kicks = 50", "n_kicks", 70),
            ("wigner", "checkpoint_kicks = 70", "checkpoint_kicks", (70,)),
            ("flux", "n_replicates = 8", "n_replicates", 8),
        ],
    )
    def test_empty_option_takes_fallback(self, scenario, line, name, expected):
        text = DEFAULT_CONFIG.replace("scenario = transport", f"scenario = {scenario}")
        cfg = parse_config(text.replace(line, line.split("=")[0] + "="))
        assert cfg.extra[name] == ""
        assert cfg.options[name] == expected

    @pytest.mark.parametrize(
        "basis_size,boundary_over_pi,ok",
        [(16, "6.6", True), (16, "6.7", False), (8, "10", False), (16, "-1", False), (16, "0", True)]
    )
    def test_transport_boundary_inside_ladder(self, basis_size, boundary_over_pi, ok):
        """The ladder ends at (basis_size/2)*scaled_planck: 20.8 at N = 16, 10.4 at N = 8; a transport
        boundary must lie in [0, edge)."""
        text = DEFAULT_CONFIG.replace("basis_size = 128", f"basis_size = {basis_size}")
        # The first boundary_over_pi is the [transport] one.
        text = text.replace("boundary_over_pi = 10", f"boundary_over_pi = {boundary_over_pi}", 1)
        if ok:
            assert parse_config(text).options["boundary_over_pi"] == float(boundary_over_pi)
        else:
            with pytest.raises(ConfigError, match="ladder"):
                parse_config(text)
        # flux is classical: the ladder does not bound its boundary.
        parse_config(text.replace("scenario = transport", "scenario = flux"))


class TestRunScenario:
    def test_transport_outputs_and_manifest(self, tmp_path):
        cfg = parse_config(TINY.format(out=tmp_path / "runs"))
        outdir, manifest = run_scenario(cfg, stamp="t0")
        assert outdir.name == f"t0-{cfg.digest()[:8]}"
        expected = {"config.ini", "classical.dat", "quantum_eta_0.dat", "quantum_eta_0.2.dat", "index.dat"}
        assert set(manifest.files) == expected
        for name, digest in manifest.files.items():
            assert hashlib.sha256((outdir / name).read_bytes()).hexdigest() == digest
        payload = json.loads((outdir / "manifest.json").read_text())
        assert payload["files"] == dict(sorted(manifest.files.items()))
        assert (outdir / "config.ini").read_text() == cfg.canonical()
        data = np.loadtxt(outdir / "quantum_eta_0.2.dat")
        assert data.shape == (4, 2)

    def test_transport_keeps_no_classical_record(self, tmp_path):
        """A transport run of DEFAULT_CONFIG (10,000 trajectories, 70 kicks) peaks under
        4 MiB of traced memory, where its (71, 10,000, 2) record alone took 10.8 MiB."""
        cfg = parse_config(DEFAULT_CONFIG.replace("output_dir = runs", f"output_dir = {tmp_path}"))
        # SciPy loads here, so that its import is not traced.
        cli.classical.pendulum_segment(np.zeros(1), np.ones(1), 1.0, 0.1, method="elliptic")
        tracemalloc.start()
        try:
            run_scenario(cfg, stamp="mem")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_flux_keeps_no_snapshot_record(self, tmp_path):
        """A flux run of DEFAULT_CONFIG (8 replicates of 100,000 seeds) peaks under 5 MiB of
        traced memory, where a (2, 100,000, 2) snapshot record of each replicate's one cycle would
        take 3.05 MiB."""
        text = DEFAULT_CONFIG.replace("output_dir = runs", f"output_dir = {tmp_path}")
        cfg = parse_config(text.replace("scenario = transport", "scenario = flux"))
        # SciPy loads here, so that its import is not traced.
        cli.classical.pendulum_segment(np.zeros(1), np.ones(1), 1.0, 0.1, method="elliptic")
        tracemalloc.start()
        try:
            run_scenario(cfg, stamp="mem")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20

    def test_negative_zero_eta_is_written_as_zero(self, tmp_path):
        """se_probability = -0 is the value 0: in the canonical config and in the waterfall header."""
        text = TINY.format(out=tmp_path / "runs").replace("scenario = transport", "scenario = waterfall")
        cfg = parse_config(text.replace("init_momentum_sigma", "se_probability = -0\ninit_momentum_sigma"))
        assert "params.se_probability=0.0\n" in cfg.canonical()
        outdir, _ = run_scenario(cfg)
        assert (outdir / "waterfall.dat").read_text().splitlines()[0].endswith(", eta=0")

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch):
        """manifest.json holds, beside wall_clock_s, the builds, cores and *_NUM_THREADS the bytes depend on."""
        monkeypatch.setenv("MKL_NUM_THREADS", "1")
        outdir, _ = run_scenario(parse_config(TINY.format(out=tmp_path)), stamp="env")
        env = json.loads((outdir / "manifest.json").read_text())["environment"]
        assert set(env) == {"python", "numpy", "blas", "blas_version", "usable_cores", "thread_env"}
        assert env["numpy"] == np.__version__ and env["usable_cores"] >= 1
        assert env["thread_env"]["MKL_NUM_THREADS"] == "1"

    def test_wigner_without_negative_cells_writes_zero(self, tmp_path):
        """The thermal start has no negative cell: its negativity is written 0, not -0."""
        text = (f"[run]\nscenario = wigner\noutput_dir = {tmp_path}\n\n"
                "[params]\nbasis_size = 16\nn_kicks = 5\n\n[wigner]\neta_values = 0\ncheckpoint_kicks = 0 5\n")
        outdir, _ = run_scenario(parse_config(text))
        assert (outdir / "negativity.dat").read_text().splitlines()[1] == "0 0 0 wigner_eta_0_kick_0.dat"

    def test_determinism(self, tmp_path):
        cfg1 = parse_config(TINY.format(out=tmp_path / "a"))
        cfg2 = parse_config(TINY.format(out=tmp_path / "b"))
        out1, m1 = run_scenario(cfg1, stamp="s")
        out2, m2 = run_scenario(cfg2, stamp="s")
        for name in m1.files:
            if name == "config.ini":
                continue  # embeds output_dir, which differs by construction
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize(
        "scenario,extra",
        [
            ("waterfall", "[waterfall]\nn_kicks = 2\n"),
            ("poincare", "[poincare]\nn_seeds = 6\nn_kicks = 20\nrho_max_over_pi = 8\n"),
            ("wigner", "[wigner]\neta_values = 0 0.5\ncheckpoint_kicks = 2\n"),
            ("flux", "[flux]\nboundary_over_pi = 4\nn_seeds = 3000\nn_replicates = 2\n"),
        ],
    )
    def test_other_scenarios_run(self, tmp_path, scenario, extra):
        text = (
            f"[run]\nscenario = {scenario}\noutput_dir = {tmp_path}\n\n"
            "[params]\nkick_strength = 30\nscaled_planck = 2.6\nbasis_size = 16\n"
            "n_kicks = 2\nn_trajectories = 40\nrng_seed = 3\n\n" + extra
        )
        cfg = parse_config(text)
        outdir, manifest = run_scenario(cfg, stamp="x")
        assert (outdir / "manifest.json").exists()
        assert len(manifest.files) >= 2

    def test_eta_out_of_range(self, tmp_path):
        text = TINY.format(out=tmp_path).replace("eta_values = 0 0.2", "eta_values = 0 1.5")
        with pytest.raises(ConfigError):
            run_scenario(parse_config(text), stamp="x")

    def test_existing_run_directory_is_refused(self, tmp_path, monkeypatch):
        """Same stamp and digest: refused before computing, the earlier run untouched."""
        cfg = parse_config(TINY.format(out=tmp_path))
        outdir, manifest = run_scenario(cfg, stamp="same")
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}

        def no_compute(*args):
            raise AssertionError("scenario ran although its directory exists")

        monkeypatch.setitem(SCENARIOS, "transport", SCENARIOS["transport"]._replace(run=no_compute))
        with pytest.raises(FileExistsError):
            run_scenario(cfg, stamp="same")
        assert sorted(p.name for p in tmp_path.iterdir()) == [outdir.name]
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before

    def test_failed_run_leaves_no_directory(self, tmp_path, monkeypatch):
        def fail(cfg):
            yield "partial.dat", *cli._table([1.0, 2.0]), "half"
            raise OSError("disk full")

        monkeypatch.setitem(SCENARIOS, "transport", SCENARIOS["transport"]._replace(run=fail))
        with pytest.raises(OSError, match="disk full"):
            run_scenario(parse_config(TINY.format(out=tmp_path / "runs")), stamp="f")
        assert list((tmp_path / "runs").iterdir()) == []


def waterfall_reference(p, rec) -> str:
    """waterfall.dat formatted row by row: a block of N rows per kick, a blank line between kicks."""
    n = quantum.momentum_ladder(p.basis_size)
    blocks = [
        "\n".join(f"{kick} {ni * p.scaled_planck / np.pi:.10g} {pi:.10g}" for ni, pi in zip(n, rec.populations[i]))
        for i, kick in enumerate(rec.kicks)
    ]
    return (f"# momentum distributions, k={p.kick_strength}, eta={p.se_probability:g}\n"
            "# kick rho_over_pi population  (blank line between kicks)\n" + "\n\n".join(blocks) + "\n")


class TestSavetxt:
    """cli._write_rows of a cli._table writes exactly the bytes of np.savetxt(..., comments="# ")."""

    @pytest.mark.parametrize("shape", [(7,), (7, 1), (7, 2), (5000, 3), (0, 3)])
    @pytest.mark.parametrize("header", ["", "one line", "first line\nX P w"])
    def test_matches_numpy(self, tmp_path, monkeypatch, shape, header):
        monkeypatch.setattr(cli, "_SAVETXT_ROWS", 1000)    # several chunks, the last one partial
        rng = np.random.default_rng(5)
        data = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        if data.size:
            data.flat[0] = -0.0
        files = {}
        cli._write_rows(tmp_path, "x.dat", *cli._table(data), header, files)
        buf = io.StringIO()
        np.savetxt(buf, data, header=header, comments="# ", fmt="%.10g")
        expected = buf.getvalue().encode()
        assert (tmp_path / "x.dat").read_bytes() == expected
        assert files["x.dat"] == hashlib.sha256(expected).hexdigest()

    @pytest.mark.parametrize("rows", [100, 8, cli._SAVETXT_ROWS], ids=["partial-chunk", "under-one-column", "default"])
    def test_wigner_grid_matches_numpy(self, tmp_path, monkeypatch, rows):
        """The grid files, written from per-scenario X P templates, equal np.savetxt of the three columns.

        N = 16: 100 rows per chunk is not a multiple of one X column, 8 is less than one.
        """
        monkeypatch.setattr(cli, "_SAVETXT_ROWS", rows)
        text = TINY.format(out=tmp_path).replace("scenario = transport", "scenario = wigner")
        text = text.replace("scaled_planck = 2.6", "scaled_planck = 1.7")
        cfg = parse_config(text + "\n[wigner]\neta_values = 0 0.2\ncheckpoint_kicks = 2 3\n")
        outdir, manifest = run_scenario(cfg, stamp="x")
        p = cfg.params
        N = p.basis_size
        xc = (np.pi * np.arange(2 * N) / N).reshape(-1, 2).mean(axis=1)
        pc = (0.5 * p.scaled_planck * np.arange(-N, N)).reshape(-1, 2).mean(axis=1)
        xx, pp = np.meshgrid(xc, pc, indexing="ij")
        rho0, floquet = cli._quantum_start(p)
        for eta in (0.0, 0.2):
            rec = quantum.evolve_density(rho0, floquet, eta, 3, (2, 3))
            for kick in (2, 3):
                w = wigner.coarse_wigner(rec.checkpoints[kick], p.scaled_planck)
                buf = io.StringIO()
                header = f"coarse toroidal Wigner function, k={p.kick_strength}, eta={eta:g}, kick={kick}\nX P w"
                np.savetxt(buf, np.column_stack([xx.ravel(), pp.ravel(), w.T.ravel()]), header=header,
                           comments="# ", fmt="%.10g")
                assert (outdir / f"wigner_eta_{eta:g}_kick_{kick}.dat").read_bytes() == buf.getvalue().encode()

    @pytest.mark.parametrize("n_kicks", [0, 5])
    @pytest.mark.parametrize("rows", [24, 7, cli._SAVETXT_ROWS], ids=["split-block", "under-one-block", "default"])
    def test_waterfall_matches_reference(self, tmp_path, monkeypatch, rows, n_kicks):
        """N = 16: 24 rows per chunk would cut the second kick's block, 7 is less than one block."""
        monkeypatch.setattr(cli, "_SAVETXT_ROWS", rows)
        text = TINY.format(out=tmp_path).replace("scenario = transport", "scenario = waterfall")
        text = text.replace("rng_seed = 7", "rng_seed = 7\nse_probability = 0.05")
        cfg = parse_config(text + f"\n[waterfall]\nn_kicks = {n_kicks}\n")
        outdir, manifest = run_scenario(cfg, stamp="x")
        p = cfg.params
        rho0, floquet = cli._quantum_start(p)
        expected = waterfall_reference(p, quantum.evolve_density(rho0, floquet, p.se_probability, n_kicks))
        assert (outdir / "waterfall.dat").read_bytes() == expected.encode()
        assert manifest.files["waterfall.dat"] == hashlib.sha256(expected.encode()).hexdigest()


def run_main(*argv) -> tuple[int, list[str]]:
    """main(argv) -> (exit code, stderr lines), each warning raised during the call counted as a line."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(list(argv))
    return code, [str(w.message) for w in caught] + err.getvalue().splitlines()


class TestMain:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name, scenario in SCENARIOS.items():
            assert name in out
            assert f"options: {' '.join(scenario.options)}" in out

    def test_default_config_round_trips(self, capsys):
        assert main(["default-config"]) == 0
        parse_config(capsys.readouterr().out)

    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text(TINY.format(out=tmp_path))
        assert main(["validate", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_marginal_physical_config_warns_in_one_line(self, tmp_path, monkeypatch):
        """A [physical] Rabi frequency above 10% of the smallest detuning: one stderr line that
        names the section, and the exit code of a clean run."""
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "c.ini"
        text = DEFAULT_CONFIG.replace("scenario = transport", "scenario = waterfall") + PHYSICAL
        path.write_text(text.replace("rabi_frequency = 1.7e9", "rabi_frequency = 1.9e9"))
        for command in ("validate", "run"):
            code, err = run_main(command, str(path))
            assert code == 0 and len(err) == 1, err
            assert err[0].startswith("warning: [physical] rabi_frequency exceeds 10% of the smallest detuning")

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.ini")]) == 4

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nscenario = nope\n")
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path)]) == 2

    def test_run_tiny(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text(TINY.format(out=tmp_path / "runs"))
        assert main(["run", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out

    def test_compute_failure_exit_code(self, tmp_path, capsys):
        """Flux at tiny kick strength: the estimator sees almost no crossings
        and refuses, which the runner reports as a compute failure."""
        text = (
            f"[run]\nscenario = flux\noutput_dir = {tmp_path}\n\n"
            "[params]\nkick_strength = 5\nscaled_planck = 2.6\nrng_seed = 1\n\n"
            "[flux]\nboundary_over_pi = 10\nn_seeds = 4000\nn_replicates = 2\n"
        )
        path = tmp_path / "c.ini"
        path.write_text(text)
        assert main(["run", str(path)]) == 3
        assert "compute failed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    @staticmethod
    def small_config(tmp_path, scenario, old="", new=""):
        """DEFAULT_CONFIG for scenario at N = 16 and 3 kicks, with old replaced by new; returns its path."""
        text = (
            DEFAULT_CONFIG.replace("scenario = transport", f"scenario = {scenario}")
            .replace("output_dir = runs", f"output_dir = {tmp_path / 'runs'}")
            .replace("basis_size = 128", "basis_size = 16")
            .replace("n_kicks = 50", "n_kicks = 3")
            .replace("checkpoint_kicks = 70", "checkpoint_kicks = 3")
            .replace(old, new)
        )
        path = tmp_path / "c.ini"
        path.write_text(text)
        return path

    @pytest.mark.parametrize(
        "scenario,old,new,validate,code,err",
        [
            ("waterfall", "init_momentum_sigma = 10.0", "init_momentum_sigma = 1e-200", 2, 2,
             "error: invalid config: [params] init_momentum_sigma = 1e-200: its thermal weights are not finite"),
            ("waterfall", "scaled_planck = 2.6", "scaled_planck = 5e-324", 0, 2,
             "error: invalid config: Floquet operator is not finite: its parity frames hold NaN or inf"),
            ("wigner", "kick_strength = 270", "kick_strength = 1e308", 0, 2,
             "error: invalid config: Floquet operator is not finite: its parity frames hold NaN or inf"),
            ("wigner", "scaled_planck = 2.6", "scaled_planck = 1e308", 2, 2,
             "error: invalid config: [params] (basis_size/2 * scaled_planck)^2 is not finite: edge momentum inf"),
            ("waterfall", "init_momentum_sigma = 10.0", "init_momentum_sigma = 1e300", 0, 0,
             "warning: [params] basis_size = 16: a population of 0.0625 reached the momentum-ladder edge, "
             "above 0.0001; the periodic wrap there is unphysical"),
            # 20,000 seeds and flux's default 100,000 run on the pool's workers.
            ("poincare", "n_seeds = 60\nn_kicks = 300\nrho_max_over_pi = 16",
             "n_seeds = 20000\nn_kicks = 300\nrho_max_over_pi = 1e300", 0, 3,
             "error: compute failed in scenario poincare: non-finite phase-space input"),
            ("flux", "kick_strength = 270", "kick_strength = 5e-324", 0, 3,
             "error: compute failed in scenario flux: non-finite phase-space input"),
        ],
        ids=["sigma-underflow", "planck-subnormal", "kick-overflow", "planck-overflow", "sigma-overflow",
             "poincare-rho-overflow", "flux-kick-subnormal"],
    )
    def test_extreme_values_end_cleanly(self, tmp_path, scenario, old, new, validate, code, err):
        """Configs that once ran into NaN data, an OverflowError or NumPy warnings.
        Each is refused with exit 2 (at validate, or where the Floquet operator is
        built) or 3 (by the classical runner's finiteness check), with one stderr
        line and no run directory, or runs to finite data: sigma = 1e300 squares
        to inf and gives the uniform mixture, whose 1/16 on each ladder edge the
        run warns of in one stderr line."""
        path = self.small_config(tmp_path, scenario, old, new)
        assert run_main("validate", str(path))[0] == validate
        assert run_main("run", str(path)) == (code, [err] if err else [])
        if code:
            assert not (tmp_path / "runs").exists() or list((tmp_path / "runs").iterdir()) == []
            return
        (run,) = (tmp_path / "runs").iterdir()
        pops = np.loadtxt(run / "waterfall.dat")[:, 2]
        np.testing.assert_allclose(pops, 1 / 16, rtol=1e-12)

    def test_population_at_the_ladder_edge_warns_in_one_line(self, tmp_path):
        """Transport at k = 3000 on N = 128 carries population to the ladder edge, where the
        periodic wrap is unphysical: the run ends with its files written, exit 0 and one
        stderr line naming basis_size."""
        runs = tmp_path / "runs"
        path = tmp_path / "c.ini"
        path.write_text(mutated_config("transport", [(("params", "basis_size"), "128"), (("params", "n_kicks"), "70"),
                                                     (("params", "kick_strength"), "3000")], runs))
        assert run_main("validate", str(path)) == (0, [])
        assert run_main("run", str(path)) == (0, [
            "warning: [params] basis_size = 128: a population of 0.00695 reached the momentum-ladder edge, "
            "above 0.0001; the periodic wrap there is unphysical"])
        (run,) = runs.iterdir()
        assert sorted(json.loads((run / "manifest.json").read_text())["files"]) == [
            "classical.dat", "config.ini", "index.dat", "quantum_eta_0.0187.dat", "quantum_eta_0.0503.dat",
            "quantum_eta_0.dat"]

    @pytest.mark.parametrize(
        "scenario,target,bad,name",
        [
            ("wigner", wigner, ("coarse_negativity", lambda coarse, hbar: float("nan")), "negativity.dat"),
            ("flux", cli.classical, ("cantorus_flux", lambda *args, **kwargs: FluxEstimate(
                1.0, float("inf"), 200, np.ones(16))), "flux.dat"),
        ],
        ids=["negativity", "flux"],
    )
    def test_hand_built_outputs_refuse_non_finite(self, tmp_path, capsys, monkeypatch, scenario, target, bad, name):
        """negativity.dat and flux.dat go through the same writer and its non-finite refusal."""
        monkeypatch.setattr(target, *bad)
        path = self.small_config(tmp_path, scenario)
        assert main(["run", str(path)]) == 3
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"error: compute failed in scenario {scenario}: {name}: non-finite values in the data"
        assert list((tmp_path / "runs").iterdir()) == []

    def test_non_finite_state_on_a_worker_is_compute_failure(self, tmp_path, capsys, monkeypatch):
        """A NaN that the elliptic kernel returns on a pool worker stops the run with exit 3."""
        monkeypatch.setattr(cli.classical, "_WORKERS", 2)
        kernel = cli.classical._pendulum_elliptic

        def poisoned(*args):
            phi, rho = kernel(*args)
            rho[-1] = np.nan
            return phi, rho

        monkeypatch.setattr(cli.classical, "_pendulum_elliptic", poisoned)
        path = self.small_config(tmp_path, "poincare", "n_seeds = 60", "n_seeds = 10000")
        assert main(["run", str(path)]) == 3
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == "error: compute failed in scenario poincare: non-finite phase-space input"
        assert list((tmp_path / "runs").iterdir()) == []

    def test_existing_run_directory_is_io_error(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "c.ini"
        path.write_text(TINY.format(out=tmp_path / "runs"))
        cfg = parse_config(path.read_text())
        stamp = "20000101T000000"
        (tmp_path / "runs" / f"{stamp}-{cfg.digest()[:8]}").mkdir(parents=True)
        monkeypatch.setattr(cli, "datetime", _FixedClock)
        assert main(["run", str(path)]) == 4
        err = capsys.readouterr().err
        assert "already exists" in err and err.count("\n") == 1


class _FixedClock:
    @staticmethod
    def now(tz):
        return datetime(2000, 1, 1, tzinfo=tz)


PHYSICAL = """
[physical]
rabi_frequency = 1.7e9
detunings = 1.76e10 1.92e10 2.04e10
wave_number = 7.37e6
atom_mass = 2.2069e-25
pulse_period = 2.5e-5
"""


class TestStrictConfig:
    """Bad configs fail at validate time: exit 2, one stderr line, no run directory."""

    @pytest.mark.parametrize(
        "scenario,old,new",
        [
            ("transport", "kick_strength = 270", "kick_strenght = 5"),
            ("transport", "[transport]", "[transprot]"),
            ("wigner", "checkpoint_kicks = 70", "checkpoint_kicks = abc"),
            ("poincare", "n_seeds = 60", "n_seeds = -5"),
            ("flux", "n_seeds = 100000", "n_seeds = -5"),
            ("transport", "pulse_period = 2.5e-5", "pulse_period = 2.5e-5\nlaser_power = 3"),
            ("transport", "basis_size = 128", "basis_size = 8"),
            ("flux", "boundary_over_pi = 10\nn_seeds", "boundary_over_pi = nan\nn_seeds"),
            ("poincare", "rho_max_over_pi = 16", "rho_max_over_pi = nan"),
            ("transport", "boundary_over_pi = 10\n\n[waterfall]", "boundary_over_pi = nan\n\n[waterfall]"),
            ("transport", "init_momentum_sigma = 10.0", "init_momentum_sigma = nan"),
            ("transport", "kick_spread_rms = 0.0", "kick_spread_rms = nan"),
            ("transport", "kick_strength = 270", "kick_strength = inf"),
            ("transport", "eta_values = 0 0.0187 0.0503", "eta_values = 0 nan"),
            ("transport", "kick_spread_rms = 0.0", "kick_spread_rms = 0.05"),
            ("wigner", "kick_spread_rms = 0.0", "kick_spread_rms = 0.05"),
            ("waterfall", "kick_spread_rms = 0.0", "kick_spread_rms = 0.05"),
            ("flux", "kick_spread_rms = 0.0", "kick_spread_rms = 0.05"),
            ("poincare", "kick_spread_rms = 0.0", "kick_spread_rms = 0.05"),
            # Both would write wigner_eta_0.0187_kick_70.dat.
            ("wigner", "eta_values = 0 0.02", "eta_values = 0.0187 0.01870001"),
            ("transport", "eta_values = 0 0.0187 0.0503", "eta_values = 0 0.0187 0.0187"),
            # -0 is 0: both would write quantum_eta_0.dat.
            ("transport", "eta_values = 0 0.0187 0.0503", "eta_values = 0 -0"),
            ("wigner", "checkpoint_kicks = 70", "checkpoint_kicks = 5 5"),
            ("waterfall", "n_kicks = 50", "n_kicks = -3"),
            ("poincare", "n_kicks = 300", "n_kicks = -3"),
            ("transport", "rng_seed = 20020", "rng_seed = -1"),
            ("transport", "eta_values = 0 0.0187 0.0503", "eta_values = ,"),
            ("wigner", "eta_values = 0 0.02", "eta_values = ,"),
            # A bad value in the section of a scenario that does not run.
            ("wigner", "boundary_over_pi = 10\nn_seeds", "boundary_over_pi = nan\nn_seeds"),
            ("transport", "n_seeds = 60", "n_seeds = -5"),
            ("flux", "checkpoint_kicks = 70", "checkpoint_kicks = 5 5"),
        ],
        ids=[
            "params-key", "section", "checkpoint-kicks", "poincare-seeds", "flux-seeds", "physical-key", "ladder",
            "flux-boundary-nan", "poincare-rho-max-nan", "transport-boundary-nan", "sigma-nan", "spread-nan",
            "kick-inf", "eta-nan", "spread-transport", "spread-wigner", "spread-waterfall", "spread-flux",
            "spread-poincare", "eta-file-name-collision", "eta-repeat", "eta-negative-zero", "checkpoint-repeat",
            "waterfall-kicks-negative", "poincare-kicks-negative", "rng-seed-negative", "eta-empty-transport",
            "eta-empty-wigner", "unused-flux-boundary-nan", "unused-poincare-seeds", "unused-checkpoint-repeat",
        ],
    )
    def test_rejected_before_running(self, tmp_path, capsys, scenario, old, new):
        """Each case at a [physical] Rabi frequency of 1.7e9 and at a marginal 1.9e9, whose
        warning a refused config does not print: the error is the one stderr line."""
        for rabi in ("1.7e9", "1.9e9"):
            text = DEFAULT_CONFIG + PHYSICAL.replace("rabi_frequency = 1.7e9", f"rabi_frequency = {rabi}")
            text = text.replace("scenario = transport", f"scenario = {scenario}")
            text = text.replace("output_dir = runs", f"output_dir = {tmp_path / 'runs'}")
            assert text.count(old) == 1
            path = tmp_path / "c.ini"
            path.write_text(text.replace(old, new))
            for command in ("validate", "run"):
                assert main([command, str(path)]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("error: invalid config: "), captured.err
                assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
            assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "text",
        [
            b"[run]\nscenario = transport\nfoo\nbar\n",
            b"scenario = transport\n",
            b"[run]\nscenario = transport\n\x00\n",
            b"\xff\xfe[run]\nscenario = transport\n",
            b"[run]\nscenario = transport\noutput_dir = runs%\n",
            b"[run]\nscenario = transport\n[params]\nkick_strength = 5\n  6\n",
        ],
        ids=["missing-equals", "no-section-header", "nul-line", "not-utf-8", "bare-percent", "continuation-line"],
    )
    def test_unreadable_text_is_one_line(self, tmp_path, monkeypatch, text):
        """Config text that configparser, the UTF-8 decoder or a parser refuses: exit 2, one stderr line."""
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "c.ini"
        path.write_bytes(text)
        for command in ("validate", "run"):
            code, err = run_main(command, str(path))
            assert code == 2 and len(err) == 1 and err[0].startswith("error: invalid config: "), err
        assert list(tmp_path.iterdir()) == [path]


# DEFAULT_CONFIG at N = 16, 3 kicks, 50 trajectories, 60 poincare and 5000 flux seeds,
# with the transport boundary inside the N = 16 ladder.
SMALL = {
    ("params", "basis_size"): "16", ("params", "n_kicks"): "3", ("params", "n_trajectories"): "50",
    ("transport", "boundary_over_pi"): "4", ("waterfall", "n_kicks"): "3", ("poincare", "n_kicks"): "3",
    ("wigner", "checkpoint_kicks"): "3", ("flux", "n_seeds"): "5000",
}
VALUES = st.sampled_from([
    "0", "-0", "0.0", "-0.0", "1", "2", "3", "-1", "-2", "1e300", "-1e300", "1e-300", "1e308", "-1e308",
    "5e-324", "-5e-324", "nan", "inf", "-inf", "1/3", "-1/20", "3/7", "0.5", "", "0 0.02", "1, 2", "0 nan 1e308",
])


@st.composite
def mutations(draw) -> tuple[str, list[tuple[tuple[str, str], str]]]:
    """A scenario, and one to three [params] keys or keys of any scenario's section, each with the text
    that replaces its value."""
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    keys = [("params", f.name) for f in fields(SimParams)]
    keys += [(name, key) for name, sc in SCENARIOS.items() for key in sc.options]
    return scenario, draw(st.lists(st.tuples(st.sampled_from(keys), VALUES), min_size=1, max_size=3,
                                   unique_by=lambda change: change[0]))


def mutated_config(scenario: str, changes: list, output_dir: Path) -> str:
    """The small DEFAULT_CONFIG for scenario, writing under output_dir, with the changes made."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(DEFAULT_CONFIG)
    cp["run"]["scenario"], cp["run"]["output_dir"] = scenario, str(output_dir)
    for (section, key), value in [*SMALL.items(), *changes]:
        cp[section][key] = value
    text = io.StringIO()
    cp.write(text)
    return text.getvalue()


# The one stderr line of a quantum run whose population reached the ladder edge (see cli._warn_edge).
EDGE_WARNING = re.compile(r"warning: \[params\] basis_size = (\d+): a population of (\S+) reached the "
                          r"momentum-ladder edge, above 0\.0001; the periodic wrap there is unphysical")


def non_finite_numbers(path) -> list[str]:
    """The words of the data lines of path that parse as a NaN or an infinity."""
    found = []
    for line in path.read_text().splitlines():
        for word in [] if line.startswith("#") else line.split():
            try:
                found += [] if math.isfinite(float(word)) else [word]
            except ValueError:
                pass
    return found


class TestMutatedConfigs:
    @settings(max_examples=300)
    @given(mutations())
    def test_every_config_ends_cleanly(self, mutation):
        """validate exits 0 or 2 with at most one stderr line; a config that validates runs
        to exit 0 with finite data files, or ends with exit 2, 3 or 4, one line and no run directory.
        A quantum run that exits 0 prints nothing, or the one ladder-edge warning for its basis
        size and a population above quantum.EDGE_TOL; a classical run prints nothing."""
        with tempfile.TemporaryDirectory() as tmp:
            runs = Path(tmp) / "runs"
            path = Path(tmp) / "c.ini"
            path.write_text(mutated_config(*mutation, runs))
            code, err = run_main("validate", str(path))
            assert code in (0, 2) and len(err) <= 1, err
            if code:
                return
            code, err = run_main("run", str(path))
            if code:
                assert code in (2, 3, 4) and len(err) == 1, (code, err)
                assert not runs.exists() or not any(runs.iterdir())
                return
            if err:
                (line,) = err
                match = EDGE_WARNING.fullmatch(line)
                assert mutation[0] in ("transport", "waterfall", "wigner") and match, err
                assert int(match[1]) == parse_config(path.read_text()).params.basis_size
                assert float(match[2]) > quantum.EDGE_TOL
            (run,) = runs.iterdir()
            for data in run.glob("*.dat"):
                assert not non_finite_numbers(data), data.name


class TestOversizeConfigs:
    """A config too large to allocate ends with one stderr line, no traceback and no run directory:
    a count that no float64 array could hold is refused at validate (exit 2), a ladder that
    parse_config's thermal check cannot allocate (MemoryError, or NumPy's ValueError for a size
    beyond the address space) is refused too (exit 2), and a MemoryError in a run step is reported
    (exit 3), not raised.  No case allocates: the counts are refused while their text is parsed, and
    the errors are raised by stand-ins."""

    COUNTS = [("params", "basis_size"), ("params", "n_kicks"), ("params", "n_trajectories"),
              ("flux", "n_seeds"), ("flux", "n_replicates"), ("poincare", "n_seeds"), ("poincare", "n_kicks"),
              ("waterfall", "n_kicks"), ("wigner", "checkpoint_kicks")]

    @pytest.mark.parametrize("count", [10**30, 2**61], ids=["1e30", "2^61"])
    @pytest.mark.parametrize("section,key", COUNTS, ids=[f"{s}-{k}" for s, k in COUNTS])
    def test_count_too_large_is_refused(self, tmp_path, section, key, count):
        runs = tmp_path / "runs"
        path = tmp_path / "c.ini"
        path.write_text(mutated_config("transport" if section == "params" else section, [((section, key), str(count))],
                                       runs))
        for command in ("validate", "run"):
            code, err = run_main(command, str(path))
            assert code == 2 and len(err) == 1, (code, err)
            assert err[0].startswith(f"error: invalid config: [{section}] {key} = {count}: larger than ")
        assert not runs.exists()

    def test_largest_count_and_any_seed_validate(self, tmp_path):
        """The cap is the largest count, and the seed is not a count."""
        path = tmp_path / "c.ini"
        for changes in ([(("flux", "n_seeds"), str(np.iinfo(np.intp).max // 8))], [(("params", "rng_seed"), str(2**61))]):
            path.write_text(mutated_config("flux", changes, tmp_path / "runs"))
            assert run_main("validate", str(path)) == (0, [])

    @pytest.mark.parametrize("error", [MemoryError("Unable to allocate 8.00 PiB for an array"), MemoryError(),
                                       ValueError("Maximum allowed size exceeded")], ids=["numpy", "bare", "too-big"])
    def test_unallocatable_ladder_is_invalid_config(self, tmp_path, monkeypatch, error):
        def oversize(*args):
            raise error

        monkeypatch.setattr(quantum, "thermal_weights", oversize)
        path = tmp_path / "c.ini"
        path.write_text(mutated_config("transport", [], tmp_path / "runs"))
        for command in ("validate", "run"):
            assert run_main(command, str(path)) == (
                2, ["error: invalid config: [params] basis_size = 16: its momentum ladder cannot be allocated"])
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("message,shown", [("Unable to allocate 8.00 PiB for an array", None),
                                               ("", "out of memory")], ids=["numpy", "bare"])
    @pytest.mark.parametrize("scenario,target,name", [
        ("transport", cli.classical, "transport_counts"), ("flux", cli.classical, "cantorus_flux"),
        ("poincare", cli.classical, "evolve_ensemble"), ("waterfall", quantum, "evolve_density"),
        ("wigner", quantum, "evolve_density"),
    ])
    def test_run_memory_error_is_compute_failure(self, tmp_path, monkeypatch, scenario, target, name, message, shown):
        def oversize(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(target, name, oversize)
        runs = tmp_path / "runs"
        path = tmp_path / "c.ini"
        path.write_text(mutated_config(scenario, [], runs))
        assert run_main("validate", str(path))[0] == 0
        assert run_main("run", str(path)) == (3, [f"error: compute failed in scenario {scenario}: {shown or message}"])
        assert not runs.exists() or not any(runs.iterdir())


class TestRecordTooLarge:
    """A count that parses but whose run's largest record, (kicks + 1) rows of the ladder or of a
    Poincare section's phi and rho over its seeds, no float64 array could hold is refused at
    validate and at run (exit 2, one stderr line, no run directory); the largest record that fits
    validates.  No case allocates: validate computes nothing and run stops at the refusal."""

    CAP = np.iinfo(np.intp).max // 8
    # (scenario, the kick count's option, the record's row width in the SMALL config)
    RECORDS = [("poincare", ("poincare", "n_kicks"), 2 * 60), ("waterfall", ("waterfall", "n_kicks"), 16),
               ("wigner", ("wigner", "checkpoint_kicks"), 16), ("transport", ("params", "n_kicks"), 16)]

    @pytest.mark.parametrize("scenario,option,width", RECORDS, ids=[r[0] for r in RECORDS])
    def test_record_too_large_is_refused(self, tmp_path, scenario, option, width):
        runs = tmp_path / "runs"
        path = tmp_path / "c.ini"
        kicks = self.CAP // width
        path.write_text(mutated_config(scenario, [(option, str(kicks))], runs))
        for command in ("validate", "run"):
            code, err = run_main(command, str(path))
            assert code == 2 and len(err) == 1, (code, err)
            assert err[0] == (f"error: invalid config: [{scenario}] {kicks} kicks: the run's {kicks + 1} x {width} "
                              f"record is larger than {self.CAP} elements, the most one float64 array can hold")
        assert not runs.exists()

    @pytest.mark.parametrize("scenario,option,width", RECORDS, ids=[r[0] for r in RECORDS])
    def test_largest_record_validates(self, tmp_path, scenario, option, width):
        path = tmp_path / "c.ini"
        path.write_text(mutated_config(scenario, [(option, str(self.CAP // width - 1))], tmp_path / "runs"))
        assert run_main("validate", str(path)) == (0, [])
