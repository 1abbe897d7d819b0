"""Golden outputs of every CLI scenario, pinned before the config code is refactored.

Two kinds of pins:

* the canonical config text and its digest, which name the run directory and
  are written to config.ini, for the default config with each scenario, the
  same with the scenario's section removed (every option at its fallback), and
  a [run]-only config (every parameter at its fallback);
* a few output numbers per scenario on a reduced config (N = 32, a few kicks),
  with and without the scenario's section.  They are compared with tolerances,
  not hashes: quantum and Wigner numbers at the 10 significant digits the
  files carry, classical Monte Carlo numbers within a trajectory or two.
"""

import re

import numpy as np
import pytest

from cantori.cli import DEFAULT_CONFIG, parse_config, run_scenario

SCENARIOS = ("transport", "waterfall", "poincare", "wigner", "flux")

DEFAULT_PARAMS = """\
params.kick_strength=270.0
params.scaled_planck=2.6
params.se_probability=0.0187
params.pulse_width=1/20
params.pulse_spacing=1/10
params.basis_size=128
params.n_kicks=70
params.n_trajectories=10000
params.rng_seed=20020
params.init_momentum_sigma=10.0
params.kick_spread_rms=0.0
"""

DEFAULT_SECTIONS = {
    "transport": "transport.boundary_over_pi=10\ntransport.eta_values=0 0.0187 0.0503\n",
    "waterfall": "waterfall.n_kicks=50\n",
    "poincare": "poincare.n_kicks=300\npoincare.n_seeds=60\npoincare.rho_max_over_pi=16\n",
    "wigner": "wigner.checkpoint_kicks=70\nwigner.eta_values=0 0.02\n",
    "flux": "flux.boundary_over_pi=10\nflux.n_replicates=8\nflux.n_seeds=100000\n",
}

DIGESTS = {
    ("transport", "full"): "1d972ab3fc9a506bafd64d2ac46472c352144a835f13aed3ba30c92b873cd8bf",
    ("transport", "dropped"): "98aa18e5364c2a3879cc2617d065579d692dbbe9bae6abe0adbe6ca563b6caeb",
    ("waterfall", "full"): "a6a421a19991a7982d5b69ce695fac78feb4c6c0d9e9c35fcd34a97750a5520c",
    ("waterfall", "dropped"): "57bbd7f3824fc8e185aba449f95d5c32ca623a92455f0d7bba63698de15e97e4",
    ("poincare", "full"): "b5b460284e69f03f500bf6b168a0918016ad5e58fb4e0a9903260bfa36dcfd0e",
    ("poincare", "dropped"): "7086882385816f0e9d221f67c1fe262c41173a83e38d3395dcb4b5597f9372a8",
    ("wigner", "full"): "7fb144ac7c2579f107329ba10e7b50eef75bb6c8b4f94500cfecd26e9c820bca",
    ("wigner", "dropped"): "9f102112def32ba870d06746c99cafaed21e8c013c4914d99d7ec03bc95703ae",
    ("flux", "full"): "f30b4e2fee07936f53127c9d8acc6d147bbdafaa4c1012ffcb6806559abd66b4",
    ("flux", "dropped"): "0dd0928dea911d2a68a96484a32657b5183d13e7c1aa23ba309c327371c951ac",
}

RUN_ONLY_CANONICAL = """\
scenario=transport
output_dir=runs
params.kick_strength=270.0
params.scaled_planck=2.6
params.se_probability=0.0
params.pulse_width=1/20
params.pulse_spacing=1/10
params.basis_size=128
params.n_kicks=70
params.n_trajectories=10000
params.rng_seed=0
params.init_momentum_sigma=10.0
params.kick_spread_rms=0.0
"""
RUN_ONLY_DIGEST = "23e88361f2a1174bc8a9ea52b7d46b6b34b57865c15791b1f5964ab64cbe5485"

REDUCED = """\
[run]
scenario = {scenario}
output_dir = {out}

[params]
kick_strength = 30
scaled_planck = 2.6
se_probability = 0.02
basis_size = 32
n_kicks = 4
n_trajectories = 200
rng_seed = 5

[transport]
eta_values = 0 0.05
boundary_over_pi = 4

[waterfall]
n_kicks = 3

[poincare]
n_seeds = 5
n_kicks = 10
rho_max_over_pi = 6

[wigner]
eta_values = 0 0.2
checkpoint_kicks = 1 3

[flux]
boundary_over_pi = 4
n_seeds = 4000
n_replicates = 2
"""

QUANTUM = dict(rel=1e-8)
CLASSICAL_FRACTION = dict(abs=1.5 / 200)     # one trajectory of the 200


def with_scenario(text: str, scenario: str) -> str:
    return re.sub(r"(?m)^scenario = .*$", f"scenario = {scenario}", text)


def drop_section(text: str, section: str) -> str:
    return re.sub(rf"(?m)^\[{section}\]\n(?:.+\n)+\n?", "", text)


@pytest.mark.parametrize("variant", ["full", "dropped"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_canonical_text_and_digest(scenario, variant):
    text = with_scenario(DEFAULT_CONFIG, scenario)
    if variant == "dropped":
        text = drop_section(text, scenario)
        assert f"[{scenario}]" not in text
    cfg = parse_config(text)
    sections = DEFAULT_SECTIONS[scenario] if variant == "full" else ""
    assert cfg.canonical() == f"scenario={scenario}\noutput_dir=runs\n" + DEFAULT_PARAMS + sections
    assert cfg.digest() == DIGESTS[scenario, variant]


@pytest.mark.parametrize(
    "scenario,key,spelling",
    [("waterfall", "n_kicks", "050"), ("waterfall", "n_kicks", "+50"), ("waterfall", "n_kicks", "50 "),
     ("transport", "boundary_over_pi", "10.0"), ("transport", "boundary_over_pi", "1e1"),
     ("flux", "boundary_over_pi", "10.0"), ("flux", "boundary_over_pi", "1e1")],
)
def test_spellings_of_one_value_give_its_pinned_digest(scenario, key, spelling):
    """A scenario option is written from its parsed value, not from its text."""
    text = with_scenario(DEFAULT_CONFIG, scenario)
    text, n = re.subn(rf"(?m)(^\[{scenario}\]\n(?:.+\n)*?){key} = .*$", rf"\g<1>{key} = {spelling}", text)
    assert n == 1
    assert parse_config(text).digest() == DIGESTS[scenario, "full"]


def test_run_only_config_canonical():
    cfg = parse_config("[run]\nscenario = transport\n")
    assert cfg.canonical() == RUN_ONLY_CANONICAL
    assert cfg.digest() == RUN_ONLY_DIGEST


def run_reduced(tmp_path, scenario, dropped=False):
    text = REDUCED.format(scenario=scenario, out=tmp_path)
    if dropped:
        text = drop_section(text, scenario)
    outdir, manifest = run_scenario(parse_config(text), stamp="golden")
    return outdir, set(manifest.files)


def last_row(path):
    return np.loadtxt(path)[-1]


def table(path):
    """Non-comment lines of a whitespace-separated file, split into fields."""
    return [line.split() for line in path.read_text().splitlines() if line and not line.startswith("#")]


class TestTransport:
    def test_sweep(self, tmp_path):
        outdir, files = run_reduced(tmp_path, "transport")
        assert files == {"config.ini", "classical.dat", "index.dat", "quantum_eta_0.dat", "quantum_eta_0.05.dat"}
        assert "|rho|=12.5664" in (outdir / "classical.dat").read_text()
        assert last_row(outdir / "classical.dat") == pytest.approx([4, 0.215], **CLASSICAL_FRACTION)
        assert last_row(outdir / "quantum_eta_0.dat") == pytest.approx([4, 0.2208870385], **QUANTUM)
        assert last_row(outdir / "quantum_eta_0.05.dat") == pytest.approx([4, 0.2253719672], **QUANTUM)

    def test_fallbacks(self, tmp_path):
        """eta_values falls back to [se_probability], boundary_over_pi to 10."""
        outdir, files = run_reduced(tmp_path, "transport", dropped=True)
        assert files == {"config.ini", "classical.dat", "index.dat", "quantum_eta_0.02.dat"}
        assert "|rho|=31.4159" in (outdir / "quantum_eta_0.02.dat").read_text()
        assert last_row(outdir / "classical.dat") == pytest.approx([4, 0.0], **CLASSICAL_FRACTION)
        assert last_row(outdir / "quantum_eta_0.02.dat") == pytest.approx([4, 0.001804992426], **QUANTUM)


class TestWaterfall:
    @pytest.mark.parametrize("dropped,n_kicks,energy", [(False, 3, 52.685217877189615), (True, 4, 52.52951942915238)])
    def test_final_distribution(self, tmp_path, dropped, n_kicks, energy):
        """n_kicks falls back to params.n_kicks."""
        outdir, files = run_reduced(tmp_path, "waterfall", dropped)
        assert files == {"config.ini", "waterfall.dat"}
        data = np.loadtxt(outdir / "waterfall.dat")
        assert data.shape == ((n_kicks + 1) * 32, 3)
        last = data[data[:, 0] == n_kicks]
        assert last[:, 2].sum() == pytest.approx(1.0, abs=1e-8)
        assert np.sum(last[:, 2] * 0.5 * (last[:, 1] * np.pi) ** 2) == pytest.approx(energy, **QUANTUM)


class TestPoincare:
    @pytest.mark.parametrize(
        "dropped,n_seeds,n_kicks,rho_max,outside",
        [(False, 5, 10, 6 * np.pi, 0.4), (True, 60, 300, 16 * np.pi, 0.7488925802879292)],
    )
    def test_section(self, tmp_path, dropped, n_seeds, n_kicks, rho_max, outside):
        """n_seeds / n_kicks / rho_max_over_pi fall back to 60 / 300 / 16."""
        outdir, files = run_reduced(tmp_path, "poincare", dropped)
        assert files == {"config.ini", "poincare.dat"}
        pts = np.loadtxt(outdir / "poincare.dat")
        assert pts.shape == (n_seeds * (n_kicks + 1), 2)
        assert pts[:n_seeds, 1] == pytest.approx(np.linspace(-rho_max, rho_max, n_seeds), rel=1e-9)
        assert np.mean(np.abs(pts[:, 1]) > 4 * np.pi) == pytest.approx(outside, abs=0.02)


class TestWigner:
    def test_negativity(self, tmp_path):
        outdir, files = run_reduced(tmp_path, "wigner")
        rows = table(outdir / "negativity.dat")
        assert [r[:2] for r in rows] == [["0", "1"], ["0", "3"], ["0.2", "1"], ["0.2", "3"]]
        assert [float(r[2]) for r in rows] == pytest.approx(
            [0.005653915155, 0.01660968901, 0.003904622011, 0.007543721129], **QUANTUM
        )
        assert files == {"config.ini", "negativity.dat"} | {r[3] for r in rows}
        assert np.loadtxt(outdir / "wigner_eta_0_kick_3.dat").shape == (32 * 32, 3)

    def test_fallbacks(self, tmp_path):
        """eta_values falls back to [se_probability], checkpoint_kicks to params.n_kicks."""
        outdir, files = run_reduced(tmp_path, "wigner", dropped=True)
        assert files == {"config.ini", "negativity.dat", "wigner_eta_0.02_kick_4.dat"}
        (row,) = table(outdir / "negativity.dat")
        assert row[:2] == ["0.02", "4"]
        assert float(row[2]) == pytest.approx(0.01640796909, **QUANTUM)


class TestFlux:
    @pytest.mark.parametrize(
        "dropped,header,flux,crossings,n_samples",
        [(False, "|rho|=12.5664", 4.57456164, 927, 4), (True, "|rho|=31.4159", 0.1475505858, 2990, 16)],
    )
    def test_estimate(self, tmp_path, dropped, header, flux, crossings, n_samples):
        """boundary_over_pi / n_seeds / n_replicates fall back to 10 / 100000 / 8."""
        outdir, files = run_reduced(tmp_path, "flux", dropped)
        assert files == {"config.ini", "flux.dat"}
        text = (outdir / "flux.dat").read_text()
        assert header in text
        rows = table(outdir / "flux.dat")
        values = {r[0]: float(r[1]) for r in rows if r[0] != "sample"}
        assert values["flux"] == pytest.approx(flux, rel=1e-3)
        assert values["n_crossings"] == pytest.approx(crossings, abs=2)
        assert sum(r[0] == "sample" for r in rows) == n_samples
