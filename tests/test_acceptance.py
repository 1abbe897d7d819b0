"""Acceptance gate: one test per headline claim, one PASS/FAIL line each.

Heavy shared computations (classical references, Floquet evolutions at the
production grid) live in module-scoped fixtures so each is done once.
"""

import numpy as np
import pytest

from cantori.analysis import fraction_outside_quantum, transport_curve_classical
from cantori.classical import cantorus_flux, evolve_ensemble, thermal_ensemble
from cantori.model import SimParams, fourier_coefficient
from cantori.quantum import DensityMatrix, build_floquet, evolve_density, momentum_ladder
from cantori.wigner import negativity_volume, toroidal_wigner
from conftest import fourier_integral_oracle, one_cycle

BOUNDARY = 10.0 * np.pi
HBAR_K = 2.6
ETAS = (0.0, 0.0187, 0.0503)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def fig5(paper_train):
    """k = 270 production run: classical reference plus the eta sweep."""
    params = SimParams(
        kick_strength=270.0,
        scaled_planck=HBAR_K,
        n_kicks=70,
        n_trajectories=10_000,
        init_momentum_sigma=10.0,
        rng_seed=20020,
    )
    ens = thermal_ensemble(params)
    record = evolve_ensemble(ens, params, paper_train, method="elliptic")
    classical_curve = transport_curve_classical(record, BOUNDARY).fraction_outside

    rho0 = DensityMatrix.thermal(128, HBAR_K, 10.0)
    floquet = build_floquet(128, 270.0, HBAR_K, paper_train)
    quantum = {}
    records = {}
    for eta in ETAS:
        rec = evolve_density(rho0, floquet, eta, 70, checkpoint_kicks=(70,))
        records[eta] = rec
        quantum[eta] = np.array(
            [fraction_outside_quantum(p, HBAR_K, BOUNDARY) for p in rec.populations]
        )
    return {
        "params": params,
        "ensemble": ens,
        "classical": classical_curve,
        "quantum": quantum,
        "records": records,
        "floquet": floquet,
    }


@pytest.fixture(scope="module")
def k280(paper_train):
    """k = 280 runs for the shoulder and Wigner claims."""
    rho0 = DensityMatrix.thermal(128, HBAR_K, 10.0)
    floquet = build_floquet(128, 280.0, HBAR_K, paper_train)
    shoulders = evolve_density(rho0, floquet, 0.019, 50)
    wig = {
        eta: evolve_density(rho0, floquet, eta, 70, checkpoint_kicks=(70,))
        for eta in (0.0, 0.02)
    }
    return {"shoulders": shoulders, "wigner": wig}


def test_criterion_01_missing_resonances(paper_train):
    zeros_exact = all(fourier_coefficient(m) == 0.0 for m in (5, -5, 15, -15))
    worst = max(
        abs(fourier_coefficient(m) - fourier_integral_oracle(m)) for m in range(-100, 101)
    )
    report(
        1,
        zeros_exact and worst < 1e-9,
        f"a_(+-5), a_(+-15) exactly zero ({zeros_exact}); "
        f"max |a_m - quadrature| = {worst:.2e} for |m| <= 100",
    )


def test_criterion_02_kam_confinement(paper_train):
    rng = np.random.default_rng(11)
    n = 10_000
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    rho = rng.uniform(-(BOUNDARY - 5.0), BOUNDARY - 5.0, n)
    escaped = np.zeros(n, dtype=bool)
    for _ in range(1000):
        phi, rho = one_cycle(phi, rho, 5.0, paper_train, "elliptic")
        escaped |= np.abs(rho) > BOUNDARY
    count = int(escaped.sum())
    report(2, count == 0, f"{count} of {n} trajectories crossed |rho| = 10*pi in 1000 kicks at k = 5")


def test_criterion_03_quantum_suppression(fig5):
    c = fig5["classical"]
    q = fig5["quantum"][0.0]
    at70 = q[70] <= 0.5 * c[70]
    below = bool(np.all(q[10:] < c[10:]))
    report(
        3,
        at70 and below,
        f"kick-70 fraction outside: quantum {q[70]:.4f} vs classical {c[70]:.4f} "
        f"(<= half: {at70}); quantum below classical at every kick >= 10: {below}",
    )


def test_criterion_04_decoherence_monotonicity(fig5):
    c = fig5["classical"]
    q = fig5["quantum"]
    f70 = [q[eta][70] for eta in ETAS]
    increasing = f70[0] < f70[1] < f70[2]
    mid = q[0.0503]
    between = bool(np.all((q[0.0][10:] <= mid[10:] + 1e-12) & (mid[10:] <= c[10:] + 1e-12)))
    report(
        4,
        increasing and between,
        "kick-70 fractions "
        + ", ".join(f"eta={e:g}: {f:.4f}" for e, f in zip(ETAS, f70))
        + f"; strictly increasing: {increasing}; eta=0.0503 curve between "
        f"coherent and classical for kicks >= 10: {between}",
    )


def test_criterion_05_cantorus_flux():
    target = 4.6 * HBAR_K
    est = cantorus_flux(SimParams(kick_strength=280.0, rng_seed=5), BOUNDARY)
    ok = target / 2.0 <= est.flux <= target * 2.0 and est.stderr > 0.0
    report(
        5,
        ok,
        f"flux {est.flux:.3f} +- {est.stderr:.3f} per cycle "
        f"({est.flux / HBAR_K:.2f} hbar_k; target 4.6 hbar_k = {target:.2f} within x2)",
    )


def test_criterion_06_shoulders(k280):
    p = k280["shoulders"].populations[50]
    n = momentum_ladder(128)
    inside_site = int(np.floor(BOUNDARY / HBAR_K))       # last bin centre below 10*pi
    outside_site = int(np.round(12.0 * np.pi / HBAR_K))  # bin at 12*pi
    p_in = 0.5 * (p[n == inside_site][0] + p[n == -inside_site][0])
    p_out = 0.5 * (p[n == outside_site][0] + p[n == -outside_site][0])
    ratio = p_in / p_out
    report(
        6,
        ratio >= 5.0,
        f"population density drop across the shoulder: {ratio:.2f}x "
        f"(bin {inside_site} inside 10*pi vs bin {outside_site} at 12*pi; need >= 5x)",
    )


def test_criterion_07_wigner_smoothing(k280):
    grids = {
        eta: toroidal_wigner(rec.checkpoints[70], HBAR_K)
        for eta, rec in k280["wigner"].items()
    }
    neg = {eta: negativity_volume(g) for eta, g in grids.items()}
    smoothing = neg[0.02] < neg[0.0]

    g = grids[0.0]
    diag = np.real(np.diag(k280["wigner"][0.0].checkpoints[70].matrix))
    marginal = g.values.sum(axis=1)
    worst_marg = 0.0
    for il, l in enumerate(range(-128, 128)):
        expect = 256 * diag[l // 2 + 64] if l % 2 == 0 else 0.0
        worst_marg = max(worst_marg, abs(marginal[il] - expect))

    from test_wigner import random_density, wigner_direct

    rho = random_density(16, seed=9)
    fft_err = np.abs(toroidal_wigner(rho, HBAR_K).values - wigner_direct(rho, HBAR_K)).max()

    report(
        7,
        smoothing and worst_marg < 1e-10 and fft_err < 1e-10,
        f"negativity volume {neg[0.0]:.3f} (eta=0) -> {neg[0.02]:.3f} (eta=0.02); "
        f"marginal identity residual {worst_marg:.1e}; FFT vs direct sum {fft_err:.1e}",
    )


def test_criterion_08_numerical_hygiene(fig5, paper_train):
    defect = fig5["floquet"].unitarity_defect()

    traces = fig5["records"][0.0187].populations.sum(axis=1)
    drift = float(np.abs(np.diff(traces)).max())

    min_eig = float(
        np.linalg.eigvalsh(fig5["records"][0.0187].checkpoints[70].matrix).min()
    )

    n = momentum_ladder(128)
    free = build_floquet(128, 0.0, HBAR_K, paper_train).matrix
    phase_err = np.abs(free - np.diag(np.exp(-0.5j * n**2 * HBAR_K))).max()

    sym = evolve_ensemble(fig5["ensemble"], fig5["params"], paper_train, method="symplectic")
    sym_curve = transport_curve_classical(sym, BOUNDARY).fraction_outside
    backend_gap = float(np.abs(sym_curve - fig5["classical"]).max())

    ok = (
        defect <= 1e-10
        and drift <= 1e-12
        and min_eig >= -1e-10
        and phase_err <= 1e-12
        and backend_gap < 0.01
    )
    report(
        8,
        ok,
        f"unitarity defect {defect:.1e}; per-kick trace drift {drift:.1e}; "
        f"min eigenvalue {min_eig:.1e} after 70 kicks; free-phase error {phase_err:.1e}; "
        f"elliptic/symplectic transport gap {backend_gap:.4f}",
    )


def test_criterion_09_basis_independence(fig5, paper_train):
    rho0 = DensityMatrix.thermal(256, HBAR_K, 10.0)
    floquet = build_floquet(256, 270.0, HBAR_K, paper_train)
    rec = evolve_density(rho0, floquet, 0.0, 70)
    f256 = fraction_outside_quantum(rec.populations[70], HBAR_K, BOUNDARY)
    f128 = fig5["quantum"][0.0][70]
    gap = abs(f256 - f128)
    report(9, gap < 0.01, f"kick-70 fraction outside: N=128 {f128:.4f} vs N=256 {f256:.4f} (|diff| = {gap:.2e})")


def test_criterion_10_determinism(tmp_path):
    from cantori.cli import DEFAULT_CONFIG, parse_config, run_scenario

    text = DEFAULT_CONFIG.replace("output_dir = runs", f"output_dir = {tmp_path}")
    out1, m1 = run_scenario(parse_config(text), stamp="r1")
    out2, m2 = run_scenario(parse_config(text), stamp="r2")
    identical = m1.files == m2.files and all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes() for name in m1.files
    )
    report(10, identical, f"two seeded runs produced byte-identical outputs: {identical}")
