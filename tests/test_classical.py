import inspect
import threading

import numpy as np
import pytest

from cantori import classical
from cantori.classical import (
    ClassicalEnsemble,
    NumericalDomainError,
    StatisticsError,
    cantorus_flux,
    drift_segment,
    evolve_ensemble,
    kick_cycle,
    pendulum_segment,
    poincare_section,
    thermal_ensemble,
)
from cantori.model import ParameterError, SimParams

TWO_PI = 2 * np.pi


def pendulum_energy(phi, rho, k):
    return 0.5 * rho**2 - k * np.cos(phi)


def circular_diff(a, b):
    return np.abs(np.mod(a - b + np.pi, TWO_PI) - np.pi)


def random_band_states(rng, n, rho_max=40.0):
    return rng.uniform(0, TWO_PI, n), rng.uniform(-rho_max, rho_max, n)


class TestDrift:
    def test_full_winding(self):
        phi, rho = drift_segment(np.array([0.0]), np.array([TWO_PI]), 1.0)
        assert phi[0] == pytest.approx(0.0, abs=1e-12)
        assert rho[0] == TWO_PI

    def test_half_period(self):
        phi, rho = drift_segment(np.array([0.0]), np.array([np.pi]), 0.5)
        assert phi[0] == pytest.approx(np.pi / 2)
        assert rho[0] == np.pi

    def test_rho_preserved_bitwise(self):
        rng = np.random.default_rng(3)
        phi, rho = random_band_states(rng, 100)
        _, rho2 = drift_segment(phi, rho, 0.37)
        assert np.array_equal(rho, rho2)


@pytest.mark.parametrize("method", ["elliptic", "symplectic"])
class TestPendulum:
    def test_stable_fixed_point(self, method):
        phi, rho = pendulum_segment(np.array([0.0]), np.array([0.0]), 100.0, 0.3, method=method)
        assert phi[0] == pytest.approx(0.0, abs=1e-12)
        assert rho[0] == pytest.approx(0.0, abs=1e-12)

    def test_unstable_fixed_point(self, method):
        phi, rho = pendulum_segment(np.array([np.pi]), np.array([0.0]), 100.0, 0.3, method=method)
        assert circular_diff(phi[0], np.pi) < 1e-9
        assert abs(rho[0]) < 1e-9

    def test_small_amplitude_period(self, method):
        # omega_0^2 = k: a small oscillation returns after 2*pi/sqrt(k)
        # up to O(phi0^2) anharmonic corrections.
        k, phi0 = 100.0, 1e-3
        period = TWO_PI / np.sqrt(k)
        phi, rho = pendulum_segment(np.array([phi0]), np.array([0.0]), k, period, method=method)
        assert circular_diff(phi[0], phi0) < phi0 * 1e-4
        assert abs(rho[0]) < np.sqrt(k) * phi0 * 1e-3

    def test_energy_conservation(self, method):
        rng = np.random.default_rng(7)
        phi, rho = random_band_states(rng, 500)
        e0 = pendulum_energy(phi, rho, 270.0)
        phi2, rho2 = pendulum_segment(phi, rho, 270.0, 1 / 20, method=method)
        e1 = pendulum_energy(phi2, rho2, 270.0)
        assert np.max(np.abs(e1 - e0) / np.maximum(1.0, np.abs(e0))) <= 1e-9

    def test_reflection_symmetry(self, method):
        rng = np.random.default_rng(11)
        phi, rho = random_band_states(rng, 200)
        p1, r1 = pendulum_segment(phi, rho, 270.0, 1 / 20, method=method)
        p2, r2 = pendulum_segment(-phi, -rho, 270.0, 1 / 20, method=method)
        assert np.max(circular_diff(p2, -p1)) < 1e-8
        assert np.max(np.abs(r2 + r1)) < 1e-8

    def test_nonfinite_input_raises(self, method):
        with pytest.raises(NumericalDomainError):
            pendulum_segment(np.array([np.nan]), np.array([0.0]), 10.0, 0.1, method=method)

    def test_zero_kick_reduces_to_drift(self, method):
        phi, rho = np.array([1.0]), np.array([2.0])
        p, r = pendulum_segment(phi, rho, 0.0, 0.25, method=method)
        pd, rd = drift_segment(phi, rho, 0.25)
        assert p[0] == pd[0] and r[0] == rd[0]


class TestBackendAgreement:
    def test_single_kick_map(self, paper_train):
        rng = np.random.default_rng(2024)
        phi, rho = random_band_states(rng, 1000)
        pe, re = kick_cycle(phi, rho, 270.0, paper_train, method="elliptic")
        ps, rs = kick_cycle(phi, rho, 270.0, paper_train, method="symplectic")
        assert np.max(circular_diff(pe, ps)) <= 1e-6
        assert np.max(np.abs(re - rs)) <= 1e-6

    def test_deep_libration_and_fast_rotation(self):
        phi = np.array([0.3, 0.1, 2.0, 5.0])
        rho = np.array([0.5, -2.0, 40.0, -55.0])
        pe, re = pendulum_segment(phi, rho, 280.0, 0.05, method="elliptic")
        ps, rs = pendulum_segment(phi, rho, 280.0, 0.05, method="symplectic")
        assert np.max(circular_diff(pe, ps)) < 1e-8
        assert np.max(np.abs(re - rs)) < 1e-8


class TestEnsemble:
    def test_mismatched_shapes_raise(self):
        with pytest.raises(ParameterError):
            ClassicalEnsemble(np.zeros(3), np.zeros(4))

    def test_thermal_moments(self):
        p = SimParams(kick_strength=5.0, scaled_planck=2.6, n_trajectories=200_000,
                      rng_seed=5, init_momentum_sigma=4.0)
        ens = thermal_ensemble(p)
        assert np.all((ens.phi >= 0) & (ens.phi < TWO_PI))
        assert ens.rho.std() == pytest.approx(4.0, rel=0.02)
        assert ens.rho.mean() == pytest.approx(0.0, abs=0.05)

    def test_zero_kick_preserves_rho_bitwise(self, paper_train):
        p = SimParams(kick_strength=0.0, scaled_planck=2.6, n_trajectories=100, rng_seed=1)
        ens = thermal_ensemble(p)
        rec = evolve_ensemble(ens, p, paper_train, n_kicks=5)
        assert np.array_equal(rec.rho[-1], ens.rho)

    def test_snapshot_recording(self, paper_train):
        p = SimParams(kick_strength=5.0, scaled_planck=2.6, n_trajectories=50, rng_seed=1)
        rec = evolve_ensemble(ens := thermal_ensemble(p), p, paper_train, n_kicks=6,
                              method="elliptic", record_every=2)
        assert list(rec.kicks) == [0, 2, 4, 6]
        assert rec.phi.shape == (4, 50)
        assert np.array_equal(rec.rho[0], ens.rho)

    def test_reflection_symmetry_of_cycle(self, paper_train):
        rng = np.random.default_rng(13)
        phi, rho = random_band_states(rng, 300)
        p1, r1 = kick_cycle(phi, rho, 270.0, paper_train, method="elliptic")
        p2, r2 = kick_cycle(np.mod(-phi, TWO_PI), -rho, 270.0, paper_train, method="elliptic")
        assert np.max(circular_diff(p2, np.mod(-p1, TWO_PI))) < 1e-7
        assert np.max(np.abs(r1 + r2)) < 1e-7

    def test_kam_confinement_short(self, paper_train):
        # Quick version of the unbroken-torus check; the full 10^3-kick run
        # lives in the acceptance suite.
        rng = np.random.default_rng(0)
        n = 2000
        phi = rng.uniform(0, TWO_PI, n)
        rho = rng.uniform(-(10 * np.pi - 5), 10 * np.pi - 5, n)
        for _ in range(100):
            phi, rho = kick_cycle(phi, rho, 5.0, paper_train, method="elliptic")
        assert np.all(np.abs(rho) < 10 * np.pi)

    def test_per_trajectory_kick_spread(self, paper_train):
        p = SimParams(kick_strength=270.0, scaled_planck=2.6, n_trajectories=500,
                      rng_seed=9, kick_spread_rms=0.06)
        rec = evolve_ensemble(thermal_ensemble(p), p, paper_train, n_kicks=2, method="elliptic")
        assert rec.rho.shape == (3, 500)


class TestPoincare:
    def test_zero_kick_horizontal_lines(self, paper_train):
        seeds = [(0.0, 2.0), (1.0, -7.0)]
        pts = poincare_section(seeds, 0.0, paper_train, 50)
        for _, rho0 in seeds:
            assert np.all(np.abs(pts[np.isclose(pts[:, 1], rho0), 1] - rho0) < 1e-12)

    def test_empty_seeds_raise(self, paper_train):
        with pytest.raises(ParameterError):
            poincare_section(np.empty((0, 2)), 5.0, paper_train, 10)

    def test_island_present_only_where_coefficient_nonzero(self, paper_train):
        # At low kick strength, orbits launched on a primary resonance with
        # a_m != 0 (m=4) librate with a momentum excursion of order the
        # resonance width, while near the missing resonance (m=5) the motion
        # stays nearly integrable with a much smaller excursion.
        k = 5.0
        excursions = {}
        for m in (4, 5):
            seeds = np.column_stack([np.linspace(0, TWO_PI, 16, endpoint=False),
                                     np.full(16, 2 * np.pi * m)])
            rho = poincare_section(seeds, k, paper_train, 400)[:, 1].reshape(-1, 16)
            excursions[m] = np.max(rho.max(axis=0) - rho.min(axis=0))
        assert excursions[4] > 3.0 * excursions[5]

    def test_broken_cantorus_at_large_k(self, paper_train):
        # At k ~ 300 a chaotic orbit seeded just inside rho = 10*pi wanders
        # past it: no invariant curve survives there.
        seeds = np.column_stack([np.linspace(0.1, TWO_PI, 8, endpoint=False),
                                 np.full(8, 10 * np.pi - 2.0)])
        pts = poincare_section(seeds, 300.0, paper_train, 200)
        assert np.any(pts[:, 1] > 10 * np.pi + 2)


class TestCantorusFlux:
    def test_unbroken_torus_blocks_transport(self, paper_train):
        # The handful of counts that do occur come from the wiggle of the
        # invariant curve around the flat line rho = 10*pi, not transport.
        with pytest.raises(StatisticsError) as exc:
            cantorus_flux(5.0, paper_train, 10 * np.pi, n_seeds=20_000, n_replicates=2)
        assert exc.value.count < 20

    def test_flux_symmetric_in_boundary_sign(self, paper_train):
        up = cantorus_flux(280.0, paper_train, 10 * np.pi, n_seeds=40_000, n_replicates=4, rng_seed=1)
        down = cantorus_flux(280.0, paper_train, -10 * np.pi, n_seeds=40_000, n_replicates=4, rng_seed=2)
        # |flux| through +10*pi equals that through -10*pi within statistics;
        # through -10*pi the "outward" direction is toward more negative rho,
        # but the counting is direction-agnostic.
        err = 3 * np.hypot(up.stderr, down.stderr)
        assert abs(up.flux - down.flux) < max(err, 0.1 * up.flux)


class TestSegmentInput:
    @pytest.mark.parametrize("k", [-5.0, np.nan, np.inf, np.array([1.0, -1.0, 2.0, 3.0]),
                                   np.array([1.0, np.nan, 2.0, 3.0]), np.ones(3), np.ones((4, 1))],
                             ids=["negative", "nan", "inf", "array-negative", "array-nan",
                                  "array-short", "array-2d"])
    @pytest.mark.parametrize("method", ["elliptic", "symplectic"])
    def test_bad_k_raises(self, k, method):
        with pytest.raises(ParameterError):
            pendulum_segment(np.zeros(4), np.ones(4), k, 0.1, method=method)

    @pytest.mark.parametrize("duration", [-0.1, np.nan, np.inf])
    def test_bad_duration_raises(self, duration):
        with pytest.raises(ParameterError):
            pendulum_segment(np.zeros(4), np.ones(4), 10.0, duration)

    def test_mismatched_phi_rho_raise(self):
        with pytest.raises(ParameterError):
            pendulum_segment(np.zeros(4), np.ones(5), 10.0, 0.1)

    def test_elliptic_zero_entries_drift(self):
        rng = np.random.default_rng(17)
        phi, rho = random_band_states(rng, 400)
        k = np.where(rng.uniform(size=400) < 0.5, 0.0, 270.0)
        k[:2] = 0.0
        rho[0] = 0.0
        p, r = pendulum_segment(phi, rho, k, 1 / 20, method="elliptic")
        free = k == 0.0
        pd, rd = drift_segment(phi[free], rho[free], 1 / 20)
        assert np.array_equal(p[free], pd) and np.array_equal(r[free], rd)
        pk, rk = pendulum_segment(phi[~free], rho[~free], 270.0, 1 / 20, method="elliptic")
        assert np.array_equal(p[~free], pk) and np.array_equal(r[~free], rk)

    def test_clipped_kick_spread_runs_elliptic(self, paper_train):
        # kick_spread_rms = 0.5 clips about 2% of the kick strengths to 0.
        p = SimParams(kick_strength=270.0, scaled_planck=2.6, n_trajectories=2000,
                      rng_seed=3, kick_spread_rms=0.5)
        rec = evolve_ensemble(thermal_ensemble(p), p, paper_train, n_kicks=5, method="elliptic")
        assert np.all(np.isfinite(rec.phi)) and np.all(np.isfinite(rec.rho))


def separatrix_seeded(n, k, seed):
    """Random band states with every 500th trajectory within 1e-12 of its separatrix."""
    rng = np.random.default_rng(seed)
    phi, rho = random_band_states(rng, n)
    idx = np.arange(0, n, 500)
    ks = k[idx] if np.ndim(k) else k
    phin = np.mod(phi[idx] + np.pi, TWO_PI) - np.pi
    sign = np.where(rng.uniform(size=idx.size) < 0.5, -1.0, 1.0)
    rho[idx] = sign * np.sqrt(2.0 * ks * (1.0 + np.cos(phin))) * (1.0 + 1e-12 * rng.uniform(-1, 1, idx.size))
    energy = 0.5 * rho[idx] ** 2 - ks * np.cos(phin)
    assert np.all(np.abs((energy + ks) / (2.0 * ks) - 1.0) < 1e-9)
    return phi, rho


def single_call(phi, rho, k, duration, method):
    if method == "elliptic":
        return classical._pendulum_elliptic(phi, rho, k, duration)
    p, r = classical._pendulum_symplectic(phi, rho, k, duration)
    return np.mod(p, TWO_PI), r


class TestCoreSplit:
    """The core split returns the bytes of one kernel call.

    Blocks hold at least 2731 trajectories (8193 in three), so every block
    carries near-separatrix seeds and runs the substep fallback on a worker.
    """

    @pytest.mark.parametrize("n", [8192, 8193, 10_000, 100_000])
    @pytest.mark.parametrize("per_trajectory", [False, True], ids=["scalar-k", "array-k"])
    @pytest.mark.parametrize("method", ["elliptic", "symplectic"])
    def test_bitwise_equal_to_one_call(self, monkeypatch, n, per_trajectory, method):
        monkeypatch.setattr(classical, "_WORKERS", 2)
        k = 270.0 * (1.0 + 0.06 * np.random.default_rng(n).standard_normal(n)) if per_trajectory else 270.0
        phi, rho = separatrix_seeded(n, k, n)
        p, r = pendulum_segment(phi, rho, k, 1 / 20, method=method)
        p1, r1 = single_call(phi, rho, k, 1 / 20, method)
        assert np.array_equal(p, p1) and np.array_equal(r, r1)

    def test_worker_count_does_not_change_output(self, monkeypatch):
        n = 100_000
        k = 270.0 * (1.0 + 0.06 * np.random.default_rng(1).standard_normal(n))
        phi, rho = separatrix_seeded(n, k, 1)
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(classical, "_WORKERS", workers)
            outputs.append(np.concatenate(pendulum_segment(phi, rho, k, 1 / 20, method="elliptic")))
        assert all(o.tobytes() == outputs[0].tobytes() for o in outputs[1:])

    @pytest.mark.parametrize("method", ["elliptic", "symplectic"])
    def test_public_functions_stay_on_calling_thread(self, monkeypatch, paper_train, method):
        # Wrapped the way a span tracer wraps them: the wrapper replaces the
        # module attribute, so calls through module globals are seen too.
        monkeypatch.setattr(classical, "_WORKERS", 2)
        calls = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.current_thread()))
                return fn(*args, **kwargs)
            return wrapper

        public = [name for name, fn in vars(classical).items()
                  if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == classical.__name__]
        for name in public + ["_pendulum_elliptic", "_pendulum_symplectic"]:
            monkeypatch.setattr(classical, name, recording(name, getattr(classical, name)))
        phi, rho = random_band_states(np.random.default_rng(5), 20_000)
        classical.kick_cycle(phi, rho, 270.0, paper_train, method=method)

        main = threading.main_thread()
        names = {name for name, _ in calls}
        assert {"kick_cycle", "pendulum_segment", "drift_segment"} <= names
        assert all(thread is main for name, thread in calls if name in public)
        assert any(thread is not main for name, thread in calls if name not in public)
