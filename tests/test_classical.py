import inspect
import threading
from fractions import Fraction

import numpy as np
import pytest

from cantori import classical
from cantori.classical import (
    ClassicalEnsemble,
    NumericalDomainError,
    StatisticsError,
    cantorus_flux,
    evolve_ensemble,
    kick_cycle,
    pendulum_segment,
    poincare_section,
    thermal_ensemble,
)
from cantori.model import ParameterError, SimParams, build_pulse_train

TWO_PI = 2 * np.pi


def pendulum_energy(phi, rho, k):
    return 0.5 * rho**2 - k * np.cos(phi)


def circular_diff(a, b):
    return np.abs(np.mod(a - b + np.pi, TWO_PI) - np.pi)


def random_band_states(rng, n, rho_max=40.0):
    return rng.uniform(0, TWO_PI, n), rng.uniform(-rho_max, rho_max, n)


class TestDrift:
    """Free drift: a pendulum segment at k = 0."""

    def test_full_winding(self):
        phi, rho = pendulum_segment(np.array([0.0]), np.array([TWO_PI]), 0.0, 1.0)
        assert phi[0] == pytest.approx(0.0, abs=1e-12)
        assert rho[0] == TWO_PI

    def test_half_period(self):
        phi, rho = pendulum_segment(np.array([0.0]), np.array([np.pi]), 0.0, 0.5)
        assert phi[0] == pytest.approx(np.pi / 2)
        assert rho[0] == np.pi

    def test_rho_preserved_bitwise(self):
        rng = np.random.default_rng(3)
        phi, rho = random_band_states(rng, 100)
        _, rho2 = pendulum_segment(phi, rho, 0.0, 0.37)
        assert np.array_equal(rho, rho2)

    @pytest.mark.parametrize("duration", [np.nan, np.inf, -np.inf, -1.0], ids=["nan", "inf", "-inf", "negative"])
    def test_bad_duration_raises(self, duration):
        with pytest.raises(ParameterError, match=r"^duration must be finite and >= 0, got "):
            pendulum_segment(np.array([1.0]), np.array([1.0]), 0.0, duration)


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
        assert np.array_equal(p, np.mod(phi + rho * 0.25, TWO_PI)) and np.array_equal(r, rho)


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

    def test_negative_zero_width_is_zero_width(self):
        p = SimParams(kick_strength=5.0, scaled_planck=2.6, n_trajectories=10, rng_seed=1, init_momentum_sigma=-0.0)
        assert np.array_equal(thermal_ensemble(p).rho, np.zeros(10))

    def test_zero_kick_preserves_rho_bitwise(self, paper_train):
        p = SimParams(kick_strength=0.0, scaled_planck=2.6, n_trajectories=100, rng_seed=1)
        ens = thermal_ensemble(p)
        rec = evolve_ensemble(ens, p, paper_train, n_kicks=5)
        assert np.array_equal(rec.rho[-1], ens.rho)

    def test_snapshot_recording(self, paper_train):
        p = SimParams(kick_strength=5.0, scaled_planck=2.6, n_trajectories=50, rng_seed=1)
        rec = evolve_ensemble(ens := thermal_ensemble(p), p, paper_train, n_kicks=6, method="elliptic")
        assert list(rec.kicks) == [0, 1, 2, 3, 4, 5, 6]
        assert rec.phi.shape == rec.rho.shape == (7, 50)
        assert np.array_equal(rec.rho[0], ens.rho)

    def test_negative_kicks_raise(self, paper_train):
        p = SimParams(kick_strength=5.0, scaled_planck=2.6, n_trajectories=10, rng_seed=1)
        with pytest.raises(ParameterError, match="n_kicks"):
            evolve_ensemble(thermal_ensemble(p), p, paper_train, n_kicks=-3)

    def test_reflection_symmetry_of_cycle(self, paper_train):
        rng = np.random.default_rng(13)
        phi, rho = random_band_states(rng, 300)
        p1, r1 = kick_cycle(phi, rho, 270.0, paper_train, method="elliptic")
        p2, r2 = kick_cycle(np.mod(-phi, TWO_PI), -rho, 270.0, paper_train, method="elliptic")
        assert np.max(circular_diff(p2, np.mod(-p1, TWO_PI))) < 1e-7
        assert np.max(np.abs(r1 + r2)) < 1e-7

    @pytest.mark.parametrize("method", ["elliptic", "symplectic"])
    def test_kick_cycle_is_its_segment_calls(self, paper_train, method):
        """One cycle is the public segment calls in schedule order, bit for bit;
        phi outside [0, 2*pi) is not wrapped before the first segment."""
        rng = np.random.default_rng(17)
        phi, rho = rng.uniform(-20.0, 20.0, 1000), rng.uniform(-40.0, 40.0, 1000)
        p, r = kick_cycle(phi, rho, 270.0, paper_train, method=method)
        for dur, driven in paper_train.segments:
            phi, rho = pendulum_segment(phi, rho, 270.0 if driven else 0.0, float(dur), method=method)
        assert np.array_equal(p, phi) and np.array_equal(r, rho)

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


class TestPoincare:
    def test_zero_kick_horizontal_lines(self, paper_train):
        seeds = [(0.0, 2.0), (1.0, -7.0)]
        pts = poincare_section(seeds, 0.0, paper_train, 50)
        for _, rho0 in seeds:
            assert np.all(np.abs(pts[np.isclose(pts[:, 1], rho0), 1] - rho0) < 1e-12)

    def test_empty_seeds_raise(self, paper_train):
        with pytest.raises(ParameterError):
            poincare_section(np.empty((0, 2)), 5.0, paper_train, 10)

    def test_negative_kicks_raise(self, paper_train):
        with pytest.raises(ParameterError, match="n_kicks"):
            poincare_section([(0.0, 2.0)], 5.0, paper_train, -2)

    @pytest.mark.parametrize("seeds", [np.zeros((3, 3)), [0.0, 1.0, 2.0], np.zeros((4, 1)), np.zeros((2, 2, 2))],
                             ids=["three-columns", "one-triple", "one-column", "three-axes"])
    def test_seed_shape_raises(self, paper_train, seeds):
        with pytest.raises(ParameterError, match="shape"):
            poincare_section(seeds, 5.0, paper_train, 3)

    def test_points_are_the_ensemble_snapshots(self, paper_train):
        """The section is evolve_ensemble's elliptic snapshots, kick by kick, bit for bit."""
        seeds = np.column_stack([np.linspace(-1.0, 8.0, 7), np.linspace(-40.0, 40.0, 7)])
        pts = poincare_section(seeds, 270.0, paper_train, 12)
        p = SimParams(kick_strength=270.0, scaled_planck=2.6)
        rec = evolve_ensemble(ClassicalEnsemble(seeds[:, 0], seeds[:, 1]), p, paper_train, n_kicks=12, method="elliptic")
        assert pts.shape == (13 * 7, 2)
        assert np.array_equal(pts, np.stack([rec.phi, rec.rho], axis=-1).reshape(-1, 2))

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

    @pytest.mark.parametrize("n_seeds,n_replicates", [(0, 2), (-5, 2), (1000, 0)],
                             ids=["no-seeds", "negative-seeds", "no-replicates"])
    def test_bad_counts_raise(self, paper_train, n_seeds, n_replicates):
        with pytest.raises(ParameterError, match="n_seeds >= 1 and n_replicates >= 1"):
            cantorus_flux(280.0, paper_train, 10 * np.pi, n_seeds=n_seeds, n_replicates=n_replicates)

    @pytest.mark.parametrize("boundary,rng_seed", [(10 * np.pi, -1), (np.nan, 0), (np.inf, 0)],
                             ids=["negative-seed", "nan-boundary", "inf-boundary"])
    def test_bad_seed_or_boundary_raise(self, paper_train, boundary, rng_seed):
        with pytest.raises(ParameterError, match="rng_seed >= 0 and a finite boundary"):
            cantorus_flux(280.0, paper_train, boundary, n_seeds=100, n_replicates=1, rng_seed=rng_seed)

    def test_flux_symmetric_in_boundary_sign(self, paper_train):
        up = cantorus_flux(280.0, paper_train, 10 * np.pi, n_seeds=40_000, n_replicates=4, rng_seed=1)
        down = cantorus_flux(280.0, paper_train, -10 * np.pi, n_seeds=40_000, n_replicates=4, rng_seed=2)
        # |flux| through +10*pi equals that through -10*pi within statistics;
        # through -10*pi the "outward" direction is toward more negative rho,
        # but the counting is direction-agnostic.
        err = 3 * np.hypot(up.stderr, down.stderr)
        assert abs(up.flux - down.flux) < max(err, 0.1 * up.flux)


class TestSegmentInput:
    # k is one scalar: an array is refused, even one of phi's shape.
    @pytest.mark.parametrize("k", [-5.0, np.nan, np.inf, np.array([1.0, -1.0, 2.0, 3.0]),
                                   np.array([1.0, np.nan, 2.0, 3.0]), np.ones(3), np.ones((4, 1)),
                                   np.full(4, 270.0)],
                             ids=["negative", "nan", "inf", "array-negative", "array-nan",
                                  "array-short", "array-2d", "array-valid"])
    @pytest.mark.parametrize("method", ["elliptic", "symplectic"])
    def test_bad_k_raises(self, k, method):
        with pytest.raises(ParameterError):
            pendulum_segment(np.zeros(4), np.ones(4), k, 0.1, method=method)

    @pytest.mark.parametrize("duration", [-0.1, np.nan, np.inf])
    def test_bad_duration_raises(self, duration):
        with pytest.raises(ParameterError):
            pendulum_segment(np.zeros(4), np.ones(4), 10.0, duration)

    # The early returns for a zero duration and for k = 0 come after the backend check.
    @pytest.mark.parametrize("k, duration", [(10.0, 0.1), (0.0, 0.1), (10.0, 0.0)],
                             ids=["driven", "zero-k", "zero-duration"])
    def test_unknown_method_raises(self, k, duration):
        with pytest.raises(ParameterError, match="unknown pendulum backend"):
            pendulum_segment(np.zeros(2), np.ones(2), k, duration, method="bogus")

    def test_mismatched_phi_rho_raise(self):
        with pytest.raises(ParameterError):
            pendulum_segment(np.zeros(4), np.ones(5), 10.0, 0.1)


def separatrix_seeded(n, k, seed, lead=0.0):
    """Random band states with every 500th trajectory within 1e-12 of its
    separatrix once a leading drift of duration lead has run."""
    rng = np.random.default_rng(seed)
    phi, rho = random_band_states(rng, n)
    idx = np.arange(0, n, 500)
    phin = np.mod(phi[idx] + np.pi, TWO_PI) - np.pi
    sign = np.where(rng.uniform(size=idx.size) < 0.5, -1.0, 1.0)
    rho[idx] = sign * np.sqrt(2.0 * k * (1.0 + np.cos(phin))) * (1.0 + 1e-12 * rng.uniform(-1, 1, idx.size))
    phi[idx] = np.mod(phin - rho[idx] * lead, TWO_PI)
    at_pulse = np.mod(phi[idx] + rho[idx] * lead, TWO_PI)
    energy = 0.5 * rho[idx] ** 2 - k * np.cos(at_pulse)
    assert np.all(np.abs((energy + k) / (2.0 * k) - 1.0) < 1e-9)
    return phi, rho


def single_call(phi, rho, k, duration, method):
    if method == "elliptic":
        return classical._pendulum_elliptic(phi, rho, k, duration)
    p, r = classical._pendulum_symplectic(phi, rho, k, duration)
    return np.mod(p, TWO_PI), r


# One pulse of width 1/10 between two dark segments of 0.45: one pendulum segment per cycle.
ONE_PULSE = build_pulse_train(Fraction(1, 20), Fraction(1, 20))


class TestCoreSplit:
    """The run-level split returns the bytes of an inline run.

    Runs of more than 8192 trajectories are cut once into blocks, and each
    block runs every kick cycle on a pool worker.  Blocks hold at least 2731
    trajectories (8193 in three), so with separatrix_seeded every block
    carries near-separatrix seeds and runs the substep fallback on a worker.
    """

    @pytest.mark.parametrize("n", [8192, 8193, 10_000, 100_000])
    @pytest.mark.parametrize("k", [270.0], ids=["scalar-k"])
    @pytest.mark.parametrize("method", ["elliptic", "symplectic"])
    def test_bitwise_equal_to_one_call(self, monkeypatch, n, k, method):
        """kick_cycle on two workers equals one kernel call per segment on the whole ensemble."""
        monkeypatch.setattr(classical, "_WORKERS", 2)
        (lead, _), (pulse, _), (tail, _) = ONE_PULSE.segments
        phi, rho = separatrix_seeded(n, k, n, float(lead))
        p, r = kick_cycle(phi, rho, k, ONE_PULSE, method=method)
        p1, r1 = single_call(np.mod(phi + rho * float(lead), TWO_PI), rho, k, float(pulse), method)
        p1 = np.mod(p1 + r1 * float(tail), TWO_PI)
        assert np.array_equal(p, p1) and np.array_equal(r, r1)

    def test_worker_count_does_not_change_output(self, monkeypatch, paper_train):
        """evolve_ensemble (both backends, on the one-pulse train to keep the
        symplectic cost down), kick_cycle and cantorus_flux give the same bytes
        on 1, 2 and 3 workers."""
        lead = float(ONE_PULSE.segments[0][0])
        states = {n: separatrix_seeded(n, 270.0, n, lead) for n in (8192, 8193, 10_000)}
        p = SimParams(kick_strength=270.0, scaled_planck=2.6)
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(classical, "_WORKERS", workers)
            out = []
            for method, n_kicks in (("elliptic", 3), ("symplectic", 1)):
                for phi, rho in states.values():
                    rec = evolve_ensemble(ClassicalEnsemble(phi, rho), p, ONE_PULSE, n_kicks, method=method)
                    out += [rec.phi, rec.rho]
            out += kick_cycle(*states[10_000], 270.0, paper_train, method="elliptic")
            out.append(cantorus_flux(280.0, paper_train, 10 * np.pi, n_seeds=20_000, n_replicates=2).samples)
            outputs.append(b"".join(np.ascontiguousarray(o).tobytes() for o in out))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_separatrix_fallback_runs_on_the_workers(self, monkeypatch, paper_train):
        monkeypatch.setattr(classical, "_WORKERS", 3)
        kernel, calls = classical._pendulum_symplectic, []

        def recording(phi, *args):
            calls.append((threading.current_thread(), len(phi)))
            return kernel(phi, *args)

        monkeypatch.setattr(classical, "_pendulum_symplectic", recording)
        phi, rho = separatrix_seeded(8193, 270.0, 8193, float(paper_train.segments[0][0]))
        kick_cycle(phi, rho, 270.0, paper_train, method="elliptic")
        threads = {thread for thread, _ in calls}
        assert threading.main_thread() not in threads
        # All 17 seeds enter the first pulse on the separatrix, at least 5 in each of the 3 blocks.
        assert sum(size for _, size in calls) >= 17 and len(calls) >= 3

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
        p = SimParams(kick_strength=270.0, scaled_planck=2.6)
        classical.evolve_ensemble(ClassicalEnsemble(phi, rho), p, paper_train, 1, method=method)
        classical.cantorus_flux(270.0, paper_train, 10 * np.pi, n_seeds=20_000, n_replicates=1)

        main = threading.main_thread()
        names = {name for name, _ in calls}
        # The runner makes no public segment calls.
        assert {"evolve_ensemble", "cantorus_flux", "kick_cycle"} <= names
        assert "pendulum_segment" not in names
        assert all(thread is main for name, thread in calls if name in public)
        assert all(thread is not main for name, thread in calls if name not in public)

    def test_workers_keep_the_callers_errstate(self, monkeypatch, paper_train):
        """Under np.errstate(all="raise") an overflow raises FloatingPointError
        whether the trajectories run inline (4000) or on two workers (20,000)."""
        monkeypatch.setattr(classical, "_WORKERS", 2)
        for n in (4000, 20_000):
            phi, rho = random_band_states(np.random.default_rng(1), n)
            rho[n // 2] = 1e300
            with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
                kick_cycle(phi, rho, 270.0, paper_train, method="elliptic")

    def test_non_finite_state_on_a_worker_raises_in_the_caller(self, monkeypatch, paper_train):
        """A NaN that a block's kernel returns mid-run fails the finiteness check
        before that block's next pulse; the caller raises once every block is done."""
        monkeypatch.setattr(classical, "_WORKERS", 2)
        kernel, lock, threads = classical._pendulum_elliptic, threading.Lock(), []

        def poisoned(*args):
            phi, rho = kernel(*args)
            with lock:
                threads.append(threading.current_thread())
                if len(threads) == 5:
                    rho[0] = np.nan
            return phi, rho

        monkeypatch.setattr(classical, "_pendulum_elliptic", poisoned)
        phi, rho = random_band_states(np.random.default_rng(9), 20_000)
        p = SimParams(kick_strength=270.0, scaled_planck=2.6)
        with pytest.raises(NumericalDomainError, match="non-finite phase-space input"):
            evolve_ensemble(ClassicalEnsemble(phi, rho), p, paper_train, 10, method="elliptic")
        assert threading.main_thread() not in threads
        # Four blocks of 5000: the poisoned block stops at its next pulse, after
        # at most 5 kernel calls, and the other three run all 20 of theirs.
        assert 3 * 20 < len(threads) <= 3 * 20 + 5
