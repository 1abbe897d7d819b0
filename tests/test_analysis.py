"""Tests for transport metrics."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import erfc

from cantori.analysis import (
    TransportCurve,
    fraction_outside_quantum,
    transport_curve_classical,
    transport_curve_quantum,
)
from cantori.classical import ClassicalEnsemble, TrajectoryRecord, thermal_ensemble
from cantori.model import ParameterError, SimParams


def fraction_outside_classical(ensemble, boundary):
    """Fraction of trajectories with |rho| beyond the boundary."""
    if ensemble.phi.size == 0:
        raise ParameterError("empty ensemble")
    return float(np.mean(np.abs(ensemble.rho) > boundary))


class TestFractionOutsideClassical:
    def test_explicit(self):
        ens = ClassicalEnsemble(np.zeros(4), np.array([1.0, -5.0, 3.0, 0.0]))
        assert fraction_outside_classical(ens, 2.0) == 0.5

    def test_empty_raises(self):
        ens = ClassicalEnsemble(np.zeros(0), np.zeros(0))
        with pytest.raises(ParameterError):
            fraction_outside_classical(ens, 1.0)

    def test_gaussian_tail_oracle(self):
        """Thermal ensemble tail mass vs the closed-form erfc weight."""
        sigma, boundary = 10.0, 10.0 * np.pi
        params = SimParams(
            kick_strength=270.0,
            scaled_planck=2.6,
            n_trajectories=1_000_000,
            init_momentum_sigma=sigma,
            rng_seed=42,
        )
        ens = thermal_ensemble(params)
        expected = erfc(boundary / (sigma * math.sqrt(2.0)))
        got = fraction_outside_classical(ens, boundary)
        assert got == pytest.approx(expected, rel=0.1)


class TestFractionOutsideQuantum:
    def test_straddling_bin_interpolation(self):
        """Site n = 5 at hbar_k = 2 occupies [9, 11); the boundary slices it."""
        N = 16
        p = np.zeros(N)
        p[5 + N // 2] = 1.0
        assert fraction_outside_quantum(p, 2.0, 9.0) == pytest.approx(1.0)
        assert fraction_outside_quantum(p, 2.0, 10.0) == pytest.approx(0.5)
        assert fraction_outside_quantum(p, 2.0, 10.5) == pytest.approx(0.25)
        assert fraction_outside_quantum(p, 2.0, 11.0) == pytest.approx(0.0)

    def test_uniform_ladder(self):
        """Uniform populations at the production grid, oracle assembled by
        counting whole bins plus the sliced pair."""
        N, hbar_k, boundary = 128, 2.6, 10.0 * np.pi
        p = np.full(N, 1.0 / N)
        whole = sum(1 for n in range(-N // 2, N // 2) if (abs(n) - 0.5) * hbar_k >= boundary)
        sliced = 2 * ((12.5 * hbar_k - boundary) / hbar_k)
        expected = (whole + sliced) / N
        got = fraction_outside_quantum(p, hbar_k, boundary)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.8112, abs=2e-4)

    @given(
        boundaries=st.tuples(
            st.floats(0.1, 20.0), st.floats(0.1, 20.0)
        ),
        seed=st.integers(0, 2**16),
    )
    def test_monotone_in_boundary(self, boundaries, seed):
        rng = np.random.default_rng(seed)
        p = rng.random(16)
        p /= p.sum()
        b1, b2 = sorted(boundaries)
        assert fraction_outside_quantum(p, 2.6, b1) >= fraction_outside_quantum(p, 2.6, b2) - 1e-12

    @pytest.mark.parametrize("N", [16, 128, 512])
    def test_rows_are_one_row_calls(self, N):
        """A (K, N) array gives, bit for bit, the K one-row results, and so does the transport curve."""
        rng = np.random.default_rng(N)
        pops = rng.random((71, N))
        pops /= pops.sum(axis=1, keepdims=True)
        rows = np.array([fraction_outside_quantum(p, 2.6, 10.0 * np.pi) for p in pops])
        assert np.array_equal(fraction_outside_quantum(pops, 2.6, 10.0 * np.pi), rows)
        rec = SimpleNamespace(kicks=np.arange(71), populations=pops)
        assert np.array_equal(transport_curve_quantum(rec, 2.6, 10.0 * np.pi).fraction_outside, rows)

    def test_continuous_across_bin_edge(self):
        p = np.full(16, 1.0 / 16)
        edge = 4.5 * 2.6
        lo = fraction_outside_quantum(p, 2.6, edge - 1e-9)
        hi = fraction_outside_quantum(p, 2.6, edge + 1e-9)
        assert abs(lo - hi) < 1e-8


class TestTransportCurve:
    def test_validation(self):
        with pytest.raises(ParameterError):
            TransportCurve(np.arange(3), np.zeros(2))
        with pytest.raises(ParameterError):
            TransportCurve(np.arange(2), np.array([0.5, 1.5]))

    def test_from_trajectory_record(self):
        rec = TrajectoryRecord(
            kicks=np.array([0, 1]),
            phi=np.zeros((2, 4)),
            rho=np.array([[0.0, 1.0, 5.0, -5.0], [5.0, 5.0, 5.0, 0.0]]),
        )
        curve = transport_curve_classical(rec, 2.0)
        assert np.array_equal(curve.kicks, [0, 1])
        assert np.allclose(curve.fraction_outside, [0.5, 0.75])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_record_raises(self, bad):
        """A NaN once counted as inside: the row [nan, 40] at boundary 10 gave 0.5."""
        rec = TrajectoryRecord(np.array([0]), np.zeros((1, 2)), np.array([[bad, 40.0]]))
        with pytest.raises(ParameterError, match="non-finite"):
            transport_curve_classical(rec, 10.0)

    def test_trajectory_record_without_full_size_copy(self):
        """On the default 71 x 10,000 record (5.4 MiB of rho) the count makes no float
        copy of |rho|: its transient stays under 2 MiB, and the fractions are the
        bits of the mean of |rho| > boundary."""
        rng = np.random.default_rng(4)
        rho = rng.normal(0.0, 15.0, (71, 10_000))
        rec = TrajectoryRecord(np.arange(71), np.zeros_like(rho), rho)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            curve = transport_curve_classical(rec, 10 * np.pi)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20
        assert curve.fraction_outside.tobytes() == np.mean(np.abs(rho) > 10 * np.pi, axis=1).tobytes()

    def test_from_population_record(self):
        N = 16
        p0 = np.zeros(N)
        p0[N // 2] = 1.0
        p1 = np.zeros(N)
        p1[5 + N // 2] = 1.0
        rec = SimpleNamespace(kicks=np.array([0, 1]), populations=np.stack([p0, p1]))
        curve = transport_curve_quantum(rec, 2.0, 9.0)
        assert np.array_equal(curve.kicks, [0, 1])
        assert np.allclose(curve.fraction_outside, [0.0, 1.0])
