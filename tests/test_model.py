import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantori.model import (
    ParameterError,
    PhysicalParams,
    PulseTrain,
    SimParams,
    build_pulse_train,
    physical_to_scaled,
)

from conftest import double_pulse_profile, fourier_coefficient, fourier_integral_oracle

# Caesium D2 constants.
CS_MASS = 2.2069e-25          # kg
CS_WAVELENGTH = 852e-9        # m

# Omega / min(detunings) = 3.1e8 / 2.8e9 = 0.111 > 0.1: building it warns that adiabatic
# elimination may be inaccurate.
CS_PARAMS = dict(
    rabi_frequency=2 * math.pi * 3.1e8,
    detunings=(2 * math.pi * 2.8e9, 2 * math.pi * 3.05e9, 2 * math.pi * 3.25e9),
    wave_number=2 * math.pi / CS_WAVELENGTH,
    atom_mass=CS_MASS,
    pulse_period=25e-6,
)


class TestPhysicalToScaled:
    def test_caesium_scaled_planck_anchor(self):
        # Frozen regression value: 4*hbar*k_L^2*T/M for Cs at T = 25 us.
        with pytest.warns(UserWarning, match="adiabatic"):
            _, hbar_k = physical_to_scaled(PhysicalParams(**CS_PARAMS))
        assert hbar_k == pytest.approx(2.599, abs=5e-4)

    def test_zero_coupling_gives_zero_kick_strength(self):
        p = PhysicalParams(**{**CS_PARAMS, "rabi_frequency": 0.0})
        k, hbar_k = physical_to_scaled(p)
        assert k == 0.0
        assert hbar_k > 0

    def test_period_scaling(self):
        doubled = {**CS_PARAMS, "pulse_period": 2 * CS_PARAMS["pulse_period"]}
        with pytest.warns(UserWarning, match="adiabatic"):
            k1, h1 = physical_to_scaled(PhysicalParams(**CS_PARAMS))
            k2, h2 = physical_to_scaled(PhysicalParams(**doubled))
        assert h2 == pytest.approx(2 * h1, rel=1e-14)
        assert k2 == pytest.approx(4 * k1, rel=1e-14)

    def test_homogeneity_in_coupling_and_detunings(self):
        with pytest.warns(UserWarning, match="adiabatic"):
            k1, _ = physical_to_scaled(PhysicalParams(**CS_PARAMS))
        scale = 3.7
        scaled = {
            **CS_PARAMS,
            "rabi_frequency": CS_PARAMS["rabi_frequency"] * math.sqrt(scale),
            "detunings": tuple(scale * d for d in CS_PARAMS["detunings"]),
        }
        k2, _ = physical_to_scaled(PhysicalParams(**scaled))
        assert k2 == pytest.approx(k1, rel=1e-12)

    @pytest.mark.parametrize("field,value", [
        ("wave_number", 0.0),
        ("atom_mass", -1.0),
        ("pulse_period", 0.0),
        ("rabi_frequency", -1.0),
    ])
    def test_invalid_fields_raise(self, field, value):
        with pytest.raises(ParameterError):
            PhysicalParams(**{**CS_PARAMS, field: value})

    def test_marginal_detuning_warns(self):
        marginal = {**CS_PARAMS, "detunings": tuple(d / 10 for d in CS_PARAMS["detunings"])}
        with pytest.warns(UserWarning, match="adiabatic"):
            PhysicalParams(**marginal)

    def test_marginal_detuning_warning_names_the_caller(self):
        """The warning points at the line that builds PhysicalParams, not at its generated __init__."""
        with pytest.warns(UserWarning, match="adiabatic") as record:
            PhysicalParams(**CS_PARAMS)
        assert record[0].filename == __file__


class TestPulseTrain:
    def test_paper_schedule(self, paper_train):
        durations = [d for d, _ in paper_train.segments]
        driven = [on for _, on in paper_train.segments]
        assert durations == [Fraction(17, 40), Fraction(1, 20), Fraction(1, 20),
                             Fraction(1, 20), Fraction(17, 40)]
        assert driven == [False, True, False, True, False]

    def test_zero_gap_merges_pulses(self):
        train = build_pulse_train(Fraction(1, 20), Fraction(1, 20))
        assert [(d, on) for d, on in train.segments] == [
            (Fraction(9, 20), False),
            (Fraction(1, 10), True),
            (Fraction(9, 20), False),
        ]

    def test_pulses_fill_the_period(self):
        """alpha + delta = 1 leaves no pad; alpha = delta = 1/2 also joins the pulses into one."""
        assert build_pulse_train(Fraction(1, 2), Fraction(1, 2)).segments == ((Fraction(1), True),)
        assert build_pulse_train(Fraction(1, 4), Fraction(3, 4)).segments == (
            (Fraction(1, 4), True), (Fraction(1, 2), False), (Fraction(1, 4), True))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, Fraction(-1, 2)])
    def test_refuses_non_finite_or_negative_durations(self, bad):
        with pytest.raises(ParameterError):
            PulseTrain(((bad, False), (1 - bad, True)))

    def test_durations_sum_to_one_exactly(self):
        for alpha, delta in [(Fraction(1, 7), Fraction(1, 3)), (Fraction(1, 100), Fraction(49, 100))]:
            train = build_pulse_train(alpha, delta)
            assert sum(d for d, _ in train.segments) == 1

    def test_constraint_violations(self):
        with pytest.raises(ParameterError):
            build_pulse_train(Fraction(1, 5), Fraction(1, 10))   # alpha > delta
        with pytest.raises(ParameterError):
            build_pulse_train(Fraction(0), Fraction(1, 10))
        with pytest.raises(ParameterError):
            build_pulse_train(Fraction(2, 5), Fraction(7, 10))   # alpha + delta > 1

    @settings(max_examples=50)
    @given(st.fractions(min_value=Fraction(1, 200), max_value=Fraction(1, 2)),
           st.fractions(min_value=Fraction(1, 200), max_value=Fraction(1, 2)))
    def test_normalization_property(self, a, b):
        alpha, delta = min(a, b), max(a, b)
        if alpha + delta > 1:
            return
        train = build_pulse_train(alpha, delta)
        assert sum(d for d, _ in train.segments) == 1

    def test_profile_duty_cycle(self):
        tau = np.linspace(0, 1, 4001)[:-1]
        assert double_pulse_profile(tau).mean() == pytest.approx(0.1, abs=1e-12)


class TestFourierCoefficient:
    def test_mean_value(self):
        assert fourier_coefficient(0) == pytest.approx(0.1, abs=1e-15)

    @pytest.mark.parametrize("m", [5, -5, 15, -15, 25])
    def test_missing_resonances(self, m):
        assert fourier_coefficient(m) == pytest.approx(0.0, abs=1e-16)

    def test_m10_closed_form(self):
        assert fourier_coefficient(10) == pytest.approx(-1.0 / (5.0 * math.pi), abs=1e-15)

    def test_even_in_m(self):
        for m in range(0, 60):
            assert fourier_coefficient(m) == fourier_coefficient(-m)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 10, 33, 100])
    def test_against_integral_oracle(self, m):
        assert fourier_coefficient(m) == pytest.approx(fourier_integral_oracle(m), abs=1e-9)

    def test_general_shape_against_oracle(self):
        alpha, delta = 1 / 16, 3 / 16
        for m in (0, 1, 4, 8, 13):
            assert fourier_coefficient(m, alpha, delta) == pytest.approx(
                fourier_integral_oracle(m, alpha, delta), abs=1e-9
            )


# Resonance-structure analytics: only these tests use them, so they live here.
def resonance_width(m: int, k: float, alpha=Fraction(1, 20), delta=Fraction(1, 10)) -> float:
    """Full momentum width 4 sqrt(|a_m| k) of the primary resonance at rho = 2 pi m."""
    if not k > 0:
        raise ParameterError(f"kick strength must be > 0, got {k}")
    return 4.0 * math.sqrt(abs(fourier_coefficient(m, alpha, delta)) * k)


def chirikov_overlap(m: int, n: int, k: float, alpha=Fraction(1, 20), delta=Fraction(1, 10)) -> bool:
    """True when the m-th and n-th primary resonances satisfy the overlap condition.

    Resonance centers sit at rho = 2 pi m; overlap when the half-widths
    bridge the separation: 2 pi |m - n| <= 2 sqrt(|a_m| k) + 2 sqrt(|a_n| k).
    """
    if m == n:
        raise ParameterError("resonance indices must differ")
    half = resonance_width(m, k, alpha, delta) / 2 + resonance_width(n, k, alpha, delta) / 2
    return 2.0 * math.pi * abs(m - n) <= half


class TestResonanceStructure:
    def test_width_examples(self):
        assert resonance_width(5, 123.0) == 0.0
        assert resonance_width(0, 280.0) == pytest.approx(4 * math.sqrt(28), rel=1e-12)
        assert resonance_width(10, 280.0) == pytest.approx(4 * math.sqrt(280 / (5 * math.pi)), rel=1e-12)

    def test_width_requires_positive_k(self):
        with pytest.raises(ParameterError):
            resonance_width(1, 0.0)

    def test_chirikov_vanishing_k(self):
        assert not chirikov_overlap(0, 1, 1e-12)

    def test_chirikov_large_k(self):
        assert chirikov_overlap(0, 1, 280.0)

    def test_chirikov_across_missing_resonance(self):
        # m=4 and m=6 bracket the missing m=5 resonance; their widths at
        # k=280 do not bridge the 4*pi gap (the overlap estimate is more
        # conservative than the observed breakup of the rho = 10*pi torus).
        half = resonance_width(4, 280.0) / 2 + resonance_width(6, 280.0) / 2
        assert chirikov_overlap(4, 6, 280.0) == (half >= 4 * math.pi)

    def test_chirikov_same_index_raises(self):
        with pytest.raises(ParameterError):
            chirikov_overlap(3, 3, 280.0)


class TestSimParams:
    def test_defaults_valid(self):
        p = SimParams(kick_strength=270.0, scaled_planck=2.6)
        assert p.basis_size == 128

    @pytest.mark.parametrize("kwargs", [
        dict(kick_strength=-1.0, scaled_planck=2.6),
        dict(kick_strength=270.0, scaled_planck=0.0),
        dict(kick_strength=270.0, scaled_planck=2.6, se_probability=1.5),
        dict(kick_strength=270.0, scaled_planck=2.6, basis_size=127),
        dict(kick_strength=270.0, scaled_planck=2.6, pulse_width=Fraction(1, 5), pulse_spacing=Fraction(1, 10)),
        dict(kick_strength=270.0, scaled_planck=2.6, n_trajectories=0),
        dict(kick_strength=math.inf, scaled_planck=2.6),
        dict(kick_strength=270.0, scaled_planck=math.inf),
        dict(kick_strength=270.0, scaled_planck=2.6, init_momentum_sigma=math.nan),
        dict(kick_strength=270.0, scaled_planck=2.6, init_momentum_sigma=math.inf),
        dict(kick_strength=270.0, scaled_planck=2.6, kick_spread_rms=0.05),
        dict(kick_strength=270.0, scaled_planck=2.6, kick_spread_rms=math.nan),
        dict(kick_strength=270.0, scaled_planck=2.6, rng_seed=-1),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            SimParams(**kwargs)
