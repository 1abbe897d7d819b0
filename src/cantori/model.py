"""Parameter model for the double-pulse driven rotor.

Converts laboratory parameters (Rabi frequency, detunings, pulse period) to
the two dimensionless numbers that control the dynamics: the kick strength k
and the scaled Planck constant hbar_k.  Also holds the pulse-train schedule.
The train's Fourier coefficients, whose zeros are the missing resonances of
the double-pulse drive, are a reference in the tests (tests/conftest.py).

Dimensionless variables: phi = 2 k_L x, rho = (2 k_L T / M) p_x, tau = t / T.
The one-cycle Hamiltonian is H = rho^2/2 - k cos(phi) f(tau) with f the
double-pulse profile (two unit pulses of width alpha, centers separated
by delta, per period).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

HBAR = 1.054571817e-34  # J s

# Line strengths for the caesium F=4 -> F'=5,4,3 transitions, assuming
# equal Zeeman sub-level populations.
LINE_STRENGTHS = (Fraction(11, 27), Fraction(7, 36), Fraction(7, 108))


class ParameterError(ValueError):
    """Invalid physical or simulation parameter."""


@dataclass(frozen=True)
class PhysicalParams:
    """Laboratory parameters of the kicked-atom experiment.

    rabi_frequency : resonant Rabi frequency Omega (rad/s)
    detunings      : (delta_45, delta_44, delta_43) in rad/s
    wave_number    : laser wave number k_L (1/m)
    atom_mass      : atom mass M (kg)
    pulse_period   : kick-cycle period T (s)
    """

    rabi_frequency: float
    detunings: tuple[float, float, float]
    wave_number: float
    atom_mass: float
    pulse_period: float

    def __post_init__(self):
        fields = {
            "wave_number": self.wave_number,
            "atom_mass": self.atom_mass,
            "pulse_period": self.pulse_period,
        }
        for name, value in fields.items():
            if not (value > 0) or not math.isfinite(value):
                raise ParameterError(f"{name} must be strictly positive, got {value!r}")
        if not (self.rabi_frequency >= 0) or not math.isfinite(self.rabi_frequency):
            raise ParameterError(f"rabi_frequency must be >= 0, got {self.rabi_frequency!r}")
        if len(self.detunings) != 3 or any(d <= 0 or not math.isfinite(d) for d in self.detunings):
            raise ParameterError(f"detunings must be three positive values, got {self.detunings!r}")
        # Adiabatic elimination of the excited state needs the detunings to
        # dominate the coupling; warn (do not refuse) when it looks marginal.
        if self.rabi_frequency / min(self.detunings) > 0.1:
            warnings.warn(
                "rabi_frequency exceeds 10% of the smallest detuning; "
                "adiabatic elimination may be inaccurate",
                stacklevel=3,       # the caller of the generated __init__
            )

    def effective_rabi(self) -> float:
        """Effective two-photon Rabi frequency summed over hyperfine routes."""
        return self.rabi_frequency**2 * sum(
            float(s) / d for s, d in zip(LINE_STRENGTHS, self.detunings)
        )


def physical_to_scaled(p: PhysicalParams) -> tuple[float, float]:
    """Return (kick_strength k, scaled Planck constant hbar_k).

    k = hbar * Omega_eff * k_L^2 * T^2 / (2 M),  hbar_k = 4 hbar k_L^2 T / M.
    """
    kl2 = p.wave_number**2
    k = HBAR * p.effective_rabi() * kl2 * p.pulse_period**2 / (2.0 * p.atom_mass)
    hbar_k = 4.0 * HBAR * kl2 * p.pulse_period / p.atom_mass
    return k, hbar_k


@dataclass(frozen=True)
class SimParams:
    """Dimensionless run parameters.

    kick_strength       : k, default 270 (the caesium experiment's value)
    scaled_planck       : hbar_k, default 2.6 (caesium at a 25 us period)
    se_probability      : per-cycle spontaneous-emission probability eta
    pulse_width         : alpha, as a fraction of the period
    pulse_spacing       : delta (pulse-center separation), fraction of the period
    basis_size          : N momentum eigenstates (even)
    n_kicks             : number of kick cycles
    n_trajectories      : classical ensemble size
    rng_seed            : seed for all stochastic sampling
    init_momentum_sigma : thermal width of the initial rho distribution
    kick_spread_rms     : fractional RMS spread of k; must be 0, since every
                          trajectory and the density matrix share one k
    """

    kick_strength: float = 270.0
    scaled_planck: float = 2.6
    se_probability: float = 0.0
    pulse_width: Fraction = Fraction(1, 20)
    pulse_spacing: Fraction = Fraction(1, 10)
    basis_size: int = 128
    n_kicks: int = 70
    n_trajectories: int = 10_000
    rng_seed: int = 0
    init_momentum_sigma: float = 10.0
    kick_spread_rms: float = 0.0

    def __post_init__(self):
        if not 0 <= self.kick_strength < math.inf:
            raise ParameterError(f"kick_strength must be finite and >= 0, got {self.kick_strength}")
        if not 0 < self.scaled_planck < math.inf:
            raise ParameterError(f"scaled_planck must be finite and > 0, got {self.scaled_planck}")
        if not 0.0 <= self.se_probability <= 1.0:
            raise ParameterError(f"se_probability must lie in [0, 1], got {self.se_probability}")
        alpha, delta = Fraction(self.pulse_width), Fraction(self.pulse_spacing)
        if not (0 < alpha <= delta and delta <= Fraction(1, 2)):
            raise ParameterError(
                f"need 0 < alpha <= delta <= 1/2, got alpha={alpha}, delta={delta}"
            )
        if self.basis_size <= 0 or self.basis_size % 2:
            raise ParameterError(f"basis_size must be a positive even integer, got {self.basis_size}")
        if self.n_kicks < 0:
            raise ParameterError(f"n_kicks must be non-negative, got {self.n_kicks}")
        if self.n_trajectories <= 0:
            raise ParameterError(f"n_trajectories must be positive, got {self.n_trajectories}")
        if self.rng_seed < 0:
            raise ParameterError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if not 0 <= self.init_momentum_sigma < math.inf:
            raise ParameterError(f"init_momentum_sigma must be finite and >= 0, got {self.init_momentum_sigma}")
        if self.kick_spread_rms != 0:
            raise ParameterError(f"kick_spread_rms = {self.kick_spread_rms}: no scenario applies a "
                                 f"kick-strength spread; set it to 0")

    def pulse_train(self) -> "PulseTrain":
        return build_pulse_train(self.pulse_width, self.pulse_spacing)


@dataclass(frozen=True)
class PulseTrain:
    """Segment schedule of one kick cycle.

    Each segment is (duration, driven); durations are exact rationals and
    sum to 1.  driven=True means the standing wave is on (pendulum motion),
    False means free drift.
    """

    segments: tuple[tuple[Fraction, bool], ...]

    def __post_init__(self):
        total = sum((d for d, _ in self.segments), start=Fraction(0))
        if total != 1:
            raise ParameterError(f"segment durations must sum to 1, got {total}")
        if any(d < 0 for d, _ in self.segments):
            raise ParameterError("segment durations must be non-negative")


def build_pulse_train(alpha, delta) -> PulseTrain:
    """Symmetric two-pulse schedule: [pad dark, alpha on, gap dark, alpha on, pad dark].

    gap = delta - alpha, pad = (1 - alpha - delta)/2.  The schedule takes one of
    two shapes: at delta = alpha there is no gap and the pulses join into one
    of width 2*alpha, otherwise both pulses and the gap stay.  The pads are
    left out when alpha + delta = 1 makes them zero.
    """
    alpha, delta = Fraction(alpha), Fraction(delta)
    if not 0 < alpha <= delta:
        raise ParameterError(f"need 0 < alpha <= delta, got alpha={alpha}, delta={delta}")
    if alpha + delta > 1:
        raise ParameterError(f"pulses do not fit in one period: alpha + delta = {alpha + delta} > 1")
    pad = (1 - alpha - delta) / 2
    pulses = [(2 * alpha, True)] if alpha == delta else [(alpha, True), (delta - alpha, False), (alpha, True)]
    return PulseTrain(tuple([(pad, False), *pulses, (pad, False)] if pad else pulses))
