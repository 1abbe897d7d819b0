import numpy as np
import pytest
from hypothesis import settings

from cantori.classical import ClassicalEnsemble, evolve_ensemble
from cantori.model import SimParams, build_pulse_train

# Every property test draws the same examples on every run and writes no example database.
settings.register_profile("cantori", derandomize=True, database=None, deadline=None)
settings.load_profile("cantori")


@pytest.fixture(scope="session")
def paper_train():
    return build_pulse_train("1/20", "1/10")


def one_cycle(phi, rho, k, train, method):
    """(phi, rho) after one cycle of train at kick strength k: row 1 of evolve_ensemble's record."""
    rec = evolve_ensemble(ClassicalEnsemble(phi, rho), SimParams(kick_strength=k), train, 1, method)
    return rec.phi[1], rec.rho[1]


def double_pulse_profile(tau, alpha=1 / 20, delta=1 / 10):
    """Explicit double-pulse profile with the time origin at the pulse-pair
    midpoint: unit pulses of width alpha centered at tau = +-delta/2 (mod 1).

    Exact edge points get value 1/2 so trapezoid quadrature converges at
    second order on each smooth piece.
    """
    tau = np.mod(np.asarray(tau, dtype=float), 1.0)
    f = np.zeros_like(tau)
    for center in (delta / 2, 1 - delta / 2):
        lo, hi = center - alpha / 2, center + alpha / 2
        f = np.where((tau > lo) & (tau < hi), 1.0, f)
        f = np.where(np.isclose(tau, lo) | np.isclose(tau, hi), 0.5, f)
    return f


def fourier_integral_oracle(m, alpha=1 / 20, delta=1 / 10):
    """a_m via numerical quadrature of the explicit profile.

    a_m is the two-sided coefficient of f(tau) = sum_m a_m cos(2 pi m tau)
    (sum over all integers m), i.e. the plain integral of f cos(2 pi m tau)
    over one period.  f is an indicator on the two pulse intervals, so the
    integral is Gauss-Legendre quadrature of cos over those intervals,
    subdivided enough to resolve the oscillation.
    """
    nodes, weights = np.polynomial.legendre.leggauss(32)
    total = 0.0
    n_sub = max(4, int(abs(m) * alpha) + 1)
    for center in (delta / 2, 1 - delta / 2):
        edges = np.linspace(center - alpha / 2, center + alpha / 2, n_sub + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            tau = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            total += 0.5 * (hi - lo) * np.sum(weights * np.cos(2.0 * np.pi * m * tau))
    return float(total)
