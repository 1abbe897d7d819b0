"""Transport metrics shared by the classical and quantum backends."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ParameterError
from .quantum import momentum_ladder


@dataclass
class TransportCurve:
    """Fraction of the distribution outside a momentum boundary vs kick number."""

    kicks: np.ndarray
    fraction_outside: np.ndarray

    def __post_init__(self):
        self.kicks = np.asarray(self.kicks)
        self.fraction_outside = np.asarray(self.fraction_outside, dtype=float)
        if self.kicks.shape != self.fraction_outside.shape:
            raise ParameterError("kicks and fraction_outside must have equal lengths")
        if np.any((self.fraction_outside < -1e-12) | (self.fraction_outside > 1 + 1e-12)):
            raise ParameterError("fractions must lie in [0, 1]")


def fraction_outside_quantum(populations: np.ndarray, hbar_k: float, boundary: float) -> np.ndarray:
    """Probability weight at |rho| beyond the boundary, on the momentum ladder,
    of each population row: the sum runs over the last axis, so one row gives a
    scalar and a (K, N) array K values.

    Each ladder site n represents the momentum bin [(n-1/2)*hbar_k,
    (n+1/2)*hbar_k); the bin straddling the boundary contributes the linear
    fraction of its width that lies outside.
    """
    n = np.abs(momentum_ladder(np.shape(populations)[-1]))
    lo, hi = (n - 0.5) * hbar_k, (n + 0.5) * hbar_k
    outside = np.clip((hi - np.maximum(lo, boundary)) / hbar_k, 0.0, 1.0)
    return np.sum(np.asarray(populations, dtype=float) * outside, axis=-1)


def count_outside(rho, boundary: float):
    """Momenta with |rho| > boundary along the last axis of rho, counted without a full-size
    |rho| copy; a NaN counts as inside."""
    return np.count_nonzero((rho > boundary) | (rho < -boundary), axis=-1)


def transport_curve_classical(record, boundary: float) -> TransportCurve:
    """Fraction-outside curve from a TrajectoryRecord, by count_outside on each kick.  A record
    holding NaN or inf is refused."""
    rho = record.rho
    if not np.all(np.isfinite(rho)):
        raise ParameterError("trajectory record holds non-finite momenta")
    return TransportCurve(record.kicks.copy(), count_outside(rho, boundary) / rho.shape[1])


def transport_curve_quantum(record, hbar_k: float, boundary: float) -> TransportCurve:
    """Fraction-outside curve from an EvolutionRecord."""
    return TransportCurve(record.kicks.copy(), fraction_outside_quantum(record.populations, hbar_k, boundary))

