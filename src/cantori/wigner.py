"""Discrete toroidal Wigner function for the periodic momentum-ladder basis.

For an N-state periodic basis the phase-space grid is 2N x 2N, with
X_k = pi*k/N (k = 0 ... 2N-1) and P_l = (hbar_k/2)*l (l = -N ... N-1):

    w(X_k, P_l) = sum_j exp(i*pi*j*k/N) * [(l+j) even] * <(l+j)/2| rho |(l-j)/2>

with the half-sum/half-difference indices folded onto the periodic ladder
n = -N/2 ... N/2-1 (mod N).  Pairing the j and 2N-j terms with Hermiticity
makes w real, and summing over k gives the momentum marginal
2N * <l/2|rho|l/2> on even-l rows and zero on odd rows.

The diagnostics read only the N x N grid of 2x2 cell averages, which
coarse_wigner computes without the doubled grid: summing a cell's k pair
multiplies the j-th term by exp(2*pi*i*j*K/N) * (1 + exp(i*pi*j/N)), and the
parity mask keeps exactly one l of the cell's pair, so the cell (L, K) is
(1/4) * sum_j over 2N terms, folded onto a length-N inverse FFT over j.
The terms of each j are a diagonal of rho read with wrap-around, so they are
gathered through strided views of the 2x2-tiled matrix, without index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .model import ParameterError
from .quantum import DensityMatrix


@dataclass
class WignerGrid:
    """2N x 2N phase-space grid; values[il, ik] with x along axis 1."""

    values: np.ndarray       # (2N, 2N) real
    x: np.ndarray            # (2N,) angles X_k = pi*k/N
    p: np.ndarray            # (2N,) momenta P_l = (hbar_k/2)*l, l = -N ... N-1
    hbar_k: float


def _axes(n: int, hbar_k: float) -> tuple[np.ndarray, np.ndarray]:
    """X_k = pi*k/N (k = 0 ... 2N-1) and P_l = (hbar_k/2)*l (l = -N ... N-1)."""
    return np.pi * np.arange(2 * n) / n, 0.5 * hbar_k * np.arange(-n, n)


def coarse_axes(n: int, hbar_k: float) -> tuple[np.ndarray, np.ndarray]:
    """Cell centres (X, P) of the N x N coarse grid, each of length N."""
    x, p = _axes(n, hbar_k)
    return x.reshape(-1, 2).mean(axis=1), p.reshape(-1, 2).mean(axis=1)


def _checked_real(w: np.ndarray) -> np.ndarray:
    imag = np.abs(w.imag).max()
    if imag > 1e-8:
        raise ParameterError(f"Wigner grid has imaginary residue {imag:.3e}; input not Hermitian?")
    return w.real.T.copy()


def toroidal_wigner(rho: DensityMatrix, hbar_k: float) -> WignerGrid:
    """Toroidal Wigner function of a density matrix on the doubled grid.

    The j-sum for each momentum row is a length-2N inverse FFT of the
    parity-masked matrix elements.
    """
    m = rho.matrix
    N = rho.size
    two_n = 2 * N

    j = np.arange(two_n)[:, None]
    l = np.arange(-N, N)
    # Ladder values (l +- j)/2 folded onto matrix indices (value + N/2) mod N.
    g = m[((l + j) // 2 + N // 2) % N, ((l - j) // 2 + N // 2) % N]
    g[j % 2 != l % 2] = 0.0         # odd l + j

    w = np.fft.ifft(g, axis=0)
    w *= two_n
    return WignerGrid(_checked_real(w), *_axes(N, hbar_k), hbar_k)


def coarse_wigner(rho: DensityMatrix, hbar_k: float) -> np.ndarray:
    """coarse_grain(toroidal_wigner(rho, hbar_k).values) without the doubled grid: (N, N), P along axis 0.

    Row j = 2a + b of the pair sum reads m[(L + a + b) % N, (L - a) % N] for
    L = 0 ... N-1 (a = 0 ... N-1, b = 0, 1): a strided view of the doubled
    matrix tile(m, (2, 2)) that starts at [b, N] and steps one row down and one
    column left per a, one row down and one column right per L.
    """
    m = rho.matrix
    N = rho.size

    t = np.tile(m, (2, 2))
    s0, s1 = t.strides
    g = np.empty((2 * N, N), dtype=t.dtype)
    for b in (0, 1):
        g[b::2] = as_strided(t[b:, N:], (N, N), (s0 - s1, s0 + s1), writeable=False)
    j = np.arange(2 * N)[:, None]
    g *= 1.0 + np.exp(1j * np.pi * j / N)      # the cell's k pair

    w = np.fft.ifft(g[:N] + g[N:], axis=0)
    w *= N / 4
    return _checked_real(w)


def coarse_grain(values: np.ndarray) -> np.ndarray:
    """Average non-overlapping 2x2 cells, halving each dimension."""
    values = np.asarray(values)
    r, c = values.shape
    if r % 2 or c % 2:
        raise ParameterError(f"grid dimensions must be even, got {values.shape}")
    return values.reshape(r // 2, 2, c // 2, 2).mean(axis=(1, 3))


def coarse_negativity(coarse: np.ndarray, hbar_k: float) -> float:
    """Integrated magnitude of the negative cells of an N x N coarse grid.

    Cell area on the coarse grid is (2*pi/N) * hbar_k.
    """
    cell_area = (2.0 * np.pi / coarse.shape[0]) * hbar_k
    neg = coarse[coarse < 0.0]
    return float(-neg.sum() * cell_area)


def negativity_volume(grid: WignerGrid) -> float:
    """Integrated magnitude of the negative regions of the coarse-grained grid."""
    return coarse_negativity(coarse_grain(grid.values), grid.hbar_k)
