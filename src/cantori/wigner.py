"""Discrete toroidal Wigner function for the periodic momentum-ladder basis.

For an N-state periodic basis the phase-space grid is 2N x 2N, with
X_k = pi*k/N (k = 0 ... 2N-1) and P_l = (hbar_k/2)*l (l = -N ... N-1):

    w(X_k, P_l) = sum_j exp(i*pi*j*k/N) * [(l+j) even] * <(l+j)/2| rho |(l-j)/2>

with the half-sum/half-difference indices folded onto the periodic ladder
n = -N/2 ... N/2-1 (mod N).  Pairing the j and 2N-j terms with Hermiticity
makes w real, and summing over k gives the momentum marginal
2N * <l/2|rho|l/2> on even-l rows and zero on odd rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ParameterError
from .quantum import DensityMatrix


@dataclass
class WignerGrid:
    """2N x 2N phase-space grid; values[il, ik] with x along axis 1."""

    values: np.ndarray       # (2N, 2N) real
    x: np.ndarray            # (2N,) angles X_k = pi*k/N
    p: np.ndarray            # (2N,) momenta P_l = (hbar_k/2)*l, l = -N ... N-1
    hbar_k: float

    @property
    def basis_size(self) -> int:
        return self.values.shape[0] // 2

    def coarse(self) -> np.ndarray:
        return coarse_grain(self.values)

    def coarse_axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            self.x.reshape(-1, 2).mean(axis=1),
            self.p.reshape(-1, 2).mean(axis=1),
        )


def toroidal_wigner(rho: DensityMatrix, hbar_k: float) -> WignerGrid:
    """Toroidal Wigner function of a density matrix on the doubled grid.

    The j-sum for each momentum row is a length-2N inverse FFT of the
    parity-masked matrix elements.
    """
    m = rho.matrix
    N = rho.size
    two_n = 2 * N

    j = np.arange(two_n)
    l = np.arange(-N, N)
    jj, ll = np.meshgrid(j, l, indexing="ij")
    parity = (ll + jj) % 2 == 0
    # Ladder values (l +- j)/2 folded onto matrix indices (value + N/2) mod N.
    a = ((ll + jj) // 2 + N // 2) % N
    b = ((ll - jj) // 2 + N // 2) % N
    g = np.where(parity, m[a, b], 0.0)

    w = two_n * np.fft.ifft(g, axis=0)
    imag = np.abs(w.imag).max()
    if imag > 1e-8:
        raise ParameterError(f"Wigner grid has imaginary residue {imag:.3e}; input not Hermitian?")
    return WignerGrid(w.real.T.copy(), np.pi * j / N, 0.5 * hbar_k * l, hbar_k)


def coarse_grain(values: np.ndarray) -> np.ndarray:
    """Average non-overlapping 2x2 cells, halving each dimension."""
    values = np.asarray(values)
    r, c = values.shape
    if r % 2 or c % 2:
        raise ParameterError(f"grid dimensions must be even, got {values.shape}")
    return values.reshape(r // 2, 2, c // 2, 2).mean(axis=(1, 3))


def negativity_volume(grid: WignerGrid) -> float:
    """Integrated magnitude of the negative regions of the coarse-grained grid.

    Cell area on the coarse grid is (2*pi/N) * hbar_k.
    """
    coarse = grid.coarse()
    n = grid.basis_size
    cell_area = (2.0 * np.pi / n) * grid.hbar_k
    neg = coarse[coarse < 0.0]
    return float(-neg.sum() * cell_area)
