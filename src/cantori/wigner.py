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
The terms of each j are a diagonal of rho read with wrap-around.  In the
row-doubled flat copy v = [m; m; m[0]].ravel() the term of row j = 2a + b at
L sits at offset b*N + a*(N-1) + L*(N+1) when L >= a and N further on when
L < a, so two strided views of v and a select on L < a gather the rows a
block at a time, without index arrays and without the 2N x 2N tile.  The
transient is v (2N^2 + N values) and the folded N x N sum: under 4x the
matrix's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .model import ParameterError
from .quantum import DensityMatrix


@dataclass
class WignerGrid:
    """2N x 2N phase-space grid; values[il, ik] at momentum P_l (axis 0) and angle X_k (axis 1)."""

    values: np.ndarray       # (2N, 2N) real
    hbar_k: float


def _axes(n: int, hbar_k: float) -> tuple[np.ndarray, np.ndarray]:
    """X_k = pi*k/N (k = 0 ... 2N-1) and P_l = (hbar_k/2)*l (l = -N ... N-1)."""
    return np.pi * np.arange(2 * n) / n, 0.5 * hbar_k * np.arange(-n, n)


def coarse_axes(n: int, hbar_k: float) -> tuple[np.ndarray, np.ndarray]:
    """Cell centres (X, P) of the N x N coarse grid, each of length N."""
    x, p = _axes(n, hbar_k)
    return x.reshape(-1, 2).mean(axis=1), p.reshape(-1, 2).mean(axis=1)


def _finite_matrix(rho: DensityMatrix) -> np.ndarray:
    """rho's matrix, refused with ParameterError if it holds NaN or inf: the imaginary
    residue check cannot see a NaN, and the transforms would spread it over the grid."""
    m = rho.matrix
    if not np.isfinite(m).all():
        raise ParameterError("density matrix is not finite: it holds NaN or inf")
    return m


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
    m = _finite_matrix(rho)
    N = rho.size
    two_n = 2 * N

    j = np.arange(two_n)[:, None]
    l = np.arange(-N, N)
    # Ladder values (l +- j)/2 folded onto matrix indices (value + N/2) mod N.
    g = m[((l + j) // 2 + N // 2) % N, ((l - j) // 2 + N // 2) % N]
    g[j % 2 != l % 2] = 0.0         # odd l + j

    w = np.fft.ifft(g, axis=0)
    w *= two_n
    return WignerGrid(_checked_real(w), hbar_k)


# Values of a per gathered block of the pair sum: 2 * _BLOCK rows of N values, a buffer
# small beside the N x N sum that still spreads each block's NumPy calls over many rows.
_BLOCK = 32


def coarse_wigner(rho: DensityMatrix, hbar_k: float) -> np.ndarray:
    """coarse_grain(toroidal_wigner(rho, hbar_k).values) without the doubled grid: (N, N), P along axis 0.

    Row j = 2a + b of the pair sum reads m[(L + a + b) % N, (L - a) % N] for
    L = 0 ... N-1 (a = 0 ... N-1, b = 0, 1).  In v = [m; m; m[0]].ravel() that
    term sits at b*N + a*(N-1) + L*(N+1) for L >= a, and N further on for
    L < a: views[c, a, L] at offset c*N + a*(N-1) + L*(N+1) hold both, the
    largest offset read (c = 2) being 2N^2, hence v's extra row.  Each block of
    _BLOCK values of a takes views[b] and, where L < a, views[b + 1], times the
    cell-pair factor of its rows; the fold j -> j mod N writes the blocks with
    a < N/2 into the folded sum and adds those with a >= N/2 to it.  v is freed
    before the FFT, so the call holds at most v and the folded sum (under 4x
    the matrix's bytes) beyond its input.
    """
    m = _finite_matrix(rho)
    N = rho.size
    half = N // 2

    j = np.arange(2 * N)[:, None]
    pair = 1.0 + np.exp(1j * np.pi * j / N)     # the cell's k pair
    v = np.concatenate([m, m, m[:1]]).ravel()
    s = v.strides[0]
    views = as_strided(v, (3, N, N), (N * s, (N - 1) * s, (N + 1) * s), writeable=False)
    L = np.arange(N)
    h = np.empty((N, N), dtype=complex)
    upper = np.empty((2 * _BLOCK, N), dtype=complex)
    for a0 in range(0, half, _BLOCK):
        n = min(_BLOCK, half - a0)
        lower = h[2 * a0:2 * (a0 + n)]
        for out, a in ((lower, a0), (upper[:2 * n], a0 + half)):
            rows = out.reshape(n, 2, N).swapaxes(0, 1)      # rows[b, a' - a, L]
            rows[...] = views[0:2, a:a + n]
            np.copyto(rows, views[1:3, a:a + n], where=L < np.arange(a, a + n)[:, None])
            out *= pair[2 * a:2 * (a + n)]
        lower += upper[:2 * n]
    del v, views

    h = np.fft.ifft(h, axis=0)
    h *= N / 4
    return _checked_real(h)


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
    return float(-neg.sum() * cell_area) + 0.0      # no negative cell gives 0.0, not -0.0


def negativity_volume(grid: WignerGrid) -> float:
    """Integrated magnitude of the negative regions of the coarse-grained grid."""
    return coarse_negativity(coarse_grain(grid.values), grid.hbar_k)
