"""Tests for the toroidal Wigner transform and its coarse-grained diagnostics."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cantori
from cantori.model import ParameterError
from cantori.quantum import DensityMatrix, build_floquet, evolve_density
from cantori.wigner import (
    WignerGrid,
    coarse_axes,
    coarse_grain,
    coarse_negativity,
    coarse_wigner,
    negativity_volume,
    toroidal_wigner,
)

from test_quantum import apply_decoherence, from_state, pure


def random_density(N, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


def wigner_direct(rho, hbar_k):
    """Brute-force double loop over the defining sum.  Slow; N <= 16 only."""
    m = rho.matrix
    N = rho.size
    w = np.zeros((2 * N, 2 * N), dtype=complex)
    for il, l in enumerate(range(-N, N)):
        for k in range(2 * N):
            total = 0.0
            for j in range(2 * N):
                if (l + j) % 2:
                    continue
                a = ((l + j) // 2 + N // 2) % N
                b = ((l - j) // 2 + N // 2) % N
                total += np.exp(1j * np.pi * j * k / N) * m[a, b]
            w[il, k] = total
    assert np.abs(w.imag).max() < 1e-9
    return w.real


def toroidal_wigner_meshgrid(rho, hbar_k):
    """The meshgrid-and-np.where form of toroidal_wigner, kept as its bitwise reference."""
    m = rho.matrix
    N = rho.size
    two_n = 2 * N
    j = np.arange(two_n)
    l = np.arange(-N, N)
    jj, ll = np.meshgrid(j, l, indexing="ij")
    parity = (ll + jj) % 2 == 0
    a = ((ll + jj) // 2 + N // 2) % N
    b = ((ll - jj) // 2 + N // 2) % N
    g = np.where(parity, m[a, b], 0.0)
    w = two_n * np.fft.ifft(g, axis=0)
    return WignerGrid(w.real.T.copy(), hbar_k)


def coarse_wigner_indexed(rho, hbar_k):
    """The index-array gather form of coarse_wigner, kept as its bitwise reference."""
    m = rho.matrix
    N = rho.size
    j = np.arange(2 * N)[:, None]
    l = 2 * np.arange(N) - N + j % 2           # the l of each cell's pair with l + j even (N is even)
    g = m[((l + j) // 2 + N // 2) % N, ((l - j) // 2 + N // 2) % N]
    g *= 1.0 + np.exp(1j * np.pi * j / N)      # the cell's k pair
    w = np.fft.ifft(g[:N] + g[N:], axis=0)
    w *= N / 4
    return w.real.T.copy()


# (index, value) of the non-finite entry in np.eye(4) / 4.
NON_FINITE = [pytest.param((1, 2), np.nan, id="nan"), pytest.param((0, 0), np.inf, id="inf")]


def eye_with(where, value):
    m = np.eye(4, dtype=complex) / 4
    m[where] = value
    return DensityMatrix(m)


def coherence(N, n, m):
    """|n><m| + |m><n| on ladder values n != m: Hermitian, off-diagonal, trace 0."""
    out = np.zeros((N, N), dtype=complex)
    out[n + N // 2, m + N // 2] = out[m + N // 2, n + N // 2] = 1.0
    return DensityMatrix(out)


def states(N):
    rng = np.random.default_rng(N)
    return {
        "thermal": DensityMatrix.thermal(N, 2.6, 3.0),
        "pure": pure(N, -1),
        "from_state": from_state(rng.normal(size=N) + 1j * rng.normal(size=N)),
        "coherence": coherence(N, -N // 2, N // 2 - 1),
    }


class TestTransform:
    @pytest.mark.parametrize("N", [4, 8, 16])
    def test_matches_direct_sum(self, N):
        rho = random_density(N, seed=N)
        grid = toroidal_wigner(rho, 2.6)
        assert grid.values.shape == (2 * N, 2 * N)
        assert np.abs(grid.values - wigner_direct(rho, 2.6)).max() < 1e-10

    def test_momentum_marginal(self):
        N = 16
        rho = random_density(N, seed=3)
        grid = toroidal_wigner(rho, 2.6)
        marginal = grid.values.sum(axis=1)
        diag = np.real(np.diag(rho.matrix))
        for il, l in enumerate(range(-N, N)):
            if l % 2:
                assert marginal[il] == pytest.approx(0.0, abs=1e-10)
            else:
                assert marginal[il] == pytest.approx(2 * N * diag[l // 2 + N // 2], abs=1e-10)

    def test_real_output_and_axes(self):
        N = 8
        grid = toroidal_wigner(random_density(N, seed=5), 2.6)
        assert grid.values.dtype == np.float64
        cx, cp = coarse_axes(N, 2.6)
        cells = np.arange(N)
        # Each cell centre is the mean of its pair of X_k = pi*k/N and of its pair of P_l = (hbar_k/2)*l.
        np.testing.assert_allclose(cx, np.pi * (4 * cells + 1) / (2 * N), rtol=1e-15)
        np.testing.assert_allclose(cp, 1.3 * (2 * cells - N + 0.5), rtol=1e-15)

    def test_linearity(self):
        N = 8
        r1, r2 = random_density(N, 1), random_density(N, 2)
        mix = DensityMatrix(0.3 * r1.matrix + 0.7 * r2.matrix)
        w_mix = toroidal_wigner(mix, 2.6).values
        w_sum = 0.3 * toroidal_wigner(r1, 2.6).values + 0.7 * toroidal_wigner(r2, 2.6).values
        assert np.abs(w_mix - w_sum).max() < 1e-12

    def test_eigenstate_row(self):
        """|0><0| gives a flat unit row at P = 0 and total weight 2N."""
        N = 8
        grid = toroidal_wigner(pure(N, 0), 2.6)
        row = grid.values[N]  # l = 0
        assert np.allclose(row, 1.0)
        assert grid.values.sum() == pytest.approx(2 * N)

    def test_non_hermitian_raises(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        m[0, 0] = 1.0
        with pytest.raises(ParameterError):
            toroidal_wigner(DensityMatrix(m), 2.6)

    @pytest.mark.parametrize("where,value", NON_FINITE)
    def test_non_finite_raises(self, where, value):
        with pytest.raises(ParameterError, match="not finite"):
            toroidal_wigner(eye_with(where, value), 2.6)

    @pytest.mark.parametrize("N", [2, 4, 16, 128])
    @pytest.mark.parametrize("state", ["thermal", "pure", "from_state", "coherence"])
    def test_bitwise_equal_to_meshgrid_form(self, N, state):
        rho = states(N)[state]
        grid, ref = toroidal_wigner(rho, 2.6), toroidal_wigner_meshgrid(rho, 2.6)
        assert np.array_equal(grid.values, ref.values)


class TestCoarseWigner:
    @pytest.mark.parametrize("N", [2, 4, 16, 128])
    @pytest.mark.parametrize("state", ["thermal", "pure", "from_state", "coherence"])
    def test_matches_coarse_grained_grid(self, N, state):
        rho = states(N)[state]
        ref = coarse_grain(toroidal_wigner(rho, 2.6).values)
        coarse = coarse_wigner(rho, 2.6)
        assert coarse.shape == (N, N) and coarse.dtype == np.float64
        assert np.abs(coarse - ref).max() <= 1e-13 * np.abs(ref).max()

    # 130: N/2 is odd; 512: more rows than one gathered block.
    @pytest.mark.parametrize("N", [2, 4, 6, 16, 128, 130, 512])
    @pytest.mark.parametrize("state", ["thermal", "pure", "from_state", "coherence"])
    def test_bitwise_equal_to_indexed_gather(self, N, state):
        rho = states(N)[state]
        assert np.array_equal(coarse_wigner(rho, 2.6), coarse_wigner_indexed(rho, 2.6))

    def test_transient_stays_under_four_matrices(self):
        """One N = 512 call holds at most the row-doubled flat copy and the folded sum
        beyond its input: under 4x the matrix's bytes, which the 2N x 2N tile alone would reach."""
        rho = DensityMatrix.thermal(512, 2.6, 10.0)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            coarse_wigner(rho, 2.6)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4 * rho.matrix.nbytes

    def test_blas_thread_count_moves_the_n512_grid_by_rounding_only(self, paper_train, tmp_path):
        """The N = 512 evolution and coarse grid of the wigner scenario in a child process with
        OPENBLAS_NUM_THREADS=1 agree with this process's run to ATOL: the products' BLAS splits
        reorder sums, so the bytes repeat only at one thread setting, and the values agree to
        rounding (measured at about 1e-16 on grid values of up to 0.05)."""
        ATOL = 1e-14
        script = (
            "import sys, numpy as np\n"
            "from cantori import quantum, wigner\n"
            "from cantori.model import build_pulse_train\n"
            "rho0 = quantum.DensityMatrix.thermal(512, 2.6, 10.0)\n"
            "flo = quantum.build_floquet(512, 270.0, 2.6, build_pulse_train('1/20', '1/10'))\n"
            "rec = quantum.evolve_density(rho0, flo, 0.0187, 70, (70,))\n"
            "np.save(sys.argv[1], wigner.coarse_wigner(rec.checkpoints[70], 2.6))\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(Path(cantori.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", script, str(tmp_path / "one.npy")], env=env, check=True, timeout=120)
        rho0 = DensityMatrix.thermal(512, 2.6, 10.0)
        rec = evolve_density(rho0, build_floquet(512, 270.0, 2.6, paper_train), 0.0187, 70, (70,))
        here = coarse_wigner(rec.checkpoints[70], 2.6)
        np.testing.assert_allclose(np.load(tmp_path / "one.npy"), here, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("where", [(0, 1), (2, 0), (1, 3)])
    def test_non_hermitian_raises(self, where):
        m = np.eye(4, dtype=complex) / 4
        m[where] = 0.5
        with pytest.raises(ParameterError):
            coarse_wigner(DensityMatrix(m), 2.6)

    @pytest.mark.parametrize("where,value", NON_FINITE)
    def test_non_finite_raises(self, where, value):
        with pytest.raises(ParameterError, match="not finite"):
            coarse_wigner(eye_with(where, value), 2.6)


class TestCoarseGrain:
    def test_explicit_example(self):
        v = np.arange(16.0).reshape(4, 4)
        out = coarse_grain(v)
        assert np.allclose(out, [[2.5, 4.5], [10.5, 12.5]])

    def test_checkerboard_cancels(self):
        v = np.indices((8, 8)).sum(axis=0) % 2 * 2.0 - 1.0
        assert np.allclose(coarse_grain(v), 0.0)

    def test_odd_dimension_raises(self):
        with pytest.raises(ParameterError):
            coarse_grain(np.ones((3, 4)))

    def test_maximally_mixed_is_flat(self):
        N = 16
        grid = toroidal_wigner(DensityMatrix(np.eye(N) / N), 2.6)
        coarse = coarse_grain(grid.values)
        assert np.ptp(coarse) < 1e-12
        assert coarse.mean() == pytest.approx(1.0 / (2 * N))


class TestNegativity:
    def test_diagonal_state_has_none(self):
        """Any incoherent mixture of ladder states: the coarse grid averages
        away the antipodal ghost rows, leaving no negative cells."""
        N = 16
        rho = DensityMatrix.thermal(N, 2.6, 4.0)
        assert negativity_volume(toroidal_wigner(rho, 2.6)) == pytest.approx(0.0, abs=1e-12)

    def test_superposition_has_some(self):
        N = 16
        psi = np.zeros(N)
        psi[N // 2] = psi[N // 2 + 2] = 1.0
        rho = from_state(psi)
        assert negativity_volume(toroidal_wigner(rho, 2.6)) > 0.01

    def test_coarse_grid_gives_the_same_volume(self):
        rho = random_density(16, seed=4)
        assert coarse_negativity(coarse_wigner(rho, 2.6), 2.6) == pytest.approx(
            negativity_volume(toroidal_wigner(rho, 2.6)), rel=1e-13)

    def test_decoherence_reduces_it(self):
        N = 16
        psi = np.zeros(N)
        psi[N // 2] = psi[N // 2 + 2] = 1.0
        rho = from_state(psi)
        before = negativity_volume(toroidal_wigner(rho, 2.6))
        mixed = rho
        for _ in range(5):
            mixed = apply_decoherence(mixed, 0.3)
        after = negativity_volume(toroidal_wigner(mixed, 2.6))
        assert after < before
