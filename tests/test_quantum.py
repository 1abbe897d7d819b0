"""Tests for the momentum-ladder quantum propagator and decoherence channel.

The Floquet builder is checked against two independent routes: a dense
scipy.linalg.expm product and a split-step FFT propagator.  The
spontaneous-emission channel is checked against a hand-rolled convolution
random walk and against np.roll.  The parity-block evolution is checked
against the dense orthogonal parity transform and a dense U rho U^dag loop,
and the channel on the parity blocks against np.roll.  The rows a kick
skips by its bound are checked against the kick that computes them all and
then flushes.
"""

import numpy as np
import pytest
import scipy.linalg

from cantori import (
    DensityMatrix,
    ParameterError,
    apply_decoherence,
    build_floquet,
    build_hamiltonians,
    evolve_density,
    momentum_distribution,
    momentum_ladder,
)
from cantori import quantum
from cantori.quantum import (
    UNITARITY_TOL,
    FloquetOperator,
    _channel,
    _flush_tiny,
    _framed,
    _parity_merge,
    _parity_split,
    _unframed,
)


def split_step_floquet(N, k, hbar_k, train, substeps=200):
    """Independent Floquet oracle: Strang-split FFT propagation of the identity.

    Works in fft momentum ordering internally; the cosine coupling is exactly
    the circulant that the DFT diagonalises, so for substeps -> inf this
    converges to the same cycle unitary as the eigendecomposition route.
    """
    n_fft = np.rint(np.fft.fftfreq(N, d=1.0 / N)).astype(int)
    phi = 2.0 * np.pi * np.arange(N) / N
    u = np.fft.ifftshift(np.eye(N, dtype=complex), axes=0)
    for dur, driven in train.segments:
        dt = float(dur)
        if not driven:
            u = np.exp(-0.5j * dt * n_fft**2 * hbar_k)[:, None] * u
        else:
            h = dt / substeps
            kin_half = np.exp(-0.25j * h * n_fft**2 * hbar_k)[:, None]
            pot = np.exp(1j * h * k * np.cos(phi) / hbar_k)[:, None]
            for _ in range(substeps):
                u = kin_half * u
                u = np.fft.fft(pot * np.fft.ifft(u, axis=0), axis=0)
                u = kin_half * u
    return np.fft.fftshift(u, axes=0)


class TestHamiltonians:
    def test_small_example(self):
        h_dark, h_light = build_hamiltonians(4, 2.0, 1.0)
        # n = -2, -1, 0, 1 -> kinetic 0.5 n^2
        assert np.allclose(np.diag(h_dark), [2.0, 0.5, 0.0, 0.5])
        assert np.allclose(h_dark, np.diag(np.diag(h_dark)))
        off = h_light - h_dark
        expected = np.zeros((4, 4))
        idx = np.arange(3)
        expected[idx, idx + 1] = expected[idx + 1, idx] = -1.0
        expected[0, 3] = expected[3, 0] = -1.0
        assert np.allclose(off, expected)

    def test_hermitian(self):
        h_dark, h_light = build_hamiltonians(16, 3.7, 2.6)
        assert np.abs(h_dark - h_dark.T).max() == 0.0
        assert np.abs(h_light - h_light.T).max() == 0.0

    def test_rejects_odd_or_nonpositive(self):
        with pytest.raises(ParameterError):
            build_hamiltonians(7, 1.0, 1.0)
        with pytest.raises(ParameterError):
            build_hamiltonians(0, 1.0, 1.0)

    def test_ladder(self):
        assert list(momentum_ladder(6)) == [-3, -2, -1, 0, 1, 2]


class TestFloquet:
    def test_unitary(self, paper_train):
        flo = build_floquet(32, 50.0, 2.6, paper_train)
        assert flo.unitarity_defect() < 1e-12

    def test_against_dense_expm(self, paper_train):
        """Same product built with scipy's Pade expm instead of eigh."""
        N, k, hbar_k = 8, 3.0, 2.6
        flo = build_floquet(N, k, hbar_k, paper_train)
        h_dark, h_light = build_hamiltonians(N, k, hbar_k)
        u = np.eye(N, dtype=complex)
        for dur, driven in paper_train.segments:
            h = h_light if driven else h_dark
            u = scipy.linalg.expm(-1j * float(dur) * h / hbar_k) @ u
        assert np.abs(flo.matrix - u).max() < 1e-12

    def test_against_split_step(self, paper_train):
        flo = build_floquet(8, 1.0, 2.6, paper_train)
        oracle = split_step_floquet(8, 1.0, 2.6, paper_train)
        assert np.abs(flo.matrix - oracle).max() < 1e-6

    def test_zero_kick_is_free_phase(self, paper_train):
        """k = 0 over one period: diagonal phases exp(-i n^2 hbar_k / 2)."""
        N, hbar_k = 16, 2.6
        flo = build_floquet(N, 0.0, hbar_k, paper_train)
        n = momentum_ladder(N)
        expected = np.diag(np.exp(-0.5j * n**2 * hbar_k))
        assert np.abs(flo.matrix - expected).max() < 1e-12

    def test_parity_symmetry(self, paper_train):
        """cos coupling commutes with n -> -n (mod N); |0> populations stay even."""
        N = 32
        flo = build_floquet(N, 20.0, 2.6, paper_train)
        rho = DensityMatrix.pure(N, 0)
        rec = evolve_density(rho, flo, 0.0, 10)
        p = rec.populations[-1]
        n = momentum_ladder(N)
        for i, ni in enumerate(n):
            j = int(np.where(n == (-ni - N // 2) % N - N // 2)[0][0])
            assert p[i] == pytest.approx(p[j], abs=1e-12)


class TestDensityMatrix:
    def test_pure_and_mixed(self):
        rho = DensityMatrix.pure(8, -2)
        rho.validate()
        assert rho.purity() == pytest.approx(1.0)
        assert momentum_distribution(rho)[2] == 1.0
        mm = DensityMatrix.maximally_mixed(8)
        mm.validate()
        assert mm.purity() == pytest.approx(1.0 / 8)

    def test_thermal_moments(self):
        N, hbar_k, sigma = 128, 2.6, 10.0
        rho = DensityMatrix.thermal(N, hbar_k, sigma)
        rho.validate()
        n = momentum_ladder(N)
        p = momentum_distribution(rho)
        assert p @ (n * hbar_k) == pytest.approx(0.0, abs=1e-6)
        assert p @ (n * hbar_k) ** 2.0 == pytest.approx(sigma**2, rel=1e-3)

    def test_from_state_normalises(self):
        rho = DensityMatrix.from_state(np.array([3.0, 0.0, 0.0, 4.0]))
        assert np.trace(rho.matrix) == pytest.approx(1.0)
        assert rho.matrix[0, 0] == pytest.approx(9.0 / 25)

    def test_validate_rejects(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1.0  # not Hermitian
        with pytest.raises(ParameterError):
            DensityMatrix(bad).validate()
        with pytest.raises(ParameterError):
            DensityMatrix(np.eye(4, dtype=complex)).validate()  # trace 4
        neg = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ParameterError):
            DensityMatrix(neg).validate()
        with pytest.raises(ParameterError):
            DensityMatrix(np.eye(5))  # odd size


class TestDecoherence:
    def test_eta_one_pure_state(self):
        rho = apply_decoherence(DensityMatrix.pure(8, 0), 1.0)
        p = momentum_distribution(rho)
        n = momentum_ladder(8)
        expected = np.zeros(8)
        expected[n == 1] = expected[n == -1] = 0.5
        assert np.allclose(p, expected)

    def test_trace_hermiticity_purity(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = a @ a.conj().T
        rho = DensityMatrix(m / np.trace(m).real)
        out = apply_decoherence(rho, 0.3)
        out.validate()
        assert out.purity() <= rho.purity() + 1e-12

    def test_identity_at_eta_zero(self):
        rho = DensityMatrix.thermal(8, 2.6, 3.0)
        out = apply_decoherence(rho, 0.0)
        assert np.array_equal(out.matrix, rho.matrix)

    def test_eta_out_of_range(self):
        rho = DensityMatrix.pure(4, 0)
        for eta in (-0.1, 1.1):
            with pytest.raises(ParameterError):
                apply_decoherence(rho, eta)

    def test_random_walk_kernel(self, paper_train):
        """With k = 0 the channel alone acts: populations follow the
        three-point convolution walk (eta/2, 1-eta, eta/2)."""
        N, eta, steps = 32, 0.4, 5
        flo = build_floquet(N, 0.0, 2.6, paper_train)
        rec = evolve_density(DensityMatrix.pure(N, 0), flo, eta, steps)
        kernel = np.array([0.5 * eta, 1.0 - eta, 0.5 * eta])
        walk = np.array([1.0])
        for _ in range(steps):
            walk = np.convolve(walk, kernel)
        expected = np.zeros(N)
        expected[N // 2 - steps : N // 2 + steps + 1] = walk
        assert np.abs(rec.populations[-1] - expected).max() < 1e-12


class TestEvolution:
    def test_record_shapes_and_checkpoints(self, paper_train):
        N = 16
        flo = build_floquet(N, 5.0, 2.6, paper_train)
        rec = evolve_density(DensityMatrix.pure(N, 0), flo, 0.1, 6, checkpoint_kicks=(0, 3, 6))
        assert rec.populations.shape == (7, N)
        assert list(rec.kicks) == list(range(7))
        assert set(rec.checkpoints) == {0, 3, 6}
        assert rec.checkpoints[3].matrix is not rec.checkpoints[6].matrix
        np.testing.assert_allclose(
            momentum_distribution(rec.checkpoints[6]), rec.populations[6], atol=1e-14
        )

    def test_edge_population_tracked(self, paper_train):
        """A strong kick on a tiny ladder floods the edges; the record notices."""
        N = 8
        flo = build_floquet(N, 30.0, 2.6, paper_train)
        rec = evolve_density(DensityMatrix.pure(N, 0), flo, 0.0, 10)
        assert rec.edge_population_max == pytest.approx(
            rec.populations[:, [0, -1]].max()
        )
        assert rec.edge_population_max > 0.01

    def test_eta_out_of_range(self, paper_train):
        flo = build_floquet(8, 5.0, 2.6, paper_train)
        for eta in (-0.1, 1.1):
            with pytest.raises(ParameterError, match="eta"):
                evolve_density(DensityMatrix.pure(8, 0), flo, eta, 0)

    def test_state_stays_physical(self, paper_train):
        N = 32
        flo = build_floquet(N, 15.0, 2.6, paper_train)
        rec = evolve_density(
            DensityMatrix.thermal(N, 2.6, 5.0), flo, 0.05, 30, checkpoint_kicks=(30,)
        )
        rec.checkpoints[30].validate()
        assert np.all(rec.populations > -1e-12)
        assert np.abs(rec.populations.sum(axis=1) - 1.0).max() < 1e-10


def parity_transform(N):
    """Dense orthogonal T: rows e_0, (e_i + e_(N-i))/sqrt2 for i = 1 ... N/2-1, e_(N/2), then (e_i - e_(N-i))/sqrt2."""
    h = N // 2
    eye = np.eye(N)
    pairs = range(1, h)
    even = [eye[0]] + [(eye[i] + eye[N - i]) / np.sqrt(2) for i in pairs] + [eye[h]]
    odd = [(eye[i] - eye[N - i]) / np.sqrt(2) for i in pairs]
    return np.array(even + odd)


def dense_channel(m, eta):
    return 0.5 * eta * (np.roll(m, (-1, -1), axis=(0, 1)) + np.roll(m, (1, 1), axis=(0, 1))) + (1 - eta) * m


def reference_products(frames, factors, r, w):
    """The kick's products without the row bound: every row and column from r, then the flush."""
    return [_flush_tiny(left[r:, w:] @ f[w:, w:] @ right[w:, r:]) for f, (left, right, _, _) in zip(frames, factors)]


class TestParityBlocks:
    @pytest.mark.parametrize("N", [2, 4, 6, 16])
    def test_split_merge_match_dense_transform(self, N):
        h = N // 2
        rng = np.random.default_rng(N)
        m = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        t = parity_transform(N)
        assert np.abs(t @ t.T - np.eye(N)).max() < 1e-15
        dense = t @ m @ t.T
        ee, eo, oe, oo = _parity_split(m)
        assert ee.shape == (h + 1, h + 1) and oo.shape == (h - 1, h - 1)
        np.testing.assert_allclose(ee, dense[: h + 1, : h + 1], atol=1e-14)
        np.testing.assert_allclose(eo, dense[: h + 1, h + 1 :], atol=1e-14)
        np.testing.assert_allclose(oe, dense[h + 1 :, : h + 1], atol=1e-14)
        np.testing.assert_allclose(oo, dense[h + 1 :, h + 1 :], atol=1e-14)
        np.testing.assert_allclose(_parity_merge(ee, eo, oe, oo), m, atol=1e-14)
        ee2, eo2, oe2, oo2 = _parity_split(m, cross=False)
        assert eo2 is None and oe2 is None
        np.testing.assert_array_equal(ee2, ee)
        np.testing.assert_array_equal(oo2, oo)
        # Without the even-odd blocks the merge is the parity-symmetric part of m.
        mirror = t.T @ np.diag([1.0] * (h + 1) + [-1.0] * (h - 1)) @ t
        np.testing.assert_allclose(_parity_merge(ee, None, None, oo), 0.5 * (m + mirror @ m @ mirror), atol=1e-14)

    @pytest.mark.parametrize("N", [2, 4, 32, 128])
    def test_floquet_commutes_with_parity_exactly(self, paper_train, N):
        flo = build_floquet(N, 40.0, 2.6, paper_train)
        _, eo, oe, _ = _parity_split(flo.matrix)
        assert not np.any(eo) and not np.any(oe)
        assert flo.unitarity_defect() <= UNITARITY_TOL

    @pytest.mark.parametrize("eta", [0.0, 0.1])
    @pytest.mark.parametrize(
        "make_rho,k,edge",
        [
            (lambda: DensityMatrix.pure(8, -2), 25.0, None),
            (
                lambda: DensityMatrix.from_state(
                    np.random.default_rng(3).normal(size=32) + 1j * np.random.default_rng(4).normal(size=32)
                ),
                25.0,
                None,
            ),
            (lambda: DensityMatrix.thermal(32, 2.6, 8.0), 25.0, None),
            # Support |n| <= 58 of 64 at every kick: the blocks are evolved on a partial window.
            (lambda: DensityMatrix.thermal(128, 2.6, 3.0), 10.0, "empty"),
            # Support across the ladder edge from the first kick: the channel wraps.
            (lambda: DensityMatrix.pure(16, 5), 25.0, "occupied"),
            # |0><-30|: the occupied rows and columns differ, and the window must hold both.
            (lambda: DensityMatrix(np.outer(np.eye(128)[64], np.eye(128)[34])), 10.0, "empty"),
            # The paper's kick on a wider ladder: the row bound skips up to 30 rows a kick.
            (lambda: DensityMatrix.thermal(256, 2.6, 10.0), 270.0, "empty"),
        ],
        ids=["pure", "random", "thermal", "window", "wrap", "coherence", "skip"],
    )
    def test_evolution_matches_dense_loop(self, paper_train, make_rho, k, edge, eta):
        rho0 = make_rho()
        N, n_kicks = rho0.size, 12
        flo = build_floquet(N, k, 2.6, paper_train)
        rec = evolve_density(rho0, flo, eta, n_kicks, checkpoint_kicks=(5, n_kicks))
        u, m = flo.matrix, rho0.matrix
        for kick in range(1, n_kicks + 1):
            m = dense_channel(u @ m @ u.conj().T, eta)
            assert np.abs(rec.populations[kick] - np.real(np.diag(m))).max() < 1e-12
            if kick in rec.checkpoints:
                assert np.abs(rec.checkpoints[kick].matrix - m).max() < 1e-12
        last_edges = rec.populations[-1][[0, -1]]
        if edge == "empty":
            assert np.all(last_edges == 0.0)
        elif edge == "occupied":
            assert np.all(last_edges > 0.0)

    @pytest.mark.parametrize(
        "make_rho,k,skips",
        [
            (lambda: DensityMatrix.thermal(256, 2.6, 10.0), 270.0, True),
            (lambda: DensityMatrix.thermal(512, 2.6, 10.0), 270.0, True),
            # Not Hermitian, with even-odd frames: the column bounds count.
            (lambda: DensityMatrix(np.outer(np.eye(128)[64], np.eye(128)[34])), 10.0, False),
            # The outer coherence is imaginary, the inner one real: the bound must count imaginary parts.
            (lambda: DensityMatrix(np.outer(np.eye(256)[128], np.eye(256)[118]) + 1j * np.outer(np.eye(256)[88], np.eye(256)[98])), 270.0, True),
            # Even sector only, with coherences: the first kick skips rows that hold rho0's tails.
            (lambda: DensityMatrix.from_state(np.exp(-((momentum_ladder(256) * 2.6 / 20.0) ** 2))), 270.0, True),
            # Odd sector only.
            (lambda: DensityMatrix.from_state(np.eye(256)[133] - np.eye(256)[123]), 270.0, True),
        ],
        ids=["thermal-256", "thermal-512", "coherence", "coherence-256", "even-256", "odd-256"],
    )
    def test_bound_skips_only_rows_the_flush_clears(self, paper_train, monkeypatch, make_rho, k, skips):
        """At every kick of a real run, the rows and columns r ... rr-1 that the
        bound skips are exact zeros of the full, flushed product, and every
        frame is exactly zero outside its window [w:, w:]."""
        bound = quantum._surviving_from
        seen = []

        def checked(frames, factors, r, w):
            assert not any(np.any(f[:w]) or np.any(f[:, :w]) for f in frames)
            rr = bound(frames, factors, r, w)
            nonzero = np.zeros(len(frames[0]) - r, bool)
            for p in reference_products(frames, factors, r, w):
                assert not np.any(p[: rr - r]) and not np.any(p[:, : rr - r])
                nonzero |= np.any(p != 0, axis=0) | np.any(p != 0, axis=1)
            assert rr <= r + int(np.argmax(nonzero))
            seen.append((r, rr))
            return rr

        monkeypatch.setattr(quantum, "_surviving_from", checked)
        rho0 = make_rho()
        evolve_density(rho0, build_floquet(rho0.size, k, 2.6, paper_train), 0.0187, 12)
        assert len(seen) == 12
        if skips:
            assert any(rr > r for r, rr in seen)

    def test_window_takes_every_row_the_operator_reaches(self):
        """A U that swaps the ladder edge (index 0) with n = 0 (index h) moves
        population from the last row of the window to row 0."""
        N, h = 16, 8
        swap = np.arange(N)
        swap[[0, h]] = h, 0
        weights = np.zeros(N)
        weights[[2, N - 2, h]] = 0.25, 0.25, 0.5
        flo = FloquetOperator(np.eye(N, dtype=complex)[swap], 0.0, 2.6)
        rec = evolve_density(DensityMatrix(np.diag(weights)), flo, 0.0, 1)
        np.testing.assert_allclose(rec.populations[1], weights[swap], atol=1e-15)

    @pytest.mark.parametrize(
        "u",
        [np.diag(np.exp(1j * np.arange(8.0))), np.roll(np.eye(8), 1, axis=0)],
        ids=["diagonal-phases", "ladder-shift"],
    )
    def test_rejects_parity_breaking_operator(self, u):
        flo = FloquetOperator(u.astype(complex), 0.0, 2.6)
        assert flo.unitarity_defect() < 1e-15
        with pytest.raises(ParameterError, match="parity"):
            evolve_density(DensityMatrix.pure(8, 0), flo, 0.0, 1)

    @pytest.mark.parametrize("N", [2, 4, 16])
    def test_channel_matches_roll(self, N):
        rng = np.random.default_rng(N)
        a = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        m = a @ a.conj().T
        m /= np.trace(m).real
        np.testing.assert_allclose(apply_decoherence(DensityMatrix(m), 0.3).matrix, dense_channel(m, 0.3), atol=1e-15)

    @pytest.mark.parametrize("N", [2, 4, 6, 16])
    @pytest.mark.parametrize("cross", [False, True], ids=["parity-even", "even-odd"])
    def test_block_channel_matches_roll(self, N, cross):
        """The channel on the framed parity blocks, boundary rows and periodic wrap included."""
        rng = np.random.default_rng(N)
        a = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        m = a @ a.conj().T
        m /= np.trace(m).real
        if not cross:
            mirror = np.eye(N)[(N - np.arange(N)) % N]
            m = 0.5 * (m + mirror @ m @ mirror)
        h = N // 2
        blocks = _parity_split(m)
        assert (np.any(blocks[1]) or np.any(blocks[2])) == (cross and N > 2)
        ee, eo, oe, oo = (_framed(x, h) for x in blocks)
        _channel(ee, oo, 0.3, 0, 1.0)
        _channel(eo, oe, 0.3, 0, -1.0)
        out = _parity_merge(*(_unframed(f, x.shape) for f, x in zip((ee, eo, oe, oo), blocks)))
        np.testing.assert_allclose(out, dense_channel(m, 0.3), atol=1e-15)
        # The frame positions that no odd row or column fills stay exactly 0.
        assert not np.any(oo[[0, h]]) and not np.any(oo[:, [0, h]])
        assert not np.any(eo[:, [0, h]]) and not np.any(oe[[0, h]])
