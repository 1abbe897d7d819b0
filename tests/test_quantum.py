"""Tests for the momentum-ladder quantum propagator and decoherence channel.

The Floquet builder is checked against two independent routes: a dense
scipy.linalg.expm product and a split-step FFT propagator; its closed-form
dark factors are checked against eigh_floquet, which exponentiates every
segment by eigh.  The spontaneous-emission channel is checked against a
hand-rolled convolution random walk; apply_decoherence, defined here, is its
momentum-basis reference, checked against np.roll.  The parity fold is
checked against the dense orthogonal parity transform, the evolution in
parity frames against a dense U rho U^dag loop, and the channel on the frames
against np.roll.  The rows a kick skips by its bound are checked against the
kick that computes them all and then flushes, and the eps^2 flush against a
1e-90 one.  validate and purity, the density-matrix checks, and pure and
from_state, the pure-state constructors the tests use, are defined here too.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from cantori import quantum
from cantori.model import ParameterError, PulseTrain
from cantori.quantum import (
    TRACE_TOL,
    UNITARITY_TOL,
    DensityMatrix,
    FloquetOperator,
    _channel,
    _expm_hermitian,
    _flush_tiny,
    _fold,
    _unfold,
    build_floquet,
    build_hamiltonians,
    evolve_density,
    momentum_ladder,
)

HERMITICITY_TOL = 1e-12
POSITIVITY_TOL = 1e-10


def validate(rho: DensityMatrix) -> None:
    """Raise ParameterError unless rho is Hermitian, of unit trace and positive semidefinite."""
    m = rho.matrix
    herm = np.abs(m - m.conj().T).max()
    if herm > HERMITICITY_TOL:
        raise ParameterError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = np.trace(m)
    if abs(tr - 1.0) > TRACE_TOL * 10:
        raise ParameterError(f"trace = {tr}, expected 1")
    lo = np.linalg.eigvalsh(m).min()
    if lo < -POSITIVITY_TOL:
        raise ParameterError(f"negative eigenvalue {lo:.3e}")


def purity(rho: DensityMatrix) -> float:
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def pure(N: int, n: int) -> DensityMatrix:
    """Momentum eigenstate |n><n|."""
    m = np.zeros((N, N), dtype=complex)
    m[n + N // 2, n + N // 2] = 1.0
    return DensityMatrix(m)


def from_state(psi) -> DensityMatrix:
    """|psi><psi| of the normalised state vector psi."""
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return DensityMatrix(np.outer(psi, psi.conj()))


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
        rho = pure(N, 0)
        rec = evolve_density(rho, flo, 0.0, 10)
        p = rec.populations[-1]
        n = momentum_ladder(N)
        for i, ni in enumerate(n):
            j = int(np.where(n == (-ni - N // 2) % N - N // 2)[0][0])
            assert p[i] == pytest.approx(p[j], abs=1e-12)


def eigh_floquet(N, k, hbar_k, train):
    """build_floquet with every segment exponentiated by eigh, the dark ones
    included: the construction before the dark factors took closed form."""
    h_dark, h_light = build_hamiltonians(N, k, hbar_k)
    h = N // 2
    twos = np.ones(h + 1)
    twos[[0, h]] = 2.0
    scale = np.sqrt(np.outer(twos, twos))
    ue, uo = np.eye(h + 1, dtype=complex), np.eye(h - 1, dtype=complex)
    for dur, driven in train.segments:
        he, ho, _, _ = _fold(h_light if driven else h_dark)
        t = -float(dur) / hbar_k
        ue = _expm_hermitian(he / scale, t) @ ue
        uo = _expm_hermitian(ho[1:h, 1:h], t) @ uo
    return _unfold([ue * scale, np.pad(uo, 1)])


class TestDarkFactors:
    @pytest.mark.parametrize("N", [64, 128, 512])
    def test_matches_eigh_for_every_segment(self, paper_train, N):
        flo = build_floquet(N, 270.0, 2.6, paper_train)
        assert np.abs(flo.matrix - eigh_floquet(N, 270.0, 2.6, paper_train)).max() <= 1e-11
        assert flo.unitarity_defect() <= 1e-13

    def test_all_dark_train_is_a_phase_diagonal(self):
        N, hbar_k = 64, 2.6
        train = PulseTrain(((Fraction(3, 10), False), (Fraction(7, 10), False)))
        u = build_floquet(N, 270.0, hbar_k, train).matrix
        assert not np.any(u - np.diag(np.diag(u)))
        n = momentum_ladder(N)
        np.testing.assert_allclose(np.diag(u), np.exp(-0.5j * n**2 * hbar_k), rtol=0, atol=1e-12)


class TestDensityMatrix:
    def test_pure_and_mixed(self):
        rho = pure(8, -2)
        validate(rho)
        assert purity(rho) == pytest.approx(1.0)
        assert np.real(np.diag(rho.matrix))[2] == 1.0
        mm = DensityMatrix(np.eye(8) / 8)
        validate(mm)
        assert purity(mm) == pytest.approx(1.0 / 8)

    def test_thermal_moments(self):
        N, hbar_k, sigma = 128, 2.6, 10.0
        rho = DensityMatrix.thermal(N, hbar_k, sigma)
        validate(rho)
        n = momentum_ladder(N)
        p = np.real(np.diag(rho.matrix))
        assert p @ (n * hbar_k) == pytest.approx(0.0, abs=1e-6)
        assert p @ (n * hbar_k) ** 2.0 == pytest.approx(sigma**2, rel=1e-3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma", [1e-200, 5e-324])
    def test_thermal_refuses_vanishing_weights(self, sigma):
        """sigma^2 underflows to 0, so no weight is a positive finite number: refused, without a NumPy warning."""
        with pytest.raises(ParameterError, match=r"init_momentum_sigma = .*: its thermal weights are not finite"):
            DensityMatrix.thermal(16, 2.6, sigma)

    def test_thermal_at_zero_width_is_the_n0_state(self):
        assert np.array_equal(DensityMatrix.thermal(16, 2.6, 0.0).matrix, pure(16, 0).matrix)

    def test_from_state_normalises(self):
        rho = from_state(np.array([3.0, 0.0, 0.0, 4.0]))
        assert np.trace(rho.matrix) == pytest.approx(1.0)
        assert rho.matrix[0, 0] == pytest.approx(9.0 / 25)

    def test_validate_rejects(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1.0  # not Hermitian
        with pytest.raises(ParameterError):
            validate(DensityMatrix(bad))
        with pytest.raises(ParameterError):
            validate(DensityMatrix(np.eye(4, dtype=complex)))  # trace 4
        neg = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ParameterError):
            validate(DensityMatrix(neg))
        with pytest.raises(ParameterError):
            DensityMatrix(np.eye(5))  # odd size


class TestDecoherence:
    def test_eta_one_pure_state(self):
        rho = apply_decoherence(pure(8, 0), 1.0)
        p = np.real(np.diag(rho.matrix))
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
        validate(out)
        assert purity(out) <= purity(rho) + 1e-12

    def test_identity_at_eta_zero(self):
        rho = DensityMatrix.thermal(8, 2.6, 3.0)
        out = apply_decoherence(rho, 0.0)
        assert np.array_equal(out.matrix, rho.matrix)

    def test_eta_out_of_range(self):
        rho = pure(4, 0)
        for eta in (-0.1, 1.1):
            with pytest.raises(ParameterError):
                apply_decoherence(rho, eta)

    def test_random_walk_kernel(self, paper_train):
        """With k = 0 the channel alone acts: populations follow the
        three-point convolution walk (eta/2, 1-eta, eta/2)."""
        N, eta, steps = 32, 0.4, 5
        flo = build_floquet(N, 0.0, 2.6, paper_train)
        rec = evolve_density(pure(N, 0), flo, eta, steps)
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
        rec = evolve_density(pure(N, 0), flo, 0.1, 6, checkpoint_kicks=(0, 3, 6))
        assert rec.populations.shape == (7, N)
        assert list(rec.kicks) == list(range(7))
        assert set(rec.checkpoints) == {0, 3, 6}
        assert rec.checkpoints[3].matrix is not rec.checkpoints[6].matrix
        np.testing.assert_allclose(
            np.real(np.diag(rec.checkpoints[6].matrix)), rec.populations[6], atol=1e-14
        )

    def test_edge_population_tracked(self, paper_train):
        """A strong kick on a tiny ladder floods the edges; the record notices."""
        N = 8
        flo = build_floquet(N, 30.0, 2.6, paper_train)
        rec = evolve_density(pure(N, 0), flo, 0.0, 10)
        assert rec.edge_population_max == pytest.approx(
            rec.populations[:, [0, -1]].max()
        )
        assert rec.edge_population_max > 0.01

    def test_eta_out_of_range(self, paper_train):
        flo = build_floquet(8, 5.0, 2.6, paper_train)
        for eta in (-0.1, 1.1):
            with pytest.raises(ParameterError, match="eta"):
                evolve_density(pure(8, 0), flo, eta, 0)

    @pytest.mark.parametrize(
        "size,n_kicks,checkpoints,match",
        [(16, 4, (), "size"), (8, -1, (), "n_kicks"), (8, 4, (2, 5), "checkpoint"), (8, 4, (-1,), "checkpoint")],
        ids=["size", "negative-kicks", "checkpoint-late", "checkpoint-negative"],
    )
    def test_rejects_bad_input(self, paper_train, size, n_kicks, checkpoints, match):
        flo = build_floquet(8, 5.0, 2.6, paper_train)
        with pytest.raises(ParameterError, match=match):
            evolve_density(pure(size, 0), flo, 0.1, n_kicks, checkpoint_kicks=checkpoints)

    def test_state_stays_physical(self, paper_train):
        N = 32
        flo = build_floquet(N, 15.0, 2.6, paper_train)
        rec = evolve_density(
            DensityMatrix.thermal(N, 2.6, 5.0), flo, 0.05, 30, checkpoint_kicks=(30,)
        )
        validate(rec.checkpoints[30])
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


def apply_decoherence(rho: DensityMatrix, eta: float) -> DensityMatrix:
    """Per-cycle spontaneous-emission channel in the momentum basis.

    rho'[m, n] = eta/2 * (rho[m+1, n+1] + rho[m-1, n-1]) + (1 - eta) * rho[m, n],
    index shifts wrapping periodically.  A convex mixture of the identity and
    two cyclic-shift conjugations: trace-preserving and completely positive.

    Away from the first and last rows and columns, where the shifts wrap,
    both shifted entries lie N + 1 apart in the flattened matrix, so their
    sum is one slice add.
    """
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"eta must lie in [0, 1], got {eta}")
    m = np.ascontiguousarray(rho.matrix)
    n = len(m)
    flat = m.reshape(-1)
    out = np.empty_like(m)
    np.add(flat[2 * n + 2:], flat[:-2 * n - 2], out=out.reshape(-1)[n + 1:-n - 1])
    for i in (0, n - 1):
        out[i] = np.roll(m[(i + 1) % n], -1) + np.roll(m[i - 1], 1)
        out[:, i] = np.roll(m[:, (i + 1) % n], -1) + np.roll(m[:, i - 1], 1)
    out *= 0.5 * eta
    out += (1.0 - eta) * m
    return DensityMatrix(out)


def frame_factors(flo, depth):
    """The factors of frame i, for i < depth: left[i] U's frame and right[i] the
    conjugate transpose of one, in the frame order [ee, oo, eo, oe]."""
    ua, ub = flo.frames
    pairs = [(ua, ua), (ub, ub), (ua, ub), (ub, ua)][:depth]
    return [left for left, _ in pairs], [right.conj().T for _, right in pairs]


def reference_products(frames, left, right, w):
    """The kick's products without the row bound: every row and column, then the flush."""
    return [_flush_tiny(left[i][:, w:] @ frames[i][w:, w:] @ right[i][w:, :]) for i in range(len(frames))]


def first_reached(abs_left, w):
    """The first row in which some column w ... of a left factor (U's frames) is nonzero."""
    return min(int(np.argmax(np.any(abs_left[i][:, w:] != 0, axis=1))) for i in range(len(abs_left)))


class TestParityBlocks:
    @pytest.mark.parametrize("N", [2, 4, 6, 16])
    def test_split_merge_match_dense_transform(self, N):
        """_fold splits m into the parity blocks of T m T^T, each frame S block S
        with S = sqrt(2) at the fixed points, and _unfold merges them back."""
        h = N // 2
        rng = np.random.default_rng(N)
        m = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        t = parity_transform(N)
        assert np.abs(t @ t.T - np.eye(N)).max() < 1e-15
        # Rows of T placed at their frame index: the even ones scaled by S, the
        # odd ones at 1 ... h-1 with zero rows at the fixed points.
        sqrt2 = np.ones(h + 1)
        sqrt2[[0, h]] = np.sqrt(2.0)
        place = {"e": sqrt2[:, None] * t[: h + 1], "o": np.zeros((h + 1, N))}
        place["o"][1:h] = t[h + 1 :]
        frames = _fold(m)
        for frame, (row, col) in zip(frames, ["ee", "oo", "eo", "oe"]):
            np.testing.assert_allclose(frame, place[row] @ m @ place[col].T, atol=1e-14)
        ee, oo, eo, oe = frames
        assert not np.any(oo[[0, h]]) and not np.any(oo[:, [0, h]])
        assert not np.any(eo[:, [0, h]]) and not np.any(oe[[0, h]])
        np.testing.assert_allclose(_unfold(frames), m, atol=1e-14)
        # Without the even-odd frames the unfold is the parity-symmetric part of m.
        mirror = np.eye(N)[(N - np.arange(N)) % N]
        np.testing.assert_allclose(_unfold([ee, oo]), 0.5 * (m + mirror @ m @ mirror), atol=1e-14)

    @pytest.mark.parametrize("N", [2, 4, 32, 128])
    def test_floquet_commutes_with_parity_exactly(self, paper_train, N):
        flo = build_floquet(N, 40.0, 2.6, paper_train)
        _, _, eo, oe = _fold(flo.matrix)
        assert not np.any(eo) and not np.any(oe)
        assert flo.unitarity_defect() <= UNITARITY_TOL

    @pytest.mark.parametrize("eta", [0.0, 0.1])
    @pytest.mark.parametrize(
        "make_rho,k,edge",
        [
            (lambda: pure(8, -2), 25.0, None),
            (
                lambda: from_state(
                    np.random.default_rng(3).normal(size=32) + 1j * np.random.default_rng(4).normal(size=32)
                ),
                25.0,
                None,
            ),
            (lambda: DensityMatrix.thermal(32, 2.6, 8.0), 25.0, None),
            # Support |n| <= 58 of 64 at every kick: the blocks are evolved on a partial window.
            (lambda: DensityMatrix.thermal(128, 2.6, 3.0), 10.0, "empty"),
            # Support across the ladder edge from the first kick: the channel wraps.
            (lambda: pure(16, 5), 25.0, "occupied"),
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
        rec = evolve_density(rho0, flo, eta, n_kicks, checkpoint_kicks=(0, 5, n_kicks))
        u, m = flo.matrix, rho0.matrix
        # Kick 0 is read from the parity frames like every other kick.
        assert np.abs(rec.populations[0] - np.real(np.diag(m))).max() < 1e-15
        assert np.abs(rec.checkpoints[0].matrix - m).max() < 1e-15
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
            (lambda: from_state(np.exp(-((momentum_ladder(256) * 2.6 / 20.0) ** 2))), 270.0, True),
            # Odd sector only.
            (lambda: from_state(np.eye(256)[133] - np.eye(256)[123]), 270.0, True),
        ],
        ids=["thermal-256", "thermal-512", "coherence", "coherence-256", "even-256", "odd-256"],
    )
    def test_bound_skips_only_rows_the_flush_clears(self, paper_train, monkeypatch, make_rho, k, skips):
        """At every kick of a real run, the rows and columns 0 ... rr-1 that the
        bound skips are exact zeros of the full, flushed product, and every
        frame is exactly zero outside its window [w:, w:].  Where the bound
        skips, it skips more than the rows U's frames do not reach."""
        bound = quantum._surviving_from
        rho0 = make_rho()
        flo = build_floquet(rho0.size, k, 2.6, paper_train)
        top = max(np.abs(f).max() for f in flo.frames)
        seen = []

        def checked(frames, abs_left, abs_right, w):
            assert not any(np.any(f[:w]) or np.any(f[:, :w]) for f in frames)
            left, right = frame_factors(flo, len(frames))
            # The bound is handed top |left i| and top |right i| for each frame i.
            for i in range(len(frames)):
                assert np.array_equal(abs_left[i], top * np.abs(left[i]))
                assert np.array_equal(abs_right[i], top * np.abs(right[i]))
            rr = bound(frames, abs_left, abs_right, w)
            nonzero = np.zeros(len(frames[0]), bool)
            for p in reference_products(frames, left, right, w):
                assert not np.any(p[:rr]) and not np.any(p[:, :rr])
                nonzero |= np.any(p != 0, axis=0) | np.any(p != 0, axis=1)
            assert rr <= int(np.argmax(nonzero))
            seen.append((min(first_reached(abs_left, w), w), rr))
            return rr

        monkeypatch.setattr(quantum, "_surviving_from", checked)
        evolve_density(rho0, flo, 0.0187, 12)
        assert len(seen) == 12
        if skips:
            assert any(rr > r for r, rr in seen)

    @pytest.mark.parametrize("eta", [0.0, 0.0187])
    @pytest.mark.parametrize("N", [256, 512])
    def test_flush_cut_keeps_the_rounding_budget(self, paper_train, monkeypatch, N, eta):
        """The eps^2 flush moves populations and checkpoints by less than 1e-15
        against a 1e-90 flush over the paper's 70 kicks, and its kicks compute
        fewer product rows."""
        rho0 = DensityMatrix.thermal(N, 2.6, 10.0)
        bound = quantum._surviving_from
        runs = []
        for cut in (quantum._FLUSH_BELOW, 1e-90):
            rows = []

            def counted(frames, abs_left, abs_right, w):
                rr = bound(frames, abs_left, abs_right, w)
                rows.append(len(frames[0]) - rr)
                return rr

            monkeypatch.setattr(quantum, "_FLUSH_BELOW", cut)
            monkeypatch.setattr(quantum, "_surviving_from", counted)
            # The operator flushes its frames at the cut in force when it is built.
            flo = build_floquet(N, 270.0, 2.6, paper_train)
            runs.append((evolve_density(rho0, flo, eta, 70, checkpoint_kicks=(35, 70)), sum(rows)))
        (rec, rows), (ref, ref_rows) = runs
        assert np.abs(rec.populations - ref.populations).max() < 1e-15
        for kick in (35, 70):
            assert np.abs(rec.checkpoints[kick].matrix - ref.checkpoints[kick].matrix).max() < 1e-15
        assert rows < ref_rows

    def test_window_takes_every_row_the_operator_reaches(self):
        """A U that swaps the ladder edge (index 0) with n = 0 (index h) moves
        population from the last row of the window to row 0."""
        N, h = 16, 8
        swap = np.arange(N)
        swap[[0, h]] = h, 0
        weights = np.zeros(N)
        weights[[2, N - 2, h]] = 0.25, 0.25, 0.5
        flo = FloquetOperator(*_fold(np.eye(N, dtype=complex)[swap])[:2])
        rec = evolve_density(DensityMatrix(np.diag(weights)), flo, 0.0, 1)
        np.testing.assert_allclose(rec.populations[1], weights[swap], atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_operator(self, bad):
        """Frames holding a NaN or an inf are refused, and the refusal raises no NumPy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="not finite"):
                FloquetOperator(np.full((5, 5), bad, complex), np.zeros((5, 5)))
            oo = np.eye(5, dtype=complex)
            oo[3, 3] = bad
            with pytest.raises(ParameterError, match="not finite"):
                FloquetOperator(np.eye(5), oo)

    @pytest.mark.parametrize(
        "ee,oo",
        [((5, 4), (5, 4)), ((5, 5), (4, 4)), ((5,), (5,)), ((5, 5, 5), (5, 5, 5))],
        ids=["not-square", "shapes-differ", "one-axis", "three-axes"],
    )
    def test_rejects_frames_of_the_wrong_shape(self, ee, oo):
        with pytest.raises(ParameterError, match="not square and of one shape"):
            FloquetOperator(np.zeros(ee, complex), np.zeros(oo, complex))

    def test_callers_frames_are_left_unmodified(self, paper_train):
        """The operator flushes and halves copies of the frames it is given."""
        ee, oo = _fold(build_floquet(16, 40.0, 2.6, paper_train).matrix)[:2]
        ee[2, 5] = oo[3, 6] = 1e-40
        given = ee.copy(), oo.copy()
        flo = FloquetOperator(ee, oo)
        assert np.array_equal(ee, given[0]) and np.array_equal(oo, given[1])
        assert flo.frames[0][2, 5] == 0 and flo.frames[1][3, 6] == 0

    def test_overflowing_operator_is_refused_where_built(self, paper_train):
        with pytest.raises(ParameterError, match="not finite"), np.errstate(all="ignore"):
            build_floquet(16, 1e308, 2.6, paper_train)

    def test_shared_operator_is_not_written(self, paper_train):
        """One operator serves an eta sweep in any order: each record is bitwise
        the record of a freshly built operator, so evolve_density never writes
        into the operator's frames."""
        rho0 = DensityMatrix.thermal(256, 2.6, 10.0)
        shared = build_floquet(256, 270.0, 2.6, paper_train)
        for eta in (0.0503, 0.0, 0.0187):
            rec = evolve_density(rho0, shared, eta, 70, checkpoint_kicks=(35, 70))
            ref = evolve_density(rho0, build_floquet(256, 270.0, 2.6, paper_train), eta, 70, checkpoint_kicks=(35, 70))
            assert np.array_equal(rec.populations, ref.populations)
            for kick in (35, 70):
                assert np.array_equal(rec.checkpoints[kick].matrix, ref.checkpoints[kick].matrix)

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
        frames = _fold(m)
        ee, oo, eo, oe = frames
        assert (np.any(eo) or np.any(oe)) == (cross and N > 2)
        _channel(ee, oo, 0.3, 0, 1.0)
        _channel(eo, oe, 0.3, 0, -1.0)
        np.testing.assert_allclose(_unfold(frames), dense_channel(m, 0.3), atol=1e-15)
        # The frame positions that no odd row or column fills stay exactly 0.
        assert not np.any(oo[[0, h]]) and not np.any(oo[:, [0, h]])
        assert not np.any(eo[:, [0, h]]) and not np.any(oe[[0, h]])
