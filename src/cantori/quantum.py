"""Quantum dynamics in the truncated momentum eigenbasis.

The state lives on N momentum eigenstates |n>, n = -N/2 ... N/2-1, with
rho|n> = n*hbar_k|n> and n treated as periodic.  One kick cycle is the
ordered product of segment propagators exp(-i*duration*H_seg/hbar_k)
(H_dark between pulses, H_light during them), each built by Hermitian
eigendecomposition so the factors are unitary to eigensolver accuracy.
Spontaneous emission enters as a per-cycle mixing channel that adds the
density matrix to two versions of itself shifted by one ladder unit.

Everything here respects momentum parity n -> -n, which maps the array
index i = n + N/2 to (N - i) mod N: the cos(phi) coupling, the symmetric
pulse train and the channel, whose two shifts mirror each other.  Indices 0
and N/2 are fixed points; every other index i pairs with its mirror into the
orthonormal states (e_i +- e_(N-i))/sqrt(2).  The even sector holds e_0, the
N/2 - 1 symmetric pair states and e_(N/2); the odd sector the N/2 - 1
antisymmetric ones.  The Floquet operator is built block by block in these
sectors.  evolve_density keeps rho in its parity blocks from the first kick
to the last: it conjugates each block separately, a quarter of the dense N^3
work when the state has no even-odd coherence (every thermal state), applies
the channel to the blocks directly, reads the populations from their
diagonals, and returns to the momentum basis only for the checkpoints.  Each
kick works only on the block rows and columns that hold nonzero entries (from
index w), and of those its product reaches (from r) it computes only the ones
from rr on: a bound on each row and column proves that the flush of tiny
entries would clear the others (see _surviving_from).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ParameterError, PulseTrain

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10
UNITARITY_TOL = 1e-10


def momentum_ladder(N: int) -> np.ndarray:
    """Ladder indices n = -N/2 ... N/2-1."""
    return np.arange(-N // 2, N // 2)


@dataclass
class DensityMatrix:
    """N x N Hermitian, unit-trace operator in the momentum eigenbasis."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        n = self.matrix.shape[0]
        if self.matrix.shape != (n, n) or n % 2:
            raise ParameterError(f"density matrix must be square with even size, got {self.matrix.shape}")

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def validate(self, check_positivity: bool = True) -> None:
        m = self.matrix
        herm = np.abs(m - m.conj().T).max()
        if herm > HERMITICITY_TOL:
            raise ParameterError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_TOL * 10:
            raise ParameterError(f"trace = {tr}, expected 1")
        if check_positivity:
            lo = np.linalg.eigvalsh(m).min()
            if lo < -POSITIVITY_TOL:
                raise ParameterError(f"negative eigenvalue {lo:.3e}")

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    @classmethod
    def pure(cls, N: int, n: int) -> "DensityMatrix":
        """Momentum eigenstate |n><n|."""
        i = int(n) + N // 2
        m = np.zeros((N, N), dtype=complex)
        m[i, i] = 1.0
        return cls(m)

    @classmethod
    def from_state(cls, psi: np.ndarray) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex)
        psi = psi / np.linalg.norm(psi)
        return cls(np.outer(psi, psi.conj()))

    @classmethod
    def maximally_mixed(cls, N: int) -> "DensityMatrix":
        return cls(np.eye(N, dtype=complex) / N)

    @classmethod
    def thermal(cls, N: int, hbar_k: float, sigma: float) -> "DensityMatrix":
        """Incoherent Gaussian mixture of momentum eigenstates, width sigma in rho."""
        n = momentum_ladder(N)
        if sigma == 0.0:
            return cls.pure(N, 0)
        w = np.exp(-((n * hbar_k) ** 2) / (2.0 * sigma**2))
        return cls(np.diag(w / w.sum()).astype(complex))


@dataclass
class FloquetOperator:
    """Single-cycle unitary with the parameters it was built from."""

    matrix: np.ndarray
    kick_strength: float
    scaled_planck: float
    segments: tuple = ()

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def unitarity_defect(self) -> float:
        u = self.matrix
        return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


_SQRT_HALF = np.sqrt(0.5)

# Parity-block entries below this magnitude are set to zero after each kick.
# The blocks keep the exact super-exponential decay of U away from the
# diagonal, so without the cut the far tails of rho sink into subnormal
# numbers, on which BLAS runs several times slower.  A product of three
# entries of at least 1e-90 stays a normal double, and entries that small
# lie far below the rounding error of the populated ones.  Product rows and
# columns bounded below half the cut are not computed (see _surviving_from).
_FLUSH_BELOW = 1e-90


def _pairs(N: int) -> tuple[int, slice, slice, tuple]:
    """N/2, the slices of the paired indices 1 ... N/2-1 and of their mirrors
    N-1 ... N/2+1, and the index of the four fixed-point corners."""
    h = N // 2
    return h, slice(1, h), slice(N - 1, h, -1), np.ix_((0, h), (0, h))


def build_hamiltonians(N: int, k: float, hbar_k: float) -> tuple[np.ndarray, np.ndarray]:
    """(H_dark, H_light) in the periodic momentum ladder basis.

    H_dark = diag(n^2 hbar_k^2 / 2); H_light adds -k/2 on the first
    off-diagonals and on the periodic wraparound corners.
    """
    if N <= 0 or N % 2:
        raise ParameterError(f"N must be positive and even, got {N}")
    n = momentum_ladder(N)
    h_dark = np.diag(0.5 * n.astype(float) ** 2 * hbar_k**2)
    h_light = h_dark.copy()
    idx = np.arange(N - 1)
    h_light[idx, idx + 1] -= 0.5 * k
    h_light[idx + 1, idx] -= 0.5 * k
    h_light[0, N - 1] -= 0.5 * k
    h_light[N - 1, 0] -= 0.5 * k
    return h_dark, h_light


def _expm_hermitian(h: np.ndarray, scale: float) -> np.ndarray:
    """exp(1j * scale * H) for Hermitian H via eigendecomposition.

    Eigenphases can reach ~1e4 radians, where a float64 product alone loses
    a digit; forming scale * vals in extended precision and reducing mod
    2*pi keeps the phases accurate to ~1e-15 absolute.
    """
    vals, vecs = np.linalg.eigh(h)
    two_pi = 2.0 * np.arccos(np.longdouble(-1.0))
    phase = np.mod(np.longdouble(scale) * vals.astype(np.longdouble), two_pi).astype(float)
    return (vecs * np.exp(1j * phase)) @ vecs.conj().T


def _parity_split(m: np.ndarray, cross: bool = True) -> tuple:
    """Blocks (ee, eo, oe, oo) of T m T^T, T the orthogonal parity transform.

    Even rows and columns are ordered [e_0, pairs i = 1 ... N/2-1, e_(N/2)],
    so an even index equals the array index it comes from.  With cross=False
    the even-odd blocks are not formed and come back as None.
    """
    h, a, b, corners = _pairs(len(m))
    ee = np.empty((h + 1, h + 1), m.dtype)
    eo = np.empty((h + 1, h - 1), m.dtype) if cross else None
    oe = np.empty((h - 1, h + 1), m.dtype) if cross else None
    ee[corners] = m[corners]
    for i in (0, h):
        ee[i, 1:h] = (m[i, a] + m[i, b]) * _SQRT_HALF
        ee[1:h, i] = (m[a, i] + m[b, i]) * _SQRT_HALF
        if cross:
            eo[i] = (m[i, a] - m[i, b]) * _SQRT_HALF
            oe[:, i] = (m[a, i] - m[b, i]) * _SQRT_HALF
    if cross:
        s, d = m[a, a] - m[b, b], m[a, b] - m[b, a]
        eo[1:h], oe[:, 1:h] = 0.5 * (s - d), 0.5 * (s + d)
    s, d = m[a, a] + m[b, b], m[a, b] + m[b, a]
    inner = ee[1:h, 1:h]
    np.add(s, d, out=inner)
    inner *= 0.5
    oo = np.subtract(s, d, out=s)
    oo *= 0.5
    return ee, eo, oe, oo


def _flush_tiny(x: np.ndarray) -> np.ndarray:
    """Zero, in place, the real and imaginary parts of x smaller than _FLUSH_BELOW."""
    parts = x.view(np.float64)
    parts *= np.abs(parts) >= _FLUSH_BELOW
    return x


def _parity_merge(ee, eo, oe, oo) -> np.ndarray:
    """Inverse of _parity_split; None even-odd blocks count as zero."""
    h = len(ee) - 1
    _, a, b, corners = _pairs(2 * h)
    m = np.empty((2 * h, 2 * h), complex)
    m[corners] = ee[corners]
    for i in (0, h):
        row, col = ee[i, 1:h], ee[1:h, i]
        if eo is None:
            m[i, a] = m[i, b] = row * _SQRT_HALF
            m[a, i] = m[b, i] = col * _SQRT_HALF
        else:
            m[i, a], m[i, b] = (row + eo[i]) * _SQRT_HALF, (row - eo[i]) * _SQRT_HALF
            m[a, i], m[b, i] = (col + oe[:, i]) * _SQRT_HALF, (col - oe[:, i]) * _SQRT_HALF
    inner = ee[1:h, 1:h]
    s, d = inner + oo, inner - oo
    if eo is None:
        s *= 0.5
        d *= 0.5
        m[a, a] = m[b, b] = s
        m[a, b] = m[b, a] = d
    else:
        p, q = eo[1:h] + oe[:, 1:h], eo[1:h] - oe[:, 1:h]
        m[a, a], m[b, b] = 0.5 * (s + p), 0.5 * (s - p)
        m[a, b], m[b, a] = 0.5 * (d - q), 0.5 * (d + q)
    return m


# evolve_density holds each parity block in a common (N/2 + 1)^2 frame indexed
# by the array index j = 0 ... N/2 of the basis state: an even block fills it,
# an odd block fills j = 1 ... N/2 - 1 and leaves zeros at the fixed points.
# The rows and columns of the fixed points are scaled by sqrt(2), so that
# for a parity-even rho (ee + oo)/2 and (ee - oo)/2 in the frame are
# rho[j, j'] and rho[j, (N - j') mod N] at every frame index, fixed points
# included, and the channel becomes one stencil on each (see _channel).

def _framed(x: np.ndarray, h: int) -> np.ndarray:
    """Parity block x (rows and columns even or odd) in the (h + 1)^2 frame."""
    f = np.zeros((h + 1, h + 1), complex)
    r, c = (h + 1 - x.shape[0]) // 2, (h + 1 - x.shape[1]) // 2
    f[r:r + x.shape[0], c:c + x.shape[1]] = x
    f[[0, h]] *= np.sqrt(2.0)
    f[:, [0, h]] *= np.sqrt(2.0)
    return f


def _unframed(f: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of _framed for a block of the given shape."""
    h = len(f) - 1
    x = f.copy()
    x[[0, h]] *= _SQRT_HALF
    x[:, [0, h]] *= _SQRT_HALF
    r, c = (h + 1 - shape[0]) // 2, (h + 1 - shape[1]) // 2
    return x[r:r + shape[0], c:c + shape[1]]


def _reach(u: np.ndarray) -> np.ndarray:
    """reach[j]: the first row in which some column j' >= j of u is nonzero (len(u) if none)."""
    nonzero = u != 0
    first = np.where(nonzero.any(axis=0), nonzero.argmax(axis=0), len(u))
    return np.minimum.accumulate(first[::-1])[::-1]


def _occupied_from(frames: list, lo: int) -> int:
    """The first index >= lo at which a row or a column of some frame is nonzero (lo if none).

    Every frame must be zero in its rows and columns below lo, so at index j
    only row j from column j on and column j from row j on can be nonzero.
    """
    for j in range(lo, len(frames[0])):
        if any(f[j, j:].any() or f[j:, j].any() for f in frames):
            return j
    return lo


def _surviving_from(frames: list, factors: list, r: int, w: int) -> int:
    """The first index rr >= r at which a row or a column of some frame's next
    product may survive the flush (r if none may; a NaN bound counts).

    Each factor tuple is (left, right, top |left|, top |right|), top the
    largest entry modulus of any factor.  With L = left[r:, w:],
    f = f[w:, w:] and R = right[w:, r:], row i of L f R is bounded by
    b_i = top sum_k |L_ik| c_k, where c_k = sum_l (|Re f_kl| + |Im f_kl|)
    >= sum_l |f_kl| and top >= max|R|, and column j by top sum_l d_l |R_lj|,
    d_l the same sums over the columns of f.  A row or column may survive if
    its bound reaches _FLUSH_BELOW / 2.  Below that, every computed entry,
    rounding included, is at most (1 + n*eps) b < _FLUSH_BELOW in modulus, so
    _flush_tiny would zero both of its parts.  The nonzero entries of U's
    flushed blocks exceed 1e-91, so b does not underflow; a term that did
    would move it by some 1e-320, far inside the factor 2 margin.
    """
    hit = np.zeros(len(frames[0]) - r, bool)
    for f, (_, _, abs_left, abs_right) in zip(frames, factors):
        parts = np.abs(f[w:, w:].view(np.float64))
        sums = parts[:, ::2] + parts[:, 1::2]
        hit |= ~(abs_left[r:, w:] @ sums.sum(axis=1) < 0.5 * _FLUSH_BELOW)
        hit |= ~(sums.sum(axis=0) @ abs_right[w:, r:] < 0.5 * _FLUSH_BELOW)
    return r + int(np.argmax(hit))


def build_floquet(N: int, k: float, hbar_k: float, train: PulseTrain) -> FloquetOperator:
    """Single-kick evolution operator, segment propagators applied in schedule order.

    Each segment is exponentiated in the even and the odd parity sector
    separately, so the assembled matrix commutes with parity exactly.
    """
    h_dark, h_light = build_hamiltonians(N, k, hbar_k)
    exps = {}
    ue, uo = np.eye(N // 2 + 1, dtype=complex), np.eye(N // 2 - 1, dtype=complex)
    for dur, driven in train.segments:
        key = (dur, driven)
        if key not in exps:
            he, _, _, ho = _parity_split(h_light if driven else h_dark, cross=False)
            scale = -float(dur) / hbar_k
            exps[key] = (_expm_hermitian(he, scale), _expm_hermitian(ho, scale))
        ue, uo = exps[key][0] @ ue, exps[key][1] @ uo
    return FloquetOperator(_parity_merge(ue, None, None, uo), k, hbar_k, train.segments)


def apply_decoherence(rho: DensityMatrix, eta: float) -> DensityMatrix:
    """Per-cycle spontaneous-emission channel.

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


def _channel(a: np.ndarray, b: np.ndarray, eta: float, lo: int, sign: float) -> None:
    """apply_decoherence on a pair of frames, in place on their [lo:, lo:] corner.

    The pair is (ee, oo) with sign +1 or (eo, oe) with sign -1.  In the frame
    s = (a + b)/2 takes the (+1, +1) and (-1, -1) neighbours and
    d = (a - b)/2 the (+1, -1) and (-1, +1) ones.  A neighbour index h + 1
    stands for the mirror of h - 1 and index -1 (the periodic wrap past the
    ladder edge) for the mirror of 1: a row there is the other array's row
    h - 1 or 1, a column the other array's column times sign.  With lo > 0 the
    frames must be zero in the rows and columns below lo + 1, so nothing wraps.
    """
    n = len(a) - lo
    wa, wb = a[lo:, lo:], b[lo:, lo:]
    # The window with one neighbour index on each side; s and d hold a + b and
    # a - b, and the weights below carry the halves.
    s = np.zeros((n + 2, n + 2), complex)
    d = np.zeros((n + 2, n + 2), complex)
    np.add(wa, wb, out=s[1:-1, 1:-1])
    np.subtract(wa, wb, out=d[1:-1, 1:-1])
    s[-1, 1:-1], d[-1, 1:-1] = d[-3, 1:-1], s[-3, 1:-1]
    if lo == 0:
        s[0, 1:-1], d[0, 1:-1] = d[2, 1:-1], s[2, 1:-1]
    s[:, -1], d[:, -1] = sign * d[:, -3], sign * s[:, -3]
    if lo == 0:
        s[:, 0], d[:, 0] = sign * d[:, 2], sign * s[:, 2]
    s_new = s[2:, 2:] + s[:-2, :-2]
    s_new *= 0.25 * eta
    s_new += (0.5 - 0.5 * eta) * s[1:-1, 1:-1]
    d_new = d[2:, :-2] + d[:-2, 2:]
    d_new *= 0.25 * eta
    d_new += (0.5 - 0.5 * eta) * d[1:-1, 1:-1]
    np.add(s_new, d_new, out=wa)
    np.subtract(s_new, d_new, out=wb)


def momentum_distribution(rho: DensityMatrix) -> np.ndarray:
    """Populations diag(rho), clipped of numerical imaginary residue."""
    return np.real(np.diag(rho.matrix)).copy()


@dataclass
class EvolutionRecord:
    """Per-kick momentum populations plus full-state checkpoints."""

    kicks: np.ndarray                 # (n_kicks+1,)
    populations: np.ndarray           # (n_kicks+1, N)
    checkpoints: dict[int, DensityMatrix] = field(default_factory=dict)
    edge_population_max: float = 0.0  # largest population seen on the ladder edges


def evolve_density(
    rho0: DensityMatrix,
    floquet: FloquetOperator,
    eta: float,
    n_kicks: int,
    checkpoint_kicks: tuple[int, ...] = (),
) -> EvolutionRecord:
    """Apply n_kicks of (unitary cycle, then decoherence channel).

    rho stays in its parity blocks (see _framed): the cycle conjugates each
    block, the channel acts on the blocks, and the populations are read from
    their diagonals; the blocks are merged back into the momentum basis only
    at the requested checkpoints.  The even-odd blocks are evolved only when
    rho0 has any, since neither the cycle nor the channel creates them.

    Each kick works on the trailing [w:, w:] corner of the blocks, w being the
    first index with a nonzero row or column: every entry outside it is an
    exact zero (block entries below _FLUSH_BELOW are zeroed after each cycle),
    and the cycle's result is confined to [r:, r:], r the first row that a
    column of U's blocks from w onward reaches.  Only [rr:, rr:] of it is
    computed: the rows and columns r ... rr-1, whose bound lies below
    _FLUSH_BELOW / 2, are set to the zeros the flush would leave (see
    _surviving_from).  rr may exceed w.  Records diag(rho) every kick
    and the full density matrix at the requested checkpoints.  Tracks the
    largest population reaching the ladder edges, where the periodic wrap is
    unphysical.
    """
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"eta must lie in [0, 1], got {eta}")
    ue, ueo, uoe, uo = _parity_split(floquet.matrix)
    leak = max(np.abs(ueo).max(initial=0.0), np.abs(uoe).max(initial=0.0))
    if leak > UNITARITY_TOL:
        raise ParameterError(f"Floquet operator breaks momentum parity: even-odd block entry {leak:.3e}")
    h = floquet.size // 2
    # In the frame, rho's fixed-point rows and columns carry sqrt(2), so U's
    # fixed-point rows gain sqrt(2) and its fixed-point columns lose it.
    ua, ub = _framed(_flush_tiny(ue), h), _framed(_flush_tiny(uo), h)
    ua[:, [0, h]] *= 0.5
    ub[:, [0, h]] *= 0.5
    reach = np.minimum(_reach(ua), _reach(ub))
    abs_a, abs_b = np.abs(ua), np.abs(ub)
    top = max(abs_a.max(), abs_b.max())
    abs_a *= top
    abs_b *= top
    ee, eo, oe, oo = _parity_split(rho0.matrix)
    frames = [_framed(ee, h), _framed(oo, h)]
    factors = [(ua, ua.conj().T, abs_a, abs_a.T), (ub, ub.conj().T, abs_b, abs_b.T)]
    cross = bool(np.any(eo) or np.any(oe))
    if cross:
        frames += [_framed(eo, h), _framed(oe, h)]
        factors += [(ua, ub.conj().T, abs_a, abs_b.T), (ub, ua.conj().T, abs_b, abs_a.T)]
    w = _occupied_from(frames, 0)

    pops = np.empty((n_kicks + 1, 2 * h))
    pops[0] = momentum_distribution(rho0)
    checks = {0: DensityMatrix(rho0.matrix.copy())} if 0 in checkpoint_kicks else {}
    for kick in range(1, n_kicks + 1):
        r = min(int(reach[w]), w)
        rr = _surviving_from(frames, factors, r, w)
        for f, (left, right, _, _) in zip(frames, factors):
            product = _flush_tiny(left[rr:, w:] @ f[w:, w:] @ right[w:, rr:])
            f[r:rr, r:] = 0.0
            f[rr:, r:rr] = 0.0
            f[rr:, rr:] = product
        w = _occupied_from(frames, rr)
        if eta > 0.0:
            w = max(w - 1, 0)
            _channel(frames[0], frames[1], eta, w, 1.0)
            if cross:
                _channel(frames[2], frames[3], eta, w, -1.0)
        # diag(rho) at j and at its mirror N - j: (ee + oo)/2 +- (eo + oe)/2 in the frame.
        s = 0.5 * (frames[0].diagonal() + frames[1].diagonal()).real
        c = 0.5 * (frames[2].diagonal() + frames[3].diagonal()).real if cross else 0.0
        pops[kick, :h + 1] = s + c
        pops[kick, h + 1:] = (s - c)[h - 1:0:-1]
        if kick in checkpoint_kicks:
            shapes = [(h + 1, h + 1), (h - 1, h - 1), (h + 1, h - 1), (h - 1, h + 1)]
            ee, oo, eo, oe = [_unframed(f, shape) for f, shape in zip(frames, shapes)] + [None] * (4 - len(frames))
            checks[kick] = DensityMatrix(_parity_merge(ee, eo, oe, oo))
    edge_max = float(pops[:, [0, -1]].max())
    return EvolutionRecord(np.arange(n_kicks + 1), pops, checks, edge_max)
