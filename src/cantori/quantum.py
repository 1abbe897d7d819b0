"""Quantum dynamics in the truncated momentum eigenbasis.

The state lives on N momentum eigenstates |n>, n = -N/2 ... N/2-1, with
rho|n> = n*hbar_k|n> and n treated as periodic.  One kick cycle is the
ordered product of segment propagators exp(-i*duration*H_seg/hbar_k)
(H_dark between pulses, H_light during them).  H_dark is diagonal in
momentum, so each dark factor is an exact diagonal phase,
exp(-i*duration*n^2*hbar_k/2) on the row of array (and parity frame) index
j = n + N/2, applied as a row scaling; the H_light factors are built by
Hermitian eigendecomposition, so they are unitary to eigensolver accuracy.
Spontaneous emission enters as a per-cycle mixing channel that adds the
density matrix to two versions of itself shifted by one ladder unit.

Everything here respects momentum parity n -> -n, which maps the array
index i = n + N/2 to (N - i) mod N: the cos(phi) coupling, the symmetric
pulse train and the channel, whose two shifts mirror each other.  Indices 0
and N/2 are fixed points; every other index i pairs with its mirror into the
orthonormal states (e_i +- e_(N-i))/sqrt(2).  The even sector holds e_0, the
N/2 - 1 symmetric pair states and e_(N/2); the odd sector the N/2 - 1
antisymmetric ones.  _fold takes a matrix into its parity blocks, held in
(N/2 + 1)^2 frames, with four slice sums; _unfold takes them back.  The
Floquet operator is built block by block in these sectors, never as a dense
matrix, and holds only its two parity frames, flushed once where it is built.
evolve_density keeps rho in its parity frames from the first kick to the last,
as one stack: [ee, oo], depth 2, when the state has no even-odd coherence
(every thermal state), and [ee, oo, eo, oe], depth 4, when it has.  Each kick
conjugates the whole stack in one batched product, a quarter of the dense N^3
work at depth 2, by U's frames with their fixed-point index halved, applies
the channel in one call to its pairs (ee, oo) and (eo, oe), reads the
populations from the stacked diagonals, and returns to the momentum basis only
for the checkpoints.  After each kick the frame
entries below eps^2 are flushed to zero (see _FLUSH_BELOW), and of each kick's
product only the trailing window of rows and columns that may survive the
flush is computed (see _surviving_from and evolve_density).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ParameterError, PulseTrain

TRACE_TOL = 1e-12
UNITARITY_TOL = 1e-10
# A population above EDGE_TOL on the ladder edges, where the periodic wrap is unphysical, marks
# a basis too small for the run (see EvolutionRecord.edge_population_max).
EDGE_TOL = 1e-4


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

    @classmethod
    def thermal(cls, N: int, hbar_k: float, sigma: float) -> "DensityMatrix":
        """Incoherent Gaussian mixture of momentum eigenstates, width sigma in rho."""
        return cls(np.diag(thermal_weights(N, hbar_k, sigma)).astype(complex))


def thermal_weights(N: int, hbar_k: float, sigma: float) -> np.ndarray:
    """Weights exp(-(n hbar_k)^2 / (2 sigma^2)) of the ladder states, normalised to sum 1;
    sigma = 0 puts all the weight on n = 0.  sigma is squared as a NumPy float, so a square
    too large for a float is inf (equal weights), not an OverflowError.  Raises ParameterError
    when the weights sum to 0 or to no finite number, as when sigma^2 underflows to 0."""
    if sigma == 0.0:
        return (momentum_ladder(N) == 0).astype(float)
    with np.errstate(all="ignore"):
        w = np.exp(-((momentum_ladder(N) * hbar_k) ** 2) / (2.0 * np.float64(sigma) ** 2))
    total = w.sum()
    if not 0 < total < np.inf:
        raise ParameterError(f"init_momentum_sigma = {sigma:g}: its thermal weights are not finite")
    return w / total


class FloquetOperator:
    """Single-cycle unitary U in the momentum eigenbasis, held as complex
    copies of its two (N/2 + 1)^2 parity frames (ee, oo), exactly as _fold
    defines them, flushed below _FLUSH_BELOW; frames that are not square, of
    one shape and finite are refused.  .matrix rebuilds the dense U from them.
    """

    def __init__(self, ee: np.ndarray, oo: np.ndarray):
        ee, oo = np.array(ee, complex), np.array(oo, complex)
        if ee.ndim != 2 or ee.shape[0] != ee.shape[1] or oo.shape != ee.shape:
            raise ParameterError(f"Floquet frames {ee.shape} and {oo.shape} are not square and of one shape")
        if not (np.isfinite(ee).all() and np.isfinite(oo).all()):
            raise ParameterError("Floquet operator is not finite: its parity frames hold NaN or inf")
        self.size = 2 * len(ee) - 2
        self.frames = (_flush_tiny(ee), _flush_tiny(oo))

    @property
    def matrix(self) -> np.ndarray:
        """The dense U."""
        return _unfold(self.frames)

    def unitarity_defect(self) -> float:
        u = self.matrix
        return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


# Frame entries whose real or imaginary part lies below this cut are set to
# zero after each kick; product rows and columns bounded below half the cut
# are not computed (see _surviving_from).  The cut is eps^2, set from the
# rounding budget of the evolution:
# - a unit-trace rho and a unitary U have entries of modulus <= 1;
# - each flush drops less than sqrt(2) * cut per frame entry, so less than
#   4 * (N/2 + 1)^2 * sqrt(2) * cut ~ 1.5 * N^2 * cut of trace norm (two
#   frames for a parity-even rho, four with even-odd coherence); flushing U's
#   frames once moves each kick by less than 2 * sqrt(2) * N * cut more;
# - the conjugation preserves the trace norm, and the channel, a mixture of
#   unitaries, does not increase it, so the errors of the kicks only add up;
# - so after K kicks every population and checkpoint entry lies within about
#   1.5 * K * N^2 * cut of the unflushed evolution: 1.3e-24 at N = 512 and
#   K = 70, eight orders below eps.
# Without the cut the frames would keep the super-exponential decay of U away
# from the diagonal, sink into subnormal numbers (on which BLAS runs several
# times slower) and widen the window each kick multiplies.  A product of three
# entries of at least the cut, about 1e-94, is still a normal double.
_FLUSH_BELOW = np.finfo(float).eps ** 2

_TWO_PI = 2.0 * np.arccos(np.longdouble(-1.0))


def build_hamiltonians(N: int, k: float, hbar_k: float) -> tuple[np.ndarray, np.ndarray]:
    """(H_dark, H_light) in the periodic momentum ladder basis.

    H_dark = diag(n^2 hbar_k^2 / 2); H_light adds -k/2 on the first
    off-diagonals and on the periodic wraparound corners.
    """
    if N <= 0 or N % 2:
        raise ParameterError(f"N must be positive and even, got {N}")
    n = momentum_ladder(N)
    h_dark = np.diag(0.5 * n.astype(float) ** 2 * np.float64(hbar_k) ** 2)
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
    return (vecs * _unit_phases(np.longdouble(scale) * vals.astype(np.longdouble))) @ vecs.conj().T


def _unit_phases(phase: np.ndarray) -> np.ndarray:
    """exp(1j * phase) for extended-precision phases, reduced mod 2*pi before rounding to float."""
    return np.exp(1j * np.mod(phase, _TWO_PI).astype(float))


def _flush_tiny(x: np.ndarray) -> np.ndarray:
    """Zero, in place, the real and imaginary parts of x smaller than _FLUSH_BELOW."""
    parts = x.view(np.float64)
    parts *= np.abs(parts) >= _FLUSH_BELOW
    return x


# The parity blocks live in frames indexed by the array index j = 0 ... N/2
# of the basis state, in the order [ee, oo, eo, oe] (row parity first).  The
# frame of row parity u and column parity v (each +1 or -1) is
# (A + vB + uC + uvD)/2 with A = m[j, j'], B = m[j, M j'], C = m[M j, j'] and
# D = m[M j, M j'], M j = (N - j) mod N the mirror.  At the pair indices that
# is the block entry itself.  At a fixed point (j = M j) an odd row or column
# is exactly zero and an even one carries a factor sqrt(2) over the block: so
# for a parity-even rho, (ee + oo)/2 and (ee - oo)/2 are rho[j, j'] and
# rho[j, M j'] at every frame index, fixed points included, and the channel
# becomes one stencil on each (see _channel).

def _fold(m: np.ndarray) -> list:
    """The parity frames [ee, oo, eo, oe] of the N x N matrix m."""
    h = len(m) // 2
    mirror = -np.arange(h + 1) % len(m)
    a, b = m[:h + 1, :h + 1], m[:h + 1, mirror]
    c, d = m[mirror, :h + 1], m[np.ix_(mirror, mirror)]
    p, q, s, t = a + b, a - b, c + d, c - d
    return [0.5 * (p + s), 0.5 * (q - t), 0.5 * (q + t), 0.5 * (p - s)]


def _unfold(frames: list) -> np.ndarray:
    """Inverse of _fold; missing even-odd frames count as zero."""
    ee, oo, eo, oe = [*frames, 0.0, 0.0][:4]
    h = len(ee) - 1
    mirror = -np.arange(h + 1) % (2 * h)
    p, s, q, t = ee + oe, ee - oe, eo + oo, eo - oo
    m = np.empty((2 * h, 2 * h), complex)
    m[:h + 1, :h + 1] = 0.5 * (p + q)
    m[:h + 1, mirror] = 0.5 * (p - q)
    m[mirror, :h + 1] = 0.5 * (s + t)
    m[np.ix_(mirror, mirror)] = 0.5 * (s - t)
    return m


def _surviving_from(frames: np.ndarray, abs_left: np.ndarray, abs_right: np.ndarray, w: int) -> int:
    """The first index rr at which a row or a column of some frame's next
    product may survive the flush (0 if none may; a NaN bound counts).

    frames, abs_left and abs_right are stacks of one depth; frame i is
    multiplied by left i and right i, and abs_left i and abs_right i are
    top |left i| and top |right i|, top the largest entry modulus of any
    factor.  Every frame must be zero in its rows and columns below w.  With
    L = left[w:], f = f[w:, w:] and R = right[w:, :] for one frame, row i of
    L f R is bounded by b_i = top sum_k |L_ik| c_k, where
    c_k = sum_l (|Re f_kl| + |Im f_kl|) >= sum_l |f_kl| and top >= max|R|,
    and column j by top sum_l d_l |R_lj|, d_l the same sums over the columns
    of f.  A row or column may survive if its bound reaches _FLUSH_BELOW / 2.
    Below that, every computed entry, rounding included, is at most
    (1 + n*eps) b < _FLUSH_BELOW in modulus, so _flush_tiny would zero both of
    its parts.  A row or column that no column of U's frames from w on
    reaches has a bound of exactly 0.  The nonzero entries of the factors,
    U's flushed frames with the fixed-point index halved, are at least
    _FLUSH_BELOW / 2 (about 2.5e-32), so b does not underflow; a term that did
    would move it by some 1e-320, far inside the factor 2 margin.
    """
    parts = np.abs(frames[:, w:, w:].view(np.float64))
    sums = parts[..., ::2] + parts[..., 1::2]
    rows = abs_left[:, :, w:] @ sums.sum(axis=2)[..., None]
    cols = sums.sum(axis=1)[:, None] @ abs_right[:, w:]
    hit = ~(rows[..., 0] < 0.5 * _FLUSH_BELOW) | ~(cols[:, 0] < 0.5 * _FLUSH_BELOW)
    return int(np.argmax(hit.any(axis=0)))


def build_floquet(N: int, k: float, hbar_k: float, train: PulseTrain) -> FloquetOperator:
    """Single-kick evolution operator, segment propagators applied in schedule order.

    Each segment acts in the even and the odd parity sector separately, so the
    operator is its two parity frames, exactly.  A driven segment is
    exponentiated by Hermitian eigendecomposition.  A dark one is diagonal in
    momentum, so its factor is an exact diagonal phase: it scales frame row j,
    which holds n = j - N/2, by exp(i t E_n) with t = -duration/hbar_k and
    E_n = n^2 hbar_k^2 / 2, formed in extended precision from the integer n^2
    and reduced mod 2*pi as in _expm_hermitian.
    """
    _, h_light = build_hamiltonians(N, k, hbar_k)
    h = N // 2
    # The even frame carries sqrt(2) on the fixed-point rows and columns
    # (see _fold); without it the even block is orthonormal.  The square root
    # of an outer product keeps the corners exactly 2, where sqrt(2)^2 is not.
    twos = np.ones(h + 1)
    twos[[0, h]] = 2.0
    scale = np.sqrt(np.outer(twos, twos))
    he, ho, _, _ = _fold(h_light)
    he, ho = he / scale, ho[1:h, 1:h]
    energies = np.arange(h, -1, -1).astype(np.longdouble) ** 2 * np.longdouble(hbar_k) ** 2 / 2
    light = {}
    ue, uo = np.eye(h + 1, dtype=complex), np.eye(h - 1, dtype=complex)
    for dur, driven in train.segments:
        t = -float(dur) / hbar_k
        if not driven:
            phase = _unit_phases(np.longdouble(t) * energies)
            ue, uo = phase[:, None] * ue, phase[1:h, None] * uo
            continue
        if dur not in light:
            light[dur] = (_expm_hermitian(he, t), _expm_hermitian(ho, t))
        ue, uo = light[dur][0] @ ue, light[dur][1] @ uo
    return FloquetOperator(ue * scale, np.pad(uo, 1))


def _channel(a: np.ndarray, b: np.ndarray, eta: float, lo: int, sign: float | np.ndarray) -> None:
    """The per-cycle spontaneous-emission channel on pairs of frames, in
    place on their [lo:, lo:] corner.

    In the momentum basis the channel is
    rho'[m, n] = eta/2 * (rho[m+1, n+1] + rho[m-1, n-1]) + (1 - eta) * rho[m, n],
    index shifts wrapping periodically: a convex mixture of the identity and
    two cyclic-shift conjugations, trace-preserving and completely positive.

    a and b are one pair of frames, or stacks of pairs on a leading axis, and
    sign is +1 for the pair (ee, oo) and -1 for (eo, oe): a number for one
    pair, or an array that broadcasts over the stack's pair axis against one
    column of a frame, as np.array([[1.0], [-1.0]]) does for the stack
    [ee, eo] with [oo, oe].  In the frame s = (a + b)/2 takes the (+1, +1)
    and (-1, -1) neighbours and d = (a - b)/2 the (+1, -1) and (-1, +1) ones.
    A neighbour index h + 1 stands for the mirror of h - 1 and index -1 (the
    periodic wrap past the ladder edge) for the mirror of 1: a row there is
    the other array's row h - 1 or 1, a column the other array's column times
    sign.  With lo > 0 the frames must be zero in the rows and columns below
    lo + 1, so nothing wraps.
    """
    n = a.shape[-1] - lo
    wa, wb = a[..., lo:, lo:], b[..., lo:, lo:]
    # The window with one neighbour index on each side; s and d hold a + b and
    # a - b, and the weights below carry the halves.
    s = np.zeros((*a.shape[:-2], n + 2, n + 2), complex)
    d = np.zeros_like(s)
    np.add(wa, wb, out=s[..., 1:-1, 1:-1])
    np.subtract(wa, wb, out=d[..., 1:-1, 1:-1])
    s[..., -1, 1:-1], d[..., -1, 1:-1] = d[..., -3, 1:-1], s[..., -3, 1:-1]
    if lo == 0:
        s[..., 0, 1:-1], d[..., 0, 1:-1] = d[..., 2, 1:-1], s[..., 2, 1:-1]
    # Each wrap column is sliced before it is signed, so only n + 2 entries a pair are multiplied.
    s[..., -1], d[..., -1] = sign * d[..., -3], sign * s[..., -3]
    if lo == 0:
        s[..., 0], d[..., 0] = sign * d[..., 2], sign * s[..., 2]
    s_new = s[..., 2:, 2:] + s[..., :-2, :-2]
    s_new *= 0.25 * eta
    s_new += (0.5 - 0.5 * eta) * s[..., 1:-1, 1:-1]
    d_new = d[..., 2:, :-2] + d[..., :-2, 2:]
    d_new *= 0.25 * eta
    d_new += (0.5 - 0.5 * eta) * d[..., 1:-1, 1:-1]
    np.add(s_new, d_new, out=wa)
    np.subtract(s_new, d_new, out=wb)


@dataclass
class EvolutionRecord:
    """Per-kick momentum populations plus full-state checkpoints."""

    kicks: np.ndarray                 # (n_kicks+1,)
    populations: np.ndarray           # (n_kicks+1, N)
    checkpoints: dict[int, DensityMatrix]
    edge_population_max: float        # largest population seen on the ladder edges


def evolve_density(
    rho0: DensityMatrix,
    floquet: FloquetOperator,
    eta: float,
    n_kicks: int,
    checkpoint_kicks: tuple[int, ...] = (),
) -> EvolutionRecord:
    """Apply n_kicks of (unitary cycle, then decoherence channel).

    rho stays in its parity frames (see _fold), held as one stack of depth 2,
    [ee, oo], or of depth 4, [ee, oo, eo, oe], when rho0 has even-odd
    coherence; neither the cycle nor the channel creates any.  The cycle
    conjugates frame i by the operator's frames ua, ub (see FloquetOperator):
    left[i] @ frame @ right[i], with left = (ua, ub, ua, ub) and right the
    conjugate transposes of (ua, ub, ub, ua), cut to the stack's depth, all in
    one batched product.  U's frames carry sqrt(2) on the fixed-point rows and
    columns, as rho's do (see _fold), and in U rho U^dag the summed index must
    lose it: so the fixed-point columns of left and rows of right are halved.
    The channel acts on the stack's pairs (ee, oo) and (eo, oe) in one call
    (see _channel), the populations are read from the stacked diagonals, and
    the frames are unfolded into the momentum basis only at the requested
    checkpoints.

    Each kick works on the trailing [w:, w:] window of the frames, outside
    which every entry is an exact zero; w is 0 before the first kick.  Only
    [rr:, rr:] of the cycle's result is computed: the rows and columns before
    rr, whose bound lies below _FLUSH_BELOW / 2, are the zeros the flush would
    leave (see _surviving_from), and those from w on are set to them.  Frame
    entries below _FLUSH_BELOW = eps^2 are zeroed after each cycle, which
    moves populations and checkpoints by about 1.5 * n_kicks * N^2 * eps^2 at
    most.  The window then starts at rr (which may exceed w), and one index
    earlier after the channel, which couples each entry to its diagonal
    neighbours.  Records diag(rho) at kick 0 and after every kick, and the
    full density matrix at the requested checkpoints, all read from the
    frames.  Tracks the largest population reaching the ladder edges, where
    the periodic wrap is unphysical.
    """
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"eta must lie in [0, 1], got {eta}")
    if rho0.size != floquet.size:
        raise ParameterError(f"rho0 has size {rho0.size} but the Floquet operator {floquet.size}")
    if n_kicks < 0:
        raise ParameterError(f"n_kicks must be >= 0, got {n_kicks}")
    outside = [c for c in checkpoint_kicks if not 0 <= c <= n_kicks]
    if outside:
        raise ParameterError(f"checkpoint kicks {outside} lie outside [0, {n_kicks}]")
    h = floquet.size // 2
    folded = _fold(rho0.matrix)
    # Neither the cycle nor the channel creates even-odd coherence: without any, the stack is [ee, oo].
    depth = 4 if np.any(folded[2]) or np.any(folded[3]) else 2
    frames = np.array(folded[:depth])
    ua, ub = floquet.frames
    left, right = np.array((ua, ub, ua, ub)[:depth]), np.array((ua, ub, ub, ua)[:depth]).conj()
    for f in (left, right):
        f[..., [0, -1]] *= 0.5
    right = right.transpose(0, 2, 1)
    abs_left, abs_right = np.abs(left), np.abs(right)
    top = abs_left.max()
    abs_left *= top
    abs_right *= top
    pops = np.empty((n_kicks + 1, 2 * h))
    checks = {}
    w = 0
    for kick in range(n_kicks + 1):
        if kick:
            rr = _surviving_from(frames, abs_left, abs_right, w)
            product = _flush_tiny(left[:, rr:, w:] @ frames[:, w:, w:] @ right[:, w:, rr:])
            frames[:, w:rr, w:] = 0.0
            frames[:, rr:, w:rr] = 0.0
            frames[:, rr:, rr:] = product
            w = rr
            if eta > 0.0:
                w = max(w - 1, 0)
                _channel(frames[0::2], frames[1::2], eta, w, np.array([[1.0], [-1.0]])[:depth // 2])
        # diag(rho) at j and at its mirror N - j: s +- c, with s = (ee + oo)/2 and c = (eo + oe)/2
        # in the frame; c is the sum of no rows, zeros, at depth 2.
        diagonals = frames.diagonal(axis1=1, axis2=2).real
        s, c = 0.5 * (diagonals[0] + diagonals[1]), 0.5 * diagonals[2:].sum(axis=0)
        pops[kick, :h + 1] = s + c
        pops[kick, h + 1:] = (s - c)[h - 1:0:-1]
        if kick in checkpoint_kicks:
            checks[kick] = DensityMatrix(_unfold(frames))
    edge_max = float(pops[:, [0, -1]].max())
    return EvolutionRecord(np.arange(n_kicks + 1), pops, checks, edge_max)
