"""Classical ensemble dynamics of the double-pulse driven rotor.

One kick cycle alternates free drift (H = rho^2/2) with pendulum motion
(H = rho^2/2 - k cos phi) according to the pulse-train schedule.  Two
pendulum backends are provided:

* "elliptic"   -- exact evolution via Jacobi elliptic functions, with the
                  amplitude and phase matched to each trajectory by inverting
                  the elliptic integral; falls back to substepping within a
                  narrow band around the separatrix where the inversion is
                  ill-conditioned.  Libration and rotation share one
                  elementwise path: each trajectory takes the parameter m of
                  its regime, and np.where picks each output from both.
* "symplectic" -- 4th-order Yoshida composition of 256 substeps of length
                  duration/256.

Both conserve the segment energy to better than 1e-9 relative.  scipy.special
is imported on the first elliptic call, not with this module, so the quantum
scenarios and configuration checks never load SciPy.

Every kernel returns phi wrapped into [0, 2*pi) by _wrap.  Every kick loop
runs in _recorded_kicks, on one path: it cuts the trajectories once per run
into contiguous blocks (one block for 8192 or fewer, else blocks of at most
8192, the block count a multiple of the cores the process may use), each
block runs every cycle on a pool thread and returns what the caller's keep
makes of its state after each cycle, and the caller sums or stores the
blocks' lists.  The blocks share no state.  Three public functions run it:
evolve_ensemble(ensemble, params, ...) keeps (phi, rho) snapshots of the
given ensemble, 16 bytes per trajectory and kick, which each block writes
into its own slice of one record (the Poincare section is its elliptic
record).  transport_counts(params, boundary) and cantorus_flux(params,
boundary, ...) take their k, pulse train and seed from the run's SimParams
alone: transport_counts draws thermal_ensemble(params) and keeps each kick's
count of |rho| beyond the boundary, and cantorus_flux seeds a band around the
boundary and keeps each block's outward and inward crossing counts, both on
the elliptic backend, so their memory is the ensemble's current state.  Each
segment, dark ones as k = 0, goes through _driven and its finiteness check.
The kernels work element by element and release the GIL, so the output is
bitwise that of one kernel call per segment on the whole ensemble.  The
workers run only private functions and this module's own binding of
analysis.count_outside, so every public function of cantori is entered and
left on the calling thread.  Neither a run nor a segment returns a
non-finite point.
"""

from __future__ import annotations

import contextvars
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .analysis import count_outside
from .model import ParameterError, PulseTrain, SimParams

TWO_PI = 2.0 * np.pi

# |m - 1| below this (m the elliptic parameter of either branch) counts as
# "on the separatrix" and is handed to the substep integrator instead.
_SEPARATRIX_BAND = 1e-9

# Yoshida triple-jump coefficients for the 4th-order composition, and its substep count.
_SUBSTEPS = 256
_CBRT2 = 2.0 ** (1.0 / 3.0)
_W1 = 1.0 / (2.0 - _CBRT2)
_W0 = -_CBRT2 / (2.0 - _CBRT2)

# Largest trajectory block of the core split, and the number of workers.
_BLOCK = 8192
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class NumericalDomainError(ValueError):
    """Non-finite phase-space coordinates."""


class StatisticsError(RuntimeError):
    """Too few events for a meaningful estimate."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


@dataclass
class ClassicalEnsemble:
    """Arrays of (phi, rho) trajectory pairs, phi stored as given (evolve_ensemble wraps it into [0, 2*pi))."""

    phi: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        self.phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        self.rho = np.atleast_1d(np.asarray(self.rho, dtype=float))
        if self.phi.shape != self.rho.shape:
            raise ParameterError("phi and rho must have equal shapes")


@dataclass
class TrajectoryRecord:
    """Stroboscopic snapshots of an ensemble, one row per recorded kick."""

    kicks: np.ndarray        # (n_snapshots,)
    phi: np.ndarray          # (n_snapshots, n_trajectories)
    rho: np.ndarray          # (n_snapshots, n_trajectories)


@dataclass
class FluxEstimate:
    """Phase-space area crossing a momentum boundary per kick cycle."""

    flux: float
    stderr: float
    n_crossings: int
    samples: np.ndarray      # per-replicate, per-direction flux samples


def thermal_ensemble(params: SimParams) -> ClassicalEnsemble:
    """Uniform in phi, Gaussian in rho with width init_momentum_sigma, drawn from rng_seed."""
    rng = np.random.default_rng(params.rng_seed)
    phi = rng.uniform(0.0, TWO_PI, params.n_trajectories)
    # abs: NumPy refuses a width of -0.0, which SimParams accepts as 0.
    rho = rng.normal(0.0, abs(params.init_momentum_sigma), params.n_trajectories)
    return ClassicalEnsemble(phi, rho)


def _wrap(phi):
    """phi mod 2*pi in [0, 2*pi): np.mod returns exactly 2*pi for tiny negative phi, and that is
    mapped to 0.  A NaN stays NaN."""
    w = np.mod(phi, TWO_PI)
    return np.where(w == TWO_PI, 0.0, w)


def _wrap_centered(phi):
    """Wrap to [-pi, pi)."""
    return _wrap(phi + np.pi) - np.pi


def _pendulum_symplectic(phi, rho, k, duration):
    """Yoshida 4th-order composition of _SUBSTEPS leapfrog steps for H = rho^2/2 - k cos phi.
    Returns wrapped phi."""
    h = duration / _SUBSTEPS
    phi = np.array(phi, dtype=float, copy=True)
    rho = np.array(rho, dtype=float, copy=True)
    for _ in range(_SUBSTEPS):
        for w in (_W1, _W0, _W1):
            dt = w * h
            phi += 0.5 * dt * rho
            rho -= dt * k * np.sin(phi)
            phi += 0.5 * dt * rho
    return _wrap(phi), rho


def _pendulum_elliptic(phi, rho, k, duration):
    """Exact pendulum evolution via Jacobi elliptic functions.

    Libration (E < k):  sin(phi/2) = kappa sn(theta, m), rho = 2 sqrt(k) kappa cn,
    with m = kappa^2 = (E + k)/(2k) and theta advancing at sqrt(k).
    Rotation (E > k):   phi/2 = am(theta, m), rho = sigma (2 sqrt(k)/kappa) dn,
    with m = kappa^2 = 2k/(E + k) and theta advancing at sigma sqrt(k)/kappa.
    phi and rho are float arrays of one shape.  One path serves both regimes:
    each element takes the m and the ellipkinc amplitude of its regime, one
    ellipkinc and one ellipj call cover every element, and np.where picks each
    output.  np.where evaluates both regimes everywhere, and rotation divides by
    zero at the bottom of the well (m_lib = 0), so divide and invalid are ignored
    in that block only; energy and m_lib run under the caller's np.errstate.
    Elements within _SEPARATRIX_BAND of the separatrix are redone by substeps.
    """
    # Imported on first use so that importing cantori does not load SciPy.  The
    # import system locks each module while it loads, so a first call on
    # several pool workers at once is safe.
    from scipy.special import ellipj, ellipk, ellipkinc

    w0 = np.sqrt(k)
    phin = _wrap_centered(phi)
    energy = 0.5 * rho**2 - k * np.cos(phin)
    m_lib = (energy + k) / (2.0 * k)      # <1 libration, >1 rotation
    lib = m_lib < 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(lib, m_lib, 1.0 / m_lib)
        kappa = np.sqrt(m)
        s = np.clip(np.where(kappa > 0.0, np.sin(phin / 2.0) / kappa, 0.0), -1.0, 1.0)
        # asarray: ellipkinc returns a scalar, not a writable array, for 0-d input.
        theta0 = np.asarray(ellipkinc(np.where(lib, np.arcsin(s), phin / 2.0), m))
        neg = lib & (rho < 0.0)
        theta0[neg] = 2.0 * ellipk(m[neg]) - theta0[neg]
        speed = np.where(lib, w0, np.where(rho >= 0.0, 1.0, -1.0) * (w0 / kappa))
        sn, cn, dn, ph = ellipj(theta0 + speed * duration, m)
        out_phi = np.where(lib, 2.0 * np.arcsin(np.clip(kappa * sn, -1.0, 1.0)), 2.0 * ph)
        # Scaling by 2 and sigma is exact, so 2 * speed equals the rotation's sigma * 2 * (w0 / kappa).
        out_rho = np.where(lib, 2.0 * w0 * kappa * cn, 2.0 * speed * dn)

    near_sep = np.abs(m_lib - 1.0) < _SEPARATRIX_BAND
    if np.any(near_sep):
        out_phi[near_sep], out_rho[near_sep] = _pendulum_symplectic(phin[near_sep], rho[near_sep], k, duration)
    return _wrap(out_phi), out_rho


def _check_inputs(phi, rho, k, method: str):
    """phi and rho as float arrays of one shape, k as one finite float >= 0, and a known backend."""
    phi = np.asarray(phi, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if phi.shape != rho.shape:
        raise ParameterError(f"phi and rho must have equal shapes, got {phi.shape} and {rho.shape}")
    k = np.asarray(k, dtype=float)
    if k.shape or not 0.0 <= k < np.inf:
        raise ParameterError(f"kick strength k must be a finite scalar >= 0, got {k}")
    if method not in ("elliptic", "symplectic"):
        raise ParameterError(f"unknown pendulum backend {method!r}")
    return phi, rho, float(k)


def _require_finite(phi, rho, what: str) -> None:
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(rho))):
        raise NumericalDomainError(f"non-finite phase-space {what}")


def _driven(phi, rho, k: float, duration: float, method: str):
    """One segment on checked arguments after a finiteness check of its input: the method's
    kernel, or a drift for k = 0 or duration 0.  Returns the kernel's wrapped phi and rho."""
    _require_finite(phi, rho, "input")
    if duration == 0 or k == 0.0:
        return _wrap(phi + rho * duration), rho
    # Looked up at call time, so a kernel replaced on the module is the one that runs.
    kernel = _pendulum_elliptic if method == "elliptic" else _pendulum_symplectic
    return kernel(phi, rho, k, duration)


def pendulum_segment(phi, rho, k, duration: float, method: str = "symplectic"):
    """Evolve under H = rho^2/2 - k cos phi for the given duration.

    k is one finite scalar >= 0 for every trajectory; k = 0 is free drift.
    Returns wrapped phi.  Raises NumericalDomainError on a non-finite input or
    output point (k near the float maximum, or |rho| whose square overflows).
    """
    if not 0 <= duration < np.inf:
        raise ParameterError(f"duration must be finite and >= 0, got {duration}")
    phi, rho = _driven(*_check_inputs(phi, rho, k, method), duration, method)
    _require_finite(phi, rho, "output")
    return phi, rho


def _kick_block(block: slice, phi, rho, segments: list, method: str, n_kicks: int, keep) -> list:
    """Run one block's n_kicks cycles from its start (phi, rho) and return what keep(block, i, phi,
    rho) returns for its state after each cycle i, the start as i = 0.  Every (duration, k) segment
    goes through _driven, a dark one with k = 0, and the final state through the output check."""
    kept = [keep(block, 0, phi, rho)]
    for i in range(1, n_kicks + 1):
        for duration, k in segments:
            phi, rho = _driven(phi, rho, k, duration, method)
        kept.append(keep(block, i, phi, rho))
    _require_finite(phi, rho, "output")
    return kept


@functools.cache
def _executor(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix="cantori-kicks")


def _recorded_kicks(phi, rho, k, train: PulseTrain, n_kicks: int, method: str, keep) -> list:
    """Run n_kicks cycles from (phi, rho) and return, in block order, each block's list of what
    keep(block, i, phi, rho) returns on the block's worker for its state after cycles 0 ... n_kicks;
    block is the block's slice of the raveled ensemble.  Every block, an empty ensemble's one empty
    block included, runs on the pool as the module docstring says; once all are done, the first
    error is raised.  A NaN or inf within the run fails the next segment's input check; one in a
    block's final state raises NumericalDomainError("non-finite phase-space output")."""
    if n_kicks < 0:
        raise ParameterError(f"n_kicks must be >= 0, got {n_kicks}")
    phi, rho, k = _check_inputs(phi, rho, k, method)
    segments = [(float(d), k if driven else 0.0) for d, driven in train.segments]
    n_blocks = -(-phi.size // _BLOCK)
    n_blocks = -(-n_blocks // _WORKERS) * _WORKERS if n_blocks > 1 else 1
    cuts = [phi.size * i // n_blocks for i in range(n_blocks + 1)]
    flat_phi, flat_rho = phi.ravel(), rho.ravel()
    # Each block runs in a copy of the caller's context, so the workers keep its np.errstate.
    futures = [_executor(_WORKERS).submit(contextvars.copy_context().run, _kick_block, slice(a, b), flat_phi[a:b],
                                          flat_rho[a:b], segments, method, n_kicks, keep)
               for a, b in zip(cuts[:-1], cuts[1:])]
    wait(futures)
    return [future.result() for future in futures]


def evolve_ensemble(
    ensemble: ClassicalEnsemble,
    params: SimParams,
    train: PulseTrain | None = None,
    n_kicks: int | None = None,
    method: str = "symplectic",
) -> TrajectoryRecord:
    """Evolve an ensemble for n_kicks cycles (params.n_kicks by default) of the train (the params'
    by default), phi wrapped first, and record its (phi, rho) snapshots at kicks 0 ... n_kicks;
    each block writes its own slice of the record."""
    n_kicks = params.n_kicks if n_kicks is None else n_kicks
    # No rows for a negative n_kicks, which _recorded_kicks refuses before any block runs.
    snaps = np.empty((2, max(n_kicks + 1, 0), ensemble.phi.size))

    def keep(block, i, phi, rho):
        snaps[0, i, block], snaps[1, i, block] = phi, rho
    _recorded_kicks(_wrap(ensemble.phi), ensemble.rho, params.kick_strength, train or params.pulse_train(),
                    n_kicks, method, keep)
    phi, rho = snaps.reshape(2, n_kicks + 1, *ensemble.phi.shape)
    return TrajectoryRecord(np.arange(n_kicks + 1), phi, rho)


def transport_counts(params: SimParams, boundary: float) -> np.ndarray:
    """Trajectories with |rho| > boundary at kicks 0..params.n_kicks on the elliptic backend.  The
    ensemble is thermal_ensemble(params), drawn from params.rng_seed, and k and the pulse train are
    the params' too.  These are the counts that analysis.transport_curve_classical takes from
    evolve_ensemble's elliptic record of that ensemble, bit for bit, with no record kept.  Each block
    returns its own trajectories' count after every cycle from its worker, and the blocks' counts
    are summed."""
    ensemble = thermal_ensemble(params)
    blocks = _recorded_kicks(_wrap(ensemble.phi), ensemble.rho, params.kick_strength, params.pulse_train(),
                             params.n_kicks, "elliptic", lambda block, i, phi, rho: count_outside(rho, boundary))
    return np.sum(blocks, axis=0)


def cantorus_flux(params: SimParams, boundary: float, n_seeds: int = 100_000, n_replicates: int = 8) -> FluxEstimate:
    """Estimate the phase-space area crossing |rho| = boundary per kick cycle.  k and the pulse
    train are the params', and replicate r draws its seeds from default_rng((params.rng_seed, r)).

    Each replicate seeds the band boundary +- 2*pi uniformly (seed area =
    band area / n_seeds) and applies a single stroboscopic cycle of the
    elliptic backend; the estimate is the area carried by the seeds that
    cross the boundary.  It counts only seeds within +- 2*pi of the boundary,
    so it is a lower bound on the turnstile lobe area mapped across per
    cycle.  One cycle can move rho by up to k times the total pulse time
    (8.6*pi at k = 270); seeds up to 3.25*pi away cross at k = 270, and 3.56*pi
    at k = 280, so the estimate is about 8% low at k = 270 and 10% at k = 280.
    Outward and inward crossings give two samples per replicate (equal in
    the mean, by area preservation).  Only the first cycle after a fresh
    uniform fill measures the turnstile: the band density near the boundary
    depletes on subsequent cycles and the crossing counts decay, so
    replicates are independent seedings rather than later cycles of one run.
    Each block of a replicate's seeds returns its outward and inward counts
    after the cycle, reading its start side from the seeds, which the kernels
    never write, so no snapshot record is kept; the blocks' pairs are summed.
    """
    if n_seeds < 1 or n_replicates < 1:
        raise ParameterError(f"need n_seeds >= 1 and n_replicates >= 1, got {n_seeds} and {n_replicates}")
    if not np.isfinite(boundary):
        raise ParameterError(f"need a finite boundary, got {boundary}")
    area_per_seed = (TWO_PI * 2.0 * TWO_PI) / n_seeds
    counts = []        # crossings out, then in, per replicate

    # Reads the running replicate's seed_rho, which the kernels never write.
    def crossings(block, i, phi, rho):
        if i:
            below, above = seed_rho[block] < boundary, rho > boundary
            return int(np.count_nonzero(below & above)), int(np.count_nonzero(~below & ~above))

    for rep in range(n_replicates):
        rng = np.random.default_rng((params.rng_seed, rep))
        phi = rng.uniform(0.0, TWO_PI, n_seeds)
        seed_rho = rng.uniform(boundary - TWO_PI, boundary + TWO_PI, n_seeds)
        blocks = _recorded_kicks(phi, seed_rho, params.kick_strength, params.pulse_train(), 1, "elliptic", crossings)
        counts += map(sum, zip(*(kept[1] for kept in blocks)))
    total = sum(counts)
    if total < 100:
        raise StatisticsError(
            f"only {total} boundary crossings observed; increase seeds or replicates", total
        )
    samples = np.array(counts) * area_per_seed
    flux = float(samples.mean())
    stderr = float(samples.std(ddof=1) / np.sqrt(samples.size))
    return FluxEstimate(flux, stderr, total, samples)
