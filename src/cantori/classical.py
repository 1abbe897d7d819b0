"""Classical ensemble dynamics of the double-pulse driven rotor.

One kick cycle alternates free drift (H = rho^2/2) with pendulum motion
(H = rho^2/2 - k cos phi) according to the pulse-train schedule.  Two
pendulum backends are provided:

* "elliptic"   -- exact evolution via Jacobi elliptic functions, with the
                  amplitude and phase matched to each trajectory by inverting
                  the elliptic integral; falls back to substepping within a
                  narrow band around the separatrix where the inversion is
                  ill-conditioned.
* "symplectic" -- 4th-order Yoshida composition with duration/256 substeps.

Both conserve the segment energy to better than 1e-9 relative.

Large ensembles run on every core the process may use: pendulum_segment cuts
phi, rho and a per-trajectory k into contiguous blocks of at most 8192
trajectories (the block count a multiple of the core count) and runs the
kernel on the blocks in a thread pool.  The kernels work element by element
and scipy's elliptic functions and numpy's ufuncs release the GIL, so the
output is bitwise identical whatever the core count.  Ensembles of 8192 or
fewer run inline: split in two on a 2-core Xeon, the elliptic kernel ran
x0.86 as fast at 2000 trajectories, x0.92 at 8000, x1.48 at 10,000 and x1.72
at 100,000 (the symplectic one x0.96 at 2000, x1.43 at 4000), and bounded
blocks keep the temporaries each worker thread's allocator holds small.  Only
the private kernels run on the workers, so every public function is entered
and left on the calling thread.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipj, ellipk, ellipkinc

from .model import ParameterError, PulseTrain, SimParams

TWO_PI = 2.0 * np.pi

# |m - 1| below this (m the elliptic parameter of either branch) counts as
# "on the separatrix" and is handed to the substep integrator instead.
_SEPARATRIX_BAND = 1e-9

# Yoshida triple-jump coefficients for the 4th-order composition.
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
    """Arrays of (phi, rho) trajectory pairs; phi kept in [0, 2*pi)."""

    phi: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        self.phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        self.rho = np.atleast_1d(np.asarray(self.rho, dtype=float))
        if self.phi.shape != self.rho.shape:
            raise ParameterError("phi and rho must have equal shapes")

    def __len__(self) -> int:
        return self.phi.size


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


def thermal_ensemble(params: SimParams, rng: np.random.Generator | None = None) -> ClassicalEnsemble:
    """Uniform in phi, Gaussian in rho with width init_momentum_sigma."""
    rng = rng or np.random.default_rng(params.rng_seed)
    phi = rng.uniform(0.0, TWO_PI, params.n_trajectories)
    rho = rng.normal(0.0, params.init_momentum_sigma, params.n_trajectories)
    return ClassicalEnsemble(phi, rho)


def drift_segment(phi, rho, duration: float):
    """Free evolution: phi advances by rho*duration (wrapped), rho unchanged."""
    return np.mod(phi + rho * duration, TWO_PI), rho


def _wrap_centered(phi):
    """Wrap to [-pi, pi)."""
    return np.mod(phi + np.pi, TWO_PI) - np.pi


def _pendulum_symplectic(phi, rho, k, duration, n_steps: int = 256):
    """Yoshida 4th-order composition of leapfrog steps for H = rho^2/2 - k cos phi."""
    h = duration / n_steps
    phi = np.array(phi, dtype=float, copy=True)
    rho = np.array(rho, dtype=float, copy=True)
    for _ in range(n_steps):
        for w in (_W1, _W0, _W1):
            dt = w * h
            phi += 0.5 * dt * rho
            rho -= dt * k * np.sin(phi)
            phi += 0.5 * dt * rho
    return phi, rho


def _pendulum_elliptic(phi, rho, k, duration):
    """Exact pendulum evolution via Jacobi elliptic functions.

    Libration (E < k):  sin(phi/2) = kappa sn(theta, m), rho = 2 sqrt(k) kappa cn,
    with m = kappa^2 = (E + k)/(2k) and theta advancing at sqrt(k).
    Rotation (E > k):   phi/2 = am(theta, m), rho = sigma (2 sqrt(k)/kappa) dn,
    with m = kappa^2 = 2k/(E + k) and theta advancing at sigma sqrt(k)/kappa.
    """
    phi = np.asarray(phi, dtype=float)
    rho = np.asarray(rho, dtype=float)
    w0 = np.sqrt(k)
    phin = _wrap_centered(phi)
    energy = 0.5 * rho**2 - k * np.cos(phin)
    free = np.equal(k, 0.0)               # per-trajectory k = 0 drifts
    with np.errstate(divide="ignore", invalid="ignore"):
        m_lib = (energy + k) / (2.0 * k)  # <1 libration, >1 rotation

    out_phi = np.empty_like(phin)
    out_rho = np.empty_like(rho)

    near_sep = np.abs(m_lib - 1.0) < _SEPARATRIX_BAND
    lib = (m_lib < 1.0) & ~near_sep
    rot = (m_lib > 1.0) & ~near_sep & ~free

    if np.any(free):
        out_phi[free] = phi[free] + rho[free] * duration
        out_rho[free] = rho[free]

    if np.any(lib):
        m = m_lib[lib]
        kappa = np.sqrt(m)
        with np.errstate(invalid="ignore", divide="ignore"):
            s = np.where(kappa > 0.0, np.sin(phin[lib] / 2.0) / np.where(kappa > 0, kappa, 1.0), 0.0)
        s = np.clip(s, -1.0, 1.0)
        theta0 = ellipkinc(np.arcsin(s), m)
        neg = rho[lib] < 0.0
        if np.any(neg):
            big_k = ellipk(m)
            theta0 = np.where(neg, 2.0 * big_k - theta0, theta0)
        wlib = w0[lib] if np.ndim(w0) else w0
        sn, cn, _, _ = ellipj(theta0 + wlib * duration, m)
        out_phi[lib] = 2.0 * np.arcsin(np.clip(kappa * sn, -1.0, 1.0))
        out_rho[lib] = 2.0 * wlib * kappa * cn

    if np.any(rot):
        m = 1.0 / m_lib[rot]
        kappa = np.sqrt(m)
        sigma = np.where(rho[rot] >= 0.0, 1.0, -1.0)
        theta0 = ellipkinc(phin[rot] / 2.0, m)
        wrot = w0[rot] if np.ndim(w0) else w0
        _, _, dn, ph = ellipj(theta0 + sigma * (wrot / kappa) * duration, m)
        out_phi[rot] = 2.0 * ph
        out_rho[rot] = sigma * 2.0 * (wrot / kappa) * dn

    if np.any(near_sep):
        ksep = k[near_sep] if np.ndim(k) else k
        p, r = _pendulum_symplectic(phin[near_sep], rho[near_sep], ksep, duration)
        out_phi[near_sep] = p
        out_rho[near_sep] = r

    return np.mod(out_phi, TWO_PI), out_rho


@functools.cache
def _executor(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix="cantori-pendulum")


def _blockwise(kernel, phi, rho, k, duration):
    """kernel(phi, rho, k, duration) run on trajectory blocks across the cores.

    The kernels are element-wise, so the concatenated blocks are the bytes of
    one call.  The workers run only the kernel, never a public function.
    """
    n_blocks = -(-phi.size // _BLOCK)
    if n_blocks <= 1 or _WORKERS <= 1:
        return kernel(phi, rho, k, duration)
    n_blocks = -(-n_blocks // _WORKERS) * _WORKERS
    shape = phi.shape
    phi, rho = phi.reshape(-1), rho.reshape(-1)
    if np.ndim(k):
        k = k.reshape(-1)
    cuts = [phi.size * i // n_blocks for i in range(n_blocks + 1)]
    pool = _executor(_WORKERS)
    futures = [
        pool.submit(kernel, phi[a:b], rho[a:b], k[a:b] if np.ndim(k) else k, duration)
        for a, b in zip(cuts[:-1], cuts[1:])
    ]
    parts = [future.result() for future in futures]
    return tuple(np.concatenate([part[i] for part in parts]).reshape(shape) for i in (0, 1))


def pendulum_segment(phi, rho, k, duration: float, method: str = "symplectic"):
    """Evolve under H = rho^2/2 - k cos phi for the given duration.

    k may be a finite scalar >= 0 or a per-trajectory array of phi's shape.
    Returns wrapped phi.
    """
    if not 0 <= duration < np.inf:
        raise ParameterError(f"duration must be finite and >= 0, got {duration}")
    phi = np.asarray(phi, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if phi.shape != rho.shape:
        raise ParameterError(f"phi and rho must have equal shapes, got {phi.shape} and {rho.shape}")
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(rho))):
        raise NumericalDomainError("non-finite phase-space input")
    k = np.asarray(k, dtype=float)
    if k.ndim and k.shape != phi.shape:
        raise ParameterError(f"per-trajectory k has shape {k.shape}, the trajectories {phi.shape}")
    if not np.all(np.isfinite(k) & (k >= 0.0)):
        raise ParameterError("kick strength k must be finite and >= 0")
    k = k if k.ndim else float(k)
    if duration == 0:
        return np.mod(phi, TWO_PI), rho.copy()
    if np.all(k == 0.0):
        return drift_segment(phi, rho, duration)
    if method == "elliptic":
        return _blockwise(_pendulum_elliptic, phi, rho, k, duration)
    if method == "symplectic":
        p, r = _blockwise(_pendulum_symplectic, phi, rho, k, duration)
        return np.mod(p, TWO_PI), r
    raise ParameterError(f"unknown pendulum backend {method!r}")


def kick_cycle(phi, rho, k, train: PulseTrain, method: str = "symplectic"):
    """Apply one full pulse-train cycle."""
    for dur, driven in train.segments:
        d = float(dur)
        if driven:
            phi, rho = pendulum_segment(phi, rho, k, d, method=method)
        else:
            phi, rho = drift_segment(phi, rho, d)
    return phi, rho


def evolve_ensemble(
    ensemble: ClassicalEnsemble,
    params: SimParams,
    train: PulseTrain | None = None,
    n_kicks: int | None = None,
    method: str = "symplectic",
    record_every: int = 1,
) -> TrajectoryRecord:
    """Evolve an ensemble for n_kicks cycles, recording stroboscopic snapshots.

    With kick_spread_rms > 0, each trajectory carries its own kick strength
    drawn once at the start (Gaussian, fractional RMS as configured).
    """
    train = train or params.pulse_train()
    n_kicks = params.n_kicks if n_kicks is None else n_kicks
    phi = np.mod(ensemble.phi.copy(), TWO_PI)
    rho = ensemble.rho.copy()

    k = params.kick_strength
    if params.kick_spread_rms > 0.0:
        rng = np.random.default_rng((params.rng_seed, 0xC5))
        k = np.clip(k * (1.0 + params.kick_spread_rms * rng.standard_normal(len(ensemble))), 0.0, None)

    kicks = [0]
    snaps_phi = [phi.copy()]
    snaps_rho = [rho.copy()]
    for kick in range(1, n_kicks + 1):
        phi, rho = kick_cycle(phi, rho, k, train, method=method)
        if kick % record_every == 0 or kick == n_kicks:
            kicks.append(kick)
            snaps_phi.append(phi.copy())
            snaps_rho.append(rho.copy())
    return TrajectoryRecord(np.array(kicks), np.array(snaps_phi), np.array(snaps_rho))


def poincare_section(
    seeds,
    k: float,
    train: PulseTrain,
    n_kicks: int,
    method: str = "elliptic",
) -> np.ndarray:
    """Iterate the stroboscopic map for each seed; returns all (phi, rho) points, shape (n_points, 2)."""
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    if seeds.size == 0:
        raise ParameterError("need at least one seed")
    phi = np.mod(seeds[:, 0].copy(), TWO_PI)
    rho = seeds[:, 1].copy()
    pts = [np.column_stack([phi, rho])]
    for _ in range(n_kicks):
        phi, rho = kick_cycle(phi, rho, k, train, method=method)
        pts.append(np.column_stack([phi, rho]))
    return np.concatenate(pts, axis=0)


def cantorus_flux(
    k: float,
    train: PulseTrain,
    boundary: float,
    n_seeds: int = 100_000,
    n_replicates: int = 8,
    band_halfwidth: float = TWO_PI,
    rng_seed: int = 0,
    method: str = "elliptic",
) -> FluxEstimate:
    """Estimate the phase-space area crossing |rho| = boundary per kick cycle.

    Each replicate seeds the band boundary +- band_halfwidth uniformly (seed
    area = band area / n_seeds) and applies a single stroboscopic cycle; the
    area carried by seeds that cross the boundary equals the turnstile lobe
    area mapped across per cycle.  Outward and inward crossings give two
    samples per replicate (equal in the mean, by area preservation).  Only the
    first cycle after a fresh uniform fill measures the turnstile: the band
    density near the boundary depletes on subsequent cycles and the crossing
    counts decay, so replicates are independent seedings rather than later
    cycles of one run.
    """
    area_per_seed = (TWO_PI * 2.0 * band_halfwidth) / n_seeds
    samples = []
    total = 0
    for rep in range(n_replicates):
        rng = np.random.default_rng((rng_seed, rep))
        phi = rng.uniform(0.0, TWO_PI, n_seeds)
        rho = rng.uniform(boundary - band_halfwidth, boundary + band_halfwidth, n_seeds)
        below = rho < boundary
        phi, rho = kick_cycle(phi, rho, k, train, method=method)
        above = rho > boundary
        n_out = int((below & above).sum())
        n_in = int((~below & ~above).sum())
        total += n_out + n_in
        samples.append(n_out * area_per_seed)
        samples.append(n_in * area_per_seed)
    if total < 100:
        raise StatisticsError(
            f"only {total} boundary crossings observed; increase seeds or replicates", total
        )
    samples = np.asarray(samples, dtype=float)
    flux = float(samples.mean())
    stderr = float(samples.std(ddof=1) / np.sqrt(samples.size))
    return FluxEstimate(flux, stderr, total, samples)
