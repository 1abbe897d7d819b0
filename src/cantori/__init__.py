"""Transport through cantori in a double-pulse driven rotor.

Classical ensemble dynamics, density-matrix Floquet evolution with a
per-kick spontaneous-emission channel, toroidal Wigner diagnostics, and
KAM-boundary transport metrics.
"""

__version__ = "0.1.0"

from .model import (
    ParameterError,
    PhysicalParams,
    PulseTrain,
    SimParams,
    build_pulse_train,
    chirikov_overlap,
    fourier_coefficient,
    physical_to_scaled,
    resonance_width,
)
from .classical import (
    ClassicalEnsemble,
    FluxEstimate,
    cantorus_flux,
    drift_segment,
    evolve_ensemble,
    pendulum_segment,
    poincare_section,
    thermal_ensemble,
)
from .quantum import (
    DensityMatrix,
    FloquetOperator,
    apply_decoherence,
    build_floquet,
    build_hamiltonians,
    evolve_density,
    momentum_distribution,
    momentum_ladder,
)
from .wigner import WignerGrid, coarse_grain, coarse_wigner, negativity_volume, toroidal_wigner
from .analysis import (
    TransportCurve,
    fraction_outside_classical,
    fraction_outside_quantum,
    kinetic_energy,
    kinetic_energy_quantum,
)
