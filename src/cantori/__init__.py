"""Transport through cantori in a double-pulse driven rotor.

Classical ensemble dynamics, density-matrix Floquet evolution with a
per-kick spontaneous-emission channel, toroidal Wigner diagnostics, and
KAM-boundary transport metrics.
"""

__version__ = "0.1.0"
