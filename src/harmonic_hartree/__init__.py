"""Fock-basis dynamics of the harmonic Hartree system.

Library layout:

* :mod:`.fock`        -- truncated ladder algebra and dense state vectors
* :mod:`.hamiltonian` -- energy and the full / sphere / chart vector fields
* :mod:`.reduction`   -- phase-quotient geometry (projection, form, metric)
* :mod:`.equilibria`  -- relative equilibria and linearization spectra
* :mod:`.orbits`      -- centered subspaces and closed-form periodic orbits
* :mod:`.integrate`   -- adaptive Dormand-Prince 8(5,3) oracle for the sphere
                         flow, with 7th-order dense output
* :mod:`.pipeline`    -- d=1 grid chain down to classical densities
* :mod:`.cli`         -- command-line interface
"""

from .errors import (
    BasisMismatchError,
    IntegrationError,
    NormalizationError,
    NotCenteredError,
    TruncationError,
)
from .fock import Cutoff, FockVector, MultiIndex
from .hamiltonian import FieldKind

__all__ = [
    "BasisMismatchError",
    "Cutoff",
    "FieldKind",
    "FockVector",
    "IntegrationError",
    "MultiIndex",
    "NormalizationError",
    "NotCenteredError",
    "TruncationError",
]
