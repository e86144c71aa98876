"""Quotient geometry of the unit sphere modulo the global phase circle.

The conserved quantity generating the phase action is half the squared
norm; its level set at 1/2 is the unit sphere, and the quotient carries a
unique symplectic form pulled back from Im<.,.>.  This module provides the
tangent projection onto the quotient chart, the reduced two-form, a gauge
fixing that picks a canonical representative of each phase class, and a
chordal metric on the quotient used by every closedness test.

Sign convention: with ``inner`` conjugate-linear in the second slot,
``symplectic_form(v, u, i*u) = Im<u, i*u> = -|u|^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import NormalizationError
from .fock import FockVector

GAUGE_EPS = 1e-10


@dataclass(frozen=True)
class QuotientPoint:
    """Canonical unit-norm representative of a phase class.

    Gauge: the coefficient at the lexicographically first multi-index with
    magnitude above 1e-10 is real and positive.
    """

    rep: FockVector


def moment_map(v: FockVector) -> float:
    """Conserved quantity of the phase action: half the squared norm."""
    return 0.5 * v.norm_sq


def project_tangent(base: FockVector, delta: FockVector) -> FockVector:
    """Project a sphere-tangent vector onto the quotient chart at ``base``.

    Requires |base| = 1 and Re<base, delta> = 0 (both to 1e-10).  The output
    is fully complex-orthogonal to ``base``; the phase direction i*base is
    exactly the kernel.
    """
    fock.require_unit(base, what="base")
    ip = fock.inner(delta, base)
    if abs(ip.real) > 1e-10:
        raise ValueError(f"delta is not sphere-tangent: Re<base,delta>={ip.real}")
    return delta - ip * base


def symplectic_form(base: FockVector, d1: FockVector, d2: FockVector) -> float:
    """Reduced symplectic form Im<d1, d2> on the chart at ``base``.

    Both tangents must be complex-orthogonal to ``base`` (to 1e-10).
    """
    for d in (d1, d2):
        if abs(fock.inner(d, base)) > 1e-10 * max(1.0, d.norm):
            raise ValueError("tangent is not complex-orthogonal to base")
    return fock.inner(d1, d2).imag


def ambient_form(d1: FockVector, d2: FockVector) -> float:
    """Ambient constant symplectic form Im<d1, d2>."""
    return fock.inner(d1, d2).imag


def gauge_fix(v: FockVector) -> QuotientPoint:
    """Canonical representative of the phase class of ``v``.

    ``v`` must have norm within 1e-8 of 1 (renormalized internally).
    Invariant under v -> zeta v for any unit phase zeta.
    """
    fock.require_unit(v, 1e-8, what="gauge_fix input")
    u = (1.0 / v.norm) * v
    above = np.flatnonzero(np.abs(u.array) > GAUGE_EPS)
    if above.size == 0:
        raise NormalizationError("state has no coefficient above the gauge threshold")
    lead = complex(u.array[above[0]])
    phase = lead.conjugate() / abs(lead)
    return QuotientPoint(rep=phase * u)


def projective_distance(u: FockVector, v: FockVector) -> float:
    """Phase-free distance sqrt(2 - 2|<u, v>|) between unit states.

    Evaluated as the norm of the phase-aligned difference, which is exact
    and avoids cancellation for nearby states (needed by finite-difference
    velocity checks at step sizes ~1e-6).
    """
    ip = fock.inner(u, v)
    mag = abs(ip)
    phase = ip / mag if mag > 0.0 else 1.0 + 0j
    return (u - phase * v).norm


def quotient_distance(p: QuotientPoint, q: QuotientPoint) -> float:
    """Chordal quotient metric; zero exactly on equal phase classes."""
    return projective_distance(p.rep, q.rep)
