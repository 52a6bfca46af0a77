"""Projective geometry of physical states: the fibration S^3 -> S^2.

The projection of a state (phi1, phi2) to the sphere of physical states is

    x = phi1 conj(phi2) + conj(phi1) phi2,
    y = i (phi1 conj(phi2) - conj(phi1) phi2),
    z = |phi2|^2 - |phi1|^2,

which is invariant under a global phase and consistent with the
stereographic chart xi = phi2/phi1 = (x + i y)/(1 - z).  Note the
orientation this fixes: the basis state (1, 0) sits at z = -1.  The
uncertainty statements below are unaffected by that orientation choice,
and the energy spread, which depends on the field axis, is evaluated
through eigenbasis amplitudes so no sign convention can leak in.

A Bloch point is a plain ``(3,)`` float array ``(x, y, z)``.  The point
and margin functions do their arithmetic in Python floats.  numpy's
``np.abs`` of a complex array and array ``**`` round differently from
Python's ``abs`` and ``pow``, but ``np.hypot`` of the parts and
``np.float_power`` do not, so `energy_uncertainty` runs on arrays with
the bits of one scalar evaluation per state.
"""

from __future__ import annotations

import math

import numpy as np

from .evolution import ZeroFieldError, field_norms, sigma_dot
from .su2 import Spinor


def _bloch_xyz(c1: complex, c2: complex) -> tuple[float, float, float]:
    """The Bloch point of the unit state (c1, c2) as three Python floats."""
    cross = c1 * c2.conjugate()
    return 2.0 * cross.real, -2.0 * cross.imag, abs(c2) ** 2 - abs(c1) ** 2


def hopf_project(phi: Spinor) -> np.ndarray:
    """Project a unit state to its Bloch point, a (3,) array (x, y, z)."""
    return np.array(_bloch_xyz(phi.c1, phi.c2))


def spinor_from_bloch(b) -> Spinor:
    """A reference state projecting to the Bloch point b (one point of the
    phase fiber).

    The branch with the larger amplitude is taken real and nonnegative,
    which keeps the section well-conditioned at both poles.
    """
    x, y, z = np.asarray(b, dtype=float).tolist()
    # phi1 conj(phi2)* relations: conj(phi1) phi2 = (x + i y)/2.
    if z <= 0.0:
        c1 = math.sqrt(0.5 * (1.0 - z))
        c2 = complex(x, y) / (2.0 * c1)
        return Spinor(c1, c2)
    c2 = math.sqrt(0.5 * (1.0 + z))
    c1 = complex(x, -y) / (2.0 * c2)
    return Spinor(c1, c2)


def uncertainty_margin(phi: Spinor) -> float:
    """(y^2 + z^2)(x^2 + z^2) - z^2, the geometric uncertainty slack.

    Nonnegative for every unit Bloch vector; zero exactly at the z-axis
    poles and at equatorial points with x y = 0.
    """
    x, y, z = _bloch_xyz(phi.c1, phi.c2)
    x2, y2, z2 = x * x, y * y, z * z
    return (y2 + z2) * (x2 + z2) - z2


def energy_uncertainty(states, b, mu: float) -> np.ndarray:
    """Energy spread mu |B| sin(theta) = 2 mu |B| |c+| |c-| of each unit
    state (..., 2) in the field of its row of b (..., 3), with c+- its
    amplitudes in the eigenbasis of sigma . B.  It vanishes at field
    eigenstates and is largest a quarter turn away."""
    norms = field_norms(b)
    if np.any(norms == 0.0):
        raise ZeroFieldError("field direction undefined for |B| = 0")
    _, vecs = np.linalg.eigh(sigma_dot(b) / norms[..., None, None])
    amps = (vecs.conj().swapaxes(-1, -2) @ np.asarray(states)[..., None])[..., 0]
    a = np.hypot(amps.real, amps.imag)
    return 2.0 * abs(mu) * norms * a[..., 0] * a[..., 1]
