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

A Bloch point is a float array ``(x, y, z)``.  The point, margin and
energy functions take ``(..., 2)`` complex arrays of unit states and give
each state the bits of the Python-float evaluation on its Spinor: numpy's
``np.abs`` of a complex array and array ``**`` round differently from
Python's ``abs`` and ``pow``, but ``np.hypot`` of the parts and
``np.float_power`` do not.
"""

from __future__ import annotations

import math

import numpy as np

from .evolution import ZeroFieldError, field_norms, sigma_dot
from .su2 import Spinor, over


def hopf_project(states: np.ndarray) -> np.ndarray:
    """Project (..., 2) unit states to their Bloch points, (..., 3) (x, y, z).
    With (c1, c2) = (a + bi, c + di), c1 conj(c2) is (ac - b(-d)) +
    (a(-d) + bc) i, as Python's complex product rounds it.  Transposed, the
    parts of one state are fast numpy scalars, not 0-d arrays."""
    re, im = states.real.T, states.imag.T
    sq = np.float_power(np.hypot(re, im), 2.0)
    a, b, c, d = re[0], im[0], re[1], im[1]
    points = np.empty(states.shape[:-1] + (3,))
    points.T[0], points.T[1] = 2.0 * (a * c - b * -d), -2.0 * (a * -d + b * c)
    points.T[2] = sq[1] - sq[0]
    return points


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
        return Spinor(c1, over(complex(x, y), 2.0 * c1))
    c2 = math.sqrt(0.5 * (1.0 + z))
    return Spinor(over(complex(x, -y), 2.0 * c2), c2)


def uncertainty_margin(states: np.ndarray) -> np.ndarray:
    """(y^2 + z^2)(x^2 + z^2) - z^2, the geometric uncertainty slack, of
    each (..., 2) unit state.

    Nonnegative for every unit Bloch vector; zero exactly at the z-axis
    poles and at equatorial points with x y = 0.
    """
    x, y, z = hopf_project(states).T
    x2, y2, z2 = x * x, y * y, z * z
    return ((y2 + z2) * (x2 + z2) - z2).T


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
