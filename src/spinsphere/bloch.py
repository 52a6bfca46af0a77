"""Projective geometry of physical states: the fibration S^3 -> S^2.

The projection of a state (phi1, phi2) to the sphere of physical states is

    x = phi1 conj(phi2) + conj(phi1) phi2,
    y = i (phi1 conj(phi2) - conj(phi1) phi2),
    z = |phi2|^2 - |phi1|^2,

which is invariant under a global phase and consistent with the
stereographic chart xi = phi2/phi1 = (x + i y)/(1 - z).  Note the
orientation this fixes: the basis state (1, 0) sits at z = -1.  All
distances, transition probabilities, and uncertainty statements below are
unaffected by that orientation choice, and the few axis-sensitive
quantities (projective speed, energy spread) are evaluated through
eigenbasis amplitudes so no sign convention can leak in.

A Bloch point is a plain ``(3,)`` float array ``(x, y, z)``.  The scalar
functions below do their arithmetic in Python floats, on the point of a
state as three floats (no array built) or on an array unpacked with
``.tolist()``: numpy's complex ``abs`` and ``pow`` round differently from
Python's, so a vectorized form would not reproduce the same bits.

Transition probability depends only on the projective distance:
P(theta) = cos^2(theta/2) with theta the angle between the Bloch vectors.
"""

from __future__ import annotations

import math

import numpy as np

from .evolution import FieldParams, ZeroFieldError
from .su2 import Spinor

_CHART_TOL = 1e-14


class ChartSingularityError(ValueError):
    """The inhomogeneous chart is undefined on the line through (0, 1)."""


def _bloch_xyz(phi: Spinor) -> tuple[float, float, float]:
    """The Bloch point of a unit state as three Python floats."""
    cross = phi.c1 * phi.c2.conjugate()
    return 2.0 * cross.real, -2.0 * cross.imag, abs(phi.c2) ** 2 - abs(phi.c1) ** 2


def hopf_project(phi: Spinor) -> np.ndarray:
    """Project a unit state to its Bloch point, a (3,) array (x, y, z)."""
    return np.array(_bloch_xyz(phi))


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


def inhomogeneous_coord(phi: Spinor) -> complex:
    """Chart coordinate xi = phi2 / phi1 on the projective line."""
    if abs(phi.c1) <= _CHART_TOL:
        raise ChartSingularityError(
            "xi is undefined on the complex line through (0, 1)"
        )
    return phi.c2 / phi.c1


def fs_distance(phi: Spinor, psi: Spinor) -> float:
    """Geodesic (angular) distance between the projections, in [0, pi].

    The atan2 form of the angle stays accurate near 0 and pi.
    """
    ax, ay, az = _bloch_xyz(phi)
    bx, by, bz = _bloch_xyz(psi)
    cross = math.hypot(ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)
    return math.atan2(cross, ax * bx + ay * by + az * bz)


def transition_probability(phi: Spinor, psi: Spinor) -> float:
    """|<psi, phi>|^2; equals cos^2 of half the projective distance."""
    return abs(phi.inner(psi)) ** 2


def _field_eigen_amplitudes(phi: Spinor, p: FieldParams) -> tuple[float, float]:
    """|c+|, |c-| of phi in the eigenbasis of sigma . B."""
    if p.field_norm == 0.0:
        raise ZeroFieldError("field direction undefined for |B| = 0")
    _, vecs = np.linalg.eigh(p.sigma_dot_b / p.field_norm)
    amps = vecs.conj().T @ phi.vector
    return abs(amps[0]), abs(amps[1])


def projective_speed(phi0: Spinor, p: FieldParams) -> float:
    """Speed of the projected evolution: 4 omega |c+| |c-| = 2 omega sin(theta).

    Here theta is the angle between the field axis and the Bloch vector of
    phi0, and c+/- are the field-eigenbasis amplitudes; eigenstates of the
    field are projectively stationary.
    """
    a_plus, a_minus = _field_eigen_amplitudes(phi0, p)
    return 4.0 * abs(p.omega) * a_plus * a_minus


def pauli_moments(phi: Spinor) -> tuple[np.ndarray, np.ndarray]:
    """(expectations, variances) of the three spin components, (3,) arrays.

    Expectations are the projection coordinates themselves; since each
    component squares to the identity, the variances are
    1 - x^2 = y^2 + z^2 and cyclic.
    """
    b = hopf_project(phi)
    return b, 1.0 - b * b


def uncertainty_margin(phi: Spinor) -> float:
    """(y^2 + z^2)(x^2 + z^2) - z^2, the geometric uncertainty slack.

    Nonnegative for every unit Bloch vector; zero exactly at the z-axis
    poles and at equatorial points with x y = 0.
    """
    x, y, z = _bloch_xyz(phi)
    x2, y2, z2 = x * x, y * y, z * z
    return (y2 + z2) * (x2 + z2) - z2


def energy_uncertainty(phi: Spinor, p: FieldParams) -> float:
    """Energy spread mu |B| sin(theta) = 2 mu |B| |c+| |c-|.

    Vanishes at field eigenstates and is largest a quarter turn away.
    """
    a_plus, a_minus = _field_eigen_amplitudes(phi, p)
    return 2.0 * abs(p.mu) * p.field_norm * a_plus * a_minus


def variance_on_geodesic(ck_sq: float, lambda_k: float, lambda_l: float) -> float:
    """Observable variance along the geodesic joining two eigenstates.

    For a state with weight |c_k|^2 on the eigenvalue lambda_k and the
    rest on lambda_l:

        var = |c_k|^2 lk^2 + (1 - |c_k|^2) ll^2
              - (|c_k|^2 lk + (1 - |c_k|^2) ll)^2

    Zero at the endpoints, maximal midway when the eigenvalues differ.
    """
    if not 0.0 <= ck_sq <= 1.0:
        raise ValueError("ck_sq must lie in [0, 1]")
    mean = ck_sq * lambda_k + (1.0 - ck_sq) * lambda_l
    second = ck_sq * lambda_k**2 + (1.0 - ck_sq) * lambda_l**2
    return second - mean * mean
