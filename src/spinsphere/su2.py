"""Two-level state algebra: spinors, their matrix realization, and su(2).

Conventions used throughout the package (Planck units, hbar = 1):

* a spin state is a unit vector ``(c1, c2)`` in the two-dimensional complex
  state space; the unit states form the three-sphere S^3,
* the anti-Hermitian generators ``e_k = (i/2) sigma_k`` form a basis of
  su(2) with ``[e_k, e_l] = eps_klm e_m``,
* the invariant inner product is normalized as
  ``(X, Y) = (1/2) Tr(X Y^dagger)``, which makes the identification
  ``x -> sum_k 2 x^k e_k`` of R^3 with su(2) an isometry.

An su(2) element ``sum_k a_k e_k`` is a plain float array of its real
coordinates ``(a1, a2, a3)`` in the ``e_k`` basis, and a batch of elements
is an array of shape ``(..., 3)``: the inner product is a quarter of the
row-wise dot product and the commutator is the cross product, so the
functions below act on every row at once.  The 2x2 matrix of ``a`` is
``np.tensordot(a, BASIS_MATRICES, axes=1)``.  A point ``(x, y, z)`` of the
sphere of physical states is likewise a ``(3,)`` float array (see
``bloch.hopf_project``); only ``Spinor`` stays a class, because it
enforces unit norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# Generators e_k = (i/2) sigma_k, shape (3, 2, 2).
BASIS_MATRICES = np.stack([0.5j * s for s in PAULI])

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class Spinor:
    """Unit-normalized state ``(c1, c2)``; a point of S^3.

    The constructor normalizes, so every held instance satisfies
    ``|c1|^2 + |c2|^2 = 1`` to machine precision.  Non-unit intermediate
    values should live as plain arrays, not as Spinors.
    """

    c1: complex
    c2: complex

    def __post_init__(self):
        n = math.sqrt(abs(self.c1) ** 2 + abs(self.c2) ** 2)
        if not math.isfinite(n) or n == 0.0:
            raise ValueError("cannot normalize a zero or non-finite spinor")
        object.__setattr__(self, "c1", complex(self.c1) / n)
        object.__setattr__(self, "c2", complex(self.c2) / n)

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.c1, self.c2], dtype=complex)

    def inner(self, other: "Spinor") -> complex:
        """Hermitian inner product (self, other) = sum_k self_k conj(other_k)."""
        return self.c1 * other.c1.conjugate() + self.c2 * other.c2.conjugate()

    def close_to(self, other: "Spinor", tol: float = _NORM_TOL) -> bool:
        return (
            abs(self.c1 - other.c1) <= tol and abs(self.c2 - other.c2) <= tol
        )


class MatRepStructureError(ValueError):
    """Raised when a 2x2 matrix does not have the quaternion form."""


@dataclass(frozen=True, eq=False)
class MatRep:
    """Matrix realization [[z1, z2], [-conj(z2), conj(z1)]] of a state.

    The bottom row is determined by the top row; the determinant equals
    |z1|^2 + |z2|^2, so unit spinors map to SU(2).
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex).reshape(2, 2)
        if (
            abs(m[1, 0] + m[0, 1].conjugate()) > _NORM_TOL
            or abs(m[1, 1] - m[0, 0].conjugate()) > _NORM_TOL
        ):
            raise MatRepStructureError(
                "bottom row must be (-conj(z2), conj(z1))"
            )
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def determinant(self) -> complex:
        m = self.entries
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def omega(s: Spinor) -> MatRep:
    """Realize a state as the matrix [[c1, c2], [-conj(c2), conj(c1)]]."""
    return MatRep(
        np.array(
            [
                [s.c1, s.c2],
                [-s.c2.conjugate(), s.c1.conjugate()],
            ],
            dtype=complex,
        )
    )


def omega_inverse(m: MatRep) -> Spinor:
    """Read the state back from the top row of its matrix realization."""
    return Spinor(m.entries[0, 0], m.entries[0, 1])


def killing_inner(x, y):
    """Invariant inner product (1/2) Tr(X Y^dagger) of (..., 3) coordinates.

    In the e_k basis this is (1/4) a . b, evaluated row by row with
    np.vecdot, which rounds as np.dot on one pair does (einsum and
    (a*b).sum(-1) do not); the trace form is kept as the test oracle.
    """
    return 0.25 * np.vecdot(x, y)


def killing_norm(x):
    return np.sqrt(killing_inner(x, x))


def commutator(x, y):
    """Lie bracket; exact via the structure constants: [X, Y] = a x b."""
    return np.cross(x, y)


def pauli_product(a, b) -> tuple[float, np.ndarray]:
    """Scalar and vector part of (sigma.a)(sigma.b) = a.b + i sigma.(a x b)."""
    a = np.asarray(a, dtype=float).reshape(3)
    b = np.asarray(b, dtype=float).reshape(3)
    return float(np.dot(a, b)), np.cross(a, b)


def embed_r3(x) -> np.ndarray:
    """Isometric embedding of R^3 into su(2): x -> sum_k 2 x^k e_k."""
    return 2.0 * np.asarray(x, dtype=float)
