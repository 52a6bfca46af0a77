"""Two-level state algebra: spinors and su(2).

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
``sum_k a_k (i/2) PAULI[k]``.  A point ``(x, y, z)`` of the
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
        c1, c2 = _unit_pair(self.c1, self.c2)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.c1, self.c2], dtype=complex)

    def inner(self, other: "Spinor") -> complex:
        """Hermitian inner product (self, other) = sum_k self_k conj(other_k)."""
        return self.c1 * other.c1.conjugate() + self.c2 * other.c2.conjugate()


def _unit_pair(c1, c2) -> tuple[complex, complex]:
    """(c1, c2) divided by its norm, as Spinor holds it, without the instance."""
    n = math.sqrt(abs(c1) ** 2 + abs(c2) ** 2)
    if not math.isfinite(n) or n == 0.0:
        raise ValueError("cannot normalize a zero or non-finite spinor")
    return complex(c1) / n, complex(c2) / n


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
