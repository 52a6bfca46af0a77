"""Two-level state algebra: spinors, their matrix realization, and su(2).

Conventions used throughout the package (Planck units, hbar = 1):

* a spin state is a unit vector ``(c1, c2)`` in the two-dimensional complex
  state space; the unit states form the three-sphere S^3,
* the anti-Hermitian generators ``e_k = (i/2) sigma_k`` form a basis of
  su(2) with ``[e_k, e_l] = eps_klm e_m``,
* the invariant inner product is normalized as
  ``(X, Y) = (1/2) Tr(X Y^dagger)``, which makes the identification
  ``x -> sum_k 2 x^k e_k`` of R^3 with su(2) an isometry.

Algebra elements are stored as real coordinates in the ``e_k`` basis, so
commutators reduce to exact cross products; 2x2 matrices are materialized
on demand.
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


@dataclass(frozen=True)
class AlgebraElement:
    """su(2) element sum_k a_k e_k stored as real coordinates (a1, a2, a3)."""

    a1: float
    a2: float
    a3: float

    @classmethod
    def from_coords(cls, coords) -> "AlgebraElement":
        c = np.asarray(coords, dtype=float).reshape(3)
        return cls(float(c[0]), float(c[1]), float(c[2]))

    @classmethod
    def basis(cls, k: int) -> "AlgebraElement":
        """The generator e_k, k in {0, 1, 2}."""
        c = [0.0, 0.0, 0.0]
        c[k] = 1.0
        return cls(*c)

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def from_matrix(cls, m, tol: float = _NORM_TOL) -> "AlgebraElement":
        """Recover coordinates from an anti-Hermitian traceless 2x2 matrix."""
        m = np.asarray(m, dtype=complex).reshape(2, 2)
        if abs(np.trace(m)) > tol or np.abs(m + m.conj().T).max() > tol:
            raise ValueError("matrix is not anti-Hermitian traceless")
        # m = sum a_k (i/2) sigma_k  =>  Tr(m sigma_k) = i a_k
        coords = [(m @ s).trace().imag for s in PAULI]
        return cls.from_coords(coords)

    @property
    def coords(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.a3])

    @property
    def matrix(self) -> np.ndarray:
        return np.tensordot(self.coords, BASIS_MATRICES, axes=1)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement.from_coords(self.coords + other.coords)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement.from_coords(self.coords - other.coords)

    def __mul__(self, scalar: float) -> "AlgebraElement":
        return AlgebraElement.from_coords(self.coords * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(-self.a1, -self.a2, -self.a3)

    def close_to(self, other: "AlgebraElement", tol: float = _NORM_TOL) -> bool:
        return bool(np.abs(self.coords - other.coords).max() <= tol)


@dataclass(frozen=True)
class BlochVector:
    """Point (x, y, z) of the two-sphere of physical states."""

    x: float
    y: float
    z: float

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def angle_to(self, other: "BlochVector") -> float:
        """Angle in [0, pi] between the two vectors (atan2 form, stable
        near 0 and pi)."""
        cross = math.hypot(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
        return math.atan2(cross, self.x * other.x + self.y * other.y + self.z * other.z)


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


def killing_inner(x: AlgebraElement, y: AlgebraElement) -> float:
    """Invariant inner product (1/2) Tr(X Y^dagger).

    In the e_k basis this is (1/4) a . b, which is what gets evaluated;
    the trace form is kept as the test oracle.
    """
    return 0.25 * float(np.dot(x.coords, y.coords))


def killing_norm(x: AlgebraElement) -> float:
    return math.sqrt(killing_inner(x, x))


def commutator(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Lie bracket; exact via the structure constants: [X, Y] = a x b."""
    return AlgebraElement.from_coords(np.cross(x.coords, y.coords))


def pauli_product(a, b) -> tuple[float, np.ndarray]:
    """Scalar and vector part of (sigma.a)(sigma.b) = a.b + i sigma.(a x b)."""
    a = np.asarray(a, dtype=float).reshape(3)
    b = np.asarray(b, dtype=float).reshape(3)
    return float(np.dot(a, b)), np.cross(a, b)


def embed_r3(x) -> AlgebraElement:
    """Isometric embedding of R^3 into su(2): x -> sum_k 2 x^k e_k."""
    x = np.asarray(x, dtype=float).reshape(3)
    return AlgebraElement.from_coords(2.0 * x)
