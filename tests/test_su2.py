"""State algebra tests: matrix realization, Killing form, structure constants.

Frozen expected values were computed by hand from the 2x2 matrices and are
cross-checked here against independent trace/matrix-product oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinsphere.bloch import spinor_from_bloch
from spinsphere.pairs import SingletSectorState
from spinsphere.su2 import PAULI, Spinor, commutator, killing_inner, killing_norm, over

E1, E2, E3 = np.eye(3)

# Generators e_k = (i/2) sigma_k, shape (3, 2, 2).
BASIS_MATRICES = np.stack([0.5j * s for s in PAULI])

RT2 = 1.0 / math.sqrt(2.0)


def random_spinors(rng, n):
    raw = rng.normal(size=(n, 4))
    return [Spinor(complex(r[0], r[1]), complex(r[2], r[3])) for r in raw]


def random_elements(rng, *shape, scale=2.0):
    """Coordinate arrays of shape (*shape, 3); the stream order of one
    size-3 draw per element."""
    return rng.normal(size=(*shape, 3), scale=scale)


def assert_close(a, b, tol):
    assert np.abs(a - b).max() <= tol


def matrix(x):
    """The 2x2 matrix sum_k a_k e_k of each coordinate row."""
    return np.tensordot(x, BASIS_MATRICES, axes=1)


def omega(s):
    """Matrix realization [[c1, c2], [-conj(c2), conj(c1)]] of a state."""
    return np.array([[s.c1, s.c2], [-s.c2.conjugate(), s.c1.conjugate()]])


def pauli_product(a, b):
    """Scalar and vector part of (sigma.a)(sigma.b) = a.b + i sigma.(a x b):
    four times the invariant product and the bracket of a and b."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return 4.0 * killing_inner(a, b), commutator(a, b)


def embed_r3(x):
    """The isometric embedding x -> sum_k 2 x^k e_k of R^3 into su(2)."""
    return 2.0 * np.asarray(x, dtype=float)


def from_matrix(m, tol=1e-12):
    """Independent oracle: coordinates of an anti-Hermitian traceless 2x2
    matrix, read off as m = sum a_k (i/2) sigma_k => Tr(m sigma_k) = i a_k."""
    m = np.asarray(m, dtype=complex).reshape(2, 2)
    if abs(np.trace(m)) > tol or np.abs(m + m.conj().T).max() > tol:
        raise ValueError("matrix is not anti-Hermitian traceless")
    return np.array([(m @ s).trace().imag for s in PAULI])


# ---------------------------------------------------------------------------
# Spinor and its matrix realization
# ---------------------------------------------------------------------------

def test_spinor_constructor_normalizes():
    s = Spinor(3.0, 4.0j)
    assert abs(abs(s.c1) ** 2 + abs(s.c2) ** 2 - 1.0) < 1e-12
    assert s.c1 == pytest.approx(0.6)
    assert s.c2 == pytest.approx(0.8j)


def test_spinor_zero_rejected():
    with pytest.raises(ValueError):
        Spinor(0.0, 0.0)


def _hex_parts(*values):
    return [part.hex() for z in values for part in (z.real, z.imag)]


# (z, n, z / n) with z / n as CPython up to 3.13 divides, hard-coded so that
# the rule holds on interpreters that divide componentwise (3.14 on).
SIGNED_ZERO_QUOTIENTS = [
    (complex(-0.0, 0.0), 2.0, ["0x0.0p+0", "0x0.0p+0"]),
    (complex(-0.0, -0.0), 2.0, ["-0x0.0p+0", "0x0.0p+0"]),
    (complex(0.0, -0.0), 2.0, ["0x0.0p+0", "-0x0.0p+0"]),
    (complex(-0.0, 3.0), 4.0, ["0x0.0p+0", "0x1.8000000000000p-1"]),
    (complex(3.0, -0.0), 4.0, ["0x1.8000000000000p-1", "-0x0.0p+0"]),
    (complex(-3.0, -0.0), 4.0, ["-0x1.8000000000000p-1", "0x0.0p+0"]),
]


@pytest.mark.parametrize("z, n, expected", SIGNED_ZERO_QUOTIENTS)
def test_over_keeps_the_signed_zeros_of_complex_division(z, n, expected):
    assert _hex_parts(over(z, n)) == expected


def test_over_is_complex_division_away_from_zero_parts():
    rng = np.random.default_rng(17)
    for re, im, n in rng.normal(size=(2000, 3)).tolist():
        assert _hex_parts(over(complex(re, im), abs(n))) == _hex_parts(complex(re, im) / abs(n))


def test_every_quotient_site_keeps_the_signed_zeros():
    # Spinor, spinor_from_bloch and SingletSectorState divide through over.
    minus_two = complex(-2.0, -0.0)
    phi = Spinor(complex(-0.0, -0.0), minus_two)
    assert _hex_parts(phi.c1, phi.c2) == ["-0x0.0p+0", "0x0.0p+0", "-0x1.0000000000000p+0", "0x0.0p+0"]
    sector = SingletSectorState(complex(-0.0, -0.0), minus_two)
    assert _hex_parts(sector.a, sector.b) == _hex_parts(phi.c1, phi.c2)
    south = spinor_from_bloch(np.array([0.0, -0.0, -1.0]))
    assert _hex_parts(south.c1, south.c2) == ["0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "-0x0.0p+0"]
    north = spinor_from_bloch(np.array([-0.0, -0.0, 1.0]))
    assert _hex_parts(north.c1, north.c2) == ["0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"]


def test_omega_identity_case():
    m = omega(Spinor(1.0, 0.0))
    assert np.allclose(m, np.eye(2), atol=1e-15)


def test_omega_second_basis_case():
    m = omega(Spinor(0.0, 1.0))
    assert np.allclose(m, np.array([[0, 1], [-1, 0]]), atol=1e-15)


def test_omega_hand_case():
    # (1/sqrt2, i/sqrt2): bottom row (-conj(i/sqrt2), conj(1/sqrt2))
    #                     = (i/sqrt2, 1/sqrt2).
    m = omega(Spinor(RT2, RT2 * 1j))
    expected = np.array([[RT2, RT2 * 1j], [RT2 * 1j, RT2]])
    assert np.allclose(m, expected, atol=1e-15)


def test_omega_round_trip_many():
    rng = np.random.default_rng(7)
    for s in random_spinors(rng, 10_000):
        back = Spinor(*omega(s)[0])
        assert abs(back.c1 - s.c1) < 1e-14
        assert abs(back.c2 - s.c2) < 1e-14


def test_omega_determinant_is_norm():
    rng = np.random.default_rng(8)
    for s in random_spinors(rng, 200):
        assert abs(np.linalg.det(omega(s)) - 1.0) < 1e-12


@given(
    st.tuples(
        st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)
    ).filter(lambda t: sum(x * x for x in t) > 1e-12)
)
def test_spinor_always_unit(parts):
    a, b, c, d = parts
    s = Spinor(complex(a, b), complex(c, d))
    assert abs(abs(s.c1) ** 2 + abs(s.c2) ** 2 - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Killing inner product
# ---------------------------------------------------------------------------

def trace_inner(x, y):
    """Independent oracle: (1/2) Tr(X Y^dagger) from explicit matrices."""
    mx, my = matrix(x), matrix(y)
    return 0.5 * np.trace(mx @ my.conj().swapaxes(-1, -2), axis1=-2, axis2=-1).real


def test_killing_basis_values():
    assert killing_inner(E1, E1) == pytest.approx(0.25, abs=1e-15)
    assert killing_inner(E1, E2) == pytest.approx(0.0, abs=1e-15)
    assert killing_inner(2.0 * E3, 2.0 * E3) == pytest.approx(1.0, abs=1e-15)


def test_killing_matches_trace_formula():
    rng = np.random.default_rng(11)
    xs = random_elements(rng, 300)
    ys = random_elements(rng, 300)
    assert killing_inner(xs, ys) == pytest.approx(trace_inner(xs, ys), abs=1e-12)


def test_killing_positive_definite():
    rng = np.random.default_rng(12)
    x = random_elements(rng, 100)
    assert np.all(killing_inner(x, x) > 0.0)


# ---------------------------------------------------------------------------
# Commutator / Pauli product
# ---------------------------------------------------------------------------

def matrix_commutator(x, y):
    mx, my = matrix(x), matrix(y)
    return mx @ my - my @ mx


def test_structure_constants():
    assert_close(commutator(E1, E2), E3, 1e-15)
    assert_close(commutator(E2, E3), E1, 1e-15)
    assert_close(commutator(E3, E1), E2, 1e-15)
    assert_close(commutator(E2, E1), -1.0 * E3, 1e-15)


def test_commutator_of_element_with_itself_vanishes():
    rng = np.random.default_rng(13)
    x = random_elements(rng, 50)
    assert np.all(killing_norm(commutator(x, x)) == 0.0)


def test_commutator_matches_matrix_commutator():
    # The +(i/2) sigma_k realization is an anti-isomorphism for the
    # epsilon structure constants: [M(X), M(Y)] = -M([X, Y]).  Quadratic
    # objects (curvature, sectional curvature, Killing norms) are
    # unaffected by this sign.
    rng = np.random.default_rng(14)
    for x, y in zip(random_elements(rng, 200), random_elements(rng, 200)):
        realized = from_matrix(matrix_commutator(x, y))
        assert_close(commutator(x, y), -1.0 * realized, 1e-12)


def test_jacobi_identity():
    rng = np.random.default_rng(15)
    x, y, z = random_elements(rng, 1000, 3).transpose(1, 0, 2)
    total = (
        commutator(commutator(x, y), z)
        + commutator(commutator(y, z), x)
        + commutator(commutator(z, x), y)
    )
    assert np.abs(total).max() < 1e-12


def test_pauli_product_parallel_unit():
    scalar, vector = pauli_product((0, 0, 1), (0, 0, 1))
    assert scalar == pytest.approx(1.0)
    assert np.allclose(vector, 0.0)


def test_pauli_product_orthogonal():
    scalar, vector = pauli_product((1, 0, 0), (0, 1, 0))
    assert scalar == pytest.approx(0.0)
    assert np.allclose(vector, (0, 0, 1))


def test_pauli_product_zero_vector():
    scalar, vector = pauli_product((0, 0, 0), (0.3, -0.4, 2.0))
    assert scalar == 0.0
    assert np.allclose(vector, 0.0)


def test_pauli_product_matches_matrix_multiplication():
    rng = np.random.default_rng(16)
    for _ in range(100):
        a, b = rng.normal(size=(2, 3))
        scalar, vector = pauli_product(a, b)
        lhs = sum(ai * s for ai, s in zip(a, PAULI)) @ sum(
            bi * s for bi, s in zip(b, PAULI)
        )
        rhs = scalar * np.eye(2) + 1j * sum(
            vi * s for vi, s in zip(vector, PAULI)
        )
        assert np.abs(lhs - rhs).max() < 1e-12


# ---------------------------------------------------------------------------
# R^3 <-> su(2) isometry
# ---------------------------------------------------------------------------

def test_embed_zero():
    assert_close(embed_r3((0, 0, 0)), np.zeros(3), 0.0)


def test_embed_unit_vector():
    x = embed_r3((1, 0, 0))
    assert_close(x, 2.0 * E1, 1e-15)
    assert killing_norm(x) == pytest.approx(1.0, abs=1e-12)


def test_embed_pythagoras():
    assert killing_norm(embed_r3((3, 4, 0))) == pytest.approx(5.0, abs=1e-12)


def test_embed_is_isometry_polarized():
    rng = np.random.default_rng(17)
    xs = rng.normal(size=(10_000, 3), scale=3.0)
    ys = rng.normal(size=(10_000, 3), scale=3.0)
    assert killing_inner(embed_r3(xs), embed_r3(ys)) == pytest.approx(
        (xs * ys).sum(axis=1), abs=1e-12, rel=1e-12
    )


def test_algebra_matrix_round_trip():
    rng = np.random.default_rng(18)
    for x in random_elements(rng, 200):
        back = from_matrix(matrix(x))
        assert np.abs(back - x).max() < 1e-14


def test_basis_matrices_are_anti_hermitian_traceless():
    for m in BASIS_MATRICES:
        assert np.abs(m + m.conj().T).max() < 1e-15
        assert abs(np.trace(m)) < 1e-15
