"""Connection, curvature tensor, and sectional-curvature tests.

The component form R_ik,lm = (1/16)(d_il d_km - d_im d_kl) below is the
c = 1/2 normalization written out; the embedded-sphere oracle at the end
measures curvature with no Lie algebra at all (circumference defect of
small geodesic circles on S^3 in R^4).
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from spinsphere.cli import main
from spinsphere.curvature import (
    DegeneratePlaneError,
    OrthogonalityError,
    commutator_curvature_identity,
    connection_coeff,
    curvature,
    sectional_curvature,
)
from spinsphere.su2 import commutator, killing_inner, killing_norm

BASIS = np.eye(3)
E1, E2, E3 = BASIS


def random_elements(rng, *shape, scale=2.0):
    """Coordinate arrays of shape (*shape, 3); the stream order of one
    size-3 draw per element."""
    return rng.normal(size=(*shape, 3), scale=scale)


def assert_close(a, b, tol):
    assert np.abs(a - b).max() <= tol


# ---------------------------------------------------------------------------
# Connection
# ---------------------------------------------------------------------------

def test_connection_basis_value():
    assert_close(connection_coeff(E1, E2), 0.5 * E3, 1e-15)
    assert_close(connection_coeff(E3, E1), 0.5 * E2, 1e-15)


def test_connection_geodesic_condition():
    rng = np.random.default_rng(20)
    x = random_elements(rng, 50)
    assert np.all(killing_norm(connection_coeff(x, x)) == 0.0)


def test_torsion_vanishes():
    rng = np.random.default_rng(21)
    x, y = random_elements(rng, 1000, 2).transpose(1, 0, 2)
    t = connection_coeff(x, y) - connection_coeff(y, x) - commutator(x, y)
    assert np.abs(t).max() < 1e-12


def test_metric_compatibility_reduced():
    # ( [X,Y], Z ) + ( Y, [X,Z] ) = 0 by ad-invariance of the metric.
    rng = np.random.default_rng(22)
    x, y, z = random_elements(rng, 1000, 3).transpose(1, 0, 2)
    s = killing_inner(commutator(x, y), z) + killing_inner(
        y, commutator(x, z)
    )
    assert np.abs(s).max() < 1e-12


# ---------------------------------------------------------------------------
# Curvature tensor
# ---------------------------------------------------------------------------

def test_curvature_basis_value():
    # [[e1,e2],e1] = [e3,e1] = e2, so R(e1,e2)e1 = e2/4.
    assert_close(curvature(E1, E2, E1), 0.25 * E2, 1e-15)


def test_curvature_antisymmetric_in_first_pair():
    rng = np.random.default_rng(23)
    x, y, z = random_elements(rng, 100, 3).transpose(1, 0, 2)
    lhs = curvature(x, y, z)
    rhs = -1.0 * curvature(y, x, z)
    assert_close(lhs, rhs, 1e-12)
    assert np.abs(curvature(x, x, z)).max() == 0.0


def test_curvature_first_bianchi_cyclic_sum():
    total = curvature(E1, E2, E3) + curvature(E2, E3, E1) + curvature(E3, E1, E2)
    assert np.abs(total).max() == 0.0
    rng = np.random.default_rng(24)
    x, y, z = random_elements(rng, 200, 3).transpose(1, 0, 2)
    total = curvature(x, y, z) + curvature(y, z, x) + curvature(z, x, y)
    assert np.abs(total).max() < 1e-12


def test_curvature_component_form():
    # R_ik,lm = (R(e_i, e_k) e_l, e_m) = (c/8)(d_il d_km - d_im d_kl), c = 1/2.
    e = BASIS[:, None, None, None]
    value = killing_inner(
        curvature(e, BASIS[:, None, None], BASIS[:, None]), BASIS
    )
    d = np.eye(3)
    expected = (1.0 / 16.0) * (
        np.einsum("il,km->iklm", d, d) - np.einsum("im,kl->iklm", d, d)
    )
    assert value.shape == (3, 3, 3, 3)
    assert value == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Sectional curvature
# ---------------------------------------------------------------------------

def test_sectional_curvature_basis_plane():
    assert sectional_curvature(E1, E2) == pytest.approx(1.0, abs=1e-12)


def test_sectional_curvature_scale_invariant():
    assert sectional_curvature(2.0 * E1, 5.0 * E2) == pytest.approx(
        1.0, abs=1e-12
    )


def test_sectional_curvature_degenerate_plane():
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(E1, E1)


def test_sectional_curvature_constant_on_random_planes():
    rng = np.random.default_rng(25)
    x, y = random_elements(rng, 100, 2).transpose(1, 0, 2)
    k = sectional_curvature(x, y)
    assert k.shape == (100,)
    assert k == pytest.approx(np.ones(100), abs=1e-10)


def test_single_plane_gives_a_0d_result():
    assert sectional_curvature(E1, E2).shape == ()
    lhs, rhs = commutator_curvature_identity(E1, E2)
    assert lhs.shape == rhs.shape == ()


def test_batch_with_one_degenerate_plane_raises():
    rng = np.random.default_rng(27)
    x, y = random_elements(rng, 10, 2).transpose(1, 0, 2)
    assert sectional_curvature(x, y).shape == (10,)
    y[5] = 2.0 * x[5]
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(x, y)


def test_sectional_curvature_embedded_sphere_oracle():
    """Circumference-defect estimate of the curvature of S^3 in R^4.

    C(r) = 2 pi r (1 - K r^2 / 6 + O(r^4)) for a geodesic circle of
    radius r, measured with no reference to the algebraic formulas.
    """
    p = np.array([1.0, 0.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0, 0.0])
    v = np.array([0.0, 0.0, 1.0, 0.0])
    r = 1e-2
    s = np.linspace(0.0, 2.0 * math.pi, 20001)[:-1]
    directions = np.outer(np.cos(s), u) + np.outer(np.sin(s), v)
    points = math.cos(r) * p + math.sin(r) * directions
    chords = np.linalg.norm(np.diff(points, axis=0, append=points[:1]), axis=1)
    circumference = chords.sum()
    k_est = 6.0 * (2.0 * math.pi * r - circumference) / (2.0 * math.pi * r**3)
    assert k_est == pytest.approx(1.0, abs=1e-3)
    assert sectional_curvature(E1, E2) == pytest.approx(k_est, abs=1e-3)


# ---------------------------------------------------------------------------
# Commutator-curvature identity
# ---------------------------------------------------------------------------

def test_identity_unit_norm_pair():
    lhs, rhs = commutator_curvature_identity(2.0 * E1, 2.0 * E2)
    assert lhs == pytest.approx(4.0, abs=1e-12)
    assert rhs == pytest.approx(4.0, abs=1e-12)


def test_identity_basis_pair():
    lhs, rhs = commutator_curvature_identity(E1, E2)
    assert lhs == pytest.approx(0.25, abs=1e-12)
    assert rhs == pytest.approx(0.25, abs=1e-12)


def test_identity_rejects_non_orthogonal():
    with pytest.raises(OrthogonalityError):
        commutator_curvature_identity(2.0 * E1, 2.0 * E1)


def orthogonal_pairs(rng, n):
    x, y0 = random_elements(rng, n, 2).transpose(1, 0, 2)
    y = y0 - (killing_inner(x, y0) / killing_inner(x, x))[:, None] * x
    return x, y


def test_identity_random_orthogonal_pairs():
    rng = np.random.default_rng(26)
    x, y = orthogonal_pairs(rng, 1000)
    lhs, rhs = commutator_curvature_identity(x, y)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_identity_batch_with_one_non_orthogonal_pair_raises():
    rng = np.random.default_rng(28)
    x, y = orthogonal_pairs(rng, 10)
    lhs, rhs = commutator_curvature_identity(x, y)
    assert lhs.shape == rhs.shape == (10,)
    y[3] += 0.5 * x[3]
    with pytest.raises(OrthogonalityError):
        commutator_curvature_identity(x, y)


# ---------------------------------------------------------------------------
# The curvature CLI against a scalar loop
# ---------------------------------------------------------------------------

def _scalar_curvature_run(planes, seed):
    """Plane-by-plane oracle of `spinsphere curvature`.

    Draws each plane with two size-3 normal calls and evaluates K and the
    identity residual one 3-vector at a time with np.cross and
    0.25 * np.dot, the arithmetic the CLI must reproduce bit for bit.
    """

    def inner(a, b):
        return 0.25 * float(np.dot(a, b))

    def gram(a, b):
        return inner(a, a) * inner(b, b) - inner(a, b) * inner(a, b)

    rng = np.random.default_rng(seed)
    eye = np.eye(3)
    pairs = [(eye[0], eye[1]), (eye[1], eye[2]), (eye[2], eye[0])]
    for _ in range(planes):
        x = rng.normal(size=3, scale=2.0)
        y = rng.normal(size=3, scale=2.0)
        pairs.append((x, y))
    ks, worst_k, worst_id = [], 0.0, 0.0
    for x, y in pairs:
        c = np.cross(x, y)
        k = 0.25 * inner(c, c) / gram(x, y)
        ks.append(k)
        worst_k = max(worst_k, abs(k - 1.0))
        y = y - (inner(x, y) / inner(x, x)) * x
        nx, ny = math.sqrt(inner(x, x)), math.sqrt(inner(y, y))
        c = np.cross(x, y)
        r_p = inner(0.25 * np.cross(c, x), y) / gram(x, y)
        rhs = 4.0 * r_p * nx * nx * ny * ny
        worst_id = max(worst_id, abs(inner(c, c) - rhs))
    return ks, worst_k, worst_id


@pytest.mark.parametrize("planes", [0, 3000])
@pytest.mark.parametrize("seed", [7, 123456])
def test_cli_matches_scalar_loop_bit_for_bit(tmp_path, planes, seed):
    assert main(["curvature", "--planes", str(planes), "--seed", str(seed),
                 "--out", str(tmp_path)]) == 0
    ks, worst_k, worst_id = _scalar_curvature_run(planes, seed)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["plane", "sectional_curvature"])
    writer.writerows(enumerate(ks))
    assert (tmp_path / "curvature_0.csv").read_bytes() == expected.getvalue().encode()
    metrics = json.loads((tmp_path / "curvature_report.json").read_text())["metrics"]
    assert metrics == {"max_sectional_deviation": worst_k,
                       "max_commutator_identity_error": worst_id}
