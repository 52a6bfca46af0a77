"""Ray integrator, lens search, and the scale-isometric state-space metric.

Closed-form oracles: straight lines in a uniform medium, the exact
parabola for a constant-gradient field, and scipy's adaptive integrator
as an independent reference for the Gaussian-bump deflection.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from test_acceptance import hamiltonian_metric

from spinsphere import cli, lens
from spinsphere.cli import main
from spinsphere.evolution import FieldParams
from spinsphere.lens import (
    LENS_DTAU,
    FieldEvaluationError,
    LensSearchError,
    RefractiveField,
    _min_distance_to_point,
    design_lens,
    gaussian_bump_field,
    integrate_ray,
    ray_energy,
    uniform_field,
)
from spinsphere.su2 import Spinor

GAUSS = gaussian_bump_field(center=(0.5, 0.3), amplitude=0.5, width=0.7)


def energies(ray, field):
    return ray_energy(ray[:, 0], ray[:, 1], field)


def numpy_bump(center, amplitude, width):
    """eta^2 and its gradient on numpy points, as gaussian_bump_field was
    written before the ray moved to floats."""
    c = np.asarray(center, dtype=float)

    def eta_sq(q):
        d = np.asarray(q, dtype=float) - c
        return 1.0 + amplitude * math.exp(-float(np.dot(d, d)) / width**2)

    def grad(q):
        d = np.asarray(q, dtype=float) - c
        bump = amplitude * math.exp(-float(np.dot(d, d)) / width**2)
        return (-2.0 / width**2) * bump * d

    return eta_sq, grad


def numpy_leapfrog(q0, v0, grad, dtau, n_steps):
    """The leapfrog step on numpy arrays, as integrate_ray was written
    before it moved to floats: the (n_steps + 1, 2, dim) ray."""
    q = np.asarray(q0, dtype=float).reshape(-1)
    v = np.asarray(v0, dtype=float).reshape(-1)
    ray = np.empty((n_steps + 1, 2, q.size))
    ray[0, 0] = q
    ray[0, 1] = v
    acc = 0.5 * grad(q)
    for k in range(1, n_steps + 1):
        v_half = v + 0.5 * dtau * acc
        q = q + dtau * v_half
        acc = 0.5 * grad(q)
        v = v_half + 0.5 * dtau * acc
        ray[k, 0] = q
        ray[k, 1] = v
    return ray


# ---------------------------------------------------------------------------
# Integrator
# ---------------------------------------------------------------------------

def test_uniform_medium_straight_line():
    field = uniform_field()
    ray = integrate_ray((0.0, 0.0), (0.8, 0.6), field, 1e-3, 10_000)
    expected = np.outer(
        1e-3 * np.arange(10_001), np.array([0.8, 0.6])
    )
    assert np.abs(ray[:, 0] - expected).max() < 1e-10


def test_constant_gradient_exact_parabola():
    # eta^2 = 1 + 2 g.q gives constant acceleration g; velocity Verlet
    # reproduces the quadratic exactly up to roundoff.
    g = np.array([0.0, -0.25])
    gx, gy = g.tolist()
    field = RefractiveField(
        lambda x, y: 1.0 + 2.0 * (gx * x + gy * y), lambda x, y: (2.0 * gx, 2.0 * gy)
    )
    dtau = 1e-3
    ray = integrate_ray((0.0, 0.0), (1.0, 0.5), field, dtau, 2000)
    taus = dtau * np.arange(2001)
    expected = (
        np.outer(taus, [1.0, 0.5]) + 0.5 * np.outer(taus**2, g)
    )
    assert np.abs(ray[:, 0] - expected).max() < 1e-6


def test_gaussian_bump_attracts_ray():
    # Off-axis ray should bend toward the bump center; reference from
    # scipy's RK45 at tight tolerance.
    field = gaussian_bump_field(center=(1.0, 0.4), amplitude=0.8, width=0.5)
    ray = integrate_ray((0.0, 0.0), (1.0, 0.0), field, 1e-3, 2500)
    y_final = ray[-1, 0, 1]
    assert y_final > 0.01  # pulled toward positive y

    def rhs(_, s):
        return np.concatenate([s[2:], 0.5 * np.array(field.grad_eta_sq(*s[:2]))])

    ref = solve_ivp(
        rhs,
        (0.0, 2.5),
        np.array([0.0, 0.0, 1.0, 0.0]),
        rtol=1e-11,
        atol=1e-12,
        dense_output=True,
    )
    assert np.abs(ray[-1, 0] - ref.y[:2, -1]).max() < 1e-5


def test_leapfrog_matches_the_numpy_step():
    # Same formulas in the same order; only the BLAS dot product's
    # rounding may separate them, so 10,000 steps must agree far below
    # the integrator's own error.
    eta_sq, grad = numpy_bump((0.5, 0.3), 0.5, 0.7)
    ray = integrate_ray((-1.5, 0.1), (1.0, 0.05), GAUSS, 2e-4, 10_000)
    reference = numpy_leapfrog((-1.5, 0.1), (1.0, 0.05), grad, 2e-4, 10_000)
    assert np.abs(ray - reference).max() < 1e-12
    reference_energy = np.array([
        0.5 * float(np.dot(v, v)) - 0.5 * eta_sq(q) for q, v in reference
    ])
    assert np.abs(energies(ray, GAUSS) - reference_energy).max() < 1e-12


def test_energy_conserved_on_gaussian_field():
    ray = integrate_ray((-1.5, 0.1), (1.0, 0.05), GAUSS, 2e-4, 10_000)
    e = energies(ray, GAUSS)
    assert np.abs(e - e[0]).max() < 1e-8


def test_second_order_convergence():
    q0, v0 = (-1.5, 0.1), (1.0, 0.05)
    tau_final = 2.0
    errors = []
    for dtau in (1e-2, 5e-3, 2.5e-3):
        n = int(round(tau_final / dtau))
        ray = integrate_ray(q0, v0, GAUSS, dtau, n)
        fine = integrate_ray(q0, v0, GAUSS, dtau / 32.0, 32 * n)
        errors.append(np.abs(ray[-1, 0] - fine[-1, 0]).max())
    r1, r2 = errors[0] / errors[1], errors[1] / errors[2]
    assert 3.0 < r1 < 5.5
    assert 3.0 < r2 < 5.5


def test_arc_length_reparametrization():
    # ds = eta dtau accumulated along a ray launched with |v| = eta equals
    # the chord-sum length (|v| stays equal to eta by energy conservation).
    q0 = np.array([-1.5, 0.0])
    direction = np.array([1.2, 0.3])
    v0 = direction / np.linalg.norm(direction) * math.sqrt(GAUSS.eta_sq(*q0))
    dtau = 1e-4
    positions = integrate_ray(q0, v0, GAUSS, dtau, 20_000)[:, 0]
    etas = np.array([math.sqrt(GAUSS.eta_sq(x, y)) for x, y in positions.tolist()])
    ds = 0.5 * (etas[:-1] + etas[1:]) * dtau
    chord = np.linalg.norm(np.diff(positions, axis=0), axis=1).sum()
    assert abs(ds.sum() - chord) < 1e-4


def central_difference_gradient(eta_sq, q, h=1e-6):
    grad = np.empty_like(q)
    for i in range(q.size):
        dq = np.zeros_like(q)
        dq[i] = h
        grad[i] = (eta_sq(*(q + dq)) - eta_sq(*(q - dq))) / (2.0 * h)
    return grad


def test_finite_difference_gradient_matches_analytic():
    rng = np.random.default_rng(70)
    for _ in range(20):
        q = rng.normal(size=2)
        assert np.abs(
            central_difference_gradient(GAUSS.eta_sq, q) - np.array(GAUSS.grad_eta_sq(*q))
        ).max() < 1e-8


def test_field_error_context():
    def flat_gradient(x, y):
        return 0.0, 0.0

    field = RefractiveField(lambda x, y: -1.0, flat_gradient)
    with pytest.raises(FieldEvaluationError, match=r"got -1.0 at q=\(0.0, 0.5\)"):
        field.eta_sq(0.0, 0.5)
    with pytest.raises(FieldEvaluationError):
        ray_energy([(0.0, 0.0)], [(1.0, 0.0)], field)
    for value in (math.inf, math.nan, 0.0):
        with pytest.raises(FieldEvaluationError):
            RefractiveField(lambda x, y, value=value: value, flat_gradient).eta_sq(0.0, 0.0)
    raising = RefractiveField(lambda x, y: 1.0 / 0.0, flat_gradient)
    with pytest.raises(FieldEvaluationError, match=r"eta\^2 failed at q=\(0.0, 0.0\)"):
        raising.eta_sq(0.0, 0.0)
    bad_gradient = RefractiveField(lambda x, y: 1.0, lambda x, y: 1.0 / 0.0)
    with pytest.raises(FieldEvaluationError):
        integrate_ray((0.0, 0.0), (1.0, 0.0), bad_gradient, 1e-3, 1)
    not_a_pair = RefractiveField(lambda x, y: 1.0, lambda x, y: 0.0)
    with pytest.raises(FieldEvaluationError):
        integrate_ray((0.0, 0.0), (1.0, 0.0), not_a_pair, 1e-3, 1)


def test_rays_live_in_the_plane():
    with pytest.raises(ValueError, match="points of the plane"):
        integrate_ray((0.0,), (1.0,), uniform_field(), 1e-3, 1)
    with pytest.raises(ValueError, match="points of the plane"):
        ray_energy([(0.0, 0.0, 0.0)], [(1.0, 0.0, 0.0)], uniform_field())
    assert integrate_ray((0.0, 0.0), (1.0, 0.0), uniform_field(), 1e-3, 0).shape == (1, 2, 2)


# ---------------------------------------------------------------------------
# Lens design
# ---------------------------------------------------------------------------

def test_lens_trivial_when_target_on_ray():
    design = design_lens((0.0, 0.0), (1.0, 0.0), (1.0, 0.0))
    assert design.amplitude == 0.0
    assert design.miss < 1e-3


def test_lens_displaced_target():
    design = design_lens((0.0, 0.0), (1.0, 0.0), (1.0, 0.1))
    assert design.miss < 1e-3
    assert design.amplitude > 0.0
    # Re-integrate with the found field and confirm the reported miss.
    ray = integrate_ray((0.0, 0.0), (1.0, 0.0), design.field, 2e-3, 1400)
    dists = np.linalg.norm(ray[:, 0] - np.array([1.0, 0.1]), axis=1)
    assert dists.min() < 2e-3


@pytest.mark.parametrize(
    "target, amplitude, width, center, miss",
    [
        ((1.0, 0.05), "0x1.5000000000000p-3", "0x1.0051de6ddd53fp-1",
         ("0x1.fffffffffffb1p-2", "0x1.6a7dae19cfa76p-2"), "0x1.e5785b2b736d4p-12"),
        ((1.0, 0.1), "0x1.5800000000000p-2", "0x1.0146dd68287f3p-1",
         ("0x1.fffffffffffdbp-2", "0x1.6bd82821354fep-2"), "0x1.e0c50fd9c3c67p-11"),
        ((1.5, 0.2), "0x1.e000000000000p-2", "0x1.8365f6bf92de2p-1",
         ("0x1.7ffffffffffeap-1", "0x1.11ee9515be7c1p-1"), "0x1.9621c59e4984dp-11"),
    ],
)
def test_lens_search_golden(target, amplitude, width, center, miss):
    # Bit-exact pin of the search on the benchmark's (span, displacement)
    # targets, so a refactor of the search or the fields shows any drift.
    design = design_lens((0.0, 0.0), (1.0, 0.0), target)
    assert design.amplitude.hex() == amplitude
    assert float(design.width).hex() == width
    assert tuple(float(c).hex() for c in design.center) == center
    assert design.miss.hex() == miss


@pytest.mark.parametrize(
    "span, displacement, digest",
    [
        ("1.0", "0.1", "3b6d7f51c42b5c0d56b91491cead6501aa19b23b34dbcff0b1badadbd5d9f350"),
        ("1.5", "0.2", "f9e982b15c448374a07e44eaaeff75fa9b32d061b8abe59ce1cbed74f8bd1067"),
        # The target on the flat ray: the search returns before any bump.
        ("1", "0", "b071c6e761d7d96153797be488218eedfdf43a3b5753063d2f9df05d641424b3"),
    ],
)
def test_lens_csv_golden(tmp_path, span, displacement, digest):
    # Bit-exact pin of the CLI's traced ray (tau, q, energy per step), so a
    # refactor of the integrator or the energy shows any drift.
    argv = ["lens", "--span", span, "--displacement", displacement]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    csv_bytes = (tmp_path / "lens_0.csv").read_bytes()
    assert hashlib.sha256(csv_bytes).hexdigest() == digest


@pytest.mark.parametrize("displacement, span", [(0.05, 1.0), (0.1, 1.0), (0.2, 1.5), (0.0, 1.0)])
def test_design_carries_the_ray_it_was_measured_on(displacement, span):
    # The bench's three lens targets and one on the flat ray: the design's
    # ray is its field's ray from the start, bit for bit.
    design = design_lens((0.0, 0.0), (1.0, 0.0), (span, displacement))
    ray = integrate_ray((0.0, 0.0), (1.0, 0.0), design.field, LENS_DTAU, len(design.ray) - 1)
    assert ray.tobytes() == design.ray.tobytes()
    assert design.miss == _min_distance_to_point(design.ray[:, 0], np.array([span, displacement]))


def test_lens_cli_traces_no_ray_beyond_the_search(tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return integrate_ray(*args)

    for module in (lens, cli):  # every namespace a ray could be traced from
        if hasattr(module, "integrate_ray"):
            monkeypatch.setattr(module, "integrate_ray", counted)
    design_lens((0.0, 0.0), (1.0, 0.0), (1.0, 0.1))
    search = len(calls)
    assert main(["lens", "--out", str(tmp_path)]) == 0
    assert search > 1 and len(calls) == 2 * search


def test_lens_search_failure():
    with pytest.raises(LensSearchError):
        design_lens(
            (0.0, 0.0), (1.0, 0.0), (1.0, 0.8), max_amplitude=1e-4
        )


def test_lens_rejects_degenerate_request():
    with pytest.raises(ValueError):
        design_lens((0.0, 0.0), (1.0, 0.0), (0.0, 0.0))


def test_trapping_well_confines_ray():
    # E below the boundary potential floor cannot escape the dent: with
    # eta^2 -> 1 far away, E < -1/2 confines the ray.
    center = np.array([2.0, 0.0])
    field = gaussian_bump_field(center=center, amplitude=1.0, width=0.4)
    v0 = (0.1, 0.07)
    e0 = ray_energy([center], [v0], field)[0]
    assert e0 < -0.5
    ray = integrate_ray(center, v0, field, 1e-3, 10_000)
    dists = np.linalg.norm(ray[:, 0] - center, axis=1)
    assert dists.max() < 0.4 * 3  # never leaves the well neighborhood
    e = energies(ray, field)
    assert np.abs(e - e[0]).max() < 1e-6


# ---------------------------------------------------------------------------
# Hamiltonian metric
# ---------------------------------------------------------------------------

def random_c2(rng):
    r = rng.normal(size=4)
    return np.array([complex(r[0], r[1]), complex(r[2], r[3])])


def test_metric_identity_hamiltonian_case():
    # H = sigma_z (field of unit strength along -z): H^2 = I, so the
    # metric on unit states is the plain real inner product.
    ham = -FieldParams((0.0, 0.0, -1.0)).sigma_dot_b
    rng = np.random.default_rng(71)
    for _ in range(50):
        xi = random_c2(rng)
        phi = Spinor(*random_c2(rng))
        value = hamiltonian_metric(ham, phi.vector, xi, xi)
        assert value == pytest.approx(float(np.vdot(xi, xi).real), rel=1e-12)


def test_metric_norm_denominator():
    ham = -FieldParams((0.0, 0.0, 1.0)).sigma_dot_b
    xi = np.array([1.0 + 0.5j, -0.25j])
    unit = np.array([1.0, 0.0])
    assert hamiltonian_metric(ham, 2.0 * unit, xi, xi) == pytest.approx(
        0.25 * hamiltonian_metric(ham, unit, xi, xi), rel=1e-12
    )


def test_metric_field_hamiltonian_matches_round_metric():
    # For H = -mu sigma.B the metric is (hbar/(mu B))^2 times the
    # embedded round metric on tangent pairs at unit states.
    rng = np.random.default_rng(73)
    mu, hbar = 1.7, 2.0
    b = np.array([0.3, -0.4, 1.2])
    ham = -mu * FieldParams(b).sigma_dot_b
    factor = (hbar / (mu * np.linalg.norm(b))) ** 2
    for _ in range(1000):
        phi = Spinor(*random_c2(rng))
        xi, eta = random_c2(rng), random_c2(rng)
        # project onto the tangent space of the sphere at phi
        xi = xi - np.vdot(phi.vector, xi).real * phi.vector
        eta = eta - np.vdot(phi.vector, eta).real * phi.vector
        got = hamiltonian_metric(ham, phi.vector, xi, eta, hbar=hbar)
        expected = factor * float(np.sum(xi * eta.conjugate()).real)
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)
