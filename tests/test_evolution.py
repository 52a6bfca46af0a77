"""Exact propagator, numeric integrator, and geodesic diagnostics.

The independent oracle for the closed-form propagator is scipy's matrix
exponential; the numeric integrator is checked against the closed form
and for its fourth-order convergence rate.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy.linalg import expm

from spinsphere.evolution import (
    FieldParams,
    StepSizeError,
    Trajectory,
    ZeroFieldError,
    evolution_speed,
    evolve_exact,
    geodesic_planarity,
    integrate_numeric,
    speed_along,
)
from spinsphere.cli import main
from spinsphere.lens import design_lens
from spinsphere.su2 import PAULI, Spinor

RT2 = 1.0 / math.sqrt(2.0)


def random_case(rng, b_scale=1.5):
    phi0 = Spinor(
        complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    )
    b = rng.normal(size=3)
    b = b / np.linalg.norm(b) * rng.uniform(0.5, b_scale)
    return phi0, FieldParams(b)


def close_to(a, b, tol):
    return abs(a.c1 - b.c1) <= tol and abs(a.c2 - b.c2) <= tol


def expm_oracle(phi0, p, t):
    u = expm((1j * p.mu / p.hbar) * p.sigma_dot_b * t)
    return u @ phi0.vector


def numpy_rk4(phi0, p, dt, n_steps):
    """The integrator's step on complex numpy arrays, as it was written
    before it moved to floats: states of shape (n_steps + 1, 2) and the
    largest norm drift.  Its last bits follow the BLAS kernel's."""
    gen = (1j * p.mu / p.hbar) * p.sigma_dot_b
    state = phi0.vector
    states = np.empty((n_steps + 1, 2), dtype=complex)
    states[0] = state
    max_drift = 0.0
    for k in range(n_steps):
        k1 = gen @ state
        k2 = gen @ (state + 0.5 * dt * k1)
        k3 = gen @ (state + 0.5 * dt * k2)
        k4 = gen @ (state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norm = np.linalg.norm(state)
        max_drift = max(max_drift, abs(norm - 1.0))
        state = state / norm
        states[k + 1] = state
    return states, max_drift


# ---------------------------------------------------------------------------
# FieldParams
# ---------------------------------------------------------------------------

def test_field_params_validation():
    with pytest.raises(ValueError):
        FieldParams((0, 0, 1), mu=0.0)
    with pytest.raises(ValueError):
        FieldParams((0, 0, 1), hbar=0.0)
    assert FieldParams((0, 0, 2), mu=3.0).omega == pytest.approx(6.0)


def test_field_params_derived_values_are_frozen():
    # |B| and sigma . B are computed once, with the formulas the properties
    # had, and sigma . B is read-only like B.
    b = [0.3, -0.7, 0.64]
    p = FieldParams(b, mu=1.7)
    assert p.field_norm == float(np.linalg.norm(np.array(b)))
    assert p.sigma_dot_b is p.sigma_dot_b
    assert np.array_equal(p.sigma_dot_b, sum(bk * s for bk, s in zip(np.array(b), PAULI)))
    assert not p.sigma_dot_b.flags.writeable and not p.B.flags.writeable
    with pytest.raises(ValueError):
        p.sigma_dot_b[0, 0] = 0.0


def test_array_holding_dataclasses_compare_by_identity_and_hash():
    # Each holds numpy arrays, whose == is elementwise; equal values must
    # not raise, so they compare (and hash) by identity.
    make = {
        "FieldParams": lambda: FieldParams((0, 0, 1)),
        "Trajectory": lambda: integrate_numeric(Spinor(1.0, 0.0), FieldParams((0, 0, 1)), 1e-3, 4),
        "LensDesign": lambda: design_lens((0.0, 0.0), (1.0, 0.0), (1.0, 0.0)),
    }
    for name, new in make.items():
        a, b = new(), new()
        assert a == a and a != b and not a == b, name
        assert hash(a) == hash(a) and len({a, b}) == 2, name


# ---------------------------------------------------------------------------
# Exact propagator
# ---------------------------------------------------------------------------

def test_evolve_identity_at_t0():
    phi0 = Spinor(0.6, 0.8j)
    out = evolve_exact(phi0, FieldParams((0.3, -1.0, 0.2)), 0.0)
    assert close_to(out, phi0, 1e-15)


def test_evolve_z_field_phases():
    # B along Z: (a, b) -> (e^{i w t} a, e^{-i w t} b), w = mu B / hbar.
    p = FieldParams((0, 0, 2.0), mu=1.5)
    phi0 = Spinor(0.6, 0.8)
    t = 0.37
    w = p.omega
    out = evolve_exact(phi0, p, t)
    assert out.c1 == pytest.approx(np.exp(1j * w * t) * 0.6, abs=1e-14)
    assert out.c2 == pytest.approx(np.exp(-1j * w * t) * 0.8, abs=1e-14)


def test_evolve_y_field_splitting_path():
    # A field along the negative Y axis takes (1, 0) through
    # (cos wt, sin wt); at wt = pi/4 this is the equal superposition.
    p = FieldParams((0, -1.0, 0))
    t = math.pi / 4.0
    out = evolve_exact(Spinor(1.0, 0.0), p, t)
    assert out.c1 == pytest.approx(RT2, abs=1e-12)
    assert out.c2 == pytest.approx(RT2, abs=1e-12)
    # The positive-Y orientation traverses the same great circle the
    # other way: (cos wt, -sin wt).
    out_pos = evolve_exact(Spinor(1.0, 0.0), FieldParams((0, 1.0, 0)), t)
    assert out_pos.c1 == pytest.approx(RT2, abs=1e-12)
    assert out_pos.c2 == pytest.approx(-RT2, abs=1e-12)


def test_evolve_matches_expm_oracle():
    rng = np.random.default_rng(30)
    for _ in range(100):
        phi0, p = random_case(rng)
        t = rng.uniform(-3.0, 3.0)
        expected = expm_oracle(phi0, p, t)
        got = evolve_exact(phi0, p, t).vector
        assert np.abs(got - expected).max() < 1e-12


def test_evolve_zero_field_rejected():
    with pytest.raises(ZeroFieldError):
        evolve_exact(Spinor(1, 0), FieldParams((0, 0, 0)), 1.0)


def test_evolve_unitary():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        phi0, p = random_case(rng)
        out = evolve_exact(phi0, p, rng.uniform(0, 10))
        assert abs(abs(out.c1) ** 2 + abs(out.c2) ** 2 - 1.0) < 1e-12


def test_evolve_group_property():
    rng = np.random.default_rng(32)
    for _ in range(1000):
        phi0, p = random_case(rng)
        t1, t2 = rng.uniform(-2, 2, size=2)
        once = evolve_exact(phi0, p, t1 + t2)
        twice = evolve_exact(evolve_exact(phi0, p, t1), p, t2)
        assert close_to(once, twice, 1e-12)


# ---------------------------------------------------------------------------
# Speed of evolution
# ---------------------------------------------------------------------------

def test_speed_values():
    assert evolution_speed(FieldParams((0, 0, 1))) == pytest.approx(1.0)
    assert evolution_speed(FieldParams((0, 0, 0))) == 0.0
    assert evolution_speed(FieldParams((0, 3, 0), mu=2.0)) == pytest.approx(6.0)


def test_speed_matches_finite_difference():
    p = FieldParams((1.0, -0.5, 2.0), mu=1.3)
    phi0 = Spinor(0.3 + 0.1j, 0.8 - 0.2j)
    h = 1e-6
    plus = evolve_exact(phi0, p, h).vector
    minus = evolve_exact(phi0, p, -h).vector
    fd_speed = np.linalg.norm(plus - minus) / (2 * h)
    assert fd_speed == pytest.approx(evolution_speed(p), abs=1e-7)


# ---------------------------------------------------------------------------
# Numeric integrator
# ---------------------------------------------------------------------------

def test_integrate_zero_steps():
    phi0 = Spinor(1.0, 0.0)
    traj = integrate_numeric(phi0, FieldParams((0, 0, 1)), 1e-3, 0)
    assert len(traj) == 1
    assert close_to(traj.spinor(0), phi0, 0.0)


def test_integrate_matches_exact_terminal():
    rng = np.random.default_rng(33)
    phi0, p = random_case(rng)
    traj = integrate_numeric(phi0, p, 1e-3, 1000)
    exact = evolve_exact(phi0, p, traj.times[-1])
    assert np.abs(traj.states[-1] - exact.vector).max() < 1e-8
    assert traj.max_drift < 1e-10


def test_integrate_constant_speed_samples():
    rng = np.random.default_rng(34)
    phi0, p = random_case(rng)
    traj = integrate_numeric(phi0, p, 1e-3, 2000)
    speeds = speed_along(traj)
    assert np.abs(speeds - evolution_speed(p)).max() < 1e-8


def test_integrate_step_guard():
    # omega carries the sign of mu; the guard bounds dt * |omega|.
    for mu in (1.0, -1.0):
        p = FieldParams((0, 0, 5.0), mu)
        with pytest.raises(StepSizeError, match=r"dt\*\|omega\| = 0\.25 "):
            integrate_numeric(Spinor(1, 0), p, 0.05, 10)
        integrate_numeric(Spinor(1, 0), p, 0.01, 10)
    with pytest.raises(ValueError):
        integrate_numeric(Spinor(1, 0), FieldParams((0, 0, 1.0)), -1e-3, 10)


@pytest.mark.parametrize("phi0, p", [
    (Spinor(math.sqrt(0.3), math.sqrt(0.7)), FieldParams((0.0, 0.0, 1.0))),
    (Spinor(0.9, math.sqrt(0.19)), FieldParams((0.3, -0.7, 0.2), mu=-1.7)),
    (Spinor(0.6 - 0.2j, 0.1 + 0.7j), FieldParams((-1.1, 0.4, 0.8), mu=0.6, hbar=1.3)),
])
def test_integrate_matches_the_numpy_step(phi0, p):
    # Same formulas in the same order; only the BLAS kernel's roundings
    # may separate them, so 10,000 steps must agree far below the
    # integrator's own error.
    traj = integrate_numeric(phi0, p, 1e-4, 10_000)
    states, max_drift = numpy_rk4(phi0, p, 1e-4, 10_000)
    assert np.abs(traj.states - states).max() < 1e-12
    assert abs(traj.max_drift - max_drift) < 1e-12


@pytest.mark.parametrize(
    "argv, csv, digest",
    [
        (["evolve", "--bx", "0.3", "--by", "-0.7", "--bz", "0.2", "--mu", "-1.7",
          "--c1sq", "0.81", "--dt", "1e-4"], "evolve_0.csv",
         "d525d5d29447d74ccf1a4a5858d73b48b4b8a62f681aa2171921df7458e68c3d"),
        (["evolve", "--mu", "-1.3", "--c1sq", "1"], "evolve_0.csv",
         "024d25255476254eae189711261e4a60671518a0e5cc4c98d13113b75c9316b3"),
        (["e2-split", "--trials", "2000"], "e2_split_0.csv",
         "6a11517ca5ea58a21411a62eff36165b3eda2bb9f3f032861e374d1d207a550e"),
    ],
    ids=["evolve-off-axis", "evolve-eigenstate", "e2-split"],
)
def test_trajectory_csv_golden(tmp_path, argv, csv, digest):
    # Bit-exact pins of the integrator's trajectory, the same under every
    # BLAS kernel: off axis every multiply-add rounds once, and the
    # eigenstate keeps its zero component's signs.
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / csv).read_bytes()).hexdigest() == digest


def test_integrate_fourth_order_convergence():
    phi0 = Spinor(0.6, 0.8j)
    p = FieldParams((0.2, 1.0, -0.4))
    t_final = 1.0
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        n = int(round(t_final / dt))
        traj = integrate_numeric(phi0, p, dt, n)
        exact = evolve_exact(phi0, p, traj.times[-1]).vector
        errors.append(np.abs(traj.states[-1] - exact).max())
    r1 = errors[0] / errors[1]
    r2 = errors[1] / errors[2]
    assert 8.0 < r1 < 35.0
    assert 8.0 < r2 < 35.0


# ---------------------------------------------------------------------------
# Trajectory / planarity
# ---------------------------------------------------------------------------

def test_trajectory_validation():
    good = np.array([[1, 0], [1, 0]], dtype=complex)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), good, FieldParams((0, 0, 1)))
    with pytest.raises(ValueError):
        Trajectory(
            np.array([0.0, 1.0]),
            np.array([[1, 0], [0.5, 0]], dtype=complex),
            FieldParams((0, 0, 1)),
        )


def test_planarity_exact_geodesics():
    rng = np.random.default_rng(35)
    for _ in range(10):
        phi0, p = random_case(rng)
        times = np.linspace(0.0, 4.0, 200)
        states = np.array([evolve_exact(phi0, p, t).vector for t in times])
        traj = Trajectory(times, states, p)
        assert geodesic_planarity(traj) < 1e-9


def test_planarity_constant_trajectory():
    phi0 = Spinor(0.6, 0.8j)
    times = np.linspace(0, 1, 10)
    states = np.tile(phi0.vector, (10, 1))
    traj = Trajectory(times, states, FieldParams((0, 0, 1)))
    assert geodesic_planarity(traj) < 1e-12


def test_planarity_latitude_circle_rejected():
    # Latitude circle at height 0.5 in a 2-sphere slice of S^3: spans a
    # 3-dimensional subspace of R^4, residual at least 0.5 * sqrt(N).
    a, b = 0.5, math.sqrt(0.75)
    times = np.linspace(0, 2 * math.pi, 73)[:-1]
    states = np.column_stack([np.full(72, a + 0j), b * np.exp(1j * times)])
    traj = Trajectory(times, states, FieldParams((0, 0, 1)))
    assert geodesic_planarity(traj) > 0.1


def test_planarity_needs_samples():
    times = np.array([0.0, 1.0])
    states = np.array([[1, 0], [1, 0]], dtype=complex)
    traj = Trajectory(times, states, FieldParams((0, 0, 1)))
    with pytest.raises(ValueError):
        geodesic_planarity(traj)


def test_eigenstate_trajectory_is_phase_circle():
    # An eigenstate of sigma.B stays on its phase fiber: still a great
    # circle (planarity ~ 0), and projectively a single point (checked in
    # the projective-geometry tests).
    p = FieldParams((0, 0, 1.0))
    times = np.linspace(0.0, 3.0, 50)
    states = np.array([evolve_exact(Spinor(1, 0), p, t).vector for t in times])
    traj = Trajectory(times, states, p)
    assert geodesic_planarity(traj) < 1e-12
