"""Projective geometry tests: projection, distances, Born law, uncertainty.

Direct matrix-element computations with the Pauli matrices serve as the
independent oracle for moments, variances, and the energy spread.
"""

import cmath
import csv
import io
import json
import math

import numpy as np
import pytest
from test_acceptance import fs_distance, transition_probability

from spinsphere import cli
from spinsphere.bloch import (
    energy_uncertainty,
    hopf_project,
    spinor_from_bloch,
    uncertainty_margin,
)
from spinsphere.cli import main
from spinsphere.evolution import FieldParams, ZeroFieldError, evolve_exact, integrate_numeric
from spinsphere.su2 import PAULI, Spinor, unit_states

RT2 = 1.0 / math.sqrt(2.0)


def random_spinors(rng, n):
    raw = rng.normal(size=(n, 4))
    return [Spinor(complex(r[0], r[1]), complex(r[2], r[3])) for r in raw]


def expectation(phi, op):
    v = phi.vector
    return (v.conj() @ op @ v).real


def inhomogeneous_coord(phi):
    """Chart coordinate xi = phi2 / phi1 on the projective line."""
    return phi.c2 / phi.c1


def spread(phi, p):
    """Energy spread of one state in the field of p."""
    return energy_uncertainty(phi.vector, p.B, p.mu)


def projective_speed(phi, p):
    """Speed 2 omega sin(theta) of the projected evolution, theta the angle
    of the Bloch point from the field axis: 2 Delta E / hbar."""
    return 2.0 * spread(phi, p) / p.hbar


def pauli_moments(phi):
    """(expectations, variances) of the three spin components: the Bloch
    point, and 1 - x^2 = y^2 + z^2 and cyclic (each component squares to 1)."""
    b = hopf_project(phi.vector)
    return b, 1.0 - b * b


def variance_on_geodesic(ck_sq, lambda_k, lambda_l):
    """Variance of an observable with eigenvalues lambda_k, lambda_l at the
    point with weight ck_sq on lambda_k of the geodesic joining them."""
    mean = ck_sq * lambda_k + (1.0 - ck_sq) * lambda_l
    return ck_sq * lambda_k**2 + (1.0 - ck_sq) * lambda_l**2 - mean * mean


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------

def test_hopf_basis_state():
    b = hopf_project(Spinor(1.0, 0.0).vector)
    assert b.shape == (3,) and b.dtype == np.float64
    assert np.allclose(b, (0.0, 0.0, -1.0), atol=1e-15)


def test_hopf_equal_superposition():
    b = hopf_project(Spinor(RT2, RT2).vector)
    assert np.allclose(b, (1.0, 0.0, 0.0), atol=1e-15)


def test_hopf_phase_invariance_and_unit_image():
    rng = np.random.default_rng(40)
    for phi in random_spinors(rng, 10_000):
        beta = rng.uniform(-math.pi, math.pi)
        shifted = Spinor(
            phi.c1 * cmath.exp(1j * beta), phi.c2 * cmath.exp(1j * beta)
        )
        b1, b2 = hopf_project(phi.vector), hopf_project(shifted.vector)
        assert np.abs(b1 - b2).max() < 1e-12
        assert abs(np.linalg.norm(b1) - 1.0) < 1e-12


def test_spinor_from_bloch_round_trip():
    rng = np.random.default_rng(41)
    for phi in random_spinors(rng, 500):
        b = hopf_project(phi.vector)
        again = hopf_project(spinor_from_bloch(b).vector)
        assert np.abs(b - again).max() < 1e-12
    for pole in ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)):
        assert np.abs(hopf_project(spinor_from_bloch(pole).vector) - pole).max() < 1e-12


# ---------------------------------------------------------------------------
# Inhomogeneous chart
# ---------------------------------------------------------------------------

def test_xi_values():
    assert inhomogeneous_coord(Spinor(1.0, 0.0)) == 0.0
    assert inhomogeneous_coord(Spinor(RT2, RT2)) == pytest.approx(1.0)


def test_xi_stereographic_identity():
    rng = np.random.default_rng(42)
    for phi in random_spinors(rng, 300):
        if abs(phi.c1) < 1e-3:
            continue
        x, y, z = hopf_project(phi.vector)
        xi = inhomogeneous_coord(phi)
        stereo = complex(x, y) / (1.0 - z)
        assert abs(xi - stereo) < 1e-10


# ---------------------------------------------------------------------------
# Distance and transition probability
# ---------------------------------------------------------------------------

def test_fs_distance_values():
    phi = Spinor(0.6, 0.8j)
    assert fs_distance(phi, phi) == pytest.approx(0.0, abs=1e-12)
    assert fs_distance(Spinor(1, 0), Spinor(0, 1)) == pytest.approx(math.pi)
    assert fs_distance(Spinor(1, 0), Spinor(RT2, RT2)) == pytest.approx(
        math.pi / 2
    )


def test_transition_probability_values():
    phi = Spinor(0.6, 0.8j)
    assert transition_probability(phi, phi) == pytest.approx(1.0, abs=1e-12)
    assert transition_probability(Spinor(1, 0), Spinor(0, 1)) == 0.0
    assert transition_probability(Spinor(1, 0), Spinor(RT2, RT2)) == pytest.approx(
        0.5, abs=1e-12
    )


# ---------------------------------------------------------------------------
# Projective speed
# ---------------------------------------------------------------------------

def test_projective_speed_eigenstate_is_stationary():
    p = FieldParams((0, 0, 1.0))
    assert projective_speed(Spinor(1, 0), p) == pytest.approx(0.0, abs=1e-12)
    assert projective_speed(Spinor(0, 1), p) == pytest.approx(0.0, abs=1e-12)


def test_projective_speed_equator_value():
    p = FieldParams((0, 0, 1.0))
    assert projective_speed(Spinor(RT2, RT2), p) == pytest.approx(2.0, abs=1e-12)


def test_projective_speed_finite_difference():
    rng = np.random.default_rng(44)
    for _ in range(20):
        phi = random_spinors(rng, 1)[0]
        b = rng.normal(size=3)
        p = FieldParams(b / np.linalg.norm(b) * rng.uniform(0.5, 2.0))
        dt = 1e-5
        b_plus = hopf_project(evolve_exact(phi, p, dt).vector)
        b_minus = hopf_project(evolve_exact(phi, p, -dt).vector)
        fd = np.linalg.norm(b_plus - b_minus) / (2 * dt)
        assert abs(fd - projective_speed(phi, p)) < 1e-6


def test_eigenstate_evolution_projectively_trivial():
    p = FieldParams((0.3, -0.7, 0.64))
    _, vecs = np.linalg.eigh(p.sigma_dot_b)
    eigenstate = Spinor(vecs[0, 1], vecs[1, 1])
    start = hopf_project(eigenstate.vector)
    for t in np.linspace(0.1, 5.0, 7):
        moved = hopf_project(evolve_exact(eigenstate, p, t).vector)
        assert np.abs(moved - start).max() < 1e-9
    assert projective_speed(eigenstate, p) < 1e-12


# ---------------------------------------------------------------------------
# Moments and uncertainty
# ---------------------------------------------------------------------------

def test_pauli_moments_basis_state():
    _, variances = pauli_moments(Spinor(1.0, 0.0))
    assert np.allclose(np.sqrt(variances), (1.0, 1.0, 0.0), atol=1e-12)


def test_pauli_moments_equatorial_state():
    expectations, variances = pauli_moments(Spinor(RT2, RT2))
    assert np.allclose(expectations, (1.0, 0.0, 0.0), atol=1e-12)
    assert np.allclose(variances, (0.0, 1.0, 1.0), atol=1e-12)


def test_pauli_moments_spread_is_sine_of_axis_angle():
    # A state on the equator sits a quarter turn from the z axis, so the
    # z-component spread is sin(pi/2) = 1.
    _, variances = pauli_moments(Spinor(RT2, RT2 * 1j))
    assert math.sqrt(variances[2]) == pytest.approx(1.0, abs=1e-12)


def test_pauli_moments_against_matrix_elements():
    # Expectations match direct matrix elements up to the projection's
    # z-orientation; variances match exactly (convention-free).
    rng = np.random.default_rng(45)
    for phi in random_spinors(rng, 300):
        got, variances = pauli_moments(phi)
        direct = np.array([expectation(phi, s) for s in PAULI])
        assert abs(got[0] - direct[0]) < 1e-12
        assert abs(got[1] - direct[1]) < 1e-12
        assert abs(got[2] + direct[2]) < 1e-12
        direct_vars = np.array(
            [
                expectation(phi, s @ s) - expectation(phi, s) ** 2
                for s in PAULI
            ]
        )
        assert np.abs(variances - direct_vars).max() < 1e-12


def test_uncertainty_margin_values():
    assert uncertainty_margin(Spinor(1, 0).vector) == pytest.approx(0.0, abs=1e-12)
    assert uncertainty_margin(Spinor(0, 1).vector) == pytest.approx(0.0, abs=1e-12)
    # Equatorial state at x = 1: margin x^2 y^2 = 0.
    assert uncertainty_margin(Spinor(RT2, RT2).vector) == pytest.approx(0.0, abs=1e-12)
    # x = y = z = 1/sqrt(3): (2/3)(2/3) - 1/3 = 1/9.
    diag = spinor_from_bloch(np.full(3, 1 / math.sqrt(3)))
    assert uncertainty_margin(diag.vector) == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_uncertainty_principle_many_states():
    rng = np.random.default_rng(46)
    for phi in random_spinors(rng, 10_000):
        assert uncertainty_margin(phi.vector) >= -1e-12
        expectations, variances = pauli_moments(phi)
        dx, dy = math.sqrt(variances[0]), math.sqrt(variances[1])
        assert dx * dy >= abs(expectations[2]) - 1e-12


def test_energy_uncertainty_values():
    p = FieldParams((0, 0, 1.0))
    assert spread(Spinor(1, 0), p) == pytest.approx(0.0, abs=1e-12)
    assert spread(Spinor(RT2, RT2), p) == pytest.approx(1.0, abs=1e-12)
    # theta = pi/6 from the field axis with mu B = 2: 2 sin(pi/6) = 1.
    state = spinor_from_bloch(np.array([math.sin(math.pi / 6), 0.0, math.cos(math.pi / 6)]))
    p2 = FieldParams((0, 0, 1.0), mu=2.0)
    assert spread(state, p2) == pytest.approx(1.0, abs=1e-12)


def test_energy_uncertainty_matches_hamiltonian_variance():
    rng = np.random.default_rng(47)
    for _ in range(1000):
        phi = random_spinors(rng, 1)[0]
        b = rng.normal(size=3)
        p = FieldParams(b / np.linalg.norm(b) * rng.uniform(0.5, 2.0), mu=1.7)
        h = -p.mu * p.sigma_dot_b
        variance = expectation(phi, h @ h) - expectation(phi, h) ** 2
        assert abs(spread(phi, p) - math.sqrt(max(variance, 0.0))) < 1e-10


def test_energy_uncertainty_broadcasts_over_states_and_fields():
    rng = np.random.default_rng(3)
    states = np.array([phi.vector for phi in random_spinors(rng, 12)]).reshape(3, 4, 2)
    fields = rng.normal(size=(3, 4, 3))
    spreads = energy_uncertainty(states, fields, -0.6)
    assert spreads.shape == (3, 4)
    for k in np.ndindex(3, 4):
        assert spreads[k] == energy_uncertainty(states[k], fields[k], -0.6)
    with pytest.raises(ZeroFieldError):
        energy_uncertainty(states, np.zeros((3, 4, 3)), 1.0)


def _scalar_energy_errors(rng, mu):
    """cli._energy_errors one pair at a time, as the CLI computed it before
    its array form: a state, a field with its sigma . B and |B|, two 2x2
    matmuls and an eigh per pair, in Python and numpy scalars."""
    errors = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(1000):
            r = rng.normal(size=4)
            v = Spinor(complex(r[0], r[1]), complex(r[2], r[3])).vector
            b = rng.normal(size=3)
            b = b / np.linalg.norm(b) * rng.uniform(0.5, 2.0)
            sigma_b = sum(bk * s for bk, s in zip(b, PAULI))
            norm = math.sqrt(float(b.dot(b)))
            h = -mu * sigma_b
            variance = float((v.conj() @ h @ h @ v).real - (v.conj() @ h @ v).real ** 2)
            _, vecs = np.linalg.eigh(sigma_b / norm)
            amps = vecs.conj().T @ v
            energy = 2.0 * abs(mu) * norm * abs(amps[0]) * abs(amps[1])
            errors.append(abs(energy - math.sqrt(max(variance, 0.0))) / max(1.0, abs(mu)))
    return errors


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mu", [1.0, -1.7, 1e5, 1e153, 1e200, 1e-7])
def test_energy_errors_equal_the_per_pair_loop_bit_for_bit(mu):
    # The array pass keeps each pair's draws in stream order and rounds as
    # the scalar code does (np.hypot for |amp|, np.float_power for the
    # square), so every error keeps its bits; at mu = 1e200 every variance
    # overflows and every error is nan.
    for seed in range(8):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        errors = cli._energy_errors(rng, mu)
        expected = _scalar_energy_errors(oracle_rng, mu)
        assert [x.hex() for x in errors.tolist()] == [x.hex() for x in expected]
        assert np.isnan(errors).all() == (mu == 1e200)
        assert rng.random() == oracle_rng.random()


# ---------------------------------------------------------------------------
# Variance along a geodesic
# ---------------------------------------------------------------------------

def test_variance_on_geodesic_values():
    assert variance_on_geodesic(1.0, 3.0, -2.0) == 0.0
    assert variance_on_geodesic(0.5, 1.0, -1.0) == pytest.approx(1.0)
    assert variance_on_geodesic(0.75, 1.0, -1.0) == pytest.approx(0.75)


def test_variance_on_geodesic_matches_two_level_operator():
    # Independent oracle: variance of diag(lk, ll) in the superposition
    # sqrt(ck_sq) e_k + sqrt(1 - ck_sq) e_l.
    rng = np.random.default_rng(48)
    for _ in range(200):
        ck_sq = rng.uniform(0, 1)
        lk, ll = rng.normal(size=2, scale=2.0)
        op = np.diag([lk, ll])
        v = np.array([math.sqrt(ck_sq), math.sqrt(1 - ck_sq)])
        direct = v @ op @ op @ v - (v @ op @ v) ** 2
        assert variance_on_geodesic(ck_sq, lk, ll) == pytest.approx(
            direct, abs=1e-12
        )


def test_variance_on_geodesic_monotone_toward_midpoint():
    values = [
        variance_on_geodesic(c, 1.0, -1.0) for c in np.linspace(1.0, 0.5, 1000)
    ]
    diffs = np.diff(values)
    assert np.all(diffs > 0.0)
    assert values[0] == 0.0
    assert values[-1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# The bloch and uncertainty CLI against scalar oracles
# ---------------------------------------------------------------------------

def _scalar_projection(c1, c2):
    """Bloch point (x, y, z) of a unit state as Python floats, with the
    arithmetic the CLI must reproduce bit for bit."""
    cross = c1 * c2.conjugate()
    return 2.0 * cross.real, -2.0 * cross.imag, abs(c2) ** 2 - abs(c1) ** 2


BLOCH_CASES = [
    ["--c1sq", "0.5"],
    ["--c1sq", "0.3", "--bx", "0.4", "--by", "-1.2", "--bz", "0.7", "--mu", "-0.8"],
]


@pytest.mark.parametrize("case", BLOCH_CASES, ids=["default-field", "tilted-field"])
def test_bloch_cli_matches_scalar_projection_bit_for_bit(tmp_path, case):
    args = [*case, "--dt", "1e-4"]
    assert main(["bloch", *args, "--out", str(tmp_path / "bloch")]) == 0
    assert main(["evolve", *args, "--out", str(tmp_path / "evolve")]) == 0
    with open(tmp_path / "evolve" / "evolve_0.csv", newline="") as handle:
        samples = [[float(v) for v in row] for row in list(csv.reader(handle))[1:]]
    rows, norm_dev = [], 0.0
    for t, re1, im1, re2, im2 in samples:
        phi = Spinor(complex(re1, im1), complex(re2, im2))
        point = _scalar_projection(phi.c1, phi.c2)
        rows.append((t, *point))
        norm_dev = max(norm_dev, abs(np.linalg.norm(np.array(point)) - 1.0))
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["t", "x", "y", "z"])
    writer.writerows(rows)
    assert (tmp_path / "bloch" / "bloch_0.csv").read_bytes() == expected.getvalue().encode()

    c1sq = float(case[1])
    phi0 = Spinor(math.sqrt(c1sq), math.sqrt(1.0 - c1sq))
    shifted = Spinor(phi0.c1 * np.exp(0.7j), phi0.c2 * np.exp(0.7j))
    phase_dev = float(np.abs(
        np.array(_scalar_projection(shifted.c1, shifted.c2))
        - np.array(_scalar_projection(phi0.c1, phi0.c2))
    ).max())
    metrics = json.loads((tmp_path / "bloch" / "bloch_report.json").read_text())["metrics"]
    assert metrics == {"norm_deviation": norm_dev, "phase_invariance": phase_dev}


def test_bloch_points_are_those_of_a_spinor_per_state(tmp_path, monkeypatch):
    # run_bloch projects the trajectory's states without making a Spinor of
    # each; every point must still be the projection of its row's Spinor.
    trajs, rows = [], []

    def integrate(*args):
        trajs.append(integrate_numeric(*args))
        return trajs[-1]

    monkeypatch.setattr(cli, "integrate_numeric", integrate)
    monkeypatch.setattr(cli, "write_csv", lambda path, header, data: rows.extend(data))
    assert main(["bloch", "--c1sq", "0.3", "--bx", "0.4", "--by", "-1.2", "--bz", "0.7",
                 "--mu", "-0.8", "--hbar", "1.3", "--out", str(tmp_path)]) == 0
    (traj,) = trajs
    expected = [_scalar_projection(phi.c1, phi.c2)
                for phi in (Spinor(c1, c2) for c1, c2 in traj.states)]
    assert len(rows) == len(traj) == 1001
    assert np.array(rows)[:, 1:].tobytes() == np.array(expected).tobytes()


def _scalar_margin(phi):
    x, y, z = _scalar_projection(phi.c1, phi.c2)
    x2, y2, z2 = x * x, y * y, z * z
    return (y2 + z2) * (x2 + z2) - z2


@pytest.mark.parametrize("seed", [42, 9001])
def test_uncertainty_cli_matches_scalar_margin_bit_for_bit(tmp_path, seed):
    assert main(["uncertainty", "--states", "50000", "--seed", str(seed),
                 "--out", str(tmp_path)]) == 0
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(50_000):
        r = rng.normal(size=4)
        worst = min(worst, _scalar_margin(Spinor(complex(r[0], r[1]), complex(r[2], r[3]))))
    metrics = json.loads((tmp_path / "uncertainty_report.json").read_text())["metrics"]
    assert metrics["min_margin"] == worst
    assert metrics["margin_at_eigenstate"] == _scalar_margin(Spinor(1.0, 0.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_uncertainty_energy_check_fails_on_an_overflowed_variance(tmp_path, capsys):
    # At mu = 1e200 the direct variance overflows to nan in every iteration;
    # the energy check must fail on it, not skip it, and warn nothing.
    assert main(["uncertainty", "--mu", "1e200", "--states", "10",
                 "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "uncertainty_report.json").read_text())
    assert math.isnan(report["metrics"]["max_energy_uncertainty_error"])
    assert report["checks"] == {"margin_nonnegative": True, "eigenstate_margin_zero": True,
                                "energy_uncertainty": False}
    assert capsys.readouterr().out == "uncertainty: FAIL failed=energy_uncertainty\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mu", ["1e5", "1e8", "1e153"])
def test_uncertainty_energy_check_passes_at_a_large_mu(tmp_path, capsys, mu):
    # The rounding error grows with mu |B|; in units of max(1, |mu|) it stays
    # far below the threshold wherever the variance does not overflow.
    assert main(["uncertainty", "--mu", mu, "--states", "10", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "uncertainty_report.json").read_text())
    assert report["metrics"]["max_energy_uncertainty_error"] < 1e-13
    assert capsys.readouterr().out == "uncertainty: PASS\n"


@pytest.mark.parametrize("seed", [0, 100, 2**31 - 1])
@pytest.mark.parametrize("n", [1, 1023, 1025, 4095, 4097, 50_000, 60_001])
def test_normal_rows_in_blocks_are_one_call_per_state(seed, n):
    # run_uncertainty draws its states in blocks of 4,096 rows: the rows, as
    # bits, and the generator's next draw must be those of one size-4 call
    # per state.
    blocks = np.random.default_rng(seed)
    rows = np.concatenate([blocks.normal(size=(min(4096, n - lo), 4))
                           for lo in range(0, n, 4096)])
    one_by_one = np.random.default_rng(seed)
    expected = np.array([one_by_one.normal(size=4) for _ in range(n)])
    assert np.array_equal(rows.view(np.uint64), expected.view(np.uint64))
    assert np.float64(blocks.normal()).view(np.uint64) == np.float64(one_by_one.normal()).view(np.uint64)


class _Rows:
    """A generator stand-in whose normal() hands out the given rows."""

    def __init__(self, rows):
        self.rows, self.taken = rows, 0

    def normal(self, size):
        block = self.rows[self.taken : self.taken + size[0]]
        self.taken += size[0]
        return block


def _states_at_noise_level(rng, n):
    """Rows (a, b, -t b, t a): x = 2(ac + bd) = 0, so the margin x^2 y^2 is
    0 and the computed one rounding noise of either sign, which numpy and
    the scalar code round differently."""
    a, b, t = rng.normal(size=(3, n))
    return np.stack([a, b, -t * b, t * a], axis=1)


def _hex(values):
    return [float.hex(v) for v in np.ravel(values).tolist()]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_array_projection_matches_the_scalar_oracles_bit_for_bit():
    # unit_states must hold each row's Spinor parts, and hopf_project and
    # uncertainty_margin the scalar oracles' values, sign of zero included:
    # on normal rows, rows at the margin's rounding-noise level, rows with
    # signed zero parts and rows of size 1e-150.
    rng = np.random.default_rng(5)
    normal = rng.normal(size=(10_000, 4))
    zeros = normal * (rng.random(normal.shape) < 0.5)
    zeros = zeros[np.any(zeros != 0.0, axis=1)]
    for rows in (normal, _states_at_noise_level(rng, 10_000), zeros, 1e-150 * normal):
        spinors = [Spinor(c1, c2) for c1, c2 in rows.view(complex).tolist()]
        states = unit_states(rows.view(complex))
        assert _hex(states.view(float)) == _hex(
            [[c.real, c.imag] for phi in spinors for c in (phi.c1, phi.c2)])
        assert _hex(hopf_project(states)) == _hex(
            [_scalar_projection(phi.c1, phi.c2) for phi in spinors])
        assert _hex(uncertainty_margin(states)) == _hex([_scalar_margin(phi) for phi in spinors])


@pytest.mark.parametrize("seed", [1, 2, 4])
def test_min_margin_rescores_every_near_tie(seed):
    # 5,003 rows (not a multiple of the 4,096-row block), a third of them at
    # the rounding-noise level, where a margin rounded in any other order
    # would not be the scalar one.
    rng = np.random.default_rng(seed)
    rows = np.concatenate([rng.normal(size=(3335, 4)), _states_at_noise_level(rng, 1668)])
    rows = rows[rng.permutation(len(rows))]
    margins = [_scalar_margin(Spinor(c1, c2)) for c1, c2 in rows.view(complex).tolist()]
    stream = _Rows(rows)
    assert cli._min_margin(stream, len(rows)) == min(margins)
    assert stream.taken == len(rows)
