"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single pass/fail line (visible with `pytest -s`) and
asserts both the tolerance and the runtime budget.  All Monte Carlo
criteria run on frozen seeds; the trial engine is bit-reproducible, so
these are fixed test vectors rather than flaky statistical checks.
"""

import math
import time

import numpy as np
import pytest

from spinsphere.bloch import energy_uncertainty, hopf_project, uncertainty_margin
from spinsphere.cli import main as cli_main
from spinsphere.collapse import (
    DEFAULT_REGION,
    absorption_probabilities,
    build_markov_chain,
    run_collapse_batch,
    run_ruin_walks,
)
from spinsphere.curvature import commutator_curvature_identity, sectional_curvature
from spinsphere.evolution import (
    FieldParams,
    evolution_speed,
    evolve_exact,
    geodesic_planarity,
    integrate_numeric,
    speed_along,
)
from spinsphere.lens import GaussianBump, design_lens, integrate_ray, ray_energy
from spinsphere.pairs import SingletSectorState, run_epr_batch
from spinsphere.su2 import Spinor, killing_inner

RT2 = 1.0 / math.sqrt(2.0)


class Criterion:
    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.start = time.perf_counter()

    def done(self, detail: str):
        elapsed = time.perf_counter() - self.start
        print(
            f"PASS criterion {self.number} ({self.label}): {detail} "
            f"[{elapsed:.2f}s / {self.budget:.0f}s]"
        )
        assert elapsed < self.budget, f"criterion {self.number} exceeded runtime budget"


def random_spinor(rng) -> Spinor:
    r = rng.normal(size=4)
    return Spinor(complex(r[0], r[1]), complex(r[2], r[3]))


def weighted_state(c1_sq: float) -> Spinor:
    return Spinor(math.sqrt(c1_sq), math.sqrt(1.0 - c1_sq))


# Oracles of the two paper results no CLI report shows; test_bloch.py and
# test_lens.py import them from here.

def fs_distance(phi: Spinor, psi: Spinor) -> float:
    """Angle in [0, pi] between the Bloch points, in the atan2 form that
    stays accurate near 0 and pi."""
    a, b = hopf_project(phi), hopf_project(psi)
    return math.atan2(float(np.linalg.norm(np.cross(a, b))), float(np.dot(a, b)))


def transition_probability(phi: Spinor, psi: Spinor) -> float:
    """|<psi, phi>|^2."""
    return abs(phi.inner(psi)) ** 2


def hamiltonian_metric(ham, phi, xi, eta, hbar: float = 1.0) -> float:
    """The metric hbar^2 Re(H^-2 xi, eta) / |phi|^2 of a Hamiltonian matrix H
    at a nonzero phi in C^2, for tangent vectors xi and eta; its geodesics
    are the unitary evolution itself."""
    w = np.linalg.solve(ham @ ham, xi)
    return hbar**2 * float(np.sum(w * np.conjugate(eta)).real) / float(np.vdot(phi, phi).real)


def test_criterion_1_sectional_curvature():
    crit = Criterion(1, "sectional curvature == 1", 1.0)
    rng = np.random.default_rng(1001)
    basis = np.eye(3)
    # Rows (x, y): the 3 basis planes, then 100 planes drawn x before y.
    planes = np.concatenate([np.stack([basis, basis[[1, 2, 0]]], axis=1),
                             rng.normal(size=(100, 2, 3), scale=2.0)])
    worst = np.abs(sectional_curvature(planes[:, 0], planes[:, 1]) - 1.0).max()
    assert worst < 1e-10
    crit.done(f"max |K - 1| = {worst:.2e} over {len(planes)} planes")


def test_criterion_2_commutator_curvature_identity():
    crit = Criterion(2, "commutator-curvature identity", 1.0)
    rng = np.random.default_rng(1002)
    x, y0 = rng.normal(size=(1000, 2, 3), scale=2.0).transpose(1, 0, 2)
    y = y0 - (killing_inner(x, y0) / killing_inner(x, x))[:, None] * x
    lhs, rhs = commutator_curvature_identity(x, y)
    worst = np.abs(lhs - rhs).max()
    assert worst < 1e-10
    crit.done(f"max |lhs - rhs| = {worst:.2e} over 1000 orthogonal pairs")


def test_criterion_3_geodesic_flow():
    crit = Criterion(3, "geodesic spin evolution", 5.0)
    rng = np.random.default_rng(1003)
    worst_speed = worst_planarity = worst_terminal = 0.0
    for _ in range(50):
        phi0 = random_spinor(rng)
        b = rng.normal(size=3)
        params = FieldParams(b / np.linalg.norm(b) * rng.uniform(0.5, 2.0))
        traj = integrate_numeric(phi0, params, 1e-3, 1000)
        worst_speed = max(
            worst_speed,
            float(np.abs(speed_along(traj) - evolution_speed(params)).max()),
        )
        worst_planarity = max(worst_planarity, geodesic_planarity(traj))
        exact = evolve_exact(phi0, params, float(traj.times[-1]))
        worst_terminal = max(
            worst_terminal, float(np.abs(traj.states[-1] - exact.vector).max())
        )
    assert worst_speed < 1e-8
    assert worst_planarity < 1e-9
    assert worst_terminal < 1e-8
    crit.done(
        f"speed dev {worst_speed:.2e}, planarity {worst_planarity:.2e}, "
        f"terminal err {worst_terminal:.2e} over 50 trajectories"
    )


def test_criterion_4_born_distance_law():
    crit = Criterion(4, "transition probability vs distance", 1.0)
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(10_000):
        phi, psi = random_spinor(rng), random_spinor(rng)
        delta = abs(
            transition_probability(phi, psi)
            - math.cos(fs_distance(phi, psi) / 2.0) ** 2
        )
        worst = max(worst, delta)
    assert worst < 1e-12
    crit.done(f"max deviation {worst:.2e} over 10^4 pairs")


def test_criterion_5_uncertainty_principle():
    crit = Criterion(5, "geometric uncertainty principle", 1.0)
    rng = np.random.default_rng(1005)
    min_margin = math.inf
    for _ in range(10_000):
        min_margin = min(min_margin, uncertainty_margin(random_spinor(rng)))
    assert min_margin >= -1e-12
    for pole in (Spinor(1, 0), Spinor(0, 1)):
        assert abs(uncertainty_margin(pole)) < 1e-12
    worst_energy = 0.0
    for _ in range(1000):
        phi = random_spinor(rng)
        b = rng.normal(size=3)
        params = FieldParams(b / np.linalg.norm(b) * rng.uniform(0.5, 2.0), mu=1.3)
        h = -params.mu * params.sigma_dot_b
        v = phi.vector
        var = float((v.conj() @ h @ h @ v).real - (v.conj() @ h @ v).real ** 2)
        worst_energy = max(
            worst_energy,
            abs(energy_uncertainty(phi, params) - math.sqrt(max(var, 0.0))),
        )
    assert worst_energy < 1e-10
    crit.done(
        f"min margin {min_margin:.2e}, max energy-spread error {worst_energy:.2e}"
    )


def test_criterion_6_born_rule_from_collapse():
    crit = Criterion(6, "Born rule from source competition", 60.0)
    details = []
    for c1_sq in (0.1, 0.25, 0.5, 0.75, 0.9):
        outcomes, _ = run_collapse_batch(
            weighted_state(c1_sq), DEFAULT_REGION, seed=29, n_trials=100_000
        )
        freq = float(np.mean(outcomes == 0))
        sigma = math.sqrt(c1_sq * (1.0 - c1_sq) / 100_000)
        z = (freq - c1_sq) / sigma
        details.append(f"{c1_sq}:{z:+.2f}")
        assert abs(z) <= 3.0, f"|z| > 3 at |c1|^2 = {c1_sq}"
    crit.done(f"z-scores {{{', '.join(details)}}} at N = 10^5")


def test_criterion_7_markov_chain_collapse():
    crit = Criterion(7, "absorbing-chain collapse", 30.0)
    chain64 = build_markov_chain(64)
    exact = absorption_probabilities(chain64)
    closed = np.cos(chain64.thetas / 2.0) ** 2
    oracle_err = float(np.abs(exact - closed).max())
    assert oracle_err < 1e-10
    chain60 = build_markov_chain(60)  # pi/3 is node 20 of this grid
    absorbed, _ = run_ruin_walks(chain60, 20, seed=7, n_walks=100_000)
    freq = float(absorbed.mean())
    assert abs(freq - 0.75) < 0.005
    crit.done(
        f"m=64 oracle err {oracle_err:.2e}; walk freq {freq:.4f} vs 0.75"
    )


def test_criterion_8_ray_integrator_and_lens():
    crit = Criterion(8, "conformal ray integrator + lens", 10.0)
    flat = GaussianBump(center=(0.0, 0.0), amplitude=0.0, width=1.0)
    straight = integrate_ray((0.0, 0.0), (0.8, 0.6), flat, 1e-3, 10_000)
    expected = np.outer(1e-3 * np.arange(10_001), [0.8, 0.6])
    line_dev = float(np.abs(straight[:, 0] - expected).max())
    assert line_dev < 1e-10
    gauss = GaussianBump(center=(0.5, 0.3), amplitude=0.5, width=0.7)
    ray = integrate_ray((-1.5, 0.1), (1.0, 0.05), gauss, 2e-4, 10_000)
    energies = ray_energy(ray[:, 0], ray[:, 1], gauss)
    drift = float(np.abs(energies - energies[0]).max())
    assert drift < 1e-8
    design = design_lens((1.0, 0.1))
    assert design.miss < 1e-3
    crit.done(
        f"line dev {line_dev:.2e}, energy drift {drift:.2e}, "
        f"lens miss {design.miss:.2e}"
    )


def test_criterion_9_scale_isometry():
    crit = Criterion(9, "scale isometry of the state metric", 1.0)
    rng = np.random.default_rng(1009)
    ham = -FieldParams((0.6, -0.2, 1.1)).sigma_dot_b
    worst = 0.0
    for _ in range(1000):
        r = rng.normal(size=12)
        phi = np.array([complex(r[0], r[1]), complex(r[2], r[3])])
        xi = np.array([complex(r[4], r[5]), complex(r[6], r[7])])
        eta = np.array([complex(r[8], r[9]), complex(r[10], r[11])])
        lam = complex(rng.normal(), rng.normal())
        if abs(lam) < 1e-3:
            lam = 0.7 - 0.4j
        worst = max(
            worst,
            abs(
                hamiltonian_metric(ham, lam * phi, lam * xi, lam * eta)
                - hamiltonian_metric(ham, phi, xi, eta)
            ),
        )
    assert worst < 1e-12
    crit.done(f"max |G(lam.) - G(.)| = {worst:.2e} over 10^3 draws")


def test_criterion_10_epr_anti_correlation():
    crit = Criterion(10, "EPR anti-correlation and sector weights", 60.0)
    singlet = SingletSectorState(RT2, -RT2)
    first, second, _ = run_epr_batch(singlet, seed=53, n_trials=100_000)
    violations = int(np.count_nonzero(first != -second))
    assert violations == 0
    details = []
    for a_sq in (0.1, 0.25, 0.5, 0.75, 0.9):
        state = SingletSectorState(math.sqrt(a_sq), math.sqrt(1.0 - a_sq))
        first, _, _ = run_epr_batch(state, seed=53, n_trials=100_000)
        freq = float(np.mean(first == 1))
        details.append(f"{a_sq}:{freq - a_sq:+.4f}")
        assert abs(freq - a_sq) < 0.005
    crit.done(f"0 violations; |freq - a^2| {{{', '.join(details)}}}")


def test_criterion_11_e2_splitting_experiment():
    crit = Criterion(11, "spin splitting in a transverse field", 30.0)
    params = FieldParams((0.0, -1.0, 0.0))
    t_final = math.pi / 4.0  # (pi/4)(hbar / mu B) in Planck units
    terminal = evolve_exact(Spinor(1.0, 0.0), params, t_final)
    target = np.array([RT2, RT2])
    state_err = float(np.abs(terminal.vector - target).max())
    assert state_err < 1e-10
    outcomes, _ = run_collapse_batch(
        terminal, DEFAULT_REGION, seed=57, n_trials=100_000
    )
    freq = float(np.mean(outcomes == 0))
    assert abs(freq - 0.5) <= 3.0 * math.sqrt(0.25 / 100_000)
    crit.done(f"terminal err {state_err:.2e}; split {freq:.4f}/{1 - freq:.4f}")


def test_criterion_12_reproducibility(tmp_path):
    crit = Criterion(12, "byte-identical reruns", 60.0)
    compared = 0
    for args in (
        ["born", "--c1sq", "0.75", "--trials", "5000", "--seed", "42", "--outcomes-csv"],
        ["markov", "--trials", "3000"],
        ["e2-split", "--trials", "4000"],
    ):
        out_a = tmp_path / f"a{compared}"
        out_b = tmp_path / f"b{compared}"
        assert cli_main([*args, "--out", str(out_a)]) == 0
        assert cli_main([*args, "--out", str(out_b)]) == 0
        files_a = {p.name: p.read_bytes() for p in sorted(out_a.iterdir())}
        files_b = {p.name: p.read_bytes() for p in sorted(out_b.iterdir())}
        assert files_a == files_b and files_a
        compared += 1
    crit.done(f"{compared} experiments byte-identical on rerun")


def test_planarity_rejects_non_geodesics():
    # Companion check to criterion 3: the residual actually separates
    # great circles from latitude circles.
    from spinsphere.evolution import Trajectory

    a, b = 0.5, math.sqrt(0.75)
    times = np.linspace(0, 2 * math.pi, 73)[:-1]
    states = np.column_stack([np.full(72, a + 0j), b * np.exp(1j * times)])
    traj = Trajectory(times, states, FieldParams((0, 0, 1)))
    assert geodesic_planarity(traj) > 0.1


def test_bloch_projection_consistency():
    # Cross-module sanity shared by criteria 4-6: projecting the
    # weighted state reproduces the polar angle the collapse engine uses.
    for c1_sq in (0.1, 0.5, 0.9):
        phi = weighted_state(c1_sq)
        z = hopf_project(phi)[2]
        assert math.cos(
            math.acos(-z) / 2.0
        ) ** 2 == pytest.approx(c1_sq, abs=1e-12)
