"""Two-qubit sector tests: products, entanglement, EPR anti-correlation."""

import math

import numpy as np
import pytest

from spinsphere.collapse import CaptureRegion, DEFAULT_REGION
from spinsphere.pairs import (
    SingletSectorState,
    epr_statistics,
    measure_first_z,
    run_epr_batch,
)
from spinsphere.randomness import TrialStream
from spinsphere.su2 import Spinor

RT2 = 1.0 / math.sqrt(2.0)


def tensor_state(phi, psi):
    """Amplitudes c_ij = phi_i psi_j of a product state, as the 2x2
    coefficient matrix [[c_pp, c_pm], [c_mp, c_mm]]."""
    return np.outer(phi.vector, psi.vector)


def sector_pair_state(s):
    """Coefficient matrix of the sector state a phi+ psi- + b phi- psi+."""
    return np.array([[0.0, s.a], [s.b, 0.0]])


def is_entangled(m, tol=1e-12):
    """True iff the coefficient matrix has a nonzero determinant; it
    vanishes exactly on product states."""
    return bool(abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) > tol)


def test_tensor_basis_case():
    s = tensor_state(Spinor(1, 0), Spinor(0, 1))
    assert s[0, 1] == pytest.approx(1.0)
    assert abs(s[0, 0]) + abs(s[1, 0]) + abs(s[1, 1]) < 1e-15


def test_tensor_superposition_case():
    s = tensor_state(Spinor(RT2, RT2), Spinor(1, 0))
    assert s[0, 0] == pytest.approx(RT2)
    assert s[1, 0] == pytest.approx(RT2)
    assert abs(s[0, 1]) + abs(s[1, 1]) < 1e-15


def test_tensor_output_normalized():
    rng = np.random.default_rng(80)
    for _ in range(100):
        r = rng.normal(size=8)
        phi = Spinor(complex(r[0], r[1]), complex(r[2], r[3]))
        psi = Spinor(complex(r[4], r[5]), complex(r[6], r[7]))
        s = tensor_state(phi, psi)
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)


def test_products_are_not_entangled():
    rng = np.random.default_rng(81)
    for _ in range(100):
        r = rng.normal(size=8)
        phi = Spinor(complex(r[0], r[1]), complex(r[2], r[3]))
        psi = Spinor(complex(r[4], r[5]), complex(r[6], r[7]))
        assert not is_entangled(tensor_state(phi, psi), tol=1e-10)


def test_singlet_is_entangled_with_half_determinant():
    # The constructor normalizes (1, -1) to the singlet; it rejects zero.
    singlet = SingletSectorState(1.0, -1.0)
    assert (singlet.a, singlet.b) == (pytest.approx(RT2), pytest.approx(-RT2))
    with pytest.raises(ValueError):
        SingletSectorState(0.0, 0.0)
    m = sector_pair_state(singlet)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert abs(det) == pytest.approx(0.5, abs=1e-12)
    assert is_entangled(m)


def test_classical_sector_point_not_entangled():
    assert not is_entangled(sector_pair_state(SingletSectorState(1.0, 0.0)))


def test_classical_state_measures_deterministically():
    s = SingletSectorState(1.0, 0.0)
    for i in range(5):
        record = measure_first_z(s, TrialStream(13, i))
        assert (record.first, record.second) == (1, -1)


def test_anti_correlation_structural():
    first, second, _ = run_epr_batch(SingletSectorState(RT2, -RT2), seed=55, n_trials=4000)
    assert np.array_equal(first, -second)
    assert set(first.tolist()) == {1, -1}
    stats = epr_statistics(first, second, seed=55)
    assert stats["anti_correlation_violations"] == 0
    assert stats["counts_plus_minus"] + stats["counts_minus_plus"] == 4000


def test_singlet_splits_evenly():
    first, _, _ = run_epr_batch(SingletSectorState(RT2, -RT2), seed=321, n_trials=20_000)
    freq = float(np.mean(first == 1))
    assert abs(freq - 0.5) < 3.0 * math.sqrt(0.25 / 20_000)


def test_born_frequencies_match_sector_weights():
    for a_sq, seed in ((0.25, 1), (0.6, 2), (0.75, 3)):
        s = SingletSectorState(math.sqrt(a_sq), math.sqrt(1 - a_sq))
        first, _, _ = run_epr_batch(s, seed=seed, n_trials=10_000)
        freq = float(np.mean(first == 1))
        assert abs(freq - a_sq) < 3.0 * math.sqrt(a_sq * (1 - a_sq) / 10_000)


def test_batch_matches_single_measurements():
    s = SingletSectorState(0.8, 0.6)
    first, second, steps = run_epr_batch(s, seed=99, n_trials=20)
    for i in range(20):
        single = measure_first_z(s, TrialStream(99, i))
        assert (single.first, single.second, single.steps) == (first[i], second[i], steps[i])


def test_region_parameter_is_honored():
    tight = CaptureRegion(math.pi / 64, math.pi / 8, math.pi / 8)
    s = SingletSectorState(RT2, -RT2)
    _, _, a = run_epr_batch(s, seed=7, n_trials=50, region=tight)
    _, _, b = run_epr_batch(s, seed=7, n_trials=50, region=DEFAULT_REGION)
    assert not np.array_equal(a, b)
