"""Structural checks on the matrix family; all equalities are exact."""

import numpy as np
import pytest

from diracinv import clifford
from diracinv.clifford import IDENTITY, anticommutator, delta, gamma
from diracinv.fields import bilinear

# Hand-derived constants, multiplied out independently before the build.
GAMMA5_HAND = np.array([[0, 0, -1, 0],
                        [0, 0, 0, -1],
                        [-1, 0, 0, 0],
                        [0, -1, 0, 0]], dtype=complex)
DELTA4_HAND = np.array([[1, 0, 1, 0],
                        [0, 1, 0, 1],
                        [-1, 0, -1, 0],
                        [0, -1, 0, -1]], dtype=complex)
G5G4_HAND = np.array([[0, 0, 1, 0],
                      [0, 0, 0, 1],
                      [-1, 0, 0, 0],
                      [0, -1, 0, 0]], dtype=complex)


def test_gamma4_is_signature_diagonal():
    assert np.array_equal(gamma(4), np.diag([1, 1, -1, -1]).astype(complex))


def test_gamma5_matches_hand_product():
    assert np.array_equal(gamma(5), GAMMA5_HAND)


def test_gamma1_squares_to_identity():
    assert np.array_equal(gamma(1) @ gamma(1), IDENTITY)


def test_gamma_index_validation():
    for bad in (0, 6, -1, 7):
        with pytest.raises(ValueError):
            gamma(bad)
    with pytest.raises(ValueError):
        delta(5)


def test_delta4_matches_hand_value():
    assert np.array_equal(delta(4), DELTA4_HAND)


def test_delta4_matrix_vector_product():
    assert np.array_equal(delta(4) @ np.array([1, 0, 0, 1], dtype=complex),
                          np.array([1, 1, -1, -1], dtype=complex))


def test_delta_definition_all_indices():
    for mu in range(1, 5):
        assert np.array_equal(delta(mu) - gamma(mu) - gamma(5) @ gamma(mu),
                              np.zeros((4, 4)))


def test_gamma5gamma4_and_gamma1gamma2_hand_values():
    assert np.array_equal(gamma(5) @ gamma(4), G5G4_HAND)
    assert np.array_equal(gamma(1) @ gamma(2), np.diag([1j, -1j, 1j, -1j]))


def test_anticommutator_examples():
    assert np.array_equal(anticommutator(gamma(1), gamma(2)), np.zeros((4, 4)))
    assert np.array_equal(anticommutator(gamma(3), gamma(3)), 2.0 * IDENTITY)
    assert np.array_equal(anticommutator(np.zeros((4, 4)), gamma(2)), np.zeros((4, 4)))


def test_full_anticommutation_table_exact():
    for mu in range(1, 5):
        for nu in range(1, 5):
            expected = 2.0 * IDENTITY if mu == nu else np.zeros((4, 4))
            assert np.array_equal(anticommutator(gamma(mu), gamma(nu)), expected)


def test_hermiticity_and_antihermiticity():
    for mu in range(1, 6):
        assert np.array_equal(gamma(mu).conj().T, gamma(mu))
    for lam in range(1, 6):
        for mu in range(1, 6):
            if lam != mu:
                product = gamma(lam) @ gamma(mu)
                assert np.array_equal(product.conj().T, -product)


def test_structure_selftest_counts_and_verdicts():
    checks = clifford.structure_selftest()
    assert len(checks) == 10 + 10 + 25 + 1
    assert all(c.passed for c in checks)


def test_matrices_are_frozen():
    with pytest.raises(ValueError):
        gamma(1)[0, 0] = 5.0


def test_delta4_bilinear_additivity(rng):
    # psi* d4 psi = psi* g4 psi + psi* g5g4 psi, to machine epsilon.
    for _ in range(100):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        total = bilinear(v.conj(), delta(4), v)
        parts = bilinear(v.conj(), gamma(4), v) + bilinear(v.conj(), gamma(5) @ gamma(4), v)
        scale = float(np.vdot(v, v).real)
        assert abs(total - parts) <= 1e-15 * scale
