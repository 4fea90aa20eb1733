"""Gamma-matrix algebra in the standard representation.

The four base matrices satisfy the Euclidean anticommutation rule
{g_mu, g_nu} = 2 delta_{mu nu} I and are all Hermitian; products g_l g_m
(l != m) are anti-Hermitian.  Index 5 denotes the product g1 g2 g3 g4,
computed at import time rather than hard-coded so that a transcription
error in any base matrix is caught by the structural self-test.

All entries are 0, +-1 or +-i, exactly representable in binary floating
point, so structural identities are checked with exact equality.
"""

from __future__ import annotations

import numpy as np

CMatrix4 = np.ndarray  # 4x4 complex128, read-only


def _frozen(rows) -> CMatrix4:
    m = np.array(rows, dtype=complex)
    m.flags.writeable = False
    return m


_G1 = _frozen([[0, 0, 0, -1j],
               [0, 0, -1j, 0],
               [0, 1j, 0, 0],
               [1j, 0, 0, 0]])
_G2 = _frozen([[0, 0, 0, -1],
               [0, 0, 1, 0],
               [0, 1, 0, 0],
               [-1, 0, 0, 0]])
_G3 = _frozen([[0, 0, -1j, 0],
               [0, 0, 0, 1j],
               [1j, 0, 0, 0],
               [0, -1j, 0, 0]])
_G4 = _frozen([[1, 0, 0, 0],
               [0, 1, 0, 0],
               [0, 0, -1, 0],
               [0, 0, 0, -1]])
_G5 = _frozen(_G1 @ _G2 @ _G3 @ _G4)

_GAMMA = {1: _G1, 2: _G2, 3: _G3, 4: _G4, 5: _G5}
_DELTA = {mu: _frozen(_GAMMA[mu] + _G5 @ _GAMMA[mu]) for mu in (1, 2, 3, 4)}

IDENTITY = _frozen(np.eye(4))


def gamma(idx: int) -> CMatrix4:
    """Return gamma_idx for idx in 1..5 (5 is the product g1 g2 g3 g4)."""
    if idx not in _GAMMA:
        raise ValueError(f"gamma index must be in 1..5, got {idx!r}")
    return _GAMMA[idx]


def signed_permutation(idx: int) -> tuple[np.ndarray, np.ndarray]:
    """(perm, signs) of gamma_idx for idx in 1..5: (g x)[r] = signs[r] * x[perm[r]].

    Every gamma has one nonzero entry per row, +-1 or +-i, so applying it is
    a gather with signs.  A test rebuilds each matrix from these.
    """
    m = gamma(idx)
    perm = np.abs(m).argmax(axis=1)
    return perm, m[np.arange(4), perm]


def delta(idx: int) -> CMatrix4:
    """Return gamma_idx + gamma_5 gamma_idx for idx in 1..4."""
    if idx not in _DELTA:
        raise ValueError(f"delta index must be in 1..4, got {idx!r}")
    return _DELTA[idx]


def anticommutator(a: CMatrix4, b: CMatrix4) -> CMatrix4:
    return a @ b + b @ a


def _is_hermitian(m: CMatrix4) -> bool:
    return np.array_equal(m.conj().T, m)


def _is_antihermitian(m: CMatrix4) -> bool:
    return np.array_equal(m.conj().T, -m)


def structure_selftest() -> list[tuple[str, bool]]:
    """Exact structural checks on the matrix family, as (name, passed) pairs.

    Ten Hermiticity/definition checks (g1..g5 Hermitian, the four delta
    definitions, g5 against its independently derived constant), ten
    anti-Hermiticity checks (unordered pairs l < m), the full 25-entry
    anticommutation table over indices 1..5, and g5^2 = I.
    """
    checks: list[tuple[str, bool]] = []
    for mu in range(1, 6):
        checks.append((f"hermitian gamma{mu}", _is_hermitian(gamma(mu))))
    for mu in range(1, 5):
        ok = np.array_equal(delta(mu), gamma(mu) + gamma(5) @ gamma(mu))
        checks.append((f"delta{mu} definition", ok))
    # Hand-derived value of g1 g2 g3 g4; guards the hard-coded base matrices.
    g5_expected = np.array([[0, 0, -1, 0],
                            [0, 0, 0, -1],
                            [-1, 0, 0, 0],
                            [0, -1, 0, 0]], dtype=complex)
    checks.append(("gamma5 matches derived constant", np.array_equal(gamma(5), g5_expected)))

    for lam in range(1, 6):
        for mu in range(lam + 1, 6):
            ok = _is_antihermitian(gamma(lam) @ gamma(mu))
            checks.append((f"antihermitian gamma{lam}*gamma{mu}", ok))

    for mu in range(1, 6):
        for nu in range(1, 6):
            expected = 2.0 * IDENTITY if mu == nu else np.zeros((4, 4))
            ok = np.array_equal(anticommutator(gamma(mu), gamma(nu)), expected)
            checks.append((f"anticommutator gamma{mu},gamma{nu}", ok))

    checks.append(("gamma5 squared is identity", np.array_equal(gamma(5) @ gamma(5), IDENTITY)))
    return checks
