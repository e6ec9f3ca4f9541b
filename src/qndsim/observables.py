"""Single-qubit coherence/predictability and two-qubit concurrence.

Index note: predictability is the population imbalance |rho_11 - rho_00| in
this package's 0-based computational basis. The absolute value makes the
ordering of the two diagonal entries irrelevant.
"""

from __future__ import annotations

import numpy as np

from .qmath import (
    StateVector,
    matrix_sqrt_psd,
    partial_trace,
    tensor,
)

PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SPIN_FLIP = tensor(PAULI_Y, PAULI_Y)


def _single_qubit(m) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-2:] != (2, 2):
        raise ValueError(f"expected a (..., 2, 2) stack, got shape {m.shape}")
    return m


def visibility(rho: np.ndarray) -> np.ndarray:
    """Off-diagonal coherence sum_{i != j} |rho_ij| = 2|rho_01| of a
    single-qubit state, or of each slice of a (..., 2, 2) stack."""
    off = _single_qubit(rho)[..., 0, 1]
    # hypot is what abs() of one complex number computes; np.abs on a
    # complex array rounds differently
    return 2.0 * np.hypot(off.real, off.imag)


def predictability(rho: np.ndarray) -> np.ndarray:
    """Population imbalance |rho_11 - rho_00| of a single-qubit state, or
    of each slice of a (..., 2, 2) stack."""
    m = _single_qubit(rho)
    return np.abs(m[..., 1, 1].real - m[..., 0, 0].real)


def _clip_unit(x: np.ndarray) -> np.ndarray:
    """min(max(x, 0), 1) elementwise, signed zeros and NaN as Python gives them."""
    return np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))


def _spin_flip_roots(rho: np.ndarray) -> np.ndarray:
    # rho Sigma rho* Sigma is not Hermitian, but it is similar to the PSD
    # matrix A A^dag with A = sqrt(rho) Sigma conj(sqrt(rho)), so its
    # eigenvalue square roots are the singular values of A. Computing them
    # as singular values (rather than eigvalsh followed by sqrt) avoids the
    # sqrt(eps) noise floor near zero eigenvalues.
    s = matrix_sqrt_psd(rho)
    a = s @ SPIN_FLIP @ s.conj()
    return np.linalg.svd(a, compute_uv=False)


def concurrence_wootters(rho: np.ndarray) -> np.ndarray:
    """Two-qubit concurrence max(0, sqrt(r1) - sqrt(r2) - sqrt(r3) - sqrt(r4))
    of each slice of a (K, 4, 4) stack of density matrices, as a (K,) array.

    The r_i are the descending eigenvalues of rho * Sigma * conj(rho) * Sigma
    with Sigma the two-qubit spin flip sigma_y x sigma_y. The stack is
    assumed valid, as in ``observable_set``.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 3 or rho.shape[1:] != (4, 4):
        raise ValueError("concurrence is defined on a two-qubit state")
    r = _spin_flip_roots(rho)
    return _clip_unit(r[:, 0] - r[:, 1] - r[:, 2] - r[:, 3])


def concurrence_pure(psi: StateVector) -> float:
    """Pure-state concurrence 2|a*d - b*c| for amplitudes (a, b, c, d)."""
    if psi.num_qubits != 2:
        raise ValueError("concurrence is defined on a two-qubit state")
    a, b, c, d = psi.amplitudes
    return float(min(2.0 * abs(a * d - b * c), 1.0))


def observable_set(rho: np.ndarray) -> dict[str, np.ndarray]:
    """All five complementarity observables of each slice of a (K, 4, 4)
    stack of two-qubit density matrices: {'VA', 'VB', 'PA', 'PB', 'C'},
    each a (K,) array.

    The stack is assumed valid (the PSD square root still checks
    Hermiticity and PSD); concurrence is clipped to [0, 1].
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 3 or rho.shape[1:] != (4, 4):
        raise ValueError(f"expected a (K, 4, 4) stack, got shape {rho.shape}")
    rho_a = partial_trace(rho, (0,))
    rho_b = partial_trace(rho, (1,))
    r = _spin_flip_roots(rho)
    return {
        "VA": visibility(rho_a),
        "VB": visibility(rho_b),
        "PA": predictability(rho_a),
        "PB": predictability(rho_b),
        "C": _clip_unit(r[:, 0] - r[:, 1] - r[:, 2] - r[:, 3]),
    }
