"""Single-qubit coherence/predictability and two-qubit concurrence.

Index note: predictability is the population imbalance |rho_11 - rho_00| in
this package's 0-based computational basis. The absolute value makes the
ordering of the two diagonal entries irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import (
    DensityMatrix,
    StateVector,
    matrix_sqrt_psd,
    partial_trace_matrix,
    tensor,
)

PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SPIN_FLIP = tensor(PAULI_Y, PAULI_Y)


@dataclass(frozen=True)
class ObservableValue:
    """A complementarity observable plus its pre-absolute-value diagnostic."""

    kind: str  # 'VA' | 'VB' | 'PA' | 'PB' | 'C'
    value: float
    signed_raw: float


def _visibility(m: np.ndarray) -> np.ndarray:
    # hypot is what abs() of one complex number computes; np.abs on a
    # complex array rounds differently
    off = m[..., 0, 1]
    return 2.0 * np.hypot(off.real, off.imag)


def _signed_predictability(m: np.ndarray) -> np.ndarray:
    return m[..., 1, 1].real - m[..., 0, 0].real


def visibility(rho_k: DensityMatrix) -> float:
    """Off-diagonal coherence of a single qubit: sum_{i != j} |rho_ij| = 2|rho_01|."""
    if rho_k.num_qubits != 1:
        raise ValueError("visibility is defined on a single-qubit state")
    return float(_visibility(rho_k.matrix))


def predictability(rho_k: DensityMatrix) -> float:
    """Population imbalance of a single qubit: |rho_11 - rho_00|."""
    if rho_k.num_qubits != 1:
        raise ValueError("predictability is defined on a single-qubit state")
    return float(abs(_signed_predictability(rho_k.matrix)))


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


def concurrence_wootters(rho: DensityMatrix) -> float:
    """Two-qubit concurrence max(0, sqrt(r1) - sqrt(r2) - sqrt(r3) - sqrt(r4)).

    The r_i are the descending eigenvalues of rho * Sigma * conj(rho) * Sigma
    with Sigma the two-qubit spin flip sigma_y x sigma_y.
    """
    if rho.num_qubits != 2:
        raise ValueError("concurrence is defined on a two-qubit state")
    r = _spin_flip_roots(rho.matrix)
    return float(_clip_unit(r[0] - r[1] - r[2] - r[3]))


def concurrence_pure(psi: StateVector) -> float:
    """Pure-state concurrence 2|a*d - b*c| for amplitudes (a, b, c, d)."""
    if psi.num_qubits != 2:
        raise ValueError("concurrence is defined on a two-qubit state")
    a, b, c, d = psi.amplitudes
    return float(min(2.0 * abs(a * d - b * c), 1.0))


def observable_stack(rho: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """All five complementarity observables of each slice of a (K, 4, 4)
    stack of two-qubit density matrices, as (values, signed values) arrays.

    Keys and values mean what they do in ``observable_set``; the stack is
    assumed valid (the PSD square root still checks Hermiticity and PSD).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 3 or rho.shape[1:] != (4, 4):
        raise ValueError(f"expected a (K, 4, 4) stack, got shape {rho.shape}")
    rho_a = partial_trace_matrix(rho, 2, (0,))
    rho_b = partial_trace_matrix(rho, 2, (1,))
    pred_a = _signed_predictability(rho_a)
    pred_b = _signed_predictability(rho_b)
    r = _spin_flip_roots(rho)
    c_signed = r[:, 0] - r[:, 1] - r[:, 2] - r[:, 3]
    return {
        "VA": (_visibility(rho_a), 2.0 * rho_a[:, 0, 1].real),
        "VB": (_visibility(rho_b), 2.0 * rho_b[:, 0, 1].real),
        "PA": (np.abs(pred_a), pred_a),
        "PB": (np.abs(pred_b), pred_b),
        "C": (_clip_unit(c_signed), c_signed),
    }


def observable_set(rho: DensityMatrix) -> dict[str, ObservableValue]:
    """All five complementarity observables of a two-qubit state."""
    if rho.num_qubits != 2:
        raise ValueError("expected a two-qubit state")
    return {
        kind: ObservableValue(kind, float(values[0]), float(signed[0]))
        for kind, (values, signed) in observable_stack(rho.matrix[None]).items()
    }
