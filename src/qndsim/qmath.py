"""Exact complex linear algebra for small multi-qubit systems.

Everything in this package works on registers of 1 to 4 qubits, i.e. complex
matrices of dimension 2, 4, 8 or 16. Qubit 0 is the *most significant*
position: the basis index of the ket |i0 i1 ... i(n-1)> is
sum_k i_k * 2**(n-1-k), and tensor products follow the same ordering
(``tensor(a, b)`` puts ``a`` on the more significant qubits).

Numerical tolerances follow a single ladder used across the package:

* ``ATOL_CONSTRUCT`` (1e-10) - construction invariants (norms, traces).
* ``ATOL_ALGEBRA`` (1e-8) - algebraic identities between computed objects.
* ``ATOL_PHYSICAL`` (1e-6) - physicality clipping (negative eigenvalue tails).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ATOL_CONSTRUCT = 1e-10
ATOL_ALGEBRA = 1e-8
ATOL_PHYSICAL = 1e-6


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, most significant first.

    Satisfies ``tensor(a, b)[i*db + k, j*db + l] == a[i, j] * b[k, l]``
    with ``db = b.shape[0]``, which is the ordering every other routine in
    this package assumes.
    """
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def is_hermitian(m: np.ndarray, atol: float = ATOL_ALGEBRA) -> bool:
    """Whether a square matrix, or every slice of a (..., d, d) stack, equals
    its conjugate transpose by np.allclose's rule with tolerance ``atol``."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False
    m_dag = np.swapaxes(m.conj(), -1, -2)
    # np.allclose(m, m_dag, atol=atol) spelled out: on a 4x4 matrix its
    # argument handling costs more than the comparison. On finite input its
    # rule is the tolerance test alone; infinities need the full rule
    if np.isfinite(m).all():
        return bool((np.abs(m - m_dag) <= atol + 1e-5 * np.abs(m_dag)).all())
    with np.errstate(invalid="ignore"):
        within = np.abs(m - m_dag) <= atol + 1e-5 * np.abs(m_dag)
        close = within & np.isfinite(m_dag) | (m == m_dag)
    return bool(close.all())


@dataclass(frozen=True, slots=True)
class StateVector:
    """Normalized pure state of ``num_qubits`` qubits.

    ``amplitudes[i]`` is the coefficient of the computational basis ket
    whose bits are the binary digits of ``i``, qubit 0 first (most
    significant).
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.num_qubits <= 4:
            raise ValueError(f"num_qubits must be 1..4, got {self.num_qubits}")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        StateVector.validate(amps)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @staticmethod
    def validate(amps: np.ndarray) -> None:
        """Raise ValueError unless every row of a (..., d) stack is normalized."""
        norms = np.sum(np.abs(amps) ** 2, axis=-1)
        bad = np.abs(norms - 1.0) > ATOL_CONSTRUCT
        if bad.any():
            norm = float(np.reshape(norms, -1)[np.reshape(bad, -1)][0])
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm!r}")

    def density(self) -> "DensityMatrix":
        """Outer product |psi><psi| as a DensityMatrix."""
        a = self.amplitudes
        return DensityMatrix(self.num_qubits, np.outer(a, a.conj()))


@dataclass(frozen=True, slots=True)
class DensityMatrix:
    """Hermitian, trace-one, positive semidefinite operator on n qubits.

    Raw (possibly non-PSD) tomography estimates are deliberately *not*
    represented by this type; they stay plain arrays until projected.
    """

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.num_qubits <= 4:
            raise ValueError(f"num_qubits must be 1..4, got {self.num_qubits}")
        m = np.array(self.matrix, dtype=complex)
        d = 2**self.num_qubits
        if m.shape != (d, d):
            raise ValueError(f"expected {d}x{d} matrix, got shape {m.shape}")
        DensityMatrix.validate(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def validate(m: np.ndarray) -> None:
        """Raise ValueError unless every (d, d) slice of a (..., d, d) stack is
        Hermitian and trace-one within ATOL_CONSTRUCT, with no eigenvalue
        below -ATOL_ALGEBRA."""
        if not is_hermitian(m, ATOL_CONSTRUCT):
            raise ValueError("matrix is not Hermitian")
        tr = np.trace(m, axis1=-2, axis2=-1)
        bad = np.abs(tr - 1.0) > ATOL_CONSTRUCT
        if bad.any():
            tr = complex(np.reshape(tr, -1)[np.reshape(bad, -1)][0])
            raise ValueError(f"trace must be 1, got {tr!r}")
        lam_min = float(np.linalg.eigvalsh(m)[..., 0].min())
        if lam_min < -ATOL_ALGEBRA:
            raise ValueError(f"matrix is not PSD (min eigenvalue {lam_min:.3e})")


def basis_state(num_qubits: int, index: int = 0) -> StateVector:
    """Computational basis ket |index> on ``num_qubits`` qubits."""
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def partial_trace(m: np.ndarray, keep) -> np.ndarray:
    """Partial trace of a matrix, or of each slice of a (..., d, d) stack
    with d = 2^n, onto the kept qubits (taken in ascending order).

    Raises ValueError unless the slices are square with a power-of-two
    dimension and ``keep`` is a nonempty proper subset of the n qubits.
    """
    m = np.asarray(m, dtype=complex)
    d = m.shape[-1] if m.ndim >= 2 else 0
    num_qubits = d.bit_length() - 1
    if m.ndim < 2 or m.shape[-2] != d or num_qubits < 1 or d != 2**num_qubits:
        raise ValueError(f"expected a (..., 2^n, 2^n) stack, got shape {m.shape}")
    keep = tuple(sorted(set(keep)))
    if not keep or len(keep) >= num_qubits:
        raise ValueError("keep must be a nonempty proper subset of the qubits")
    if any(q < 0 or q >= num_qubits for q in keep):
        raise ValueError(f"qubit index out of range in {keep}")
    traced = [q for q in range(num_qubits) if q not in keep]
    batch = m.shape[:-2]
    t = m.reshape(batch + (2,) * (2 * num_qubits))
    # Trace highest axes first so earlier axis numbers stay valid.
    b, n = len(batch), num_qubits
    for q in sorted(traced, reverse=True):
        t = np.trace(t, axis1=b + q, axis2=b + q + n)
        n -= 1
    d = 2 ** len(keep)
    return t.reshape(batch + (d, d))


def matrix_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Positive-semidefinite square root via eigendecomposition, of a matrix
    or of each slice of a (..., d, d) stack.

    Eigenvalues in [-1e-6, 0) are treated as numerical noise and clipped;
    anything more negative is rejected as genuinely non-PSD.
    """
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m, atol=ATOL_ALGEBRA):
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh((m + np.swapaxes(m.conj(), -1, -2)) / 2)
    lam_min = float(vals[..., 0].min())
    if lam_min < -ATOL_PHYSICAL:
        raise ValueError(f"matrix is not PSD (min eigenvalue {lam_min:.3e})")
    # Eigenvalues below the double-precision noise floor are snapped to exact
    # zero: sqrt() would otherwise turn O(eps) noise into O(sqrt(eps)) entries.
    floor = 1e-13 * np.maximum(1.0, vals[..., -1:])
    root = np.sqrt(np.where(vals < floor, 0.0, vals))
    return (vecs * root[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def fidelity(rho_th: np.ndarray, rho_exp: np.ndarray) -> np.ndarray:
    """State fidelity F = [Tr sqrt(sqrt(rho_th) rho_exp sqrt(rho_th))]^2 of
    each pair of slices of two (..., d, d) stacks of density matrices.

    Symmetric in its arguments up to numerical noise; equals
    <psi|rho_exp|psi> when rho_th is the pure state |psi><psi|. Raises
    ValueError unless the two stacks have one shape.
    """
    rho_th, rho_exp = np.asarray(rho_th), np.asarray(rho_exp)
    if rho_th.shape != rho_exp.shape:
        raise ValueError(f"shape mismatch: {rho_th.shape} and {rho_exp.shape}")
    # Tr sqrt(sqrt(a) b sqrt(a)) equals the trace norm of sqrt(a) sqrt(b):
    # the Gram matrix of that product is exactly the inner matrix above.
    # Singular values avoid the sqrt(eps) noise of eigvalsh-then-sqrt.
    b = matrix_sqrt_psd(rho_th) @ matrix_sqrt_psd(rho_exp)
    # float_power is the scalar pow() a single fidelity used; ** 2 on an
    # array squares by multiplication, which rounds differently
    return np.float_power(np.sum(np.linalg.svd(b, compute_uv=False), axis=-1), 2.0)
