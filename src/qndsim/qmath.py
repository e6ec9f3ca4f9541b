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

The value types and the public API (``qndsim.__all__``) read every number
they take by ``_real`` or ``_integer``, and every qubit index by
``_qubits``: each returns the built-in float, int or tuple of ints the
caller stores, or raises ValueError naming the argument; the code behind
them takes the stored value.
The partial trace, the PSD square root and the fidelity work on plain
(..., d, d) stacks, so one item is a stack of one at the call site.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

ATOL_CONSTRUCT = 1e-10
ATOL_ALGEBRA = 1e-8
ATOL_PHYSICAL = 1e-6


def _real(name: str, value, low: float = -math.inf, high: float = math.inf) -> float:
    """``value`` as a built-in float, once checked to be a real number, not
    a bool, finite (an integer beyond the float range is not) and in
    [low, high]; ValueError naming ``name`` otherwise."""
    # the built-in type first: it answers without the far slower ABC check
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return _in_range(name, number, low, high)


def _integer(name: str, value, low: float = -math.inf, high: float = math.inf) -> int:
    """``value`` as a built-in int, once checked to be an integer, not a
    bool, in [low, high] (compared exactly, however large); ValueError
    naming ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return _in_range(name, int(value), low, high)


def _qubits(name: str, indices, count: int) -> tuple[int, ...]:
    """``indices`` as a tuple of built-in ints, each read by ``_integer`` as a
    qubit index in 0..count - 1, none repeated; ValueError naming ``name`` otherwise."""
    qubits = tuple([_integer(name, q, 0, count - 1) for q in indices])  # a list is faster
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"{name} must be {len(qubits)} distinct qubits, got {qubits}")
    return qubits


def _in_range(name: str, number, low, high):
    if number < low:
        raise ValueError(f"{name} must be >= {_bound(low)}, got {number!r}")
    if number > high:
        raise ValueError(f"{name} must be at most {_bound(high)}, got {number!r}")
    return number


def _bound(bound) -> str:
    """A bound as a message writes it: a large 2**k or 2**k - 1 as such."""
    if isinstance(bound, int) and bound > 2**16:
        k = (bound + 1).bit_length() - 1
        return {2**k: f"2**{k}", 2**k - 1: f"2**{k} - 1"}.get(bound, str(bound))
    return str(bound)


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
    """Whether a square matrix, or every slice of a (..., d, d) stack, is
    finite and equals its conjugate transpose by np.allclose's rule with
    tolerance ``atol``."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or not np.isfinite(m).all():
        return False
    m_dag = np.swapaxes(m.conj(), -1, -2)
    # np.allclose(m, m_dag, atol=atol) spelled out: on a 4x4 matrix its
    # argument handling costs more than the comparison
    return bool((np.abs(m - m_dag) <= atol + 1e-5 * np.abs(m_dag)).all())


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
        object.__setattr__(self, "num_qubits", _integer("num_qubits", self.num_qubits, 1, 4))
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm - 1.0) <= ATOL_CONSTRUCT:  # NaN fails too
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

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
        object.__setattr__(self, "num_qubits", _integer("num_qubits", self.num_qubits, 1, 4))
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
        finite, Hermitian and trace-one within ATOL_CONSTRUCT, with no
        eigenvalue below -ATOL_ALGEBRA."""
        if not is_hermitian(m, ATOL_CONSTRUCT):
            raise ValueError("matrix is not Hermitian, or not finite")
        tr = np.trace(m, axis1=-2, axis2=-1)
        bad = np.abs(tr - 1.0) > ATOL_CONSTRUCT
        if bad.any():
            tr = complex(np.reshape(tr, -1)[np.reshape(bad, -1)][0])
            raise ValueError(f"trace must be 1, got {tr!r}")
        lam_min = float(np.linalg.eigvalsh(m)[..., 0].min())
        if lam_min < -ATOL_ALGEBRA:
            raise ValueError(f"matrix is not PSD (min eigenvalue {lam_min:.3e})")


def basis_state(num_qubits: int, index: int = 0) -> StateVector:
    """Computational basis ket |index> on ``num_qubits`` qubits; raises
    ValueError for a register outside 1..4 qubits or an index that is not
    an integer in 0..2^n - 1, which would wrap or fail."""
    num_qubits = _integer("num_qubits", num_qubits, 1, 4)
    index = _integer("basis index", index, 0, 2**num_qubits - 1)
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def partial_trace(m: np.ndarray, keep) -> np.ndarray:
    """Partial trace of a matrix, or of each slice of a (..., d, d) stack
    with d = 2^n, onto the kept qubits (taken in ascending order).

    Raises ValueError unless the slices are square with a power-of-two
    dimension and ``_qubits`` reads ``keep`` as a nonempty proper subset.
    """
    m = np.asarray(m, dtype=complex)
    d = m.shape[-1] if m.ndim >= 2 else 0
    num_qubits = d.bit_length() - 1
    if m.ndim < 2 or m.shape[-2] != d or num_qubits < 1 or d != 2**num_qubits:
        raise ValueError(f"expected a (..., 2^n, 2^n) stack, got shape {m.shape}")
    keep = tuple(sorted(_qubits("keep", keep, num_qubits)))
    if not keep or len(keep) == num_qubits:
        raise ValueError("keep must be a nonempty proper subset of the qubits")
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
    anything more negative is rejected as genuinely non-PSD, as is a non-finite matrix.
    """
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m, atol=ATOL_ALGEBRA):
        raise ValueError("matrix must be finite and Hermitian within tolerance")
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
