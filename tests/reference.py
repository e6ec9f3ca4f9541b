"""An exact reference for the input stage that shares no engine code.

The input stage prepares a pair, tomographs it by the 16 product
projectors and scores the estimate. This module computes the same exact
(infinite-shot) values from first principles:

* each preparation gate as a ``np.kron`` unitary, followed by depolarizing
  as the Pauli twirl on the gate's support:
  rho -> (1 - p) rho + p / 4^s sum_P P rho P^dag over the 4^s Pauli strings;
* each tomography setting's noisy pre-rotation, the same way;
* Born probabilities <b|rho|b> of the four computational outcomes, then an
  independent flip of every recorded bit;
* linear inversion by least squares over an orthonormal basis of Hermitian
  matrices, then trace normalization;
* the Euclidean projection of the estimate's eigenvalues onto the simplex,
  by the active-set iteration (Michelot 1986);
* each observable's defining formula and the pure-target fidelity
  <chi|rho|chi>.

It reads only what defines the experiment: the preparation's gate table
(``experiments.prep_circuit``), the tomography grid's basis names and
pre-rotation gates (``tomography.tomography_settings()``) and the ideal
kets (``experiments.bell_coefficients``).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from qndsim import experiments as ex
from qndsim import tomography as tom

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)
KET0, KET1 = np.eye(2, dtype=complex)
KETS = {"H": KET0, "V": KET1, "D": (KET0 + KET1) / math.sqrt(2),
        "R": (KET0 + 1j * KET1) / math.sqrt(2), "L": (KET0 - 1j * KET1) / math.sqrt(2)}
NOISE_FLOOR = 1e-13
"""Eigenvalues below this (relative to max(1, the largest)) are zero in a
square root: double-precision noise, whose root would be O(sqrt(eps))."""


def kron(*factors: np.ndarray) -> np.ndarray:
    return functools.reduce(np.kron, factors)


def _local(kind: str, angle: float | None) -> np.ndarray:
    """The half-angle single-qubit matrix exp(-i angle sigma / 2), or X or H."""
    if kind in ("rx", "ry"):
        sigma = X if kind == "rx" else Y
        return math.cos(angle / 2) * I2 - 1j * math.sin(angle / 2) * sigma
    return {"x": X, "h": np.array([[1, 1], [1, -1]]) / math.sqrt(2)}[kind]


def gate_unitary(gate, n: int) -> np.ndarray:
    """The 2^n unitary of a gate on wires 0..n-1, wire 0 the most significant."""
    def on(ops: dict[int, np.ndarray]) -> np.ndarray:
        return kron(*[ops.get(q, I2) for q in range(n)])

    if gate.kind in ("cnot", "cry"):
        control, target = gate.targets
        flip = X if gate.kind == "cnot" else _local("ry", gate.angle)
        return on({control: np.diag([1, 0])}) + on({control: np.diag([0, 1]), target: flip})
    return on({gate.targets[0]: _local(gate.kind, gate.angle)})


def depolarize(rho: np.ndarray, n: int, support: tuple[int, ...], p: float) -> np.ndarray:
    """The Pauli twirl on the support, weighted p."""
    twirl = np.zeros_like(rho)
    for paulis in itertools.product((I2, X, Y, Z), repeat=len(support)):
        pauli = kron(*[dict(zip(support, paulis)).get(q, I2) for q in range(n)])
        twirl += pauli @ rho @ pauli.conj().T
    return (1 - p) * rho + p * twirl / 4 ** len(support)


def run(gates, rho: np.ndarray, noise) -> np.ndarray:
    """Each gate, then depolarizing on its support."""
    n = rho.shape[0].bit_length() - 1
    for gate in gates:
        u = gate_unitary(gate, n)
        rho = u @ rho @ u.conj().T
        rho = depolarize(rho, n, gate.targets,
                         noise.depol_2q if len(gate.targets) == 2 else noise.depol_1q)
    return rho


def recorded_00(rho: np.ndarray, flip: float) -> float:
    """The probability that both recorded bits read 0: the Born probability
    of each outcome b, times the chance that every bit of b flipped to 0."""
    total = 0.0
    for b0, b1 in itertools.product((0, 1), repeat=2):
        ket = kron(np.eye(2)[b0], np.eye(2)[b1])
        born = (ket.conj() @ rho @ ket).real
        total += born * (flip if b0 else 1 - flip) * (flip if b1 else 1 - flip)
    return total


def hermitian_basis(d: int) -> list[np.ndarray]:
    """An orthonormal basis of the d x d Hermitian matrices."""
    basis = []
    for j, k in itertools.product(range(d), repeat=2):
        e = np.zeros((d, d), dtype=complex)
        if j == k:
            e[j, j] = 1
        elif j < k:
            e[j, k] = e[k, j] = 1 / math.sqrt(2)
        else:
            e[k, j], e[j, k] = 1j / math.sqrt(2), -1j / math.sqrt(2)
        basis.append(e)
    return basis


def linear_inversion(settings, freqs: np.ndarray) -> np.ndarray:
    """The trace-one Hermitian rho with Tr(M_i rho) = freqs[i] for each
    setting's product projector M_i, by least squares."""
    projectors = []
    for s in settings:
        ket = kron(KETS[s.basis_a], KETS[s.basis_b])
        projectors.append(np.outer(ket, ket.conj()))
    basis = hermitian_basis(4)
    design = np.array([[np.trace(m @ g).real for g in basis] for m in projectors])
    coeffs = np.linalg.lstsq(design, freqs, rcond=None)[0]
    rho = sum(c * g for c, g in zip(coeffs, basis))
    return rho / np.trace(rho).real


def simplex_projection(v: np.ndarray) -> np.ndarray:
    """The nearest point of the probability simplex: drop the entries that
    fall below the common shift until every remaining one stays positive."""
    active = np.ones(len(v), dtype=bool)
    while True:
        tau = (v[active].sum() - 1) / active.sum()
        keep = active & (v - tau > 0)
        if (keep == active).all():
            return np.where(active, v - tau, 0.0)
        active = keep


def project(rho: np.ndarray) -> np.ndarray:
    """The estimate with its eigenvalues projected onto the simplex."""
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    return vecs @ np.diag(simplex_projection(vals)) @ vecs.conj().T


def input_estimate(p: ex.PrepParams, noise) -> np.ndarray:
    """The exact-mode input estimate of one point: the noisy preparation
    from |00>, every setting's noisy pre-rotation and flipped readout, the
    linear inversion and its projection."""
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1
    prepared = run(ex.prep_circuit(p).gates, rho0, noise)
    settings = tom.tomography_settings()
    freqs = np.array([recorded_00(run(s.pre_rotation().gates, prepared, noise),
                                  noise.readout_flip) for s in settings])
    return project(linear_inversion(settings, freqs))


def _reduced(rho: np.ndarray, qubit: int) -> np.ndarray:
    """The one-qubit state of qubit 0 or 1: rho_A[i, j] = sum_k rho[ik, jk]."""
    r = rho.reshape(2, 2, 2, 2)
    return np.einsum("ikjk->ij", r) if qubit == 0 else np.einsum("kikj->ij", r)


def _sqrt_psd(rho: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho)
    vals = np.where(vals < NOISE_FLOOR * max(1.0, vals[-1]), 0.0, vals)
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.conj().T


def concurrence(rho: np.ndarray) -> float:
    """Wootters: max(0, l1 - l2 - l3 - l4), l_i the descending square roots
    of the eigenvalues of rho rho~, rho~ = (Y x Y) rho* (Y x Y). They are
    the singular values of sqrt(rho) sqrt(rho~), computed as such."""
    flip = kron(Y, Y)
    root = _sqrt_psd(rho)
    lam = np.linalg.svd(root @ flip @ root.conj() @ flip, compute_uv=False)
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def observable(name: str, rho: np.ndarray) -> float:
    """The defining formula of VA, VB (the off-diagonal sum sum_{i != j}
    |rho_ij| of one qubit), PA, PB (|rho_11 - rho_00|), C1 and C2 (the
    concurrence)."""
    if name in ("C1", "C2"):
        return concurrence(rho)
    r = _reduced(rho, 0 if name in ("VA", "PA") else 1)
    if name in ("VA", "VB"):
        return abs(r[0, 1]) + abs(r[1, 0])
    return abs(r[1, 1].real - r[0, 0].real)


def pure_fidelity(p: ex.PrepParams, rho: np.ndarray) -> float:
    """<chi|rho|chi> for the ideal input chi."""
    chi = ex.bell_coefficients(p).state_vector().amplitudes
    return (chi.conj() @ rho @ chi).real
