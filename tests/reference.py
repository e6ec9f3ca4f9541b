"""An exact reference for the input and output stages that shares no engine code.

The input stage prepares a pair, tomographs it by the 16 product
projectors and scores the estimate. The output stage runs the prepared
pair through a setting's nondemolition circuit, estimates the observable
from the ancilla readout, and tomographs and scores the pair it leaves.
This module computes the same exact (infinite-shot) values from first
principles:

* each preparation gate as a ``np.kron`` unitary, followed by depolarizing
  as the Pauli twirl on the gate's support:
  rho -> (1 - p) rho + p / 4^s sum_P P rho P^dag over the 4^s Pauli strings;
* each tomography setting's noisy pre-rotation, the same way;
* each setting's measurement circuit on the pair and its ancillas, the
  same way, after the preparation;
* Born probabilities <b|rho|b> of the four computational outcomes, or
  Tr(P_b rho) of the ancillas' projectors, then an independent flip of
  every recorded bit;
* the ancilla estimators: |<Z>| of ancilla C (VA, PA, C1) or D (VB, PB),
  and |P(01) - P(00)| of the Bell readout (C2);
* linear inversion by least squares over an orthonormal basis of Hermitian
  matrices, then trace normalization;
* the Euclidean projection of the estimate's eigenvalues onto the simplex,
  by the active-set iteration (Michelot 1986);
* each observable's defining formula, the pure-target fidelity
  <chi|rho|chi>, and Uhlmann's fidelity ||A^dag B||_1^2 of the states
  A A^dag and B B^dag, read from their factors.

The pair's output tomography reads the pair's reduced state: the
pre-rotations and their noise act on the pair alone, and summing the
full-register outcomes over the ancilla bits removes their flips.

It reads only what defines the experiment: the gate tables of the
preparation (``experiments.prep_circuit``) and of the measurement
(``experiments.measurement_circuit``, with its ancillas), the tomography
grid's basis names and pre-rotation gates
(``tomography.tomography_settings()``), the ideal kets
(``experiments.bell_coefficients``) and the weight below which a branch
is empty (``experiments.EMPTY_BRANCH_PROB``).
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


@functools.lru_cache(maxsize=1024)
def gate_unitary(gate, n: int) -> np.ndarray:
    """The 2^n unitary of a gate on wires 0..n-1, wire 0 the most significant."""
    def on(ops: dict[int, np.ndarray]) -> np.ndarray:
        return kron(*[ops.get(q, I2) for q in range(n)])

    if gate.kind in ("cnot", "cry"):
        control, target = gate.targets
        flip = X if gate.kind == "cnot" else _local("ry", gate.angle)
        return on({control: np.diag([1, 0])}) + on({control: np.diag([0, 1]), target: flip})
    return on({gate.targets[0]: _local(gate.kind, gate.angle)})


@functools.lru_cache(maxsize=None)
def pauli_strings(n: int, support: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The 4^s Pauli strings on the support of an n-qubit register."""
    return tuple(kron(*[dict(zip(support, paulis)).get(q, I2) for q in range(n)])
                 for paulis in itertools.product((I2, X, Y, Z), repeat=len(support)))


def depolarize(rho: np.ndarray, n: int, support: tuple[int, ...], p: float) -> np.ndarray:
    """The Pauli twirl on the support, weighted p."""
    paulis = pauli_strings(n, support)
    twirl = sum(pauli @ rho @ pauli.conj().T for pauli in paulis)
    return (1 - p) * rho + p * twirl / len(paulis)


def run(gates, rho: np.ndarray, noise) -> np.ndarray:
    """Each gate, then depolarizing on its support."""
    n = rho.shape[0].bit_length() - 1
    for gate in gates:
        u = gate_unitary(gate, n)
        rho = u @ rho @ u.conj().T
        rho = depolarize(rho, n, gate.targets,
                         noise.depol_2q if len(gate.targets) == 2 else noise.depol_1q)
    return rho


PAIR_KETS = {(b0, b1): kron(np.eye(2)[b0], np.eye(2)[b1])
             for b0, b1 in itertools.product((0, 1), repeat=2)}


def recorded_00(rho: np.ndarray, flip: float) -> float:
    """The probability that both recorded bits read 0: the Born probability
    of each outcome b, times the chance that every bit of b flipped to 0."""
    total = 0.0
    for (b0, b1), ket in PAIR_KETS.items():
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


@functools.lru_cache(maxsize=1)
def design() -> np.ndarray:
    """Tr(M_i G_j) for each setting's product projector M_i, in
    ``tomography_settings()`` order, and each G_j of ``hermitian_basis(4)``."""
    projectors = []
    for s in tom.tomography_settings():
        ket = kron(KETS[s.basis_a], KETS[s.basis_b])
        projectors.append(np.outer(ket, ket.conj()))
    return np.array([[np.trace(m @ g).real for g in hermitian_basis(4)] for m in projectors])


def linear_inversion(freqs: np.ndarray) -> np.ndarray:
    """The trace-one Hermitian rho with Tr(M_i rho) = freqs[i] for each
    setting's product projector M_i, by least squares."""
    basis = hermitian_basis(4)
    coeffs = np.linalg.lstsq(design(), freqs, rcond=None)[0]
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
    """A factor B of the estimate with its eigenvalues projected onto the
    simplex, B B^dag: each eigenvector weighted by the root of its
    projected eigenvalue, exactly zero where the projection zeroes it."""
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    return vecs * np.sqrt(simplex_projection(vals))


def tomograph(pair: np.ndarray, noise) -> np.ndarray:
    """The exact-mode estimate of a pair state, as ``project``'s factor:
    every setting's noisy pre-rotation and flipped readout, the linear
    inversion and its projection."""
    freqs = np.array([recorded_00(run(s.pre_rotation().gates, pair, noise),
                                  noise.readout_flip) for s in tom.tomography_settings()])
    return project(linear_inversion(freqs))


def ground(n: int) -> np.ndarray:
    """|0...0><0...0| on n qubits."""
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1
    return rho


def input_estimate(p: ex.PrepParams, noise) -> np.ndarray:
    """The exact-mode input estimate of one point: the noisy preparation
    from |00>, then its tomography."""
    factor = tomograph(run(ex.prep_circuit(p).gates, ground(2), noise), noise)
    return factor @ factor.conj().T


def full_circuit(p: ex.PrepParams, setting: ex.MeasurementSetting):
    """The gates that run before the ancilla readout, and the register size:
    the pair's preparation, then the setting's measurement circuit."""
    circuit = ex.measurement_circuit(setting)
    return (*ex.prep_circuit(p).gates, *circuit.gates), circuit.num_qubits


def measured(p: ex.PrepParams, setting: ex.MeasurementSetting, noise) -> np.ndarray:
    """The full register before the ancilla readout, from |0...0>, noisy."""
    gates, n = full_circuit(p, setting)
    return run(gates, ground(n), noise)


def ancilla_distribution(rho: np.ndarray, ancillas: tuple[int, ...], flip: float) -> np.ndarray:
    """The recorded readout distribution of the ancillas, the first the most
    significant bit: each outcome b's Born probability Tr(P_b rho), P_b the
    projector on b of the ancillas, times the chance that the independent
    flips turn b into the recorded outcome."""
    n = rho.shape[0].bit_length() - 1
    outcomes = list(itertools.product((0, 1), repeat=len(ancillas)))
    born = [np.trace(kron(*[np.diag(np.eye(2)[b[ancillas.index(q)]]) if q in ancillas else I2
                             for q in range(n)]) @ rho).real for b in outcomes]
    return np.array([sum(w * math.prod(flip if r != t else 1 - flip for r, t in zip(rec, b))
                         for w, b in zip(born, outcomes)) for rec in outcomes])


def qnd_estimate(name: str, dist: np.ndarray) -> float:
    """The ancilla estimator: |<Z>| of ancilla C for VA, PA and C1, or of
    ancilla D for VB and PB; for C2, |P(01) - P(00)|, the weights of the
    psi_plus and phi_plus readouts of the Bell rotation."""
    if name == "C2":
        return abs(dist[1] - dist[0])
    bits = len(dist).bit_length() - 1
    ancilla = 1 if name in ("VB", "PB") else 0
    return abs(sum(w * (-1) ** (k >> (bits - 1 - ancilla) & 1) for k, w in enumerate(dist)))


def pair_state(rho: np.ndarray) -> np.ndarray:
    """The pair's reduced state: the full register traced over its ancillas."""
    d = rho.shape[0] // 4
    return np.einsum("iaja->ij", rho.reshape(4, d, 4, d))


def output_factor(p: ex.PrepParams, setting: ex.MeasurementSetting) -> np.ndarray:
    """A factor A of the ideal output, the pair after the readout with its
    outcome discarded: a column per nonempty branch b, the pair ket
    conditioned on the ancillas' outcome b, of norm the root of its weight.
    A A^dag, over its trace, is the pair's reduced state with the empty
    branches (weight below EMPTY_BRANCH_PROB) left out."""
    gates, n = full_circuit(p, setting)
    psi = functools.reduce(lambda ket, g: gate_unitary(g, n) @ ket, gates, np.eye(2**n)[0])
    d = 2 ** (n - 2)
    branches = psi.reshape(4, d).T  # (outcome, pair ket)
    weights = np.sum(np.abs(branches) ** 2, axis=1)
    full = weights >= ex.EMPTY_BRANCH_PROB
    return branches[full].T / math.sqrt(weights[full].sum())


def uhlmann_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """F(A A^dag, B B^dag) = ||A^dag B||_1^2: the trace norm of A^dag B is
    Tr sqrt(sqrt(sigma) rho sqrt(sigma)), whose singular values come out
    directly, with no square root of a rank-deficient state's eigenvalues."""
    return float(np.linalg.svd(a.conj().T @ b, compute_uv=False).sum() ** 2)


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
