"""Sweep metrics and fits: RMS error, curve scaling, mixed-component fits,
and the three-criteria summary tables (measurement accuracy, nondemolition,
state preparation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .experiments import RELIABLE_BRANCH_PROB, BellCoefficients
from .observables import concurrence_pure, concurrence_wootters
from .qmath import DensityMatrix


@dataclass(frozen=True)
class BranchResult:
    """Post-selected analysis of one ancilla outcome at one sweep point."""

    outcome: str
    probability: float  # theoretical branch probability
    retained_shots: int | None = None
    tomo_value: float | None = None
    fidelity: float | None = None

    @property
    def reliable(self) -> bool:
        """Whether the probability reaches the floor, as a built-in bool."""
        return bool(self.probability >= RELIABLE_BRANCH_PROB)


@dataclass(frozen=True)
class SweepRecord:
    """Everything measured at one sweep point for one observable."""

    observable: str
    phi: float
    theta: float
    lam: float
    theory: float
    qnd_estimate: float
    tomo_in: float | None = None
    tomo_out: float | None = None
    fidelity_in: float | None = None
    fidelity_out: float | None = None
    branches: tuple[BranchResult, ...] = ()
    shots: int = 0
    seed: int = 0

    def reliable_branches(self) -> tuple[BranchResult, ...]:
        return tuple(b for b in self.branches if b.reliable and b.tomo_value is not None)


@dataclass(frozen=True)
class FitResult:
    kind: str  # 'scale' | 'mixed_fraction'
    parameter: float
    residual_rms: float


def rms_error(measured: Sequence[float], theory: Sequence[float]) -> float:
    """Root mean squared deviation between measured and expected values.
    Contract: the two are nonempty and of one length."""
    m = np.asarray(measured, dtype=float)
    t = np.asarray(theory, dtype=float)
    return float(np.sqrt(np.mean((t - m) ** 2)))


def fit_scale(measured: Sequence[float], theory: Sequence[float]) -> FitResult:
    """Least-squares scale factor s minimizing ||measured - s * theory||."""
    m = np.asarray(measured, dtype=float)
    t = np.asarray(theory, dtype=float)
    if m.shape != t.shape or m.size == 0:
        raise ValueError("measured and theory must be equal-length, nonempty")
    denom = float(np.dot(t, t))
    if denom == 0.0:
        raise ValueError("theory vector is identically zero")
    s = float(np.dot(m, t)) / denom
    return FitResult("scale", s, rms_error(m, s * t))


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array of finite floats, bit for bit: the
    same sort, then each value that differs from its left neighbour. On
    numpy 2, ``np.unique`` imports ``numpy.ma`` the first time it runs."""
    ordered = np.sort(values)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def fit_mixed_fraction(
    measured_concurrence: Sequence[float], coeffs_per_point: Sequence[BellCoefficients]
) -> FitResult:
    """Fit the fully-mixed fraction p in (1-p)|chi><chi| + p I/4 per point.

    Concurrence is nonlinear in the state, so the mixing happens in the ideal
    input state rather than in the concurrence curve. The concurrence of the
    mixture is exactly max(0, (1-p) C(chi) - p/2) (Wootters, PRL 80, 2245,
    1998), so the squared loss is piecewise quadratic in p, with a breakpoint
    2C/(1+2C) where each point reaches its separability boundary. Each piece
    is minimized in closed form; the smallest minimizer wins, so a flat loss
    (every model point clipped to zero) resolves to the separability
    boundary. The residual is recomputed from the defining formula.
    Contract: one coefficient set per measured point, at least one.
    """
    m = np.asarray(measured_concurrence, dtype=float)
    states = [c.state_vector() for c in coeffs_per_point]
    conc = np.array([concurrence_pure(psi) for psi in states])
    chi = np.array([psi.amplitudes for psi in states])
    slope = conc + 0.5
    breaks = conc / slope
    edges = _sorted_distinct(np.concatenate(([0.0, 1.0], breaks)))
    candidates = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        # on (lo, hi) the model is conc - p * slope where still entangled, else 0
        live = breaks > lo
        k = slope[live]
        curvature = float(k @ k)
        p = float(k @ (conc[live] - m[live])) / curvature if curvature else lo
        candidates.append(min(max(p, lo), hi))
    ps = np.array(candidates)
    clipped = np.maximum(np.outer(1.0 - ps, conc) - ps[:, None] / 2, 0.0)
    losses = np.sum((clipped - m) ** 2, axis=1)
    p_hat = float(np.min(ps[losses <= losses.min() + 1e-12]))
    # the Werner mixtures of every point as one (K, 4, 4) stack
    mixed = (1.0 - p_hat) * (chi[:, :, None] * chi[:, None, :].conj()) + p_hat * np.eye(4) / 4.0
    DensityMatrix.validate(mixed)
    return FitResult("mixed_fraction", p_hat, rms_error(m, concurrence_wootters(mixed)))


def _mean_or_none(values: list[float]) -> float | None:
    return float(np.mean(values)) if values else None


def criteria_summary(records_by_observable: dict[str, list[SweepRecord]]) -> dict:
    """Error tables and fidelity means for a complete set of sweeps, as the
    report's JSON object.

    Requires at least one observable and, for every observable, records
    carrying the QND estimate and both tomographic estimates. The averages
    weight each observable equally; the metadata echoes that choice.
    """
    if not records_by_observable:
        raise ValueError("at least one observable is required")
    per: dict[str, dict] = {}
    for obs, records in records_by_observable.items():
        if not records:
            raise ValueError(f"no records for observable {obs}")
        if any(r.tomo_in is None or r.tomo_out is None for r in records):
            raise ValueError(f"incomplete sweep for observable {obs}")
        records = sorted(records, key=lambda r: (r.phi, r.seed))
        theory = [r.theory for r in records]
        e_qnd = rms_error([r.qnd_estimate for r in records], theory)
        e_out = rms_error([r.tomo_out for r in records], theory)
        reliable = [b for r in records for b in r.reliable_branches()]
        per[obs] = {
            "E_input_tomo": rms_error([r.tomo_in for r in records], theory),
            "E_qnd": e_qnd,
            "E_output_tomo": e_out,
            "E_gap": e_out - e_qnd,
            "mean_conditional_value": _mean_or_none([b.tomo_value for b in reliable]),
            "mean_fidelity_in": _mean_or_none(
                [r.fidelity_in for r in records if r.fidelity_in is not None]),
            "mean_fidelity_out": _mean_or_none(
                [r.fidelity_out for r in records if r.fidelity_out is not None]),
            "mean_fidelity_post": _mean_or_none(
                [b.fidelity for b in reliable if b.fidelity is not None]),
        }
    keys = sorted(per)
    return {
        "per_observable": per,
        "averages": {
            e: float(np.mean([per[k][e] for k in keys]))
            for e in ("E_input_tomo", "E_qnd", "E_output_tomo")
        },
        "metadata": {"observable_weights": "equal", "observables": keys},
    }
