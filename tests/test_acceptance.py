"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Monte Carlo thresholds (criteria 7's fidelity floor and the tomography
concurrence band) were calibrated against 200-500 seed ensembles before
being frozen here.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import (
    measurement_circuit_without_half_angle,
    post_measurement_pair_state,
    qnd_estimates_exact,
    random_density_matrix,
    random_real_pure_state,
    raw_estimate,
    tomograph,
    tomography_data,
    triality_defect,
)
from qndsim import circuits as circ
from qndsim import experiments as ex
from qndsim.analysis import fit_mixed_fraction, rms_error
from qndsim.circuits import NoiseModel
from qndsim.harness import SweepConfig, repeat_fixed_state, run_criteria_protocol, run_sweep
from qndsim.observables import concurrence_wootters, observable_set
from qndsim.qmath import DensityMatrix, StateVector, basis_state, fidelity

GRID_16 = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)

THEORY_CURVES = {
    "C1": (math.pi, lambda phi: abs(math.sin(phi))),
    "C2": (math.pi, lambda phi: abs(math.sin(phi))),
    "VA": (0.0, lambda phi: abs(math.sin(phi))),
    "VB": (3 * math.pi / 2, lambda phi: math.sin(phi / 2) ** 2),
    "PA": (math.pi, lambda phi: abs(math.cos(phi))),
    "PB": (math.pi, lambda phi: abs(math.cos(phi))),
}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_exact_theory_curves():
    """Exact-mode 64-point sweeps match the closed-form curves to 1e-9."""
    t0 = time.time()
    worst = 0.0
    for obs, (theta, curve) in THEORY_CURVES.items():
        records = run_sweep(SweepConfig(obs, theta=theta, exact_mode=True))
        assert len(records) == 64
        worst = max(worst, max(abs(r.qnd_estimate - curve(r.phi)) for r in records))
    elapsed = time.time() - t0
    _report(1, worst <= 1e-9 and elapsed < 60.0,
            f"max curve deviation {worst:.2e}, runtime {elapsed:.1f}s (< 60s)")


def test_criterion_02_estimator_equivalence():
    """Both concurrence estimators agree with the spin-flip formula on a
    16x16 parameter grid, at exact probabilities."""
    worst = 0.0
    for phi in GRID_16:
        for theta in GRID_16:
            chi = ex.bell_coefficients(ex.PrepParams(phi, theta)).state_vector()
            reference = concurrence_wootters(chi.density())
            c1 = qnd_estimates_exact(ex.MeasurementSetting("concurrence1"), chi)["C1"]
            c2 = qnd_estimates_exact(ex.MeasurementSetting("concurrence2"), chi)["C2"]
            worst = max(worst, abs(c1 - reference), abs(c2 - reference))
    _report(2, worst <= 1e-8, f"max estimator disagreement {worst:.2e}")


def test_criterion_03_nondemolition():
    """Back-to-back measurements of the same observable agree to 1e-8."""
    worst = 0.0
    for phi in GRID_16:
        for theta in GRID_16:
            chi = ex.bell_coefficients(ex.PrepParams(phi, theta)).state_vector()
            for obs in ex.OBSERVABLES:
                s = ex.setting_for(obs)
                first = qnd_estimates_exact(s, chi)[obs]
                rho_post = post_measurement_pair_state(s, chi)
                second = qnd_estimates_exact(s, rho_post)[obs]
                worst = max(worst, abs(first - second))
    _report(3, worst <= 1e-8, f"max repeat-measurement shift {worst:.2e}")


def test_criterion_04_state_preparation():
    """Every reliable post-selected branch carries its observable at unity
    and matches the closed-form branch state with fidelity 1 (1e-10)."""
    worst_obs, worst_fid = 0.0, 0.0
    checked = 0
    for phi in GRID_16:
        for theta in GRID_16:
            p = ex.PrepParams(phi, theta)
            for obs in ("VA", "PA", "C2", "C1"):
                s = ex.setting_for(obs)
                coeffs = ex.bell_coefficients(p)
                key = "C" if obs in ("C1", "C2") else obs
                for outcome, state, prob in ex.simulated_branches(s, p):
                    if state is None or prob < ex.RELIABLE_BRANCH_PROB:
                        continue
                    checked += 1
                    value = observable_set(state.density().matrix[None])[key][0]
                    worst_obs = max(worst_obs, abs(value - 1.0))
                    if s.observable != "concurrence1":
                        target, _ = ex.conditional_target_state(s, coeffs, outcome)
                        fid = abs(np.vdot(target.amplitudes, state.amplitudes)) ** 2
                        worst_fid = max(worst_fid, abs(fid - 1.0))
    _report(4, worst_obs <= 1e-10 and worst_fid <= 1e-10,
            f"{checked} reliable branches; max |observable-1| {worst_obs:.2e}, "
            f"max |fidelity-1| {worst_fid:.2e}")


def test_criterion_05_operator_identity():
    """The explicit 16x16 operator reproduces the closed-form coherence
    output on a 25-point grid (half-angle convention; the printed
    no-half-angle form fails and is pinned failing)."""
    grid = np.linspace(0.0, 2 * math.pi, 5)
    params = [ex.PrepParams(phi, theta) for phi in grid for theta in grid]
    worst = max(ex.visibility_identity_deviation(p) for p in params)

    # the resolved convention: half-angle passes, the literal form does not
    p = ex.PrepParams(1.1, 2.3)
    target = ex.qnd_output_state(ex.MeasurementSetting("visibility"), ex.bell_coefficients(p))
    literal = circ.run_pure(
        ex.prep_circuit(p).widened(4).then(
            measurement_circuit_without_half_angle(ex.MeasurementSetting("visibility"))
        ),
        basis_state(4),
    )
    literal_fails = float(np.max(np.abs(literal.amplitudes - target.amplitudes))) > 0.1
    _report(5, worst <= 1e-8 and literal_fails,
            f"max operator deviation {worst:.2e} over 25 points; "
            f"no-half-angle convention fails as expected: {literal_fails}")


def test_criterion_06_triality():
    """C^2 + V_k^2 + P_k^2 = 1 for 1000 random real-amplitude pure states."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        psi = random_real_pure_state(rng, 2)
        for k in ("A", "B"):
            worst = max(worst, abs(triality_defect(psi, k)))
    _report(6, worst <= 1e-8, f"max |C^2+V^2+P^2-1| = {worst:.2e} over 1000 states")


def test_criterion_07_tomography_round_trip():
    """Linear inversion is exact on exact data; at 5000 shots the Bell-state
    reconstruction reaches fidelity >= 0.965 on >= 95% of 100 seeds
    (threshold frozen from a 500-seed calibration)."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(25):
        rho = random_density_matrix(rng, 2)
        raw = raw_estimate(tomography_data(rho, shots=None))
        worst = max(worst, float(np.max(np.abs(raw - rho.matrix))))

    bell = StateVector(2, ex.PHI_PLUS)
    rho_bell = bell.density().matrix
    hits = sum(
        fidelity(rho_bell, tomograph(bell, shots=5000, master_seed=s).projected.matrix) >= 0.965
        for s in range(100)
    )
    _report(7, worst <= 1e-8 and hits >= 95,
            f"exact round-trip dev {worst:.2e}; {hits}/100 seeds at fidelity >= 0.965")


def test_criterion_08_shot_noise_floor():
    """Noiseless 5000-shot sweeps keep the RMS error at or below 0.03."""
    worst = 0.0
    for obs in ex.OBSERVABLES:
        records = run_sweep(SweepConfig(obs, shots=5000, master_seed=8))
        err = rms_error([r.qnd_estimate for r in records], [r.theory for r in records])
        worst = max(worst, err)
    _report(8, worst <= 0.03, f"max sweep RMS error {worst:.4f} (<= 0.03)")


def test_criterion_09_noise_phenomenology():
    """Under synthetic depolarizing noise (means over 20 seeds):
    (a) input-tomography error <= QND error <= output-tomography error,
    (b) post-selection does not lower the output fidelity for C2,
    (c) the mixed-fraction fit recovers a generating Werner p to 1e-2."""
    noise = NoiseModel(depol_1q=0.005, depol_2q=0.05, readout_flip=0.01, enabled=True)

    report = run_criteria_protocol(
        seeds=list(range(20)), phi_count=16, phi_step=math.pi / 8, shots=2000, noise=noise
    )
    m = report["mean_average_errors"]
    ordering = m["E_input_tomo"] <= m["E_qnd"] <= m["E_output_tomo"]

    reps = repeat_fixed_state(
        SweepConfig("C2", shots=2000, noise=noise, master_seed=0), 20
    )
    post_f = [b.fidelity for r in reps for b in r.reliable_branches() if b.fidelity is not None]
    uncond_f = [r.fidelity_out for r in reps]
    purification = float(np.mean(post_f)) >= float(np.mean(uncond_f))

    phis = np.linspace(0, 2 * math.pi, 17)[:-1]
    coeffs = [ex.bell_coefficients(ex.PrepParams(phi, math.pi)) for phi in phis]
    p_true = 0.3
    measured = []
    for c in coeffs:
        chi = c.state_vector().amplitudes
        mixed = (1 - p_true) * np.outer(chi, chi.conj()) + p_true * np.eye(4) / 4
        measured.append(concurrence_wootters(DensityMatrix(2, mixed)))
    fit = fit_mixed_fraction(measured, coeffs)
    recovery = abs(fit.parameter - p_true) <= 1e-2

    _report(
        9, ordering and purification and recovery,
        f"(a) {m['E_input_tomo']:.4f} <= {m['E_qnd']:.4f} <= {m['E_output_tomo']:.4f}: "
        f"{ordering}; (b) post {np.mean(post_f):.4f} >= uncond {np.mean(uncond_f):.4f}: "
        f"{purification}; (c) recovered p {fit.parameter:.4f} vs 0.3: {recovery}",
    )


def test_criterion_10_werner_concurrence():
    """Spin-flip concurrence of Bell/identity mixtures matches (3p-1)/2."""
    bell = np.outer(ex.PHI_PLUS, ex.PHI_PLUS.conj())
    worst = 0.0
    for p in (0.0, 0.25, 1 / 3, 0.5, 0.8, 1.0):
        rho = DensityMatrix(2, p * bell + (1 - p) * np.eye(4) / 4)
        expected = max(0.0, (3 * p - 1) / 2)
        worst = max(worst, abs(concurrence_wootters(rho) - expected))
    _report(10, worst <= 1e-8, f"max closed-form deviation {worst:.2e}")


def test_criterion_11_cli_reproducibility(tmp_path):
    """Identical CLI invocations produce byte-identical CSV, whether the
    settings come as flags or from a config file."""
    cli = [sys.executable, "-m", "qndsim", "sweep"]
    flags = ["--observable", "C2", "--phi-steps", "6", "--shots", "400", "--seed", "123"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"observable": "C2", "phi_count": 6, "shots": 400, "master_seed": 123}))
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    settings = [flags, flags, ["--config", str(config)]]
    for path, given in zip(paths, settings):
        res = subprocess.run(cli + given + ["--out", str(path)],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
    blobs = [p.read_bytes() for p in paths]
    identical = blobs[0] == blobs[1] == blobs[2]
    _report(11, identical, f"3 runs, {len(blobs[0])} bytes each, byte-identical: {identical}")
