"""Sweep driver, emission formats, and the command-line front end."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qndsim
from helpers import STAGE_CACHES, indented_json_document, rowwise_csv
from qndsim import circuits as circ
from qndsim import experiments as ex
from qndsim import harness
from qndsim import tomography as tom
from qndsim.analysis import BranchResult
from qndsim.circuits import NoiseModel
from qndsim.cli import main as cli_main
from qndsim.harness import (
    CSV_COLUMNS,
    SweepConfig,
    compute_fits,
    emit,
    _prepare_block,
    _prepare_input,
    repeat_fixed_state,
    run_sweep,
)
from qndsim.qmath import DensityMatrix, StateVector
from qndsim.experiments import OBSERVABLES, PrepParams


def read_csv(path) -> list[dict]:
    """An emitted CSV's rows, as dicts of strings."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def assert_rowwise_csv(records, tmp_path) -> list[dict]:
    """``emit``'s CSV of the records is the row-at-a-time writer's, byte for
    byte; returns its rows."""
    got, want = tmp_path / "emit.csv", tmp_path / "rowwise.csv"
    emit(records, "csv", str(got))
    rowwise_csv(records, str(want))
    assert got.read_bytes() == want.read_bytes()
    return read_csv(got)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
PROBABILITY = st.floats(0.0, 1.0)
CONFIGS = st.fixed_dictionaries(dict(
    observable=st.sampled_from(OBSERVABLES),
    theta=st.none() | FINITE,
    lam=FINITE | st.integers(-10, 10),
    phi_start=FINITE,
    phi_count=st.integers(1, 10**6),
    phi_step=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    shots=st.integers(1, 10**9),
    exact_mode=st.booleans(),
    noise=st.builds(NoiseModel, PROBABILITY, PROBABILITY, PROBABILITY),
    master_seed=st.integers(0, 2**64),
)).filter(  # a grid whose last phi leaves the float range is no config
    lambda kw: math.isfinite(kw["phi_start"] + (kw["phi_count"] - 1) * kw["phi_step"])
).map(lambda kw: SweepConfig(**kw))


class TestConfig:
    def test_theta_defaults(self):
        assert SweepConfig("VA").theta_resolved == 0.0
        assert SweepConfig("VB").theta_resolved == pytest.approx(3 * math.pi / 2)
        for obs in ("PA", "PB", "C1", "C2"):
            assert SweepConfig(obs).theta_resolved == pytest.approx(math.pi)

    def test_explicit_theta_wins(self):
        assert SweepConfig("VA", theta=1.0).theta_resolved == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig("XX")
        with pytest.raises(ValueError):
            SweepConfig("VA", phi_step=0.0)
        with pytest.raises(ValueError):
            SweepConfig("VA", shots=0)
        assert SweepConfig("VA", shots=0, exact_mode=True).exact_mode

    @pytest.mark.parametrize("shots", [-1, -5, np.int64(-5)])
    def test_exact_mode_shots_are_nonnegative(self, shots):
        # exact mode draws nothing, but it echoes the count in every record
        with pytest.raises(ValueError, match=f"shots must be >= 0, got {int(shots)}"):
            SweepConfig("VA", shots=shots, exact_mode=True)
        assert SweepConfig("VA", shots=0, exact_mode=True).to_dict()["shots"] == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["phi_step", "phi_start", "theta", "lam"])
    def test_non_finite_fields_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SweepConfig("VA", **{name: value})

    def test_phi_grid(self):
        cfg = SweepConfig("VA", phi_count=3, phi_step=0.5, phi_start=1.0, exact_mode=True)
        assert [r.phi for r in run_sweep(cfg)] == [1.0, 1.5, 2.0]

    @pytest.mark.parametrize("kwargs", [
        dict(exact_mode=True, phi_step=1e307, phi_count=40),  # the last phi is inf
        dict(phi_start=1e308, phi_step=1e308, phi_count=2),
        dict(phi_count=10**400),  # an integer beyond the float range; only constructed
        dict(phi_step=1, phi_count=10**400),
    ])
    def test_phi_grid_beyond_the_float_range_rejected(self, kwargs):
        with pytest.raises(ValueError, match=r"phi_start \+ \(phi_count - 1\) \* phi_step"):
            SweepConfig("VA", **kwargs)

    @pytest.mark.parametrize("name, value", [
        ("shots", "100"), ("shots", 100.0), ("shots", True), ("phi_count", "2"),
        ("master_seed", 1.5), ("theta", "1"), ("lam", True), ("phi_start", None),
        ("phi_step", "0.1"), ("exact_mode", 1), ("theta", 10**400), ("master_seed", -1),
    ])
    def test_field_types_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            SweepConfig("VA", **{name: value})

    @settings(deadline=None)
    @given(CONFIGS)
    def test_from_dict_inverts_to_dict(self, config):
        echo = json.loads(json.dumps(config.to_dict()))
        assert SweepConfig.from_dict(echo) == dataclasses.replace(
            config, theta=config.theta_resolved)

    @pytest.mark.parametrize("config, key", [
        ({"observable": "C1", "exact_mode": True, "phi_cout": 3}, "phi_cout"),
        ({"observable": "C1", "lam": 0.5}, "lam"),
        ({"observable": "C1", "noise_2q": 0.05}, "noise_2q"),
        ({"observable": "C1", "noise": {"depol_2q": 0.05, "readout": 0.1}}, "readout"),
    ])
    def test_from_dict_rejects_unknown_keys(self, config, key):
        with pytest.raises(ValueError, match=f"unknown .*key.*{key}"):
            SweepConfig.from_dict(config)

    def test_from_dict_reads_old_echo(self):
        # configs echoed before the workers knob and the enabled flag were
        # removed carry both; a disabled model's probabilities count as zero
        echo = {
            "observable": "PA", "theta": math.pi, "lambda": 0.0, "phi_start": 0.0,
            "phi_count": 4, "phi_step": 0.3, "shots": 100, "shots_are_per_setting": True,
            "exact_mode": False, "master_seed": 5, "workers": 3,
            "noise": {"enabled": False, "depol_1q": 0.1, "depol_2q": 0.2, "readout_flip": 0.0},
        }
        config = SweepConfig.from_dict(echo)
        assert config == SweepConfig("PA", theta=math.pi, phi_count=4, phi_step=0.3,
                                     shots=100, master_seed=5)
        assert config.noise == NoiseModel()
        enabled = dict(echo, noise=dict(echo["noise"], enabled=True))
        assert SweepConfig.from_dict(enabled).noise == NoiseModel(0.1, 0.2, 0.0)


class TestExactSweeps:
    def test_va_theory_curve(self):
        records = run_sweep(SweepConfig("VA", exact_mode=True, phi_count=16))
        for r in records:
            assert r.qnd_estimate == pytest.approx(abs(math.sin(r.phi)), abs=1e-10)
            assert r.tomo_in == pytest.approx(r.theory, abs=1e-8)
            assert r.fidelity_in == pytest.approx(1.0, abs=1e-8)
            assert r.fidelity_out == pytest.approx(1.0, abs=1e-8)

    def test_pa_pb_joint_curves(self):
        for obs in ("PA", "PB"):
            records = run_sweep(SweepConfig(obs, exact_mode=True, phi_count=16))
            for r in records:
                assert r.qnd_estimate == pytest.approx(abs(math.cos(r.phi)), abs=1e-10)

    @pytest.mark.parametrize("noise", [
        NoiseModel(),
        NoiseModel(readout_flip=0.02),
        NoiseModel(depol_1q=0.005, depol_2q=0.05, readout_flip=0.01),
    ], ids=["noiseless", "readout_flip", "criterion9"])
    def test_exact_records_have_no_branch_rows(self, noise):
        records = run_sweep(SweepConfig("C2", exact_mode=True, phi_count=4, noise=noise))
        for r in records:
            assert all(b.tomo_value is None for b in r.branches)

    def test_zero_trace_output_estimate_raises(self, monkeypatch):
        # exact data always fix a state, so a reconstruction that leaves out
        # the last data set of a stack stands in for one that does not
        real = tom.reconstruct_stack

        def drop_last(data):
            est = real(data)
            if len(data) < 2:  # an input estimate
                return est
            return tom.EstimateStack(est.rows[:-1], est.projected[:-1], est.min_eigenvalue[:-1])

        monkeypatch.setattr(tom, "reconstruct_stack", drop_last)
        with pytest.raises(tom.DegenerateReconstructionError, match="unconditional output"):
            run_sweep(SweepConfig("C2", exact_mode=True, phi_count=4))

    def test_sweeps_spanning_multiple_periods(self):
        records = run_sweep(SweepConfig("VA", exact_mode=True, phi_count=96))
        assert records[-1].phi > 2 * math.pi
        for r in records:
            assert r.qnd_estimate == pytest.approx(abs(math.sin(r.phi)), abs=1e-10)

    def test_input_stage_theory_at_the_bell_point(self):
        _, _, theory = _prepare_input((PrepParams(math.pi / 2, math.pi),), NoiseModel())
        assert theory["C2"][0] == pytest.approx(1.0)
        assert theory["VA"][0] == pytest.approx(0.0, abs=1e-12)


class TestSampledSweeps:
    def test_deterministic_per_seed(self):
        cfg = SweepConfig("C1", phi_count=4, shots=200, master_seed=9)
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert a == b

    def test_zero_trace_output_estimate_raises(self):
        # one shot per setting: the pair data of some point never read "00"
        with pytest.raises(tom.DegenerateReconstructionError, match="unconditional output"):
            run_sweep(SweepConfig("C2", phi_count=4, shots=1, master_seed=1))

    def test_branches_analyzed_with_flags(self):
        cfg = SweepConfig("C2", phi_count=1, phi_start=math.pi / 2, shots=400, master_seed=2)
        (rec,) = run_sweep(cfg)
        by_outcome = {b.outcome: b for b in rec.branches}
        assert by_outcome["01"].reliable
        assert by_outcome["01"].tomo_value is not None
        assert by_outcome["01"].fidelity is not None
        assert not by_outcome["10"].reliable

    @pytest.mark.parametrize("noise, kind", [
        (NoiseModel(), StateVector),
        (NoiseModel(depol_1q=0.0, enabled=True), StateVector),
        (NoiseModel(readout_flip=0.01), DensityMatrix),
        (NoiseModel(depol_2q=0.01), DensityMatrix),
    ])
    def test_any_nonzero_probability_selects_density_engine(self, noise, kind, monkeypatch):
        # a readout flip alone still runs the density engine, so its samples
        # stay those of earlier versions; all zeros is the pure engine. The
        # input pair runs one state at a time, the output register as a
        # stack: (B, d) amplitudes or (B, d, d) density matrices
        chi = []
        for name in ("run_pure", "run_noisy"):
            def run(*args, _run=getattr(circ, name)):
                chi.append(_run(*args))
                return chi[-1]
            monkeypatch.setattr(circ, name, run)
        params = (PrepParams(0.3, math.pi),)
        _, probs_in, _ = _prepare_input(params, noise)
        out = _prepare_block(ex.setting_for("C2"), params, noise).readout
        assert len(chi) == 1 and isinstance(chi[0], kind) and chi[0].num_qubits == 2
        assert out.ndim == (2 if kind is StateVector else 3)
        assert probs_in.shape == (1, 16, 4) and out.shape[:2] == (1, 16)

    def test_noisy_sweep_runs_and_degrades(self):
        noise = NoiseModel(depol_1q=0.01, depol_2q=0.08, readout_flip=0.02, enabled=True)
        cfg = SweepConfig("C2", phi_count=1, phi_start=math.pi / 2, shots=500,
                          noise=noise, master_seed=4)
        (rec,) = run_sweep(cfg)
        assert rec.qnd_estimate < rec.theory
        assert rec.fidelity_in < 1.0


class TestBranchFailures:
    CONFIG = SweepConfig("C2", phi_count=1, phi_start=math.pi / 2, shots=200, master_seed=3)

    def test_degenerate_branch_recorded_unanalyzed(self, monkeypatch):
        # every retained shot reads "11", so no setting ever sees "00" and the
        # branch reconstruction has zero trace
        real = circ.postselect_counts

        def all_ones(counts, positions, outcome):
            kept = real(counts, positions, outcome)
            ones = np.zeros_like(kept)
            ones[..., 0b11] = kept.sum(axis=-1)
            return ones

        monkeypatch.setattr(circ, "postselect_counts", all_ones)
        (rec,) = run_sweep(self.CONFIG)
        assert rec.tomo_out is not None
        assert [b.outcome for b in rec.branches] == ["00", "01", "10", "11"]
        assert all(b.tomo_value is None and b.retained_shots is None for b in rec.branches)
        assert rec.branches[1].reliable

    def test_other_reconstruction_errors_propagate(self, monkeypatch):
        selected = []
        real_select, real_reconstruct = circ.postselect_counts, tom.reconstruct_stack

        def tracked(*args, **kwargs):
            selected.append(real_select(*args, **kwargs))
            return selected[-1]

        def failing(data, *args, **kwargs):
            # each selected array is a whole block's branch: a stack of data sets
            if any(np.array_equal(d, s) for d in data for block in selected for s in block):
                raise ValueError("unexpected reconstruction failure")
            return real_reconstruct(data, *args, **kwargs)

        monkeypatch.setattr(circ, "postselect_counts", tracked)
        monkeypatch.setattr(tom, "reconstruct_stack", failing)
        with pytest.raises(ValueError, match="unexpected reconstruction failure"):
            run_sweep(self.CONFIG)
        assert selected


def test_criteria_protocol_rejects_empty_seeds(monkeypatch):
    def no_work(config):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(harness, "run_sweep", no_work)
    with pytest.raises(ValueError, match="seed"):
        harness.run_criteria_protocol([])


def test_criteria_protocol_echoes_builtin_seeds():
    # a numpy integer seed is echoed as the int its sweeps ran with, which
    # json can write
    report = harness.run_criteria_protocol([np.int64(3)], observables=("VA",), phi_count=2,
                                           shots=100)
    assert report["seeds"] == [3] and type(report["seeds"][0]) is int
    json.dumps(report)


def test_criteria_protocol_rejects_empty_observables(monkeypatch):
    # averages over no observable are NaN, which is not valid JSON
    def no_work(config):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(harness, "run_sweep", no_work)
    with pytest.raises(ValueError, match="observable"):
        harness.run_criteria_protocol([0], observables=())


@pytest.mark.parametrize("kwargs, message", [
    (dict(seeds=[0], observables=("VA", "XX")), "unknown observable 'XX'"),
    (dict(seeds=[0, -1]), "master_seed must be >= 0"),
    (dict(seeds=[0], observables=("VA", "C1", "VA")), "repeated observable"),
    (dict(seeds=[0, 3, 0]), "repeated seed"),
])
def test_criteria_protocol_rejects_a_bad_config_before_any_sweep(monkeypatch, kwargs, message):
    sweeps = []
    monkeypatch.setattr(harness, "run_sweep", sweeps.append)
    with pytest.raises(ValueError, match=message):
        harness.run_criteria_protocol(phi_count=4, shots=100, **kwargs)
    assert sweeps == []


class TestRepeatFixedState:
    def test_distinct_seeds_and_determinism(self):
        cfg = SweepConfig("C2", shots=300, master_seed=5)
        reps = repeat_fixed_state(cfg, 4)
        assert [r.seed for r in reps] == [0, 1, 2, 3]
        assert all(r.phi == pytest.approx(math.pi / 2) for r in reps)
        again = repeat_fixed_state(cfg, 4)
        assert reps == again

    def test_noiseless_postselection_preserves_concurrence(self):
        cfg = SweepConfig("C2", shots=2000, master_seed=6)
        reps = repeat_fixed_state(cfg, 10)
        post = [b.tomo_value for r in reps for b in r.reliable_branches()]
        uncond = [r.tomo_out for r in reps]
        assert np.mean(post) >= np.mean(uncond) - 0.01

    def test_rejects_bad_repetitions(self):
        with pytest.raises(ValueError):
            repeat_fixed_state(SweepConfig("C2"), 0)

    @pytest.mark.parametrize("repetitions", [True, 2.5, 3.0, "3", None])
    def test_rejects_non_integer_repetitions_before_any_work(self, repetitions):
        # True would run one repetition and 2.5 would fail inside range()
        with pytest.raises(ValueError, match="repetitions must be an integer"):
            repeat_fixed_state(SweepConfig("C2"), repetitions)
        assert harness._prepare_block.cache_info().misses == 0
        assert harness._prepare_input.cache_info().misses == 0
        assert harness._output_analysis.cache_info().misses == 0

    @pytest.mark.parametrize("observable", OBSERVABLES)
    def test_exact_repetitions_are_one_record(self, observable):
        # exact data depend on the state alone, so only the seed tag differs
        reps = repeat_fixed_state(SweepConfig(observable, exact_mode=True), 20)
        assert [r.seed for r in reps] == list(range(20))
        assert all(dataclasses.replace(r, seed=0) == reps[0] for r in reps)

    def test_exact_repetitions_analyze_each_block_key_once(self, monkeypatch):
        # one output reconstruction per distinct block key, of all its
        # points, and one input reconstruction per point of each: the exact
        # output and input analyses of the 16-point key are read again by
        # blocks 2 and 3
        calls = []
        reconstruct = tom.reconstruct_stack
        monkeypatch.setattr(tom, "reconstruct_stack",
                            lambda data: calls.append(len(data)) or reconstruct(data))
        repeat_fixed_state(SweepConfig("C2", exact_mode=True), 50)
        assert calls == [16] + [1] * 16 + [2] + [1] * 2
        assert harness._output_analysis.cache_info().hits == 2
        assert harness._input_analysis.cache_info().hits == 2


class TestEmission:
    def test_csv_layout_and_round_trip(self, tmp_path):
        cfg = SweepConfig("C2", exact_mode=True, phi_count=4)
        records = run_sweep(cfg)
        path = tmp_path / "sweep.csv"
        emit(records, "csv", str(path), cfg)
        rows = read_csv(str(path))
        assert list(rows[0].keys()) == list(CSV_COLUMNS)
        assert len(rows) == 4  # exact mode: one row per point, branch empty
        assert all(row["branch"] == "" for row in rows)
        assert float(rows[1]["qnd_estimate"]) == pytest.approx(records[1].qnd_estimate)

    def test_csv_branch_rows(self, tmp_path):
        cfg = SweepConfig("C2", phi_count=1, phi_start=math.pi / 2, shots=300, master_seed=1)
        records = run_sweep(cfg)
        path = tmp_path / "sweep.csv"
        emit(records, "csv", str(path), cfg)
        rows = read_csv(str(path))
        branches = [r for r in rows if r["branch"]]
        assert branches and branches[0]["branch_reliable"] in ("true", "false")
        assert rows[0]["branch"] == ""  # unconditional row sorts first

    def test_json_round_trip_with_config_echo(self, tmp_path):
        cfg = SweepConfig("C1", exact_mode=True, phi_count=3, master_seed=17)
        records = run_sweep(cfg)
        fits = compute_fits(records)
        path = tmp_path / "sweep.json"
        emit(records, "json", str(path), cfg, fits)
        doc = json.loads(path.read_text())
        assert doc["config"]["master_seed"] == 17
        assert doc["config"]["shots_are_per_setting"] is True
        assert doc["fits"]["qnd_scale"]["parameter"] == pytest.approx(1.0)
        assert len(doc["records"]) == 3
        assert doc["records"][0]["branches"][0]["outcome"] == "0"

    def test_json_file_is_json_dump_bytes(self, tmp_path):
        # one line per top-level key and one per record, each value as
        # json.dumps writes it with its defaults, in one write
        cfg = SweepConfig("C2", exact_mode=True, phi_count=6)
        records = run_sweep(cfg)
        fits = compute_fits(records)
        assert "tomo_out_mixed_fraction" in fits
        path = tmp_path / "sweep.json"
        emit(records, "json", str(path), cfg, fits)
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert doc["config"] is not None and len(doc["records"]) == 6
        lines = ",\n".join("    " + json.dumps(r) for r in doc["records"])
        want = (f'{{\n  "config": {json.dumps(doc["config"])},\n'
                f'  "fits": {json.dumps(doc["fits"])},\n'
                f'  "records": [\n{lines}\n  ]\n}}\n')
        assert text == want

    @pytest.mark.parametrize("echo", ["none", "config", "fits", "both"])
    @pytest.mark.parametrize("run", ["exact", "sampled", "criterion9", "repeat"])
    def test_json_file_reads_as_the_indented_document(self, tmp_path, run, echo):
        # the document the indented writer wrote, built from the records
        # alone, and one line per record plus six
        if run == "repeat":
            cfg = SweepConfig("C1", shots=300, master_seed=2)
            records = repeat_fixed_state(cfg, 6)
        else:
            noise = NoiseModel(depol_1q=0.005, depol_2q=0.05, readout_flip=0.01)
            cfg = SweepConfig("C2", phi_count=5, phi_step=math.pi / 4, shots=300,
                              exact_mode=run == "exact",
                              noise=noise if run == "criterion9" else NoiseModel(),
                              master_seed=7)
            records = run_sweep(cfg)
        config = cfg if echo in ("config", "both") else None
        fits = compute_fits(records) if echo in ("fits", "both") else None
        path = tmp_path / "sweep.json"
        emit(records, "json", str(path), config, fits)
        text = path.read_text(encoding="utf-8")
        want = indented_json_document(records, config, fits)
        assert json.loads(text) == json.loads(json.dumps(want, indent=2))
        assert len(text.splitlines()) == len(records) + 6

    @pytest.mark.parametrize("exact_mode", [True, False], ids=["exact", "sampled"])
    @pytest.mark.parametrize("noise", [
        NoiseModel(),
        NoiseModel(depol_1q=0.005, depol_2q=0.05, readout_flip=0.01),
        NoiseModel(readout_flip=0.02),
    ], ids=["noiseless", "criterion9", "flip_only"])
    @pytest.mark.parametrize("observable", OBSERVABLES)
    def test_csv_is_the_rowwise_bytes(self, tmp_path, observable, noise, exact_mode):
        cfg = SweepConfig(observable, phi_count=5, phi_step=math.pi / 4, shots=300,
                          exact_mode=exact_mode, noise=noise, master_seed=7)
        assert_rowwise_csv(run_sweep(cfg), tmp_path)

    def test_csv_of_a_repeat_run_is_the_rowwise_bytes(self, tmp_path):
        records = repeat_fixed_state(SweepConfig("C1", shots=300, master_seed=2), 20)
        assert_rowwise_csv(records, tmp_path)

    def test_csv_of_phis_tied_across_a_block_boundary_is_the_rowwise_bytes(self, tmp_path):
        # 1.0 + i * 1e-17 rounds to 1.0 or to the next float up: 20 records
        # of two phis and one seed whose draws differ, in tie groups, one of
        # which crosses the 16-point block boundary. In each group all point
        # rows come first, then each branch's rows in the records' order
        cfg = SweepConfig("C2", phi_start=1.0, phi_step=1e-17, phi_count=20, shots=300,
                          master_seed=4)
        records = run_sweep(cfg)
        phis = [r.phi for r in records]
        assert len(set(phis)) == 2 and phis[harness.BLOCK_POINTS - 1] == phis[harness.BLOCK_POINTS]
        rows = assert_rowwise_csv(records, tmp_path)
        keys = [(float(row["phi"]), row["branch"]) for row in rows]
        assert keys == sorted(keys) and len(keys) > len(records)

    def test_csv_of_unanalyzed_and_unscored_branches_is_the_rowwise_bytes(self, tmp_path):
        # a branch left unanalyzed gets no row; an analyzed branch whose
        # ideal probability is 0 has no fidelity, an empty cell
        rec = run_sweep(SweepConfig("C2", phi_count=1, shots=300))[0]
        branches = (BranchResult("00", 0.0, retained_shots=12, tomo_value=0.25),
                    BranchResult("01", 0.3),
                    BranchResult("10", 0.7, retained_shots=288, tomo_value=0.5, fidelity=0.9))
        records = [rec, dataclasses.replace(rec, seed=1, branches=branches)]
        rows = assert_rowwise_csv(records, tmp_path)
        made_up = [row for row in rows if row["seed"] == "1"]
        assert [row["branch"] for row in made_up] == ["", "00", "10"]
        assert [row["fidelity_post"] for row in made_up] == ["", "", "0.9"]
        assert [row["branch_reliable"] for row in made_up] == ["", "false", "true"]

    @pytest.mark.parametrize("exact_mode", [True, False], ids=["exact", "sampled"])
    def test_numpy_scalar_config_writes_the_builtin_bytes(self, tmp_path, exact_mode):
        # numpy scalars pass the config's number checks; they are stored as
        # built-ins, so no numpy repr reaches a CSV cell and no numpy integer
        # reaches json
        builtin = dict(theta=0.3, lam=0.2, phi_start=0.1, phi_step=0.4, phi_count=3,
                       shots=200, master_seed=5)
        scalars = {k: (np.int64 if isinstance(v, int) else np.float64)(v)
                   for k, v in builtin.items()}
        written = []
        for kwargs in (builtin, scalars):
            cfg = SweepConfig("VA", exact_mode=exact_mode, **kwargs)
            assert all(type(getattr(cfg, k)) is type(v) for k, v in builtin.items())
            records = run_sweep(cfg)
            for fmt in ("csv", "json"):
                path = tmp_path / f"out.{fmt}"
                emit(records, fmt, str(path), cfg, compute_fits(records))
                written.append(path.read_bytes())
        assert written[2:] == written[:2]
        # a record built by hand with numpy floats writes json's text too
        branches = tuple(dataclasses.replace(b, tomo_value=np.float64(b.tomo_value))
                         if b.tomo_value is not None else b for b in records[0].branches)
        scalar_record = dataclasses.replace(records[0], phi=np.float64(records[0].phi),
                                            theory=np.float64(records[0].theory),
                                            branches=branches)
        emit(records[:1], "csv", str(tmp_path / "a.csv"))
        emit([scalar_record], "csv", str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_numpy_probability_record_writes_the_builtin_bytes(self, tmp_path):
        # a branch's reliability is a built-in bool whatever its probability's
        # type: a numpy bool would write True in a CSV cell and break json
        records = run_sweep(SweepConfig("C2", phi_count=2, shots=300, master_seed=4))
        twins = [dataclasses.replace(r, branches=tuple(
            dataclasses.replace(b, probability=np.float64(b.probability)) for b in r.branches))
            for r in records]
        assert all(type(b.reliable) is bool for r in twins for b in r.branches)
        for fmt in ("csv", "json"):
            emit(records, fmt, str(tmp_path / f"a.{fmt}"))
            emit(twins, fmt, str(tmp_path / f"b.{fmt}"))
            assert (tmp_path / f"a.{fmt}").read_bytes() == (tmp_path / f"b.{fmt}").read_bytes()

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], "csv", str(tmp_path / "x.csv"))

    def test_unknown_format_rejected(self, tmp_path):
        records = run_sweep(SweepConfig("C1", exact_mode=True, phi_count=1))
        with pytest.raises(ValueError):
            emit(records, "yaml", str(tmp_path / "x.yaml"))


class TestFits:
    def test_exact_sweep_fits(self):
        records = run_sweep(SweepConfig("C2", exact_mode=True, phi_count=16))
        fits = compute_fits(records)
        assert fits["qnd_scale"].parameter == pytest.approx(1.0, abs=1e-9)
        assert fits["tomo_out_mixed_fraction"].parameter == pytest.approx(0.0, abs=1e-3)

    @pytest.mark.parametrize("observable", OBSERVABLES)
    def test_each_observable_gets_the_fits_of_its_formula(self, observable):
        # the concurrence is nonlinear in the state, so the concurrences
        # also get the mixed-fraction fit; the single-qubit observables get
        # scale fits only
        records = run_sweep(SweepConfig(observable, exact_mode=True, phi_count=16))
        fits = compute_fits(records)
        mixed = {"tomo_out_mixed_fraction"} if observable in ("C1", "C2") else set()
        assert set(fits) == {"qnd_scale", "tomo_out_scale"} | mixed
        assert fits["qnd_scale"].parameter == pytest.approx(1.0, abs=1e-9)
        kinds = ["scale", "scale"] + ["mixed_fraction"] * len(mixed)
        assert [f.kind for f in fits.values()] == kinds

    def test_scaled_data_recovered(self):
        records = run_sweep(SweepConfig("VA", exact_mode=True, phi_count=16))
        scaled = [dataclasses.replace(r, qnd_estimate=0.8 * r.qnd_estimate) for r in records]
        fits = compute_fits(scaled)
        assert fits["qnd_scale"].parameter == pytest.approx(0.8, abs=1e-9)


class TestCli:
    def test_sweep_and_reproducibility(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--observable", "VA", "--exact", "--phi-steps", "6"]
        assert cli_main(args + ["--out", str(out1)]) == 0
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"observable": "VA", "exact_mode": True, "phi_count": 6}))
        assert cli_main(["sweep", "--config", str(cfg_file), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_criteria_report_is_json_dump_bytes(self, tmp_path):
        out = tmp_path / "c.json"
        assert cli_main(["criteria", "--seeds", "1", "--phi-steps", "4", "--shots", "200",
                         "--noise-2q", "0.05", "--out", str(out)]) == 0
        report = harness.run_criteria_protocol(
            [0], phi_count=4, shots=200, noise=NoiseModel(depol_2q=0.05))
        want = io.StringIO()
        json.dump(report, want, indent=2)
        want.write("\n")
        assert out.read_text(encoding="utf-8") == want.getvalue()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"observable": "C1", "phi_count": 3, "exact_mode": True}))
        out = tmp_path / "c.csv"
        assert cli_main(["sweep", "--config", str(cfg_file), "--phi-steps", "2",
                         "--out", str(out)]) == 0
        assert len(read_csv(str(out))) == 2

    def test_emitted_config_echo_reproduces_run(self, tmp_path):
        # the config echo in JSON output is the reproduction artifact: feeding
        # it back through --config must regenerate the same records
        first = tmp_path / "first.json"
        assert cli_main(["sweep", "--observable", "VB", "--exact", "--phi-steps", "4",
                         "--lambda", "0.7", "--format", "json", "--out", str(first)]) == 0
        doc = json.loads(first.read_text())
        cfg_file = tmp_path / "echo.json"
        cfg_file.write_text(json.dumps(doc["config"]))
        second = tmp_path / "second.json"
        assert cli_main(["sweep", "--config", str(cfg_file), "--format", "json",
                         "--out", str(second)]) == 0
        doc2 = json.loads(second.read_text())
        assert doc2["records"] == doc["records"]
        assert doc2["config"]["lambda"] == pytest.approx(0.7)

    @pytest.mark.parametrize("config, key", [
        ({"observable": "C1", "exact_mode": True, "phi_cout": 3}, "phi_cout"),
        ({"observable": "C1", "shots": "100"}, "shots"),
        ({"observable": "C1", "phi_count": "2"}, "phi_count"),
    ])
    def test_malformed_config_rejected_before_work(self, tmp_path, capsys, config, key):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        out = tmp_path / "x.csv"
        assert cli_main(["sweep", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_output_path_from_config_file(self, tmp_path):
        out = tmp_path / "from_config.csv"
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"observable": "VB", "exact_mode": True, "phi_count": 2, "output_path": str(out)}))
        assert cli_main(["sweep", "--config", str(cfg_file)]) == 0
        assert len(read_csv(str(out))) == 2

    def test_noise_flags_overlay_config_noise(self, tmp_path):
        # a flag replaces its own probability; the file's other ones stay,
        # and a disabled model in the file counts as all zero
        cfg_file = tmp_path / "cfg.json"
        out = tmp_path / "n.json"
        for noise, want in (
            ({"depol_1q": 0.01, "depol_2q": 0.02}, {"depol_1q": 0.01, "depol_2q": 0.05}),
            ({"enabled": False, "depol_1q": 0.01}, {"depol_1q": 0.0, "depol_2q": 0.05}),
        ):
            cfg_file.write_text(json.dumps(
                {"observable": "C2", "exact_mode": True, "phi_count": 1, "noise": noise}))
            assert cli_main(["sweep", "--config", str(cfg_file), "--noise-2q", "0.05",
                             "--format", "json", "--out", str(out)]) == 0
            echoed = json.loads(out.read_text())["config"]["noise"]
            assert echoed == dict(want, readout_flip=0.0)

    def test_a_disabled_config_noise_is_checked_under_a_noise_flag(self, tmp_path, capsys):
        # the file's own model is checked before a flag replaces it, as it
        # is without the flag
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"observable": "VA", "exact_mode": True, "phi_count": 1,
                                        "noise": {"enabled": False, "depol_2q": -3}}))
        out = tmp_path / "n.csv"
        for flags in ([], ["--noise-1q", "0.01"]):
            assert cli_main(["sweep", "--config", str(cfg_file), *flags, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: depol_2q must be >= 0") and err.count("\n") == 1, err
            assert all(stage.cache_info().misses == 0 for stage in STAGE_CACHES)
            assert not out.exists()

    @pytest.mark.parametrize("flags, config, key", [
        (["--theta", "1.0"], {}, "theta 1.0"),
        ([], {"theta": 1.0}, "theta 1.0"),
        ([], {"phi_start": 0.3}, "phi_start 0.3"),
        ([], {"phi_count": 7}, "phi_count 7"),
    ], ids=["--theta", "config theta", "config phi_start", "config phi_count"])
    def test_repeat_refuses_a_point_it_would_not_run(self, flags, config, key, tmp_path,
                                                      capsys):
        # a repeat run measures the Bell-state point alone: another point,
        # from a flag or the config file, is an error before any work
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"observable": "VA", "exact_mode": True, **config}))
        out = tmp_path / "r.csv"
        assert cli_main(["repeat", "--config", str(cfg_file), *flags, "--repetitions", "2",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: repeat measures theta = pi, phi_start = pi/2 and one "
                              f"point, got {key}\n"), err
        assert all(stage.cache_info().misses == 0 for stage in STAGE_CACHES)
        assert not out.exists()

    def test_repeat_subcommand(self, tmp_path):
        out = tmp_path / "rep.json"
        assert cli_main(["repeat", "--observable", "C2", "--repetitions", "2",
                         "--shots", "200", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["records"]) == 2

    def test_repeat_echo_names_the_point_its_records_ran(self, tmp_path):
        # every repetition runs at the Bell-state point, not at the
        # observable's default theta, and the echo names that point: passed
        # back, it reproduces the run
        first = tmp_path / "first.json"
        assert cli_main(["repeat", "--observable", "VA", "--exact",
                         "--repetitions", "3", "--format", "json", "--out", str(first)]) == 0
        doc = json.loads(first.read_text())
        echo = doc["config"]
        assert (echo["theta"], echo["phi_start"], echo["phi_count"]) == (math.pi, math.pi / 2, 1)
        assert all((r["theta"], r["phi"]) == (echo["theta"], echo["phi_start"])
                   for r in doc["records"])
        cfg_file = tmp_path / "echo.json"
        cfg_file.write_text(json.dumps(echo))
        second = tmp_path / "second.json"
        assert cli_main(["repeat", "--config", str(cfg_file), "--repetitions", "3",
                         "--format", "json", "--out", str(second)]) == 0
        assert json.loads(second.read_text()) == doc

    def test_zero_theory_sweep_omits_scale_fits(self, tmp_path):
        # C2 vanishes at phi = 0, so no scale factor is defined
        out = tmp_path / "zero.json"
        assert cli_main(["sweep", "--observable", "C2", "--phi-steps", "1", "--exact",
                         "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["records"]) == 1
        assert doc["records"][0]["theory"] == 0.0
        assert "qnd_scale" not in doc["fits"]
        assert "tomo_out_scale" not in doc["fits"]
        assert "tomo_out_mixed_fraction" in doc["fits"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_past_two_pi(self, tmp_path, fmt):
        # the default step is pi/32, so 70 points end at 69*pi/32 > 2*pi
        out = tmp_path / f"long.{fmt}"
        assert cli_main(["sweep", "--observable", "C2", "--exact", "--phi-steps", "70",
                         "--format", fmt, "--out", str(out)]) == 0
        if fmt == "csv":
            assert len(read_csv(str(out))) == 70
        else:
            doc = json.loads(out.read_text())
            assert len(doc["records"]) == 70
            assert doc["records"][-1]["phi"] > 2 * math.pi
            assert doc["fits"]["tomo_out_mixed_fraction"]["parameter"] == pytest.approx(
                0.0, abs=1e-9)

    def test_import_needs_no_scipy(self, tmp_path):
        # numpy is the only runtime dependency: importing the package loads no
        # scipy, and every subcommand then runs with scipy blocked, all in one
        # fresh interpreter. main is called repeatedly there, with an argv that
        # argparse rejects in between: the calls share one parser, and each
        # writes the bytes the same call writes alone in a fresh interpreter
        src = os.path.dirname(os.path.dirname(os.path.abspath(qndsim.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        rejected = ["sweep", "--observable", "XX", "--out", "x.csv"]
        runs = [
            ["sweep", "--observable", "C2", "--exact", "--phi-steps", "3", "--format", "json",
             "--out", "s.json"],
            ["repeat", "--observable", "C1", "--repetitions", "2", "--shots", "100",
             "--out", "r.csv"],
            rejected,
            ["criteria", "--seeds", "1", "--phi-steps", "2", "--shots", "100",
             "--noise-2q", "0.05", "--out", "c.json"],
            ["check-identity", "--grid", "2"],
        ]
        script = (
            "import json, sys, qndsim.cli\n"
            "loaded = 'scipy' in sys.modules\n"
            "sys.modules['scipy'] = None\n"
            "def run(argv):\n"
            "    try:\n"
            "        return qndsim.cli.main(argv)\n"
            "    except SystemExit as exc:\n"
            "        return f'SystemExit({exc.code})'\n"
            "status = [run(argv) for argv in json.loads(sys.argv[1])]\n"
            "parsers = qndsim.cli._build_parser.cache_info().misses\n"
            "print(json.dumps({'scipy_loaded': loaded, 'status': status, 'parsers': parsers}))\n"
        )
        res = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], cwd=tmp_path,
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout.strip().splitlines()[-1])
        assert doc["scipy_loaded"] is False
        assert doc["status"] == [0, 0, "SystemExit(2)", 0, 0], res.stderr
        assert doc["parsers"] == 1
        assert not (tmp_path / "x.csv").exists()
        alone = tmp_path / "alone"
        alone.mkdir()
        for argv in runs:
            if argv is rejected or "--out" not in argv:
                continue
            out = argv[argv.index("--out") + 1]
            one = subprocess.run([sys.executable, "-m", "qndsim", *argv], cwd=alone,
                                 capture_output=True, text=True, env=env)
            assert one.returncode == 0, one.stderr
            assert (tmp_path / out).read_bytes() == (alone / out).read_bytes(), argv[0]

    def test_check_identity_subcommand(self):
        assert cli_main(["check-identity", "--grid", "3"]) == 0

    @pytest.mark.parametrize("grid", ["0", "-2"])
    def test_check_identity_rejects_an_empty_grid(self, capsys, grid):
        assert cli_main(["check-identity", "--grid", grid]) == 2
        out, err = capsys.readouterr()
        assert f"error: --grid must be >= 1, got {grid}\n" == err
        assert "PASS" not in out

    @pytest.mark.parametrize("atol", ["nan", "-1", "inf"])
    def test_check_identity_rejects_a_bad_tolerance(self, capsys, atol):
        assert cli_main(["check-identity", "--atol", atol]) == 2
        out, err = capsys.readouterr()
        assert err == {"nan": "error: atol must be finite, got nan\n",
                       "-1": "error: atol must be >= 0.0, got -1.0\n",
                       "inf": "error: atol must be finite, got inf\n"}[atol]
        assert "PASS" not in out and "FAIL" not in out

    def test_criteria_subcommand(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli_main(["criteria", "--seeds", "1", "--phi-steps", "3", "--shots", "200",
                         "--noise-2q", "0.05", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc["per_seed"][0]["per_observable"]) == {"VA", "VB", "PA", "PB", "C1", "C2"}
        assert set(doc["mean_average_errors"]) == {"E_input_tomo", "E_qnd", "E_output_tomo"}

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_criteria_rejects_fewer_than_one_seed(self, tmp_path, capsys, seeds):
        out = tmp_path / "report.json"
        assert cli_main(["criteria", "--seeds", seeds, "--out", str(out)]) == 2
        assert "at least one seed" in capsys.readouterr().err
        assert not out.exists()

    def test_phi_grid_beyond_the_float_range_rejected_before_work(
            self, tmp_path, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("a block was prepared")

        for stage in ("_prepare_input", "_input_analysis", "_prepare_block",
                      "_output_analysis"):
            monkeypatch.setattr(harness, stage, no_work)
        out = tmp_path / "x.csv"
        assert cli_main(["sweep", "--observable", "VA", "--exact", "--phi-step", "1e307",
                         "--phi-steps", "40", "--out", str(out)]) == 2
        assert "phi_start + (phi_count - 1) * phi_step" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--observable", "VA", "--exact", "--phi-steps", "4", "--out", "missing/a.csv"],
        ["sweep", "--observable", "VA", "--exact", "--phi-steps", "4", "--out", "."],
        ["sweep", "--config", "cfg.json"],
        ["repeat", "--observable", "C2", "--exact", "--repetitions", "2", "--out", "missing/r.csv"],
        ["repeat", "--observable", "C2", "--exact", "--repetitions", "2", "--out", "."],
        ["criteria", "--seeds", "1", "--phi-steps", "2", "--shots", "100",
         "--out", "missing/c.json"],
        ["criteria", "--seeds", "1", "--phi-steps", "2", "--shots", "100", "--out", "."],
    ], ids=["sweep missing dir", "sweep dir", "config output_path", "repeat missing dir",
            "repeat dir", "criteria missing dir", "criteria dir"])
    def test_unusable_output_path_refused_before_work(self, tmp_path, capsys, monkeypatch,
                                                      argv):
        # a path that cannot be written as a file is refused before any stage
        # runs, with one error line, and leaves no file behind
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"observable": "VB", "exact_mode": True, "phi_count": 2,
             "output_path": "missing/s.csv"}))
        assert cli_main(argv) == 2
        out, err = capsys.readouterr()
        assert [line for line in err.splitlines() if line.startswith("error:")] == \
            [err.strip()], err
        assert "output path" in err
        assert out == ""
        for stage in STAGE_CACHES:
            assert stage.cache_info().misses == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("config, argv, message", [
        ('["VA"]', ["--out", "x.csv"], "config file cfg.json must hold a JSON object"),
        ('{"observable": "VA", "exact_mode": true}', [],
         "--out or a config file's output_path is required, got None"),
        ('{"observable": "VA", "output_path": ""}', [],
         "--out or a config file's output_path is required, got ''"),
    ], ids=["not an object", "no output path", "empty output path"])
    def test_a_config_that_cannot_run_is_refused_before_work(self, tmp_path, capsys,
                                                             monkeypatch, config, argv,
                                                             message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(config)
        assert cli_main(["sweep", "--config", "cfg.json", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert all(stage.cache_info().misses == 0 for stage in STAGE_CACHES)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_missing_observable_is_an_error(self, tmp_path):
        assert cli_main(["sweep", "--out", str(tmp_path / "x.csv")]) == 2

    def test_unwritable_path_is_an_error(self):
        assert cli_main(["sweep", "--observable", "VA", "--exact", "--phi-steps", "2",
                         "--out", "/nonexistent-dir/x.csv"]) == 2
