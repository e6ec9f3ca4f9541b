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
from qndsim import circuits as circ
from qndsim import experiments as ex
from qndsim import harness
from qndsim import tomography as tom
from qndsim.circuits import NoiseModel
from qndsim.cli import main as cli_main
from qndsim.harness import (
    CSV_COLUMNS,
    SweepConfig,
    compute_fits,
    emit,
    _prepare_states,
    repeat_fixed_state,
    run_sweep,
    theory_value,
)
from qndsim.qmath import DensityMatrix, StateVector
from qndsim.experiments import OBSERVABLES, PrepParams, bell_coefficients


def read_csv(path) -> list[dict]:
    """An emitted CSV's rows, as dicts of strings."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["phi_step", "phi_start", "theta", "lam"])
    def test_non_finite_fields_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SweepConfig("VA", **{name: value})

    def test_phi_grid(self):
        cfg = SweepConfig("VA", phi_count=3, phi_step=0.5, phi_start=1.0)
        assert cfg.phi_values() == [1.0, 1.5, 2.0]

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

    def test_theory_value_helper(self):
        chi = bell_coefficients(PrepParams(math.pi / 2, math.pi)).state_vector()
        assert theory_value("C2", chi) == pytest.approx(1.0)
        assert theory_value("VA", chi) == pytest.approx(0.0, abs=1e-12)


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
    def test_any_nonzero_probability_selects_density_engine(self, noise, kind):
        # a readout flip alone still runs the density engine, so its samples
        # stay those of earlier versions; all zeros is the pure engine
        chi, out = _prepare_states([PrepParams(0.3, math.pi)], ex.setting_for("C2"), noise)
        assert all(isinstance(s, kind) for s in chi + out)

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

    @pytest.mark.parametrize("observable", OBSERVABLES)
    def test_exact_repetitions_are_one_record(self, observable):
        # exact data depend on the state alone, so only the seed tag differs
        reps = repeat_fixed_state(SweepConfig(observable, exact_mode=True), 20)
        assert [r.seed for r in reps] == list(range(20))
        assert all(dataclasses.replace(r, seed=0) == reps[0] for r in reps)

    def test_exact_repetitions_analyze_each_state_once(self, monkeypatch):
        # one input and one output reconstruction per 16-point block
        calls = []
        reconstruct = tom.reconstruct_stack
        monkeypatch.setattr(tom, "reconstruct_stack",
                            lambda data: calls.append(len(data)) or reconstruct(data))
        repeat_fixed_state(SweepConfig("C2", exact_mode=True), 50)
        assert calls == [1] * 8


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
        fits = compute_fits(records, "C1")
        path = tmp_path / "sweep.json"
        emit(records, "json", str(path), cfg, fits)
        doc = json.loads(path.read_text())
        assert doc["config"]["master_seed"] == 17
        assert doc["config"]["shots_are_per_setting"] is True
        assert doc["fits"]["qnd_scale"]["parameter"] == pytest.approx(1.0)
        assert len(doc["records"]) == 3
        assert doc["records"][0]["branches"][0]["outcome"] == "0"

    def test_json_file_is_json_dump_bytes(self, tmp_path):
        # the document goes out in one write; the bytes are json.dump's
        cfg = SweepConfig("C2", exact_mode=True, phi_count=6)
        records = run_sweep(cfg)
        fits = compute_fits(records, "C2")
        assert "tomo_out_mixed_fraction" in fits
        path = tmp_path / "sweep.json"
        emit(records, "json", str(path), cfg, fits)
        text = path.read_text(encoding="utf-8")
        want = io.StringIO()
        json.dump(json.loads(text), want, indent=2)
        want.write("\n")
        assert text == want.getvalue()

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
        fits = compute_fits(records, "C2")
        assert fits["qnd_scale"].parameter == pytest.approx(1.0, abs=1e-9)
        assert fits["tomo_out_mixed_fraction"].parameter == pytest.approx(0.0, abs=1e-3)

    def test_scaled_data_recovered(self):
        records = run_sweep(SweepConfig("VA", exact_mode=True, phi_count=16))
        scaled = [dataclasses.replace(r, qnd_estimate=0.8 * r.qnd_estimate) for r in records]
        fits = compute_fits(scaled, "VA")
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

    def test_repeat_subcommand(self, tmp_path):
        out = tmp_path / "rep.json"
        assert cli_main(["repeat", "--observable", "C2", "--repetitions", "2",
                         "--shots", "200", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["records"]) == 2

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
        # scipy, and every subcommand runs with scipy blocked
        src = os.path.dirname(os.path.dirname(os.path.abspath(qndsim.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, qndsim.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True, env=env,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"
        runs = [
            ["sweep", "--observable", "C2", "--exact", "--phi-steps", "3", "--format", "json",
             "--out", "s.json"],
            ["repeat", "--observable", "C1", "--repetitions", "2", "--shots", "100",
             "--out", "r.csv"],
            ["criteria", "--seeds", "1", "--phi-steps", "2", "--shots", "100",
             "--noise-2q", "0.05", "--out", "c.json"],
            ["check-identity", "--grid", "2"],
        ]
        blocked = ("import sys; sys.modules['scipy'] = None; from qndsim.cli import main; "
                   "sys.exit(main(sys.argv[1:]))")
        for argv in runs:
            res = subprocess.run([sys.executable, "-c", blocked, *argv], cwd=tmp_path,
                                 capture_output=True, text=True, env=env)
            assert res.returncode == 0, (argv[0], res.stderr)

    def test_check_identity_subcommand(self):
        assert cli_main(["check-identity", "--grid", "3"]) == 0

    @pytest.mark.parametrize("grid", ["0", "-2"])
    def test_check_identity_rejects_an_empty_grid(self, capsys, grid):
        assert cli_main(["check-identity", "--grid", grid]) == 2
        out, err = capsys.readouterr()
        assert "--grid must be at least 1" in err
        assert "PASS" not in out

    @pytest.mark.parametrize("atol", ["nan", "-1", "inf"])
    def test_check_identity_rejects_a_bad_tolerance(self, capsys, atol):
        assert cli_main(["check-identity", "--atol", atol]) == 2
        out, err = capsys.readouterr()
        assert "atol must be finite and nonnegative" in err
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

        monkeypatch.setattr(harness, "_prepare_block", no_work)
        out = tmp_path / "x.csv"
        assert cli_main(["sweep", "--observable", "VA", "--exact", "--phi-step", "1e307",
                         "--phi-steps", "40", "--out", str(out)]) == 2
        assert "phi_start + (phi_count - 1) * phi_step" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_observable_is_an_error(self, tmp_path):
        assert cli_main(["sweep", "--out", str(tmp_path / "x.csv")]) == 2

    def test_unwritable_path_is_an_error(self):
        assert cli_main(["sweep", "--observable", "VA", "--exact", "--phi-steps", "2",
                         "--out", "/nonexistent-dir/x.csv"]) == 2
