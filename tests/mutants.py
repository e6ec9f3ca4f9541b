"""Mutation checks: each mutant is a one-place patch of ``src/`` that its
named tests must kill.

Run from anywhere as ``python tests/mutants.py``; pytest does not collect
this file. For each mutant the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, requires the mutant's ``old``
text to occur exactly once in its file, applies the patch and runs
``pytest -q -x`` on the named tests: a test file, or a pytest node id
(``file::test`` or ``file::Class::test``) naming the tests that kill the
mutant, which runs far faster than the whole file. The run must exit with
1, a test failure: any other code (a collection error, or a node id that
names no test, say) kills nothing. The unmutated copy must first pass
every named test. Exits 1 if the unmutated copy fails or any mutant
survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    test: str  # the test file or node id that must kill it, relative to the root


ANALYSIS = "src/qndsim/analysis.py"
API = "src/qndsim/__init__.py"
CIRCUITS = "src/qndsim/circuits.py"
CLI = "src/qndsim/cli.py"
EXPERIMENTS = "src/qndsim/experiments.py"
HARNESS = "src/qndsim/harness.py"
OBSERVABLES = "src/qndsim/observables.py"
QMATH = "src/qndsim/qmath.py"
TOMOGRAPHY = "src/qndsim/tomography.py"

MUTANTS = (
    Mutant(
        "no trace renormalization in _evolve_density", CIRCUITS,
        "    m /= np.trace(m, axis1=-2, axis2=-1).real[:, None, None]\n", "",
        "tests/test_golden.py::test_records_match_golden[VA-noisy]",
    ),
    Mutant(
        "depolarizing weight halved in _depolarize", CIRCUITS,
        "    out = (1.0 - p) * m\n    out += p * mixed\n",
        "    out = (1.0 - p / 2) * m\n    out += p / 2 * mixed\n",
        "tests/test_circuits.py::TestRunNoisy::test_depolarized_x_gate",
    ),
    Mutant(
        "one matrix product for the readout confusion", CIRCUITS,
        "probs = np.matmul(_confusion(m, readout_flip), probs[:, :, None])[:, :, 0]",
        "probs = probs @ _confusion(m, readout_flip).T",
        "tests/test_golden.py::test_records_match_golden[VA-noisy]",
    ),
    Mutant(
        "input analysis ignores the master seed", HARNESS,
        "tom.collect(probs, shots, master_seed, _block_paths(1, indices))",
        "tom.collect(probs, shots, 0, _block_paths(1, indices))",
        "tests/test_blocks.py::test_cached_blocks_match_per_point_reference",
    ),
    Mutant(
        "output streams restart per block", HARNESS,
        "_block_paths(2, indices)",
        "_block_paths(2, range(len(indices)))",
        "tests/test_blocks.py::test_cached_blocks_match_per_point_reference",
    ),
    Mutant(
        "every point's branches scored against the first point's kets", HARNESS,
        "ket = block.kets[at[branch], col[branch] - 1]",
        "ket = block.kets[0 * at[branch], col[branch] - 1]",
        "tests/test_blocks.py::test_cached_blocks_match_per_point_reference",
    ),
    Mutant(
        "every point scored against the first point's output mixture", HARNESS,
        "targets = block.mixture[at]", "targets = block.mixture[0 * at]",
        "tests/test_blocks.py::test_cached_blocks_match_per_point_reference",
    ),
    Mutant(
        "an output-analysis key without the draw", HARNESS,
        "    out = _output_analysis(setting, params, config.noise, draw)\n",
        "    out = _measure_block.__dict__.setdefault(\"out\", {}).setdefault(\n"
        "        (setting, params, config.noise),\n"
        "        _output_analysis(setting, params, config.noise, draw))\n",
        "tests/test_blocks.py::test_cached_blocks_match_per_point_reference",
    ),
    Mutant(
        "an output-analysis key without the noise", HARNESS,
        "    out = _output_analysis(setting, params, config.noise, draw)\n",
        "    out = _measure_block.__dict__.setdefault(\"out\", {}).setdefault(\n"
        "        (setting, params, draw),\n"
        "        _output_analysis(setting, params, config.noise, draw))\n",
        "tests/test_blocks.py"
        "::test_observables_of_a_setting_share_its_stages_and_noise_keeps_them_apart",
    ),
    Mutant(
        "PB's records read PA's output values", HARNESS,
        "out.values[obs].tolist()", "out.values[next(iter(out.values))].tolist()",
        "tests/test_blocks.py::test_cached_blocks_match_per_point_reference",
    ),
    Mutant(
        "PB's records read PA's ancilla estimates", HARNESS,
        "out.qnd[obs].tolist()", "out.qnd[next(iter(out.qnd))].tolist()",
        "tests/test_blocks.py::test_cached_blocks_match_per_point_reference",
    ),
    Mutant(
        "PB's records read PA's theory values", HARNESS,
        "theory = _prepare_input(params, config.noise)[2][obs].tolist()",
        "theory = _prepare_input(params, config.noise)[2][\"PA\" if obs == \"PB\" else obs]"
        ".tolist()",
        "tests/test_blocks.py"
        "::test_observables_of_a_setting_share_its_stages_and_noise_keeps_them_apart",
    ),
    Mutant(
        "VB's row reads qubit 0", EXPERIMENTS,
        "3 * math.pi / 2, visibility, 1),", "3 * math.pi / 2, visibility, 0),",
        "tests/test_blocks.py::test_cached_blocks_match_per_point_reference",
    ),
    Mutant(
        "the concurrence theory from observable_set, not concurrence_pure", HARNESS,
        "concurrence = np.array([concurrence_pure(c) for c in chi])",
        "concurrence = observable_set(target)[\"C\"]",
        "tests/test_golden.py::test_records_match_golden[C1-sampled]",
    ),
    Mutant(
        "the last partial block one point short", HARNESS,
        "stop = min(start + BLOCK_POINTS, count)\n",
        "stop = min(start + BLOCK_POINTS, count - (count % BLOCK_POINTS > 1))\n",
        "tests/test_blocks.py::test_cached_blocks_match_per_point_reference",
    ),
    Mutant(
        "repetitions tagged with the master seed", HARNESS,
        "lambda r: (r, fixed.phi_start, r)", "lambda r: (r, fixed.phi_start, fixed.master_seed)",
        "tests/test_blocks.py::test_cached_blocks_match_per_point_reference",
    ),
    Mutant(
        "the CLI keeps a disabled model's probabilities under a noise flag", CLI,
        "            noise = {}  # a disabled model's probabilities are all zero\n",
        "            noise = {k: v for k, v in noise.items() if k != \"enabled\"}\n",
        "tests/test_harness.py::TestCli::test_noise_flags_overlay_config_noise",
    ),
    Mutant(
        "no top-level or noise key check", HARNESS,
        "    if unknown:\n        raise ValueError(f\"unknown {what} key(s)",
        "    if False:\n        raise ValueError(f\"unknown {what} key(s)",
        "tests/test_harness.py::TestConfig::test_from_dict_rejects_unknown_keys",
    ),
    Mutant(
        "the JSON config echo indented by 1", HARNESS,
        "f'  \"config\": {json.dumps(echo)},'",
        "f' \"config\": {json.dumps(echo)},'",
        "tests/test_harness.py::TestEmission::test_json_file_is_json_dump_bytes",
    ),
    Mutant(
        "JSON output without its trailing newline", HARNESS,
        "fh.write(\"\\n\".join(lines) + \"\\n\")",
        "fh.write(\"\\n\".join(lines))",
        "tests/test_harness.py::TestEmission::test_json_file_is_json_dump_bytes",
    ),
    Mutant(
        "a JSON record written without its indent", HARNESS,
        "\"    \" + json.dumps(_record_dict(r))",
        "json.dumps(_record_dict(r))",
        "tests/test_harness.py::TestEmission::test_json_file_is_json_dump_bytes",
    ),
    Mutant(
        "JSON records joined on one line", HARNESS,
        "\",\\n\".join(",
        "\", \".join(",
        "tests/test_harness.py::TestEmission::test_json_file_is_json_dump_bytes",
    ),
    Mutant(
        "emit takes any config", HARNESS,
        "    if config is not None:\n        _check_config(config)\n", "",
        "tests/test_inputs.py::test_a_wrong_type_is_refused_naming_its_argument",
    ),
    Mutant(
        "emit takes fits keyed by anything", HARNESS,
        "isinstance(k, str) and isinstance(f, FitResult)", "isinstance(f, FitResult)",
        "tests/test_inputs.py::test_a_wrong_type_is_refused_naming_its_argument",
    ),
    Mutant(
        "run_sweep takes any config", HARNESS,
        "    _check_config(config)\n    return _measure_points(", "    return _measure_points(",
        "tests/test_inputs.py::test_a_wrong_type_is_refused_naming_its_argument",
    ),
    Mutant(
        "fixed_state_config takes any config", HARNESS,
        "    _check_config(config)\n    return replace(", "    return replace(",
        "tests/test_inputs.py::test_a_wrong_type_is_refused_naming_its_argument",
    ),
    Mutant(
        "compute_fits fits mixed records", HARNESS,
        "    if len(held) > 1:\n", "    if False:\n",
        "tests/test_inputs.py::test_compute_fits_refuses_an_observable_not_the_records_own",
    ),
    Mutant(
        "the CLI drops a disabled config noise unchecked under a noise flag", CLI,
        "            SweepConfig.from_dict(values)  # checks the file's own model first\n", "",
        "tests/test_harness.py"
        "::TestCli::test_a_disabled_config_noise_is_checked_under_a_noise_flag",
    ),
    Mutant(
        "a repeat run takes a point it would not run", CLI,
        "if values.get(key) is not None and getattr(config, key) != getattr(fixed, key):",
        "if False:",
        "tests/test_harness.py::TestCli::test_repeat_refuses_a_point_it_would_not_run",
    ),
    Mutant(
        "emit dropped from the public API", API,
        "\"run_criteria_protocol\", \"compute_fits\", \"emit\",",
        "\"run_criteria_protocol\", \"compute_fits\",",
        "tests/test_api.py::test_all_is_the_declared_api",
    ),
    Mutant(
        "a repeat run echoes the config as given", CLI,
        "    config = fixed_state_config(config)\n", "",
        "tests/test_harness.py::TestCli::test_repeat_echo_names_the_point_its_records_ran",
    ),
    Mutant(
        "a disabled noise model skips its checks", CIRCUITS,
        "            v = _real(name, v, 0.0, 1.0)\n",
        "            v = _real(name, v, 0.0, 1.0) if enabled else v\n",
        "tests/test_inputs.py::test_a_bad_value_is_refused_before_any_work",
    ),
    Mutant(
        "input estimates left writeable", HARNESS,
        "    est.flags.writeable = False\n", "",
        "tests/test_blocks.py::test_prepared_block_holds_owned_read_only_arrays",
    ),
    Mutant(
        "a readout flip alone runs on the pure engine", HARNESS,
        "return bool(noise.depol_1q or noise.depol_2q or noise.readout_flip)",
        "return bool(noise.depol_1q or noise.depol_2q)",
        "tests/test_harness.py"
        "::TestSampledSweeps::test_any_nonzero_probability_selects_density_engine",
    ),
    Mutant(
        "np.unique sorts the fit's breakpoints", ANALYSIS,
        "edges = _sorted_distinct(np.concatenate(([0.0, 1.0], breaks)))",
        "edges = np.unique(np.concatenate(([0.0, 1.0], breaks)))",
        "tests/test_analysis.py::TestFitMixedFraction::test_fit_does_not_import_numpy_ma",
    ),
    Mutant(
        "the fit drops its first interval, from 0 to the smallest breakpoint", ANALYSIS,
        "np.concatenate(([0.0, 1.0], breaks))", "np.concatenate(([1.0, 1.0], breaks))",
        "tests/test_analysis.py"
        "::TestFitMixedFraction::test_entangled_noiseless_data_give_exactly_zero",
    ),
    Mutant(
        "compute_fits scales a theory whose squares underflow", HARNESS,
        "scalable = float(np.dot(theory, theory)) > 0.0", "scalable = any(theory)",
        "tests/test_harness.py::TestCli::test_underflowing_theory_sweep_omits_scale_fits",
    ),
    Mutant(
        "the input analysis keeps the first caller's observable values", HARNESS,
        "    tomo_in = _observable_values(obs, est_in).tolist()\n",
        "    tomo_in = _measure_block.__dict__.setdefault(\"first\", {}).setdefault(\n"
        "        (params, config.noise, draw), _observable_values(obs, est_in).tolist())\n",
        "tests/test_blocks.py"
        "::test_observables_of_a_setting_share_its_stages_and_noise_keeps_them_apart",
    ),
    Mutant(
        "no output path check", CLI,
        "directory does not exist.\"\"\"\n",
        "directory does not exist.\"\"\"\n    return\n",
        "tests/test_harness.py::TestCli::test_unusable_output_path_refused_before_work",
    ),
    Mutant(
        "visibility's second rotation on A with the wrong sign", EXPERIMENTS,
        "ry(0, -_HALF_PI)", "ry(0, _HALF_PI)",
        "tests/test_experiments.py"
        "::TestCircuitTwoOutputs::test_half_angle_reproduces_closed_form[visibility]",
    ),
    Mutant(
        "circuit 2's concurrence circuit without its Bell-basis rotation", EXPERIMENTS,
        "rx(1, -_HALF_PI), cnot(2, 3), h(2)),", "rx(1, -_HALF_PI)),",
        "tests/test_experiments.py"
        "::TestCircuitTwoOutputs::test_concurrence_on_bell_state_single_branch",
    ),
    Mutant(
        "circuit 1 with cnot(0, 2) twice", EXPERIMENTS,
        "cnot(0, 2), cnot(1, 2)", "cnot(0, 2), cnot(0, 2)",
        "tests/test_experiments.py::TestCircuitOne::test_ground_state_is_balanced",
    ),
    Mutant(
        "circuit 2 without the ancilla CNOT C->D", EXPERIMENTS,
        "ry(2, _HALF_PI), cnot(2, 3),", "ry(2, _HALF_PI),",
        "tests/test_experiments.py"
        "::TestCircuitTwoOutputs::test_concurrence_on_bell_state_single_branch",
    ),
    Mutant(
        "a setting's ancillas counting the pair's qubits too", EXPERIMENTS,
        "for q in g.targets} - {0, 1}))", "for q in g.targets}))",
        "tests/test_experiments.py::TestCircuitOne::test_bell_input_is_deterministic",
    ),
    Mutant(
        "VB's row before VA's, so the visibility setting's observables reversed", EXPERIMENTS,
        "    \"VA\": ObservableRow(MeasurementSetting(\"visibility\"), 0.0, visibility, 0),\n"
        "    \"VB\": ObservableRow(MeasurementSetting(\"visibility\"), 3 * math.pi / 2, "
        "visibility, 1),\n",
        "    \"VB\": ObservableRow(MeasurementSetting(\"visibility\"), 3 * math.pi / 2, "
        "visibility, 1),\n"
        "    \"VA\": ObservableRow(MeasurementSetting(\"visibility\"), 0.0, visibility, 0),\n",
        "tests/test_experiments.py::TestGateTable::test_every_observable_has_one_row_in_its_order",
    ),
    Mutant(
        "the observable table missing its last row", EXPERIMENTS,
        "    \"C2\": ObservableRow(MeasurementSetting(\"concurrence2\"), math.pi),\n", "",
        "tests/test_experiments.py::TestGateTable::test_every_observable_has_one_row_in_its_order",
    ),
    Mutant(
        "PB's default theta off by pi/2", EXPERIMENTS,
        "math.pi, predictability, 1),", "math.pi / 2, predictability, 1),",
        "tests/test_harness.py::TestConfig::test_theta_defaults",
    ),
    Mutant(
        "C1's formula given a kernel", EXPERIMENTS,
        "MeasurementSetting(\"concurrence1\"), math.pi),",
        "MeasurementSetting(\"concurrence1\"), math.pi, visibility, 0),",
        "tests/test_harness.py::TestFits::test_each_observable_gets_the_fits_of_its_formula",
    ),
    Mutant(
        "the two-ancilla parities swapped", EXPERIMENTS,
        "np.moveaxis(f.reshape(2, 2, -1), qubit, 0)",
        "np.moveaxis(f.reshape(2, 2, -1), 1 - qubit, 0)",
        "tests/test_experiments.py::TestEstimators::test_visibility_sweep",
    ),
    Mutant(
        "_depolarize's mixed term without its / 2**s", CIRCUITS,
        "eye = np.eye(2**s, dtype=complex) / 2**s\n",
        "eye = np.eye(2**s, dtype=complex)\n",
        "tests/test_circuits.py"
        "::TestRunNoisy::test_bell_circuit_two_qubit_depolarizing_gives_werner",
    ),
    Mutant(
        "_depolarize's gather reading the marginal transposed", CIRCUITS,
        "rows, cols, weight = kept[:, None], kept[None, :],",
        "rows, cols, weight = kept[None, :], kept[:, None],",
        "tests/test_circuits.py::TestDepolarize::test_listed_supports[0.05-4-support0]",
    ),
    Mutant(
        "branch data without the empty-branch threshold", EXPERIMENTS,
        "    empty = probability < EMPTY_BRANCH_PROB\n",
        "    empty = probability < 0.0\n",
        "tests/test_experiments.py"
        "::TestCircuitTwoOutputs::test_visibility_zero_branches_at_half_pi",
    ),
    Mutant(
        "an empty branch keeps its rounding-level probability", EXPERIMENTS,
        "    probability[empty] = 0.0\n", "",
        "tests/test_bit_identity.py::test_branch_data_matches_the_tuple_code_on_empty_branches"
        "[1.5707963267948966-3.141592653589793]",
    ),
    Mutant(
        "an empty branch keeps its product ket", EXPERIMENTS,
        "    kets[empty] = 0.0\n", "",
        "tests/test_bit_identity.py"
        "::test_branch_data_matches_the_tuple_code_on_empty_branches[0.0-0.0]",
    ),
    Mutant(
        "circuit 1's branches read from the other ancilla bit", EXPERIMENTS,
        "amps[:, :, bit] for bit in range(2)", "amps[:, :, 1 - bit] for bit in range(2)",
        "tests/test_experiments.py::TestConditionalTargets::test_simulated_branches_match_targets",
    ),
    Mutant(
        "the output mixture weighted by the square root of the probabilities", EXPERIMENTS,
        "m += probability[:, j, None, None] *", "m += np.sqrt(probability[:, j, None, None]) *",
        "tests/test_experiments.py::TestOutputMixture::test_matches_traced_circuit_output",
    ),
    Mutant(
        "the visibility estimator summed in another order", EXPERIMENTS,
        "grid[0, 0] + grid[0, 1] - grid[1, 0] - grid[1, 1]",
        "grid[0, 0] - grid[1, 0] + grid[0, 1] - grid[1, 1]",
        "tests/test_golden.py::test_records_match_golden[VA-sampled]",
    ),
    Mutant(
        "a branch result reliable only above the floor", ANALYSIS,
        "return bool(self.probability >= RELIABLE_BRANCH_PROB)",
        "return bool(self.probability > RELIABLE_BRANCH_PROB)",
        "tests/test_analysis.py::test_reliability_floor_is_inclusive",
    ),
    Mutant(
        "the output grid without its est.rows filter", HARNESS,
        "points, columns = (a[est.rows] for a in np.nonzero(kept > 0))",
        "points, columns = np.nonzero(kept > 0)",
        "tests/test_bit_identity.py::test_block_postselection_matches_one_branch_at_a_time",
    ),
    Mutant(
        "retained shots read from the grid's column 0", HARNESS,
        "shots[points, columns] = kept[points, columns]",
        "shots[points, columns] = kept[points, 0]",
        "tests/test_bit_identity.py::test_block_postselection_matches_one_branch_at_a_time",
    ),
    Mutant(
        "every branch scored against the unconditional target", HARNESS,
        "    targets[branch] = ket[:, :, None] * ket[:, None, :].conj()\n", "",
        "tests/test_golden.py::test_records_match_golden[VA-sampled]",
    ),
    Mutant(
        "an empty branch is scored", HARNESS,
        "np.insert(block.probability > 0, 0, True, axis=1)",
        "np.insert(block.probability >= 0, 0, True, axis=1)",
        "tests/test_blocks.py::test_a_sampled_block_analyzes_its_estimates_as_two_stacks",
    ),
    Mutant(
        "column 0 scored against the last branch's target", HARNESS,
        "    branch = col > 0\n", "    branch = col >= 0\n",
        "tests/test_golden.py::test_records_match_golden[VA-exact]",
    ),
    Mutant(
        "the CSV row sort loses its branch key", HARNESS,
        "rows.append(((phi, seed, b[\"outcome\"]), row))",
        "rows.append(((phi, seed, \"\"), row))",
        "tests/test_harness.py"
        "::TestEmission::test_csv_of_phis_tied_across_a_block_boundary_is_the_rowwise_bytes",
    ),
    Mutant(
        "a branch row keeps its point row's tomo_post cell", HARNESS,
        "row[tomo], row[fid] = _fmt(b[\"tomo_post\"]), _fmt(b[\"fidelity_post\"])",
        "row[fid] = _fmt(b[\"fidelity_post\"])",
        "tests/test_harness.py::TestEmission::test_csv_is_the_rowwise_bytes",
    ),
    Mutant(
        "a branch row keeps its point row's fidelity_post cell", HARNESS,
        "row[tomo], row[fid] = _fmt(b[\"tomo_post\"]), _fmt(b[\"fidelity_post\"])",
        "row[tomo] = _fmt(b[\"tomo_post\"])",
        "tests/test_harness.py::TestEmission::test_csv_is_the_rowwise_bytes",
    ),
    Mutant(
        "branch_reliable written with str()", HARNESS,
        "_fmt(b[\"reliable\"])", "str(b[\"reliable\"])",
        "tests/test_harness.py::TestEmission::test_csv_branch_rows",
    ),
    Mutant(
        "a CSV float cell written with the value's own repr", HARNESS,
        "        return float.__repr__(value)\n", "        return repr(value)\n",
        "tests/test_harness.py::TestEmission::test_numpy_scalar_config_writes_the_builtin_bytes",
    ),
    Mutant(
        "config angles stored as given", HARNESS,
        "store(name, _real(name, getattr(self, name)))",
        "_real(name, getattr(self, name))",
        "tests/test_harness.py::TestEmission::test_numpy_scalar_config_writes_the_builtin_bytes",
    ),
    Mutant(
        "config counts and seed stored as given", HARNESS,
        "        store(\"shots\", _integer(\"shots\", self.shots, low, high))\n"
        "        store(\"master_seed\", _integer(\"master_seed\", self.master_seed, 0))\n",
        "        _integer(\"shots\", self.shots, low, high)\n"
        "        _integer(\"master_seed\", self.master_seed, 0)\n",
        "tests/test_harness.py::test_criteria_protocol_echoes_builtin_seeds",
    ),
    Mutant(
        "exact mode takes a negative shot count", HARNESS,
        "(0, math.inf) if self.exact_mode", "(-math.inf, math.inf) if self.exact_mode",
        "tests/test_harness.py::TestConfig::test_exact_mode_shots_are_nonnegative",
    ),
    Mutant(
        "phi_count's bound off by one", HARNESS,
        "_integer(\"phi_count\", count, 1, MAX_POINTS)",
        "_integer(\"phi_count\", count, 1, MAX_POINTS - 1)",
        "tests/test_api.py::test_the_largest_point_index_reaches_the_draws_as_its_own_word",
    ),
    Mutant(
        "the real-number helper accepts a bool", QMATH,
        "if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)):",
        "if not isinstance(value, (float, numbers.Real)):",
        "tests/test_inputs.py::test_a_bad_value_is_refused_before_any_work",
    ),
    Mutant(
        "the integer helper accepts a bool", QMATH,
        "if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):",
        "if not isinstance(value, (int, numbers.Integral)):",
        "tests/test_inputs.py::test_a_bad_value_is_refused_before_any_work",
    ),
    Mutant(
        "the real-number helper returns the value as given", QMATH,
        "    return _in_range(name, number, low, high)\n",
        "    _in_range(name, number, low, high)\n    return value\n",
        "tests/test_inputs.py::test_a_numpy_scalar_gives_its_builtin_twin",
    ),
    Mutant(
        "the integer helper returns the value as given", QMATH,
        "    return _in_range(name, int(value), low, high)\n",
        "    _in_range(name, int(value), low, high)\n    return value\n",
        "tests/test_inputs.py::test_a_numpy_scalar_gives_its_builtin_twin",
    ),
    Mutant(
        # not `number >= high` in _in_range: that refuses the gate table's
        # cnot(2, 3) when the package is imported, which no test can report
        "the real-number helper's upper bound exclusive", QMATH,
        "    return _in_range(name, number, low, high)\n",
        "    return _in_range(name, number, low, math.nextafter(high, -math.inf))\n",
        "tests/test_inputs.py::test_a_numpy_scalar_gives_its_builtin_twin",
    ),
    Mutant(
        "the basis index bound off by one", QMATH,
        "_integer(\"basis index\", index, 0, 2**num_qubits - 1)",
        "_integer(\"basis index\", index, 0, 2**num_qubits)",
        "tests/test_qmath.py::TestStateTypes::test_values_are_frozen",
    ),
    Mutant(
        "the qubit-index helper accepts a bool", QMATH,
        "_integer(name, q, 0, count - 1) for q in indices]",
        "_integer(name, int(q) if isinstance(q, (bool, np.bool_)) else q, 0, count - 1)"
        " for q in indices]",
        "tests/test_inputs.py::test_a_bad_index_is_refused_before_any_work",
    ),
    Mutant(
        "the qubit-index helper lets a repeated index through", QMATH,
        "    if len(set(qubits)) != len(qubits):\n", "    if False:\n",
        "tests/test_inputs.py::test_a_bad_index_is_refused_before_any_work",
    ),
    Mutant(
        "the qubit-index helper's upper bound off by one", QMATH,
        "_integer(name, q, 0, count - 1) for q in indices]",
        "_integer(name, q, 0, count) for q in indices]",
        "tests/test_inputs.py::test_a_bad_index_is_refused_before_any_work",
    ),
    Mutant(
        "the Hermitian check takes a non-finite matrix", QMATH,
        " or not np.isfinite(m).all():", ":",
        "tests/test_inputs.py::test_a_non_finite_matrix_has_no_root",
    ),
    Mutant(
        "a gate keeps its targets as given", CIRCUITS,
        "        object.__setattr__(self, \"targets\", targets)\n", "",
        "tests/test_inputs.py::test_a_numpy_index_gives_its_builtin_twin",
    ),
    Mutant(
        "postselect_counts takes an outcome that is not a string", CIRCUITS,
        "not isinstance(outcome, str) or ", "",
        "tests/test_inputs.py::test_an_outcome_that_is_not_a_string_is_refused",
    ),
    Mutant(
        "criteria seeds echoed as given", HARNESS,
        "[cfgs[0].master_seed for cfgs in configs]", "list(seeds)",
        "tests/test_harness.py::test_criteria_protocol_echoes_builtin_seeds",
    ),
    Mutant(
        "a row drawn from its neighbour's distribution", CIRCUITS,
        "counts[row] = gen.multinomial(shots, pvals[row])",
        "counts[row] = gen.multinomial(shots, pvals[row - 1])",
        "tests/test_streams.py::test_master_seeds_of_every_word_count[0]",
    ),
    Mutant(
        "the readout flip dropped", CIRCUITS,
        "    if readout_flip > 0.0:\n", "    if False:\n",
        "tests/test_streams.py::test_draws_follow_their_distributions",
    ),
    Mutant(
        "a bool array of seed paths drawn as integers", CIRCUITS,
        "    if seed_paths.dtype.kind not in \"iu\":\n",
        "    if seed_paths.dtype.kind not in \"iub\":\n",
        "tests/test_streams.py::TestSeedInput::test_path_elements[True]",
    ),
    Mutant(
        "fewer seed paths than rows taken", CIRCUITS,
        "    if len(seed_paths) != rows:\n", "    if len(seed_paths) > rows:\n",
        "tests/test_streams.py::TestSeedInput::test_one_path_per_row[paths0]",
    ),
    Mutant(
        "seed path elements beyond 32 bits wrapped", CIRCUITS,
        "int(seed_paths.max()) <= _MASK32:", "int(seed_paths.max()) <= 2**64 - 1:",
        "tests/test_streams.py::test_path_elements_beyond_one_word",
    ),
    Mutant(
        "a negative seed path element wrapped", CIRCUITS,
        "not 0 <= int(seed_paths.min())", "not -1 <= int(seed_paths.min())",
        "tests/test_streams.py::test_path_elements_beyond_one_word",
    ),
    Mutant(
        "the noise check refuses only None", HARNESS,
        "        if not isinstance(self.noise, NoiseModel):\n", "        if self.noise is None:\n",
        "tests/test_inputs.py::test_a_noise_that_is_not_a_noise_model_is_refused",
    ),
    Mutant(
        "a sweep config takes any noise", HARNESS,
        "        if not isinstance(self.noise, NoiseModel):\n", "        if False:\n",
        "tests/test_inputs.py::test_a_noise_that_is_not_a_noise_model_is_refused",
    ),
    Mutant(
        "a layer takes entries that are not gates", CIRCUITS,
        "            if not isinstance(g, Gate):\n", "            if False:\n",
        "tests/test_blocks.py::test_malformed_layers_rejected_before_any_work",
    ),
    Mutant(
        "a layer may be short of an entry", CIRCUITS,
        "or len(layer) != slices:", "or len(layer) > slices:",
        "tests/test_blocks.py::test_stack_arguments_rejected",
    ),
    Mutant(
        "a layer's gates may target the register's size", CIRCUITS,
        "if any(q >= num_qubits for g in groups", "if any(q > num_qubits for g in groups",
        "tests/test_blocks.py::test_bad_layers_rejected_before_any_work",
    ),
    Mutant(
        "a layer's gates may act on two supports", CIRCUITS,
        "if len({g.targets for g in groups}) > 1:", "if len({g.targets for g in groups}) > 2:",
        "tests/test_blocks.py::test_bad_layers_rejected_before_any_work",
    ),
    Mutant(
        "a gate on some slices applied to every slice", CIRCUITS,
        "slice(None) if len(index) == slices else index", "slice(None)",
        "tests/test_batch.py::test_exact_collection_reads_the_same_stack",
    ),
    Mutant(
        "a circuit takes gates that are not gates", CIRCUITS,
        "and all(isinstance(g, Gate) for g in self.gates)", "and True",
        "tests/test_inputs.py::test_gates_that_are_not_gates_are_refused",
    ),
    Mutant(
        "the tomography readout ignores the readout flip", TOMOGRAPHY,
        "_outcome_distribution(stack, every_qubit, noise.readout_flip)",
        "_outcome_distribution(stack, every_qubit, 0.0)",
        "tests/test_reference.py::test_exact_input_records_match_the_reference",
    ),
    Mutant(
        "the R setting's pre-rotation turned the wrong way", TOMOGRAPHY,
        "    \"R\": partial(rx, angle=math.pi / 2),", "    \"R\": partial(rx, angle=-math.pi / 2),",
        "tests/test_reference.py::test_the_noiseless_reference_recovers_the_ideal_input",
    ),
    Mutant(
        "the fit's Werner mixtures with I/2 for I/4", ANALYSIS,
        "p_hat * np.eye(4) / 4.0", "p_hat * np.eye(4) / 2.0",
        "tests/test_analysis.py::TestFitMixedFraction::test_fit_is_the_per_point_fit",
    ),
    Mutant(
        "every point's Werner mixture built from the first point's state", ANALYSIS,
        "(chi[:, :, None] * chi[:, None, :].conj())", "(chi[:1, :, None] * chi[:1, None, :].conj())",
        "tests/test_analysis.py::TestFitMixedFraction::test_fit_is_the_per_point_fit",
    ),
    Mutant(
        "the concurrence of a stack reads the first slice's last root", OBSERVABLES,
        "r[:, 0] - r[:, 1] - r[:, 2] - r[:, 3])\n\n\ndef concurrence_pure",
        "r[:, 0] - r[:, 1] - r[:, 2] - r[:1, 3])\n\n\ndef concurrence_pure",
        "tests/test_observables.py::TestConcurrence::test_each_slice_of_a_stack_is_its_stack_of_one",
    ),
    Mutant(
        "bell_coefficients takes anything", EXPERIMENTS,
        "circuit output.\"\"\"\n    if not isinstance(p, PrepParams):",
        "circuit output.\"\"\"\n    if False:",
        "tests/test_inputs.py::test_a_wrong_type_is_refused_naming_its_argument",
    ),
    Mutant(
        "prep_circuit takes anything", EXPERIMENTS,
        "CRY(theta) A->B.\"\"\"\n    if not isinstance(p, PrepParams):",
        "CRY(theta) A->B.\"\"\"\n    if False:",
        "tests/test_inputs.py::test_a_wrong_type_is_refused_naming_its_argument",
    ),
    Mutant(
        "measurement_circuit takes anything", EXPERIMENTS,
        "    if not isinstance(s, MeasurementSetting):\n", "    if False:\n",
        "tests/test_inputs.py::test_a_wrong_type_is_refused_naming_its_argument",
    ),
    Mutant(
        "a measurement setting's name may be any hashable", EXPERIMENTS,
        "        if not isinstance(self.name, str):\n", "        if False:\n",
        "tests/test_inputs.py::test_a_wrong_type_is_refused_naming_its_argument",
    ),
    Mutant(
        "the identity check takes one point for a list", EXPERIMENTS,
        "    if not isinstance(params, (list, tuple)):\n", "    if False:\n",
        "tests/test_inputs.py::test_a_wrong_type_is_refused_naming_its_argument",
    ),
    Mutant(
        "the identity check checks points up to the first bad one", EXPERIMENTS,
        "    bad = [type(p).__name__ for p in params if not isinstance(p, PrepParams)]\n",
        "    bad = []\n",
        "tests/test_inputs.py::test_identity_check_refuses_a_bad_point_before_checking_any",
    ),
)


def _copy(dest: str) -> None:
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _pytest(copy: str, *tests: str) -> int:
    """pytest's exit code on the named tests of the copy, importing its src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _apply(copy: str, mutant: Mutant) -> None:
    path = os.path.join(copy, mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(f"mutant {mutant.name!r}: its old text occurs {found} times "
                         f"in {mutant.path}, not once")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def main() -> int:
    tests = sorted({m.test for m in MUTANTS})
    with tempfile.TemporaryDirectory() as tmp:
        clean = os.path.join(tmp, "clean")
        _copy(clean)
        code = _pytest(clean, *tests)
        if code != 0:
            print(f"the unmutated copy fails {' '.join(tests)} (exit {code})")
            return 1
        print(f"unmutated: {' '.join(tests)} pass")
        survivors = 0
        for k, mutant in enumerate(MUTANTS):
            copy = os.path.join(tmp, f"mutant{k}")
            _copy(copy)
            _apply(copy, mutant)
            code = _pytest(copy, mutant.test)
            killed = code == 1
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'} (exit {code}) by {mutant.test}: "
                  f"{mutant.name}", flush=True)
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
