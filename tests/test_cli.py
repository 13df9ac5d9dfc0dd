import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from paintpot import cli, estimate, presets
from paintpot.characterize import load_bundle
from paintpot.cubic import CubicModel
from paintpot.errors import ROWS_PER_WRITE, SpecError, number_at, write_rows
from paintpot.presets import (
    WHEEL_TRUTH_W0,
    WHEEL_TRUTH_W1,
    reference_tilt_spec,
    reference_wheel_spec,
)
from paintpot.sensor_sim import (
    AdcReading,
    SensorSpec,
    WiperSpec,
    read,
    read_wheel,
    save_sensor_spec,
    sensor_spec_from_dict,
    sensor_spec_to_dict,
)

import oracles

PI = math.pi
SRC = Path(__file__).resolve().parents[1] / "src"
# A linear tilt truth that reaches past +-pi, so a tilt of any limit in (0, pi] reads.
WIDE_TILT_TRUTH = CubicModel(0.0, 0.0, 6.5 / 1023.0, -3.25, (0.0, 1023.0))


def run_cli(*argv):
    return cli.main(list(argv))


class TestSweep:
    def test_preset_sweep_row_count_and_coverage(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep", "--spec", "wheel_reference", "--out", str(out),
            "--seed", "1", "--rate-hz", "14", "--duration-s", "50",
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# manifest")
        assert lines[1] == "t,theta,v0,v1"
        rows = lines[2:]
        assert len(rows) == 700
        thetas = np.array([float(r.split(",")[0 + 1]) for r in rows])
        assert thetas.min() < -0.99 * PI
        assert thetas.max() > 0.99 * PI
        # Direction reverses: the sweep covers the range once per half.
        diffs = np.sign(np.diff(thetas))
        assert (diffs > 0).any() and (diffs < 0).any()

    def test_sweep_past_one_block_is_its_rows_formatted_one_at_a_time(self, tmp_path):
        # 14 Hz x 100 s: 1,400 rows, across the writer's first block edge.
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep", "--spec", "wheel_reference", "--out", str(out),
            "--seed", "2", "--rate-hz", "14", "--duration-s", "100",
        ) == 0
        dataset = cli.synthesize_sweep_dataset(reference_wheel_spec(), 14.0, 100.0, np.random.default_rng(2))
        rows = zip(dataset.t.tolist(), dataset.theta.tolist(), *dataset.counts.T.tolist())
        lines = out.read_text().splitlines(keepends=True)[2:]
        assert len(lines) == 1_400 > ROWS_PER_WRITE
        assert lines == ["%.17g,%.17g,%d,%d\n" % row for row in rows]

    @settings(max_examples=150, deadline=None)
    @given(
        limit=st.none() | st.floats(0.0, PI, exclude_min=True),
        rows=st.integers(2, 300),
        offset=st.floats(-0.5, 0.5),
        rate_hz=st.floats(0.01, 1e4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(limit=None, rows=700, offset=0.0, rate_hz=14.0, seed=3)  # the presets' sweep: 14 Hz x 50 s
    @example(limit=PI / 2.0, rows=700, offset=0.0, rate_hz=14.0, seed=3)
    @example(limit=None, rows=117, offset=0.0, rate_hz=9.0, seed=3)  # an odd row count: 9 Hz x 13 s
    @example(limit=PI, rows=117, offset=0.0, rate_hz=9.0, seed=3)
    @example(limit=None, rows=2, offset=0.0, rate_hz=1.0, seed=0)  # the shortest sweeps
    @example(limit=1.3, rows=3, offset=0.0, rate_hz=7.0, seed=0)
    @example(limit=5e-324, rows=5, offset=0.25, rate_hz=3.0, seed=0)  # the least limit, a subnormal
    def test_schedule_is_the_per_row_reference_bit_for_bit(self, limit, rows, offset, rate_hz, seed):
        # The array schedule equals oracles.sweep_schedule_reference, the loop
        # it replaced, and each row reads its own angle with its row of draws.
        duration_s = (rows + offset) / rate_hz
        spec = reference_wheel_spec() if limit is None else SensorSpec((WiperSpec(WIDE_TILT_TRUTH),), limit)
        try:
            dataset = cli.synthesize_sweep_dataset(spec, rate_hz, duration_s, np.random.default_rng(seed))
        except SpecError:  # fewer than two rows
            assume(False)
        t, theta = oracles.sweep_schedule_reference(limit, rate_hz, duration_s)
        assert dataset.t.tobytes() == t.tobytes()
        assert dataset.theta.tobytes() == theta.tobytes()
        noise = np.random.default_rng(seed).normal(0.0, spec.noise_std, (len(t), len(spec.wipers)))
        counts = [[r.count for r in read(a, spec, draws)] for a, draws in zip(theta.tolist(), noise.tolist())]
        assert dataset.counts.tolist() == counts

    def test_zero_duration_is_config_error(self, tmp_path):
        code = run_cli(
            "sweep", "--spec", "wheel_reference", "--out", str(tmp_path / "s.csv"),
            "--duration-s", "0",
        )
        assert code == 2

    def test_fixed_seed_reproduces_bytes(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run_cli("sweep", "--spec", "tilt_reference", "--out", str(out), "--seed", "9") == 0
        first = out.read_bytes()
        assert run_cli("sweep", "--spec", "tilt_reference", "--out", str(out), "--seed", "9") == 0
        assert out.read_bytes() == first

    def test_non_finite_truth_coefficient_is_config_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        save_sensor_spec(reference_wheel_spec(), spec_path)
        data = json.loads(spec_path.read_text())
        data["truth_w0"]["c1"] = "inf"
        spec_path.write_text(json.dumps(data))
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--spec", str(spec_path), "--out", str(out)) == 2
        assert "cubic coefficients must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_noise_is_config_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**sensor_spec_to_dict(reference_wheel_spec()), "noise_std": math.inf}))
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--spec", str(spec_path), "--out", str(out)) == 2
        assert "noise_std must be a finite number, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset,edit,message",
        [
            ("tilt_reference", {"noise_std": True}, "noise_std must be a finite number, got True"),
            ("tilt_reference", {"angle_limit": True}, "angle_limit must be a finite number, got True"),
            ("wheel_reference", {"noise_std": "1.0"}, "noise_std must be a finite number, got '1.0'"),
            ("wheel_reference", {"gap_w0": [True, 2.0]}, "gap_w0 must be a finite number, got True"),
            ("wheel_reference", {"truth_w1": {**WHEEL_TRUTH_W1.to_dict(), "c3": True}},
             "truth_w1.c3 must be a finite number, got True"),
            ("tilt_reference", {"truth": {**presets.TILT_TRUTH.to_dict(), "v_window": ["0", "1023"]}},
             "truth.v_window must be a finite number, got '0'"),
            # float() reads all three, but no JSON number holds an underscore, padding or a non-ASCII digit.
            ("wheel_reference", {"truth_w0": {**WHEEL_TRUTH_W0.to_dict(), "c0": " -7.2_75e+00 "}},
             "truth_w0.c0 must be an ASCII decimal string without '_' or padding, got ' -7.2_75e+00 '"),
            ("tilt_reference", {"truth": {**presets.TILT_TRUTH.to_dict(), "c1": "8.6756e-03\n"}},
             "truth.c1 must be an ASCII decimal string without '_' or padding, got '8.6756e-03\\n'"),
            ("tilt_reference", {"truth": {**presets.TILT_TRUTH.to_dict(), "c0": "\u0665.0"}},  # ARABIC-INDIC FIVE
             "truth.c0 must be an ASCII decimal string without '_' or padding, got '\u0665.0'"),
            # A key no sensor file holds, which would otherwise fall back to its default.
            ("tilt_reference", {"noise_sd": 5.0}, "unknown sensor-spec key: noise_sd"),
            ("wheel_reference", {"angle_limit": 1.0, "truth": presets.TILT_TRUTH.to_dict()},
             "unknown sensor-spec keys: angle_limit, truth"),
            ("tilt_reference", {"gap_w0": [1.5, 2.0]}, "unknown sensor-spec key: gap_w0"),
            ("tilt_reference", {"truth": {**presets.TILT_TRUTH.to_dict(), "note": 1.0}},
             "unknown cubic key: truth.note"),
            ("wheel_reference", {"truth_w1": {**WHEEL_TRUTH_W1.to_dict(), "c_3": 0.0}},
             "unknown cubic key: truth_w1.c_3"),
        ],
        ids=["bool_noise", "bool_limit", "text_noise", "bool_gap", "bool_c3", "text_v_window", "underscored_padded_c0",
             "padded_c1", "arabic_digit_c0", "misspelt_noise", "tilt_keys_on_wheel", "gap_on_tilt", "cubic_note",
             "misspelt_cubic_key"],
    )
    def test_spec_fault_is_config_error_naming_its_key(self, tmp_path, capsys, preset, edit, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**sensor_spec_to_dict(presets.SENSOR_PRESETS[preset]()), **edit}))
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--spec", str(spec_path), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"paintpot: configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "preset,edit,keys,reach,states",
        [
            # The truth cubic of wiper 1 tops out at 5.064 rad; this gap's
            # track window runs to -1.137 + 2*pi = 5.146.
            ("wheel_reference", {"gap_w1": [-1.137, -0.885]}, "truth_w1 and gap_w1",
             "[-5.8128, 5.0640061010532]", f"[-0.885, {-1.137 + 2.0 * math.pi!r}]"),
            ("tilt_reference", {"angle_limit": 2.1}, "truth and angle_limit",
             "[-2.7173, 2.0765735986339005]", "[-2.1, 2.1]"),
        ],
        ids=["gap_w1", "tilt_limit"],
    )
    def test_spec_whose_truth_misses_its_states_is_config_error(self, tmp_path, capsys, preset, edit, keys,
                                                                reach, states):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**sensor_spec_to_dict(presets.SENSOR_PRESETS[preset]()), **edit}))
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--spec", str(spec_path), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"paintpot: configuration error: {keys} contradict each other: the cubic reaches angles "
            f"{reach}, not every state in {states}\n"
        )
        assert not out.exists()

    def test_spec_whose_truth_just_covers_its_states_sweeps(self, tmp_path):
        # The tilt truth reaches 2.0765...; a limit at that angle still loads.
        high = presets.TILT_TRUTH.angle_range()[1]
        data = {**sensor_spec_to_dict(presets.reference_tilt_spec()), "angle_limit": high}
        assert sensor_spec_from_dict(data).angle_limit == high
        with pytest.raises(SpecError, match="^truth and angle_limit contradict each other"):
            sensor_spec_from_dict({**data, "angle_limit": math.nextafter(high, 4.0)})

    def test_spec_file_roundtrip(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        save_sensor_spec(reference_wheel_spec(noise_std=0.5), spec_path)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--spec", str(spec_path), "--out", str(out)) == 0
        assert out.exists()

    @pytest.mark.parametrize("preset", sorted(presets.SENSOR_PRESETS))
    def test_spec_file_sweeps_the_rows_of_its_preset(self, tmp_path, preset):
        data = sensor_spec_to_dict(presets.SENSOR_PRESETS[preset]())
        assert sensor_spec_to_dict(sensor_spec_from_dict(data)) == data
        spec_path = tmp_path / "spec.json"
        save_sensor_spec(sensor_spec_from_dict(data), spec_path)
        assert json.loads(spec_path.read_text()) == data
        rows = []
        for ref in (preset, str(spec_path)):
            out = tmp_path / "sweep.csv"
            assert run_cli("sweep", "--spec", ref, "--out", str(out), "--seed", "6") == 0
            rows.append(out.read_text().splitlines()[1:])  # after the manifest
        assert rows[0] == rows[1]

    @pytest.mark.parametrize(
        "edit",
        [
            {"gap_w0": [1.5, 2.0], "gap_w1": [-2.9, -2.5]},
            {"gap_w1": [-2.0, -1.5]},
            {"angle_limit": 1.25, "noise_std": 2.0},
            {"angle_limit": 2.0},
        ],
        ids=["both_gaps", "gap_w1", "tilt_limit", "wide_tilt_limit"],
    )
    def test_non_default_spec_round_trips_and_sweeps_its_gaps(self, tmp_path, edit):
        preset = "tilt_reference" if "angle_limit" in edit else "wheel_reference"
        data = {**sensor_spec_to_dict(presets.SENSOR_PRESETS[preset](noise_std=0.0)), **edit}
        spec = sensor_spec_from_dict(data)
        assert sensor_spec_to_dict(spec) == data
        spec_path = tmp_path / "spec.json"
        save_sensor_spec(spec, spec_path)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--spec", str(spec_path), "--out", str(out), "--seed", "1") == 0
        rows = np.array([[float(x) for x in line.split(",")] for line in out.read_text().splitlines()[2:]])
        theta = rows[:, 1]
        if spec.wrap:
            # Noiseless: a wiper reads the rail count 0 exactly while it rides its gap.
            for wiper in range(2):
                lo, hi = data[f"gap_w{wiper}"]
                assert np.array_equal(rows[:, 2 + wiper] == 0, (theta >= lo) & (theta <= hi))
        else:
            assert theta.min() == -data["angle_limit"] and theta.max() == data["angle_limit"]
        # Calibrated on its own spec, the bundle carries its tracks.
        bundle = tmp_path / "bundle.json"
        assert run_cli("calibrate", "--in", str(out), "--spec", str(spec_path), "--out", str(bundle)) == 0
        assert load_bundle(bundle).tracks == spec.tracks


class TestCalibrate:
    def test_end_to_end_recovers_truth(self, tmp_path):
        sweep = tmp_path / "sweep.csv"
        bundle_path = tmp_path / "bundle.json"
        assert run_cli("sweep", "--spec", "wheel_reference", "--out", str(sweep), "--seed", "2") == 0
        assert run_cli(
            "calibrate", "--in", str(sweep), "--kind", "wheel", "--out", str(bundle_path),
            "--k", "0.2", "--dt", "0.01",
        ) == 0
        bundle = load_bundle(bundle_path)
        assert bundle.sensor_kind == "wheel"
        for model, truth in zip(bundle.models, (WHEEL_TRUTH_W0, WHEEL_TRUTH_W1)):
            grid = np.linspace(model.v_window[0], model.v_window[1], 1500)
            assert float(np.max(np.abs(model.evaluate(grid) - truth.evaluate(grid)))) < 0.02
        assert bundle.filter_params["k"] == 0.2

    def test_tilt_bundle_has_single_model(self, tmp_path):
        sweep = tmp_path / "sweep.csv"
        bundle_path = tmp_path / "bundle.json"
        assert run_cli("sweep", "--spec", "tilt_reference", "--out", str(sweep), "--seed", "3") == 0
        assert run_cli("calibrate", "--in", str(sweep), "--kind", "tilt", "--out", str(bundle_path)) == 0
        bundle = load_bundle(bundle_path)
        assert bundle.sensor_kind == "tilt"
        assert len(bundle.models) == 1
        assert bundle.valid_ranges == ()

    def test_truncated_file_names_the_line(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--spec", "wheel_reference", "--out", str(sweep), "--seed", "2") == 0
        text = sweep.read_text()
        (tmp_path / "cut.csv").write_text(text[: len(text) // 2].rsplit(",", 1)[0])
        code = run_cli("calibrate", "--in", str(tmp_path / "cut.csv"), "--kind", "wheel",
                       "--out", str(tmp_path / "b.json"))
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_missing_input_is_io_error(self, tmp_path):
        code = run_cli("calibrate", "--in", str(tmp_path / "nope.csv"), "--kind", "wheel",
                       "--out", str(tmp_path / "b.json"))
        assert code == 4

    def test_rank_deficient_log_is_numerical_failure(self, tmp_path):
        # Valid schema, but constant counts cannot pin a cubic: exit 3.
        log = tmp_path / "flat.csv"
        with open(log, "w", newline="\n") as handle:
            handle.write("t,theta,v0,v1\n")
            for i in range(40):
                handle.write(f"{i * 0.1},{-3.0 + i * 0.15},500,500\n")
        code = run_cli("calibrate", "--in", str(log), "--kind", "wheel",
                       "--out", str(tmp_path / "b.json"))
        assert code == 3


def _geometry_only(path, preset, **edit):
    """Write ``preset``'s spec file to ``path`` with ``edit`` and without its truth cubics."""
    data = {**sensor_spec_to_dict(presets.SENSOR_PRESETS[preset]()), **edit}
    path.write_text(json.dumps({key: value for key, value in data.items() if not key.startswith("truth")}))
    return str(path)


class TestCalibrateOnGeometry:
    """``calibrate --spec`` reads a sensor file's tracks, angle limit and ADC
    width, and no truth cubic; ``sweep --spec`` needs the truths."""

    @pytest.mark.parametrize("preset", sorted(presets.SENSOR_PRESETS))
    def test_spec_without_truths_calibrates_to_the_same_bytes(self, tmp_path, capsys, preset):
        spec, sweep, bundle = tmp_path / "spec.json", tmp_path / "sweep.csv", tmp_path / "bundle.json"
        save_sensor_spec(presets.SENSOR_PRESETS[preset](), spec)
        assert run_cli("sweep", "--spec", str(spec), "--out", str(sweep), "--seed", "2") == 0
        written = []
        for ref in (str(spec), _geometry_only(tmp_path / "geometry.json", preset)):
            assert run_cli("calibrate", "--in", str(sweep), "--spec", ref, "--out", str(bundle)) == 0
            written.append(bundle.read_bytes())
        assert written[0] == written[1]
        capsys.readouterr()
        assert run_cli("sweep", "--spec", str(tmp_path / "geometry.json"), "--out", str(sweep)) == 2
        truth = "truth_w0" if preset == "wheel_reference" else "truth"
        assert capsys.readouterr().err == f"paintpot: configuration error: malformed sensor spec: '{truth}'\n"

    @pytest.mark.parametrize(
        "preset,edit,message",
        [
            ("wheel_reference", {"gap_w0": [2.0, 1.5]}, "malformed sensor spec: empty interval: [2.0, 1.5]"),
            ("wheel_reference", {"gap_w1": [-0.5, 0.5]}, "gap [-0.5, 0.5] turning by"),
            ("wheel_reference", {"gap_w0": [True, 2.0]}, "gap_w0 must be a finite number, got True"),
            ("wheel_reference", {"adc_max": 1000}, "adc_max must be 2**bits - 1 with bits >= 1, got 1000"),
            ("tilt_reference", {"adc_max": "ten"}, "adc_max must be an integer, got 'ten'"),
            ("tilt_reference", {"angle_limit": 4.0}, "angle_limit must lie in (0, pi]"),
            ("tilt_reference", {"angle_limit": 0.0}, "angle_limit must lie in (0, pi]"),
        ],
        ids=["empty_gap", "gap_across_zero", "bool_gap", "adc_max_1000", "adc_max_text", "limit_above_pi",
             "limit_zero"],
    )
    def test_bad_geometry_is_config_error(self, tmp_path, capsys, preset, edit, message):
        sweep, bundle = tmp_path / "sweep.csv", tmp_path / "bundle.json"
        assert run_cli("sweep", "--spec", preset, "--out", str(sweep), "--seed", "2") == 0
        capsys.readouterr()
        spec = _geometry_only(tmp_path / "geometry.json", preset, **edit)
        assert run_cli("calibrate", "--in", str(sweep), "--spec", spec, "--out", str(bundle)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"paintpot: configuration error: {message}") and "Traceback" not in err
        assert not bundle.exists()


def write_readings_csv(path, rows, wheel=True):
    header = "t,v0,v1,omega" if wheel else "t,v0,omega"
    with open(path, "w", newline="\n") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(str(x) for x in row) + "\n")


# Trace lengths of the line-by-line trace tests: the first is the log the
# content checks were written for; the rest sit at the trace writer's block
# edges (one row, one block, one row past it, two blocks and a row).
EDGE_ROWS = (1, ROWS_PER_WRITE, ROWS_PER_WRITE + 1, 2 * ROWS_PER_WRITE + 1)
TILT_TRACE_ROWS = (600, *EDGE_ROWS)
WHEEL_TRACE_ROWS = (500, *EDGE_ROWS)


def assert_trace_lines_are_the_steps(tmp_path, bundle_path, rows):
    """Run ``estimate`` on ``rows`` and check each trace line against the
    estimator stepped directly, formatted ``%.17g,%.17g,%.17g,%d``.

    Returns the trace's sigmas and feature counts.
    """
    wheel = len(rows[0]) == 4
    readings, out = tmp_path / "steps.csv", tmp_path / "steps_trace.csv"
    write_readings_csv(readings, rows, wheel=wheel)
    assert run_cli("estimate", "--model", str(bundle_path), "--readings", str(readings),
                   "--out", str(out)) == 0
    bundle = load_bundle(bundle_path)
    obs = estimate.observation_from_bundle(bundle)
    sigma0 = number_at({"filter": bundle.filter_params}, "filter.sigma0", estimate.DEFAULT_SIGMA0)
    estimator = (estimate.WheelEstimator if wheel else estimate.TiltEstimator)(
        obs, estimate.transition_from_bundle(bundle), sigma0
    )
    steps = [[AdcReading(i, count, True) for i, count in enumerate(row[1:-1])] for row in rows]
    belief = estimator.initialize(steps[0])
    lines = [(rows[0][0], belief[0], belief[1], len(estimate.extract_features(steps[0], obs)))]
    for row, readings_of_row in zip(rows[1:], steps[1:]):
        belief, used = estimator.step(row[-1], readings_of_row)
        lines.append((row[0], belief[0], belief[1], sum(used) if wheel else used))
    written = out.read_text().splitlines(keepends=True)
    assert written[1] == "t,mu,sigma,n_features\n"
    assert written[2:] == ["%.17g,%.17g,%.17g,%d\n" % line for line in lines]
    return [line[2] for line in lines], [int(line[3]) for line in lines]


@pytest.mark.parametrize("n_rows", (0, *EDGE_ROWS))
def test_write_rows_writes_each_block_once_as_rows_formatted_one_at_a_time(n_rows):
    rng = np.random.default_rng(n_rows)
    columns = [
        rng.normal(0.0, 1e3, n_rows).tolist(),
        rng.integers(-5, 1024, n_rows).tolist(),
        (rng.random(n_rows) < 0.5).tolist(),
        [str(n % 3) for n in range(n_rows)],
    ]
    row_format = "%.17g,%d,%d,%s\n"
    writes = []
    write_rows(SimpleNamespace(write=writes.append), row_format, columns)
    assert "".join(writes) == "".join(row_format % row for row in zip(*columns))
    assert len(writes) == -(-n_rows // ROWS_PER_WRITE)


def _set(*keys_and_value):
    *keys, last, value = keys_and_value

    def edit(data):
        for key in keys:
            data = data[key]
        data[last] = value

    return edit


# Bundle edits that put a count window outside [0, adc_max], a fit report
# that is not an object or a key no bundle reader reads in the file, and the
# field each error names.  An unknown key, or a cubic's, is named by its
# path in the file that holds the bundle: "{at}" is "" in a bundle file and
# "models." in an experiment config.
BUNDLE_EDITS = [
    (_set("adc_max", 1000), "adc_max must be 2**bits - 1"),
    (_set("adc_max", 0), "adc_max must be 2**bits - 1"),
    (_set("valid_ranges", 0, "v_max", 5000), "valid_ranges[0].v_max 5000 exceeds adc_max 1023"),
    (_set("valid_ranges", 1, "v_max", 1024), "valid_ranges[1].v_max 1024 exceeds adc_max 1023"),
    (_set("models", 1, "v_window", [10.0, 5000.0]), "models[1].v_window [10.0, 5000.0] outside"),
    (_set("models", 0, "v_window", [-1.0, 1000.0]), "models[0].v_window [-1.0, 1000.0] outside"),
    (lambda data: data["valid_ranges"].pop(),
     "wheel bundle has (models, valid ranges) = (2, 1), expected (2, 2)"),
    (lambda data: data["models"].pop(), "wheel bundle has (models, valid ranges) = (1, 2), expected (2, 2)"),
    (_set("fit_report", []), "fit_report must be a JSON object, got []"),
    (_set("fit_report", None), "fit_report must be a JSON object, got None"),
    (_set("filter", "Q", 0.5), "unknown model-bundle key: {at}filter.Q"),
    (_set("sigma_0", 5.0), "unknown model-bundle key: {at}sigma_0"),
    (_set("filter", "r", 1e-4), "unknown model-bundle key: {at}filter.r"),  # a wheel's are r0 and r1
    (_set("angle_limit", 1.0), "unknown model-bundle key: {at}angle_limit"),  # a wheel wraps
    (_set("models", 0, "note", 1.0), "unknown cubic key: {at}models[0].note"),
    (lambda data: data["fit_report"].update(wiper=data["fit_report"].pop("wipers")),
     "unknown model-bundle key: {at}fit_report.wiper"),
    (_set("fit_report", "wipers", 1, "mean", 0.0), "unknown model-bundle key: {at}fit_report.wipers[1].mean"),
    (_set("valid_ranges", 0, "note", 1.0), "unknown model-bundle key: {at}valid_ranges[0].note"),
]
BUNDLE_EDIT_IDS = [
    "adc_max_not_2_pow_bits_minus_1", "adc_max_zero", "v_max_5000", "v_max_one_over",
    "window_above_adc_max", "window_below_zero", "one_valid_range", "one_model", "list_fit_report",
    "null_fit_report", "misspelt_filter_q", "misspelt_sigma0", "tilt_r_on_wheel", "limit_on_wheel",
    "cubic_note", "misspelt_fit_report_wipers", "fit_stats_note", "valid_range_note",
]
# Every bundle fault that `estimate` refuses, by the kind of bundle it is made in: the edits
# above, then bad values, each naming its key path, and tilt bundle faults.
BUNDLE_FAULTS = [("wheel", edit, message) for edit, message in BUNDLE_EDITS] + [
    ("wheel", _set("filter", "r0", math.nan), "filter.r0 must be a finite number, got nan"),
    ("wheel", _set("filter", "r1", "inf"), "filter.r1 must be a finite number, got 'inf'"),
    ("wheel", _set("filter", "r0", 0.0), "wiper 0: measurement variance r must be finite and positive, got 0.0"),
    ("wheel", _set("filter", "r1", -1e-4), "wiper 1: measurement variance r must be finite and positive"),
    ("wheel", _set("filter", "k", "nan"), "filter.k must be a finite number, got 'nan'"),
    ("wheel", _set("filter", "dt", math.inf), "filter.dt must be a finite number, got inf"),
    ("wheel", _set("filter", "q", "-inf"), "filter.q must be a finite number, got '-inf'"),
    ("wheel", _set("models", 0, "c1", "inf"), "models[0]: cubic coefficients must be finite"),
    ("wheel", _set("filter", "k", True), "filter.k must be a finite number, got True"),
    ("wheel", _set("filter", "q", " 5e-2 "), "filter.q must be a finite number, got ' 5e-2 '"),
    ("wheel", _set("filter", "sigma0", "1e-4"), "filter.sigma0 must be a finite number, got '1e-4'"),
    ("wheel", _set("filter", "r0", 10**400), "filter.r0 must be a finite number, got 1000"),
    ("wheel", _set("models", 0, "c3", True), "models[0].c3 must be a finite number, got True"),
    ("wheel", _set("models", 1, "v_window", ["0", "1023"]), "models[1].v_window must be a finite number, got '0'"),
    ("wheel", _set("fit_report", "wipers", 0, "rms", True),
     "fit_report.wipers[0].rms must be a finite number, got True"),
    ("wheel", _set("fit_report", "wipers", 1, "max_abs", "0.1"),
     "fit_report.wipers[1].max_abs must be a finite number, got '0.1'"),
    ("wheel", _set("gap_w0", [True, 2.0]), "gap_w0 must be a finite number, got True"),
    ("wheel", _set("models", 0, "c0", " -2.7_1630221539936167e+00 "),
     "models[0].c0 must be an ASCII decimal string without '_' or padding, got ' -2.7_1630221539936167e+00 '"),
    ("wheel", _set("models", 1, "c2", "-1.2_409e-05"),
     "models[1].c2 must be an ASCII decimal string without '_' or padding, got '-1.2_409e-05'"),
    ("wheel", _set("models", 0, "c3", "\t5.0281e-09"),
     "models[0].c3 must be an ASCII decimal string without '_' or padding, got '\\t5.0281e-09'"),
    ("wheel", _set("models", 1, "c0", "\u0665.0"),  # ARABIC-INDIC DIGIT FIVE: float() reads 5.0
     "models[1].c0 must be an ASCII decimal string without '_' or padding, got '\u0665.0'"),
    ("tilt", _set("filter", "r", "nan"), "filter.r must be a finite number, got 'nan'"),
    ("tilt", _set("valid_ranges", [{"v_min": 10, "v_max": 900}]),
     "tilt bundle has (models, valid ranges) = (1, 1), expected (1, 0)"),
    ("tilt", _set("filter", "r0", 1e-4), "unknown model-bundle key: filter.r0"),  # a tilt's is r
    ("tilt", _set("gap_w0", [1.5, 2.0]), "unknown model-bundle key: gap_w0"),
]
BUNDLE_FAULT_IDS = BUNDLE_EDIT_IDS + [
    "nan_r0", "inf_r1", "zero_r0", "negative_r1", "nan_k", "inf_dt", "minus_inf_q", "inf_c1",
    "bool_k", "text_q", "text_sigma0", "huge_int_r0", "bool_c3", "text_v_window", "bool_rms",
    "text_max_abs", "bool_gap_w0", "underscored_padded_c0", "underscored_c2", "tab_padded_c3",
    "arabic_digit_c0", "nan_r", "valid_range", "wheel_r0_on_tilt", "gap_on_tilt",
]


def calibrated_bundle(tmp_path, kind):
    """``tmp_path/bundle.json``, calibrated by the CLI on ``tmp_path/sweep.csv``,
    a sweep of the reference sensor of ``kind``."""
    sweep = tmp_path / "sweep.csv"
    bundle_path = tmp_path / "bundle.json"
    assert run_cli("sweep", "--spec", f"{kind}_reference", "--out", str(sweep), "--seed", "4") == 0
    assert run_cli(
        "calibrate", "--in", str(sweep), "--kind", kind, "--out", str(bundle_path),
        "--k", "0.2", "--dt", "0.01", "--q", "0.05",
    ) == 0
    return bundle_path


@pytest.fixture()
def wheel_bundle(tmp_path):
    return calibrated_bundle(tmp_path, "wheel")


class TestEstimate:
    def test_constant_readings_converge_monotonically(self, tmp_path, wheel_bundle):
        spec = reference_wheel_spec(noise_std=0.0)
        r0, r1 = read_wheel(0.8, spec, np.random.default_rng(0).normal(0.0, 0.0, 2))
        rows = [(i * 0.01, r0.count, r1.count, 0.0) for i in range(60)]
        readings = tmp_path / "readings.csv"
        write_readings_csv(readings, rows)
        out = tmp_path / "trace.csv"
        assert run_cli("estimate", "--model", str(wheel_bundle), "--readings", str(readings),
                       "--out", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        mus = np.array([float(l.split(",")[1]) for l in lines[1:]])
        bundle = load_bundle(wheel_bundle)
        # Static fixed point: the precision-weighted blend of both
        # constant converted measurements.
        z0 = float(bundle.models[0].evaluate(r0.count))
        z1 = float(bundle.models[1].evaluate(r1.count))
        w0 = 1.0 / bundle.filter_params["r0"]
        w1 = 1.0 / bundle.filter_params["r1"]
        target = (w0 * z0 + w1 * z1) / (w0 + w1)
        gaps = np.abs(mus - target)
        assert np.all(np.diff(gaps) <= 1e-12)
        assert gaps[-1] < gaps[0]

    def test_tracks_a_moving_joint(self, tmp_path, wheel_bundle):
        from paintpot.sensor_sim import simulate_plant_step

        spec = reference_wheel_spec(noise_std=1.0)
        rng = np.random.default_rng(11)
        theta, k, dt = 0.2, 0.2, 0.01
        rows, truth = [], []
        for i in range(300):
            omega = 2.0 * math.sin(2.0 * PI * i / 200.0)
            theta, _ = simulate_plant_step(theta, omega, k, dt, rng.normal(0.0, 0.0))
            a, b = read_wheel(theta, spec, rng.normal(0.0, spec.noise_std, 2))
            rows.append((i * dt, a.count, b.count, omega))
            truth.append(theta)
        readings = tmp_path / "moving.csv"
        write_readings_csv(readings, rows)
        out = tmp_path / "trace.csv"
        assert run_cli("estimate", "--model", str(wheel_bundle), "--readings", str(readings),
                       "--out", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        mus = np.array([float(l.split(",")[1]) for l in lines[1:]])
        rms = float(np.sqrt(np.mean((mus - np.array(truth)) ** 2)))
        assert rms < 0.05

    def test_gap_crossing_log_stays_continuous(self, tmp_path, wheel_bundle):
        # No availability flag in the CSV: rail counts during the gap
        # transit must be rejected by the valid-range test alone.
        from paintpot.sensor_sim import simulate_plant_step

        spec = reference_wheel_spec(noise_std=1.0)
        rng = np.random.default_rng(21)
        theta, k, dt, omega = 0.45 * PI, 0.2, 0.01, 4.0  # drives up through the gap
        rows = []
        for i in range(260):
            theta, _ = simulate_plant_step(theta, omega, k, dt, rng.normal(0.0, 0.0))
            a, b = read_wheel(theta, spec, rng.normal(0.0, spec.noise_std, 2))
            rows.append((i * dt, a.count, b.count, omega))
        readings = tmp_path / "gap.csv"
        write_readings_csv(readings, rows)
        out = tmp_path / "trace.csv"
        assert run_cli("estimate", "--model", str(wheel_bundle), "--readings", str(readings),
                       "--out", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        mus = np.array([float(l.split(",")[1]) for l in lines[1:]])
        n_feats = np.array([int(l.split(",")[3]) for l in lines[1:]])
        assert (n_feats == 1).any()  # wiper 0 rejected across the gap
        from paintpot.geometry import wrap_angle

        jumps = [abs(wrap_angle(a - b)) for a, b in zip(mus[1:], mus[:-1])]
        assert max(jumps) < 0.05

    def test_tilt_readings_trace(self, tmp_path):
        from paintpot.sensor_sim import read_tilt

        sweep = tmp_path / "tsweep.csv"
        bundle_path = tmp_path / "tbundle.json"
        assert run_cli("sweep", "--spec", "tilt_reference", "--out", str(sweep), "--seed", "5") == 0
        assert run_cli("calibrate", "--in", str(sweep), "--kind", "tilt",
                       "--out", str(bundle_path)) == 0
        spec = reference_tilt_spec(noise_std=1.0)
        rng = np.random.default_rng(6)
        rows = [
            (i * 0.01, read_tilt(0.3 + 0.002 * i, spec, rng.normal(0.0, 1.0, 1)).count, 0.2)
            for i in range(100)
        ]
        readings = tmp_path / "treadings.csv"
        write_readings_csv(readings, rows, wheel=False)
        out = tmp_path / "ttrace.csv"
        assert run_cli("estimate", "--model", str(bundle_path), "--readings", str(readings),
                       "--out", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        mus = np.array([float(l.split(",")[1]) for l in lines[1:]])
        truth = 0.3 + 0.002 * np.arange(100)
        assert float(np.sqrt(np.mean((mus - truth) ** 2))) < 0.05

    @pytest.mark.parametrize("n_rows", TILT_TRACE_ROWS)
    def test_tilt_trace_lines_are_the_steps_formatted(self, tmp_path, n_rows):
        # The variance settles, so most rows repeat an earlier sigma; every
        # 37th count is a rail count outside the model window.
        from paintpot.sensor_sim import read_tilt

        sweep, bundle = tmp_path / "tsweep.csv", tmp_path / "tbundle.json"
        assert run_cli("sweep", "--spec", "tilt_reference", "--out", str(sweep), "--seed", "5") == 0
        assert run_cli("calibrate", "--in", str(sweep), "--kind", "tilt", "--out", str(bundle)) == 0
        spec, rng = reference_tilt_spec(noise_std=1.0), np.random.default_rng(8)
        rows = []
        for i in range(n_rows):
            count = read_tilt(0.6 * math.sin(i / 50.0), spec, rng.normal(0.0, 1.0, 1)).count
            rows.append((i * 0.01, 1023 if i % 37 == 36 else count, 1.2 * math.cos(i / 50.0)))
        sigmas, n_features = assert_trace_lines_are_the_steps(tmp_path, bundle, rows)
        if n_rows >= TILT_TRACE_ROWS[0]:  # the first 600 rows, as the log has always had
            assert len(set(sigmas[:600])) < 600 / 4
            assert set(n_features[:600]) == {0, 1}

    @pytest.mark.parametrize("n_rows", WHEEL_TRACE_ROWS)
    def test_wheel_trace_lines_are_the_steps_formatted(self, tmp_path, wheel_bundle, n_rows):
        # Through the gap and round a turn: features come and go.
        from paintpot.sensor_sim import simulate_plant_step

        spec, rng = reference_wheel_spec(noise_std=1.0), np.random.default_rng(23)
        theta, rows = 0.45 * PI, []
        for i in range(n_rows):
            theta, _ = simulate_plant_step(theta, 4.0, 0.2, 0.01, rng.normal(0.0, 0.0))
            a, b = read_wheel(theta, spec, rng.normal(0.0, spec.noise_std, 2))
            rows.append((i * 0.01, a.count, b.count, 4.0))
        sigmas, n_features = assert_trace_lines_are_the_steps(tmp_path, wheel_bundle, rows)
        if n_rows >= WHEEL_TRACE_ROWS[0]:  # the first 500 rows, as the log has always had
            assert len(set(sigmas[:500])) > 500 / 2
            assert {1, 2} <= set(n_features[:500])

    def test_missing_omega_column_is_schema_error(self, tmp_path, wheel_bundle):
        bad = tmp_path / "bad.csv"
        with open(bad, "w") as handle:
            handle.write("t,v0,v1\n0.0,500,500\n")
        assert run_cli("estimate", "--model", str(wheel_bundle), "--readings", str(bad),
                       "--out", str(tmp_path / "t.csv")) == 2

    @pytest.mark.parametrize(
        "rows,message",
        [
            ([(0.0, 500, 510, 0.0), (0.01, 500, 510, "nan")], "line 3: non-finite"),
            ([(0.0, 500, 510, 0.0), ("inf", 500, 510, 0.0)], "line 3: non-finite"),
            ([(0.0, 500, 510, 0.0), (0.01, -7, 510, 0.0)], "line 3: count -7 outside"),
            ([(0.0, 500, 99999, 0.0), (0.01, 500, 510, 0.0)], "line 2: count 99999 outside"),
            ([(0.0, 500, 510, 0.0), (0.02, 500, 510, 0.0), (0.01, 500, 510, 0.0)],
             "line 4: timestamp 0.01 decreases"),
            ([(0.0, 500, 510, 0.0), (0.01, "1.5", 510, 0.0)],
             "line 3: invalid literal for int() with base 10: '1.5'"),
            ([(0.0, 500, 510, 0.0), (0.01, 500, "", 0.0)],
             "line 3: invalid literal for int() with base 10: ''"),
            # A log has no quoting: a quoted count is a bad field.
            ([(0.0, 500, 510, 0.0), (0.01, '"500"', 510, 0.0)],
             """line 3: invalid literal for int() with base 10: '"500"'"""),
            ([(0.0, 500, 510, 0.0), (0.01, "9" * 400, 510, 0.0)],
             f"line 3: count {'9' * 400} outside"),
            ([(i * 0.01, 500, 510, 0.0) for i in range(500)] + [(5.0, 500, 510)],
             "line 502: expected 4 fields, got 3"),
            ([(i * 0.01, 500, 510, 0.0) for i in range(2100)] + [(21.0, 500, "x", 0.0)],
             "line 2102: invalid literal for int() with base 10: 'x'"),
            # Two bad rows: the first one is named, whatever its fault.
            ([(0.0, 500, 510, 0.0), (0.01, -7, 510, 0.0), (0.02, 500, 510)],
             "line 3: count -7 outside"),
            ([(0.0, 500, 510, 0.0), (0.01, 500, 510), (0.02, -7, 510, 0.0)],
             "line 3: expected 4 fields, got 3"),
            ([(0.0, 500, 510, 0.0), (0.01, "x", 510, 0.0), ("nan", 500, 510, 0.0)],
             "line 3: invalid literal for int() with base 10: 'x'"),
            ([(0.0, 500, 510, 0.0), (0.01, 500, 510, "nan"), (0.02, "x", 510, 0.0)],
             "line 3: non-finite"),
            # Two faults in one row: the checks keep their order.
            ([(0.0, 500, 510, 0.0), (-1.0, 500, -7, 0.0)], "line 3: timestamp -1.0 decreases"),
            ([(0.0, 500, 510, 0.0), (0.01, 2000, -7, 0.0)], "line 3: count 2000 outside"),
        ],
        ids=[
            "nan_omega", "inf_t", "negative_count", "count_above_adc_max", "decreasing_t",
            "fractional_count", "empty_count", "quoted_count", "huge_count", "late_short_row", "late_malformed",
            "value_then_short_row", "short_row_then_value", "malformed_then_value",
            "value_then_malformed", "decreasing_t_and_bad_count", "two_bad_counts",
        ],
    )
    def test_invalid_reading_is_schema_error_naming_line(
        self, tmp_path, wheel_bundle, capsys, rows, message
    ):
        bad = tmp_path / "bad.csv"
        write_readings_csv(bad, rows)
        out = tmp_path / "t.csv"
        assert run_cli("estimate", "--model", str(wheel_bundle), "--readings", str(bad),
                       "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind,edit,message", BUNDLE_FAULTS, ids=BUNDLE_FAULT_IDS)
    def test_bundle_fault_is_schema_error_naming_its_key(self, tmp_path, capsys, kind, edit, message):
        bundle = calibrated_bundle(tmp_path, kind)
        data = json.loads(bundle.read_text())
        edit(data)
        bundle.write_text(json.dumps(data))
        counts = (500, 510) if kind == "wheel" else (500,)
        readings, out = tmp_path / "r.csv", tmp_path / "t.csv"
        write_readings_csv(readings, [(0.0, *counts, 0.0), (0.01, *counts, 0.0)], wheel=kind == "wheel")
        assert run_cli("estimate", "--model", str(bundle), "--readings", str(readings),
                       "--out", str(out)) == 2
        assert message.format(at="") in capsys.readouterr().err
        assert not out.exists()

    def test_comment_lines_keep_physical_line_numbers(self, tmp_path, wheel_bundle, capsys):
        lines = [
            "# logged on the bench rig",
            "t,v0,v1,omega",
            "0.0,500,510,0.0",
            "# operator note",
            "",
            "  # indented note",
            "0.01,500,510,0.0",
            "0.02,500,-7,0.0",
        ]
        readings = tmp_path / "commented.csv"
        readings.write_text("\n".join(lines) + "\n")
        out = tmp_path / "t.csv"
        assert run_cli("estimate", "--model", str(wheel_bundle), "--readings", str(readings),
                       "--out", str(out)) == 2
        assert "line 8: count -7 outside" in capsys.readouterr().err
        readings.write_text("\n".join(lines[:-1]) + "\n")
        assert run_cli("estimate", "--model", str(wheel_bundle), "--readings", str(readings),
                       "--out", str(out)) == 0
        assert [l.split(",")[0] for l in out.read_text().splitlines()[2:]] == ["0", "0.01"]

    def test_wiper_at_the_rail_contributes_no_feature(self, tmp_path, wheel_bundle):
        # A readings log has no availability flag: every reading is marked
        # available, and only the count window keeps a rail count out.
        spec = reference_wheel_spec(noise_std=0.0)
        r0, r1 = read_wheel(0.8, spec, np.random.default_rng(0).normal(0.0, 0.0, 2))
        rows = [(i * 0.01, 0 if 20 <= i < 30 else r0.count, r1.count, 0.0) for i in range(60)]
        readings = tmp_path / "rail.csv"
        write_readings_csv(readings, rows)
        out = tmp_path / "trace.csv"
        assert run_cli("estimate", "--model", str(wheel_bundle), "--readings", str(readings),
                       "--out", str(out)) == 0
        n_features = [int(l.split(",")[3]) for l in out.read_text().splitlines()[2:]]
        assert n_features == [2] * 20 + [1] * 10 + [2] * 30

    def test_first_row_without_valid_feature_fails(self, tmp_path, wheel_bundle):
        bad = tmp_path / "rails.csv"
        write_readings_csv(bad, [(0.0, 0, 1023, 0.0), (0.01, 0, 1023, 0.0)])
        assert run_cli("estimate", "--model", str(wheel_bundle), "--readings", str(bad),
                       "--out", str(tmp_path / "t.csv")) == 3


class TestExperiment:
    def test_preset_runs_and_writes_outputs(self, tmp_path):
        prefix = tmp_path / "pan"
        assert run_cli("experiment", "--config", "pan_pi_to_0", "--out-prefix", str(prefix)) == 0
        trace = (tmp_path / "pan_trace.csv").read_text().splitlines()
        assert trace[1] == "t,theta_true,theta_est,theta_ref,u_cmd,f0_avail,f1_avail"
        summary = json.loads((tmp_path / "pan_summary.json").read_text())
        assert summary["kind"] == "wheel"
        assert summary["manifest"]["command"] == "experiment"
        assert 0.0 <= summary["avg_abs_error"] < 0.09

    def test_config_file_with_explicit_models(self, tmp_path, wheel_bundle):
        bundle_data = json.loads(Path(wheel_bundle).read_text())
        config = {
            "kind": "wheel",
            "seed": 12,
            "rate_hz": 100.0,
            "trajectory": {"x0": 1.5, "xf": -1.0, "t_total": 3.0},
            "controller": {"kp": 6.0, "omega_max": 12.0},
            "transition": {"k": 0.2, "q": 0.05},
            "plant_q": 0.02,
            "sensor": json.loads(
                json.dumps(
                    __import__("paintpot.sensor_sim", fromlist=["sensor_spec_to_dict"])
                    .sensor_spec_to_dict(reference_wheel_spec())
                )
            ),
            "models": bundle_data,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli("experiment", "--config", str(cfg_path), "--out-prefix",
                       str(tmp_path / "run")) == 0
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["avg_abs_error"] < 0.05

    @pytest.mark.parametrize("edit,message", BUNDLE_EDITS, ids=BUNDLE_EDIT_IDS)
    def test_explicit_models_outside_the_adc_window_are_config_error(
        self, tmp_path, wheel_bundle, capsys, edit, message
    ):
        bundle_data = json.loads(Path(wheel_bundle).read_text())
        edit(bundle_data)
        config = json.loads(json.dumps(presets.EXPERIMENT_PRESETS["pan_pi_to_0"]))
        config["models"] = bundle_data
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli("experiment", "--config", str(cfg_path), "--out-prefix",
                       str(tmp_path / "run")) == 2
        assert message.format(at="models.") in capsys.readouterr().err
        assert not (tmp_path / "run_trace.csv").exists()

    @pytest.mark.parametrize(
        "calibration,message",
        [
            ({"rate_hz": -1.0, "duration_s": "x"}, "calibration.rate_hz must be > 0, got -1.0"),
            ({"rate_hz": 14.0, "duration_s": "x"}, "calibration.duration_s must be a finite number, got 'x'"),
            ({"rate_hz": True}, "calibration.rate_hz must be a finite number, got True"),
            ({"duration_s": 0.0}, "calibration.duration_s must be > 0, got 0.0"),
        ],
        ids=["negative_rate", "text_duration", "bool_rate", "zero_duration"],
    )
    def test_calibration_beside_explicit_models_is_checked(self, tmp_path, wheel_bundle, capsys, calibration, message):
        # No sweep runs, but the numbers are read and checked as the README says.
        config = json.loads(json.dumps(presets.EXPERIMENT_PRESETS["pan_pi_to_0"]))
        config.update(models=json.loads(Path(wheel_bundle).read_text()), calibration=calibration)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        capsys.readouterr()
        assert run_cli("experiment", "--config", str(cfg_path), "--out-prefix", str(tmp_path / "run")) == 2
        assert capsys.readouterr().err == f"paintpot: configuration error: {message}\n"
        assert not (tmp_path / "run_trace.csv").exists() and not (tmp_path / "run_summary.json").exists()

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("k", 1e6, "models.filter.k 1000000.0 differs from transition.k 0.2, which the run uses"),
            ("q", 1e9, "models.filter.q 1000000000.0 differs from transition.q 0.05, which the run uses"),
            ("dt", 0.02, "models.filter.dt 0.02 differs from 1/rate_hz 0.01, which the run uses"),
            ("dt", 0.01 * (1.0 + 2e-9), "models.filter.dt 0.01000000002 differs from 1/rate_hz 0.01"),
            ("sigma0", 1e-3, "models.filter.sigma0 0.001 differs from sigma0 0.0001, which the run uses"),
            ("k", "0.2", "models.filter.k must be a finite number, got '0.2'"),
        ],
        ids=["k", "q", "dt", "dt_past_tolerance", "sigma0", "text_k"],
    )
    def test_inline_filter_value_the_run_does_not_use_is_config_error(
        self, tmp_path, wheel_bundle, capsys, key, value, message
    ):
        config = json.loads(json.dumps(presets.EXPERIMENT_PRESETS["pan_pi_to_0"]))
        config["models"] = json.loads(Path(wheel_bundle).read_text())
        config["models"]["filter"][key] = value
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        capsys.readouterr()
        assert run_cli("experiment", "--config", str(cfg_path), "--out-prefix", str(tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"paintpot: configuration error: {message}") and "Traceback" not in err
        assert not (tmp_path / "run_trace.csv").exists() and not (tmp_path / "run_summary.json").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda filter_params: filter_params.update(dt=0.01 * (1.0 + 1e-12)),  # within run_experiment's tolerance
            lambda filter_params: [filter_params.pop(key) for key in ("k", "dt", "q", "sigma0")],
        ],
        ids=["dt_within_tolerance", "no_transition_keys"],
    )
    def test_inline_filter_that_agrees_with_the_run_is_accepted(self, tmp_path, wheel_bundle, edit):
        config = json.loads(json.dumps(presets.EXPERIMENT_PRESETS["pan_pi_to_0"]))
        config["models"] = json.loads(Path(wheel_bundle).read_text())
        edit(config["models"]["filter"])
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli("experiment", "--config", str(cfg_path), "--out-prefix", str(tmp_path / "run")) == 0

    def test_custom_gap_sensor_meets_the_preset_bound(self, tmp_path):
        config = json.loads(json.dumps(presets.EXPERIMENT_PRESETS["pan_pi_to_0"]))
        config["sensor"].update(gap_w0=[1.5, 2.0], gap_w1=[-2.9, -2.5])
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli("experiment", "--config", str(cfg_path), "--out-prefix", str(tmp_path / "run")) == 0
        assert json.loads((tmp_path / "run_summary.json").read_text())["avg_abs_error"] < 0.09

    def test_explicit_models_with_other_gaps_are_config_error(self, tmp_path, wheel_bundle, capsys):
        config = json.loads(json.dumps(presets.EXPERIMENT_PRESETS["pan_pi_to_0"]))
        config["models"] = {**json.loads(Path(wheel_bundle).read_text()), "gap_w0": [1.5, 2.0]}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli("experiment", "--config", str(cfg_path), "--out-prefix", str(tmp_path / "run")) == 2
        assert "does not match the observation model" in capsys.readouterr().err

    def test_tilt_trace_never_reports_a_second_wiper(self, tmp_path):
        prefix = tmp_path / "tilt"
        assert run_cli("experiment", "--config", "tilt_sweep", "--out-prefix", str(prefix)) == 0
        rows = [
            line.split(",")
            for line in (tmp_path / "tilt_trace.csv").read_text().splitlines()[2:]
        ]
        assert all(row[6] == "0" for row in rows)  # f1_avail column
        assert any(row[5] == "1" for row in rows)  # f0_avail column

    def test_non_finite_number_in_an_unused_key_is_config_error(self, tmp_path, capsys):
        # The summary echoes the config and is written without NaN.  Every other
        # key is read or refused as unknown first; no reader reads an inline bundle's manifest.
        config = json.loads(json.dumps(presets.EXPERIMENT_PRESETS["tilt_sweep"]))
        config["models"] = {**json.loads(calibrated_bundle(tmp_path, "tilt").read_text()), "manifest": math.nan}
        cfg_path = tmp_path / "nan.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli("experiment", "--config", str(cfg_path), "--out-prefix", str(tmp_path / "x")) == 2
        assert "non-finite number" in capsys.readouterr().err
        assert not (tmp_path / "x_trace.csv").exists() and not (tmp_path / "x_summary.json").exists()

    def test_summary_is_written_last(self, tmp_path, capsys):
        # A summary shows that the run finished: none is left when the trace cannot be written.
        (tmp_path / "x_trace.csv").mkdir()
        assert run_cli("experiment", "--config", "tilt_sweep", "--out-prefix", str(tmp_path / "x")) == 4
        assert "x_trace.csv" in capsys.readouterr().err
        assert not (tmp_path / "x_summary.json").exists()

    def test_kind_mismatch_is_config_error(self, tmp_path):
        config = {
            "kind": "tilt",
            "trajectory": {"x0": -1.0, "xf": 1.0, "t_total": 2.0},
            "sensor": __import__("paintpot.sensor_sim", fromlist=["sensor_spec_to_dict"])
            .sensor_spec_to_dict(reference_wheel_spec()),
        }
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli("experiment", "--config", str(cfg_path), "--out-prefix",
                       str(tmp_path / "x")) == 2


def _sweep_flag(flag, value):
    def argv(tmp_path, bundle):
        return ["sweep", "--spec", "wheel_reference", "--out", str(tmp_path / "s.csv"), flag, value]

    return argv


def _calibrate_flag(flag, value):
    def argv(tmp_path, bundle):
        sweep = bundle.parent / "sweep.csv"  # the wheel_bundle fixture's sweep
        return ["calibrate", "--in", str(sweep), "--kind", "wheel", "--out", str(tmp_path / "b.json"), flag, value]

    return argv


def _bundle_filter(key, value):
    def argv(tmp_path, bundle):
        data = json.loads(bundle.read_text())
        data["filter"][key] = value
        edited, readings = tmp_path / "edited.json", tmp_path / "r.csv"
        edited.write_text(json.dumps(data))
        write_readings_csv(readings, [(0.0, 500, 510, 0.0), (0.01, 500, 510, 0.0)])
        return ["estimate", "--model", str(edited), "--readings", str(readings), "--out", str(tmp_path / "t.csv")]

    return argv


def _controller(key, value):
    def argv(tmp_path, bundle):
        config = json.loads(json.dumps(presets.EXPERIMENT_PRESETS["pan_pi_to_0"]))
        config["controller"][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return ["experiment", "--config", str(path), "--out-prefix", str(tmp_path / "x")]

    return argv


# Non-finite and non-numeric values of flags and file keys, and the name the
# error must give.
BAD_VALUES = [
    (_sweep_flag("--rate-hz", "nan"), "rate_hz"),
    (_sweep_flag("--rate-hz", "inf"), "rate_hz"),
    (_sweep_flag("--duration-s", "nan"), "duration_s"),
    (_calibrate_flag("--k", "nan"), "k must be finite"),
    (_calibrate_flag("--dt", "inf"), "dt must be finite"),
    (_calibrate_flag("--q", "nan"), "q must be finite"),
    (_calibrate_flag("--sigma0", "nan"), "sigma0"),
    (_calibrate_flag("--sigma0", "inf"), "sigma0"),
    (_bundle_filter("sigma0", "abc"), "filter.sigma0"),
    (_bundle_filter("sigma0", "inf"), "filter.sigma0"),
    (_bundle_filter("k", [1]), "filter.k"),
    (_bundle_filter("r0", {}), "filter.r0"),
    (_controller("kp", math.nan), "kp"),
    (_controller("omega_max", math.nan), "omega_max"),
]
BAD_VALUE_IDS = [
    "sweep_nan_rate", "sweep_inf_rate", "sweep_nan_duration", "calibrate_nan_k", "calibrate_inf_dt",
    "calibrate_nan_q", "calibrate_nan_sigma0", "calibrate_inf_sigma0", "bundle_text_sigma0",
    "bundle_inf_sigma0", "bundle_list_k", "bundle_dict_r0", "experiment_nan_kp", "experiment_nan_omega_max",
]


@pytest.mark.parametrize("argv,name", BAD_VALUES, ids=BAD_VALUE_IDS)
def test_bad_value_is_config_error_naming_it(tmp_path, wheel_bundle, capsys, argv, name):
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert run_cli(*argv(out, wheel_bundle)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and name in err
    assert not any((out / name).exists() for name in ("s.csv", "b.json", "t.csv", "x_trace.csv"))


def _spoiled(path, text, at):
    """Write ``text`` to ``path`` as UTF-8 with a 0xff byte inserted before byte ``at``."""
    data = text.encode("utf-8")
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    return str(path)


def _readings_not_utf8(tmp_path, bundle):
    lines = ["t,v0,v1,omega", *(f"{i * 0.01:.2f},500,510,0.0" for i in range(1000))]
    text = "\n".join(lines) + "\n"
    readings = _spoiled(tmp_path / "r.csv", text, text.index("9.00,"))  # past the first 8 KiB
    return ["estimate", "--model", str(bundle), "--readings", readings, "--out", str(tmp_path / "t.csv")], (
        f"{readings}: line 902: not UTF-8: invalid start byte"
    )


def _calibration_not_utf8(tmp_path, bundle):
    text = (bundle.parent / "sweep.csv").read_text()  # the wheel_bundle fixture's sweep
    sweep = _spoiled(tmp_path / "s.csv", text, text.index("\n") + 1)
    return ["calibrate", "--in", sweep, "--kind", "wheel", "--out", str(tmp_path / "b.json")], (
        f"{sweep}: line 2: not UTF-8: invalid start byte"
    )


@pytest.mark.parametrize("argv", [_readings_not_utf8, _calibration_not_utf8], ids=["readings", "calibration"])
def test_input_that_is_not_utf8_is_config_error_naming_the_file(tmp_path, wheel_bundle, capsys, argv):
    out = tmp_path / "out"
    out.mkdir()
    args, message = argv(out, wheel_bundle)
    capsys.readouterr()
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err


def _json_reader(tmp_path, bundle, kind):
    """A command that reads one JSON file of ``kind``, that file's path, and a valid text for it."""
    path = tmp_path / f"{kind}.json"
    if kind == "bundle":
        readings = tmp_path / "r.csv"
        write_readings_csv(readings, [(0.0, 500, 510, 0.0), (0.01, 500, 510, 0.0)])
        argv = ["estimate", "--model", str(path), "--readings", str(readings), "--out", str(tmp_path / "t.csv")]
        return argv, path, bundle.read_text()
    if kind == "sensor_spec":
        save_sensor_spec(reference_tilt_spec(), path)
        return ["sweep", "--spec", str(path), "--out", str(tmp_path / "s.csv")], path, path.read_text()
    text = json.dumps(presets.EXPERIMENT_PRESETS["tilt_sweep"], indent=2)
    return ["experiment", "--config", str(path), "--out-prefix", str(tmp_path / "x")], path, text


@pytest.mark.parametrize("kind", ["bundle", "sensor_spec", "experiment_config"])
@pytest.mark.parametrize("fault", ["malformed_json", "not_utf8"])
def test_json_file_that_does_not_parse_is_config_error_naming_it(tmp_path, wheel_bundle, capsys, kind, fault):
    out = tmp_path / "out"
    out.mkdir()
    argv, path, text = _json_reader(out, wheel_bundle, kind)
    middle = len(text) // 2
    if fault == "malformed_json":
        path.write_text(text[:middle], encoding="utf-8")
        message = f"paintpot: configuration error: {path}: invalid JSON: "
    else:
        _spoiled(path, text, middle)
        line = text[:middle].count("\n") + 1
        message = f"paintpot: configuration error: {path}: line {line}: not UTF-8: invalid start byte\n"
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert {p.name for p in out.iterdir()} <= {path.name, "r.csv"}  # no output written


@pytest.mark.parametrize("kind", ["bundle", "sensor_spec", "calibrate_spec", "experiment_config"])
@pytest.mark.parametrize("text,name", [("[1, 2]", "list"), ("null", "NoneType")], ids=["list", "null"])
def test_json_file_that_is_not_an_object_is_config_error_naming_it(tmp_path, wheel_bundle, capsys, kind, text, name):
    out = tmp_path / "out"
    out.mkdir()
    if kind == "calibrate_spec":
        path = out / "spec.json"
        sweep = str(wheel_bundle.parent / "sweep.csv")
        argv = ["calibrate", "--in", sweep, "--spec", str(path), "--out", str(out / "b.json")]
    else:
        argv, path, _ = _json_reader(out, wheel_bundle, kind)
    path.write_text(text + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err == f"paintpot: configuration error: {path}: expected a JSON object, got {name}\n"
    assert {p.name for p in out.iterdir()} <= {path.name, "r.csv"}  # no output written


def _tilt_config(path, value):
    """A copy of the ``tilt_sweep`` preset with ``value`` at the dotted key ``path``."""
    *sections, key = path.split(".")
    config = json.loads(json.dumps(presets.EXPERIMENT_PRESETS["tilt_sweep"]))
    table = config
    for section in sections:
        table = table[section]
    table[key] = value
    return config


# Experiment-config values that are not numbers, not finite, out of range or
# not whole, and the key path the error must name.
BAD_CONFIG_VALUES = [
    ("sigma0", "abc"),
    ("sigma0", math.inf),
    ("rate_hz", "abc"),
    ("plant_q", "abc"),
    ("plant_q", -0.5),
    ("plant_q", math.nan),
    ("trajectory.x0", "abc"),
    ("calibration.rate_hz", "abc"),
    ("seed", 1.5),
    ("seed", True),
    ("seed", "7"),
    ("rate_hz", True),
    ("rate_hz", "100"),
    ("transition.k", False),
    ("controller.kp", "6"),
]


@pytest.mark.parametrize("path,value", BAD_CONFIG_VALUES, ids=[f"{p}={v}" for p, v in BAD_CONFIG_VALUES])
def test_bad_experiment_config_value_is_config_error_naming_its_key(tmp_path, capsys, path, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_tilt_config(path, value)))
    capsys.readouterr()
    assert run_cli("experiment", "--config", str(config), "--out-prefix", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"configuration error: {path} must" in err
    assert not (tmp_path / "x_trace.csv").exists() and not (tmp_path / "x_summary.json").exists()


# In-range checks made past the number conversion, in the library: the
# error still names the key path, not the bare field.
OUT_OF_RANGE_CONFIG_VALUES = [
    ("calibration.rate_hz", -1),
    ("calibration.duration_s", 0.01),
    ("transition.q", -1),
    ("controller.kp", -1),
    ("controller.omega_max", -1),
    ("trajectory.t_total", -1),
]


@pytest.mark.parametrize(
    "path,value", OUT_OF_RANGE_CONFIG_VALUES, ids=[f"{p}={v}" for p, v in OUT_OF_RANGE_CONFIG_VALUES]
)
def test_out_of_range_experiment_config_value_names_its_key(tmp_path, capsys, path, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_tilt_config(path, value)))
    capsys.readouterr()
    assert run_cli("experiment", "--config", str(config), "--out-prefix", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("paintpot: configuration error: ") and path in err
    assert not (tmp_path / "x_trace.csv").exists() and not (tmp_path / "x_summary.json").exists()


# Keys no experiment config reads, each of which would otherwise fall back to
# its default, and the error that names them in the order they are checked.
UNKNOWN_CONFIG_KEYS = [
    (("sigma_0",), "unknown experiment-config key: sigma_0"),
    (("controller.kP",), "unknown experiment-config key: controller.kP"),
    (("trajectory.x_0",), "unknown experiment-config key: trajectory.x_0"),
    (("transition.dt",), "unknown experiment-config key: transition.dt"),
    (("calibration.rate",), "unknown experiment-config key: calibration.rate"),
    (("controller.kP", "sigma_0"), "unknown experiment-config keys: sigma_0, controller.kP"),
    (("sensor.note",), "unknown sensor-spec key: sensor.note"),
    (("sensor.truth.note",), "unknown cubic key: sensor.truth.note"),
]


@pytest.mark.parametrize("paths,message", UNKNOWN_CONFIG_KEYS, ids=["+".join(p) for p, _ in UNKNOWN_CONFIG_KEYS])
def test_unknown_experiment_config_key_is_config_error_naming_it(tmp_path, capsys, paths, message):
    config = json.loads(json.dumps(presets.EXPERIMENT_PRESETS["tilt_sweep"]))
    for path in paths:
        *sections, key = path.split(".")
        table = config
        for section in sections:
            table = table[section]
        table[key] = 0.0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert run_cli("experiment", "--config", str(path), "--out-prefix", str(tmp_path / "x")) == 2
    assert capsys.readouterr().err == f"paintpot: configuration error: {message}\n"
    assert not (tmp_path / "x_trace.csv").exists() and not (tmp_path / "x_summary.json").exists()


def test_whole_number_seed_is_accepted(tmp_path):
    # A float seed that is whole runs as that integer, as before the check.
    for name, seed in (("int", 7), ("float", 7.0)):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(_tilt_config("seed", seed)))
        assert run_cli("experiment", "--config", str(config), "--out-prefix", str(tmp_path / name)) == 0
        assert json.loads((tmp_path / f"{name}_summary.json").read_text())["seed"] == 7
    assert (tmp_path / "int_trace.csv").read_text().splitlines()[1:] == (
        (tmp_path / "float_trace.csv").read_text().splitlines()[1:]
    )


# JSON count fields take one rule (errors.as_int): an int, or a float that
# is a whole number, and never a bool.  Each fault exits 2 naming its key.
@pytest.mark.parametrize("value", [1023.9, True, "1023"], ids=["fraction", "bool", "text"])
def test_sweep_spec_adc_max_must_be_an_integer(tmp_path, capsys, value):
    spec, out = tmp_path / "spec.json", tmp_path / "sweep.csv"
    spec.write_text(json.dumps({**sensor_spec_to_dict(reference_tilt_spec()), "adc_max": value}))
    assert run_cli("sweep", "--spec", str(spec), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"paintpot: configuration error: adc_max must be an integer, got {value!r}\n"
    assert not out.exists()


def test_whole_number_adc_max_sweeps_as_that_integer(tmp_path):
    spec, out = tmp_path / "spec.json", tmp_path / "sweep.csv"
    written = []
    for adc_max in (1023, 1023.0):
        spec.write_text(json.dumps({**sensor_spec_to_dict(reference_tilt_spec()), "adc_max": adc_max}))
        assert run_cli("sweep", "--spec", str(spec), "--out", str(out), "--seed", "2", "--duration-s", "10") == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


BUNDLE_COUNT_FAULTS = [
    (("valid_ranges", 0, "v_min"), 100.9, "valid_ranges[0].v_min"),
    (("valid_ranges", 1, "v_max"), True, "valid_ranges[1].v_max"),
    (("fit_report", "wipers", 0, "n"), 3.5, "fit_report.wipers[0].n"),
    (("adc_max",), True, "adc_max"),
]


@pytest.mark.parametrize("keys,value,name", BUNDLE_COUNT_FAULTS, ids=[n for _, _, n in BUNDLE_COUNT_FAULTS])
def test_estimate_bundle_count_must_be_an_integer(tmp_path, wheel_bundle, capsys, keys, value, name):
    data = json.loads(Path(wheel_bundle).read_text())
    _set(*keys, value)(data)
    bundle, readings, out = tmp_path / "edited.json", tmp_path / "r.csv", tmp_path / "t.csv"
    bundle.write_text(json.dumps(data))
    write_readings_csv(readings, [(0.0, 500, 510, 0.0), (0.01, 500, 510, 0.0)])
    capsys.readouterr()
    assert run_cli("estimate", "--model", str(bundle), "--readings", str(readings), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"paintpot: configuration error: {name} must be an integer, got {value!r}\n"
    assert not out.exists()


def test_whole_number_valid_range_estimates_as_that_integer(tmp_path, wheel_bundle):
    data = json.loads(Path(wheel_bundle).read_text())
    bundle, readings, out = tmp_path / "edited.json", tmp_path / "r.csv", tmp_path / "t.csv"
    write_readings_csv(readings, [(0.0, 500, 510, 0.0), (0.01, 501, 509, 1.0)])
    traces = []
    for convert in (int, float):
        data["valid_ranges"] = [{k: convert(v) for k, v in r.items()} for r in data["valid_ranges"]]
        bundle.write_text(json.dumps(data))
        assert run_cli("estimate", "--model", str(bundle), "--readings", str(readings), "--out", str(out)) == 0
        traces.append(out.read_bytes())
    assert traces[0] == traces[1]


# Each command's manifest, run in an empty working directory with relative
# names, as recorded before the manifest became a plain dict: the comment
# line of each CSV and the "manifest" key of each JSON file, as sorted-key JSON.
MANIFESTS = {
    "sweep.csv": '{"command": "sweep", "config_sha256": '
                 '"e0760f589a977e7a9dd76bd669684e7ace46b60b7ccb4e632779ddf7577cdec4", '
                 '"inputs": {"spec": "wheel_reference"}, "outputs": ["sweep.csv"], "seed": 3}',
    "bundle.json": '{"command": "calibrate", "config_sha256": '
                   '"5fd5e0d60c288163580754a6d1c3df06b984579a8dbb2ac403d0058479bbc5aa", '
                   '"inputs": {"log": "sweep.csv"}, "outputs": ["bundle.json"], "seed": null}',
    "estimate.csv": '{"command": "estimate", "config_sha256": '
                    '"dacf1cd171bd968d18fd994bcdde9b1db4b3399d9f34b4cacedfb09528234fe7", '
                    '"inputs": {"model": "bundle.json", "readings": "readings.csv"}, '
                    '"outputs": ["estimate.csv"], "seed": null}',
    "tilt_trace.csv": '{"command": "experiment", "config_sha256": '
                      '"cff0fe0a45272e3610d538168eca853dfbb006bc574a80badffab5729564f243", '
                      '"inputs": {"config": "tilt_sweep"}, "outputs": ["tilt_trace.csv", "tilt_summary.json"], '
                      '"seed": 103}',
}
MANIFESTS["tilt_summary.json"] = MANIFESTS["tilt_trace.csv"]


def test_manifests_are_the_recorded_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("sweep", "--spec", "wheel_reference", "--out", "sweep.csv", "--seed", "3") == 0
    assert run_cli("calibrate", "--in", "sweep.csv", "--kind", "wheel", "--out", "bundle.json") == 0
    rows = [line.split(",") for line in Path("sweep.csv").read_text().splitlines()[2:]]
    Path("readings.csv").write_text("t,v0,v1,omega\n" + "".join(f"{t},{v0},{v1},0\n" for t, _, v0, v1 in rows))
    assert run_cli("estimate", "--model", "bundle.json", "--readings", "readings.csv", "--out", "estimate.csv") == 0
    assert run_cli("experiment", "--config", "tilt_sweep", "--out-prefix", "tilt") == 0
    for name, manifest in MANIFESTS.items():
        text = Path(name).read_text()
        if name.endswith(".csv"):
            assert text.split("\n", 1)[0] == f"# manifest {manifest}"
        else:
            assert json.dumps(json.loads(text)["manifest"], sort_keys=True) == manifest


class TestConsoleEntry:
    def test_module_invocation_works(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = tmp_path / "sweep.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "paintpot", "sweep", "--spec", "tilt_reference",
             "--out", str(out), "--seed", "0", "--duration-s", "10"],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_estimate_reads_a_pipe_as_it_reads_the_file(self, tmp_path, wheel_bundle):
        # A pipe cannot seek; a `< file` redirection would make /dev/stdin seekable.
        rows = [line.split(",") for line in (wheel_bundle.parent / "sweep.csv").read_text().splitlines()[2:]]
        log = "t,v0,v1,omega\n" + "".join(f"{t},{v0},{v1},0\n" for t, _, v0, v1 in rows)
        readings = tmp_path / "readings.csv"
        readings.write_text(log, encoding="utf-8")
        assert run_cli("estimate", "--model", str(wheel_bundle), "--readings", str(readings),
                       "--out", str(tmp_path / "file.csv")) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "paintpot", "estimate", "--model", str(wheel_bundle),
             "--readings", "/dev/stdin", "--out", str(tmp_path / "pipe.csv")],
            input=log.encode("utf-8"), capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        past_manifest = [(tmp_path / name).read_bytes().split(b"\n", 1)[1] for name in ("file.csv", "pipe.csv")]
        assert len(rows) > 500 and past_manifest[0] == past_manifest[1]

    def test_calibrate_and_experiment_leave_numpy_polynomial_unloaded(self, tmp_path):
        # The fit solves numpy.polynomial's system without importing it.
        script = (
            "import sys\n"
            "from paintpot import cli\n"
            "cli.run_sweep('wheel_reference', 'sweep.csv', 1, 14.0, 50.0)\n"
            "cli.run_calibrate('sweep.csv', 'wheel', 'bundle.json')\n"
            "cli.run_experiment_command('pan_pi_to_0', 'pan')\n"
            "print(sorted(name for name in sys.modules if name.startswith('numpy.polynomial')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
        assert (tmp_path / "bundle.json").exists() and (tmp_path / "pan_summary.json").exists()
