import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paintpot import cli, estimate, presets
from paintpot.characterize import load_bundle
from paintpot.presets import (
    WHEEL_TRUTH_W0,
    WHEEL_TRUTH_W1,
    reference_tilt_spec,
    reference_wheel_spec,
)
from paintpot.sensor_sim import (
    AdcReading,
    read_wheel,
    save_sensor_spec,
    sensor_spec_from_dict,
    sensor_spec_to_dict,
)

PI = math.pi
SRC = Path(__file__).resolve().parents[1] / "src"


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
        assert "noise_std must be >= 0 and finite, got inf" in capsys.readouterr().err
        assert not out.exists()

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


def write_readings_csv(path, rows, wheel=True):
    header = "t,v0,v1,omega" if wheel else "t,v0,omega"
    with open(path, "w", newline="\n") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(str(x) for x in row) + "\n")


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
    sigma0 = estimate.filter_value(bundle.filter_params, "sigma0", estimate.DEFAULT_SIGMA0)
    estimator = (estimate.WheelEstimator if wheel else estimate.TiltEstimator)(
        obs, estimate.transition_from_bundle(bundle), sigma0
    )
    steps = [[AdcReading(i, count, True) for i, count in enumerate(row[1:-1])] for row in rows]
    belief = estimator.initialize(steps[0])
    lines = [(rows[0][0], belief.mu, belief.sigma, len(estimate.extract_features(steps[0], obs)))]
    for row, readings_of_row in zip(rows[1:], steps[1:]):
        belief, used = estimator.step(row[-1], readings_of_row)
        lines.append((row[0], belief.mu, belief.sigma, sum(used) if wheel else used))
    written = out.read_text().splitlines(keepends=True)
    assert written[1] == "t,mu,sigma,n_features\n"
    assert written[2:] == ["%.17g,%.17g,%.17g,%d\n" % line for line in lines]
    return [line[2] for line in lines], [int(line[3]) for line in lines]


def _set(*keys_and_value):
    *keys, last, value = keys_and_value

    def edit(data):
        for key in keys:
            data = data[key]
        data[last] = value

    return edit


# Bundle edits that put a count window outside [0, adc_max], and the field
# each error names.
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
]
BUNDLE_EDIT_IDS = [
    "adc_max_not_2_pow_bits_minus_1", "adc_max_zero", "v_max_5000", "v_max_one_over",
    "window_above_adc_max", "window_below_zero", "one_valid_range", "one_model",
]


@pytest.fixture()
def wheel_bundle(tmp_path):
    sweep = tmp_path / "sweep.csv"
    bundle_path = tmp_path / "bundle.json"
    assert run_cli("sweep", "--spec", "wheel_reference", "--out", str(sweep), "--seed", "4") == 0
    assert run_cli(
        "calibrate", "--in", str(sweep), "--kind", "wheel", "--out", str(bundle_path),
        "--k", "0.2", "--dt", "0.01", "--q", "0.05",
    ) == 0
    return bundle_path


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
        from paintpot.geometry import wrapped_difference

        jumps = [abs(wrapped_difference(a, b)) for a, b in zip(mus[1:], mus[:-1])]
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

    def test_tilt_trace_lines_are_the_steps_formatted(self, tmp_path):
        # The variance settles, so most rows repeat an earlier sigma; every
        # 37th count is a rail count outside the model window.
        from paintpot.sensor_sim import read_tilt

        sweep, bundle = tmp_path / "tsweep.csv", tmp_path / "tbundle.json"
        assert run_cli("sweep", "--spec", "tilt_reference", "--out", str(sweep), "--seed", "5") == 0
        assert run_cli("calibrate", "--in", str(sweep), "--kind", "tilt", "--out", str(bundle)) == 0
        spec, rng = reference_tilt_spec(noise_std=1.0), np.random.default_rng(8)
        rows = []
        for i in range(600):
            count = read_tilt(0.6 * math.sin(i / 50.0), spec, rng.normal(0.0, 1.0, 1)).count
            rows.append((i * 0.01, 1023 if i % 37 == 36 else count, 1.2 * math.cos(i / 50.0)))
        sigmas, n_features = assert_trace_lines_are_the_steps(tmp_path, bundle, rows)
        assert len(set(sigmas)) < len(sigmas) / 4
        assert set(n_features) == {0, 1}

    def test_wheel_trace_lines_are_the_steps_formatted(self, tmp_path, wheel_bundle):
        # Through the gap and round a turn: features come and go.
        from paintpot.sensor_sim import simulate_plant_step

        spec, rng = reference_wheel_spec(noise_std=1.0), np.random.default_rng(23)
        theta, rows = 0.45 * PI, []
        for i in range(500):
            theta, _ = simulate_plant_step(theta, 4.0, 0.2, 0.01, rng.normal(0.0, 0.0))
            a, b = read_wheel(theta, spec, rng.normal(0.0, spec.noise_std, 2))
            rows.append((i * 0.01, a.count, b.count, 4.0))
        sigmas, n_features = assert_trace_lines_are_the_steps(tmp_path, wheel_bundle, rows)
        assert len(set(sigmas)) > len(sigmas) / 2
        assert {1, 2} <= set(n_features)

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
            "fractional_count", "empty_count", "huge_count", "late_short_row", "late_malformed",
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

    @pytest.mark.parametrize("edit,message", BUNDLE_EDITS, ids=BUNDLE_EDIT_IDS)
    def test_bundle_outside_the_adc_window_is_schema_error(
        self, tmp_path, wheel_bundle, capsys, edit, message
    ):
        data = json.loads(Path(wheel_bundle).read_text())
        edit(data)
        bundle = tmp_path / "edited.json"
        bundle.write_text(json.dumps(data))
        readings = tmp_path / "r.csv"
        write_readings_csv(readings, [(0.0, 500, 510, 0.0), (0.01, 500, 510, 0.0)])
        out = tmp_path / "t.csv"
        assert run_cli("estimate", "--model", str(bundle), "--readings", str(readings),
                       "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (_set("filter", "r0", math.nan), "wiper 0: measurement variance r must be finite and positive, got nan"),
            (_set("filter", "r1", "inf"), "wiper 1: measurement variance r must be finite and positive, got inf"),
            (_set("filter", "r0", 0.0), "wiper 0: measurement variance r must be finite and positive, got 0.0"),
            (_set("filter", "r1", -1e-4), "wiper 1: measurement variance r must be finite and positive"),
            (_set("filter", "k", "nan"), "k must be finite, got nan"),
            (_set("filter", "dt", math.inf), "dt must be finite, got inf"),
            (_set("filter", "q", "-inf"), "q must be finite, got -inf"),
            (_set("models", 0, "c1", "inf"), "cubic coefficients must be finite"),
        ],
        ids=["nan_r0", "inf_r1", "zero_r0", "negative_r1", "nan_k", "inf_dt", "minus_inf_q", "inf_c1"],
    )
    def test_bad_filter_value_is_schema_error(self, tmp_path, wheel_bundle, capsys, edit, message):
        data = json.loads(Path(wheel_bundle).read_text())
        edit(data)
        bundle = tmp_path / "edited.json"
        bundle.write_text(json.dumps(data))
        readings = tmp_path / "r.csv"
        write_readings_csv(readings, [(0.0, 500, 510, 0.0), (0.01, 500, 510, 0.0)])
        out = tmp_path / "t.csv"
        assert run_cli("estimate", "--model", str(bundle), "--readings", str(readings),
                       "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (_set("filter", "r", "nan"), "wiper 0: measurement variance r must be finite and positive"),
            (_set("valid_ranges", [{"v_min": 10, "v_max": 900}]),
             "tilt bundle has (models, valid ranges) = (1, 1), expected (1, 0)"),
        ],
        ids=["nan_r", "valid_range"],
    )
    def test_bad_tilt_bundle_is_schema_error(self, tmp_path, capsys, edit, message):
        sweep, bundle = tmp_path / "tsweep.csv", tmp_path / "tbundle.json"
        assert run_cli("sweep", "--spec", "tilt_reference", "--out", str(sweep), "--seed", "5") == 0
        assert run_cli("calibrate", "--in", str(sweep), "--kind", "tilt", "--out", str(bundle)) == 0
        data = json.loads(bundle.read_text())
        edit(data)
        bundle.write_text(json.dumps(data))
        readings = tmp_path / "treadings.csv"
        write_readings_csv(readings, [(0.0, 500, 0.0), (0.01, 500, 0.0)], wheel=False)
        assert run_cli("estimate", "--model", str(bundle), "--readings", str(readings),
                       "--out", str(tmp_path / "t.csv")) == 2
        assert message in capsys.readouterr().err

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
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run_trace.csv").exists()

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
        # The summary echoes the config and is written without NaN.
        config = json.loads(json.dumps(presets.EXPERIMENT_PRESETS["tilt_sweep"]))
        config["note"] = math.nan
        cfg_path = tmp_path / "nan.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli("experiment", "--config", str(cfg_path), "--out-prefix", str(tmp_path / "x")) == 2
        assert "non-finite number" in capsys.readouterr().err
        assert not (tmp_path / "x_trace.csv").exists() and not (tmp_path / "x_summary.json").exists()

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


def _bundle_not_utf8(tmp_path, bundle):
    edited, readings = tmp_path / "edited.json", tmp_path / "r.csv"
    _spoiled(edited, bundle.read_text(), 1)
    write_readings_csv(readings, [(0.0, 500, 510, 0.0), (0.01, 500, 510, 0.0)])
    return ["estimate", "--model", str(edited), "--readings", str(readings), "--out", str(tmp_path / "t.csv")], (
        f"{edited}: not UTF-8"
    )


def _config_not_utf8(tmp_path, bundle):
    config = _spoiled(tmp_path / "config.json", json.dumps(presets.EXPERIMENT_PRESETS["tilt_sweep"]), 1)
    return ["experiment", "--config", config, "--out-prefix", str(tmp_path / "x")], f"{config}: not UTF-8"


def _spec_not_utf8(tmp_path, bundle):
    save_sensor_spec(reference_tilt_spec(), tmp_path / "spec.json")
    spec = _spoiled(tmp_path / "spec.json", (tmp_path / "spec.json").read_text(), 1)
    return ["sweep", "--spec", spec, "--out", str(tmp_path / "s.csv")], f"{spec}: not UTF-8"


@pytest.mark.parametrize(
    "argv", [_readings_not_utf8, _calibration_not_utf8, _bundle_not_utf8, _config_not_utf8, _spec_not_utf8],
    ids=["readings", "calibration", "bundle", "experiment_config", "sensor_spec"],
)
def test_input_that_is_not_utf8_is_config_error_naming_the_file(tmp_path, wheel_bundle, capsys, argv):
    out = tmp_path / "out"
    out.mkdir()
    args, message = argv(out, wheel_bundle)
    capsys.readouterr()
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err


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
