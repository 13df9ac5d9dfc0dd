"""Byte-level snapshots of the simulator-driven command outputs.

The digests were recorded with the plain-bisection cubic inversion the
simulator used before its bracketed-Newton one, so they pin that the
faster inversion changed no quantized count, no fitted model and no
closed-loop trace.  Only data rows are hashed: the manifest comment line
names the output paths, which differ from run to run.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from paintpot import cli, presets
from paintpot.presets import reference_tilt_spec, reference_wheel_spec
from paintpot.sensor_sim import read_tilt, read_wheel

from oracles import bisect_root, cubic_value, five_region_shifted_states

PI = math.pi

SWEEP_DIGESTS = {
    ("wheel_reference", 5):
        "b06c01b91fd673793362d679fbe20948af090e76a44ee3fbec38b685b4ec8c38",
    ("wheel_reference", 23):
        "d89cd266ac1a5231110d6b88bca5c8a35deec4343016788d4d778eab22646754",
    ("tilt_reference", 5):
        "587957d48a9c0559d2e8ef4b1cd584becd869c4eb674c30fc2dc0c54426e7d71",
    ("tilt_reference", 23):
        "1ae5be3d1c5178d983adbae63d33fb226ebdd9f1cd3e79e45a62c26119f8984f",
}

BUNDLE_DIGESTS = {
    ("wheel_reference", 5):
        "f2a7604381b4d10ccbafdec7778228be6484160b9cee569ba494df717e059f6d",
    ("wheel_reference", 23):
        "37a2037dcaa946847583b2f3ac62e72e52032676968d9d8cfdd7c52ce195582a",
    ("tilt_reference", 5):
        "9d0449571cb8ca796375db9780231f0bdbed9ca13636caa2670cb8135be2d866",
    ("tilt_reference", 23):
        "c6ab961d949da0ff0bda46029d2fa8391fe0109c36ead17e14cd06eb23520589",
}

TRACE_DIGESTS = {
    ("pan_pi_to_0", 5):
        "dd1bc11628afe43a95308f3a5009e441eb5b0773be4580ad9c48102575858601",
    ("pan_pi_to_0", 23):
        "57344bf8bf8a7e5406dc14f19456b251cff70f2fd98d51660f0aa235dd68dd8b",
    ("pan_negpi_to_0", 5):
        "3f87632d051b6c94f5d17056f56aa3963728f59fa5d42b40dec5a8848c873e29",
    ("pan_negpi_to_0", 23):
        "86f46d8956c98c39307c562b890935d3bab9dc282f3f413f873cf0a9373d6ce3",
    ("tilt_sweep", 5):
        "f65df728fd145d14cf7ff50e347a36e376d2349429b7419878de21cdf2169481",
    ("tilt_sweep", 23):
        "4918c2ab49823bf83b630ef4dbd99828cd8ff10eba56e8abd95da6a4f1ed8549",
}


def data_rows_sha256(path):
    """sha256 of a CSV's lines with every ``#`` comment line dropped."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = [line for line in handle if not line.startswith("#")]
    return hashlib.sha256("".join(rows).encode("utf-8")).hexdigest()


def sweep_digest(tmp_path, spec_ref, seed):
    out = tmp_path / f"{spec_ref}_{seed}.csv"
    cli.run_sweep(spec_ref, str(out), seed, 14.0, 50.0)
    return data_rows_sha256(out)


def bundle_digest(tmp_path, spec_ref, seed):
    """sha256 of the bundle ``calibrate`` fits to the sweep, manifest dropped."""
    sweep = tmp_path / f"{spec_ref}_{seed}.csv"
    cli.run_sweep(spec_ref, str(sweep), seed, 14.0, 50.0)
    bundle = tmp_path / f"{spec_ref}_{seed}.json"
    cli.run_calibrate(str(sweep), spec_ref.split("_")[0], str(bundle))
    data = json.loads(bundle.read_text(encoding="utf-8"))
    del data["manifest"]
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def trace_digest(tmp_path, preset, seed):
    config = tmp_path / f"{preset}_{seed}.json"
    config.write_text(json.dumps({**presets.EXPERIMENT_PRESETS[preset], "seed": seed}))
    prefix = tmp_path / f"{preset}_{seed}"
    cli.run_experiment_command(str(config), str(prefix))
    return data_rows_sha256(f"{prefix}_trace.csv")


@pytest.mark.parametrize("spec_ref,seed", sorted(SWEEP_DIGESTS))
def test_sweep_rows_match_snapshot(tmp_path, spec_ref, seed):
    assert sweep_digest(tmp_path, spec_ref, seed) == SWEEP_DIGESTS[(spec_ref, seed)]


@pytest.mark.parametrize("spec_ref,seed", sorted(BUNDLE_DIGESTS))
def test_calibrated_bundle_matches_snapshot(tmp_path, spec_ref, seed):
    assert bundle_digest(tmp_path, spec_ref, seed) == BUNDLE_DIGESTS[(spec_ref, seed)]


@pytest.mark.parametrize("preset,seed", sorted(TRACE_DIGESTS))
def test_experiment_trace_rows_match_snapshot(tmp_path, preset, seed):
    assert trace_digest(tmp_path, preset, seed) == TRACE_DIGESTS[(preset, seed)]


def oracle_count(c3, c2, c1, c0, window, target):
    """Zero-noise count: the oracle bisection root rounded half up."""
    root = bisect_root(
        lambda v: cubic_value(c3, c2, c1, c0, v) - target, window[0], window[1], tol=1e-12
    )
    return math.floor(root + 0.5)


def test_zero_noise_wheel_counts_equal_rounded_oracle_roots():
    spec = reference_wheel_spec(noise_std=0.0)
    rng = np.random.default_rng(0)
    truths = (spec.truth_w0, spec.truth_w1)
    # A 2*pi/4000 step moves a wiper by at most 0.2 counts: every count is hit.
    for theta in np.linspace(-PI, PI, 4_001)[1:]:
        readings = read_wheel(float(theta), spec, rng)
        for reading, shifted, truth in zip(readings, five_region_shifted_states(theta), truths):
            assert reading.available == (shifted is not None)
            if shifted is not None:
                want = oracle_count(
                    truth.c3, truth.c2, truth.c1, truth.c0, truth.v_window, shifted
                )
                assert reading.count == want, (float(theta), reading.wiper_index)


def test_zero_noise_tilt_counts_equal_rounded_oracle_roots():
    spec = reference_tilt_spec(noise_std=0.0)
    rng = np.random.default_rng(0)
    t = spec.truth
    for theta in np.linspace(-spec.angle_limit, spec.angle_limit, 2_001):
        reading = read_tilt(float(theta), spec, rng)
        assert reading.count == oracle_count(t.c3, t.c2, t.c1, t.c0, t.v_window, theta)
