"""Byte-level snapshots of the simulator-driven command outputs.

The sweep, bundle and experiment digests were recorded with the
plain-bisection cubic inversion the simulator used before its
bracketed-Newton one, so they pin that the faster inversion changed no
quantized count, no fitted model and no closed-loop trace.  The estimate
digests were recorded with the filter that evaluated the fitted cubic on
every reading, before the count-to-angle tables, so they pin that the
table-driven filter changed no trace byte.  Only data rows are hashed: the
manifest comment line names the output paths, which differ from run to
run.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from paintpot import cli, presets
from paintpot.characterize import load_bundle
from paintpot.estimate import observation_from_bundle
from paintpot.presets import reference_tilt_spec, reference_wheel_spec
from paintpot.sensor_sim import read_tilt, read_wheel, simulate_plant_step

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

# Recorded when every read and plant step drew its own noise, before each
# sweep and run drew its noise in one block.  An odd row count: 117 rows of
# a 9 Hz, 13 s sweep.
ODD_SWEEP_DIGESTS = {
    ("wheel_reference", 5):
        "31fd67ebeb2c042619794384e80549174dd98d2774fde3ad4fec08b916dcb0d2",
    ("tilt_reference", 5):
        "13c5e8864d5d0416d3389e62dc5498fe918afe658e17360bb849a660b0af2871",
}

# Recorded with the same code as ODD_SWEEP_DIGESTS.  ``"plant_q": 0``: the
# plant's rate-noise draws have scale 0, a column of signed zeros.
ZERO_PLANT_Q_TRACE_DIGESTS = {
    ("pan_pi_to_0", 5):
        "0e864d26c0aab2de8bb8636035e609beddba4c3566c26d3478fb19478d4ff518",
    ("tilt_sweep", 5):
        "2dfd2b9c1e658165a60ea071258a24cde98b157ca4861ef900822c6f47c2c224",
}

ESTIMATE_DIGESTS = {
    ("wheel", 5):
        "0474a3a77e20dd242d9c5b5609708e2ae532f2da1b26dbaefa4074300b8a7833",
    ("wheel", 23):
        "0f4092f96abc9fe34dd91d92a6ba8c992fa2474405109df3610a8247d69a2b60",
    ("tilt", 5):
        "fe6628bd3d6ce04b13939425b31824147c4b4ec9e1a0fed1287e54c91ba2e428",
    ("tilt", 23):
        "7ce5631851e6440da284b2be26990afd2744aa5b0411d2bdcce44412bb9b43a0",
}

# Recorded with a writer that formatted one row per ``%``, before the
# writers formatted a block of 1,024 rows per ``%``.  Each output crosses at
# least one block edge: a 14 Hz, 100 s sweep has 1,400 rows and each
# estimate log 2,500.
LONG_SWEEP_DIGESTS = {
    ("wheel_reference", 5):
        "7f497aa7e5a779be799050c46924b22565ce3199d673d51e22569fe357006677",
}
LONG_ESTIMATE_DIGESTS = {
    ("wheel", 5):
        "40790393701983756d88c2ed4c3011af8edf97ed8942aac5c6948c58cc6898b6",
    ("tilt", 5):
        "7e2d275ecb78c04afabefd5f12279e16f28b54b7145e1d7353fa163dde05fd61",
}
LONG_ESTIMATE_ROWS = 2_500

ESTIMATE_ROWS = 1_200
RAIL_EVERY = 200  # every 200th row puts every wiper on the low rail
SPIKE_FROM = 400  # the first fully in-window row from here is spiked
SPIKE_COUNTS = 150


def data_rows_sha256(path):
    """sha256 of a CSV's lines with every ``#`` comment line dropped."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = [line for line in handle if not line.startswith("#")]
    return hashlib.sha256("".join(rows).encode("utf-8")).hexdigest()


def sweep_digest(tmp_path, spec_ref, seed, rate_hz=14.0, duration_s=50.0):
    out = tmp_path / f"{spec_ref}_{seed}.csv"
    cli.run_sweep(spec_ref, str(out), seed, rate_hz, duration_s)
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


def trace_digest(tmp_path, preset, seed, **overrides):
    config = tmp_path / f"{preset}_{seed}.json"
    config.write_text(json.dumps({**presets.EXPERIMENT_PRESETS[preset], "seed": seed, **overrides}))
    prefix = tmp_path / f"{preset}_{seed}"
    cli.run_experiment_command(str(config), str(prefix))
    return data_rows_sha256(f"{prefix}_trace.csv")


def estimate_case(tmp_path, kind, seed, n_rows=ESTIMATE_ROWS):
    """Run ``estimate`` on a seeded log of ``n_rows`` rows: (data-row digest,
    trace rows, rail rows, spiked row).

    The bundle is calibrated from a seeded sweep.  The joint moves through
    its range, so a wheel log carries gap-rail counts while a wiper rides
    its gap.  Rail rows put every wiper at count 0, outside every window.
    One row gets wiper 0 moved by ``SPIKE_COUNTS`` inside its window: the
    wheel gate drops it, the tilt filter (no gate) takes it.
    """
    spec_ref = f"{kind}_reference"
    sweep, bundle_path = tmp_path / "sweep.csv", tmp_path / "bundle.json"
    cli.run_sweep(spec_ref, str(sweep), seed, 14.0, 50.0)
    cli.run_calibrate(str(sweep), kind, str(bundle_path), k=0.2, dt=0.01)
    wipers = observation_from_bundle(load_bundle(bundle_path)).wipers
    admits = [lambda count, w=w: w.lo <= count <= w.hi for w in wipers]
    spec = presets.SENSOR_PRESETS[spec_ref]()
    rng = np.random.default_rng(seed)
    plant_std = math.sqrt(0.02)  # the plant variance 0.02 as a draw scale
    theta, rows, rails, spike = 0.0, [], [], None
    for i in range(n_rows):
        if kind == "wheel":
            omega = 4.0 + 2.0 * math.sin(2.0 * PI * i / 300.0)
            theta, _ = simulate_plant_step(theta, omega, 0.2, 0.01, rng.normal(0.0, plant_std))
            counts = [count for _, count, _ in read_wheel(theta, spec, rng.normal(0.0, spec.noise_std, 2))]
        else:
            omega = 6.0 * math.cos(2.0 * PI * i / 600.0)
            plant_draw = rng.normal(0.0, plant_std)
            theta, _ = simulate_plant_step(theta, omega, 0.2, 0.01, plant_draw, spec.angle_limit)
            _, count, _ = read_tilt(theta, spec, rng.normal(0.0, spec.noise_std, 1))
            counts = [count]
        if i % RAIL_EVERY == RAIL_EVERY - 1:
            counts = [0] * len(counts)
            rails.append(i)
        elif spike is None and i >= SPIKE_FROM and all(a(c) for a, c in zip(admits, counts)):
            moved = counts[0] + (SPIKE_COUNTS if counts[0] < 512 else -SPIKE_COUNTS)
            if admits[0](moved):
                counts[0], spike = moved, i
        rows.append(",".join([repr(i * 0.01), *map(str, counts), repr(omega)]))
    readings, out = tmp_path / "readings.csv", tmp_path / "trace.csv"
    header = "t,v0,v1,omega" if kind == "wheel" else "t,v0,omega"
    readings.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    cli.run_estimate(str(bundle_path), str(readings), str(out))
    with open(out, "r", encoding="utf-8") as handle:
        trace = [line.split(",") for line in handle if not line.startswith("#")][1:]
    return data_rows_sha256(out), trace, rails, spike


@pytest.mark.parametrize("spec_ref,seed", sorted(SWEEP_DIGESTS))
def test_sweep_rows_match_snapshot(tmp_path, spec_ref, seed):
    assert sweep_digest(tmp_path, spec_ref, seed) == SWEEP_DIGESTS[(spec_ref, seed)]


@pytest.mark.parametrize("spec_ref,seed", sorted(ODD_SWEEP_DIGESTS))
def test_odd_row_count_sweep_matches_snapshot(tmp_path, spec_ref, seed):
    assert sweep_digest(tmp_path, spec_ref, seed, 9.0, 13.0) == ODD_SWEEP_DIGESTS[(spec_ref, seed)]


@pytest.mark.parametrize("spec_ref,seed", sorted(LONG_SWEEP_DIGESTS))
def test_sweep_past_one_block_matches_snapshot(tmp_path, spec_ref, seed):
    assert sweep_digest(tmp_path, spec_ref, seed, 14.0, 100.0) == LONG_SWEEP_DIGESTS[(spec_ref, seed)]


@pytest.mark.parametrize("spec_ref,seed", sorted(BUNDLE_DIGESTS))
def test_calibrated_bundle_matches_snapshot(tmp_path, spec_ref, seed):
    assert bundle_digest(tmp_path, spec_ref, seed) == BUNDLE_DIGESTS[(spec_ref, seed)]


@pytest.mark.parametrize("preset,seed", sorted(TRACE_DIGESTS))
def test_experiment_trace_rows_match_snapshot(tmp_path, preset, seed):
    assert trace_digest(tmp_path, preset, seed) == TRACE_DIGESTS[(preset, seed)]


@pytest.mark.parametrize("preset,seed", sorted(ZERO_PLANT_Q_TRACE_DIGESTS))
def test_zero_plant_q_trace_rows_match_snapshot(tmp_path, preset, seed):
    digest = trace_digest(tmp_path, preset, seed, plant_q=0)
    assert digest == ZERO_PLANT_Q_TRACE_DIGESTS[(preset, seed)]


@pytest.mark.parametrize("kind,seed", sorted(ESTIMATE_DIGESTS))
def test_estimate_trace_rows_match_snapshot(tmp_path, kind, seed):
    digest, trace, rails, spike = estimate_case(tmp_path, kind, seed)
    n_features = [int(row[3]) for row in trace]
    assert len(trace) == ESTIMATE_ROWS
    assert rails and all(n_features[i] == 0 for i in rails)
    # Wheel: both wipers are in window, but the gate drops the spike.
    assert spike is not None and n_features[spike] == 1
    if kind == "wheel":
        assert set(n_features) == {0, 1, 2}  # gap transits leave one wiper
    assert digest == ESTIMATE_DIGESTS[(kind, seed)]


@pytest.mark.parametrize("kind,seed", sorted(LONG_ESTIMATE_DIGESTS))
def test_estimate_past_two_blocks_matches_snapshot(tmp_path, kind, seed):
    digest, trace, _, _ = estimate_case(tmp_path, kind, seed, LONG_ESTIMATE_ROWS)
    assert len(trace) == LONG_ESTIMATE_ROWS
    assert digest == LONG_ESTIMATE_DIGESTS[(kind, seed)]


def oracle_count(c3, c2, c1, c0, window, target):
    """Zero-noise count: the oracle bisection root rounded half up."""
    root = bisect_root(
        lambda v: cubic_value(c3, c2, c1, c0, v) - target, window[0], window[1], tol=1e-12
    )
    return math.floor(root + 0.5)


def test_zero_noise_wheel_counts_equal_rounded_oracle_roots():
    spec = reference_wheel_spec(noise_std=0.0)
    rng = np.random.default_rng(0)
    truths = [wiper.truth for wiper in spec.wipers]
    # A 2*pi/4000 step moves a wiper by at most 0.2 counts: every count is hit.
    for theta in np.linspace(-PI, PI, 4_001)[1:]:
        readings = read_wheel(float(theta), spec, rng.normal(0.0, spec.noise_std, 2))
        for (index, count, available), shifted, truth in zip(readings, five_region_shifted_states(theta), truths):
            assert available == (shifted is not None)
            if shifted is not None:
                want = oracle_count(
                    truth.c3, truth.c2, truth.c1, truth.c0, truth.v_window, shifted
                )
                assert count == want, (float(theta), index)


def test_zero_noise_tilt_counts_equal_rounded_oracle_roots():
    spec = reference_tilt_spec(noise_std=0.0)
    rng = np.random.default_rng(0)
    t = spec.wipers[0].truth
    for theta in np.linspace(-spec.angle_limit, spec.angle_limit, 2_001):
        _, count, _ = read_tilt(float(theta), spec, rng.normal(0.0, spec.noise_std, 1))
        assert count == oracle_count(t.c3, t.c2, t.c1, t.c0, t.v_window, theta)
