"""An experiment's readings, replayed through ``estimate``, give its estimates bit for bit.

The closed-loop harness steps the filter one reading at a time inside the
loop; ``estimate`` steps it over a logged stream.  Both build their readings
and their first-row features differently, so replaying a run through the
offline command checks the two filter paths against each other: its raw
counts are written as an ``estimate`` log, with ``omega`` the commanded
``u`` of each row, and the bundle it calibrated is written with its ``k``,
``dt``, ``q`` and ``sigma0``.
"""

import json
from dataclasses import replace

import pytest

from paintpot import characterize, cli, estimate, presets, trajectory

SEEDS = (101, 7)


def _replay(tmp_path, monkeypatch, preset, seed):
    """The experiment ``preset`` at ``seed``, its config, and its replayed ``estimate`` trace rows."""
    readings, bundles, configs = [], [], []

    def recorded_read(theta, spec, noise, read=trajectory.read):
        result = read(theta, spec, noise)
        readings.append([count for _, count, _ in result])
        return result

    def recorded_calibrate(dataset, calibrate=characterize.calibrate):
        bundles.append(calibrate(dataset))
        return bundles[-1]

    def recorded_run(config, run=trajectory.run_experiment):
        configs.append(config)
        return run(config)

    monkeypatch.setattr(trajectory, "read", recorded_read)
    monkeypatch.setattr(characterize, "calibrate", recorded_calibrate)
    monkeypatch.setattr(trajectory, "run_experiment", recorded_run)
    config_path = tmp_path / f"{preset}_{seed}.json"
    config_path.write_text(json.dumps({**presets.EXPERIMENT_PRESETS[preset], "seed": seed}))
    result = cli.run_experiment_command(str(config_path), str(tmp_path / f"{preset}_{seed}"))
    monkeypatch.undo()

    (bundle,), (config,) = bundles, configs
    assert len(readings) == len(result)
    width = len(bundle.models)
    params = {"k": config.tm.k, "dt": config.tm.dt, "q": config.tm.q, "sigma0": config.sigma0}
    params.update(zip(estimate.variance_keys(width), [wiper.r for wiper in config.obs.wipers]))
    model_json = tmp_path / "model.json"
    characterize.save_bundle(replace(bundle, filter_params=params), model_json)
    log = tmp_path / "readings.csv"
    with open(log, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(["t", *(f"v{i}" for i in range(width)), "omega"]) + "\n")
        for t, counts, u in zip(result.t.tolist(), readings, result.u_cmd.tolist()):
            handle.write(",".join(["%.17g" % t, *map(str, counts), "%.17g" % u]) + "\n")
    trace = tmp_path / "trace.csv"
    cli.run_estimate(str(model_json), str(log), str(trace))
    rows = [line.split(",") for line in trace.read_text().splitlines()[2:]]
    return result, config, rows


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("preset", sorted(presets.EXPERIMENT_PRESETS))
def test_experiment_replays_through_estimate_bit_for_bit(tmp_path, monkeypatch, preset, seed):
    result, config, rows = _replay(tmp_path, monkeypatch, preset, seed)
    assert config.seed == result.seed == seed
    assert len(rows) == len(result)
    assert [float(mu) for _, mu, _, _ in rows] == result.theta_est.tolist()
    # The estimate trace counts the features each step used; the experiment
    # flags them per wiper, and on its first row flags the admitted ones.
    used = (result.f0_avail.astype(int) + result.f1_avail.astype(int)).tolist()
    assert [int(n) for _, _, _, n in rows] == used
