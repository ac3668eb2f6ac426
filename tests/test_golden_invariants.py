"""Row-level invariants over the artifacts of every golden scenario.

The goldens pin each run's bytes; these tests say what every row of
those runs must satisfy whatever the bytes, so that a regenerated
golden cannot carry a broken row:

* oscillator phases lie in [0, 2*pi);
* on rhythm_sync runs, omega_tilde stays within omega_m +- DELTA_MAX,
  the beat curve B(t) is non-negative and the music phase theta lies
  in [0, 2*pi);
* every timestamp is exact: row k of a stream updated every `every`
  oscillator ticks sits at (k * every) * (1 / rate_oscillator_hz), and
  music frame k at k / FRAME_RATE_HZ;
* normalized loads lie in [0, 1];
* in every plant row with a non-zero force the forces sum to
  force_scale * mass * g within 1e-12 relative;
* on freq_track runs, each leg's reported contacts are its touchdowns:
  the rising edges of phi >= pi in the osc stream read at the plant
  ticks, one more than its stepping cycles.
"""

import json

import numpy as np
import pytest
import regen_goldens

from beatgait.harness import ScenarioConfig
from beatgait.modulator import DELTA_MAX
from beatgait.music import FRAME_RATE_HZ
from beatgait.oscillator import LEG_ORDER, TWO_PI
from beatgait.plant import PlantConfig

SCENARIOS = sorted(regen_goldens.GOLDEN_SCENARIOS)


def _streams(outdir) -> dict:
    """Every runlog CSV of a run as a 2-D array, by stream name ("osc" for runlog.csv)."""
    return {("osc" if p.name == "runlog.csv" else p.name.split(".")[1]):
            np.loadtxt(p, delimiter=",", skiprows=2, ndmin=2)
            for p in outdir.glob("runlog*.csv")}


@pytest.fixture(params=SCENARIOS)
def run(request, golden_run):
    outdir = golden_run(regen_goldens.GOLDEN_SCENARIOS[request.param])
    config = json.loads((outdir / "config.echo.json").read_text())
    return config, _streams(outdir)


@pytest.mark.parametrize("name", [n for n in SCENARIOS
                                  if regen_goldens.GOLDEN_SCENARIOS[n]["mode"] == "freq_track"])
def test_contacts_are_phase_touchdowns(name, golden_run):
    outdir = golden_run(regen_goldens.GOLDEN_SCENARIOS[name])
    config = json.loads((outdir / "config.echo.json").read_text())
    per_leg = json.loads((outdir / "report.json").read_text())["per_leg"]
    osc = _streams(outdir)["osc"]
    plant_hz = ScenarioConfig(mode=config["mode"]).rate_plant_hz
    stance = osc[::ScenarioConfig.rate_oscillator_hz // plant_hz, 1:5] >= np.pi
    for leg, leg_name in enumerate(LEG_ORDER):
        touchdowns = np.count_nonzero(stance[1:, leg] & ~stance[:-1, leg])
        assert per_leg[leg_name]["contacts"] == touchdowns, leg_name
        assert per_leg[leg_name]["cycles"] == touchdowns - 1, leg_name


def test_phases_wrapped(run):
    _, streams = run
    if "osc" in streams:
        phases = streams["osc"][:, 1:5]
        assert np.all((phases >= 0.0) & (phases < TWO_PI))


def test_omega_tilde_within_clamp(run):
    config, streams = run
    if config["mode"] != "rhythm_sync":
        return
    mod = streams["mod"]
    omega_m = mod[0, 1]
    assert np.all(mod[:, 1] == omega_m)
    lo, hi = omega_m - DELTA_MAX, omega_m + DELTA_MAX
    for omega_tilde in (mod[:, 3], streams["osc"][:, 5]):
        assert np.all((omega_tilde >= lo) & (omega_tilde <= hi))


def test_music_stream_in_range(run):
    config, streams = run
    if config["mode"] != "rhythm_sync":
        return
    music = streams["music"]
    beat_curve, theta = music[:, 2], music[:, 3]
    assert np.all(beat_curve >= 0.0)
    assert np.all((theta >= 0.0) & (theta < TWO_PI))


def test_timestamps_exact(run):
    config, streams = run
    # the clock is fixed; only the plant rate is the mode's own
    osc_hz, mod_hz = ScenarioConfig.rate_oscillator_hz, ScenarioConfig.rate_modulator_hz
    every = {"osc": 1, "plant": osc_hz // ScenarioConfig(mode=config["mode"]).rate_plant_hz,
             "mod": osc_hz // mod_hz, "rewards": osc_hz // mod_hz}
    for name, rows in streams.items():
        k = np.arange(rows.shape[0])
        if name == "music":
            assert np.array_equal(rows[:, 0], k / FRAME_RATE_HZ)
        elif name != "mse":  # the curriculum's per-iteration stream has no clock
            assert np.array_equal(rows[:, 0], (k * every[name]) * (1.0 / osc_hz)), name


def test_loads_and_forces(run):
    _, streams = run
    if "plant" not in streams:
        return
    plant = streams["plant"]
    cfg = PlantConfig()
    weight = cfg.force_scale * cfg.mass * cfg.g
    forces = plant[:, 1:5]
    assert np.all(forces >= 0.0)
    loaded = forces.any(axis=1)
    assert loaded.any()
    assert np.all(np.abs(forces[loaded].sum(axis=1) - weight) <= 1e-12 * weight)
    if plant.shape[1] == 9:  # the fallback curriculum logs forces only
        loads = plant[:, 5:9]
        assert np.all((loads >= 0.0) & (loads <= 1.0))
