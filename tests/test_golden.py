"""Replay the stored golden runs and compare artifacts exactly.

Each manifest under tests/goldens/ records the scenario config that
produced it, the expected report.json content, and sha256 digests of
every runlog CSV. A mismatch means the numerics changed; if the change
is intentional, regenerate with scripts/regen_goldens.py, whose
GOLDEN_SCENARIOS holds one entry per manifest.
"""

import json
from pathlib import Path

import pytest
import regen_goldens

import beatgait.cli as cli

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Goldens replayed from their config echo: a kicked run, the feedforward
#: modulator, a plant off its mode's default rate, a WAV, and both
#: estimator modes.
_REPLAYED = ("freq_track_kick_3", "rhythm_sync_feedforward", "rhythm_sync_plant_200hz",
             "rhythm_sync_wav", "estimator_curriculum_kick_1", "estimator_curriculum_fallback")

_SUBCOMMANDS = {"freq_track": "freq-track", "rhythm_sync": "rhythm-sync",
                "estimator_curriculum": "curriculum"}


def _manifests():
    return sorted(GOLDEN_DIR.glob("*.json"))


@pytest.mark.parametrize("path", _manifests(), ids=lambda p: p.stem)
def test_golden_run(path, golden_run):
    manifest = json.loads(path.read_text())
    outdir = golden_run(manifest["config"])

    report = json.loads((outdir / "report.json").read_text())
    assert report == manifest["report"], (
        f"{path.stem}: report.json drifted from the stored golden; "
        f"regenerate with scripts/regen_goldens.py if intentional")

    assert regen_goldens.digests(outdir) == manifest["csv_sha256"], (
        f"{path.stem}: runlog stream bytes drifted from the stored golden")


@pytest.mark.parametrize("name", _REPLAYED)
def test_run_replays_from_config_echo(name, golden_run, tmp_path, monkeypatch):
    # config.echo.json fed back through --config reproduces the run byte
    # for byte, though it does not name the fixed clock. A WAV is named
    # relative to the golden's work directory, so the replay runs there.
    outdir = golden_run(regen_goldens.GOLDEN_SCENARIOS[name])
    echo = outdir / "config.echo.json"
    config = json.loads(echo.read_text())
    assert "rate_oscillator_hz" not in config and "rate_modulator_hz" not in config
    monkeypatch.chdir(outdir.parent)
    replay = tmp_path / "replay"
    assert cli.main([_SUBCOMMANDS[config["mode"]], "--config", str(echo),
                     "--out", str(replay)]) == 0
    logs = sorted(p.name for p in outdir.glob("runlog*.csv"))
    assert logs and sorted(p.name for p in replay.glob("runlog*.csv")) == logs
    for file in ["report.json", *logs]:
        assert (replay / file).read_bytes() == (outdir / file).read_bytes(), file


def test_goldens_exist():
    assert len(_manifests()) >= 2, "golden manifests missing from tests/goldens/"


def test_scenarios_and_manifests_one_to_one():
    # a scenario added to the script but never generated, or a manifest
    # whose script entry was removed or edited, would otherwise go unseen
    stored = {p.stem: json.loads(p.read_text())["config"] for p in _manifests()}
    scenarios = regen_goldens.GOLDEN_SCENARIOS
    assert sorted(set(scenarios) - set(stored)) == [], "scenarios without a manifest"
    assert sorted(set(stored) - set(scenarios)) == [], "manifests without a scenario"
    for name, config in scenarios.items():
        assert stored[name] == {**config, "outdir": None}, f"{name}: config differs"


def test_regeneration_prints_drift(tmp_path, monkeypatch, capsys):
    # a stored manifest, and the one a changed program would write over it
    stored = {"config": {}, "csv_sha256": {"runlog.csv": "a1", "runlog.mod.csv": "b1"},
              "report": {"gait": "trot", "metrics": {"dt": [0.5, 0.25], "n": 3}}}
    rewritten = {"config": {}, "csv_sha256": {"runlog.csv": "a1", "runlog.mod.csv": "b2"},
                 "report": {"gait": "pace", "metrics": {"dt": [0.5, 0.125], "n": 4}}}
    (tmp_path / "freq_track.json").write_text(json.dumps(stored))
    monkeypatch.setattr(regen_goldens, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(regen_goldens, "build_manifest", lambda config: rewritten)

    assert regen_goldens.main(["freq_track", "rhythm_sync"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == ["  report: 3 values changed, largest |change| 1 at metrics.n",
                          "  streams changed: runlog.mod.csv"]
    assert lines[4] == "  new manifest"
    assert json.loads((tmp_path / "freq_track.json").read_text()) == rewritten
    assert regen_goldens.drift(rewritten, rewritten) == (
        "  report: 0 values changed\n  streams changed: none")
