#!/usr/bin/env python3
"""Regenerate the golden run manifests under tests/goldens/.

Each manifest is self-describing: the scenario config that produced it,
the full report.json content, and sha256 digests of every runlog CSV.
tests/test_golden.py replays the stored config and compares against the
manifest, so goldens only need regeneration when an intentional change
shifts the numerics. Run from the repository root, naming the manifests
to regenerate, or none to regenerate all of them:

    python3 scripts/regen_goldens.py [name ...]

For each manifest it rewrites, the script prints the drift from the
stored one: how many report values changed, the largest absolute change
among the numbers and its path, and which stream digests changed.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from beatgait.harness import (  # noqa: E402
    ScenarioConfig,
    run_estimator_curriculum,
    run_frequency_tracking,
    run_rhythm_sync,
)
from beatgait.music import save_wav, synth_click_track  # noqa: E402

_RHYTHM = {"mode": "rhythm_sync", "synth_bpm": 120.0, "duration": 12.0, "seed": 0}
_KICKED = {"mode": "freq_track", "f_cmd": 2.0, "duration": 10.0, "seed": 1}

#: Click tracks a scenario may name as its audio_path, by file name:
#: (bpm, length in s). run_scenario writes them with save_wav into the
#: run's working directory, so no WAV is committed.
GOLDEN_WAVS = {"clicks_120bpm.wav": (120.0, 14.0)}

GOLDEN_SCENARIOS = {
    "freq_track": {"mode": "freq_track", "f_cmd": 2.0, "seed": 0},
    "rhythm_sync": _RHYTHM,
    "rhythm_sync_feedforward": {**_RHYTHM, "error_mode": "raw", "feedforward": True},
    # clicks past the tempo range: the estimator reads 150 BPM, a 2.5 Hz gait
    "rhythm_sync_300bpm": {**_RHYTHM, "synth_bpm": 300.0},
    "estimator_curriculum": {"mode": "estimator_curriculum", "estimator_mode": "learned",
                             "iterations": 10, "duration": 2.0, "seed": 0},
    # the benchmark's curriculum scenario, at the default 5 s episodes
    "estimator_curriculum_5s": {"mode": "estimator_curriculum", "estimator_mode": "learned",
                                "iterations": 10, "seed": 0},
    # initial-phase kicks: the C5 recovery run, and a 3 rad kick whose feet
    # lose and regain their load within one stance; touchdowns are read
    # from the phases, so each leg still counts one per stride (19 or 20)
    "freq_track_kick_0.5": {**_KICKED, "perturb_rad": 0.5},
    "freq_track_kick_3": {**_KICKED, "perturb_rad": 3.0},
    "rhythm_sync_wav": {"mode": "rhythm_sync", "audio_path": "clicks_120bpm.wav",
                        "duration": 12.0, "seed": 0},
    "estimator_curriculum_fallback": {"mode": "estimator_curriculum",
                                      "estimator_mode": "fallback", "duration": 30.0,
                                      "seed": 0},
    # a kicked curriculum: the two diagonals get unequal support shares,
    # so the estimator's features tell the legs apart
    "estimator_curriculum_kick_1": {"mode": "estimator_curriculum", "estimator_mode": "learned",
                                    "iterations": 10, "duration": 2.0, "seed": 1,
                                    "perturb_rad": 1.0},
}

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "goldens"

RUNNERS = {
    "freq_track": run_frequency_tracking,
    "rhythm_sync": run_rhythm_sync,
    "estimator_curriculum": run_estimator_curriculum,
}


def run_scenario(config: dict, workdir) -> Path:
    """Run one scenario config in workdir; return its artifact directory.

    The click track the config names as audio_path, if any, is written
    into workdir first, and the run reads it from there under that
    relative name, so report.json records the name and not workdir.
    """
    workdir = Path(workdir)
    if config.get("audio_path") in GOLDEN_WAVS:
        bpm, length_s = GOLDEN_WAVS[config["audio_path"]]
        save_wav(workdir / config["audio_path"], synth_click_track(bpm, length_s))
    outdir = workdir / "out"
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        RUNNERS[config["mode"]](ScenarioConfig.from_dict({**config, "outdir": str(outdir)}))
    finally:
        os.chdir(cwd)
    return outdir


def digests(outdir) -> dict:
    """sha256 of every runlog CSV in outdir, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(outdir).glob("runlog*.csv"))}


def build_manifest(config: dict) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        outdir = run_scenario(config, tmp)
        report = json.loads((outdir / "report.json").read_text())
        csv_sha256 = digests(outdir)
    return {"config": {**config, "outdir": None}, "report": report,
            "csv_sha256": csv_sha256}


def _leaves(value, path=""):
    """(path, value) for every leaf of a JSON value, e.g. ("metrics.delta_t_series[3]", x)."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def drift(old: dict, new: dict) -> str:
    """How a new manifest differs from the stored one, in two lines."""
    before, after = dict(_leaves(old["report"])), dict(_leaves(new["report"]))
    changed = [p for p in sorted(before.keys() | after.keys())
               if p not in before or p not in after or before[p] != after[p]]
    numeric = [(abs(after[p] - before[p]), p) for p in changed
               if isinstance(before.get(p), (int, float))
               and isinstance(after.get(p), (int, float))]
    line = f"  report: {len(changed)} values changed"
    if numeric:
        size, where = max(numeric)
        line += f", largest |change| {size:.3g} at {where}"
    streams = sorted(name for name in old["csv_sha256"].keys() | new["csv_sha256"].keys()
                     if old["csv_sha256"].get(name) != new["csv_sha256"].get(name))
    return f"{line}\n  streams changed: {', '.join(streams) or 'none'}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", metavar="name",
                    help=f"manifests to regenerate: {', '.join(GOLDEN_SCENARIOS)}")
    args = ap.parse_args(argv)
    unknown = [n for n in args.names if n not in GOLDEN_SCENARIOS]
    if unknown:
        ap.error(f"unknown manifest {', '.join(unknown)}")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in args.names or GOLDEN_SCENARIOS:
        manifest = build_manifest(GOLDEN_SCENARIOS[name])
        path = GOLDEN_DIR / f"{name}.json"
        old = json.loads(path.read_text()) if path.exists() else None
        path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path} ({len(manifest['csv_sha256'])} stream digests)")
        print(drift(old, manifest) if old else "  new manifest")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
