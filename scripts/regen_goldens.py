#!/usr/bin/env python3
"""Regenerate the golden run manifests under tests/goldens/.

Each manifest is self-describing: the scenario config that produced it,
the full report.json content, and sha256 digests of every runlog CSV.
tests/test_golden.py replays the stored config and compares against the
manifest, so goldens only need regeneration when an intentional change
shifts the numerics. Run from the repository root, naming the manifests
to regenerate, or none to regenerate all of them:

    python3 scripts/regen_goldens.py [name ...]
"""

import argparse
import hashlib
import json
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

GOLDEN_SCENARIOS = {
    "freq_track": {"mode": "freq_track", "f_cmd": 2.0, "seed": 0},
    "rhythm_sync": {"mode": "rhythm_sync", "synth_bpm": 120.0,
                    "duration": 12.0, "seed": 0},
    "rhythm_sync_feedforward": {"mode": "rhythm_sync", "synth_bpm": 120.0,
                                "duration": 12.0, "seed": 0, "error_mode": "raw",
                                "feedforward": True},
    "estimator_curriculum": {"mode": "estimator_curriculum", "estimator_mode": "learned",
                             "iterations": 10, "duration": 2.0, "seed": 0},
    # the benchmark's curriculum scenario, at the default 5 s episodes
    "estimator_curriculum_5s": {"mode": "estimator_curriculum", "estimator_mode": "learned",
                                "iterations": 10, "seed": 0},
}

RUNNERS = {
    "freq_track": run_frequency_tracking,
    "rhythm_sync": run_rhythm_sync,
    "estimator_curriculum": run_estimator_curriculum,
}


def build_manifest(config: dict) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = ScenarioConfig.from_dict({**config, "outdir": tmp})
        RUNNERS[config["mode"]](cfg)
        outdir = Path(tmp)
        report = json.loads((outdir / "report.json").read_text())
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.glob("runlog*.csv"))
        }
    return {"config": {**config, "outdir": None}, "report": report,
            "csv_sha256": digests}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", metavar="name",
                    help=f"manifests to regenerate: {', '.join(GOLDEN_SCENARIOS)}")
    args = ap.parse_args(argv)
    unknown = [n for n in args.names if n not in GOLDEN_SCENARIOS]
    if unknown:
        ap.error(f"unknown manifest {', '.join(unknown)}")
    golden_dir = Path(__file__).resolve().parents[1] / "tests" / "goldens"
    golden_dir.mkdir(parents=True, exist_ok=True)
    for name in args.names or GOLDEN_SCENARIOS:
        manifest = build_manifest(GOLDEN_SCENARIOS[name])
        path = golden_dir / f"{name}.json"
        path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path} ({len(manifest['csv_sha256'])} stream digests)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
