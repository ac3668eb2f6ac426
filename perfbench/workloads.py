"""The benchmark workloads, each a fixed list of timed operations.

An operation is one scenario run or one clip analysis. It calls the
program through its module attributes (harness.run_rhythm_sync, not a
name bound here), so a tracer that replaces those attributes sees every
call. Each operation carries the check that grades its output.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs
from beatgait import harness, music, plant

LOCK_BPM = 120.0
LOCK_DURATION_S = 30.0
LOCK_GAINS = (1.0, 2.0, 4.0)
CURRICULUM_ITERATIONS = 10
#: Footfall bound per song-sync tempo, seconds (the C2 bounds).
SYNC_BOUND_S = {89.6: 0.060, 120.0: 0.030, 181.8: 0.030}


@dataclass
class Op:
    """One timed call and the check of its output.

    modelled_s is simulated seconds, or seconds of audio for an analysis.
    outdir, when set, is emptied before each run and its bytes counted.
    """

    name: str
    modelled_s: float
    run: Callable[[], object]
    check: Callable[[object], list]
    outdir: Path | None = None

    def prepare(self) -> None:
        if self.outdir is not None:
            shutil.rmtree(self.outdir, ignore_errors=True)


def _lock_ops() -> list[Op]:
    """C4 runs: feedforward lock on the program's own 120 BPM clicks, no artifacts."""
    ops = []
    for k in LOCK_GAINS:
        cfg = harness.ScenarioConfig(mode="rhythm_sync", synth_bpm=LOCK_BPM,
                                     duration=LOCK_DURATION_S, error_mode="raw",
                                     feedforward=True, gain_k=k)
        res = cfg.resolve()
        # the synthesized track runs 2 s past the simulation
        clicks = inputs.click_times(LOCK_BPM, res.duration + 2.0)
        mod_every = res.rate_oscillator_hz // res.rate_modulator_hz

        def check(out, clicks=clicks, mod_every=mod_every, leg=res.target_leg - 1):
            runlog, _, report = out
            return checks.check_lock_run(runlog, report, LOCK_BPM, clicks, leg, mod_every)

        ops.append(Op(f"gain_k={k:g}", res.duration,
                      lambda cfg=cfg: harness.run_rhythm_sync(cfg), check))
    return ops


def _curriculum_ops() -> list[Op]:
    """N = 10 learned curriculum with its rho = 1 command sweep, no artifacts."""
    cfg = harness.ScenarioConfig(mode="estimator_curriculum",
                                 iterations=CURRICULUM_ITERATIONS)
    res = cfg.resolve()
    commands = harness.FREQ_TRACK_COMMANDS
    episodes = res.iterations + 1 + len(commands)

    def check(out):
        return checks.check_curriculum(out[1], commands)

    return [Op("curriculum", episodes * res.duration,
               lambda: harness.run_estimator_curriculum(cfg), check)]


def _song_sync_ops(clips, workdir: Path) -> list[Op]:
    """Footfall-mode runs over the full length of each WAV, artifacts written."""
    body = plant.PlantConfig()
    body_weight = body.force_scale * body.mass * body.g
    ops = []
    for clip in clips:
        bpm, length_s = clip["bpm"], clip["length_s"]
        outdir = workdir / f"{bpm:g}bpm"
        cfg = harness.ScenarioConfig(mode="rhythm_sync", audio_path=clip["path"],
                                     duration=length_s, outdir=str(outdir))
        leg = cfg.resolve().target_leg - 1
        clicks = inputs.click_times(bpm, length_s)

        def check(out, outdir=outdir, bpm=bpm, clicks=clicks, leg=leg):
            return checks.check_song_run(outdir, out[2], bpm, clicks, SYNC_BOUND_S[bpm], leg,
                                         body_weight, plant.FLIGHT_THRESHOLD)

        ops.append(Op(f"{bpm:g}bpm", length_s,
                      lambda cfg=cfg: harness.run_rhythm_sync(cfg), check, outdir))
    return ops


def _song_analysis_ops(clips) -> list[Op]:
    """The `beatgait analyze` path: load_wav, then analyze_clip."""
    ops = []
    for clip in clips:
        bpm, path = clip["bpm"], clip["path"]
        clicks = inputs.click_times(bpm, clip["length_s"])

        def check(out, bpm=bpm, clicks=clicks):
            return checks.check_analysis(out, bpm, clicks, music.interpolate_phase)

        ops.append(Op(f"{bpm:g}bpm", clip["length_s"],
                      lambda path=path: music.analyze_clip(music.load_wav(path)), check))
    return ops


def build(workload: str, clips, workdir: Path) -> list[Op]:
    if workload == "lock-feedforward":
        return _lock_ops()
    if workload == "curriculum":
        return _curriculum_ops()
    if workload == "song-sync":
        return _song_sync_ops(clips, workdir)
    if workload == "song-analysis":
        return _song_analysis_ops(clips)
    raise ValueError(f"unknown workload {workload!r}")
