"""The benchmark's own tests, in a short mode: each workload runs once.

    python3 -m pytest perfbench -q

Every output check is shown to pass on the program's real output and
to fail on a deliberately corrupted copy of it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from beatgait import harness, music, oscillator, plant  # noqa: E402


@pytest.fixture(scope="module")
def clips(tmp_path_factory):
    out = tmp_path_factory.mktemp("inputs")
    return {w: inputs.write_inputs(w, 7, out / w) for w in inputs.CLIPS}


@pytest.fixture(scope="module")
def outputs(clips, tmp_path_factory):
    """Every operation of every workload, run once and checked."""
    workdir = tmp_path_factory.mktemp("artifacts")
    done = {}
    for name in run.WORKLOADS:
        ops = workloads.build(name, clips.get(name, []), workdir / name)
        results = []
        for op in ops:
            op.prepare()
            out = op.run()
            results.append((op, out, op.check(out)))
        done[name] = results
    return done


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_each_workload_passes_its_checks(outputs, name):
    for op, _, errors in outputs[name]:
        assert errors == [], f"{name} {op.name}: {errors}"


def test_inputs_repeat_per_seed_and_differ_across_seeds():
    rng = np.random.default_rng
    a = inputs.render(120.0, 4.0, rng(3))
    assert np.array_equal(a, inputs.render(120.0, 4.0, rng(3)))
    assert not np.array_equal(a, inputs.render(120.0, 4.0, rng(4)))


def test_clips_cover_their_runs(clips):
    for clip in clips["song-sync"]:
        assert music.load_wav(clip["path"]).duration >= clip["length_s"]


# ------------------------------------------------- corrupted outputs fail


def _lock(outputs):
    _, (runlog, _, report), _ = outputs["lock-feedforward"][1]
    return runlog, report


def _song(outputs, i=1):
    op, (_, _, report), _ = outputs["song-sync"][i]
    osc = checks.read_csv(op.outdir / "runlog.csv")
    plant_rows = checks.read_csv(op.outdir / "runlog.plant.csv")
    return op, report, osc, plant_rows


def test_footfalls_shifted_by_50_ms_fail(outputs):
    runlog, _ = _lock(outputs)
    rows = runlog.streams["plant"][1]
    clicks = inputs.click_times(120.0, 32.0)
    assert checks.check_footfalls(rows[:, 0], rows[:, 1], clicks, 0.030) == []
    assert checks.check_footfalls(rows[:, 0] + 0.050, rows[:, 1], clicks, 0.030)


def test_footfall_is_the_middle_of_the_peak_run():
    t = np.arange(9) * 0.01
    f = np.array([0.0, 1.0, 3.0, 3.0, 3.0, 3.0, 2.0, 0.0, 0.0])
    assert checks.footfalls(t, f).tolist() == [0.03]


def test_phase_lock_off_by_a_tick_fails(outputs):
    runlog, _ = _lock(outputs)
    osc = runlog.streams["osc"][1].copy()
    assert checks.check_phase_lock(osc, 0, 0.5, 50) == []
    osc[20000, 1] += 0.08
    assert checks.check_phase_lock(osc, 0, 0.5, 50)


def test_wrong_tempo_fails(outputs):
    runlog, report = _lock(outputs)
    clicks = inputs.click_times(120.0, 32.0)
    assert checks.check_lock_run(runlog, report, 120.0, clicks, 0, 50) == []
    assert checks.check_lock_run(runlog, dict(report, tempo_bpm_estimate=121.5),
                                 120.0, clicks, 0, 50)


def test_plant_row_off_by_1_newton_fails(outputs):
    _, _, osc, rows = _song(outputs)
    weight = 12.0 * 9.81
    assert checks.check_plant_rows(rows, osc, weight, plant.FLIGHT_THRESHOLD) == []
    rows[1000, 2] += 1.0
    assert checks.check_plant_rows(rows, osc, weight, plant.FLIGHT_THRESHOLD)


def test_oscillator_row_with_wrong_held_load_fails(outputs):
    _, _, osc, rows = _song(outputs)
    assert checks.check_osc_steps(osc, rows) == []
    # a tick whose held load differs from the next plant update's, on a
    # loaded leg away from cos(phi) = 0
    for k in range(20005, osc.shape[0] - 1, 10):
        held, other = rows[k // 10, 5:9], rows[k // 10 + 1, 5:9]
        leg = int(np.argmax(np.abs(held - other)))
        if abs(held[leg] - other[leg]) > 0.01 and abs(math.cos(osc[k, 1 + leg])) > 0.1:
            break
    g = rows[k // 10 + 1, 5:9]
    phi = osc[k, 1:5]
    osc[k + 1, 1:5] = np.mod(phi + 1e-3 * (osc[k + 1, 5] - 2 * math.pi * g * np.cos(phi)),
                             2 * math.pi)
    assert checks.check_osc_steps(osc, rows)


def test_report_on_disk_must_equal_the_returned_one(outputs):
    op, report, _, _ = _song(outputs)
    args = (120.0, inputs.click_times(120.0, 60.0), 0.030, 0, 12.0 * 9.81,
            plant.FLIGHT_THRESHOLD)
    assert checks.check_song_run(op.outdir, report, *args) == []
    assert checks.check_song_run(op.outdir, dict(report, seed=report["seed"] + 1), *args)


def test_curriculum_checks_fail_on_bad_reports(outputs):
    _, (_, report), _ = outputs["curriculum"][0]
    cmds = harness.FREQ_TRACK_COMMANDS
    assert checks.check_curriculum(report, cmds) == []
    for bad in ({"coeffs": [1e-8, 1.0]}, {"final_mse": 2e-8}, {"rho_last": 0.9},
                {"eval": {k: dict(v, mean_abs_dev_hz=0.06)
                          for k, v in report["eval"].items()}}):
        assert checks.check_curriculum(dict(report, **bad), cmds), bad


def test_analysis_checks_fail_on_moved_beats(outputs, clips):
    _, analysis, _ = outputs["song-analysis"][2]
    clip = clips["song-analysis"][2]
    clicks = inputs.click_times(clip["bpm"], clip["length_s"])
    grid = analysis.grid
    assert checks.check_analysis(analysis, clip["bpm"], clicks,
                                 music.interpolate_phase) == []
    shifted = music.BeatGrid(grid.beat_times + 0.015, grid.tempo_bpm)
    moved = music.MusicAnalysis(analysis.envelope, analysis.tempo_bpm,
                                analysis.confidence, shifted, analysis.smoothed)
    assert checks.check_analysis(moved, clip["bpm"], clicks, music.interpolate_phase)

    def off_anchor(g, t):
        return music.interpolate_phase(g, t) + 1e-12

    assert checks.check_analysis(analysis, clip["bpm"], clicks, off_anchor)


# -------------------------------------------------- tracing, entry point


def test_tracer_counts_and_restores():
    originals = (harness.step_phases, oscillator.step_phases, plant.support_shares)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        harness.run_frequency_tracking(harness.ScenarioConfig(mode="freq_track",
                                                              duration=2.0))
    finally:
        tracer.uninstall()
    assert (harness.step_phases, oscillator.step_phases, plant.support_shares) == originals
    totals = tracer.take()
    assert totals["oscillator.step_phases"][0] == 2000
    assert totals["plant.grf_from_phases"][0] == 1000
    layer = tracing.layer_metrics(totals)
    assert layer["oscillator.step_phases.calls"] == 2000
    assert layer["harness.self_s"] > 0.0


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_a_correct_result(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lock-feedforward",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = tracing.PER_LAYER if trace else run.END_TO_END
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == names


def test_an_operation_that_raises_leaves_no_pass_time():
    def boom():
        raise RuntimeError("injected")

    ops = [workloads.Op("fine", 1.0, lambda: 1, lambda out: []),
           workloads.Op("raises", 1.0, boom, lambda out: [])]
    res = worker.measure(ops, 0.0, traced=False)
    assert res["failed"] == res["attempted"] // 2 > 0
    assert "wall_s" not in res and "realtime_x" not in res
    runner = worker.Runner(ops)
    with pytest.raises(ValueError):
        worker.pass_time([runner.round()])


def test_a_run_whose_operation_raises_fails(tmp_path):
    """A checkout whose program raises on one lock run: the run exits 1."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for sub in ("perfbench", "src"):
        shutil.copytree(ROOT / sub, tmp_path / sub,
                        ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "beatgait" / "harness.py", "a") as f:
        f.write("\n\n_run_rhythm_sync = run_rhythm_sync\n\n\n"
                "def run_rhythm_sync(cfg, *args, **kwargs):\n"
                "    if cfg.gain_k == 4.0:\n"
                "        raise RuntimeError('injected fault')\n"
                "    return _run_rhythm_sync(cfg, *args, **kwargs)\n")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lock-feedforward",
         "--seed", "5", "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 1, proc.stderr
    assert "injected fault" in proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] * 3 == result["attempted"]
    assert "wall_s" not in result["metrics"] and "realtime_x" not in result["metrics"]


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curriculum", "--seed", "0",
         "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
