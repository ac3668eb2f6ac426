"""Output checks for the benchmark workloads.

Every check recomputes what it expects from the written inputs and the
method's definitions (click times, the phase law, the plant's weight
balance), never from a stored copy of an earlier run. Each returns a
list of failure messages; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
#: Phase at which a stance force peaks and at which beats are anchored.
FOOTFALL_PHASE = 1.5 * math.pi
#: Moving-regime oscillator feedback gain (rad/s) and bias.
SIGMA = TWO_PI
XI = 0.0

TEMPO_TOL_BPM = 1.0
WARMUP_S = 5.0
LOCK_TOL_RAD = 0.05
BEAT_TOL_S = 0.010
STEP_TOL_RAD = 1e-9
FORCE_REL_TOL = 1e-9


def wrapped(delta):
    """Angle differences wrapped into [-pi, pi)."""
    return np.mod(np.asarray(delta, dtype=float) + math.pi, TWO_PI) - math.pi


def nearest_distance(events, reference) -> np.ndarray:
    """Distance from each event to the nearest reference time (sorted)."""
    events = np.asarray(events, dtype=float)
    ref = np.asarray(reference, dtype=float)
    right = np.clip(np.searchsorted(ref, events), 1, ref.size - 1)
    return np.minimum(np.abs(events - ref[right - 1]), np.abs(events - ref[right]))


def music_phase(t, period: float) -> np.ndarray:
    """Phase of a click track with clicks at k * period: 3*pi/2 on each click."""
    return np.mod(FOOTFALL_PHASE + TWO_PI * np.asarray(t, dtype=float) / period, TWO_PI)


def footfalls(t, force) -> np.ndarray:
    """One time per interior stance: the middle of its longest run at peak force.

    A stance is a run of positive force that touches neither end of the
    series. Where the peak is held over several samples the footfall is
    the run's middle sample, the earlier one of two.
    """
    t = np.asarray(t, dtype=float)
    f = np.asarray(force, dtype=float)
    grounded = np.concatenate([[False], f > 0.0, [False]])
    edges = np.flatnonzero(grounded[1:] != grounded[:-1])
    out = []
    for start, stop in zip(edges[0::2], edges[1::2]):
        if start == 0 or stop == f.size:
            continue
        at_peak = f[start:stop] == f[start:stop].max()
        best_len, best_mid, run_start = 0, 0, None
        for i, hit in enumerate(np.append(at_peak, False)):
            if hit and run_start is None:
                run_start = i
            elif not hit and run_start is not None:
                if i - run_start > best_len:
                    best_len, best_mid = i - run_start, run_start + (i - 1 - run_start) // 2
                run_start = None
        out.append(t[start + best_mid])
    return np.asarray(out)


def check_tempo(estimate: float, bpm: float) -> list[str]:
    if abs(estimate - bpm) <= TEMPO_TOL_BPM:
        return []
    return [f"tempo {estimate:.4f} BPM is more than {TEMPO_TOL_BPM} BPM from {bpm}"]


def check_footfalls(t, force, clicks, bound_s: float) -> list[str]:
    """Every footfall after the warm-up lies within bound_s of a written click."""
    ff = footfalls(t, force)
    ff = ff[ff >= WARMUP_S]
    if ff.size == 0:
        return ["no footfall after the warm-up"]
    worst = float(nearest_distance(ff, clicks).max())
    if worst <= bound_s:
        return []
    return [f"a footfall lies {worst * 1e3:.1f} ms from the nearest click "
            f"(bound {bound_s * 1e3:.0f} ms)"]


def check_phase_lock(osc, leg: int, period: float, mod_every: int) -> list[str]:
    """|phi_leg - theta| < 0.05 rad at every modulator tick after the warm-up.

    osc rows hold the phases at each 1 kHz tick before its step, which
    are the phases the modulator reads on its ticks.
    """
    rows = osc[::mod_every]
    post = rows[:, 0] > WARMUP_S
    err = np.abs(wrapped(rows[post, 1 + leg] - music_phase(rows[post, 0], period)))
    if err.size and err.max() < LOCK_TOL_RAD:
        return []
    worst = float(err.max()) if err.size else float("nan")
    return [f"phase error {worst:.4f} rad after {WARMUP_S} s (bound {LOCK_TOL_RAD})"]


def _stance_weights(phases) -> np.ndarray:
    p = np.asarray(phases, dtype=float)
    return np.where(p >= math.pi, np.sin(p - math.pi), 0.0)


def check_plant_rows(plant, osc, body_weight: float, flight_threshold: float) -> list[str]:
    """The four forces sum to body weight with a foot in stance, to 0 in flight.

    Stance is read from the phases at the plant update's tick: some
    foot is down when the stance weights sum above the flight threshold.
    """
    t = plant[:, 0]
    dt = osc[1, 0] - osc[0, 0]
    ticks = np.rint(t / dt).astype(int)
    down = _stance_weights(osc[ticks, 1:5]).sum(axis=1) > flight_threshold
    total = plant[:, 1:5].sum(axis=1)
    expected = np.where(down, body_weight, 0.0)
    bad = np.abs(total - expected) > FORCE_REL_TOL * body_weight
    if not bad.any():
        return []
    i = int(np.flatnonzero(bad)[0])
    return [f"{int(bad.sum())} plant rows break the weight balance, first at "
            f"t={t[i]:.3f} s: sum {total[i]!r} N, expected {expected[i]!r} N"]


def check_osc_steps(osc, plant) -> list[str]:
    """Each oscillator row is one forward-Euler step from the row before it.

    dphi/dt = omega - sigma * G * (cos(phi) + xi) under the loads held
    since the latest plant update. The omega a step uses is the one
    logged on the next row: a modulator update lands before the step of
    its tick, and the log records omega before the tick.
    """
    dt = osc[1, 0] - osc[0, 0]
    plant_every = int(round((plant[1, 0] - plant[0, 0]) / dt))
    phi = osc[:-1, 1:5]
    omega = osc[1:, 5:6]
    held = plant[np.arange(phi.shape[0]) // plant_every, 5:9]
    nxt = np.mod(phi + dt * (omega - SIGMA * held * (np.cos(phi) + XI)), TWO_PI)
    err = np.abs(wrapped(nxt - osc[1:, 1:5]))
    if err.max() <= STEP_TOL_RAD:
        return []
    i = int(np.argmax(err.max(axis=1)))
    return [f"{int((err.max(axis=1) > STEP_TOL_RAD).sum())} oscillator rows are not one "
            f"Euler step from the row before; first worst at t={osc[i + 1, 0]:.3f} s "
            f"({float(err.max()):.3e} rad)"]


def read_csv(path: Path) -> np.ndarray:
    """A run-log stream: one header comment, one column-name line, then rows."""
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def check_lock_run(runlog, report, bpm: float, clicks, leg: int,
                   mod_every: int) -> list[str]:
    """A feedforward lock run on the program's own click track, graded in memory."""
    osc = runlog.streams["osc"][1]
    plant = runlog.streams["plant"][1]
    return (check_tempo(report["tempo_bpm_estimate"], bpm)
            + check_phase_lock(osc, leg, 60.0 / bpm, mod_every)
            + check_footfalls(plant[:, 0], plant[:, 1 + leg], clicks, 0.030))


def check_curriculum(report, commands) -> list[str]:
    errors = []
    coeffs = np.asarray(report["coeffs"], dtype=float)
    if coeffs.shape != (2,) or np.abs(coeffs - (0.0, 1.0)).max() > 1e-9:
        errors.append(f"fitted coefficients {coeffs.tolist()} are not (0, 1) to 1e-9")
    if not report["final_mse"] <= 1e-8:
        errors.append(f"final MSE {report['final_mse']!r} exceeds 1e-8")
    if report["rho_last"] != 1.0:
        errors.append(f"rho_last is {report['rho_last']!r}, not 1")
    ev = report["eval"]
    if sorted(ev) != sorted(f"{f:.1f}" for f in commands):
        errors.append(f"rho = 1 sweep covers {sorted(ev)}, not {list(commands)}")
    for key, stats in ev.items():
        if not (stats["mean_abs_dev_hz"] < 0.05 and stats["variance_hz2"] < 0.01):
            errors.append(f"rho = 1 loop at {key} Hz misses the tracking bounds: {stats}")
    return errors


def check_song_run(outdir: Path, report, bpm: float, clicks, bound_s: float, leg: int,
                   body_weight: float, flight_threshold: float) -> list[str]:
    """A footfall-mode run from a WAV, graded on the artifacts it wrote."""
    osc = read_csv(outdir / "runlog.csv")
    plant = read_csv(outdir / "runlog.plant.csv")
    errors = check_tempo(report["tempo_bpm_estimate"], bpm)
    errors += check_footfalls(plant[:, 0], plant[:, 1 + leg], clicks, bound_s)
    errors += check_plant_rows(plant, osc, body_weight, flight_threshold)
    errors += check_osc_steps(osc, plant)
    on_disk = json.loads((outdir / "report.json").read_text())
    if on_disk != json.loads(json.dumps(report)):
        errors.append("report.json on disk differs from the report returned")
    return errors


def check_analysis(analysis, bpm: float, clicks, interpolate_phase) -> list[str]:
    """Tempo, beat coverage of every click, and exact beat anchors."""
    beats = analysis.grid.beat_times
    errors = check_tempo(analysis.grid.tempo_bpm, bpm)
    worst = float(nearest_distance(clicks, beats).max())
    if worst > BEAT_TOL_S:
        errors.append(f"a click lies {worst * 1e3:.2f} ms from the nearest detected beat "
                      f"(bound {BEAT_TOL_S * 1e3:.0f} ms)")
    theta = np.asarray(interpolate_phase(analysis.grid, beats))
    if not np.all(theta == FOOTFALL_PHASE):
        errors.append("theta is not exactly 3*pi/2 at every beat time")
    return errors
