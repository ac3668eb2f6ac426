"""Per-layer call counts and self time, recorded from outside the program.

A Tracer replaces each traced public function of the beatgait modules
with a timing wrapper, in every beatgait module namespace that binds
it, and puts the originals back on uninstall. A call's self time is its
duration minus the time spent in the traced calls inside it, so the
self times of one operation add up to the time spent in traced code.

Scalar helpers that other functions call many times per call (the
phase wrappers, phase_rate, ring_distance_sq, wobble_amplitude) are not
traced: their time stays with their caller, which keeps the tracing
overhead down.
"""

from __future__ import annotations

import sys
import time

#: Traced names per module. "Class.method" wraps a method on the class;
#: "EstimatorInput.__init__" is the whole construction of one input.
TRACED = {
    "music": ("load_wav", "onset_envelope", "estimate_tempo", "detect_beats",
              "smooth_beats", "interpolate_phase", "analyze_clip",
              "synth_click_track", "fold_tempo"),
    "oscillator": ("step_phases", "normalize_grf", "select_params", "make_bank",
                   "param_arrays"),
    "plant": ("grf_from_phases", "stance_weight", "support_shares", "contact_onsets",
              "kinematic_beats", "stepping_frequency"),
    "modulator": ("modulate", "feedforward_command", "rollout_phase", "reward_rhythm",
                  "reward_r1", "reward_r2", "reward_phase"),
    "estimator": ("EstimatorInput.__init__", "fit", "predict", "mix"),
    "metrics": ("beat_alignment", "frequency_variance", "frequency_deviation",
                "relative_phase_differences"),
    "harness": ("run_frequency_tracking", "run_rhythm_sync", "run_estimator_curriculum",
                "scheduler_tick", "RunLog.write"),
}

RUNNERS = ("harness.run_frequency_tracking", "harness.run_rhythm_sync",
           "harness.run_estimator_curriculum")
REWARDS = ("modulator.reward_rhythm", "modulator.reward_r1", "modulator.reward_r2",
           "modulator.reward_phase")

#: Per-layer metrics of one pass: (name, unit).
PER_LAYER = [
    ("music.self_s", "s"),
    ("music.onset_envelope.self_s", "s"),
    ("music.estimate_tempo.self_s", "s"),
    ("music.detect_beats.self_s", "s"),
    ("music.load_wav.self_s", "s"),
    ("music.analyze_clip.calls", "count"),
    ("oscillator.self_s", "s"),
    ("oscillator.step_phases.calls", "count"),
    ("oscillator.step_phases.self_s", "s"),
    ("oscillator.normalize_grf.self_s", "s"),
    ("plant.self_s", "s"),
    ("plant.grf_from_phases.calls", "count"),
    ("plant.grf_from_phases.self_s", "s"),
    ("plant.stance_weight.self_s", "s"),
    ("plant.support_shares.self_s", "s"),
    ("plant.kinematic_beats.self_s", "s"),
    ("modulator.self_s", "s"),
    ("modulator.modulate.calls", "count"),
    ("modulator.modulate.self_s", "s"),
    ("modulator.feedforward_command.self_s", "s"),
    ("modulator.rollout_phase.calls", "count"),
    ("modulator.rollout_phase.self_s", "s"),
    ("modulator.rewards.self_s", "s"),
    ("estimator.self_s", "s"),
    ("estimator.EstimatorInput.self_s", "s"),
    ("estimator.mix.self_s", "s"),
    ("estimator.predict.self_s", "s"),
    ("estimator.fit.calls", "count"),
    ("estimator.fit.self_s", "s"),
    ("metrics.self_s", "s"),
    ("harness.self_s", "s"),
    ("harness.scheduler_tick.self_s", "s"),
    ("harness.RunLog.write.self_s", "s"),
    ("harness.artifact_bytes", "bytes"),
    ("trace.overhead_s", "s"),
]


def _key(layer: str, name: str) -> str:
    return f"{layer}.{name.removesuffix('.__init__')}"


class Tracer:
    """Timing wrappers over the traced functions, with per-key totals."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls.setdefault(key, 0)
        self_s.setdefault(key, 0.0)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[key] += dur - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += dur

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "beatgait" or name.startswith("beatgait.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"beatgait.{layer}"]
            for name in names:
                key = _key(layer, name)
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(key, orig))
                    continue
                orig = getattr(home, name)
                wrapper = self._wrap(key, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def take(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per traced key since the last take; resets."""
        out = {k: (self.calls[k], self.self_s[k]) for k in self.calls}
        for k in self.calls:
            self.calls[k] = 0
            self.self_s[k] = 0.0
        return out


def layer_metrics(totals: dict[str, tuple[int, float]]) -> dict[str, float]:
    """The PER_LAYER values (except bytes and overhead) from summed trace totals."""
    def self_of(keys) -> float:
        return sum(totals.get(k, (0, 0.0))[1] for k in keys)

    out = {}
    for name, _unit in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = totals.get(head, (0, 0.0))[0]
        elif name == "harness.self_s":
            out[name] = self_of(RUNNERS)
        elif name == "modulator.rewards.self_s":
            out[name] = self_of(REWARDS)
        elif stat == "self_s" and "." not in head:
            out[name] = self_of(k for k in totals if k.startswith(head + "."))
        elif stat == "self_s":
            out[name] = self_of([head])
    return out
