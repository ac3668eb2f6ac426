"""Scenario runner and multi-rate scheduler.

Wires the oscillator bank, the surrogate stance plant, the music
pipeline, the load estimator, and the frequency modulator into the
three experiment families:

* freq_track: oscillator + plant at a fixed intrinsic frequency,
  modulator disabled; scores per-leg stepping-frequency deviation.
* rhythm_sync: the full hierarchical loop on a click track or audio
  file; scores beat alignment, command spread, and the reward traces.
* estimator_curriculum: episodic training that blends plant loads with
  estimator predictions by rho = iteration/N, refitting each episode,
  then proves the rho = 1 loop still tracks frequency commands.

Every run starts in _resolve (refuse another mode's config, resolve it)
and _begin (claim the output directory; rhythm_sync reads its clip in
between) and ends in _finish (build, then write, the run log and
report); between them all three run one loop, _simulate, and differ only
in the load map and modulator they hand it. The clock is fixed:
oscillator at 1 kHz, modulator at 20 Hz, and a plant rate that divides
1000 and is a multiple of 20, with zero-order holds between updates.
A leg touches down when its phase crosses pi and makes a footfall when
it crosses 3*pi/2, each time interpolated between two samples
(plant.crossings). A leg in swing holds a zero load, so its phase is a
straight line between plant updates and a touchdown reads exactly from
the phases each plant update saw; a footfall, in stance, is read from
the 1 kHz oscillator rows. freq_track defaults to a 500 Hz plant: the
frequency-tracking and gait-structure criteria grade its runs, and at
100 Hz a 0.5 rad kick leaves the trot out of band after 5 s on 16 of
50 seeds, against 12 at 500 Hz. The curriculum defaults to 200 Hz: its
cost follows its plant updates, and it makes 0.4 as many as at 500 Hz.
Its rho = 1 sweep then reads a worst mean deviation of 0.0397 Hz
(0.0374 at 500 Hz, 0.0425 at 100 Hz) and a worst variance of 2e-5 Hz^2
against bounds of 0.05 and 0.01.

Offline runs are deterministic: all randomness flows from one seeded
generator recorded in the run log header, and a fixed config plus seed
reproduces every artifact byte for byte.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import estimator as est
from .errors import InputError, InsufficientDataError, RunFailedError, writing
from .metrics import SyncReport, beat_alignment, frequency_deviation, frequency_variance, \
    relative_phase_differences
from .modulator import ERROR_MODES, modulate, reward_phase, reward_r1, reward_r2, reward_rhythm
from .music import FRAME_RATE_HZ, MAX_SAMPLES, analyze_clip, fold_tempo, interpolate_phase, \
    load_wav, synth_click_track
from .oscillator import LEG_ORDER, TWO_PI, make_bank, param_arrays, select_params, \
    wrap_phase
from .plant import PlantConfig, contact_onsets, grf_from_phases, kinematic_beats, \
    stepping_frequency

MODES = ("freq_track", "rhythm_sync", "estimator_curriculum")

ESTIMATOR_MODES = ("learned", "fallback")

#: Nominal command sweep of the frequency-tracking experiment, Hz.
FREQ_TRACK_COMMANDS = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0)

#: Largest integer a JSON number carries exactly (RFC 8259, section 6).
MAX_JSON_INT = 2**53 - 1

#: The choices of each plain str field of ScenarioConfig.
_CHOICES = {"mode": MODES, "error_mode": ERROR_MODES, "estimator_mode": ESTIMATOR_MODES}

#: ScenarioConfig's field annotations: the accepted types and how a message names them.
_FIELD_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a finite number"),
                "bool": (bool, "true or false"), "str": (str, "a string")}

#: Acceptance bounds every frequency-tracking run is graded against.
FREQ_DEV_MEAN_BOUND_HZ = 0.05
FREQ_DEV_VAR_BOUND_HZ2 = 0.01

#: The plant every scenario runs.
_PLANT = PlantConfig()

_MODE_DEFAULTS = {
    # duration_s, plant rate; the oscillator and modulator rates are fixed
    "freq_track": (5.0, 500),
    "rhythm_sync": (30.0, 100),
    "estimator_curriculum": (5.0, 200),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment description; JSON round-trippable.

    None means "resolve the per-mode default": duration and the plant
    rate differ across modes (see _MODE_DEFAULTS), f_cmd defaults to
    2.0 Hz where used, and a rhythm_sync run with neither audio_path
    nor synth_bpm synthesizes 120 BPM clicks; a config may not name
    both. The oscillator (1 kHz) and modulator (20 Hz) rates are the
    same in every run, and so is target_leg, the leg whose footfalls
    the modulator locks to the beat (1, RF), so they are not fields: a
    config cannot set them, and the echo omits them.

    error_mode/feedforward/gain_k select the modulator variant for
    rhythm_sync (error_mode picks the proportional law's error;
    feedforward steers the raw one); perturb_rad draws a uniform
    initial-phase kick from the run's seeded generator; iterations and
    estimator_mode shape the curriculum.

    Each field must match its annotation: a float field takes a finite
    number, an int field an integer within +-(2**53 - 1), neither a
    bool; a bool field takes a bool, a str | None field a string, and
    a plain str field one of its choices (see _CHOICES); "| None"
    fields may be None. gain_k must be positive in every mode; the
    modulator reads it unchecked. A learned curriculum needs at least
    10 iterations.
    Anything else raises InputError. synth_bpm's range is checked when a
    rhythm_sync run builds its clip. Input is checked here and in
    resolve, not again inside the run.
    """

    mode: str
    v_cmd: float = 0.8
    f_cmd: float | None = None
    audio_path: str | None = None
    synth_bpm: float | None = None
    duration: float | None = None
    seed: int = 0
    rate_plant_hz: int | None = None
    outdir: str | None = None
    warmup_s: float = 5.0
    gain_k: float = 2.0
    error_mode: str = "footfall"
    feedforward: bool = False
    perturb_rad: float = 0.0
    iterations: int = 10
    estimator_mode: str = "learned"

    rate_oscillator_hz = 1000  # the run clock and the tracked leg: class attributes, not fields
    rate_modulator_hz = 20
    target_leg = 1

    def __post_init__(self):
        # JSON configs can carry any type, NaN, Infinity and integers with
        # no float; bool is an int. Each field is checked by its annotation
        # (a string, under the __future__ import); a plain str field is a choice.
        for f in fields(self):
            kind, _, optional = f.type.partition(" | ")
            value = getattr(self, f.name)
            if value is None and optional:
                continue
            if kind == "str" and not optional:
                if value not in _CHOICES[f.name]:
                    raise InputError(f"{f.name} must be one of {_CHOICES[f.name]}, got {value!r}")
                continue
            types, what = _FIELD_TYPES[kind]
            if (isinstance(value, bool) and kind != "bool" or not isinstance(value, types)
                    or kind == "float" and not abs(value) <= sys.float_info.max):
                raise InputError(f"{f.name} must be {what}, got {value!r}")
            if kind == "int" and abs(value) > MAX_JSON_INT:
                raise InputError(f"{f.name} must be an integer within +-(2**53 - 1), got {value}")
        if self.seed < 0:
            raise InputError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.audio_path is not None and self.synth_bpm is not None:
            raise InputError(f"a config names audio_path or synth_bpm, not both; got "
                             f"{self.audio_path!r} and {self.synth_bpm!r}")
        if self.duration is not None and not (self.duration > 0):
            raise InputError(f"duration must be positive, got {self.duration!r}")
        if not (self.gain_k > 0):
            raise InputError(f"gain_k must be positive, got {self.gain_k!r}")
        if not (self.warmup_s >= 0):
            raise InputError(f"warmup_s must be non-negative, got {self.warmup_s!r}")
        # the kick is drawn from [-perturb_rad, perturb_rad), a range that must be finite
        if not (self.perturb_rad >= 0 and math.isfinite(2.0 * self.perturb_rad)):
            raise InputError(
                f"perturb_rad must be non-negative with a finite range 2*perturb_rad, "
                f"got {self.perturb_rad!r}")
        if self.iterations < 1:
            raise InputError(f"iterations must be positive, got {self.iterations!r}")
        if (self.mode == "estimator_curriculum" and self.estimator_mode == "learned"
                and self.iterations < 10):
            raise InputError(f"curriculum needs at least 10 iterations, got {self.iterations}")

    def resolve(self) -> "ScenarioConfig":
        """Fill mode defaults; check the plant rate on the fixed clock and the run's length."""
        duration_default, plant_default = _MODE_DEFAULTS[self.mode]
        out = replace(
            self,
            duration=self.duration if self.duration is not None else duration_default,
            rate_plant_hz=self.rate_plant_hz if self.rate_plant_hz is not None else plant_default,
            f_cmd=self.f_cmd if self.f_cmd is not None or self.mode == "rhythm_sync" else 2.0,
            synth_bpm=(self.synth_bpm if self.synth_bpm is not None or
                       self.audio_path is not None or self.mode != "rhythm_sync" else 120.0),
        )
        osc_hz, mod_hz = self.rate_oscillator_hz, self.rate_modulator_hz
        plant_rates = [r for r in range(mod_hz, osc_hz + 1, mod_hz) if osc_hz % r == 0]
        if out.rate_plant_hz not in plant_rates:  # else the zero-order holds would not line up
            raise InputError(f"rate_plant_hz must divide {osc_hz} and be a multiple of {mod_hz}, "
                             f"one of {plant_rates}, got {out.rate_plant_hz!r}")
        if out.duration * osc_hz > MAX_SAMPLES:
            raise InputError(f"duration {out.duration!r} s at {osc_hz} Hz is more than the "
                             f"{MAX_SAMPLES:,} oscillator ticks a run may hold")
        return out

    def ticks(self) -> tuple[int, int, int]:
        """(oscillator ticks, ticks per plant update, ticks per modulator update) once resolved."""
        osc_hz = self.rate_oscillator_hz
        return (int(round(self.duration * osc_hz)), osc_hz // self.rate_plant_hz,
                osc_hz // self.rate_modulator_hz)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise InputError(f"config must be a JSON object, got {type(data).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        if "mode" not in data:
            raise InputError("config must set 'mode'")
        return cls(**data)

    @classmethod
    def from_json(cls, path, **overrides) -> "ScenarioConfig":
        """Load a JSON config file; overrides replace or add fields."""
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise InputError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise InputError(f"invalid JSON in config {path}: {exc}") from exc
        # from_dict rejects anything but an object
        return cls.from_dict({**data, **overrides} if isinstance(data, dict) else data)


#: Rows per block in RunLog.write. A block spans many runs of a 20 Hz
#: hold at 1 kHz (50 rows each), so few runs are cut at its edges and
#: formatted twice; its working arrays peak near 2.3 MB for the osc
#: stream, where the whole 60 s stream's at once would peak near 33 MB.
_WRITE_BLOCK_ROWS = 4096

#: 10**k for k = 0..22, every power of ten that a double holds exactly.
_POW10 = np.array([float(10 ** k) for k in range(23)])

#: Bytes per CSV cell: the longest %.17g text (24, as in
#: -2.2250738585072014e-308) and the separator after it.
_CELL = 25


def _two_product(a, b):
    """a * b exactly, as hi + lo with hi = fl(a * b) (Dekker's two-product).

    numpy has no fused multiply-add, so each factor is cut in halves of
    26 bits by Veltkamp's split, and every partial product is exact.
    """
    hi = a * b
    c = a * 134217729.0  # 2**27 + 1
    ah = c - (c - a)
    c = b * 134217729.0
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _digits17(a):
    """(N, e): a = N * 10**(e - 16) to 17 significant digits, for each a in (1e-6, 1e16).

    N in [1e16, 1e17) is a * 10**(16 - e) rounded half to even, as
    CPython's dtoa rounds for %.17g. The power is exact for e in
    [-6, 15], and the product is formed exactly as hi + lo, so exact
    comparisons on the pair correct log10's estimate of e; hi is then an
    even integer, so rint(lo) settles ties. No double in the range is
    within a half unit of the 17th digit below a power of ten, so N
    never rounds up to 1e17.
    """
    e = np.clip(np.floor(np.log10(a)), -6, 15).astype(np.int64)
    hi, lo = _two_product(a, _POW10[16 - e])
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = np.flatnonzero(below | above)
    if off.size:
        e[off] += above[off].astype(np.int64) - below[off]
        hi[off], lo[off] = _two_product(a[off], _POW10[16 - e[off]])
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), e


def _cells(x):
    """Each value's %.17g text, left-aligned in a row of _CELL bytes.

    Returns (cells, lens, at): value i reads cells[at[i], :lens[at[i]]].
    Values of magnitude in (1e-6, 1e16) take their digits from
    _digits17 and are laid out with column slices, one group of cells
    per (exponent, sign): fixed notation for exponents -4 to 15, trailing
    zeros and a bare point dropped, else d.ddd...e-0k. Every other value
    (zeros, subnormals, NaN, inf, and magnitudes outside the range) is
    formatted by Python's %, once per 64-bit pattern.
    """
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e16)
    idx, rest = np.flatnonzero(fast), np.flatnonzero(~fast)
    n, e = _digits17(a[idx])
    group = ((e + 6) * 2 + np.signbit(x[idx])).astype(np.int8)  # (exponent, sign)
    order = np.argsort(group, kind="stable")
    n = n[order].view(np.uint64)
    digits = np.empty((17, idx.size), np.uint8)
    zeros = np.zeros(idx.size, np.uint8)  # trailing zero digits
    trailing = np.ones(idx.size, bool)
    for j in range(16, -1, -1):
        q = n // 10
        digits[j] = n - q * 10
        n = q
        trailing &= digits[j] == 0
        zeros += trailing
    digits = digits.T + np.uint8(ord("0"))
    pattern, inverse = np.unique(x[rest].view(np.int64), return_inverse=True)
    cells = np.empty((idx.size + pattern.size, _CELL), np.uint8)
    lens = np.empty(idx.size + pattern.size, np.uint8)
    at = np.empty(x.size, np.int64)
    at[idx[order]] = np.arange(idx.size)
    at[rest] = idx.size + inverse
    stop = 0
    for g, count in enumerate(np.bincount(group)):
        if not count:
            continue
        start, stop = stop, stop + count
        c, d, z = cells[start:stop], digits[start:stop], zeros[start:stop]
        x10, s = g // 2 - 6, g % 2
        if s:
            c[:, 0] = ord("-")
        if x10 >= 0:  # d.d...d with x10 + 1 digits before the point
            c[:, s:s + x10 + 1] = d[:, :x10 + 1]
            c[:, s + x10 + 1] = ord(".")
            c[:, s + x10 + 2:s + 18] = d[:, x10 + 1:]
            cut = np.minimum(z, 16 - x10)
            lens[start:stop] = s + 18 - cut - (cut == 16 - x10)
        elif x10 >= -4:  # 0.00...0d...d
            lead = 1 - x10
            c[:, s:s + lead] = np.frombuffer(b"0." + b"0" * (lead - 2), np.uint8)
            c[:, s + lead:s + lead + 17] = d
            lens[start:stop] = s + lead + 17 - z
        else:  # d.d...de-0k, the point dropped with all 16 fraction digits
            c[:, s] = d[:, 0]
            c[:, s + 1] = ord(".")
            c[:, s + 2:s + 18] = d[:, 1:]
            end = s + 18 - z - (z == 16)
            c[np.arange(count)[:, None], end[:, None] + np.arange(4)] = \
                np.frombuffer(b"e-0%d" % -x10, np.uint8)
            lens[start:stop] = end + 4
    texts = ("%.17g\n" * pattern.size % tuple(pattern.view(float).tolist())).split("\n")[:-1]
    cells[idx.size:, :_CELL - 1] = np.array(texts, dtype=f"S{_CELL - 1}").view(np.uint8) \
        .reshape(-1, _CELL - 1)
    lens[idx.size:] = [len(t) for t in texts]
    return cells, lens, at


def _block_text(block: np.ndarray) -> str:
    """The rows of a non-empty block as np.savetxt(fmt="%.17g", delimiter=",") writes them.

    Values are grouped by their 64-bit patterns, never by float ==,
    under which -0.0 and 0.0 are equal though they print apart. A
    column bit-equal to an earlier one reuses its cells; in any other
    column each run of bit-equal values is formatted once, by _cells.
    Each cell's separator is put after its text, and one masked
    compress of the (rows, columns, _CELL) bytes joins them.
    """
    n, m = block.shape
    bits = block.view(np.int64)
    values, source = [], []
    for j in range(m):
        c = bits[:, j]
        same = next((k for k in range(j) if np.array_equal(c, bits[:, k])), None)
        if same is not None:
            source.append(source[same])
            continue
        head = np.concatenate(([True], c[1:] != c[:-1]))
        source.append(sum(v.size for v in values) + np.cumsum(head) - 1)
        values.append(block[head, j])
    cells, lens, at = _cells(np.concatenate(values))
    pick = at[np.stack(source, axis=1)]
    cells, lens = cells[pick], lens[pick]
    seps = np.tile(np.frombuffer(b"," * (m - 1) + b"\n", np.uint8), n)
    cells.reshape(-1)[np.arange(0, n * m * _CELL, _CELL) + lens.reshape(-1)] = seps
    return str(memoryview(cells[np.arange(_CELL, dtype=np.uint8) <= lens[..., None]]), "ascii")


class RunLog:
    """Per-stream records at their native rates plus a header.

    Streams are (column names, float array) pairs whose first column is
    a strictly increasing timestamp; add_stream takes _finish's rows as
    the loop built them, unchecked. write(outdir) needs outdir to exist;
    the "osc" stream lands in runlog.csv, every other stream in
    runlog.<name>.csv, each value as %.17g, which reads back as the same double.
    The bytes are those np.savetxt(fmt="%.17g", delimiter=",") writes,
    built by _block_text in numpy a block of _WRITE_BLOCK_ROWS rows at a
    time: digits from an exact product where the range allows, Python's
    % for the rest, and a run of bit-equal values in a column, or a
    column bit-equal to an earlier one, formatted once per block.
    """

    def __init__(self, header: dict):
        self.header = dict(header)
        self.streams: dict[str, tuple[list[str], np.ndarray]] = {}

    def add_stream(self, name: str, columns, data) -> None:
        self.streams[name] = (list(columns), np.asarray(data, dtype=float))

    def write(self, outdir) -> list[Path]:
        outdir = Path(outdir)
        head = " ".join(f"{k}={self.header[k]}" for k in sorted(self.header))
        written = []
        for name, (columns, arr) in self.streams.items():
            path = outdir / ("runlog.csv" if name == "osc" else f"runlog.{name}.csv")
            with open(path, "w") as fh:
                fh.write(f"# {head}\n")
                fh.write(",".join(columns) + "\n")
                for i in range(0, arr.shape[0], _WRITE_BLOCK_ROWS):
                    fh.write(_block_text(arr[i:i + _WRITE_BLOCK_ROWS]))
            written.append(path)
        return written


def scheduler_tick(phases, g, dt: float, om, sg, xi, n_steps: int, log):
    """Run one plant period: n_steps Euler steps under the held loads g.

    Every argument but dt, n_steps and log is a list of four floats. Each
    step is step_phases' expression on plain floats, with sigma * G, which
    it groups as (sigma * G) * (cos(phi) + xi), taken once per window.
    Extends log, unless it is None, by each tick's phases before its
    step; returns the phases after the last step. A NaN or infinite load
    gives NaN phases, which the loop checks for at every plant update.
    """
    p0, p1, p2, p3 = phases
    o0, o1, o2, o3 = om
    x0, x1, x2, x3 = xi
    k0, k1, k2, k3 = sg[0] * g[0], sg[1] * g[1], sg[2] * g[2], sg[3] * g[3]
    cos = math.cos
    extend = None if log is None else log.extend
    for _ in range(n_steps):
        if extend is not None:
            extend((p0, p1, p2, p3))
        p0 = (p0 + dt * (o0 - k0 * (cos(p0) + x0))) % TWO_PI
        p1 = (p1 + dt * (o1 - k1 * (cos(p1) + x1))) % TWO_PI
        p2 = (p2 + dt * (o2 - k2 * (cos(p2) + x2))) % TWO_PI
        p3 = (p3 + dt * (o3 - k3 * (cos(p3) + x3))) % TWO_PI
        # % rounds up to the divisor for tiny negative sums
        p0 = 0.0 if p0 >= TWO_PI else p0
        p1 = 0.0 if p1 >= TWO_PI else p1
        p2 = 0.0 if p2 >= TWO_PI else p2
        p3 = 0.0 if p3 >= TWO_PI else p3
    return [p0, p1, p2, p3]


def _initial_state(cfg: ScenarioConfig, f_gait: float):
    """Moving-gait bank at the stationary-to-moving transition, as float lists.

    All four legs carry equal weight while standing, so the low-load
    tie breaks to the left-diagonal pair per the parameter schedule.
    Optional uniform phase perturbation is the only consumer of the
    run's random generator.
    """
    standing = np.full(4, _PLANT.mass * _PLANT.g / 4.0)
    params = select_params(cfg.v_cmd, f_gait, standing)
    phases = make_bank(params).phases
    if cfg.perturb_rad > 0:
        rng = np.random.default_rng(cfg.seed)
        phases = wrap_phase(phases + rng.uniform(-cfg.perturb_rad, cfg.perturb_rad, 4))
    return [phases.tolist()] + [a.tolist() for a in param_arrays(params)]


def _diverged(label: str, t: float) -> RunFailedError:
    return RunFailedError(
        f"{label} diverged: oscillator phases non-finite by t={t:.3f} s")


def _simulate(cfg: ScenarioConfig, state, load=None, mod_fn=None,
              label: str | None = None, log_osc: bool = True):
    """The closed loop every scenario runs: oscillators, plant, modulator.

    state is _initial_state's bank: phases and oscillator parameters,
    lists of four floats like the held loads. Once per plant update, at time t of its tick:

    1. the phases must be finite, else RunFailedError names
       the run (label, default the mode) and the time;
    2. the plant turns them, in one grf_from_phases call, into forces
       and the support shares it split them by; the forces, the
       normalized loads g and the phases are logged as the next plant row;
    3. the oscillators hold load(phases, g, shares) when a load map is
       given, else g;
    4. on a modulator tick, mod_fn(t, phases, j) returns the next
       intrinsic frequency (j counts modulator updates);
    5. scheduler_tick runs the Euler steps up to the next update.

    Returns (final phases, osc rows, plant rows). Osc row k is (t, four
    phases, omega_tilde) at the start of tick k, before its updates and
    its step; the rows are None when log_osc is false. Plant row i is
    (t, four forces, four normalized loads, four phases); the plant
    stream is its first nine columns, and touchdowns are read from the
    last four, which hold the phases every plant update saw.
    """
    label = label or cfg.mode
    phases, om, sg, xi = state
    n_ticks, plant_every, mod_every = cfg.ticks()
    dt = 1.0 / cfg.rate_oscillator_hz
    plant_cfg = _PLANT
    body_weight = plant_cfg.mass * plant_cfg.g
    osc_log = array("d") if log_osc else None
    plant_log = array("d")
    omegas = [om[0]]  # omega_tilde at the start, then after each modulator update
    for tick in range(0, n_ticks, plant_every):
        t = tick * dt
        # the phases lie in [0, 2*pi) while finite, so their sum is
        # finite exactly when all of them are
        if not math.isfinite(sum(phases)):
            raise _diverged(label, t)
        forces, shares = grf_from_phases(phases, plant_cfg)
        f0, f1, f2, f3 = forces
        v0, v1, v2, v3 = f0 / body_weight, f1 / body_weight, f2 / body_weight, f3 / body_weight
        # min(v, 1.0) on every float, NaN included
        g = [1.0 if v0 > 1.0 else v0, 1.0 if v1 > 1.0 else v1,
             1.0 if v2 > 1.0 else v2, 1.0 if v3 > 1.0 else v3]
        plant_log.extend(forces)
        plant_log.extend(g)
        plant_log.extend(phases)
        if load is not None:
            g = load(phases, g, shares)
        if tick % mod_every == 0:
            if mod_fn is not None:
                om = [float(mod_fn(t, phases, tick // mod_every))] * 4
            omegas.append(om[0])
        phases = scheduler_tick(phases, g, dt, om, sg, xi,
                                min(plant_every, n_ticks - tick), osc_log)
    if not math.isfinite(sum(phases)):
        raise _diverged(label, n_ticks * dt)

    plant_rows = np.empty((len(plant_log) // 12, 13))
    plant_rows[:, 0] = np.arange(0, n_ticks, plant_every) * dt
    plant_rows[:, 1:] = np.reshape(plant_log, (-1, 12))
    if not log_osc:
        return phases, None, plant_rows
    ticks = np.arange(n_ticks)
    osc_rows = np.empty((n_ticks, 6))
    osc_rows[:, 0] = ticks * dt
    osc_rows[:, 1:5] = np.reshape(osc_log, (-1, 4))
    # row k holds omega_tilde before tick k's modulator update: the
    # value after update ceil(k / mod_every) - 1
    osc_rows[:, 5] = np.asarray(omegas)[-(-ticks // mod_every)]
    return phases, osc_rows, plant_rows


def _leg_stats(plant_rows, leg: int, f_cmd: float) -> dict:
    """One leg's stepping statistics from its touchdowns, the pi crossings of its phases."""
    touchdowns = contact_onsets(plant_rows[:, 0], plant_rows[:, 9 + leg])
    freqs = stepping_frequency(touchdowns)
    mean_dev, var = frequency_deviation(freqs, f_cmd)
    return {"mean_abs_dev_hz": float(mean_dev), "variance_hz2": float(var),
            "cycles": int(freqs.size), "contacts": int(touchdowns.size)}


_OSC_COLUMNS = ["t", "phi_rf", "phi_lf", "phi_rh", "phi_lh", "omega_tilde"]
_PLANT_COLUMNS = ["t", "n_rf", "n_lf", "n_rh", "n_lh", "g_rf", "g_lf", "g_rh", "g_lh"]

#: The names a run writes, and all that _begin removes from a reused outdir.
_ARTIFACTS = ("report.json", "config.echo.json", "runlog.csv", "runlog.*.csv")


def _resolve(config: ScenarioConfig, mode: str) -> ScenarioConfig:
    """config resolved for the runner of mode; another mode's config raises InputError."""
    if config.mode != mode:
        raise InputError(f"the {mode} runner was given a {config.mode} config")
    return config.resolve()


def _begin(cfg: ScenarioConfig) -> ScenarioConfig:
    """Make the resolved cfg's outdir, if set, and clear an earlier run's artifacts."""
    if cfg.outdir is not None:
        outdir = Path(cfg.outdir)
        with writing(outdir):
            outdir.mkdir(parents=True, exist_ok=True)
            for pattern in _ARTIFACTS:
                for path in outdir.glob(pattern):
                    path.unlink()
    return cfg


def _finish(cfg: ScenarioConfig, header: dict, streams, report: dict):
    """The run's (RunLog, report), led by mode and seed; written to outdir, if set, report last."""
    ids = {"mode": cfg.mode, "seed": cfg.seed}
    runlog = RunLog({**ids, **header})
    for name, columns, rows in streams:
        runlog.add_stream(name, columns, rows)
    report = {**ids, **report}
    if cfg.outdir is not None:
        with writing(cfg.outdir):
            runlog.write(cfg.outdir)
            for name, obj in (("config.echo.json", cfg.to_dict()), ("report.json", report)):
                Path(cfg.outdir, name).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return runlog, report


def run_frequency_tracking(config: ScenarioConfig):
    """Fixed-frequency closed loop; modulator disabled.

    Returns (RunLog, SyncReport, report dict) and writes artifacts when
    the config names an output directory. The command is validated by
    the parameter schedule, so an out-of-band f_cmd raises the same
    command-range error the oscillator would.
    """
    cfg = _begin(_resolve(config, "freq_track"))
    f_cmd = float(cfg.f_cmd)
    phases, osc_rows, plant_rows = _simulate(cfg, _initial_state(cfg, f_cmd))

    per_leg = {LEG_ORDER[leg]: _leg_stats(plant_rows, leg, f_cmd) for leg in range(4)}
    rf = per_leg[LEG_ORDER[0]]
    report_metrics = SyncReport(
        freq_dev_mean=rf["mean_abs_dev_hz"], freq_dev_var=rf["variance_hz2"],
        rpd_matrix=relative_phase_differences(phases).tolist())

    header = {"f_cmd": f_cmd, "rate_oscillator_hz": cfg.rate_oscillator_hz,
              "rate_plant_hz": cfg.rate_plant_hz}
    streams = [("osc", _OSC_COLUMNS, osc_rows), ("plant", _PLANT_COLUMNS, plant_rows[:, :9])]
    runlog, report = _finish(cfg, header, streams, {
        "f_cmd_hz": f_cmd,
        "v_cmd": cfg.v_cmd,
        "rates_hz": {"oscillator": cfg.rate_oscillator_hz, "plant": cfg.rate_plant_hz,
                     "modulator": cfg.rate_modulator_hz},
        "metrics": report_metrics.to_dict(),
        "per_leg": per_leg,
    })
    return runlog, report_metrics, report


def _resolve_clip(cfg: ScenarioConfig):
    """Audio for a rhythm_sync run: a file if named, else synth clicks.

    Synthetic tracks run 2 s past the simulation so the beat grid
    always extends beyond the last kinematic footfall.
    """
    if cfg.audio_path is not None:
        return load_wav(cfg.audio_path)
    return synth_click_track(float(cfg.synth_bpm), cfg.duration + 2.0)


def _ring(angle) -> tuple[float, float]:
    return math.cos(angle), math.sin(angle)


def run_rhythm_sync(config: ScenarioConfig):
    """Full hierarchical loop: music analysis drives the modulator.

    Offline pipeline: analyze the whole clip once, derive the gait
    frequency by octave folding, then run the multi-rate loop with the
    configured modulator variant. Scores beat alignment (RF
    footfalls vs the beat grid after warm-up), the 20 Hz command
    spread, and all four reward traces. A clip whose envelope is shorter
    than the run raises InsufficientDataError before anything is
    simulated; graded metrics that are not finite raise RunFailedError.
    """
    cfg = _resolve(config, "rhythm_sync")
    clip = _resolve_clip(cfg)  # read first, so a WAV it cannot use leaves no outdir
    _begin(cfg)
    analysis = analyze_clip(clip)
    n_frames = int(round(cfg.duration * FRAME_RATE_HZ))
    if analysis.envelope.size < n_frames:
        raise InsufficientDataError(
            f"clip covers {analysis.envelope.size} envelope frames, the "
            f"{cfg.duration:g} s run needs {n_frames}")
    f_gait = fold_tempo(analysis.tempo_bpm)
    omega_m = TWO_PI * f_gait

    n_ticks, plant_every, mod_every = cfg.ticks()
    state = _initial_state(cfg, f_gait)
    leg = cfg.target_leg - 1
    sigma, xi = state[2][leg], state[3][leg]  # the model's stance gain and bias: the bank's
    pair_leg = 1 if leg in (0, 3) else 0  # one leg of the opposite diagonal

    # the modulator's ticks, as _simulate times them: bit-equal to tick * dt
    t = np.arange(0, n_ticks, mod_every) * (1.0 / cfg.rate_oscillator_hz)
    theta_mod = interpolate_phase(analysis.grid, t)
    mod_rows = np.empty((t.size, 5))

    def mod_fn(_, phases, i):
        # the feedforward solve starts from the last command
        cmd = modulate(_ring(phases[leg]), _ring(theta_mod[i]), omega_m, sigma, xi, cfg,
                       pair_obs=_ring(phases[pair_leg]), guess=mod_rows[i - 1, 2] if i else 0.0)
        mod_rows[i] = (t[i], omega_m, cmd.delta_omega, cmd.omega_tilde, cmd.phase_error)
        return cmd.omega_tilde

    final_phases, osc_rows, plant_rows = _simulate(cfg, state, mod_fn=mod_fn)

    beats = analysis.grid.beat_times
    kin = kinematic_beats(osc_rows[:, 0], osc_rows[:, 1 + leg])

    # rewards from what each modulator update saw: its tick time t, the
    # music phase, the phases and the held loads. r2 scores the music
    # beats that fall in the tick that ends at the update: a beat is
    # answered by a kinematic beat, the event beat_alignment grades,
    # within half a tick of it, whichever tick that footfall falls in.
    tick_s = 1.0 / cfg.rate_modulator_hz

    def in_tick(events, ends):
        return (np.searchsorted(events, ends, side="right")
                > np.searchsorted(events, ends - tick_s, side="right"))

    phases = osc_rows[::mod_every, 1:5]
    loads = plant_rows[::mod_every // plant_every, 5:9]
    answered = (np.searchsorted(kin, beats + 0.5 * tick_s, side="right")
                > np.searchsorted(kin, beats - 0.5 * tick_s, side="left"))
    music_beat = in_tick(beats, t)
    missed = in_tick(beats[~answered], t)
    frames = np.minimum(np.round(t * FRAME_RATE_HZ).astype(int), analysis.smoothed.size - 1)
    reward_rows = np.array([
        (t[i], reward_rhythm(_ring(phases[i, leg]), _ring(theta_mod[i])),
         reward_r1(analysis.smoothed[frames[i]], phases[i, leg]),
         reward_r2(bool(music_beat[i]), not missed[i]),
         reward_phase(loads[i], phases[i]))
        for i in range(t.size)])

    deltas, delta_max = beat_alignment(kin, beats, warmup_s=cfg.warmup_s)
    post = t >= cfg.warmup_s
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite spread raises below
        omega_std = frequency_variance(mod_rows[post, 3])
    reward_means = {
        name: float(reward_rows[post, 1 + j].mean())
        for j, name in enumerate(("rhythm", "r1", "r2", "phase"))
    }
    if not all(map(math.isfinite, (delta_max, omega_std, *reward_means.values()))):
        raise RunFailedError(f"{cfg.mode} diverged: graded metrics not finite")

    report_metrics = SyncReport(
        delta_t_series=[float(d) for d in deltas],
        delta_t_max=float(delta_max),
        omega_std=float(omega_std),
        rpd_matrix=relative_phase_differences(final_phases).tolist())

    t_frames = np.arange(n_frames) / FRAME_RATE_HZ
    music_rows = np.column_stack([
        t_frames,
        analysis.envelope[:n_frames],
        analysis.smoothed[:n_frames],
        interpolate_phase(analysis.grid, t_frames),
        np.full(n_frames, analysis.grid.tempo_bpm),
    ])

    header = {"tempo_bpm": round(analysis.grid.tempo_bpm, 6),
              "f_gait_hz": round(f_gait, 6),
              "rate_oscillator_hz": cfg.rate_oscillator_hz,
              "rate_plant_hz": cfg.rate_plant_hz,
              "rate_modulator_hz": cfg.rate_modulator_hz}
    streams = [("osc", _OSC_COLUMNS, osc_rows), ("plant", _PLANT_COLUMNS, plant_rows[:, :9]),
               ("mod", ["t", "omega_m", "delta_omega", "omega_tilde", "phase_error"], mod_rows),
               ("music", ["t", "envelope", "beat_curve", "theta", "tempo_bpm"], music_rows),
               ("rewards", ["t", "rhythm", "r1", "r2", "phase"], reward_rows)]
    runlog, report = _finish(cfg, header, streams, {
        "source": cfg.audio_path if cfg.audio_path else f"synth:{cfg.synth_bpm}bpm",
        "tempo_bpm_estimate": float(analysis.grid.tempo_bpm),
        "tempo_confidence": float(analysis.confidence),
        "f_gait_hz": float(f_gait),
        "omega_m": float(omega_m),
        # feedforward steers the raw error whatever error_mode asks for
        "modulator": {"gain_k": cfg.gain_k,
                      "error_mode": "raw" if cfg.feedforward else cfg.error_mode,
                      "feedforward": cfg.feedforward, "target_leg": cfg.target_leg},
        "warmup_s": cfg.warmup_s,
        "reward_means_post_warmup": reward_means,
        "metrics": report_metrics.to_dict(),
    })
    return runlog, report_metrics, report


def _curriculum_load(rho: float, model, share_log=None):
    """Load map of one curriculum episode: simulated and predicted loads mixed by rho.

    The estimator sees each leg's contact flag, phi >= pi, the stance
    a touchdown opens (see _leg_stats), and its share of the supported
    load, the quantity the plant's load law is exactly linear in (the
    raw sine weight is not, once double-support windows appear around
    stance handoffs). The shares are the ones the plant update
    just split its forces by, which _simulate hands over, so no plant
    update computes them twice. share_log, when given, is an array('d')
    that each plant update extends by its four shares, for the next
    fit; the fit reads the contact flags and its targets, the simulated
    loads, from the plant rows' phases and loads.
    """
    pi = math.pi

    def load(phases, g_sim, shares):
        p0, p1, p2, p3 = phases
        indicators = [1.0 if p0 >= pi else 0.0, 1.0 if p1 >= pi else 0.0,
                      1.0 if p2 >= pi else 0.0, 1.0 if p3 >= pi else 0.0]
        if share_log is not None:
            share_log.extend(shares)
        g_pred = g_sim if model is None else est.predict((indicators, shares), model)
        return est.mix(g_sim, g_pred, rho)
    return load


def run_estimator_curriculum(config: ScenarioConfig):
    """Episodic curriculum, or the constant-fallback endurance run.

    Learned mode: episodes i = 0..N run at rho = i/N, each refitting on
    all data collected so far; the final model must then carry the
    rho = 1 loop through the full frequency-command sweep inside the
    tracking bounds. A non-finite phase raises RunFailedError naming the
    episode; a failed sweep raises RunFailedError naming the command.
    """
    cfg = _begin(_resolve(config, "estimator_curriculum"))
    f_cmd = float(cfg.f_cmd)
    header = {"estimator_mode": cfg.estimator_mode, "iterations": cfg.iterations, "f_cmd": f_cmd}

    if cfg.estimator_mode == "fallback":
        fallback = [est.FALLBACK_G] * 4
        _, _, plant_rows = _simulate(cfg, _initial_state(cfg, f_cmd), label="fallback run",
                                     load=lambda phases, g_sim, shares: fallback, log_osc=False)
        return _finish(cfg, header, [("plant", _PLANT_COLUMNS[:5], plant_rows[:, :5])], {
            "estimator_mode": cfg.estimator_mode, "duration_s": cfg.duration, "finite": True,
            "rf_stats": _leg_stats(plant_rows, 0, f_cmd),
        })

    n = cfg.iterations
    n_ticks, plant_every, _ = cfg.ticks()
    per_episode = -(-n_ticks // plant_every)
    # indicators, shares and simulated loads of every plant update of every episode
    try:
        data = np.empty((3, (n + 1) * per_episode, 4))
    except (MemoryError, ValueError) as exc:  # numpy's "array is too big" is a ValueError
        raise InputError(
            f"{n} iterations of {per_episode} plant updates do not fit in memory") from exc
    model = None
    mse_rows = []
    for i in range(n + 1):
        rho = i / n
        start, end = i * per_episode, (i + 1) * per_episode
        shares = array("d")
        _, _, plant_rows = _simulate(
            cfg, _initial_state(cfg, f_cmd), label=f"curriculum iteration {i} (rho={rho})",
            load=_curriculum_load(rho, model, shares), log_osc=False)
        data[0, start:end] = plant_rows[:, 9:13] >= math.pi
        data[1, start:end] = np.reshape(shares, (-1, 4))
        data[2, start:end] = plant_rows[:, 5:9]
        model = est.fit(est.EstimatorInput(data[0, :end], data[1, :end]), data[2, :end])
        mse_rows.append((float(i), rho, model.mse))

    eval_stats = {}
    for f in FREQ_TRACK_COMMANDS:
        _, _, plant_rows = _simulate(cfg, _initial_state(cfg, f), _curriculum_load(1.0, model),
                                     label=f"rho=1 evaluation at f_cmd={f}", log_osc=False)
        stats = _leg_stats(plant_rows, 0, f)
        eval_stats[f"{f:.1f}"] = stats
        if (stats["mean_abs_dev_hz"] >= FREQ_DEV_MEAN_BOUND_HZ
                or stats["variance_hz2"] >= FREQ_DEV_VAR_BOUND_HZ2):
            raise RunFailedError(
                f"rho=1 loop failed frequency tracking at f_cmd={f}: {stats}")

    return _finish(cfg, header, [("mse", ["iteration", "rho", "mse"], np.asarray(mse_rows))], {
        "estimator_mode": cfg.estimator_mode,
        "iterations": n, "episode_duration_s": cfg.duration, "f_cmd_hz": f_cmd,
        "rho_first": float(mse_rows[0][1]), "rho_last": float(mse_rows[-1][1]),
        "mse_curve": [float(r[2]) for r in mse_rows],
        "final_mse": float(model.mse),
        "rank_deficient": bool(model.rank_deficient),
        "coeffs": [float(c) for c in model.coeffs],
        "eval": eval_stats,
    })
