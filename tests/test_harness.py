import io
import itertools
import json
import math
import re
import warnings
from array import array
from dataclasses import fields
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beatgait import estimator, harness, plant
from beatgait.errors import InputError, InsufficientDataError, RunFailedError
from beatgait.harness import (
    ESTIMATOR_MODES,
    FREQ_TRACK_COMMANDS,
    MODES,
    RunLog,
    ScenarioConfig,
    _initial_state,
    _simulate,
    run_estimator_curriculum,
    run_frequency_tracking,
    run_rhythm_sync,
    scheduler_tick,
)
from beatgait.metrics import frequency_deviation
from beatgait.modulator import ERROR_MODES, ModulatorCommand, reward_rhythm
from beatgait.music import MAX_SAMPLES, analyze_clip, interpolate_phase, save_wav, \
    synth_click_track
from beatgait.oscillator import LEG_ORDER, TWO_PI
from beatgait.plant import stance_weight, support_shares


class TestScenarioConfig:
    def test_mode_defaults(self):
        ft = ScenarioConfig(mode="freq_track").resolve()
        assert ft.duration == 5.0 and ft.rate_plant_hz == 500
        assert ft.f_cmd == 2.0
        rs = ScenarioConfig(mode="rhythm_sync").resolve()
        assert rs.duration == 30.0 and rs.rate_plant_hz == 100
        assert rs.synth_bpm == 120.0 and rs.f_cmd is None
        cu = ScenarioConfig(mode="estimator_curriculum").resolve()
        assert cu.duration == 5.0 and cu.rate_plant_hz == 200

    def test_explicit_values_survive_resolve(self):
        cfg = ScenarioConfig(mode="freq_track", duration=2.0, f_cmd=3.5).resolve()
        assert cfg.duration == 2.0 and cfg.f_cmd == 3.5
        assert cfg.rate_plant_hz == 500

    def test_audio_path_suppresses_synth_default(self):
        cfg = ScenarioConfig(mode="rhythm_sync", audio_path="x.wav").resolve()
        assert cfg.synth_bpm is None

    def test_shared_defaults(self):
        cfg = ScenarioConfig(mode="rhythm_sync")
        assert cfg.v_cmd == 0.8 and cfg.seed == 0
        assert cfg.rate_oscillator_hz == 1000 and cfg.rate_modulator_hz == 20
        assert cfg.warmup_s == 5.0 and cfg.target_leg == 1
        assert cfg.gain_k == 2.0 and cfg.error_mode is None
        assert cfg.feedforward is False and cfg.estimator_mode == "learned"
        assert cfg.resolve().error_mode == "footfall"

    def test_variant_tuples(self):
        assert MODES == ("freq_track", "rhythm_sync", "estimator_curriculum")
        assert ESTIMATOR_MODES == ("learned", "fallback")
        assert FREQ_TRACK_COMMANDS == (1.5, 2.0, 2.5, 3.0, 3.5, 4.0)

    @pytest.mark.parametrize("kwargs", [
        {"mode": "dance"},
        {"mode": "freq_track", "seed": -1},
        {"mode": "freq_track", "seed": 1.5},
        {"mode": "freq_track", "duration": 0.0},
        {"mode": "freq_track", "warmup_s": -1.0},
        {"mode": "freq_track", "perturb_rad": -0.1},
        {"mode": "freq_track", "perturb_rad": 1e308},
        {"mode": "freq_track", "iterations": 0},
        {"mode": "freq_track", "estimator_mode": "psychic"},
        # a named clip would run and the tempo go unread
        {"mode": "rhythm_sync", "audio_path": "clicks.wav", "synth_bpm": 150.0},
    ])
    def test_field_validation(self, kwargs):
        with pytest.raises(InputError):
            ScenarioConfig(**kwargs)

    @pytest.mark.parametrize("field", ["duration", "perturb_rad", "warmup_s", "v_cmd",
                                       "f_cmd", "gain_k", "synth_bpm"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be a finite number"):
            ScenarioConfig(mode="freq_track", **{field: value})

    @pytest.mark.parametrize("field", ["duration", "perturb_rad", "warmup_s", "v_cmd",
                                       "f_cmd", "gain_k", "synth_bpm"])
    @pytest.mark.parametrize("value", [True, "1", [1.0]])
    def test_non_number_rejected(self, field, value):
        # true == 1 in Python: gain_k would run at 1, synth_bpm click at 1 BPM
        with pytest.raises(InputError, match=f"{field} must be a finite number"):
            ScenarioConfig(mode="rhythm_sync", **{field: value})

    @pytest.mark.parametrize("field", ["audio_path", "outdir"])
    @pytest.mark.parametrize("value", [0, 5, ["a"], True, b"a.wav"])
    def test_non_string_path_rejected(self, field, value):
        # an int path would open a file descriptor: 0 reads stdin
        with pytest.raises(InputError, match=f"{field} must be a string"):
            ScenarioConfig(mode="rhythm_sync", **{field: value})

    @pytest.mark.parametrize("field", ["iterations", "seed"])
    @pytest.mark.parametrize("value", [10.5, 10.0, True, "10", 2**53, -(10**400)])
    def test_non_integer_count_rejected(self, field, value):
        # integers past +-(2**53 - 1) are not exact in JSON, and 10**400 has no float
        with pytest.raises(InputError, match=f"{field} must be an integer"):
            ScenarioConfig(mode="estimator_curriculum", **{field: value})

    @pytest.mark.parametrize("field", ["duration", "perturb_rad", "warmup_s", "v_cmd",
                                       "f_cmd", "gain_k", "synth_bpm"])
    @pytest.mark.parametrize("value", [10**400, -(10**309)])
    def test_integer_without_float_rejected(self, field, value):
        # finite, but past the largest float: refused before anything converts it
        with pytest.raises(InputError, match=f"{field} must be a finite number"):
            ScenarioConfig(mode="rhythm_sync", **{field: value})

    def test_every_field_checked_by_its_annotation(self):
        # __post_init__ reads each annotation as a string (the __future__
        # import); every kind it knows refuses a list, every plain str
        # field is a choice field, and a choice field refuses any other
        # value with its allowed tuple
        choices = {"mode": MODES, "error_mode": ERROR_MODES, "estimator_mode": ESTIMATOR_MODES}
        for f in fields(ScenarioConfig):
            assert isinstance(f.type, str), f.name
            kind, _, optional = f.type.partition(" | ")
            assert kind in ("int", "float", "bool", "str") and optional in ("", "None"), f
            if f.name in choices:
                message = re.escape(f"{f.name} must be one of {choices[f.name]}, got 'x'")
            else:
                message = f"{f.name} must be (an integer|a finite number|true or false|a string)"
            with pytest.raises(InputError, match=message):
                ScenarioConfig(**{"mode": "freq_track", f.name: "x" if f.name in choices else [1]})
        assert {f.name for f in fields(ScenarioConfig) if f.type == "str"} < set(choices)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("value", ["bogus", [1], 1, "RAW"])
    def test_error_mode_checked_in_every_mode(self, mode, value):
        # before any clip is built, and also where no modulator runs
        with pytest.raises(InputError, match="error_mode must be one of"):
            ScenarioConfig(mode=mode, error_mode=value)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("feedforward, error_mode", [(False, "raw"), (True, "footfall")])
    def test_error_mode_must_agree_with_feedforward(self, mode, feedforward, error_mode):
        # feedforward alone picks the law: the error it steers may be named, not changed
        message = re.escape(f"error_mode {error_mode!r} disagrees with feedforward={feedforward}")
        with pytest.raises(InputError, match=message):
            ScenarioConfig(mode=mode, feedforward=feedforward, error_mode=error_mode)
        law = ScenarioConfig(mode=mode, feedforward=feedforward).resolve().error_mode
        assert law == ("raw" if feedforward else "footfall") != error_mode
        assert ScenarioConfig(mode=mode, feedforward=feedforward, error_mode=law).resolve() \
            == ScenarioConfig(mode=mode, feedforward=feedforward).resolve()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("value", [-1.0, 0.0, -0.0, -5])
    def test_gain_k_sign_checked_in_every_mode(self, mode, value):
        # with the config: before a run makes its outdir or builds a clip
        with pytest.raises(InputError, match="gain_k must be positive"):
            ScenarioConfig(mode=mode, gain_k=value)

    @pytest.mark.parametrize("value", ["no", "false", 0, 1, None])
    def test_non_bool_feedforward_rejected(self, value):
        with pytest.raises(InputError, match="feedforward must be true or false"):
            ScenarioConfig(mode="rhythm_sync", feedforward=value)

    def test_json_config_types_checked(self, tmp_path):
        # JSON spells NaN and Infinity, and a string is truthy
        for text in ('{"mode": "freq_track", "v_cmd": NaN}',
                     '{"mode": "freq_track", "duration": Infinity}',
                     '{"mode": "rhythm_sync", "feedforward": "no"}',
                     '{"mode": "freq_track", "seed": true}',
                     '{"mode": "estimator_curriculum", "iterations": 10.5}',
                     '{"mode": "rhythm_sync", "gain_k": "x"}',
                     '{"mode": "rhythm_sync", "gain_k": true}',
                     '{"mode": "rhythm_sync", "gain_k": NaN}',
                     '{"mode": "rhythm_sync", "synth_bpm": "abc"}',
                     '{"mode": "rhythm_sync", "synth_bpm": true}',
                     '{"mode": "rhythm_sync", "synth_bpm": -Infinity}',
                     '{"mode": "rhythm_sync", "outdir": 5}',
                     '{"mode": "rhythm_sync", "audio_path": ["a"]}',
                     '{"mode": "rhythm_sync", "audio_path": 0}'):
            p = tmp_path / "cfg.json"
            p.write_text(text)
            with pytest.raises(InputError):
                ScenarioConfig.from_json(p)

    @pytest.mark.parametrize("field", ["seed", "iterations"])
    def test_json_true_for_integer_rejected(self, field, tmp_path):
        # true == 1 in Python: a seed would run as 1
        p = tmp_path / "cfg.json"
        p.write_text(f'{{"mode": "rhythm_sync", "{field}": true}}')
        with pytest.raises(InputError, match=f"{field} must be an integer, got True"):
            ScenarioConfig.from_json(p)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("key, value", [
        ("delta_max", None), ("delta_max", 0.1), ("target_leg", 1), ("target_leg", 3),
        ("rate_plant_hz", None), ("rate_plant_hz", 100), ("rate_plant_hz", 500)])
    def test_removed_knob_refused_in_every_mode(self, mode, key, value, tmp_path):
        # an older echo names all three, at their old defaults (null, 1,
        # the mode's rate) or not: refused whatever the value, rather than
        # run with the fixed one
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"mode": mode, key: value}))
        with pytest.raises(InputError, match=re.escape(f"unknown config keys: ['{key}']")):
            ScenarioConfig.from_json(p)

    def test_rate_ladder_must_divide(self):
        # each mode's plant rate must divide the 1 kHz oscillator clock and
        # be a multiple of the 20 Hz modulator clock, so that every
        # modulator update falls on a plant update: 50 and 250 Hz divide
        # 1000 but would put one every 2.5 and 12.5 plant updates
        osc_hz, mod_hz = ScenarioConfig.rate_oscillator_hz, ScenarioConfig.rate_modulator_hz
        rates = {mode: ScenarioConfig(mode=mode).rate_plant_hz for mode in MODES}
        assert rates == {"freq_track": 500, "rhythm_sync": 100, "estimator_curriculum": 200}
        for mode, rate in rates.items():
            assert osc_hz % rate == 0 and rate % mod_hz == 0, mode
            cfg = ScenarioConfig(mode=mode, duration=5.0).resolve()
            assert cfg.ticks() == (5000, osc_hz // rate, osc_hz // mod_hz)
            assert (osc_hz // mod_hz) % (osc_hz // rate) == 0, mode

    def test_clock_and_leg_are_fixed(self):
        # the oscillator and modulator rates and the tracked leg are class
        # attributes, not fields
        fixed = {"rate_oscillator_hz": 1000, "rate_modulator_hz": 20, "target_leg": 1}
        names = {f.name for f in fields(ScenarioConfig)}
        assert len(names) == 15 and not {"reward", "delta_max", "rate_plant_hz"} & names
        assert not set(fixed) & names
        cfg = ScenarioConfig(mode="rhythm_sync").resolve()
        for name, value in fixed.items():
            assert getattr(ScenarioConfig, name) == getattr(cfg, name) == value
        assert not (set(fixed) | {"rate_plant_hz"}) & set(cfg.to_dict())

    def test_run_length_capped(self):
        # MAX_SAMPLES oscillator ticks at 1 kHz at most, checked before anything is allocated
        at_cap = ScenarioConfig(mode="freq_track", duration=MAX_SAMPLES / 1000)
        assert at_cap.resolve().ticks()[0] == MAX_SAMPLES
        with pytest.raises(InputError, match="10,000,000 oscillator ticks"):
            ScenarioConfig(mode="rhythm_sync", duration=MAX_SAMPLES / 1000 + 0.001).resolve()

    def test_round_trip(self):
        cfg = ScenarioConfig(mode="rhythm_sync", synth_bpm=96.0, seed=7,
                             gain_k=3.0, feedforward=True)
        again = ScenarioConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError, match="unknown config keys"):
            ScenarioConfig.from_dict({"mode": "freq_track", "speed": 3})

    def test_missing_mode_rejected(self):
        with pytest.raises(InputError, match="mode"):
            ScenarioConfig.from_dict({"f_cmd": 2.0})

    def test_non_object_rejected(self):
        with pytest.raises(InputError):
            ScenarioConfig.from_dict([1, 2, 3])

    @pytest.mark.parametrize("text", ["[1, 2, 3]", "null", "7", '"freq_track"'])
    def test_from_json_non_object(self, text, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(text)
        for overrides in ({}, {"mode": "freq_track"}):
            with pytest.raises(InputError, match="must be a JSON object"):
                ScenarioConfig.from_json(p, **overrides)

    def test_from_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"mode": "freq_track", "f_cmd": 2.5}))
        cfg = ScenarioConfig.from_json(p)
        assert cfg.f_cmd == 2.5

    def test_from_json_invalid(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(InputError, match="invalid JSON"):
            ScenarioConfig.from_json(p)

    def test_from_json_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read config"):
            ScenarioConfig.from_json(tmp_path / "absent.json")

    def test_from_json_overrides(self, tmp_path):
        # a file without a mode is completed by the caller's overrides
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"f_cmd": 2.5, "seed": 4}))
        cfg = ScenarioConfig.from_json(p, mode="freq_track", seed=9)
        assert (cfg.mode, cfg.f_cmd, cfg.seed) == ("freq_track", 2.5, 9)


class TestRunLog:
    def test_write_names_and_header(self, tmp_path):
        log = RunLog({"seed": 3, "mode": "freq_track"})
        log.add_stream("osc", ["t", "x"], np.array([[0.0, 1.0], [0.1, 2.0]]))
        log.add_stream("mod", ["t", "y"], np.array([[0.0, 5.0]]))
        paths = {p.name for p in log.write(tmp_path)}
        assert paths == {"runlog.csv", "runlog.mod.csv"}
        lines = (tmp_path / "runlog.csv").read_text().splitlines()
        assert lines[0] == "# mode=freq_track seed=3"
        assert lines[1] == "t,x"
        assert len(lines) == 4

    def test_write_round_trips_floats(self, tmp_path):
        # %.17g preserves doubles exactly through the text format
        vals = np.array([[0.1, 1.0 / 3.0], [0.2, math.pi]])
        log = RunLog({})
        log.add_stream("plant", ["t", "v"], vals)
        log.write(tmp_path)
        back = np.loadtxt(tmp_path / "runlog.plant.csv", delimiter=",", skiprows=2)
        assert np.array_equal(back, vals)

    @pytest.mark.parametrize("n_rows", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("n_cols", range(2, 10))
    def test_write_matches_savetxt(self, tmp_path, n_rows, n_cols):
        # the bytes are those of np.savetxt under the same two header lines,
        # here with few repeats; the next two tests cover dense ones
        special = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1,
                   float(2**53 + 2), float(2**60 + 2**8), -1.0 / 3.0]
        rng = np.random.default_rng(n_rows * 10 + n_cols)
        data = rng.normal(size=(n_rows, n_cols)) * 10.0 ** rng.integers(-300, 300,
                                                                         (n_rows, n_cols))
        mask = rng.random((n_rows, n_cols)) < 0.5
        data[mask] = rng.choice(special, size=mask.sum())
        data[:, 0] = np.arange(n_rows) * 1e-3  # timestamps increase
        data[0, 1:] = special[:n_cols - 1]
        _assert_writes_savetxt(tmp_path, data)

    @pytest.mark.parametrize("n_rows", [0, 1, harness._WRITE_BLOCK_ROWS - 1,
                                        harness._WRITE_BLOCK_ROWS, harness._WRITE_BLOCK_ROWS + 1])
    def test_write_matches_savetxt_with_repeats(self, tmp_path, n_rows):
        # runs of bit-equal values and columns bit-equal to earlier ones are
        # formatted once; 0.0 and -0.0 compare equal as floats but must not
        # share a string, and NaNs of three payloads, never equal as floats,
        # still form runs
        nan_a, nan_b = np.array([0x7FF8000000000001, -0x0008000000000000]).view(float)
        rng = np.random.default_rng(n_rows)

        def held(pool):  # runs of 1 to 80 rows, each value drawn from pool
            vals = rng.choice(np.array(pool), size=n_rows)
            return np.repeat(vals, rng.integers(1, 81, size=n_rows))[:n_rows]

        signed = held([0.0, -0.0, math.inf, -math.inf, 0.1, 1.0 / 3.0, 5e-324])
        signed[:2] = (0.0, -0.0)[:n_rows]  # a run head 0.0 followed by -0.0
        flipped = np.where(signed.view(np.int64) == 0, -0.0, signed)  # only 0.0 -> -0.0
        nans = held([math.nan, nan_a, nan_b, 1.5])
        data = np.column_stack([np.arange(n_rows) * 1e-3, signed, signed.copy(), flipped,
                                nans, nans.copy(), np.full(n_rows, 120.0)])
        _assert_writes_savetxt(tmp_path, data)

    @given(st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_write_matches_savetxt_drawn_repeats(self, tmp_path, data):
        # values from a small pool, so runs and equal columns are dense, with
        # blocks of a few rows so that runs cross block edges
        pool = [0.0, -0.0, math.nan, np.array([-0x0008000000000000]).view(float)[0], math.inf, 2.5]
        n_rows = data.draw(st.integers(0, 40), label="n_rows")
        n_cols = data.draw(st.integers(1, 6), label="n_cols")
        cells = data.draw(st.lists(st.sampled_from(pool), min_size=n_rows * n_cols,
                                   max_size=n_rows * n_cols), label="cells")
        arr = np.array(cells, dtype=float).reshape(n_rows, n_cols)
        copies = data.draw(st.lists(st.integers(0, n_cols - 1), min_size=n_cols,
                                    max_size=n_cols), label="copies")
        arr = arr[:, [min(j, c) for j, c in enumerate(copies)]]  # some columns repeat earlier ones
        block_rows = data.draw(st.integers(1, 9), label="block_rows")
        with mock.patch.object(harness, "_WRITE_BLOCK_ROWS", block_rows):
            _assert_writes_savetxt(tmp_path, arr)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_block_text_matches_percent_on_drawn_floats(self, data):
        # any double, NaN, both infinities, subnormals and both zeros included
        n_cols = data.draw(st.integers(1, 6), label="n_cols")
        n_rows = data.draw(st.integers(1, 30), label="n_rows")
        cells = data.draw(st.lists(st.floats(), min_size=n_rows * n_cols,
                                   max_size=n_rows * n_cols), label="cells")
        _assert_formats_as_percent(np.array(cells, dtype=float).reshape(n_rows, n_cols))

    def test_block_text_matches_percent_at_powers_of_ten(self):
        # each power of ten and its neighbours a unit in the last place away,
        # where log10's estimate of the decimal exponent is most often off
        tens = np.array([float(f"1e{k}") for k in range(-7, 18)])
        values = np.concatenate([np.nextafter(tens, 0.0), tens, np.nextafter(tens, np.inf)])
        _assert_formats_as_percent(np.column_stack([values, -values]))

    def test_block_text_matches_percent_at_range_edges(self):
        # four units in the last place on each side of the ends of the
        # digit kernel's range, [1e-4, 1e16), and of 1e-6 and 1e-5 below it
        edges = []
        for edge in (1e-6, 1e-5, 1e-4, 1e16):
            down = up = edge
            for _ in range(4):
                down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
                edges += [down, up]
            edges.append(edge)
        values = np.array(edges)
        _assert_formats_as_percent(np.column_stack([values, -values]))
        assert "%.17g" % 1e-6 == "9.9999999999999995e-07"

    def test_block_text_rounds_ties_to_even(self):
        # x = odd / 2**(d + 1) in [1e(16 - d), 1e(17 - d)) lies exactly halfway
        # between two 17-digit decimals, since x * 10**d = odd * 5**d / 2
        rng = np.random.default_rng(7)
        ties = [1000000000000000.25, 1000000000000000.75]
        for d in range(1, 23):
            lo = math.ceil(Fraction(10) ** (16 - d) * 2 ** (d + 1))
            hi = min(math.ceil(Fraction(10) ** (17 - d) * 2 ** (d + 1)), 2 ** 53)
            odd = rng.integers(lo // 2, hi // 2, 300) * 2 + 1
            ties.extend(odd[odd >= lo] / 2.0 ** (d + 1))
        values = np.array(ties)
        assert all(Fraction(x) * 10 ** (16 - math.floor(math.log10(x))) % 1 == Fraction(1, 2)
                   for x in values[::50])
        _assert_formats_as_percent(np.column_stack([values, -values]))

    def test_block_text_matches_percent_on_random_bit_patterns(self):
        # 10**6 patterns; half keep their drawn binary exponent, half get one
        # between 2**-20 and 2**54, where the digit kernel runs
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
        exponent = rng.integers(1023 - 20, 1023 + 54, size=bits.size // 2, dtype=np.uint64)
        bits[::2] = (bits[::2] & np.uint64(0x800FFFFFFFFFFFFF)) | exponent << np.uint64(52)
        _assert_formats_as_percent(bits.view(float).reshape(-1, 4))

    def test_rhythm_sync_run_writes_savetxt_bytes(self, tmp_path):
        # the golden rhythm_sync config; its 12,000 osc rows cross the
        # 4096-row block edges, and each file reads back bit for bit
        cfg = ScenarioConfig(mode="rhythm_sync", duration=12.0, seed=0, synth_bpm=120.0,
                             outdir=str(tmp_path))
        runlog = run_rhythm_sync(cfg)[0]
        head = " ".join(f"{k}={runlog.header[k]}" for k in sorted(runlog.header))
        assert runlog.streams["osc"][1].shape[0] == 12000 > 2 * harness._WRITE_BLOCK_ROWS
        assert len(runlog.streams) == 5
        for name, (columns, data) in runlog.streams.items():
            path = tmp_path / ("runlog.csv" if name == "osc" else f"runlog.{name}.csv")
            ref = io.BytesIO()
            ref.write(f"# {head}\n{','.join(columns)}\n".encode())
            np.savetxt(ref, data, fmt="%.17g", delimiter=",")
            assert path.read_bytes() == ref.getvalue(), name
            back = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
            assert np.array_equal(back.view(np.int64), data.view(np.int64)), name


def _assert_formats_as_percent(data):
    """Each block's _block_text is '%.17g' % each value, joined as np.savetxt joins them."""
    row = ",".join(["%.17g"] * data.shape[1])
    for i in range(0, data.shape[0], harness._WRITE_BLOCK_ROWS):
        block = data[i:i + harness._WRITE_BLOCK_ROWS]
        lines = [row % tuple(values) for values in block.tolist()]
        assert harness._block_text(block).split("\n") == lines + [""]


def _assert_writes_savetxt(outdir, data):
    """RunLog.write's bytes for data equal np.savetxt's under the same two header lines."""
    columns = [f"c{j}" for j in range(data.shape[1])]
    log = RunLog({"seed": 5, "mode": "rhythm_sync"})
    log.add_stream("mod", columns, data)
    log.write(outdir)
    ref = io.BytesIO()
    ref.write(b"# mode=rhythm_sync seed=5\n" + ",".join(columns).encode() + b"\n")
    np.savetxt(ref, data, fmt="%.17g", delimiter=",")
    assert (outdir / "runlog.mod.csv").read_bytes() == ref.getvalue()


def _loop(load=None, mod_fn=None, duration=1.0):
    """The shared loop on freq_track's clock, f = 2 Hz: 1 kHz, a plant every _EVERY ticks, 20 Hz."""
    cfg = ScenarioConfig(mode="freq_track", duration=duration).resolve()
    return _simulate(cfg, _initial_state(cfg, 2.0), load=load, mod_fn=mod_fn)


#: Oscillator ticks per plant update in _loop's runs (2, at 500 Hz).
_EVERY = ScenarioConfig(mode="freq_track", duration=1.0).resolve().ticks()[1]

#: The parameter law's omega, sigma and xi per leg in _loop's bank.
_OMEGA, _SIGMA, _XI = map(np.array, _initial_state(
    ScenarioConfig(mode="freq_track").resolve(), 2.0)[1:])


def _euler(osc, held, omega):
    """Each osc row stepped once under the given loads and frequencies (numpy reference)."""
    phi = osc[:-1, 1:5]
    return np.mod(phi + 1e-3 * (omega - _SIGMA * held * (np.cos(phi) + _XI)), TWO_PI)


class TestScheduler:
    def test_update_counts(self):
        plant_calls, mod_calls = [], []

        def load(phases, g, shares):
            plant_calls.append(list(phases))
            return g

        def mod_fn(t, phases, j):
            mod_calls.append((t, j))
            return 4.0 * np.pi

        _, osc, plant = _loop(load, mod_fn)
        updates = 1000 // _EVERY
        assert len(plant_calls) == updates
        assert [j for _, j in mod_calls] == list(range(20))
        assert [t for t, _ in mod_calls] == pytest.approx([0.05 * j for j in range(20)])
        assert osc.shape == (1000, 6) and plant.shape == (updates, 13)
        assert osc[-1, 0] == pytest.approx(0.999)
        assert plant[:, 0] == pytest.approx([1e-3 * _EVERY * i for i in range(updates)])
        # plant update i saw the phases of tick _EVERY * i, and its row keeps them
        assert np.array_equal(plant_calls, osc[::_EVERY, 1:5])
        assert np.array_equal(plant[:, 9:13], osc[::_EVERY, 1:5])

    def test_zero_order_hold(self):
        # update i holds 0.1 * (i % 3) on every leg through its _EVERY ticks
        update = itertools.count()
        _, osc, _ = _loop(lambda phases, g, shares: [0.1 * (next(update) % 3)] * 4)
        update = np.arange(999) // _EVERY
        held = (0.1 * (update % 3))[:, None]
        assert np.array_equal(_euler(osc, held, _OMEGA), osc[1:, 1:5])
        # the next update's loads would give other phases
        early = (0.1 * ((update + 1) % 3))[:, None]
        assert not np.array_equal(_euler(osc, early, _OMEGA), osc[1:, 1:5])

    def test_modulator_sees_fresh_plant_value(self):
        # the plant updates first on a shared tick, and the modulator
        # reads the same phases the loads were just computed from
        events = []

        def load(phases, g, shares):
            events.append(("plant", list(phases)))
            return g

        def mod_fn(t, phases, j):
            events.append(("mod", list(phases)))
            return 4.0 * np.pi

        _loop(load, mod_fn, duration=0.1)
        kinds = [kind for kind, _ in events]
        assert kinds == (["plant", "mod"] + ["plant"] * (50 // _EVERY - 1)) * 2
        for k, (kind, phases) in enumerate(events):
            if kind == "mod":
                assert events[k - 1][1] == phases

    def test_command_replaces_frequency(self):
        _, osc, plant = _loop(mod_fn=lambda t, phases, j: 3.5)
        assert osc[0, 5] == _OMEGA[0] and np.all(osc[1:, 5] == 3.5)
        held = plant[np.arange(999) // _EVERY, 5:9]
        assert np.array_equal(_euler(osc, held, 3.5), osc[1:, 1:5])

    def test_osc_row_logs_command_before_its_update(self):
        # update j commands 10 + j: row k holds the command in force
        # before tick k's update, which is update ceil(k / 50) - 1
        _, osc, _ = _loop(mod_fn=lambda t, phases, j: 10.0 + j)
        k = np.arange(1, 1000)
        assert osc[0, 5] == _OMEGA[0]
        assert np.array_equal(osc[1:, 5], 10.0 + (k - 1) // 50)
        assert osc[50, 5] == 10.0 and osc[51, 5] == 11.0

    def test_phases_advance_by_held_rate(self):
        log = array("d")
        p0 = [0.1, 0.2, 0.3, 0.4]
        out = scheduler_tick(p0, [0.5] * 4, 1e-3, [2.0] * 4, [0.0] * 4, [0.0] * 4, 3, log)
        assert out == pytest.approx([p + 3 * 2.0 * 1e-3 for p in p0])
        assert np.reshape(log, (3, 4))[0].tolist() == p0
        assert isinstance(out, list)

    def test_log_leaves_the_phases_alone(self):
        args = ([0.1, 3.3, 4.9, 6.2], [0.0, 0.5, 0.5, 0.0], 1e-3,
                [4.0 * np.pi] * 4, [TWO_PI] * 4, [0.0] * 4, 7)
        log = array("d")
        assert scheduler_tick(*args, None) == scheduler_tick(*args, log)
        assert len(log) == 7 * 4

    def test_kernel_matches_numpy_formula_bit_for_bit(self):
        # drawn windows of 1..10 steps in both regimes; every logged row and
        # the returned phases must be the numpy formula's, stepped row by row
        rng = np.random.default_rng(32)
        w, dt = 20_000, 1e-3
        n = rng.integers(1, 11, w)
        phi = rng.uniform(0.0, TWO_PI, (w, 4))
        g = rng.uniform(0.0, 1.0, (w, 4))
        g[rng.random((w, 4)) < 0.2] = 0.0
        g[rng.random((w, 4)) < 0.1] = -0.0
        moving = rng.random((w, 1)) < 0.5
        om = np.where(moving, TWO_PI * rng.uniform(1.001, 4.0, (w, 1)), 1.0) + 0.0 * phi
        sg = np.where(moving, TWO_PI, 4.0) + 0.0 * phi
        xi = np.where(moving, 0.0, 1.0) + 0.0 * phi
        # standing near phi = 0 a load just above 1/8 turns the rate to
        # -8e-14 rad/s, so p + dt * rate is a tiny negative sum that %
        # rounds up to 2*pi
        tiny = rng.random(w) < 0.05
        phi[tiny], g[tiny], n[tiny] = 1e-17, 0.125 + 1e-14, 1
        om[tiny], sg[tiny], xi[tiny] = 1.0, 4.0, 1.0
        states, rounded_up = [phi], 0
        for _ in range(10):
            nxt = np.mod(states[-1] + dt * (om - sg * g * (np.cos(states[-1]) + xi)), TWO_PI)
            rounded_up += int(np.count_nonzero(nxt >= TWO_PI))
            nxt[nxt >= TWO_PI] = 0.0
            states.append(nxt)
        states = np.stack(states)
        assert rounded_up > 0
        log = array("d")
        args = [a.tolist() for a in (phi, g, om, sg, xi)]
        got = [scheduler_tick(p, gg, dt, o, s, x, int(k), log)
               for p, gg, o, s, x, k in zip(*args, n)]
        rows = states[np.concatenate([np.arange(k) for k in n]), np.repeat(np.arange(w), n)]
        assert np.array_equal(np.reshape(log, (-1, 4)), rows)
        assert np.array_equal(np.array(got), states[n, np.arange(w)])

    def test_non_finite_load_gives_nan_phases(self):
        p0 = [0.1, 3.3, 4.9, 6.2]
        log = array("d")
        out = scheduler_tick(p0, [math.nan, math.inf, -math.inf, 0.5], 1e-3,
                             [4.0 * np.pi] * 4, [TWO_PI] * 4, [0.0] * 4, 3, log)
        assert all(math.isnan(p) for p in out[:3]) and math.isfinite(out[3])
        assert np.reshape(log, (3, 4))[0].tolist() == p0

    @staticmethod
    def numpy_window(phi, g, dt, om, sg, xi, n_steps):
        """step_phases' formula in numpy, stepped n_steps times: (rows, phases)."""
        phi, g, om, sg, xi = (np.array(a, dtype=float) for a in (phi, g, om, sg, xi))
        rows = []
        with np.errstate(invalid="ignore"):
            for _ in range(n_steps):
                rows.append(phi)
                phi = np.mod(phi + dt * (om - sg * g * (np.cos(phi) + xi)), TWO_PI)
                phi[phi >= TWO_PI] = 0.0
        return np.array(rows), phi

    @pytest.mark.parametrize("g", [[0.0] * 4, [-0.0] * 4, [0.0, -0.0, -0.0, 0.0]])
    @pytest.mark.parametrize("regime", [(4.0 * np.pi, TWO_PI, 0.0), (1.0, 4.0, 1.0)])
    def test_unloaded_window_matches_numpy_formula(self, g, regime):
        # every leg steps by dt * omega with no cos, and must land on the
        # full formula's bits; the phases start at 0.0 and -0.0 too
        om, sg, xi = ([v] * 4 for v in regime)
        for p0 in ([0.1, 3.3, 4.9, 6.2], [0.0, -0.0, TWO_PI - 1e-3, np.pi]):
            log = array("d")
            out = scheduler_tick(p0, g, 1e-3, om, sg, xi, 10, log)
            rows, end = self.numpy_window(p0, g, 1e-3, om, sg, xi, 10)
            # bytes, not ==, so that a zero of the other sign would show
            assert np.frombuffer(log).tobytes() == rows.tobytes()
            assert np.array(out).tobytes() == end.tobytes()

    @pytest.mark.parametrize("bias", [math.inf, -math.inf, math.nan])
    def test_unloaded_leg_with_non_finite_xi_takes_the_full_formula(self, bias):
        # 0 * inf is NaN, so the full formula gives NaN; a zero load alone
        # must not step such a leg by dt * omega
        out = scheduler_tick([0.1, 3.3, 4.9, 6.2], [0.0, -0.0, 0.0, 0.5], 1e-3,
                             [4.0 * np.pi] * 4, [TWO_PI] * 4, [bias, bias, 0.0, 0.0], 3, None)
        _, end = self.numpy_window([0.1, 3.3, 4.9, 6.2], [0.0, -0.0, 0.0, 0.5], 1e-3,
                                   [4.0 * np.pi] * 4, [TWO_PI] * 4, [bias, bias, 0.0, 0.0], 3)
        assert math.isnan(out[0]) and math.isnan(out[1])
        assert np.array_equal(np.array(out), end, equal_nan=True)

    def test_nan_omega_under_zero_load_gives_nan(self):
        out = scheduler_tick([0.1, 3.3, 4.9, 6.2], [0.0, -0.0, 0.0, 0.5], 1e-3,
                             [math.nan, math.nan, 4.0 * np.pi, 4.0 * np.pi], [TWO_PI] * 4,
                             [0.0] * 4, 3, None)
        assert math.isnan(out[0]) and math.isnan(out[1])
        assert math.isfinite(out[2]) and math.isfinite(out[3])

    def test_one_kernel_call_and_one_plant_call_per_update(self, monkeypatch):
        # perfbench's tracer counts these calls through the harness's names,
        # so inlining either one into the loop would break its call counts;
        # the kernel runs a whole hold window, so no call is made per tick
        counts = {"scheduler_tick": 0, "grf_from_phases": 0}
        for name in counts:
            def counted(*args, _fn=getattr(harness, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(harness, name, counted)
        runlog, _, _ = run_frequency_tracking(ScenarioConfig(mode="freq_track", duration=2.0))
        assert counts == {"scheduler_tick": 1000, "grf_from_phases": 1000}
        assert runlog.streams["osc"][1].shape == (2000, 6)


class TestFrequencyTracking:
    def test_report_and_artifacts(self, tmp_path):
        cfg = ScenarioConfig(mode="freq_track", f_cmd=2.0, duration=5.0,
                             outdir=str(tmp_path / "run"))
        runlog, metrics, report = run_frequency_tracking(cfg)
        assert report["mode"] == "freq_track" and report["f_cmd_hz"] == 2.0
        assert set(report["per_leg"]) == {"RF", "LF", "RH", "LH"}
        for stats in report["per_leg"].values():
            assert stats["mean_abs_dev_hz"] < 0.05
            assert stats["variance_hz2"] < 0.01
        assert metrics.freq_dev_mean == report["per_leg"]["RF"]["mean_abs_dev_hz"]

        outdir = tmp_path / "run"
        for name in ("report.json", "config.echo.json", "runlog.csv",
                     "runlog.plant.csv"):
            assert (outdir / name).exists()
        echo = json.loads((outdir / "config.echo.json").read_text())
        assert echo["f_cmd"] == 2.0 and "rate_plant_hz" not in echo
        assert report["rates_hz"] == {"oscillator": 1000, "plant": 500, "modulator": 20}
        loaded = json.loads((outdir / "report.json").read_text())
        assert loaded["per_leg"] == report["per_leg"]

    def test_stream_shapes(self):
        cfg = ScenarioConfig(mode="freq_track", f_cmd=3.0, duration=2.0)
        runlog, _, _ = run_frequency_tracking(cfg)
        cols, osc = runlog.streams["osc"]
        assert cols[0] == "t" and osc.shape == (2000, 6)
        _, plant = runlog.streams["plant"]
        assert plant.shape == (1000, 9)

    def test_partial_last_update(self):
        # 2003 ticks at a plant update every 2 ticks: the last update is
        # at tick 2002, so the plant stream has 1002 rows
        cfg = ScenarioConfig(mode="freq_track", f_cmd=2.0, duration=2.003)
        runlog, _, _ = run_frequency_tracking(cfg)
        assert runlog.streams["osc"][1].shape == (2003, 6)
        assert runlog.streams["plant"][1].shape == (1002, 9)

    @pytest.mark.parametrize("f_cmd,kick", [(2.0, 0.0), (3.5, 0.0), (2.0, 3.0)])
    def test_touchdowns_exact_at_the_plant_rate(self, f_cmd, kick):
        # a leg in swing holds a zero load, so its phase is a straight line
        # between plant updates: the pi crossing read at the plant ticks is
        # the one the 1 kHz rows give, and the report reads it there
        cfg = ScenarioConfig(mode="freq_track", f_cmd=f_cmd, duration=10.0, perturb_rad=kick)
        runlog, _, report = run_frequency_tracking(cfg)
        _, osc = runlog.streams["osc"]
        at_plant = osc[::cfg.rate_oscillator_hz // cfg.resolve().rate_plant_hz]
        for leg, name in enumerate(LEG_ORDER):
            touchdowns = plant.contact_onsets(osc[:, 0], osc[:, 1 + leg])
            np.testing.assert_allclose(
                plant.contact_onsets(at_plant[:, 0], at_plant[:, 1 + leg]), touchdowns,
                rtol=0, atol=1e-12)
            mean_dev, _ = frequency_deviation(plant.stepping_frequency(touchdowns), f_cmd)
            assert report["per_leg"][name]["mean_abs_dev_hz"] == pytest.approx(mean_dev, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_kicked_legs_touch_down_once_per_stride(self, seed):
        # after a 3 rad kick feet lose and regain their load within one
        # stance, and each regain is a load onset; a leg's phase still
        # crosses pi once per stride, 19 or 20 times in 10 s at 2 Hz
        cfg = ScenarioConfig(mode="freq_track", f_cmd=2.0, duration=10.0, seed=seed,
                             perturb_rad=3.0)
        _, _, report = run_frequency_tracking(cfg)
        for leg, stats in report["per_leg"].items():
            assert stats["contacts"] in (19, 20), leg
            assert stats["mean_abs_dev_hz"] < 0.06, leg

    def test_out_of_band_command(self):
        cfg = ScenarioConfig(mode="freq_track", f_cmd=0.5, duration=1.0)
        with pytest.raises(InputError, match=r"f_cmd=0\.5 outside \(1\.0, 4\.0\] Hz"):
            run_frequency_tracking(cfg)

    def test_no_outdir_writes_nothing(self, tmp_path):
        cfg = ScenarioConfig(mode="freq_track", f_cmd=2.0, duration=2.0)
        run_frequency_tracking(cfg)
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def short_run():
    cfg = ScenarioConfig(mode="rhythm_sync", synth_bpm=120.0, duration=12.0)
    return run_rhythm_sync(cfg)


class TestRhythmSync:
    def test_streams_present(self, short_run):
        runlog, _, _ = short_run
        assert set(runlog.streams) == {"osc", "plant", "mod", "music", "rewards"}
        cols, mod = runlog.streams["mod"]
        assert cols == ["t", "omega_m", "delta_omega", "omega_tilde", "phase_error"]
        assert mod.shape == (12 * 20, 5)

    def test_report_keys(self, short_run):
        _, metrics, report = short_run
        assert report["source"] == "synth:120.0bpm"
        assert abs(report["tempo_bpm_estimate"] - 120.0) < 1.0
        assert report["f_gait_hz"] == pytest.approx(report["tempo_bpm_estimate"] / 60.0)
        assert set(report["reward_means_post_warmup"]) == {"rhythm", "r1", "r2", "phase"}
        assert metrics.delta_t_max is not None and metrics.omega_std is not None

    def test_alignment_quality(self, short_run):
        _, metrics, _ = short_run
        # 120 BPM clicks: locked footfalls stay well under the period
        assert metrics.delta_t_max < 0.1
        assert metrics.omega_std < 0.5

    def test_divergence_raises(self, monkeypatch):
        # the clamp DELTA_MAX keeps every command finite, so no config
        # commands an infinite frequency; a runaway modulator stands in
        def runaway(*args, **kwargs):
            return ModulatorCommand(delta_omega=math.inf, omega_tilde=math.inf,
                                    phase_error=0.0)

        monkeypatch.setattr(harness, "modulate", runaway)
        cfg = ScenarioConfig(mode="rhythm_sync", synth_bpm=120.0, duration=2.0)
        with pytest.raises(RunFailedError,
                           match="rhythm_sync diverged: oscillator phases non-finite"):
            run_rhythm_sync(cfg)

    def test_overflowing_command_spread_raises(self, monkeypatch):
        # commands near the float maximum stay finite, and so do the
        # phases, but their spread omega_std overflows; the clamp keeps
        # every config's commands far from that, so a modulator stands in
        signs = itertools.cycle((1.0, -1.0))

        def overflowing(*args, **kwargs):
            omega = next(signs) * 1e308
            return ModulatorCommand(delta_omega=omega, omega_tilde=omega, phase_error=0.0)

        monkeypatch.setattr(harness, "modulate", overflowing)
        cfg = ScenarioConfig(mode="rhythm_sync", synth_bpm=120.0, duration=8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RunFailedError, match="graded metrics not finite"):
                run_rhythm_sync(cfg)

    def test_feedforward_model_runs_on_the_loop_clock(self, monkeypatch):
        # the rollout steps and holds its loads like the loop, whose plant
        # rate is the mode's entry in _MODE_DEFAULTS; a model of the 100 Hz
        # hold left 0.0107 rad at a 200 Hz plant
        monkeypatch.setitem(harness._MODE_DEFAULTS, "rhythm_sync", (30.0, 200))
        cfg = ScenarioConfig(mode="rhythm_sync", synth_bpm=120.0, duration=12.0,
                             feedforward=True, gain_k=2.0)
        assert cfg.resolve().ticks()[1] == 5
        _, mod = run_rhythm_sync(cfg)[0].streams["mod"]
        assert np.abs(mod[mod[:, 0] > 5.0, 4]).max() < 1e-4

    def test_feedforward_logs_the_error_it_steers(self):
        # the solve steers the raw error, which a config may name or leave
        # to feedforward; a footfall-corrected log read 0.25 rad after 5 s
        runs = {mode: run_rhythm_sync(ScenarioConfig(
                    mode="rhythm_sync", synth_bpm=120.0, duration=12.0,
                    error_mode=mode, feedforward=True))
                for mode in (None, "raw")}
        (cols, unnamed), (_, raw) = (runs[m][0].streams["mod"] for m in (None, "raw"))
        assert cols[-1] == "phase_error"
        assert unnamed.tobytes() == raw.tobytes()
        assert np.abs(raw[raw[:, 0] > 5.0, 4]).max() < 1e-4
        assert runs[None][1] == runs["raw"][1]
        assert runs[None][2] == runs["raw"][2]

    def test_feedforward_report_records_the_raw_error(self, tmp_path):
        # error_mode follows feedforward: the report and the echo both
        # name the error the run steered
        cfg = ScenarioConfig(mode="rhythm_sync", synth_bpm=120.0, duration=6.0,
                             feedforward=True, outdir=str(tmp_path))
        _, _, report = run_rhythm_sync(cfg)
        assert report["modulator"]["error_mode"] == "raw"
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["modulator"]["error_mode"] == "raw"
        assert json.loads((tmp_path / "config.echo.json").read_text())["error_mode"] == "raw"

    def test_clip_shorter_than_run(self, tmp_path):
        wav = tmp_path / "clicks.wav"
        save_wav(wav, synth_click_track(120.0, 6.0))
        cfg = ScenarioConfig(mode="rhythm_sync", audio_path=str(wav), duration=8.0)
        with pytest.raises(InsufficientDataError, match="envelope frames"):
            run_rhythm_sync(cfg)

    def test_rewards_bounded(self, short_run):
        runlog, _, _ = short_run
        _, rows = runlog.streams["rewards"]
        assert np.all(rows[:, 1] >= 0) and np.all(rows[:, 1] <= 1)  # rhythm
        assert np.all(np.isin(rows[:, 3], (-1.0, 1.0)))  # r2

    def test_r2_answers_beats_with_kinematic_beats(self, short_run):
        # r2 reads the footfalls beat_alignment grades; a touchdown comes
        # a quarter cycle before one and never shares a beat's tick, which
        # left every beat after warm-up unanswered (14 here, 50 in 30 s)
        runlog, _, _ = short_run
        _, rows = runlog.streams["rewards"]
        assert np.count_nonzero(rows[rows[:, 0] >= 5.0, 3] == -1.0) == 0
        _, _, report = run_rhythm_sync(
            ScenarioConfig(mode="rhythm_sync", synth_bpm=120.0, duration=30.0))
        assert report["reward_means_post_warmup"]["r2"] == 1.0

    def test_r2_pairs_beats_across_tick_ends(self):
        # the standing feedforward lock puts each footfall on a tick end
        # and its beat 1.3 ms after it, in the next tick: paired by tick,
        # 10 of the 14 beats after warm-up went unanswered
        runlog, metrics, report = run_rhythm_sync(ScenarioConfig(
            mode="rhythm_sync", synth_bpm=120.0, duration=12.0, v_cmd=0.3,
            error_mode="raw", feedforward=True))
        _, rows = runlog.streams["rewards"]
        beats = analyze_clip(synth_click_track(120.0, 14.0)).grid.beat_times
        # each beat after warm-up, by the index of the update that ends its tick
        ticks = np.ceil(beats[(beats >= 5.0) & (beats <= rows[-1, 0])] * 20.0).astype(int)
        assert metrics.delta_t_max < 0.002
        assert rows[ticks, 3].tolist() == [1.0] * 14
        assert report["reward_means_post_warmup"]["r2"] == 1.0

    def test_rhythm_reward_on_the_loop_clock(self, short_run):
        # the music phase is read at each modulator tick's own time, the
        # osc rows' clock; a clock of i / 20 differed from it in the last
        # bit on 43 of these 240 ticks and moved the reward on 41
        runlog, _, _ = short_run
        _, osc = runlog.streams["osc"]
        _, rows = runlog.streams["rewards"]
        t, phi = osc[::50, 0], osc[::50, 1]  # target leg 1
        theta = interpolate_phase(analyze_clip(synth_click_track(120.0, 14.0)).grid, t)
        expected = [reward_rhythm((math.cos(p), math.sin(p)), (math.cos(q), math.sin(q)))
                    for p, q in zip(phi, theta)]
        assert np.array_equal(rows[:, 0], t)
        assert rows[:, 1].tolist() == expected


class TestCurriculum:
    def test_too_few_iterations(self):
        with pytest.raises(InputError, match="at least 10"):
            ScenarioConfig(mode="estimator_curriculum", iterations=5, duration=1.0)

    def test_floor_at_ten_checked_by_the_config(self, tmp_path):
        # 9 is refused before the run claims its outdir; 10 is taken
        out = tmp_path / "o"
        with pytest.raises(InputError, match="at least 10 iterations, got 9"):
            ScenarioConfig(mode="estimator_curriculum", iterations=9, outdir=str(out))
        assert not out.exists()
        assert ScenarioConfig(mode="estimator_curriculum", iterations=10).iterations == 10

    def test_divergence_names_episode(self, monkeypatch):
        # a model that predicts NaN loads first acts in iteration 1
        monkeypatch.setattr(estimator, "predict", lambda obs, model: np.full(4, np.nan))
        cfg = ScenarioConfig(mode="estimator_curriculum", duration=1.0, iterations=10)
        with pytest.raises(RunFailedError, match=r"iteration 1 \(rho=0\.1\)"):
            run_estimator_curriculum(cfg)

    def test_fallback_run(self, tmp_path):
        # the learned curriculum's floor of 10 iterations does not apply
        cfg = ScenarioConfig(mode="estimator_curriculum",
                             estimator_mode="fallback", duration=3.0, iterations=1,
                             outdir=str(tmp_path))
        runlog, report = run_estimator_curriculum(cfg)
        assert report["finite"] is True
        assert report["rf_stats"]["contacts"] > 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "runlog.plant.csv").exists()

    def test_logged_features_match_replayed_phases(self):
        # each plant row keeps the phases its update saw, from which the fit
        # reads the contact flags, and the load map logs the shares of those
        # phases; the osc rows of the same loop give the phases back. The
        # kick keeps diagonal partners apart, so a mixed-up leg shows.
        cfg = ScenarioConfig(mode="estimator_curriculum", duration=1.0,
                             perturb_rad=1.0).resolve()
        first = array("d")
        _, _, plant = _simulate(cfg, _initial_state(cfg, 2.0),
                                load=harness._curriculum_load(0.0, None, first), log_osc=False)
        model = estimator.fit(estimator.EstimatorInput(
            np.where(plant[:, 9:13] >= math.pi, 1.0, 0.0), np.reshape(first, (-1, 4))),
            plant[:, 5:9])
        shares_log = array("d")
        _, osc, plant = _simulate(cfg, _initial_state(cfg, 2.0),
                                  load=harness._curriculum_load(0.5, model, shares_log))
        phases = osc[::cfg.rate_oscillator_hz // cfg.rate_plant_hz, 1:5]
        assert len(phases) == len(plant) == cfg.duration * cfg.rate_plant_hz
        shares = np.array([support_shares(stance_weight(row)) for row in phases.tolist()])
        assert plant[:, 9:13].tobytes() == phases.tobytes()
        assert np.reshape(shares_log, (-1, 4)).tobytes() == shares.tobytes()

    def test_one_stance_pass_per_plant_update(self, monkeypatch):
        # 11 episodes and 6 evaluation runs of 2 s at 200 Hz, 400 plant
        # updates each; the load map takes its shares from the plant update,
        # so every update computes its stance weights and shares once,
        # through any name
        counts = {"stance_weight": 0, "support_shares": 0}
        for name in counts:
            def counted(*args, _fn=getattr(plant, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            for module in (plant, harness):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        run_estimator_curriculum(ScenarioConfig(mode="estimator_curriculum", duration=2.0,
                                                iterations=10))
        assert counts == {"stance_weight": 6_800, "support_shares": 6_800}

    def test_learned_short(self):
        cfg = ScenarioConfig(mode="estimator_curriculum", duration=2.0,
                             iterations=10)
        runlog, report = run_estimator_curriculum(cfg)
        assert report["rho_first"] == 0.0 and report["rho_last"] == 1.0
        assert len(report["mse_curve"]) == 11
        assert report["final_mse"] <= 1e-8
        assert set(report["eval"]) == {"1.5", "2.0", "2.5", "3.0", "3.5", "4.0"}
        _, mse = runlog.streams["mse"]
        assert mse.shape == (11, 3)
        json.dumps(report)  # everything must stay JSON-clean


_RUNNERS = {"freq_track": run_frequency_tracking, "rhythm_sync": run_rhythm_sync,
            "estimator_curriculum": run_estimator_curriculum}


@pytest.mark.parametrize("own, foreign", [(own, foreign) for own in _RUNNERS
                                          for foreign in MODES if foreign != own])
def test_other_modes_config_rejected(own, foreign, tmp_path):
    # unchecked, a foreign config crashes in float(None) or writes its
    # report under the wrong mode
    outdir = tmp_path / "run"
    with pytest.raises(InputError, match=f"the {own} runner was given a {foreign} config"):
        _RUNNERS[own](ScenarioConfig(mode=foreign, outdir=str(outdir)))
    assert not outdir.exists()


@pytest.mark.parametrize("run, kwargs", [
    (run_frequency_tracking, {"mode": "freq_track"}),
    (run_rhythm_sync, {"mode": "rhythm_sync"}),
    (run_estimator_curriculum, {"mode": "estimator_curriculum"}),
    (run_estimator_curriculum, {"mode": "estimator_curriculum", "estimator_mode": "fallback"})],
    ids=["freq_track", "rhythm_sync", "learned", "fallback"])
def test_unwritable_outdir_fails_before_the_run(run, kwargs, tmp_path, monkeypatch):
    def unreached(*args, **kw):
        pytest.fail("the run started before its output directory was made")

    monkeypatch.setattr(harness, "_simulate", unreached)
    monkeypatch.setattr(harness, "analyze_clip", unreached)
    (tmp_path / "file").write_text("x")
    with pytest.raises(InputError, match="cannot write"):
        run(ScenarioConfig(outdir=str(tmp_path / "file" / "run"), **kwargs))
