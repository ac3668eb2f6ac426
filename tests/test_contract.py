"""Property tests of the run contract.

Every ScenarioConfig, whatever its field values, either gives a report
whose numbers are all finite or raises a BeatGaitError; through the
command line that is exit 0, or 2, 3 or 4. The wrong values are other
types, bools, NaN, the infinities, huge, zero and negative numbers, as
a JSON config file can spell them. One test puts each of them in each
field of a 50 ms run of each mode. The hypothesis tests draw a valid,
short value for every field (at most 1 s of simulated time, 10 or 11
curriculum iterations) and then replace up to two fields with wrong
values. A huge duration, such as 1e12 s, asks for more oscillator
ticks than a run may hold (MAX_SAMPLES), so validation rejects it too.

The WAV bytes are part of the contract as well: a damaged copy of a
valid file, cut short, with header bits flipped or with its format
fields rewritten, exits 0, 2 or 3 from `analyze` and from
`rhythm-sync --audio`, and a file cut short always exits 2.
"""

import contextlib
import io
import json
import math
import struct
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.io.wavfile import WavFileWarning

from beatgait import cli
from beatgait.errors import BeatGaitError
from beatgait.harness import (
    ESTIMATOR_MODES,
    MODES,
    REWARD_VARIANTS,
    ScenarioConfig,
    run_estimator_curriculum,
    run_frequency_tracking,
    run_rhythm_sync,
)
from beatgait.modulator import ERROR_MODES
from beatgait.music import save_wav, synth_click_track

_RUNNERS = {"freq_track": run_frequency_tracking, "rhythm_sync": run_rhythm_sync,
            "estimator_curriculum": run_estimator_curriculum}

_SUBCOMMANDS = ("freq-track", "rhythm-sync", "curriculum")


def _valid(wav: str) -> dict:
    """A strategy per field for values that validate and run within about 1 s."""
    return {
        "mode": st.sampled_from(MODES),
        "v_cmd": st.floats(-1.5, 1.5) | st.floats(0.6, 1.5),  # mostly moving
        # three contacts, the fewest a stepping frequency needs, take
        # more than 1 s below about 2.5 Hz
        "f_cmd": st.none() | st.floats(0.5, 4.5) | st.floats(2.5, 4.0),
        "audio_path": st.sampled_from([None, None, wav, str(Path(wav).with_name("none.wav"))]),
        "synth_bpm": st.none() | st.floats(20.0, 400.0),
        "duration": st.just(1.0) | st.floats(0.05, 1.0),
        "reward": st.sampled_from(REWARD_VARIANTS),
        "seed": st.integers(0, 2**32),
        "rate_plant_hz": st.sampled_from([None, 100, 200, 500]),
        "outdir": st.sampled_from([None, "run"]),
        "warmup_s": st.floats(0.0, 0.5),
        "target_leg": st.integers(1, 4),
        "gain_k": st.floats(0.1, 50.0),
        "error_mode": st.sampled_from(ERROR_MODES),
        "feedforward": st.booleans(),
        "delta_max": st.none() | st.floats(0.01, 10.0),
        "perturb_rad": st.floats(0.0, 4.0),
        "iterations": st.integers(10, 11),
        "estimator_mode": st.sampled_from(ESTIMATOR_MODES),
    }


#: Wrong values a JSON config can carry: other types, bools, non-finite,
#: huge, tiny positive, zero and negative numbers.
_WRONG = [None, True, False, "", "x", "2.0", [], [2.0], {}, {"a": 1},
          math.nan, math.inf, -math.inf, 1e308, -1e308, 10**30, -(10**30), 5e-324, 1e-305,
          0, 0.0, -1, -0.5]

#: Extra wrong values of some fields: runs too long to hold, integers too
#: large for JSON to carry exactly, plant rates off the fixed clock.
_WRONG_FOR = {
    "duration": _WRONG + [1e12, 2e7],
    "rate_plant_hz": _WRONG + [2**53, 10**400, 30, 50, 250, 300, 2000],
    "iterations": _WRONG + [10**15, 10**400],
}


@st.composite
def configs(draw, wav):
    cfg = {name: draw(strategy) for name, strategy in _valid(wav).items()}
    for name in draw(st.lists(st.sampled_from(sorted(cfg)), max_size=2, unique=True)):
        cfg[name] = draw(st.sampled_from(_WRONG_FOR.get(name, _WRONG)))
    return cfg


def _ends_in_finite_report_or_typed_error(cfg: dict) -> None:
    try:
        config = ScenarioConfig.from_dict(cfg)
        report = _RUNNERS[config.mode](config)[-1]
    except BeatGaitError:
        return
    assert _all_finite(report), (cfg, report)


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_all_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


@pytest.fixture(scope="module")
def wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("audio") / "clicks.wav"
    save_wav(path, synth_click_track(120.0, 3.0))
    return str(path)


def test_each_wrong_value_in_each_field(tmp_path, monkeypatch):
    # every wrong value once per field and mode, on 50 ms runs; the
    # property tests below combine them with drawn valid values. A
    # string outdir is a valid one, so artifacts land under tmp_path
    monkeypatch.chdir(tmp_path)
    base = {"duration": 0.05, "iterations": 10, "f_cmd": 3.0}
    for mode in MODES:
        for name in sorted(_valid("x.wav")):
            for value in _WRONG_FOR.get(name, _WRONG):
                _ends_in_finite_report_or_typed_error({"mode": mode, **base, name: value})


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_config_ends_in_finite_report_or_typed_error(wav, data):
    cfg = data.draw(configs(wav))
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(cfg["outdir"], str):  # artifacts go to the temporary directory
            cfg["outdir"] = str(Path(tmp, cfg["outdir"]))
        _ends_in_finite_report_or_typed_error(cfg)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exit_code_is_documented(wav, data):
    cfg = data.draw(configs(wav))
    command = data.draw(st.sampled_from(_SUBCOMMANDS))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "cfg.json")
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path), "--out", str(Path(tmp, "run"))])
        assert code in (0, 2, 3, 4)
        if code:
            assert err.getvalue().startswith("error: "), err.getvalue()
            assert not Path(tmp, "run", "report.json").exists()
        else:
            report = json.loads(Path(tmp, "run", "report.json").read_text())
            assert _all_finite(report), report


#: Byte offset of the fmt chunk's fields (format tag, channels, rate,
#: byte rate, block align, bits) in a WAV that save_wav writes, and the
#: length of its header.
_FMT_FIELDS = 20
_HEADER_BYTES = 44

#: One damage to a valid WAV: ("truncate", length kept), ("flip", header
#: bit indices) or ("fields", the fmt fields written over the originals).
#: The fields cover 0 and 3 channels, widths and rates that the reader or
#: AudioClip refuses, PCM, IEEE float and a compressed tag, and byte rates
#: that agree with rate and block align or not.
_DAMAGE = (
    st.tuples(st.just("truncate"), st.integers(0, 10**6))
    | st.tuples(st.just("flip"), st.lists(st.integers(0, 8 * _HEADER_BYTES - 1),
                                          min_size=1, max_size=3))
    | st.tuples(st.just("fields"), st.tuples(
        st.sampled_from([1, 3, 2]), st.sampled_from([0, 1, 2, 3]),
        st.sampled_from([0, 8, 12, 16, 20, 24, 32, 40, 64, 65]),
        st.sampled_from([0, 8000, 16000, 22050, 96000, 2**32 - 1]), st.booleans()))
)


def _damaged(valid: bytes, damage) -> bytes:
    kind, arg = damage
    data = bytearray(valid)
    if kind == "truncate":
        return bytes(data[:arg % len(data)])
    if kind == "flip":
        for bit in arg:
            data[bit // 8] ^= 1 << bit % 8
    else:
        tag, channels, bits, rate, consistent = arg
        align = channels * -(-bits // 8) % 2**16
        byte_rate = rate * align % 2**32 if consistent else rate
        struct.pack_into("<HHIIHH", data, _FMT_FIELDS, tag, channels, rate, byte_rate,
                         align, bits)
    return bytes(data)


@pytest.mark.parametrize("bits", [(323, 326), (323, 38)])
def test_understated_wav_size_exits_2(wav, tmp_path, bits):
    # bits 3 and 6 of the data size's low byte cut it by 72 bytes, which
    # scipy read as nine more chunks; bit 3 with bit 6 of the RIFF size's
    # low byte cut the two by 8 and 64 bytes, which it read as a shorter
    # clip without a warning
    path = tmp_path / "damaged.wav"
    path.write_bytes(_damaged(Path(wav).read_bytes(), ("flip", list(bits))))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", str(path)])
    assert code == 2, err.getvalue()
    assert err.getvalue().startswith(f"error: unreadable WAV file {path}: "), err.getvalue()


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(damage=_DAMAGE, command=st.sampled_from(["analyze", "rhythm-sync"]))
def test_damaged_wav_exit_code_is_documented(wav, damage, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "damaged.wav")
        path.write_bytes(_damaged(Path(wav).read_bytes(), damage))
        argv = (["analyze", str(path)] if command == "analyze" else
                ["rhythm-sync", "--audio", str(path), "--duration", "1", "--warmup", "0.5",
                 "--out", str(Path(tmp, "run"))])
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            # scipy warns of a chunk it skips; the exit code tells the outcome
            warnings.simplefilter("ignore", WavFileWarning)
            code = cli.main(argv)
    assert code in (0, 2, 3), (code, err.getvalue())
    if damage[0] == "truncate":  # every cut drops bytes the RIFF header counts
        assert code == 2, err.getvalue()
    if code:
        assert err.getvalue().startswith("error: "), err.getvalue()
