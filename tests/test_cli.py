import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import beatgait.cli as cli
from beatgait.errors import BeatGaitError, RunFailedError
from beatgait.harness import ScenarioConfig
from beatgait.music import AudioClip, load_wav, save_wav, synth_click_track


def run_cli(*argv):
    return cli.main(list(argv))


def _subprocess_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def run_cli_process(*argv, timeout=60, cwd=None):
    """The CLI in a child process with no stdin; a hang fails by timeout."""
    return subprocess.run([sys.executable, "-m", "beatgait.cli", *argv], capture_output=True,
                          text=True, env=_subprocess_env(), stdin=subprocess.DEVNULL,
                          timeout=timeout, cwd=cwd)


class TestParser:
    def test_subcommands_registered(self):
        p = cli.build_parser()
        sub = next(a for a in p._actions if a.dest == "command")
        assert set(sub.choices) == {"freq-track", "rhythm-sync", "curriculum",
                                    "synth-click", "analyze"}

    def test_command_required(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_common_flags(self):
        args = cli.build_parser().parse_args(
            ["freq-track", "--seed", "3", "--out", "d", "--duration", "2.5",
             "--f-cmd", "3.0"])
        assert args.seed == 3 and args.outdir == "d"
        assert args.duration == 2.5 and args.f_cmd == 3.0

    def test_unset_flags_stay_none(self):
        args = cli.build_parser().parse_args(["rhythm-sync"])
        assert args.feedforward is None and args.gain_k is None
        assert args.audio_path is None and args.synth_bpm is None

    @pytest.mark.parametrize("command", ["freq-track", "rhythm-sync", "curriculum"])
    def test_scenario_dests_are_config_fields(self, command):
        # each scenario flag lands in the ScenarioConfig field of its dest
        sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
        dests = {a.dest for a in sub.choices[command]._actions} - {"help", "config", "command"}
        assert dests <= {f.name for f in fields(ScenarioConfig)}


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        code = run_cli("freq-track", "--duration", "3", "--out", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "freq_dev_mean=" in out and str(tmp_path) in out

    def test_config_error_out_of_band_command(self, tmp_path, capsys):
        code = run_cli("freq-track", "--f-cmd", "0.5", "--out", str(tmp_path))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_config_error_unknown_key(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"mode": "freq_track", "speed": 9}))
        code = run_cli("freq-track", "--config", str(p), "--out", str(tmp_path))
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_config_error_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text("{oops")
        code = run_cli("freq-track", "--config", str(p), "--out", str(tmp_path))
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_config_error_missing_file(self, tmp_path, capsys):
        code = run_cli("freq-track", "--config", str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_error_missing_audio(self, tmp_path, capsys):
        code = run_cli("analyze", str(tmp_path / "missing.wav"))
        assert code == 2

    def test_config_error_missing_audio_leaves_no_outdir(self, tmp_path, capsys):
        # the WAV is read before the artifact directory is made
        code = run_cli("rhythm-sync", "--audio", str(tmp_path / "missing.wav"),
                       "--duration", "6", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "cannot open WAV file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_data_error_short_clip(self, tmp_path, capsys):
        wav = tmp_path / "short.wav"
        assert run_cli("synth-click", "--bpm", "120", "--duration", "0.8",
                       "--out", str(wav)) == 0
        code = run_cli("analyze", str(wav))
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["analyze"], ["rhythm-sync", "--audio"]])
    def test_data_error_empty_clip(self, command, tmp_path, capsys):
        # a clip with no sample is too short to analyse, as a one-sample clip is
        wav = tmp_path / "e.wav"
        save_wav(wav, AudioClip(samples=np.zeros(0), sample_rate=22050))
        code = run_cli(*command, str(wav), "--out", str(tmp_path / "o"))
        assert code == 3
        assert "error: empty clip" in capsys.readouterr().err

    def test_config_error_empty_click_track(self, tmp_path, capsys):
        # round(1e-9 s * 22050 Hz) = 0 samples
        wav = tmp_path / "e.wav"
        assert run_cli("synth-click", "--duration", "1e-9", "--out", str(wav)) == 2
        assert "holds no sample" in capsys.readouterr().err
        assert not wav.exists()

    @pytest.mark.parametrize("key, value", [("rate_oscillator_hz", 1000),
                                            ("rate_modulator_hz", 20)])
    def test_config_error_clock_key(self, key, value, tmp_path, capsys):
        # the clock is fixed, so a config cannot name it, even at its own rate
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"mode": "freq_track", key: value}))
        code = run_cli("freq-track", "--config", str(p), "--out", str(tmp_path / "o"))
        assert code == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_data_error_standing_freq_track(self, tmp_path, capsys):
        # |v_cmd| <= 0.5 selects the standing bank: every leg holds
        # mid-stance, so no foot lifts and no contact onset comes
        code = run_cli("freq-track", "--v-cmd", "0.3", "--out", str(tmp_path))
        assert code == 3
        assert "need at least 3 contact onsets, got 0" in capsys.readouterr().err

    def test_data_error_clip_shorter_than_run(self, tmp_path, capsys):
        wav = tmp_path / "clicks.wav"
        assert run_cli("synth-click", "--bpm", "120", "--duration", "10",
                       "--out", str(wav)) == 0
        code = run_cli("rhythm-sync", "--audio", str(wav), "--duration", "30",
                       "--out", str(tmp_path / "rs"))
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_config_error_non_finite_flags(self, tmp_path, capsys):
        for flag in ("--gain-k", "--perturb-rad", "--duration", "--delta-max", "--bpm",
                     "--warmup"):
            code = run_cli("rhythm-sync", flag, "inf", "--out", str(tmp_path))
            assert code == 2, flag
            assert "must be a finite number" in capsys.readouterr().err

    def test_config_error_bool_for_integer(self, tmp_path, capsys):
        for field in ("target_leg", "rate_plant_hz", "seed"):
            p = tmp_path / "cfg.json"
            p.write_text(json.dumps({"mode": "rhythm_sync", field: True}))
            code = run_cli("rhythm-sync", "--config", str(p), "--out", str(tmp_path / "rs"))
            assert code == 2, field
            assert f"{field} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "rs").exists()

    def test_divergence_code(self, tmp_path, capsys):
        # finite flags only (an infinite clamp exits 2): a gain and a clamp
        # near the float maximum give raw commands whose spread overflows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("rhythm-sync", "--gain-k", "1e308", "--delta-max", "1e308",
                           "--error-mode", "raw", "--duration", "8", "--out", str(tmp_path))
        assert code == 4
        err = capsys.readouterr().err
        assert "diverged" in err
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_overflowing_spread_code(self, tmp_path, capsys):
        # finite commands near the float maximum overflow their spread omega_std
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("rhythm-sync", "--gain-k", "1e308", "--delta-max", "1e308",
                           "--error-mode", "raw", "--feedforward", "--duration", "8",
                           "--out", str(tmp_path))
        assert code == 4
        err = capsys.readouterr().err
        assert "diverged: graded metrics not finite" in err
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("entry", [
        '"delta_max": "x"', '"synth_bpm": "abc"', '"outdir": 5', '"audio_path": ["a"]',
        '"audio_path": 0', '"delta_max": true', '"synth_bpm": true'],
        ids=lambda entry: entry.replace('"', "").replace(": ", "="))
    def test_config_error_wrong_type(self, entry, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(f'{{"duration": 1, {entry}}}')
        # --out would replace the config's outdir
        out = () if "outdir" in entry else ("--out", str(tmp_path / "rs"))
        proc = run_cli_process("rhythm-sync", "--config", str(p), *out, cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert entry.split('"')[1] in proc.stderr
        assert sorted(q.name for q in tmp_path.iterdir()) == ["cfg.json"]

    def test_config_error_sub_sample_click_period(self, tmp_path):
        # one click per 60/bpm seconds: at 1e308 BPM that is far under a sample
        proc = run_cli_process("rhythm-sync", "--bpm", "1e308", "--out", str(tmp_path),
                               timeout=30)
        assert proc.returncode == 2, proc.stderr
        assert "under one sample" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["rhythm-sync", "synth-click"])
    def test_config_error_click_period_too_long(self, command, tmp_path):
        # 60/bpm seconds at 22050 Hz overflows to inf
        out = tmp_path / "o"
        proc = run_cli_process(command, "--bpm", "1e-310", "--duration", "1", "--out", str(out),
                               timeout=30)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: bpm 1e-310 gives a click period too long")
        assert "Traceback" not in proc.stderr and not out.exists()

    @pytest.mark.parametrize("command", ["rhythm-sync", "synth-click"])
    def test_config_error_run_too_long(self, command, tmp_path):
        # refused by the length cap, not by numpy failing to allocate the run
        proc = run_cli_process(command, "--duration", "1e12", "--out", str(tmp_path / "o"),
                               timeout=30)
        assert proc.returncode == 2, proc.stderr
        assert "10,000,000" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_config_error_learned_curriculum_too_short(self, tmp_path, capsys):
        # refused with the config, before the artifact directory is made
        assert run_cli("curriculum", "--iterations", "5", "--out", str(tmp_path / "o")) == 2
        assert "at least 10 iterations" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_error_nonpositive_gain(self, tmp_path):
        # refused with the config, before the directory is made or the clip analysed
        proc = run_cli_process("rhythm-sync", "--gain-k", "-1", "--duration", "6",
                               "--out", str(tmp_path / "o"))
        assert proc.returncode == 2, proc.stderr
        assert "gain_k must be positive" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ("analyze", "{wav}"),
        ("rhythm-sync", "--audio", "{wav}", "--duration", "6", "--out", "{out}")],
        ids=["analyze", "rhythm-sync"])
    def test_config_error_wav_too_loud(self, argv, tmp_path):
        # float clicks at 1e160 would overflow the tempo autocorrelation;
        # refused before rhythm-sync makes its artifact directory
        from scipy.io import wavfile

        wav = tmp_path / "loud.wav"
        clip = synth_click_track(120.0, 8.0)
        wavfile.write(wav, clip.sample_rate, clip.samples * 1e160)
        proc = run_cli_process(*(a.format(wav=wav, out=tmp_path / "o") for a in argv))
        assert proc.returncode == 2, proc.stderr
        assert "within +-2" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "o").exists()

    def test_run_error_leaves_directory_empty(self, tmp_path):
        # the command band is checked by the run, after the directory is made
        assert run_cli("freq-track", "--f-cmd", "9", "--out", str(tmp_path / "o")) == 2
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("freq-track", "--duration", "2", "--out", "{file}"),
        ("freq-track", "--duration", "2", "--out", "{file}/sub"),
        ("rhythm-sync", "--duration", "2", "--out", "{file}"),
        ("curriculum", "--duration", "0.5", "--out", "{file}"),
        ("synth-click", "--duration", "2", "--out", "{dir}"),
        ("analyze", "{wav}", "--out", "{dir}")],
        ids=["freq-track-file", "freq-track-under-file", "rhythm-sync-file", "curriculum-file",
             "synth-click-dir", "analyze-dir"])
    def test_config_error_unwritable_out(self, argv, tmp_path):
        # a file where a directory must go, or a directory where a file must;
        # a 2 s rhythm-sync or a 0.5 s curriculum would fail with too little
        # data if the run came before the directory
        file, wav = tmp_path / "file", tmp_path / "c.wav"
        file.write_text("x")
        assert run_cli("synth-click", "--duration", "6", "--out", str(wav)) == 0
        proc = run_cli_process(*(a.format(file=file, dir=tmp_path, wav=wav) for a in argv))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: cannot write") and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_data_error_curriculum_without_plant_update(self, tmp_path):
        # a run too short for one plant update has too little data to fit
        proc = run_cli_process("curriculum", "--duration", "1e-9", "--out", str(tmp_path))
        assert proc.returncode == 3, proc.stderr
        assert "leg-samples, got 0" in proc.stderr and "Traceback" not in proc.stderr

    def test_curriculum_failure_code(self, tmp_path, capsys, monkeypatch):
        def boom(cfg):
            raise RunFailedError("rho=1 loop failed frequency tracking")

        monkeypatch.setattr(cli, "run_estimator_curriculum", boom)
        code = run_cli("curriculum", "--out", str(tmp_path))
        assert code == 4
        assert "rho=1" in capsys.readouterr().err

    def test_one_error_class_per_exit_code(self):
        # the message names the cause; the class only picks the exit code
        classes = BeatGaitError.__subclasses__()
        assert sorted(c.exit_code for c in classes) == [2, 3, 4]
        assert [c.__subclasses__() for c in classes] == [[]] * 3


class TestConfigPrecedence:
    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "freq_track", "f_cmd": 3.5,
                                   "duration": 4.0, "seed": 11}))
        out = tmp_path / "run"
        code = run_cli("freq-track", "--config", str(cfg),
                       "--f-cmd", "2.0", "--duration", "2",
                       "--out", str(out))
        assert code == 0
        echo = json.loads((out / "config.echo.json").read_text())
        assert echo["f_cmd"] == 2.0        # flag wins
        assert echo["duration"] == 2.0     # flag wins
        assert echo["seed"] == 11          # file value kept

    def test_subcommand_decides_mode(self, tmp_path):
        # a config written for one mode reruns under another subcommand
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "rhythm_sync", "duration": 2.0,
                                   "f_cmd": 2.0}))
        out = tmp_path / "run"
        code = run_cli("freq-track", "--config", str(cfg), "--out", str(out))
        assert code == 0
        echo = json.loads((out / "config.echo.json").read_text())
        assert echo["mode"] == "freq_track"

    def test_config_without_mode(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"duration": 2.0, "f_cmd": 2.5}))
        out = tmp_path / "run"
        assert run_cli("freq-track", "--config", str(cfg), "--out", str(out)) == 0
        echo = json.loads((out / "config.echo.json").read_text())
        assert echo["mode"] == "freq_track" and echo["f_cmd"] == 2.5

    def test_default_outdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli("freq-track", "--duration", "2")
        assert code == 0
        assert (tmp_path / "out" / "freq_track" / "report.json").exists()

    def test_reused_out_holds_one_run(self, tmp_path):
        out = tmp_path / "d"
        assert run_cli("rhythm-sync", "--duration", "8", "--out", str(out)) == 0
        (out / "notes.txt").write_text("kept")
        assert run_cli("freq-track", "--duration", "2", "--out", str(out)) == 0
        # the earlier run's mod, music and rewards streams are gone; other files stay
        assert sorted(p.name for p in out.iterdir()) == [
            "config.echo.json", "notes.txt", "report.json", "runlog.csv", "runlog.plant.csv"]
        assert run_cli("freq-track", "--f-cmd", "9", "--out", str(out)) == 2
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]


class TestAudioUtilities:
    def test_synth_then_analyze(self, tmp_path, capsys):
        wav = tmp_path / "clicks.wav"
        assert run_cli("synth-click", "--bpm", "96", "--duration", "12",
                       "--out", str(wav)) == 0
        clip = load_wav(wav)
        assert clip.sample_rate == 22050
        assert clip.duration == pytest.approx(12.0, abs=0.01)

        report = tmp_path / "analysis.json"
        capsys.readouterr()
        code = run_cli("analyze", str(wav), "--out", str(report))
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads(report.read_text())
        assert printed == saved
        assert abs(saved["tempo_bpm"] - 96.0) < 1.0
        assert saved["n_beats"] > 10

    def test_synth_click_slowest_representable_tempo(self, tmp_path):
        # one click at t = 0; a slower tempo's period overflows (exit 2)
        wav = tmp_path / "c.wav"
        assert run_cli("synth-click", "--bpm", "1e-300", "--duration", "1",
                       "--out", str(wav)) == 0
        assert load_wav(wav).samples[0] > 0.99

    def test_synth_click_makes_parent_dirs(self, tmp_path):
        wav = tmp_path / "deep" / "dir" / "c.wav"
        assert run_cli("synth-click", "--duration", "2",
                       "--out", str(wav)) == 0
        assert wav.exists()


class TestRhythmSyncCommand:
    def test_synthetic_run(self, tmp_path, capsys):
        out = tmp_path / "rs"
        code = run_cli("rhythm-sync", "--bpm", "120", "--duration", "12",
                       "--out", str(out))
        assert code == 0
        text = capsys.readouterr().out
        assert "delta_t_max=" in text and "tempo=" in text
        report = json.loads((out / "report.json").read_text())
        assert report["source"] == "synth:120.0bpm"
        assert (out / "runlog.mod.csv").exists()
        assert (out / "runlog.rewards.csv").exists()


def test_import_leaves_scipy_io_unloaded():
    # scipy.io is needed only to read or write a WAV file
    code = ("import sys, beatgait.cli, beatgait.harness; "
            "print('scipy.io' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
