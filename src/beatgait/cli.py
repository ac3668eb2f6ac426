"""Command line front end for the gait scenarios.

Five subcommands cover the three scenario families plus two audio
utilities:

  freq-track    open loop frequency tracking at one commanded frequency
  rhythm-sync   closed loop beat synchronization against a music clip
  curriculum    staged plant-to-estimator handover (or constant fallback)
  synth-click   render a click track WAV for offline experiments
  analyze       run the tempo tracker on a WAV and print its report

Scenario subcommands accept --config pointing at a JSON scenario file;
any flag given on the command line overrides the matching config field,
and the subcommand always decides the scenario mode. Runs write their
artifacts (per-stream runlog CSVs, report.json, config.echo.json) to
--out, defaulting to out/<mode> so every invocation is reproducible
from its own output directory. The directory is made, and an earlier
run's artifacts in it removed, once the config resolves: an unwritable
--out exits 2 before the run starts, and a failed run writes no report.

Exit codes: 0 on success, otherwise the exit_code of the BeatGaitError
raised: 2 for configuration or input errors, 3 when the input data is
insufficient for the requested analysis (a clip too short to analyse
or shorter than the run), 4 when a curriculum run fails its closing
checks or the oscillator phases diverge.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .errors import BeatGaitError, writing
from .harness import (
    ESTIMATOR_MODES,
    ScenarioConfig,
    run_estimator_curriculum,
    run_frequency_tracking,
    run_rhythm_sync,
)
from .music import analyze_clip, load_wav, save_wav, synth_click_track


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", metavar="JSON",
                    help="scenario config file; explicit flags override it")
    sp.add_argument("--seed", type=int, help="run seed (default 0)")
    sp.add_argument("--out", dest="outdir", metavar="DIR",
                    help="artifact directory (default out/<mode>)")
    sp.add_argument("--duration", type=float, metavar="S",
                    help="simulated duration in seconds")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="beatgait",
        description="rhythm-synchronized quadruped gait scenarios")
    sub = p.add_subparsers(dest="command", required=True)

    ft = sub.add_parser(
        "freq-track",
        help="track a commanded stepping frequency with the modulator off")
    _add_common(ft)
    ft.add_argument("--f-cmd", type=float, metavar="HZ",
                    help="commanded stepping frequency (default 2.0)")
    ft.add_argument("--v-cmd", type=float, metavar="MS",
                    help="commanded forward speed (default 0.8)")

    rs = sub.add_parser(
        "rhythm-sync",
        help="lock the gait to the beat of a clip or synthetic click track")
    _add_common(rs)
    rs.add_argument("--audio", dest="audio_path", metavar="WAV",
                    help="input clip; omit to synthesize a click track")
    rs.add_argument("--bpm", type=float, dest="synth_bpm", metavar="BPM",
                    help="click track tempo when no --audio is given")
    rs.add_argument("--gain-k", type=float, dest="gain_k", metavar="K",
                    help="phase error feedback gain (default 2.0)")
    rs.add_argument("--feedforward", action="store_true", default=None,
                    help="steer the raw error by the one-tick feedforward solve "
                         "(default: the footfall-corrected proportional law)")
    rs.add_argument("--perturb-rad", type=float, dest="perturb_rad", metavar="RAD",
                    help="random initial phase offset amplitude")
    rs.add_argument("--warmup", type=float, dest="warmup_s", metavar="S",
                    help="settling window excluded from metrics (default 5)")

    cu = sub.add_parser(
        "curriculum",
        help="stage the plant-to-estimator load handover and verify it")
    _add_common(cu)
    cu.add_argument("--iterations", type=int, metavar="N",
                    help="curriculum episodes (default 10, minimum 10)")
    cu.add_argument("--f-cmd", type=float, metavar="HZ",
                    help="training stepping frequency (default 2.0)")
    cu.add_argument("--estimator-mode", choices=ESTIMATOR_MODES,
                    dest="estimator_mode",
                    help="learned curriculum or constant fallback")

    sc = sub.add_parser("synth-click", help="write a click track WAV")
    sc.add_argument("--bpm", type=float, default=120.0)
    sc.add_argument("--duration", type=float, default=10.0, metavar="S")
    sc.add_argument("--out", default="click.wav", metavar="WAV")

    an = sub.add_parser("analyze", help="estimate tempo and beats from a WAV")
    an.add_argument("audio", metavar="WAV")
    an.add_argument("--out", metavar="JSON",
                    help="also write the analysis report to this path")

    return p


def _scenario_config(args: argparse.Namespace, mode: str) -> ScenarioConfig:
    # scenario flags are named after their ScenarioConfig fields; None
    # means the flag was not given, so the config/default value stays
    names = {f.name for f in fields(ScenarioConfig)}
    flags = {k: v for k, v in vars(args).items() if k in names and v is not None}
    if args.config is None:
        cfg = ScenarioConfig(mode=mode, **flags)
    else:
        cfg = ScenarioConfig.from_json(args.config, mode=mode, **flags)
    if cfg.outdir is None:
        cfg = replace(cfg, outdir=str(Path("out", mode)))
    return cfg


def _cmd_freq_track(args: argparse.Namespace) -> int:
    cfg = _scenario_config(args, "freq_track")
    _, metrics, report = run_frequency_tracking(cfg)
    print(f"f_cmd={report['f_cmd_hz']:g} Hz  "
          f"freq_dev_mean={metrics.freq_dev_mean:.6f} Hz  "
          f"freq_dev_var={metrics.freq_dev_var:.6f} Hz^2")
    print(f"artifacts: {cfg.outdir}")
    return 0


def _cmd_rhythm_sync(args: argparse.Namespace) -> int:
    cfg = _scenario_config(args, "rhythm_sync")
    _, metrics, report = run_rhythm_sync(cfg)
    dt_max = metrics.delta_t_max
    print(f"source={report['source']}  "
          f"tempo={report['tempo_bpm_estimate']:.3f} bpm  "
          f"f_gait={report['f_gait_hz']:.4f} Hz")
    print(f"delta_t_max={dt_max * 1e3:.2f} ms  "
          f"omega_std={metrics.omega_std:.4f} rad/s")
    print("rewards: " + "  ".join(
        f"{name}={mean:.4f}" for name, mean in report["reward_means_post_warmup"].items()))
    print(f"artifacts: {cfg.outdir}")
    return 0


def _cmd_curriculum(args: argparse.Namespace) -> int:
    cfg = _scenario_config(args, "estimator_curriculum")
    _, report = run_estimator_curriculum(cfg)
    if report["estimator_mode"] == "fallback":
        print(f"fallback run finite over {report['duration_s']:g} s  "
              f"freq_dev_mean={report['rf_stats']['mean_abs_dev_hz']:.6f} Hz")
    else:
        print(f"iterations={report['iterations']}  "
              f"final_mse={report['final_mse']:.3e}  "
              f"rank_deficient={report['rank_deficient']}")
    print(f"artifacts: {cfg.outdir}")
    return 0


def _write(path: str, write) -> None:
    """Make path's parent directory, then write(path); an OSError becomes InputError."""
    with writing(path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        write(path)


def _cmd_synth_click(args: argparse.Namespace) -> int:
    clip = synth_click_track(args.bpm, args.duration)
    _write(args.out, lambda path: save_wav(path, clip))
    print(f"wrote {args.out}: {args.bpm:g} bpm, {args.duration:g} s, "
          f"{clip.sample_rate} Hz")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    clip = load_wav(args.audio)
    analysis = analyze_clip(clip)
    out = {
        "source": args.audio,
        "duration_s": clip.duration,
        "sample_rate": clip.sample_rate,
        "tempo_bpm": float(analysis.grid.tempo_bpm),
        "confidence": float(analysis.confidence),
        "n_beats": int(analysis.grid.beat_times.size),
        "first_beat_s": float(analysis.grid.beat_times[0]),
        "beat_interval_s": float(60.0 / analysis.grid.tempo_bpm),
    }
    text = json.dumps(out, sort_keys=True, indent=2)
    # write first: an unwritable --out exits 2 with nothing on stdout
    if args.out:
        _write(args.out, lambda path: Path(path).write_text(text + "\n"))
    print(text)
    return 0


_HANDLERS = {
    "freq-track": _cmd_freq_track,
    "rhythm-sync": _cmd_rhythm_sync,
    "curriculum": _cmd_curriculum,
    "synth-click": _cmd_synth_click,
    "analyze": _cmd_analyze,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BeatGaitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
