#!/usr/bin/env python3
"""Beat-synchronization table over the three graded click-track tempi.

Runs the full hierarchical loop for 30 s at 89.6, 120.0, and 181.8 BPM
and prints the alignment and intervention columns, plus the post-warmup
reward means.

    python3 scripts/run_rhythm_table.py [--out out/rhythm_table] [--seed 0]
                                        [--feedforward] [--gain-k 2.0]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from beatgait.harness import ScenarioConfig, run_rhythm_sync  # noqa: E402

TEMPI = (89.6, 120.0, 181.8)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", metavar="DIR",
                    help="write per-run artifacts under DIR/<bpm>bpm")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--feedforward", action="store_true",
                    help="use the one-tick feedforward solve")
    ap.add_argument("--gain-k", type=float, default=2.0, dest="gain_k")
    args = ap.parse_args()

    print(f"{'BPM':>7} {'tempo est':>10} {'dt_max ms':>10} {'sigma(omega)':>13} "
          f"{'r_rhythm':>9} {'r_phase':>8}")
    for bpm in TEMPI:
        outdir = None if args.out is None else f"{args.out}/{bpm:g}bpm"
        cfg = ScenarioConfig(mode="rhythm_sync", synth_bpm=bpm, duration=30.0,
                             seed=args.seed, gain_k=args.gain_k,
                             feedforward=args.feedforward,
                             outdir=outdir)
        _, metrics, report = run_rhythm_sync(cfg)
        rewards = report["reward_means_post_warmup"]
        print(f"{bpm:7.1f} {report['tempo_bpm_estimate']:10.3f} "
              f"{metrics.delta_t_max * 1e3:10.2f} {metrics.omega_std:13.4f} "
              f"{rewards['rhythm']:9.4f} {rewards['phase']:8.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
