"""Benchmark entry point: runs one workload, checks it, prints its metrics.

    python3 perfbench/run.py --workload song-sync --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run from the root of a source checkout; the program is imported from
its src/ directory. Each run:

1. with --trace 0, times fresh interpreters importing beatgait.cli and
   beatgait.harness (setup_s);
2. writes the workload's seeded inputs in a process of their own
   (inputs.py), so input generation counts in no metric;
3. runs the workload in a fresh worker process (worker.py) that times
   each operation and checks every output;
4. prints each metric with its unit, then one JSON object as the last
   line: end-to-end metrics with --trace 0, per-layer ones with --trace 1.

Scratch files live under .perfbench/ in the checkout and are removed
when the run ends. Exits 1 when an output check fails or an operation
raises (such a run reports no timing metric), 2 when the checkout holds
no program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

#: Fresh interpreters timed per run for setup_s, after one untimed warm-up.
SETUP_PROBES = 5
#: Whole run, including input generation and set-up, ends within this.
RUN_LIMIT_S = 170.0

WORKLOADS = ("lock-feedforward", "curriculum", "song-sync", "song-analysis")

END_TO_END = [("wall_s", "s"), ("realtime_x", "s/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds() -> float:
    """Median over SETUP_PROBES fresh imports of the CLI and the harness.

    Each import is timed as a whole process and scaled by the reference
    kernel run on either side of it (refclock.py). The first, untimed
    import writes the bytecode cache.
    """
    cmd = [sys.executable, "-c", "import beatgait.cli, beatgait.harness"]

    def probe():
        subprocess.run(cmd, env=_env(), check=True, timeout=60)

    probe()
    return statistics.median(refclock.scaled_call(probe) for _ in range(SETUP_PROBES))


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One full run in a scratch directory of its own; returns the JSON result."""
    t_start = time.perf_counter()
    workdir = SCRATCH / f"{workload}-seed{seed}-{os.getpid()}"
    setup_s = None if traced else setup_seconds()
    try:
        gen = subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(workdir / "inputs")],
            check=True, capture_output=True, text=True, timeout=120)
        clips_file = workdir / "clips.json"
        clips_file.write_text(gen.stdout)
        left = RUN_LIMIT_S - (time.perf_counter() - t_start)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--clips", str(clips_file), "--workdir", str(workdir / "artifacts"),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            env=_env(), check=True, stdout=subprocess.PIPE, text=True, timeout=left)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it

    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    correct = not res["errors"] and res["failed"] == 0
    print(f"workload {workload}  seed {seed}  trace {int(traced)}  rounds {res['rounds']}  "
          f"measured {res['measured_s']:.1f} s")
    if traced:
        names = tracing.PER_LAYER
        values = res.get("per_layer", {})
    else:
        names = END_TO_END
        values = dict(res, setup_s=setup_s)
    # a run with a failed operation has no timing metrics; it prints what it has
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in names if name in values}
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    if "host_s" in res:
        # unscaled host seconds, next to the scaled ones: figures, not metrics
        print(f"  cold first pass {res['cold_s']:.4f} s; unscaled host seconds per pass "
              f"{res['host_s']:.4f} s")
    print(f"  operations attempted {res['attempted']}, failed {res['failed']}")
    return {"correct": correct, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "beatgait" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'beatgait'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        correct = correct and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
