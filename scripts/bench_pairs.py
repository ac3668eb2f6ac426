#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarized into BENCH_<n>.json.

Runs `python3 perfbench/run.py --trace 0` in two source checkouts, a
parent and a change, for each workload and each of N pairs. Pair k uses
seed first_seed + k on both sides; the parent runs first in even pairs
and the change in odd ones, so a drift of the host spreads over both.
The run length is the `run_seconds` that BENCHMARK.json declares, the
same on both sides.

    python3 scripts/bench_pairs.py --parent ../parent --change ../change --number 6 \\
        --workload curriculum --pairs 10 --first-seed 101

Make both checkouts the same way, for example each with
`git archive <commit> | tar -x -C <dir>`. How a checkout was made moves
`peak_rss_mb` by itself: a `cp -r` copy of an extracted checkout has
read 0.3-0.4 MB more than the extraction it was copied from, as much as
a real change in memory.

The result file (default BENCH_<n>.json at the root of the repository
that holds this script) is rewritten after every run. Each workload's
entry holds its own setup (the command, the host, and per side the git
commit, a SHA-256 of the checkout's `src/**/*.py`, see `src_sha256`, and
their line count, `src_lines`), every run, and per end-to-end metric
each side's median and quartiles, the pairs the change won and lost,
and whether a gain holds by the rule of the benchmark: at least ten
pairs, the change wins at least nine in ten of them, and the medians
differ by more than the parent's interquartile spread. A pair counts
only when both of its runs passed perfbench's output checks and exited
0; the entry records how many pairs were left out (`pairs_left_out`).
Running the script again for other workloads adds them to an existing
file; a workload run again replaces its entry.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: A perfbench run ends within 170 s; this is a margin over it.
RUN_TIMEOUT_S = 240
#: Fewer pairs than this never support a claimed gain.
MIN_PAIRS_FOR_GAIN = 10


def _git_head(checkout: Path) -> str | None:
    """The checkout's commit, or None for a plain copy of the files."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256(checkout: Path) -> str:
    """SHA-256 over each `src/**/*.py` file's relative path and bytes, sorted by path."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        h.update(path.relative_to(checkout).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def src_lines(checkout: Path) -> int:
    """Lines in the checkout's `src/**/*.py` files, counted as `wc -l` does."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src").rglob("*.py"))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run; its JSON result line plus the exit code."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {"exit_code": proc.returncode, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "stderr_tail": proc.stderr.strip().splitlines()[-3:]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def pair_ok(pair: dict) -> bool:
    """Both runs of the pair passed perfbench's output checks and exited 0."""
    return all(pair[side]["correct"] and pair[side]["exit_code"] == 0
               for side in ("parent", "change"))


def summarize(pairs: list[dict], directions: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, wins, and the gain rule.

    Only pairs that are `pair_ok` count: perfbench prints timings also
    for a run whose outputs failed its checks.
    """
    pairs = [p for p in pairs if pair_ok(p)]
    out = {}
    for name, better in directions.items():
        both = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name))
                for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            continue
        parent = [a for a, _ in both]
        change = [b for _, b in both]
        sign = -1.0 if better == "lower" else 1.0
        wins = sum(sign * (b - a) > 0 for a, b in both)
        losses = sum(sign * (b - a) < 0 for a, b in both)
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        out[name] = {
            "better": better, "pairs": len(both), "change_wins": wins,
            "change_losses": losses,
            "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
            "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
            "ratio_change_to_parent": c_med / p_med if p_med else None,
            "gain_holds": (len(both) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(both)
                           and sign * (c_med - p_med) > p_q3 - p_q1),
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="parent source checkout")
    ap.add_argument("--change", required=True, type=Path, help="change source checkout")
    ap.add_argument("--number", required=True, type=int, help="number n of BENCH_<n>.json")
    ap.add_argument("--workload", action="append", required=True,
                    help="a perfbench workload; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, help="result file (default BENCH_<n>.json here)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            ap.error(f"--{side} {path} holds no perfbench/run.py")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    setup = {
        "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds:g} --trace 0",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "system": platform.system(), "cpu_count": os.cpu_count()},
        "checkouts": {side: {"git_head": _git_head(path), "src_sha256": src_sha256(path),
                             "src_lines": src_lines(path)}
                      for side, path in checkouts.items()},
        "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
    }

    out_path = args.out or ROOT / f"BENCH_{args.number}.json"
    doc = json.loads(out_path.read_text()) if out_path.is_file() else {"workloads": {}}
    doc["rule"] = ("a gain holds over at least 10 pairs when the change wins at least 9 in "
                   "10 of them and the medians differ by more than the parent's "
                   "interquartile spread")
    for workload in args.workload:
        pairs = []
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                t0 = time.monotonic()
                pair[side] = run_once(checkouts[side], workload, seed, seconds)
                wall = pair[side]["metrics"].get("wall_s")
                print(f"{workload} seed {seed} {side:6s} wall_s {wall} "
                      f"({time.monotonic() - t0:.0f} s)", flush=True)
            pairs.append(pair)
            doc["workloads"][workload] = {
                **setup, "runs": pairs,
                "failed_operations": {side: sum(p[side]["failed"] for p in pairs)
                                      for side in checkouts},
                "pairs_left_out": sum(not pair_ok(p) for p in pairs),
                "summary": summarize(pairs, directions)}
            out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        for name, s in doc["workloads"][workload]["summary"].items():
            print(f"  {workload} {name}: parent {s['parent']['median']:.4g} "
                  f"change {s['change']['median']:.4g} wins {s['change_wins']}/{s['pairs']} "
                  f"gain_holds {s['gain_holds']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
