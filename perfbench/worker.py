"""The measured process: runs one workload in rounds and times each operation.

A round runs every operation of the workload once, in order. The first
round is the cold one and is reported apart. After it the worker runs
whole rounds for --seconds seconds, starting a round only when the last
round of its kind says at least half of it fits, and always at least one.
With --trace 1 the rounds alternate untraced and traced, so the tracing
overhead is read between rounds that saw the same host.

Each operation is timed on a RefClock (refclock.py), which scales away
the host's slow phases. A pass time is the sum over the workload's
operations of each one's median over the warm rounds. An operation that
raises counts as failed; a run with a failed operation reports no pass
time, since its passes lack that operation's work.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _dir_bytes(path: Path | None) -> int:
    if path is None or not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Runner:
    """Runs rounds of a workload and keeps what each operation did."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # check failures of operations that returned

    def run_op(self, op, tracer=None):
        """Time and check one operation: its RefClock, None if it raised."""
        op.prepare()
        if tracer is not None:
            tracer.install()
        clock = refclock.RefClock()
        out = None
        try:
            with clock:
                out = op.run()
        except Exception:  # an operation that raises is counted as failed
            self.failed += 1
            print(f"{op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.attempted += 1
        if out is None:
            return None
        self.errors += [f"{op.name}: {e}" for e in op.check(out)]
        return clock

    def round(self, tracer=None) -> dict:
        """One pass over every operation."""
        times, host, layers, written = [], [], [], 0
        for op in self.ops:
            clock = self.run_op(op, tracer)
            times.append(None if clock is None else clock.scaled)
            host.append(None if clock is None else clock.host)
            if tracer is not None:
                totals = tracer.take()
                # self times are raw seconds; put them on the op's scaled clock
                k = 0.0 if clock is None or clock.raw <= 0 else clock.scaled / clock.raw
                layers.append({key: (calls, s * k) for key, (calls, s) in totals.items()})
            written += _dir_bytes(op.outdir)
        return {"times": times, "host": host, "layers": layers, "bytes": written}


def pass_time(rounds, key: str = "times") -> float:
    """Sum over operations of each one's median time over the rounds.

    Raises ValueError when an operation raised in one of the rounds.
    """
    total = 0.0
    for i in range(len(rounds[0][key])):
        times = [r[key][i] for r in rounds]
        if None in times:
            raise ValueError(f"operation {i} raised; the passes are incomplete")
        total += statistics.median(times)
    return total


def per_layer(traced, untraced_wall: float) -> dict:
    """PER_LAYER values of one pass: mean self time over the traced rounds."""
    summed: dict[str, list] = {}
    for r in traced:
        for op_layers in r["layers"]:
            for key, (calls, self_s) in op_layers.items():
                acc = summed.setdefault(key, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s
    n = len(traced)
    out = tracing.layer_metrics({k: (c // n, s / n) for k, (c, s) in summed.items()})
    out["harness.artifact_bytes"] = traced[-1]["bytes"]
    out["trace.overhead_s"] = pass_time(traced) - untraced_wall
    return out


def measure(ops, seconds: float, traced: bool) -> dict:
    runner = Runner(ops)
    t_cold = time.perf_counter()
    cold = runner.round()
    kinds = [False, True] if traced else [False]
    last = {k: time.perf_counter() - t_cold for k in kinds}
    rounds = {k: [] for k in kinds}

    start = time.perf_counter()
    deadline = start + seconds
    while True:
        kind = min(kinds, key=lambda k: len(rounds[k]))
        now = time.perf_counter()
        # start a round when at least half of it fits, so runs average --seconds
        if all(rounds[k] for k in kinds) and now + 0.5 * last[kind] > deadline:
            break
        rounds[kind].append(runner.round(tracing.Tracer() if kind else None))
        last[kind] = time.perf_counter() - now

    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "rounds": sum(len(r) for r in rounds.values()),
        "measured_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if runner.failed:
        return result  # no timing metric from incomplete passes
    wall_s = pass_time(rounds[False])
    result.update(cold_s=pass_time([cold]), wall_s=wall_s,
                  host_s=pass_time(rounds[False], "host"),
                  realtime_x=sum(op.modelled_s for op in ops) / wall_s)
    if traced:
        result["per_layer"] = per_layer(rounds[True], wall_s)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--clips", required=True, metavar="JSON",
                    help="clip list written by inputs.py")
    ap.add_argument("--workdir", required=True, metavar="DIR",
                    help="where operations write their artifacts")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    clips = json.loads(Path(args.clips).read_text())
    ops = workloads.build(args.workload, clips, Path(args.workdir))
    print(json.dumps(measure(ops, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
