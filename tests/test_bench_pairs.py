"""The rules of scripts/bench_pairs.py: quartiles, the gain rule, wrong runs, host figures."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WALL = {"wall_s": "lower"}


def run(wall, correct=True, exit_code=0):
    return {"exit_code": exit_code, "correct": correct, "attempted": 1,
            "failed": 0 if correct else 1, "metrics": {"wall_s": wall}}


def pairs(parent, change):
    return [{"seed": k, "parent": run(a), "change": run(b)}
            for k, (a, b) in enumerate(zip(parent, change))]


# parent runs 2.00-2.09 s: quartiles 2.0225 and 2.0675, a spread of 0.045 s
PARENT = [2.0 + 0.01 * k for k in range(10)]


def test_quartiles():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    q1, q2, q3 = bench_pairs.quartiles(PARENT)
    assert (q1, q2, q3) == pytest.approx((2.0225, 2.045, 2.0675))


def test_gain_holds_on_ten_clear_wins():
    s = bench_pairs.summarize(pairs(PARENT, [a - 0.5 for a in PARENT]), WALL)["wall_s"]
    assert s["pairs"] == 10 and s["change_wins"] == 10 and s["change_losses"] == 0
    assert s["gain_holds"]
    assert s["ratio_change_to_parent"] == pytest.approx(1.545 / 2.045)


def test_gain_needs_nine_in_ten_wins():
    nine = [a - 0.5 for a in PARENT[:9]] + [PARENT[9] + 0.5]
    assert bench_pairs.summarize(pairs(PARENT, nine), WALL)["wall_s"]["gain_holds"]
    eight = [a - 0.5 for a in PARENT[:8]] + [a + 0.5 for a in PARENT[8:]]
    s = bench_pairs.summarize(pairs(PARENT, eight), WALL)["wall_s"]
    assert s["change_wins"] == 8 and not s["gain_holds"]


def test_gain_needs_ten_pairs():
    s = bench_pairs.summarize(pairs(PARENT[:9], [a - 0.5 for a in PARENT[:9]]), WALL)
    assert s["wall_s"]["change_wins"] == 9 and not s["wall_s"]["gain_holds"]


def test_gain_needs_margin_beyond_parent_iqr():
    # every pair won, but the medians differ by 0.04 s, less than the 0.045 s spread
    s = bench_pairs.summarize(pairs(PARENT, [a - 0.04 for a in PARENT]), WALL)["wall_s"]
    assert s["change_wins"] == 10 and not s["gain_holds"]
    s = bench_pairs.summarize(pairs(PARENT, [a - 0.05 for a in PARENT]), WALL)["wall_s"]
    assert s["gain_holds"]


def test_higher_is_better_metric():
    s = bench_pairs.summarize(pairs(PARENT, [a + 0.5 for a in PARENT]),
                              {"wall_s": "higher"})["wall_s"]
    assert s["gain_holds"]


@pytest.mark.parametrize("wrong", [run(0.1, correct=False), run(0.1, exit_code=1)])
@pytest.mark.parametrize("side", ["parent", "change"])
def test_wrong_run_left_out(wrong, side):
    # ten clear wins, but one run's output failed its checks or its exit
    # code was not 0: its pair is left out, and nine pairs claim nothing
    ps = pairs(PARENT, [a - 0.5 for a in PARENT])
    ps[3][side] = wrong
    assert not bench_pairs.pair_ok(ps[3])
    s = bench_pairs.summarize(ps, WALL)["wall_s"]
    assert s["pairs"] == 9 and not s["gain_holds"]
    assert s["change"]["median"] == pytest.approx(1.55)


def test_all_pairs_wrong_gives_no_summary():
    ps = pairs(PARENT, PARENT)
    for p in ps:
        p["change"] = run(0.1, correct=False)
    assert bench_pairs.summarize(ps, WALL) == {}


def test_src_lines_counts_python_files_under_src(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "a.py").write_text("x = 1\ny = 2\n\n")
    (tmp_path / "src" / "pkg" / "b.py").write_text("z = 3\nw = 4")  # no final newline
    (tmp_path / "src" / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "setup.py").write_text("outside = src\n")
    assert bench_pairs.src_lines(tmp_path) == 4


#: What `perfbench/run.py --workload curriculum --seed 3 --seconds 1 --trace 0` printed.
STDOUT = """\
workload curriculum  seed 3  trace 0  rounds 6  measured 0.9 s
  wall_s                                           0.120343 s
  realtime_x                                        706.314 s/s
  setup_s                                          0.238675 s
  peak_rss_mb                                       43.2824 MB
  cold first pass 0.1156 s; unscaled host seconds per pass 0.1473 s
  operations attempted 7, failed 0
{"correct": true, "attempted": 7, "failed": 0, "metrics": {"wall_s": {"value": 0.12034306846846346, \
"unit": "s"}, "realtime_x": {"value": 706.3140493403216, "unit": "s/s"}, "setup_s": {"value": \
0.23867465645555913, "unit": "s"}, "peak_rss_mb": {"value": 43.282432, "unit": "MB"}}}
"""


def test_run_keeps_host_figures_next_to_metrics(monkeypatch, tmp_path):
    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=STDOUT, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    r = bench_pairs.run_once(tmp_path, "curriculum", 3, 1.0)
    assert r["cold_s"] == 0.1156 and r["host_s"] == 0.1473
    assert r["metrics"] == {"wall_s": 0.12034306846846346, "realtime_x": 706.3140493403216,
                            "setup_s": 0.23867465645555913, "peak_rss_mb": 43.282432}
    assert r["correct"] and r["exit_code"] == 0


def test_run_without_timings_has_no_host_figures():
    # a run with a failed operation prints no timing line
    failed = "\n".join(line for line in STDOUT.splitlines() if "cold first pass" not in line)
    assert bench_pairs.host_figures(failed) == {"cold_s": None, "host_s": None}


def test_figures_are_medians_outside_the_summary():
    ps = pairs(PARENT, [a - 0.5 for a in PARENT])
    for k, p in enumerate(ps):
        p["parent"].update(cold_s=1.0 + k, host_s=2.0 + k)
        p["change"].update(cold_s=0.5 + k, host_s=1.0 + k)
    ps[0]["change"] = run(0.1, correct=False)  # left out, as in the summary
    f = bench_pairs.figures(ps)
    assert f == {"cold_s": {"pairs": 9, "parent": 6.0, "change": 5.5},
                 "host_s": {"pairs": 9, "parent": 7.0, "change": 6.0}}
    assert set(bench_pairs.summarize(ps, WALL)) == {"wall_s"}
