"""Smoke runs of the table scripts: each runs as a child process, prints one
row per run and leaves a report.json in each run's artifact directory."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, runs", [
    ("run_freq_sweep.py", ["f1.5", "f2.0", "f2.5", "f3.0", "f3.5", "f4.0"]),
    ("run_rhythm_table.py", ["89.6bpm", "120bpm", "181.8bpm"])])
def test_script_writes_one_run_per_row(script, runs, tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), "--out", str(tmp_path)],
                          capture_output=True, text=True, stdin=subprocess.DEVNULL, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # a table row starts with its command or tempo; the header and summary lines with words
    rows = [line for line in proc.stdout.splitlines() if re.match(r"\s*\d", line)]
    assert len(rows) == len(runs), proc.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(runs)
    for name in runs:
        assert (tmp_path / name / "report.json").exists()
