"""Shared pytest configuration: golden runs and acceptance summary lines.

The golden scenarios live in scripts/regen_goldens.py, which the test
files import as regen_goldens; the golden_run fixture runs each config
once per session for every test that reads its artifacts.

Each acceptance criterion maps to one test (or parametrized family) in
tests/test_acceptance.py named test_c<NN>_*. After the run, one PASS or
FAIL line per criterion is printed so the gate can be read at a glance.
"""

import json
from pathlib import Path

import pytest
import regen_goldens


@pytest.fixture(scope="session")
def golden_run(tmp_path_factory):
    """A function from a scenario config to the artifact directory of its run."""
    runs = {}

    def run(config: dict) -> Path:
        # run_scenario sets the outdir, so a manifest's "outdir": null
        # and a GOLDEN_SCENARIOS entry without one name the same run
        key = json.dumps({k: v for k, v in config.items() if k != "outdir"}, sort_keys=True)
        if key not in runs:
            runs[key] = regen_goldens.run_scenario(config, tmp_path_factory.mktemp("golden"))
        return runs[key]
    return run


_CRITERIA = [
    ("test_c01", "C1  frequency tracking: 6 commands, mean dev < 0.05 Hz, var < 0.01 Hz^2, < 1 s each"),
    ("test_c02", "C2  beat alignment: dt_max <= 0.06/0.03/0.03 s at 89.6/120.0/181.8 BPM"),
    ("test_c03", "C3  intervention minimality: sigma(omega_tilde) <= 0.10 rad/s post-warmup"),
    ("test_c04", "C4  phase lock: |e| < 0.05 rad for all t > 5 s, k in {1, 2, 4}"),
    ("test_c05", "C5  gait structure: per-stride RPD bands +-0.2 rad full run, recovery within 5 s"),
    ("test_c06", "C6  oscillator suite: ramp <= 1e-6, dt refinement <= 5e-3, >= 1e5 property cases"),
    ("test_c07", "C7  music pipeline: <= 1 BPM, <= 10 ms, exact 3pi/2 beat anchors, 21 tempi"),
    ("test_c08", "C8  estimator: N=10 curriculum MSE <= 1e-8, rho=1 passes C1 bounds, fallback 30 s"),
    ("test_c09", "C9  reward oracles: worked examples reproduced to 1e-12"),
    ("test_c10", "C10 determinism: same scenario + seed -> byte-identical report.json"),
]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    stats = terminalreporter.stats
    seen = {}
    for key, flag in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL"),
                      ("skipped", "SKIP")):
        for rep in stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            base = nodeid.split("::")[-1].split("[")[0]
            for prefix, _ in _CRITERIA:
                if base.startswith(prefix):
                    # any failing instance fails the criterion
                    prev = seen.get(prefix)
                    if flag == "FAIL" or prev is None or prev == "SKIP":
                        seen[prefix] = flag if prev != "FAIL" else "FAIL"
    if not seen:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for prefix, label in _CRITERIA:
        status = seen.get(prefix, "NOT RUN")
        terminalreporter.write_line(f"{status:7s} {label}")
