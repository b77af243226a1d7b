"""Smoke run of the benchmark harness: its calls into rld still work.

``perfbench/run.py`` drives rld through its public calls (``run_benchmark``
and its ``record_timing=`` keyword among them).  One short run of the
``shipped`` workload, two repeats and its set-up probes, fails here when a
change breaks one of those calls.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_shipped_workload_runs_and_checks_out():
    out = subprocess.run([sys.executable, str(RUN), "--workload", "shipped", "--seconds", "0"],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, out.stdout
    metrics = result["metrics"]
    for name in ("setup_s", "wall_ref", "peak_rss_mb", "grad_err"):
        assert math.isfinite(metrics[name]["value"]), (name, metrics[name])
