"""The benchmark's self-test as a test: its output digests and its planted
wrong answers and digests check the kernels on every workload at a tiny
size.  It writes only under the ignored ``bench/out/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes_on_every_workload():
    env = {key: value for key, value in os.environ.items() if key != "PACT_FIXTURES"}
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "FAIL" not in run.stdout
