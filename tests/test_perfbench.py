"""The benchmark's own self-checks, run against this source tree."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest(src_env):
    # The tracer patches solver names by hand; a rename or a deletion in
    # src/ must fail here, not when the benchmark runs.
    proc = subprocess.run([sys.executable, str(SELFTEST)], env=src_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-checks passed" in proc.stdout
