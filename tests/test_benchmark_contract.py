"""The benchmark job runs against the package as it is.

perfbench/job.py binds every function it traces with getattr, so deleting or
renaming a traced name breaks the benchmark; a traced job catches that.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_curate_lai_job_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "job.py"), "--workload", "curate_lai",
         "--seed", "0", "--out", str(tmp_path / "job"), "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "layers" in json.loads(proc.stdout.strip().splitlines()[-1])
