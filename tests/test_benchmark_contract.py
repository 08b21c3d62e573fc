"""The benchmark job runs against the package as it is.

perfbench/job.py binds every function it traces with getattr, so deleting or
renaming a traced name breaks the benchmark; a traced job of each workload
listed in BENCHMARK.json catches that.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# a traced figure each workload must move, so its traced names are really reached
REACHED = {"curate_lai": "trainer.scored", "fidelity": "evaluation.run_fidelity.calls"}


@pytest.mark.parametrize("workload", sorted(REACHED))
def test_traced_job_runs(tmp_path, workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "job.py"), "--workload", workload,
         "--seed", "0", "--out", str(tmp_path / "job"), "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout.strip().splitlines()[-1])["layers"]
    assert layers[REACHED[workload]] > 0
