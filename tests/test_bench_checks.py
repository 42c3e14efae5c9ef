"""The benchmark's output checks, run with the test suite.

`bench/run.py` compares every `lca` command's output with the truth the
catalog generator knows: the all-books and authors tables, correlate,
ingest counts and the dataset a fetch leaves. Running every workload
once at tiny scale here means a library change that breaks one of those
answers fails this suite, not only `bench/test_smoke.py`.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_passes_its_output_checks_at_tiny_scale():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--scale", "tiny",
         "--seconds", "0", "--trace", "0", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] is True, proc.stderr
    assert final["failed"] == 0
    assert final["attempted"] > 0
