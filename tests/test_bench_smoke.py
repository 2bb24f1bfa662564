"""The benchmark runs every workload at tiny sizes and every answer checks.

A change under src/ that removes or breaks a library function the benchmark
binds (perfbench/spans.py, CALLED) fails here, and so does a change that
alters an answer: the digest of the first pass must equal the one in
`golden/bench_digests.json`.  About 2 s per workload.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGESTS = json.loads(
    (ROOT / "tests" / "golden" / "bench_digests.json").read_text())


@pytest.mark.parametrize("workload", ["wordproblem", "certify", "enumerate"])
def test_workload_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-800:]
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert result["correct"], proc.stdout[-800:]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert json.loads(info_line)["info"]["digest"] == DIGESTS[workload]
