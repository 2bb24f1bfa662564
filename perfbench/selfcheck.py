"""Self-check of the benchmark at tiny sizes; takes about a minute.

    python3 perfbench/selfcheck.py

For every workload it runs `run.py --tiny` untraced and traced and checks
that the result line has exactly the keys and metrics BENCHMARK.json names,
that no operation failed, and that the output digest repeats for the same
seed and changes with the seed.  It then copies the benchmark alone into a
scratch directory, without the library sources, and checks that the run
there fails without printing a result.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, per_layer_metrics  # noqa: E402
from spans import CALLED  # noqa: E402


def bench(args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result(workload, seed, trace):
    proc = bench(["--workload", workload, "--seed", str(seed), "--seconds",
                  "1", "--trace", str(trace), "--tiny"])
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def check_result(spec, workload, info, res, trace) -> list[str]:
    problems = []
    where = f"{workload} trace={trace}"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(res)}")
    if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
        problems.append(f"{where}: failures {res['failed']}: {info['errors']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if list(res["metrics"]) != names:
        problems.append(f"{where}: metrics {list(res['metrics'])} != {names}")
    for m in wanted:
        got = res["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: bad metric {m['name']}: {got}")
        elif not trace and got["value"] <= 0:
            problems.append(f"{where}: {m['name']} is {got['value']}")
    if trace and res["metrics"]["models.oracle_mismatches"]["value"] != 0:
        problems.append(f"{where}: oracle mismatches")
    return problems


def check_without_sources() -> list[str]:
    """Benchmark files alone, no src/: must exit nonzero, print no result."""
    with tempfile.TemporaryDirectory(dir=HERE / "out") as scratch:
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(HERE, Path(scratch) / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(["--workload", "certify", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=scratch,
                     script=Path(scratch) / HERE.name / "run.py")
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["run without library sources did not fail cleanly"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != per_layer_metrics(CALLED):
        problems.append("BENCHMARK.json per_layer differs from run.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        digests = []
        for trace in (0, 1, 0):
            info, res = result(workload, 1, trace)
            problems += check_result(spec, workload, info, res, trace)
            digests.append(info["digest"])
        other, _ = result(workload, 2, 0)
        if len(set(digests)) != 1:
            problems.append(f"{workload}: digest differs between equal seeds")
        if other["digest"] == digests[0]:
            problems.append(f"{workload}: digest ignores the seed")
        print(f"{workload}: checked", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    problems += check_without_sources()
    for problem in problems:
        print("FAIL", problem)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
