"""Benchmark of bstwist: one workload, one seed, one closed-loop caller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wordproblem --seed 1 --seconds 20 --trace 0

Workloads: `wordproblem`, `certify`, `enumerate` (see BENCHMARK.json and
the module of each).  The library is imported from `src/` of the checkout;
inputs come only from a generator seeded by `--seed`, in passes of fresh
inputs, so no input repeats within a run.  Operations run one after
another in this single thread until their summed wall time reaches
`--seconds` (the first pass always completes, and its answers make the
digest).  Every reported time is CPU time of the process and its reaped
children, not wall time (see `spans.cpu_ns`), and the end-to-end times
are scaled to a nominal host speed by a reference task timed between the
operations (see `speed`).
Every answer is checked; a wrong answer, a failed check or an unexpected
exception counts as a failed operation.

With `--trace 0` the last line of standard output holds the end-to-end
metrics.  With `--trace 1` every operation runs twice, untraced and under
spans, in alternating order; the last line holds the per-layer metrics,
including the tracing overhead, and the spans are written to
`perfbench/out/`.  The line before the last carries run information: the
Python version, the CPU count, the seed, the input sizes, the tail
percentile with its sample count, and the output digest.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = {"wordproblem": "wordproblem", "certify": "certify",
             "enumerate": "enumeration"}
SETUP_COMMAND = ("import sys; from bstwist.cli import main; "
                 "sys.exit(main(['normalize', '--group', '2,3', 'b^5 a']))")
SETUP_ANSWER = "b a b^6"
SETUP_RUNS = 9
WALL_LIMIT_S = 150  # stop early rather than overrun the caller's deadline

# per-layer metrics besides busy time and calls: (name, unit, better)
COUNTS = (
    ("words.a_units_in", "count", "lower"),
    ("words.b_bits_max", "bits", "lower"),
    ("models.oracle_mismatches", "count", "lower"),
    ("homs.rejected", "count", "higher"),
    ("reidemeister.box_elements", "count", "lower"),
    ("reidemeister.box_elements_per_s", "1/s", "higher"),
    ("reidemeister.merges", "count", "lower"),
    ("reidemeister.stable_frac", "frac", "higher"),
    ("reidemeister.certified_frac", "frac", "higher"),
)
TRACE_METRICS = (
    ("trace.coverage_frac", "frac", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.op_self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def per_layer_metrics(called: dict) -> list[tuple[str, str, str]]:
    """Every per-layer metric, in the order BENCHMARK.json lists them, for
    the library functions `called` by module."""
    out = []
    for layer, names in called.items():
        for name in names:
            out += [(f"{layer}.{name}_s", "s", "lower"),
                    (f"{layer}.{name}_calls", "count", "lower")]
    out += list(COUNTS)
    for layer in called:
        out += [(layer + ".busy_s", "s", "lower"), (layer + ".self_s", "s", "lower")]
    return out + list(TRACE_METRICS)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_sample() -> float:
    """CPU time of a fresh interpreter importing bstwist and answering one
    command, as the `bs-twist` console script would."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = children_cpu_s()
    proc = subprocess.run([sys.executable, "-c", SETUP_COMMAND], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    elapsed = children_cpu_s() - start
    if proc.returncode != 0 or proc.stdout.strip() != SETUP_ANSWER:
        raise RuntimeError(f"set-up command failed: {proc.stderr.strip()}")
    return elapsed


class Run:
    """State of one measured run of a workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool, setup_runs: int):
        self.spans = importlib.import_module("spans")
        self.speed = importlib.import_module("speed").SpeedLog()
        self.wl = importlib.import_module(WORKLOADS[workload])
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.tiny = trace, tiny
        self.plain = self.spans.bind(None)
        self.tracer = self.spans.Tracer() if trace else None
        self.traced = self.spans.bind(self.tracer) if trace else None
        self.latencies = array("d")  # CPU seconds of untraced operations
        self.op_t = array("d")  # wall time at which each one ended
        self.plain_s = self.traced_s = 0.0  # CPU seconds
        self.wall_s = 0.0  # wall seconds of all operations, for the budget
        self.counts = Counter()
        self.first_pass_counts = Counter()
        self.shape_s = Counter()
        self.digest = hashlib.sha256()
        self.digest_ops = self.attempted = self.failed = self.passes = 0
        self.errors = []
        self.setup_runs, self.setup, self.setup_t = setup_runs, [], []

    def _timed(self, op, op_id, traced: bool):
        wall, start = time.perf_counter(), self.spans.cpu_ns()
        if traced:
            output = self.tracer.run_op(op_id, op.kind, self.wl.run, op, self.traced)
        else:
            output = self.wl.run(op, self.plain)
        elapsed = (self.spans.cpu_ns() - start) / 1e9
        self.wall_s += time.perf_counter() - wall
        return output, elapsed

    def _one(self, op, op_id):
        """Run, time and check one operation; returns its answer."""
        order = (False, True) if op_id % 2 else (True, False)
        runs = order if self.trace else (False,)
        outputs = {}
        for traced in runs:
            outputs[traced], elapsed = self._timed(op, op_id, traced)
            if traced:
                self.traced_s += elapsed
            else:
                self.plain_s += elapsed
                self.latencies.append(elapsed)
                self.op_t.append(time.perf_counter())
                self.shape_s[f"{op.kind}/{op.shape}"] += elapsed
        output = outputs[False]
        if self.trace and outputs[True][0] != output[0]:
            raise AssertionError("traced and untraced runs gave different answers")
        error = self.wl.check(op, output, self.plain, self.counts)
        if error:
            raise AssertionError(error)
        return output[0]

    def _done(self, started: float) -> bool:
        return (self.wall_s >= self.seconds
                or time.perf_counter() - started > WALL_LIMIT_S)

    def _setup_sample(self) -> None:
        self.setup.append(setup_sample())
        self.setup_t.append(time.perf_counter())
        self.speed.due(time.perf_counter())

    def _setup_due(self) -> None:
        """Take set-up samples spread evenly over the operation time, so
        that their median sees the host as the operations did."""
        spent = self.wall_s
        while (len(self.setup) < self.setup_runs
               and spent >= len(self.setup) * self.seconds / self.setup_runs):
            self._setup_sample()

    def measure(self, started: float) -> None:
        """Run passes until the operation time reaches the budget; the
        first pass always runs to the end and feeds the digest."""
        if self.setup_runs:
            setup_sample()  # untimed: the first run writes the bytecode cache
        self.speed.sample(time.perf_counter())
        op_id = 0
        while self.passes == 0 or not self._done(started):
            for op in self.wl.make_pass(self.seed, self.passes, self.tiny):
                if self.passes and self._done(started):
                    break
                self.attempted += 1
                try:
                    answer = self._one(op, op_id)
                except Exception as exc:  # any failure is counted, not fatal
                    self.failed += 1
                    answer = f"failed: {type(exc).__name__}"
                    if len(self.errors) < 5:
                        self.errors.append(f"{op.kind}/{op.shape} {op.group}: "
                                           + traceback.format_exc(limit=3)[-600:])
                op_id += 1
                self.speed.due(time.perf_counter())
                if self.passes == 0:
                    self.digest.update(
                        f"{op.kind}|{op.shape}|{op.group}|{answer!r}\n".encode())
                    self.digest_ops += 1
            if self.passes == 0:
                self.first_pass_counts = Counter(self.counts)
            self.passes += 1
            self._setup_due()
        while len(self.setup) < self.setup_runs:
            self._setup_sample()
        self.speed.sample(time.perf_counter())

    def tail(self, latencies) -> tuple[float, float, int]:
        """Latency at the highest percentile with ten samples beyond it."""
        ordered = sorted(latencies)
        n = len(ordered)
        if n <= 10:
            return ordered[-1], 100.0, n
        return ordered[n - 11], 100.0 * (n - 10) / n, n

    def _scaled(self, values, times) -> list[float]:
        return [v * self.speed.scale(t) for v, t in zip(values, times)]

    def end_to_end(self) -> dict:
        latencies = self._scaled(self.latencies, self.op_t)
        tail, _, _ = self.tail(latencies)
        return {
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_tail_ms": (tail * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
            "setup_s": (statistics.median(self._scaled(self.setup, self.setup_t)),
                        "s"),
        }

    def per_layer(self) -> dict:
        summary = self.tracer.summary()
        functions, layers = summary["functions"], summary["layers"]
        c, c0 = self.counts, self.first_pass_counts
        enum_s = functions.get("reidemeister.enumerate_classes_ball", {}).get("busy_s", 0)
        values = {
            "words.a_units_in": c0["words.a_units_in"],
            "words.b_bits_max": c0["words.b_bits_max"],
            "models.oracle_mismatches": c["models.oracle_mismatches"],
            "homs.rejected": c0["homs.rejected"],
            "reidemeister.box_elements": c0["reidemeister.box_elements"],
            "reidemeister.box_elements_per_s":
                c["reidemeister.box_elements"] / enum_s if enum_s else 0.0,
            "reidemeister.merges": c0["reidemeister.merges"],
            "reidemeister.stable_frac": (c0["reidemeister.stable"]
                                         / max(c0["reidemeister.tentative"], 1)),
            "reidemeister.certified_frac": (c0["reidemeister.certified"]
                                            / max(c0["reidemeister.certify_maps"], 1)),
            "trace.coverage_frac": summary["coverage_frac"],
            "trace.overhead_frac": self.traced_s / self.plain_s - 1,
            "trace.op_self_s": summary["glue_s"],
            "trace.spans": len(self.tracer.spans),
        }
        for layer, names in self.spans.CALLED.items():
            for name in names:
                entry = functions.get(f"{layer}.{name}", {"busy_s": 0.0, "calls": 0})
                values[f"{layer}.{name}_s"] = entry["busy_s"]
                values[f"{layer}.{name}_calls"] = entry["calls"]
        for layer, entry in layers.items():
            values[layer + ".busy_s"] = entry["busy_s"]
            values[layer + ".self_s"] = entry["self_s"]
        return {name: (values[name], unit)
                for name, unit, _ in per_layer_metrics(self.spans.CALLED)}

    def info(self) -> dict:
        _, percentile, samples = self.tail(self.latencies)
        total = sum(self.shape_s.values()) or 1.0
        return {
            "workload": self.workload, "seed": self.seed,
            "seconds": self.seconds, "trace": int(self.trace),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "sizes": self.wl.sizes(self.tiny), "passes": self.passes,
            "digest": self.digest.hexdigest(), "digest_ops": self.digest_ops,
            "tail_percentile": round(percentile, 3), "tail_samples": samples,
            "setup_samples_cpu_s": self.setup,
            "unscaled_ops_per_s": len(self.latencies) / self.plain_s,
            "unscaled_op_p50_ms": statistics.median(self.latencies) * 1e3,
            "reference_samples": len(self.speed.cpu_s),
            "reference_median_ms": self.speed.median_s() * 1e3,
            "reference_nominal_ms": self.speed.nominal_s * 1e3,
            "op_wall_s": round(self.wall_s, 3),
            "op_cpu_over_wall": round((self.plain_s + self.traced_s)
                                      / max(self.wall_s, 1e-9), 4),
            "time_share": {k: round(v / total, 4)
                           for k, v in sorted(self.shape_s.items())},
            "errors": self.errors,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes, for the self-check")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "bstwist" / "__init__.py").is_file():
        print(f"perfbench: no bstwist package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_runs = 0 if args.trace else 3 if args.tiny else SETUP_RUNS
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              args.tiny, setup_runs)
    run.measure(started)
    if args.trace:
        metrics = run.per_layer()
        trace_file = HERE / "out" / f"trace-{args.workload}-{args.seed}.json.gz"
        run.tracer.write(trace_file, {"info": run.info()})
    else:
        metrics = run.end_to_end()
    info = run.info()
    if args.trace:
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
