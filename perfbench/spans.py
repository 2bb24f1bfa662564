"""Span recording around the benchmark's calls into the bstwist modules.

`bind(tracer)` returns a namespace holding every library function the
workloads call.  Without a tracer the entries are the library functions
themselves, so an untraced run pays nothing.  With a tracer each entry is
wrapped: a call records one span (name, start, end, parent, operation id)
in memory, and `Tracer.summary()` turns the spans into busy and self time
per function and per module once the run is over.

Every time here is CPU time of the benchmark process and its reaped
children (`cpu_ns`), not wall time.  The workloads are single-threaded
computation with no waiting, so on an idle machine the two agree; on a
shared virtual machine, wall time also counts the stretches in which the
hypervisor runs other guests on this vCPU, which vary by more than 2x from
minute to minute and say nothing about the program.
"""

from __future__ import annotations

import gzip
import importlib
import json
import resource
from time import process_time_ns
from types import SimpleNamespace

# The library functions the workloads call, by module.  Only these are
# bound, so a function the benchmark does not use may be renamed or removed
# without touching the benchmark.
CALLED = {
    "words": ("parse_word", "normal_form", "are_equal", "multiply", "power",
              "format_word"),
    "models": ("model_embed",),
    "homs": ("parse_endo_file", "endo_validate", "kappa_scale", "endo_apply"),
    "reidemeister": ("certify_infinite", "coincidence_certify",
                     "check_certificate", "power_constraint",
                     "enumerate_classes_ball", "witnesses_stay_separated"),
    "abelian": ("twisted_class_count", "fixed_functional"),
    "intmat": ("snf",),
}
NO_PARENT = -1


def cpu_ns() -> int:
    """CPU nanoseconds used so far by this process and its reaped children,
    so that work the library moved into threads or subprocesses still
    counts."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time_ns() + round((children.ru_utime + children.ru_stime) * 1e9)


class Tracer:
    """In-memory span store for one traced run."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index, op id)
        self.current = NO_PARENT
        self.op_id = -1

    def wrap(self, name, fn):
        spans = self.spans

        def traced(*args, **kwargs):
            parent = self.current
            index = len(spans)
            spans.append(None)
            self.current = index
            start = cpu_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = cpu_ns()
                self.current = parent
                spans[index] = (name, start, end, parent, self.op_id)

        return traced

    def run_op(self, op_id, kind, fn, *args):
        """Run one operation under a root span named `op.<kind>`."""
        self.op_id = op_id
        return self.wrap("op." + kind, fn)(*args)

    def summary(self) -> dict:
        """Busy and self seconds and call counts, per function and module.

        Busy time sums the spans of a name; self time subtracts the part of
        each span that its child spans cover.  Root spans are operations;
        their self time is the benchmark's own code between library calls.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent != NO_PARENT:
                child_ns[parent] += end - start
        per_name = {}
        op_ns = layer_ns = 0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            duration = end - start
            entry = per_name.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_ns[index]
            if parent == NO_PARENT:
                op_ns += duration
            elif self.spans[parent][3] == NO_PARENT:
                layer_ns += duration
        layers = {layer: [0, 0] for layer in CALLED}
        for name, (_, busy, own) in per_name.items():
            layer = name.split(".")[0]
            if layer in layers:
                layers[layer][0] += busy
                layers[layer][1] += own
        glue = sum(v[2] for n, v in per_name.items() if n.startswith("op."))
        return {
            "functions": {n: {"calls": c, "busy_s": b / 1e9, "self_s": s / 1e9}
                          for n, (c, b, s) in per_name.items()},
            "layers": {n: {"busy_s": b / 1e9, "self_s": s / 1e9}
                       for n, (b, s) in layers.items()},
            "op_s": op_ns / 1e9,
            "glue_s": glue / 1e9,
            "coverage_frac": layer_ns / op_ns if op_ns else 0.0,
        }

    def write(self, path, extra: dict) -> None:
        """Write every span, with the summary and `extra`, as gzipped JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = dict(extra)
        payload["summary"] = self.summary()
        payload["span_fields"] = ["name", "start_ns", "end_ns", "parent", "op"]
        payload["names"] = names
        payload["spans"] = [[index[n], s, e, p, o] for n, s, e, p, o in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def bind(tracer: Tracer | None) -> SimpleNamespace:
    """The called library functions, wrapped in spans when `tracer` is set."""
    lib = {}
    for layer, names in CALLED.items():
        module = importlib.import_module("bstwist." + layer)
        for name in names:
            fn = getattr(module, name)
            lib[name] = fn if tracer is None else tracer.wrap(f"{layer}.{name}", fn)
    return SimpleNamespace(**lib)
