"""Span tracing of qetsim's public functions, from outside the library.

A :class:`Tracer` rebinds each traced function, in every ``qetsim`` module
that binds it, to a wrapper that records a span: name, start and end in
nanoseconds, parent span and op id.  Function-local imports (as in
``qetsim.thermo``) read the module attribute at call time, so they reach
the wrappers too; tuples of functions such as ``qetsim.checks.CHECKS`` are
rebound element-wise.  Outside an op the wrappers record nothing, so output
checks run between ops stay out of the trace.  Spans are kept in memory in
flat arrays and written out when the run ends.

The traced functions are the ones BENCHMARK.json names in its per-layer
metrics: ``<module>.<function>.self_s``, ``.calls`` and ``.modes``.
Calls of ``chain.edge_correlators`` are recorded per chain length, as
``chain.edge_correlators.L<L>``.

Run as a script, this module runs one ``qetsim`` command line under the
tracer and writes its spans to a file; the ``cli`` workload uses it in
traced runs:

    python perfbench/spans.py SPANS.npz verify --seed 0 --grid 64
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from functools import wraps

import numpy as np

import workloads   # puts the checkout's src first on sys.path

# per-layer metric kinds that come from spans; the others (cli.*.wall_s,
# traced.op_p50_s) come from the op latencies in run.py
SPAN_KINDS = ("self_s", "calls", "modes")

# recorded per chain length, as chain.edge_correlators.L<L>
PER_LENGTH = "chain.edge_correlators"


def per_layer_names():
    """Per-layer metric names, in BENCHMARK.json order."""
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"]]


def traced_functions(metric_names):
    """``module.function`` names behind the span-based metrics."""
    found = []
    for metric in metric_names:
        base, kind = metric.rsplit(".", 1)
        if kind not in SPAN_KINDS:
            continue
        module, function = base.split(".")[:2]
        if f"{module}.{function}" not in found:
            found.append(f"{module}.{function}")
    return found


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names = []
        self._codes = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack = []
        self._op = -1
        self._pending = []
        self._restore = []

    def _code(self, name):
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def _open(self, code, parent):
        index = len(self.start)
        self.name.append(code)
        self.end.append(0)
        self.parent.append(parent)
        self.op.append(self._op)
        self.start.append(time.perf_counter_ns())
        return index

    def _wrap(self, name, fn):
        per_length = name == PER_LENGTH
        fixed = None if per_length else self._code(name)
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if per_length:   # edge_correlators(spec)
                spec = args[0] if args else kwargs["spec"]
                code = self._code(f"{name}.L{spec.length}")
            else:
                code = fixed
            index = self._open(code, stack[-1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = time.perf_counter_ns()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, functions):
        """Rebind each ``module.function`` to its traced wrapper; restore
        every binding on exit."""
        importlib.import_module("qetsim.cli")   # binds names from every layer
        swap = {}
        for qualified in functions:
            module, function = qualified.split(".")
            original = getattr(importlib.import_module(f"qetsim.{module}"),
                               function)
            swap[id(original)] = self._wrap(qualified, original)
        modules = [m for n, m in sys.modules.items()
                   if n == "qetsim" or n.startswith("qetsim.")]
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if id(value) in swap:
                        new = swap[id(value)]
                    elif (type(value) is tuple
                          and any(id(v) in swap for v in value)):
                        new = tuple(swap.get(id(v), v) for v in value)
                    else:
                        continue
                    self._restore.append((module, attr, value))
                    setattr(module, attr, new)
            yield self
        finally:
            while self._restore:
                module, attr, value = self._restore.pop()
                setattr(module, attr, value)

    @contextmanager
    def op_span(self, op_id, name="op"):
        """Root span of one op; spans opened inside it carry `op_id`."""
        self._op = op_id
        index = self._open(self._code(name), -1)
        self._stack.append(index)
        try:
            yield
        finally:
            self.end[index] = time.perf_counter_ns()
            self._stack.pop()
            for path in self._pending:
                self._merge(path, index)
            self._pending.clear()
            self._op = -1

    def adopt(self, path):
        """Merge the spans another process wrote to `path` into the current
        op, as children of its root span, once the op has ended."""
        self._pending.append(path)

    def _merge(self, path, root):
        with np.load(path) as data:
            codes = [self._code(str(n)) for n in data["names"]]
            offset = len(self.start)
            for name, start, end, parent in zip(data["name"], data["start"],
                                                data["end"], data["parent"]):
                self.name.append(codes[name])
                self.start.append(int(start))
                self.end.append(int(end))
                self.parent.append(root if parent < 0 else int(parent) + offset)
                self.op.append(self.op[root])

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            name=self.name, start=self.start, end=self.end,
                            parent=self.parent, op=self.op)

    def self_ns(self):
        """Per-span self time: duration minus the time its children cover.

        Spans nest strictly (one thread), so children are disjoint and the
        integer arithmetic is exact."""
        duration = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        covered = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        return duration - covered

    def layer_metrics(self, metric_names):
        """Span-based per-layer metrics, each the median over the op ids
        whose spans entered the layer (0 when none did)."""
        names = self.names
        ops, op_row = np.unique(np.asarray(self.op), return_inverse=True)
        shape = (len(ops), len(names))
        flat = op_row * len(names) + np.asarray(self.name)
        self_tab = np.bincount(flat, weights=self.self_ns(),
                               minlength=shape[0] * shape[1]).reshape(shape)
        calls = np.bincount(flat, minlength=shape[0] * shape[1]).reshape(shape)
        metrics = {}
        for metric in metric_names:
            base, kind = metric.rsplit(".", 1)
            if kind not in SPAN_KINDS:
                continue
            cols = [j for j, n in enumerate(names)
                    if n == base or n.startswith(base + ".L")]
            if kind == "self_s":
                per_op = self_tab[:, cols].sum(axis=1) / 1e9
            elif kind == "calls":
                per_op = calls[:, cols].sum(axis=1)
            else:   # modes: chain size L + 2 summed over the calls
                sizes = [int(names[j].rsplit(".L", 1)[1]) + 2 for j in cols]
                per_op = calls[:, cols] @ np.asarray(sizes, dtype=np.int64)
            entered = calls[:, cols].sum(axis=1) > 0
            metrics[metric] = (float(np.median(per_op[entered]))
                               if entered.any() else 0.0)
        return metrics


def main(argv):
    """Run ``qetsim.cli.main(argv[1:])`` under the tracer; spans go to argv[0]."""
    out, cli_args = argv[0], argv[1:]
    cli = importlib.import_module("qetsim.cli")
    tracer = Tracer()
    with tracer.installed(traced_functions(per_layer_names())):
        with tracer.op_span(0, "cli.main"):
            code = cli.main(cli_args)
    tracer.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
