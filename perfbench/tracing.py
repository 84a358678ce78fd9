"""Span tracing of pkscale's layers from outside the package.

The tracer replaces public functions with timing wrappers in the module
where their caller looks them up (``pkscale.apps.conv_projected_blocked``,
``pkscale.gemm.project_rows``, ...), so no file of the package changes. Each
call records one span: its layer, function name, the span that called it,
the task it belongs to, and two intervals (``perf_counter_ns``): start and
end of the wrapped function's call, and enter and exit of the whole wrapper,
which also covers the tracer's own bookkeeping.
Kernel wrappers also count MACs with a fresh ``MacCounter`` (passing the
count on to the caller's counter, if any) and the bytes their operands and
result occupy, computed from array sizes. Spans are kept in memory and
written out once, at the end of the run.

A span's self time is its call's duration minus its children's whole wrapper
intervals, so no span is charged for the tracer's own work; its inclusive
time is its self time plus its children's inclusive times. Calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter_ns

import numpy as np

# (module the caller looks the name up in, attribute, layer)
WRAPPED = (
    ("pkscale.gemm", "project_rows", "projection"),
    ("pkscale.gemm", "project_cols", "projection"),
    ("pkscale.conv", "project_signal", "projection"),
    ("pkscale.conv", "project_signal_dual", "projection"),
    ("pkscale.gemm", "gemm_projected", "gemm"),
    ("pkscale.conv", "conv_projected_blocked", "conv"),
    ("pkscale.apps", "conv_projected_blocked", "conv"),
    ("pkscale.apps", "xcorr_match", "apps"),
    ("pkscale.apps", "load_manifest", "io"),
    ("pkscale.apps", "load_signal", "io"),
)
LAYERS = ("projection", "gemm", "conv", "apps", "io")
KERNELS = ("gemm", "conv")
SETUP = -1          # task id of spans recorded during set-up

# Span fields, one list per span; a span's id is its index.
PARENT, LAYER, NAME, START, END, TASK, MACS, NBYTES, ELEMENTS, ENTER, EXIT = range(11)


def _size(x):
    return int(np.asarray(x).size)


def _kernel_bytes(args, out):
    return 8 * (_size(args[0]) + _size(args[1]) + _size(out))


class Tracer:
    def __init__(self):
        self.spans = []
        self.task = SETUP
        self._stack = []
        self._saved = []

    def install(self):
        from pkscale.costs import MacCounter
        for module_name, attr, layer in WRAPPED:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, attr, MacCounter))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _open(self, layer, name, enter):
        parent = self._stack[-1] if self._stack else None
        span = [parent, layer, name, 0, 0, self.task, 0, 0, 0, enter, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, fn, layer, name, counter_type):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(layer, name, perf_counter_ns())
            if layer in KERNELS:
                outer = kwargs.get("counter")
                kwargs["counter"] = local = counter_type()
            span[START] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = span[EXIT] = perf_counter_ns()
                tracer._stack.pop()
            if layer in KERNELS:
                span[MACS] = local.count
                span[NBYTES] = _kernel_bytes(args, out)
                if outer is not None:
                    outer.add(local.count)
            elif layer == "projection":
                span[ELEMENTS] = _size(args[0])
            elif layer == "io":
                span[NBYTES] = os.path.getsize(args[0])
            span[EXIT] = perf_counter_ns()
            return out

        traced.__wrapped__ = fn
        return traced

    def run_task(self, task_id, fn, i):
        """Run ``fn(i)`` inside a root span of layer ``task``."""
        self.task = task_id
        span = self._open("task", "task", perf_counter_ns())
        span[START] = span[ENTER]
        try:
            return fn(i)
        finally:
            span[END] = span[EXIT] = perf_counter_ns()
            self._stack.pop()
            self.task = SETUP

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["parent", "layer", "name", "start_ns", "end_ns",
                                  "task", "macs", "bytes", "elements", "enter_ns",
                                  "exit_ns"],
                       "spans": self.spans}, fh)


def self_times(spans):
    """Self time in ns of every span: its call's duration minus its
    children's wrapper intervals."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[EXIT] - s[ENTER]
    return own


def inclusive_times(spans, own):
    """Inclusive time in ns of every span: its self time plus its children's
    inclusive times. A child is always recorded after its parent."""
    incl = list(own)
    for sid in range(len(spans) - 1, -1, -1):
        parent = spans[sid][PARENT]
        if parent is not None:
            incl[parent] += incl[sid]
    return incl


def span_problems(spans):
    """What is wrong with the recorded spans of the tasks, if anything: a
    negative self time, an interval outside its parent's, a span whose parent
    chain does not end at its own task's span, or a function nested directly
    in itself, which is what a wrapper installed twice records."""
    own = self_times(spans)
    problems = []
    for sid, s in enumerate(spans):
        if s[TASK] == SETUP:
            continue
        what = f"span {sid} ({s[LAYER]}.{s[NAME]}, task {s[TASK]})"
        if own[sid] < 0:
            problems.append(f"{what}: negative self time {own[sid]} ns")
        if not s[ENTER] <= s[START] <= s[END] <= s[EXIT]:
            problems.append(f"{what}: call interval outside its wrapper interval")
        parent = spans[s[PARENT]] if s[PARENT] is not None else None
        if s[LAYER] == "task":
            if parent is not None:
                problems.append(f"{what}: a task span inside another span")
            continue
        if parent is None or parent[TASK] != s[TASK]:
            problems.append(f"{what}: parent chain does not end at its task's span")
        elif not parent[START] <= s[ENTER] <= s[EXIT] <= parent[END]:
            problems.append(f"{what}: wrapper interval outside its parent's call")
        elif parent[NAME] == s[NAME]:
            problems.append(f"{what}: called directly from itself (wrapped twice?)")
    return problems


def summarize(spans):
    """Per-layer totals, split into set-up spans and task spans."""
    own = self_times(spans)
    incl = inclusive_times(spans, own)
    zero = {"calls": 0, "self_ns": 0, "incl_ns": 0, "macs": 0, "bytes": 0,
            "elements": 0, "kernel_calls": 0}
    phases = {phase: {layer: dict(zero) for layer in LAYERS} for phase in ("setup", "tasks")}
    for sid, s in enumerate(spans):
        if s[LAYER] == "task":
            continue
        phase = "setup" if s[TASK] == SETUP else "tasks"
        entry = phases[phase][s[LAYER]]
        entry["calls"] += 1
        entry["self_ns"] += own[sid]
        parent = spans[s[PARENT]] if s[PARENT] is not None else None
        nested = parent is not None and parent[LAYER] == s[LAYER]
        if not nested:
            entry["incl_ns"] += incl[sid]
            entry["macs"] += s[MACS]
            entry["bytes"] += s[NBYTES]
        entry["elements"] += s[ELEMENTS]
        if s[LAYER] in KERNELS and parent is not None and parent[LAYER] == "apps":
            phases[phase]["apps"]["kernel_calls"] += 1
    return phases
