"""Self-test of the benchmark itself; run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload briefly (``SECONDS`` per run) and checks that
1. every metric BENCHMARK.json declares is reported, with its unit, by each
   workload (end-to-end metrics untraced, per-layer metrics traced);
2. in the traced runs, every span of a task is well formed (see
   ``tracing.span_problems``: no negative self time, nested in its parent,
   attributed to its own task, no function wrapped twice), so the self times
   of a task's spans sum to no more than its duration; and on a synthetic
   call tree with known self times, the tracer charges a parent less than
   half of what its wrapper costs per child call, so the tracer's own time
   is not counted as layer time;
3. another ``--seed`` changes the generated inputs but not the set of metrics.
Exits 1 and names the failed checks if any fails.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from run import WORK, WORKLOAD_NAMES  # noqa: E402
from workloads import PARTS  # noqa: E402

SECONDS = 1.0           # measured time of each run
# Synthetic call tree of check 2: a parent that spins PARENT_S and calls
# CHILDREN children that spin CHILD_S each, TREES times.
PARENT_S, CHILD_S, CHILDREN, TREES = 5e-4, 5e-6, 100, 50


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _inputs_digest(workload):
    digest = hashlib.sha256()
    directory = WORK / workload
    for path in sorted(directory.glob("*.npz")):
        with np.load(path) as z:
            for key in sorted(z.files):
                digest.update(key.encode())
                digest.update(np.ascontiguousarray(z[key]).tobytes())
    for path in sorted((directory / "db").glob("*")) if (directory / "db").is_dir() else ():
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _span_failures(workload):
    """Check 2 on the spans the traced run of ``workload`` left."""
    problems = [problem for k in range(PARTS) for problem in tracing.span_problems(
        json.loads((WORK / workload / f"spans{k}.json").read_text())["spans"])]
    if problems:
        return [f"2: {workload}: {len(problems)} malformed spans, the first: {problems[0]}"]
    return []


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _attribution_failures():
    """Check 2 on a synthetic call tree traced by the benchmark's wrappers."""
    tracer = tracing.Tracer()
    child = tracer._wrap(lambda x: _spin(CHILD_S), "projection", "child", None)

    def parent_fn(x):
        _spin(PARENT_S)
        for _ in range(CHILDREN):
            child(x)

    parent = tracer._wrap(parent_fn, "apps", "parent", None)
    x = np.zeros(1)
    for tree in range(TREES):
        tracer.run_task(tree, parent, x)
    spans, own = tracer.spans, tracing.self_times(tracer.spans)
    failures = [f"2: synthetic tree: {p}" for p in tracing.span_problems(spans)]
    parents = [own[i] for i, s in enumerate(spans) if s[tracing.NAME] == "parent"]
    wrappers = [(s[tracing.EXIT] - s[tracing.ENTER]) - (s[tracing.END] - s[tracing.START])
                for s in spans if s[tracing.NAME] == "child"]
    charged = (statistics.median(parents) - PARENT_S * 1e9) / CHILDREN
    wrapper = statistics.median(wrappers)
    print(f"synthetic tree: {charged:.0f} ns charged to the parent per child call, "
          f"wrapper cost {wrapper:.0f} ns")
    if charged >= wrapper / 2:
        failures.append(f"2: synthetic tree: {charged:.0f} ns charged to the parent per child "
                        f"call, more than half the wrapper's own {wrapper:.0f} ns")
    return failures


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = _attribution_failures()
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            result = _run(workload, 1, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != declared[trace]:
                failures.append(f"1: {workload} trace {trace} reports {sorted(got.items())}, "
                                f"BENCHMARK.json declares {sorted(declared[trace].items())}")
            if not result["correct"]:
                failures.append(f"{workload} trace {trace}: {result['failed']} failed operations")
            if trace:
                failures += _span_failures(workload)
            else:
                first_inputs = _inputs_digest(workload)
        other = _run(workload, 2, 0)
        if _inputs_digest(workload) == first_inputs:
            failures.append(f"3: {workload}: seeds 1 and 2 generated the same inputs")
        if set(other["metrics"]) != set(declared[0]):
            failures.append(f"3: {workload}: seed 2 reports another set of metrics")
        print(f"{workload}: checked", flush=True)
    for failure in failures:
        print("FAIL", failure)
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
