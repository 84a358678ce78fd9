"""The measured process of one benchmark run.

``run.py`` starts this script several times per run, each time in a fresh
interpreter with the BLAS and OpenMP thread counts already pinned in its
environment. Before the set-up clock starts it has imported numpy and this
directory's modules only, and loaded its inputs; the clock then covers
``import pkscale.cli`` and the workload's one-time preparation.

It then checks the outputs over its share of the input pool and measures:
with ``--trace 0`` the pkscale path and its exact baselines in alternating
blocks; with ``--trace 1`` the pkscale path untraced and traced in turn,
then the plain BLAS rate. The raw samples and counts go to ``--out`` as JSON;
``run.py`` pools them over the processes of a run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 16             # alternations of the pkscale path and its baselines
PKSCALE_SHARE = 0.6     # share of --seconds spent on the pkscale path
MIN_TASKS = -(-workloads.MIN_TASKS // workloads.PARTS)   # per process
MIN_BASELINE_CALLS = 8
EXACT_RTOL = 1e-10      # full-rank projected GEMM against a @ b


def _imported(prefix):
    return any(m == prefix or m.startswith(prefix + ".") for m in sys.modules)


def timed_block(fn, pool, start, seconds, min_calls, samples, ops, valid=None, label=""):
    """Call ``fn`` on pool items start, start+1, ... until ``seconds`` have
    passed and at least ``min_calls`` were made; one latency sample per call
    that returns. Returns the next pool cursor and the block's wall time."""
    gc.collect()
    i = start
    begin = time.perf_counter()
    deadline = begin + seconds
    while i - start < min_calls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        try:
            out = fn(i % pool)
        except Exception:  # a failing call is counted, reported and skipped
            traceback.print_exc(file=sys.stderr)
            ops.record(False, f"{label} call on pool item {i % pool} raised")
        else:
            samples.append(time.perf_counter() - t0)
            ops.record(valid is None or valid(out),
                       f"{label} output for pool item {i % pool} failed its check")
        i += 1
    return i, time.perf_counter() - begin


def check_full_rank(wl, directory, ops):
    """One p = L projected product with the workload's pair equals a @ b."""
    from pkscale import gemm
    from pkscale.config import PrecisionConfig
    z = np.load(directory / "exact_check.npz")
    a, b = z["left"], z["right"]
    size = wl.pair.size
    out = gemm.gemm_projected(a, b, wl.pair, PrecisionConfig(size, size))
    exact = a @ b
    rel = float(np.abs(out - exact).max() / np.abs(exact).max())
    ops.record(rel <= EXACT_RTOL, f"p = L projected GEMM off a @ b by {rel:.3e} relative")
    return rel


def measure(wl, seconds, ops):
    """Alternating blocks of the pkscale path and each exact baseline: the
    latency samples per path and the pkscale blocks' wall time."""
    baselines = wl.baselines()
    share = {"pkscale": PKSCALE_SHARE}
    share.update({name: (1.0 - PKSCALE_SHARE) / len(baselines) for name in baselines})
    fns = {"pkscale": wl.task, **baselines}
    samples = {name: [] for name in fns}
    cursor = dict.fromkeys(fns, 0)
    wall = 0.0
    for _ in range(ROUNDS):
        for name, fn in fns.items():
            pkscale = name == "pkscale"
            min_calls = -(-(MIN_TASKS if pkscale else MIN_BASELINE_CALLS) // ROUNDS)
            cursor[name], elapsed = timed_block(
                fn, wl.pool, cursor[name], seconds * share[name] / ROUNDS, min_calls,
                samples[name], ops, wl.valid if pkscale else None, name)
            if pkscale:
                wall += elapsed
    return {"samples": samples, "wall_s": wall}


def measure_traced(wl, tracer, seconds, ops):
    """Alternating untraced and traced blocks of the pkscale path, then
    ``a @ b`` on the task's GEMM geometry: latency samples and the traced
    tasks' per-layer totals."""
    blas = wl.blas()
    block = seconds * (0.4 if blas else 0.5) / ROUNDS
    min_calls = -(-MIN_TASKS // ROUNDS)
    untraced, traced, plain = [], [], []
    counter = iter(range(1 << 62))

    def traced_task(i):
        return tracer.run_task(next(counter), wl.task, i)

    cursor = 0
    for _ in range(ROUNDS):
        cursor, _ = timed_block(wl.task, wl.pool, cursor, block, min_calls, untraced, ops,
                                wl.valid, "untraced")
        tracer.install()
        cursor, _ = timed_block(traced_task, wl.pool, cursor, block, min_calls, traced, ops,
                                wl.valid, "traced")
        tracer.uninstall()
    if blas:
        timed_block(blas[1], wl.pool, 0, seconds - 2 * ROUNDS * block, MIN_BASELINE_CALLS,
                    plain, ops, None, "a@b")
    return {
        "untraced": untraced,
        "traced": traced,
        "blas": plain,
        "blas_macs": blas[0] if blas else 0,
        "layers": tracing.summarize(tracer.spans)["tasks"],
        "full_rank_snr_db": wl.full_rank_snr(),
        "macs_model": wl.macs_model(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--part", required=True, type=int, choices=range(workloads.PARTS),
                        help="this process checks pool items part, part + PARTS, ...")
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--spans", type=Path, default=None,
                        help="where a traced run writes its spans")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]()
    inputs = wl.load(args.inputs)
    fresh = not (_imported("pkscale") or _imported("scipy"))
    sys.path.insert(0, str(ROOT / "src"))
    tracer = tracing.Tracer() if args.trace else None
    gc.collect()

    before = len(sys.modules)
    start = time.perf_counter()
    import pkscale.cli
    import_s = time.perf_counter() - start
    modules_loaded = len(sys.modules) - before
    if tracer:
        tracer.install()
    wl.setup(inputs)
    setup_s = time.perf_counter() - start

    setup = {"setup_s": setup_s, "import_s": import_s, "modules_loaded": modules_loaded}
    if tracer:
        tracer.uninstall()
        io = tracing.summarize(tracer.spans)["setup"]["io"]
        setup.update({"io.load_s": io["incl_ns"] / 1e9, "io.bytes_read": io["bytes"]})
    ops = workloads.Ops()
    ops.record(fresh, "pkscale or scipy was imported before the set-up clock started")
    ops.record(Path(pkscale.cli.__file__).resolve().is_relative_to(ROOT / "src"),
               f"pkscale was imported from {pkscale.cli.__file__}, not from the checkout")
    wl.prepare_baselines()
    result = {"setup": setup, "full_rank_gemm_rel_err": check_full_rank(wl, args.inputs, ops)}
    snrs, match, agree, decisions = wl.check(ops, args.part, workloads.PARTS)
    result["check"] = {"snrs": snrs, "match": int(match), "agree": int(agree),
                       "decisions": decisions}
    if tracer:
        result.update(measure_traced(wl, tracer, args.seconds, ops))
        if args.spans:
            tracer.write(args.spans)
    else:
        result.update(measure(wl, args.seconds, ops))
    result.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.reasons[:20],
    })
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
