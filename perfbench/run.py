"""pkscale benchmark: seeded workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload gemm-fresh --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the root of a checkout. For each workload this script generates the
inputs from ``--seed`` with ``pkscale.synth``, then starts the measured
process (``worker.py``) three times, each in a fresh interpreter, and pools
what they measured. OpenBLAS and OpenMP are pinned to one thread before numpy
is imported, here and in every child. It prints each metric with its unit, a
JSON line with the environment and run details, and as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics BENCHMARK.json declares with ``--trace 0``, its per-layer
metrics with ``--trace 1``. The full record, inputs and spans are left under
``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
PACKAGE = ROOT / "src" / "pkscale"
CHILD_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))
from workloads import PARTS, WORKLOADS  # noqa: E402

WORKLOAD_NAMES = tuple(WORKLOADS)


def _lscpu_caches():
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    caches = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if "cache" in key:
            caches[key.strip()] = value.strip()
    return caches


def _git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _lscpu_caches(),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _worker(workload, directory, trace, seconds, part):
    out = directory / f"part{part}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(directory), "--part", str(part), "--trace", str(trace),
           "--seconds", str(seconds / PARTS), "--out", str(out)]
    if trace:
        cmd += ["--spans", str(directory / f"spans{part}.json")]
    proc = subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S + seconds)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} process {part} exited with {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def end_to_end(parts, attempted, failed):
    task = [x for p in parts for x in p["samples"]["pkscale"]]
    baselines = {name: [x for p in parts for x in p["samples"][name]]
                 for name in parts[0]["samples"] if name != "pkscale"}
    p50 = statistics.median(task) * 1e3
    decisions = sum(p["check"]["decisions"] for p in parts)
    metrics = {
        "setup_s": statistics.median(p["setup"]["setup_s"] for p in parts),
        "task_ms_p50": p50,
        "task_ms_p90": statistics.quantiles(task, n=10)[8] * 1e3,
        "tasks_per_s": len(task) / sum(p["wall_s"] for p in parts),
        "speedup_vs_exact": min(statistics.median(b) for b in baselines.values()) * 1e3 / p50,
        "snr_db": statistics.median(x for p in parts for x in p["check"]["snrs"]),
        "match_rate": sum(p["check"]["match"] for p in parts) / decisions,
        "agreement_rate": sum(p["check"]["agree"] for p in parts) / decisions,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "success_rate": 1.0 - failed / attempted,
    }
    details = {
        "samples": {"pkscale": len(task), **{k: len(v) for k, v in baselines.items()}},
        "baseline_ms_p50": {k: statistics.median(v) * 1e3 for k, v in baselines.items()},
    }
    return metrics, details


def per_layer(parts):
    layers = {layer: {key: sum(p["layers"][layer][key] for p in parts)
                      for key in parts[0]["layers"][layer]}
              for layer in parts[0]["layers"]}
    untraced, traced, plain = ([x for p in parts for x in p[key]]
                               for key in ("untraced", "traced", "blas"))
    n = len(traced)
    blas_gmacs = parts[0]["blas_macs"] / statistics.median(plain) / 1e9 if plain else 0.0

    def per_task(layer, key, scale=1.0):
        return layers[layer][key] / n * scale

    def ratio(a, b):
        return a / b if b else 0.0

    def rate(layer):
        return ratio(layers[layer]["macs"], layers[layer]["incl_ns"])

    def setup_median(key):
        return statistics.median(p["setup"][key] for p in parts)

    model = parts[0]["macs_model"]
    traced_p50 = statistics.median(traced)
    untraced_p50 = statistics.median(untraced)
    metrics = {
        "cli.import_s": setup_median("import_s"),
        "cli.modules_loaded": parts[0]["setup"]["modules_loaded"],
        "projection.calls": per_task("projection", "calls"),
        "projection.self_ms": per_task("projection", "self_ns", 1e-6),
        "projection.elements": per_task("projection", "elements"),
        "gemm.calls": per_task("gemm", "calls"),
        "gemm.self_ms": per_task("gemm", "self_ns", 1e-6),
        "gemm.macs": per_task("gemm", "macs"),
        "gemm.bytes_computed": per_task("gemm", "bytes"),
        "gemm.macs_per_byte": ratio(layers["gemm"]["macs"], layers["gemm"]["bytes"]),
        "gemm.gmacs_per_s": rate("gemm"),
        "gemm.rate_vs_blas": ratio(rate("gemm"), blas_gmacs),
        "conv.calls": per_task("conv", "calls"),
        "conv.self_ms": per_task("conv", "self_ns", 1e-6),
        "conv.macs": per_task("conv", "macs"),
        "conv.bytes_computed": per_task("conv", "bytes"),
        "conv.gmacs_per_s": rate("conv"),
        "conv.full_rank_snr_db": parts[0]["full_rank_snr_db"],
        "apps.self_ms": per_task("apps", "self_ns", 1e-6),
        "apps.kernel_calls": per_task("apps", "kernel_calls"),
        "io.load_s": setup_median("io.load_s"),
        "io.bytes_read": setup_median("io.bytes_read"),
        "costs.macs_model": model,
        "costs.model_over_measured": ratio(model, per_task("gemm", "macs")
                                           + per_task("conv", "macs")),
        "trace.overhead_pct": (traced_p50 / untraced_p50 - 1.0) * 100.0,
    }
    details = {
        "samples": {"untraced": len(untraced), "traced": n},
        "task_ms_p50": {"untraced": untraced_p50 * 1e3, "traced": traced_p50 * 1e3},
        "blas_gmacs_per_s": blas_gmacs,
    }
    return metrics, details


def run_workload(workload, seed, seconds, trace):
    import inputs
    directory = WORK / workload
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    inputs.generate(workload, seed, directory)

    parts = [_worker(workload, directory, trace, seconds, k) for k in range(PARTS)]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    metrics, details = per_layer(parts) if trace else end_to_end(parts, attempted, failed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    missing = set(declared) - set(metrics)
    if missing:
        raise RuntimeError(f"{workload}: metrics not measured: {sorted(missing)}")
    if not all(math.isfinite(v) for v in metrics.values()):
        raise RuntimeError(f"{workload}: a metric is not finite: {metrics}")
    details.update({
        "setup_samples_s": [p["setup"]["setup_s"] for p in parts],
        "full_rank_gemm_rel_err": max(p["full_rank_gemm_rel_err"] for p in parts),
        "failures": [f for p in parts for f in p["failures"]],
    })
    return {
        "workload": workload,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
        "details": details,
    }


def _print_table(record, trace):
    print(f"workload {record['workload']} ({'per-layer' if trace else 'end-to-end'})")
    for name, m in record["metrics"].items():
        print(f"  {name:28s} {m['value']:16.6g} {m['unit']}")
    failure_rate = record["failed"] / record["attempted"]
    print(f"  {'failure_rate':28s} {failure_rate:16.6g} "
          f"({record['failed']} of {record['attempted']} operations)")
    samples = record["details"].get("samples", {})
    print("  samples: " + ", ".join(f"{k}={v}" for k, v in samples.items()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time of one run (set-up and checks come on top)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no pkscale sources at {PACKAGE}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    env = environment(args.seed)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace)
        _print_table(record, args.trace)
        records.append(record)
    full = {"env": env, "seconds": args.seconds, "trace": args.trace, "runs": records}
    (WORK / "result.json").write_text(json.dumps(full, indent=1), encoding="utf-8")
    print(json.dumps({"env": env, "details": {r["workload"]: r["details"] for r in records}}))

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
