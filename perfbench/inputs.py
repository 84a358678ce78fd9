"""Seeded input generation for the benchmark workloads.

Runs in the orchestrating process, never in the measured one: it imports
``pkscale.synth`` (and the demo generators in ``pkscale.cli``), which would
otherwise warm the measured interpreter's import cache. Everything is derived
from ``numpy.random.default_rng(seed)``, so one seed always gives one input set.
The measured process loads the ``.npz`` files with numpy alone; ``match-db``
additionally gets its database as PKSB files plus a manifest, which its setup
reads through ``FeatureDb.from_manifest``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from pkscale import cli, io, synth
from workloads import (CONV_KERNEL, CONV_POOL, CONV_SIGNAL, EXACT_CHECK_N, GEMM_N,
                       GEMM_POOL, MATCH_ENTRIES, MATCH_ENTRY_LEN, MATCH_NOISE_DB,
                       MATCH_QUERIES, MATCH_QUERY_LEN)


def _gemm_fresh(rng, out):
    pairs = [synth.ar_matrix_pair(GEMM_N, GEMM_N, GEMM_N, rng) for _ in range(GEMM_POOL)]
    np.savez(out / "inputs.npz",
             left=np.stack([a for a, _ in pairs]),
             right=np.stack([b for _, b in pairs]))


def _conv_long(rng, out):
    signals = np.stack([synth.ar_signal(CONV_SIGNAL, rng) for _ in range(CONV_POOL)])
    kernels = np.stack([synth.ar_signal(CONV_KERNEL, rng) for _ in range(CONV_POOL)])
    np.savez(out / "inputs.npz", signals=signals, kernels=kernels)


def _match_db(rng, out):
    db = cli.synth_feature_db(MATCH_ENTRIES, MATCH_ENTRY_LEN, rng)
    queries = cli.synth_queries(db, MATCH_QUERIES, MATCH_QUERY_LEN, rng, MATCH_NOISE_DB)
    entry_dir = out / "db"
    entry_dir.mkdir()
    lines = []
    for entry_id, signal in db.entries:
        io.save_signal(entry_dir / f"{entry_id}.pksb", signal, binary=True)
        lines.append(f"{entry_id}\tdb/{entry_id}.pksb")
    (out / "manifest.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    np.savez(out / "inputs.npz",
             queries=np.stack([q for _, q in queries]),
             truth=np.array([t for t, _ in queries]))


GENERATORS = {
    "gemm-fresh": _gemm_fresh,
    "conv-long": _conv_long,
    "match-db": _match_db,
}


def generate(workload, seed, out):
    """Write the inputs of ``workload`` for ``seed`` into the empty directory ``out``."""
    out = Path(out)
    rng = np.random.default_rng(seed)
    GENERATORS[workload](rng, out)
    a, b = synth.ar_matrix_pair(EXACT_CHECK_N, EXACT_CHECK_N, EXACT_CHECK_N, rng)
    np.savez(out / "exact_check.npz", left=a, right=b)
