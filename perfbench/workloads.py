"""The benchmark workloads, as seen from the measured process.

Importing this module loads numpy only. Each workload's ``setup`` is the part
of the cold start that ``setup_s`` times: it imports pkscale and builds what
the first task needs. Everything else (baseline preparation, checks) runs
after that clock has stopped.

Kernels are looked up through their module at call time (``self.gemm.
gemm_projected``), so the traced run's wrappers see the benchmark's own calls
as well as the calls the package makes internally.
"""

from __future__ import annotations

import math

import numpy as np

# Geometry of each workload; see README.md for why each was chosen.
GEMM_N = 512
GEMM_POOL = 8
CONV_SIGNAL = 200_000
CONV_KERNEL = 600
CONV_POOL = 8
MATCH_ENTRIES = 64
MATCH_ENTRY_LEN = 256
MATCH_QUERIES = 256
MATCH_QUERY_LEN = 2048
MATCH_NOISE_DB = 10.0
# Operands of the per-run full-rank GEMM exactness check.
EXACT_CHECK_N = 96
SNR_QUERIES = 32        # match-db queries whose correlations feed snr_db
# Queries handled per match-db task. On a shared machine whose speed swings
# within a second, the times of short tasks split into a fast and a slow mode,
# and their median jumped between runs (by 27% over ten runs with 4 queries);
# a task of about 80 ms averages over the swings.
MATCH_BATCH = 16
BLOCK = 64              # block size of the conventional blocked GEMM check
# Measured processes per run. Each is a fresh interpreter that times its own
# set-up (setup_s is their median), checks every PARTS-th pool item and
# measures a third of --seconds; their samples are pooled, so a run's figures
# span its whole wall time and three process layouts instead of one.
PARTS = 3
MIN_TASKS = 100         # per run, so that p90 has ten samples above it


class Ops:
    """Attempted and failed operations of one run; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)


def _signs(y):
    """Decisions of a kernel workload: the sign of every output sample, as a
    zero-threshold detector would take them. Ground truth is the exact
    result's signs, so match_rate and agreement_rate coincide there."""
    return y > 0


class Workload:
    name = ""

    def load(self, directory):
        """Read the generated inputs with numpy alone (before any clock)."""
        raise NotImplementedError

    def setup(self, inputs):
        """Imports and one-time preparation of the pkscale path (timed)."""
        raise NotImplementedError

    def prepare_baselines(self):
        """One-time preparation of the exact baselines (untimed)."""

    def task(self, i):
        raise NotImplementedError

    def valid(self, out):
        """Finite output of the documented shape."""
        raise NotImplementedError

    def baselines(self):
        """name -> callable(i) computing the same task on an exact path."""
        raise NotImplementedError

    def check(self, ops, part, parts):
        """Untimed pass over this process's share (every ``parts``-th item,
        from ``part``) of the pool, recording every output and decision check
        in ``ops``. Returns the per-task SNRs, the decisions equal to the
        ground truth, those equal to the exact pipeline's, and the decision
        count."""
        raise NotImplementedError

    def macs_model(self):
        """Closed-form MACs of one task from pkscale.costs."""
        raise NotImplementedError

    def blas(self):
        """(MACs per call, callable(i)) of ``a @ b`` on the task's GEMM
        geometry, or None when the workload calls no GEMM."""
        return None

    def full_rank_snr(self):
        """SNR of the projected convolution at p = L on the workload's
        inputs, or 0.0 when the workload calls no convolution."""
        return 0.0


class GemmFresh(Workload):
    name = "gemm-fresh"
    size, used = 8, 4

    def load(self, directory):
        z = np.load(directory / "inputs.npz")
        return {"left": z["left"], "right": z["right"]}

    def setup(self, inputs):
        from pkscale import gemm, projection
        from pkscale.config import PrecisionConfig
        self.gemm = gemm
        self.pair = projection.make_dct_pair(self.size)
        self.cfg = PrecisionConfig(self.size, self.used)
        self.left, self.right = inputs["left"], inputs["right"]
        self.pool = self.left.shape[0]

    def task(self, i):
        return self.gemm.gemm_projected(self.left[i], self.right[i], self.pair, self.cfg)

    def valid(self, out):
        return out.shape == (GEMM_N, GEMM_N) and bool(np.isfinite(out).all())

    def baselines(self):
        left, right = self.left, self.right
        return {"a@b": lambda i: left[i] @ right[i]}

    def check(self, ops, part, parts):
        from pkscale.metrics import snr
        snrs, hits, total = [], 0, 0
        for i in range(part, self.pool, parts):
            out = self.task(i)
            ops.record(self.valid(out), f"pool {i}: invalid output")
            exact = self.left[i] @ self.right[i]
            blocked = self.gemm.gemm_conventional(self.left[i], self.right[i], BLOCK)
            truth = _signs(exact)
            ops.record(np.array_equal(truth, _signs(blocked)),
                       f"pool {i}: a @ b decisions differ from gemm_conventional")
            snrs.append(snr(exact, out).snr_db)
            hits += int((_signs(out) == truth).sum())
            total += truth.size
        return snrs, hits, hits, total

    def macs_model(self):
        from pkscale.costs import mac_gemm_proj_general
        return mac_gemm_proj_general(GEMM_N, GEMM_N, GEMM_N, self.used - 1, self.size)

    def blas(self):
        return GEMM_N ** 3, self.baselines()["a@b"]


class ConvLong(Workload):
    name = "conv-long"
    size, used = 4, 2

    def load(self, directory):
        z = np.load(directory / "inputs.npz")
        return {"signals": z["signals"], "kernels": z["kernels"]}

    def setup(self, inputs):
        from pkscale import conv, projection
        from pkscale.config import PrecisionConfig, SampleMode
        self.conv = conv
        self.pair = projection.make_dct_pair(self.size)
        self.cfg = PrecisionConfig(self.size, self.used, sample_mode=SampleMode.ALL_PHASES)
        self.full = PrecisionConfig(self.size, self.size, sample_mode=SampleMode.ALL_PHASES)
        self.signals, self.kernels = inputs["signals"], inputs["kernels"]
        self.pool = self.signals.shape[0]

    def task(self, i):
        return self.conv.conv_projected_blocked(self.signals[i], self.kernels[i],
                                                self.pair, self.cfg)

    def valid(self, out):
        return (out.shape == (CONV_SIGNAL + CONV_KERNEL - 1,)
                and bool(np.isfinite(out).all()))

    def prepare_baselines(self):
        import scipy.signal
        self.oaconvolve = scipy.signal.oaconvolve

    def baselines(self):
        s, k, conv = self.signals, self.kernels, self.conv
        return {"oaconvolve": lambda i: self.oaconvolve(s[i], k[i]),
                "conv_fft": lambda i: conv.conv_fft(s[i], k[i])}

    def check(self, ops, part, parts):
        from pkscale.metrics import snr
        snrs, hits, total = [], 0, 0
        baselines = self.baselines()
        for i in range(part, self.pool, parts):
            out = self.task(i)
            ops.record(self.valid(out), f"pool {i}: invalid output")
            exact = self.conv.conv_direct(self.signals[i], self.kernels[i])
            truth = _signs(exact)
            for name, fn in baselines.items():
                ops.record(np.array_equal(_signs(fn(i)), truth),
                           f"pool {i}: {name} decisions differ from conv_direct")
            snrs.append(snr(exact, out).snr_db)
            hits += int((_signs(out) == truth).sum())
            total += truth.size
        return snrs, hits, hits, total

    def macs_model(self):
        # The closed form covers one minimum overlap-save block, which yields
        # 2N steady-state outputs; scale it to the task's output length.
        from pkscale.costs import mac_conv_proj_time
        blocks = -(-(CONV_SIGNAL + CONV_KERNEL - 1) // (2 * CONV_KERNEL))
        return blocks * mac_conv_proj_time(CONV_KERNEL, self.used - 1, self.size)

    def full_rank_snr(self):
        from pkscale.metrics import snr
        s, k = self.signals[0], self.kernels[0]
        full = self.conv.conv_projected_blocked(s, k, self.pair, self.full)
        return snr(self.conv.conv_direct(s, k), full).snr_db


class MatchDb(Workload):
    name = "match-db"
    size, used = 2, 1

    def load(self, directory):
        z = np.load(directory / "inputs.npz")
        return {"queries": z["queries"], "truth": [str(t) for t in z["truth"]],
                "manifest": directory / "manifest.tsv"}

    def setup(self, inputs):
        from pkscale import apps, projection
        from pkscale.config import PrecisionConfig, SampleMode
        self.apps = apps
        self.pair = pair = projection.make_haar_pair(self.size)
        half = SampleMode.HALF_INTERPOLATE
        self.mode = apps.ConvMode(pair=pair, config=PrecisionConfig(
            self.size, self.used, sample_mode=half))
        self.full_mode = apps.ConvMode(pair=pair, config=PrecisionConfig(
            self.size, self.size, sample_mode=half))
        self.db = apps.FeatureDb.from_manifest(inputs["manifest"])
        self.queries, self.truth = inputs["queries"], inputs["truth"]
        self.batches = [range(b, b + MATCH_BATCH)
                        for b in range(0, self.queries.shape[0], MATCH_BATCH)]
        self.pool = len(self.batches)

    def _match(self, j):
        return self.apps.xcorr_match(self.queries[j], self.db, mode=self.mode)

    def _valid_one(self, out):
        return out[0] in self.ids and math.isfinite(out[1])

    def task(self, i):
        return [self._match(j) for j in self.batches[i]]

    def valid(self, out):
        return len(out) == MATCH_BATCH and all(self._valid_one(o) for o in out)

    def prepare_baselines(self):
        import scipy.fft
        self.ids = [entry_id for entry_id, _ in self.db.entries]
        entries = np.stack([signal for _, signal in self.db.entries])
        self.energy = np.sum(entries * entries, axis=1)
        self.nfft = scipy.fft.next_fast_len(MATCH_QUERY_LEN + MATCH_ENTRY_LEN - 1, real=True)
        self.spectra = np.conj(scipy.fft.rfft(entries, self.nfft, axis=1))
        self.fft = scipy.fft

    def _fft_match(self, j):
        # Full cross-correlation against every entry at once: the transform
        # is long enough that no lag wraps around.
        fft = self.fft
        corr = fft.irfft(fft.rfft(self.queries[j], self.nfft) * self.spectra,
                         self.nfft, axis=1)
        return self.ids[int(np.argmax(np.abs(corr).max(axis=1) / self.energy))]

    def baselines(self):
        return {"fft-correlate": lambda i: [self._fft_match(j) for j in self.batches[i]]}

    def _query_snr(self, j, mode):
        """SNR of query j's correlations with every entry, taken together.
        (The lowest of the per-entry SNRs is set by the database's worst
        entry, so it varied with the seed twice as much.)"""
        from pkscale.metrics import snr
        exact = self.apps.ConvMode()
        q = self.queries[j]
        pairs = [(exact.correlate(q, s), mode.correlate(q, s)) for _, s in self.db.entries]
        return snr(np.concatenate([x for x, _ in pairs]),
                   np.concatenate([y for _, y in pairs])).snr_db

    def check(self, ops, part, parts):
        exact = self.apps.ConvMode()
        match = agree = count = 0
        for j in range(part, self.queries.shape[0], parts):
            out = self._match(j)
            ops.record(self._valid_one(out), f"query {j}: invalid output")
            conventional = self.apps.xcorr_match(self.queries[j], self.db, mode=exact)[0]
            ops.record(self._fft_match(j) == conventional,
                       f"query {j}: fft-correlate decision differs from the conventional pipeline")
            match += out[0] == self.truth[j]
            agree += out[0] == conventional
            count += 1
        snrs = [self._query_snr(j, self.mode) for j in range(part, SNR_QUERIES, parts)]
        return snrs, match, agree, count

    def macs_model(self):
        from pkscale.costs import mac_conv_proj_time
        blocks = -(-(MATCH_QUERY_LEN + MATCH_ENTRY_LEN - 1) // (2 * MATCH_ENTRY_LEN))
        per_entry = blocks * mac_conv_proj_time(MATCH_ENTRY_LEN, self.used - 1, self.size)
        return MATCH_BATCH * len(self.db.entries) * per_entry

    def full_rank_snr(self):
        return self._query_snr(0, self.full_mode)


WORKLOADS = {w.name: w for w in (GemmFresh, ConvLong, MatchDb)}
