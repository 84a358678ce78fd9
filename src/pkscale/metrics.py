"""Accuracy and throughput measurement."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, ZeroReference

SNR_CAP_DB = 300.0   # double precision cannot meaningfully exceed this


@dataclass(frozen=True)
class SnrReport:
    snr_db: float
    mse: float
    samples: int
    exact: bool


def snr(reference, approx):
    """Signal-to-noise ratio of ``approx`` against ``reference`` in dB.

    ``10 log10(sum r^2 / sum (r - r_hat)^2)``, capped at 300 dB; a zero-error
    comparison reports the cap with the ``exact`` flag set. The reference
    must carry nonzero energy.
    """
    r = np.asarray(reference, dtype=np.float64).ravel()
    a = np.asarray(approx, dtype=np.float64).ravel()
    if r.shape != a.shape:
        raise DimensionMismatch(f"shape mismatch: {r.shape} vs {a.shape}")
    energy = float(r @ r)
    if energy == 0.0:
        raise ZeroReference("reference signal has zero energy")
    err = r - a
    err_energy = float(err @ err)
    n = r.shape[0]
    if err_energy == 0.0:
        return SnrReport(SNR_CAP_DB, 0.0, n, True)
    value = 10.0 * math.log10(energy / err_energy)
    return SnrReport(min(value, SNR_CAP_DB), err_energy / n, n, False)


@dataclass(frozen=True)
class ThroughputReport:
    samples: int
    median_seconds: float
    mean_seconds: float
    msamples_per_sec: float
    repetitions: int
    low_confidence: bool


def _sample_count(result):
    if hasattr(result, "size"):
        return int(result.size)
    if isinstance(result, (int, np.integer)):
        return int(result)
    return len(result)


def measure_throughput(task, repetitions=100):
    """Median-of-repetitions wall time of a deterministic zero-arg task.

    One warm-up call is excluded from timing; its return value supplies the
    output sample count. Each result is held until the next call returns, as
    a caller that keeps its results would: freed at once, a large result's
    pages can go back to the OS and be faulted in again by the next call.
    Throughput is samples / median seconds / 1e6. A single-repetition
    measurement is flagged low-confidence.
    """
    if repetitions < 1:
        raise DomainError(f"repetitions must be >= 1, got {repetitions}")
    result = task()
    samples = _sample_count(result)
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        result = task()
        times.append(time.perf_counter() - t0)
    median = max(statistics.median(times), 1e-12)
    mean = sum(times) / len(times)
    return ThroughputReport(
        samples=samples,
        median_seconds=median,
        mean_seconds=mean,
        msamples_per_sec=samples / median / 1e6,
        repetitions=repetitions,
        low_confidence=repetitions == 1,
    )
