import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkscale.errors import DimensionMismatch, DomainError, ZeroReference
from pkscale.metrics import SNR_CAP_DB, measure_throughput, snr


def test_snr_hand_value():
    # energy 25 against squared error 0.25 is a ratio of 100, i.e. 20 dB
    report = snr([3.0, 4.0], [3.0, 4.5])
    assert report.snr_db == pytest.approx(20.0, abs=1e-12)
    assert report.mse == pytest.approx(0.125)
    assert report.samples == 2
    assert not report.exact


def test_snr_exact_reports_cap():
    report = snr([1.0, -2.0], [1.0, -2.0])
    assert report.snr_db == SNR_CAP_DB == 300.0
    assert report.mse == 0.0
    assert report.exact


def test_snr_caps_near_machine_precision():
    report = snr([1.0], [np.nextafter(1.0, 2.0)])
    assert report.snr_db == SNR_CAP_DB
    assert not report.exact


def test_snr_zero_reference_rejected():
    with pytest.raises(ZeroReference):
        snr(np.zeros(4), np.ones(4))


def test_snr_shape_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        snr(np.ones(3), np.ones(4))


def test_snr_flattens_matrices():
    report = snr(np.ones((2, 2)), np.ones((2, 2)) * 1.5)
    assert report.samples == 4
    assert report.snr_db == pytest.approx(10.0 * np.log10(4.0))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3), st.integers(2, 30))
def test_snr_is_scale_invariant(scale, n):
    rng = np.random.default_rng(n)
    r = rng.uniform(-1, 1, n) + 2.0
    a = r + rng.uniform(-0.1, 0.1, n)
    base = snr(r, a).snr_db
    scaled = snr(scale * r, scale * a).snr_db
    assert scaled == pytest.approx(base, abs=1e-6)


def test_throughput_counts_samples_and_reps():
    report = measure_throughput(lambda: np.zeros(1000), repetitions=5)
    assert report.samples == 1000
    assert report.repetitions == 5
    assert report.median_seconds > 0.0
    assert report.mean_seconds > 0.0
    assert report.msamples_per_sec == pytest.approx(
        1000 / report.median_seconds / 1e6)
    assert not report.low_confidence


def test_throughput_single_rep_low_confidence():
    assert measure_throughput(lambda: np.zeros(4), repetitions=1).low_confidence


def test_throughput_accepts_scalar_counts():
    report = measure_throughput(lambda: 64, repetitions=2)
    assert report.samples == 64


def test_throughput_rejects_zero_reps():
    with pytest.raises(DomainError):
        measure_throughput(lambda: np.zeros(4), repetitions=0)


def test_throughput_holds_previous_result_during_next_call():
    held = []
    previous = []

    def task():
        held.append(bool(previous) and previous[-1]() is not None)
        out = np.zeros(1 << 16)
        previous.append(weakref.ref(out))
        return out

    measure_throughput(task, repetitions=4)
    # the warm-up call found nothing before it; every timed call found the
    # result of the call before it still alive
    assert held == [False, True, True, True, True]
