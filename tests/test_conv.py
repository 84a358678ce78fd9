import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pkscale import synth
from pkscale.config import PrecisionConfig, SampleMode
from pkscale.conv import (
    ConvDomain,
    ConvPlan,
    ConvVariant,
    _interp_uniform,
    alignment_calibrate,
    conv_direct,
    conv_fft,
    conv_overlap_save,
    conv_projected_blocked,
    conv_projected_peaks,
    conv_translate_project,
    cyclic_translate,
    permutation_matrix,
    project_kernel_bank,
)
from pkscale.costs import MacCounter
from pkscale.errors import (
    CalibrationFailed,
    DimensionMismatch,
    DomainError,
    IndexOutOfRange,
)
from pkscale.metrics import snr
from pkscale.projection import make_custom_pair, make_dct_pair, make_haar_pair

EXACT_ATOL = 1e-12

ALL_VARIANTS = [ConvVariant.CONV, ConvVariant.XCORR,
                ConvVariant.CIRC_CONV, ConvVariant.CIRC_XCORR]


def test_direct_conv_hand_value():
    out = conv_direct(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0]))
    assert_allclose(out, [1.0, 3.0, 5.0, 3.0])


def test_direct_xcorr_reverses_kernel():
    s = np.array([1.0, 2.0, 3.0, 4.0])
    k = np.array([1.0, 2.0])
    assert_allclose(conv_direct(s, k, ConvVariant.XCORR), np.convolve(s, k[::-1]))


def test_direct_circular_hand_values():
    # a one-sample kernel impulse makes the index conventions visible
    s = np.array([1.0, 2.0, 3.0, 4.0])
    k = np.zeros(4)
    k[1] = 1.0
    assert_allclose(conv_direct(s, k, ConvVariant.CIRC_CONV), [4.0, 1.0, 2.0, 3.0])
    assert_allclose(conv_direct(s, k, ConvVariant.CIRC_XCORR), [2.0, 1.0, 4.0, 3.0])


def test_direct_length_rules():
    with pytest.raises(DimensionMismatch):
        conv_direct(np.ones(2), np.ones(3))
    with pytest.raises(DimensionMismatch):
        conv_direct(np.ones(4), np.ones(3), ConvVariant.CIRC_CONV)
    with pytest.raises(DimensionMismatch):
        conv_direct(np.ones((2, 2)), np.ones(2))


def test_direct_counter_charges_products():
    counter = MacCounter()
    conv_direct(np.ones(10), np.ones(4), counter=counter)
    assert counter.count == 40
    counter = MacCounter()
    conv_direct(np.ones(6), np.ones(6), ConvVariant.CIRC_XCORR, counter=counter)
    assert counter.count == 36


def test_fft_matches_direct():
    rng = np.random.default_rng(2)
    s = rng.uniform(-1, 1, 777)
    k = rng.uniform(-1, 1, 40)
    assert_allclose(conv_fft(s, k), np.convolve(s, k), atol=1e-11)


@pytest.mark.parametrize("domain", [ConvDomain.TIME, ConvDomain.FREQ])
@pytest.mark.parametrize("block_len", [16, 41, 121])
def test_overlap_save_matches_direct(domain, block_len):
    rng = np.random.default_rng(4)
    s = rng.uniform(-1, 1, 500)
    k = rng.uniform(-1, 1, 16)
    plan = ConvPlan(block_len, 16, domain)
    assert_allclose(conv_overlap_save(s, k, plan), np.convolve(s, k), atol=1e-11)


def test_overlap_save_minimum_plan():
    plan = ConvPlan.minimum(40)
    assert plan.block_len == 121 and plan.kernel_len == 40
    rng = np.random.default_rng(5)
    s = rng.uniform(-1, 1, 1000)
    k = rng.uniform(-1, 1, 40)
    assert_allclose(conv_overlap_save(s, k, plan), np.convolve(s, k), atol=1e-11)


def test_overlap_save_validates_plan():
    with pytest.raises(DomainError):
        ConvPlan(3, 4)
    with pytest.raises(DomainError):
        ConvPlan(4, 0)
    plan = ConvPlan(10, 4)
    with pytest.raises(DimensionMismatch):
        conv_overlap_save(np.ones(20), np.ones(5), plan)


def test_permutation_matrix_rotates_left():
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert_allclose(v @ permutation_matrix(2, 5), [3.0, 4.0, 5.0, 1.0, 2.0])
    assert_allclose(permutation_matrix(0, 4), np.eye(4))
    assert_allclose(v @ permutation_matrix(2, 5), cyclic_translate(v, 2))


def test_translate_bounds():
    with pytest.raises(IndexOutOfRange):
        permutation_matrix(5, 5)
    with pytest.raises(IndexOutOfRange):
        cyclic_translate(np.ones(4), -1)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 11), st.integers(0, 11))
def test_permutation_composition_adds_indices(size, m, n):
    m %= size
    n %= size
    composed = permutation_matrix(m, size) @ permutation_matrix(n, size)
    assert_allclose(composed, permutation_matrix((m + n) % size, size))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("family", ["dct", "haar"])
def test_translate_project_full_equals_direct(variant, family):
    size = 4
    pair = make_dct_pair(size) if family == "dct" else make_haar_pair(size)
    rng = np.random.default_rng(6)
    if variant in (ConvVariant.CIRC_CONV, ConvVariant.CIRC_XCORR):
        a = rng.uniform(-1, 1, size)
        b = rng.uniform(-1, 1, size)
    else:
        a = rng.uniform(-1, 1, 17)
        b = rng.uniform(-1, 1, 5)
    cfg = PrecisionConfig(size, size)
    assert_allclose(conv_translate_project(a, b, pair, cfg, variant),
                    conv_direct(a, b, variant), atol=EXACT_ATOL)


def test_translate_project_truncation_is_additive():
    pair = make_dct_pair(4)
    rng = np.random.default_rng(7)
    a = rng.uniform(-1, 1, 4)
    b = rng.uniform(-1, 1, 4)
    outs = [conv_translate_project(a, b, pair, PrecisionConfig(4, p),
                                   ConvVariant.CIRC_XCORR)
            for p in range(1, 5)]
    # each extra projection adds one rank-slice contribution on top of the last
    for p in range(1, 4):
        extra = outs[p] - outs[p - 1]
        translated = np.stack([cyclic_translate(a, n) for n in range(4)])
        contrib = (translated @ pair.forward[:, p]) * (pair.inverse[p] @ b)
        placed = np.empty(4)
        for n in range(4):
            placed[(4 - n) % 4] = contrib[n]
        assert_allclose(extra, placed, atol=EXACT_ATOL)


def test_translate_project_circular_needs_pair_size():
    pair = make_dct_pair(4)
    with pytest.raises(DimensionMismatch):
        conv_translate_project(np.ones(8), np.ones(8), pair,
                               PrecisionConfig(4, 4), ConvVariant.CIRC_CONV)


@pytest.mark.parametrize("family,make", [("dct", make_dct_pair),
                                         ("haar", make_haar_pair)])
@pytest.mark.parametrize("size", [2, 4, 8])
def test_calibration_offsets_are_identity_ramp(family, make, size):
    assert alignment_calibrate(make(size)) == tuple(range(size))


def test_calibration_offsets_are_identity_ramp_for_random_pairs():
    # conv_projected_peaks relies on every placement offset being >= 0
    rng = np.random.default_rng(2024)
    for _ in range(50):
        size = int(rng.integers(2, 17))
        pair = make_custom_pair(rng.standard_normal((size, size)))
        assert alignment_calibrate(pair) == tuple(range(size))


def test_calibration_rejects_swap_pair():
    swap = make_custom_pair(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(CalibrationFailed):
        alignment_calibrate(swap)


def test_interp_matches_numpy_interp():
    rng = np.random.default_rng(0)
    grid = np.arange(40)
    for offset in (-5, -1, 0, 2, 7):
        for stride in (2, 3, 5):
            for m in (1, 2, 9):
                stream = rng.uniform(-1, 1, m)
                got = _interp_uniform(40, offset, stride, stream, np.float64)
                want = np.interp(grid, offset + stride * np.arange(m), stream)
                assert_allclose(got, want, atol=EXACT_ATOL)


def test_blocked_requires_divisible_kernel():
    pair = make_haar_pair(2)
    with pytest.raises(DimensionMismatch):
        conv_projected_blocked(np.ones(20), np.ones(5), pair, PrecisionConfig(2, 1))


def test_blocked_output_snr_on_smooth_data():
    # frozen seed: both sampling modes recover the low-frequency reference
    # well, and neither is exact even with every projection kept
    pair = make_haar_pair(2)
    rng = np.random.default_rng(1)
    s = synth.ar_signal(600, rng)
    k = synth.ar_signal(40, rng)
    ref = np.convolve(s, k)
    for used in (1, 2):
        for mode in (SampleMode.HALF_INTERPOLATE, SampleMode.ALL_PHASES):
            cfg = PrecisionConfig(2, used, sample_mode=mode)
            out = conv_projected_blocked(s, k, pair, cfg)
            assert out.shape == ref.shape
            report = snr(ref, out)
            assert 20.0 < report.snr_db < 60.0
            assert not report.exact


def test_blocked_all_phases_covers_more_positions_than_one_phase():
    pair = make_haar_pair(2)
    rng = np.random.default_rng(9)
    s = synth.ar_signal(200, rng)
    k = synth.ar_signal(20, rng)
    all_out = conv_projected_blocked(s, k, pair, PrecisionConfig(2, 1))
    # stride-2 placement with per-phase offsets 0 and 1 fills the whole range
    assert np.count_nonzero(all_out) > 200


def test_blocked_counter_convention():
    pair = make_haar_pair(2)
    s = np.ones(20)
    k = np.ones(4)
    counter = MacCounter()
    conv_projected_blocked(s, k, pair,
                           PrecisionConfig(2, 1, SampleMode.HALF_INTERPOLATE),
                           counter=counter)
    # kernel projection: 4; phase-0 signal projection: 20; products: 10 * 2
    assert counter.count == 4 + 20 + 20
    counter = MacCounter()
    conv_projected_blocked(s, k, pair,
                           PrecisionConfig(2, 1, SampleMode.ALL_PHASES),
                           counter=counter)
    # phase 1 sees 19 real samples and the same compact product
    assert counter.count == 4 + (20 + 20) + (19 + 20)


def test_blocked_preserves_float32():
    pair = make_haar_pair(2)
    s = np.ones(16, dtype=np.float32)
    k = np.ones(4, dtype=np.float32)
    out = conv_projected_blocked(s, k, pair, PrecisionConfig(2, 1))
    assert out.dtype == np.float32


@pytest.mark.parametrize("mode", list(SampleMode))
@pytest.mark.parametrize("family,make", [("dct", make_dct_pair),
                                         ("haar", make_haar_pair)])
def test_peaks_match_blocked_kernel_per_kernel(mode, family, make):
    rng = np.random.default_rng(31)
    pair = make(4)
    cfg = PrecisionConfig(4, 2, sample_mode=mode)
    kernels = rng.standard_normal((5, 12))
    bank = project_kernel_bank(kernels, pair, 2)
    assert bank.shape == (2 * 3, 5)
    for slen in (12, 13, 30):
        s = rng.standard_normal(slen)
        want = [np.abs(conv_projected_blocked(s, k, pair, cfg)).max() for k in kernels]
        assert_allclose(conv_projected_peaks(s, bank, 12, pair, cfg), want,
                        rtol=1e-12, atol=0)


def test_peaks_validate_bank_and_lengths():
    pair = make_haar_pair(2)
    cfg = PrecisionConfig(2, 1)
    with pytest.raises(DimensionMismatch):
        project_kernel_bank(np.ones((2, 5)), pair, 1)
    bank = project_kernel_bank(np.ones((2, 8)), pair, 1)
    with pytest.raises(DimensionMismatch):
        conv_projected_peaks(np.ones(16), bank, 8, pair, PrecisionConfig(2, 2))
    with pytest.raises(DimensionMismatch):
        conv_projected_peaks(np.ones(6), bank, 8, pair, cfg)
    with pytest.raises(DomainError):
        conv_projected_peaks(np.ones(16), bank, 8, pair, PrecisionConfig(4, 1))
