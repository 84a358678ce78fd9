import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pkscale import synth
from pkscale.config import PrecisionConfig, SampleMode
from pkscale import conv
from pkscale.conv import (
    ConvDomain,
    ConvPlan,
    ConvVariant,
    _interp_uniform,
    conv_direct,
    conv_fft,
    conv_overlap_save,
    conv_projected_blocked,
    conv_projected_peaks,
    conv_translate_project,
    cyclic_translate,
    project_kernel_bank,
)
from pkscale.costs import MacCounter, mac_conv_proj_general
from pkscale.errors import (
    DimensionMismatch,
    DomainError,
    IndexOutOfRange,
)
from pkscale.metrics import snr
from pkscale.projection import (
    make_custom_pair,
    make_dct_pair,
    make_haar_pair,
    project_signal,
)

from pair_cases import pair_geometry, random_pair

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


def test_translate_bounds():
    with pytest.raises(IndexOutOfRange):
        cyclic_translate(np.ones(4), -1)


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


def _full_rank_error(s, k, pair):
    """Max relative error of ALL_PHASES at p = L against np.convolve."""
    out = conv_projected_blocked(s, k, pair, PrecisionConfig(pair.size, pair.size))
    ref = np.convolve(s.astype(np.float64), k.astype(np.float64))
    return float(np.abs(out - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("family,make", [("dct", make_dct_pair),
                                         ("haar", make_haar_pair)])
@pytest.mark.parametrize("size", [2, 4, 8])
def test_blocked_full_projections_equal_direct(family, make, size):
    rng = np.random.default_rng(size)
    pair = make(size)
    s = rng.standard_normal(200)
    for klen in (1, size, 3 * size + 1, 37):
        assert _full_rank_error(s, rng.standard_normal(klen), pair) < EXACT_ATOL


def test_blocked_full_projections_equal_direct_for_random_pairs():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        size = int(rng.integers(2, 17))
        pair = make_custom_pair(rng.standard_normal((size, size)))
        s = rng.standard_normal(int(rng.integers(size, 120)))
        k = rng.standard_normal(int(rng.integers(1, s.shape[0] + 1)))
        assert _full_rank_error(s, k, pair) < EXACT_ATOL


def test_blocked_full_projections_equal_direct_for_swap_pair():
    swap = make_custom_pair(np.array([[0.0, 1.0], [1.0, 0.0]]))
    rng = np.random.default_rng(3)
    assert _full_rank_error(rng.standard_normal(30), rng.standard_normal(7),
                            swap) < EXACT_ATOL


@settings(max_examples=60, deadline=None)
@given(pair_geometry, st.data())
def test_blocked_full_projections_exact_property(geometry, data):
    family, size, seed, dtype = geometry
    pair = random_pair(family, size, seed)
    slen = data.draw(st.integers(size, 90))
    klen = data.draw(st.integers(1, slen))
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(slen).astype(dtype)
    k = rng.standard_normal(klen).astype(dtype)
    # float32 rounds every stage at about 6e-8
    assert _full_rank_error(s, k, pair) < (EXACT_ATOL if dtype == np.float64 else 1e-5)


@st.composite
def peaks_case(draw):
    family, size, seed, dtype = draw(pair_geometry)
    used = draw(st.integers(1, size))
    slen = draw(st.integers(size, 90))
    klen = draw(st.integers(1, slen))
    return family, size, seed, dtype, used, slen, klen


@settings(max_examples=60, deadline=None)
@given(peaks_case(), st.sampled_from(list(SampleMode)))
# float32 peak of about 1.1e-3 left by cancellation of terms near 0.27
@example(("dct", 2, 7, np.float32, 2, 2, 1), SampleMode.HALF_INTERPOLATE)
def test_peaks_equal_blocked_peaks_property(case, mode):
    family, size, seed, dtype, used, slen, klen = case
    pair = random_pair(family, size, seed)
    cfg = PrecisionConfig(size, used, sample_mode=mode)
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(slen).astype(dtype)
    kernels = rng.standard_normal((3, klen)).astype(dtype)
    banks = [project_kernel_bank(kernels, pair, cfg.projections_used, phase)
             for phase in cfg.phases()]
    want = np.array([np.abs(conv_projected_blocked(s, k, pair, cfg)).max() for k in kernels],
                    dtype=np.float64)
    got = conv_projected_peaks(s, banks, klen, pair, cfg).astype(np.float64)
    if dtype == np.float64:
        assert_allclose(got, want, rtol=1e-12, atol=0)
    else:
        # float32 rounds every stage at about 6e-8 of the operands, and both
        # paths round differently, so a peak that cancels far below its
        # operands is bounded by their scale, not by its own size
        atol = 1e-5 * np.abs(s).max() * np.abs(kernels.astype(np.float64)).sum(axis=1)
        assert np.all(np.abs(got - want) <= 1e-5 * np.abs(want) + atol), (got, want)


def _per_index_oracle(s, k, pair, cfg):
    """The projected convolution one compact convolution at a time:
    ``y[j*L + r] = sum_l (sc_l * kd_{r,l})[j]`` with ``sc_l`` the single-index
    signal projection and ``kd_{r,l}[q] = sum_t D[l, t] k[q*L + r - t]``
    built here from its definition, in float64."""
    s = s.astype(np.float64)
    k = k.astype(np.float64)
    size, used = pair.size, cfg.projections_used
    out_len = s.shape[0] + k.shape[0] - 1
    compact_len = -(-(k.shape[0] + size - 1) // size)
    sc = [project_signal(s, pair, l) for l in range(used)]
    taps = np.arange(compact_len)[:, None] * size - np.arange(size)[None, :]
    out = np.zeros(out_len)
    for phase in cfg.phases():
        where = taps + phase
        groups = np.where((where >= 0) & (where < k.shape[0]),
                          k[np.clip(where, 0, k.shape[0] - 1)], 0.0)
        stream = sum(np.convolve(sc[l], groups @ pair.inverse[l]) for l in range(used))
        kept = -(-(out_len - phase) // size)
        out[phase::size] = stream[:kept]
    if cfg.sample_mode is SampleMode.HALF_INTERPOLATE:
        kept = -(-out_len // size)
        out = np.interp(np.arange(out_len), size * np.arange(kept), out[::size])
    return out


def _assert_matches_oracle(got, s, k, pair, cfg):
    want = _per_index_oracle(s, k, pair, cfg)
    assert got.shape == want.shape
    if got.dtype == np.float64:
        bound = 1e-12 * np.abs(want).max()
    else:
        # float32 rounds every stage at about 6e-8 of the operands
        bound = 1e-5 * np.abs(s).max() * np.abs(k.astype(np.float64)).sum()
    assert np.abs(got - want).max() <= bound


@st.composite
def blocked_case(draw):
    family, size, seed, dtype = draw(pair_geometry)
    used = draw(st.integers(1, size))
    slen = draw(st.integers(size, 300))
    klen = draw(st.integers(1, slen))
    return family, size, seed, dtype, used, slen, klen


@settings(max_examples=80, deadline=None)
@given(blocked_case(), st.sampled_from(list(SampleMode)))
def test_blocked_equals_per_index_oracle_property(case, mode):
    family, size, seed, dtype, used, slen, klen = case
    pair = random_pair(family, size, seed)
    cfg = PrecisionConfig(size, used, sample_mode=mode)
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(slen).astype(dtype)
    k = rng.standard_normal(klen).astype(dtype)
    counter = MacCounter()
    got = conv_projected_blocked(s, k, pair, cfg, counter=counter)
    assert got.dtype == dtype
    _assert_matches_oracle(got, s, k, pair, cfg)
    assert counter.count == mac_conv_proj_general(slen, klen, size, used, len(cfg.phases()))


@pytest.mark.parametrize("mode", list(SampleMode))
@pytest.mark.parametrize("used", [1, 2, 4])
def test_blocked_equals_oracle_across_segments_and_chunks(mode, used):
    # Q = 626 compact taps: more than one Toeplitz segment, and (in all but
    # the half-rate p = 1, 2 cases) more output rows than one chunk holds
    assert -(-(2500 + 3) // 4) > conv.CONV_SEGMENT_TAPS
    rng = np.random.default_rng(6000)
    pair = make_dct_pair(4)
    cfg = PrecisionConfig(4, used, sample_mode=mode)
    s = rng.standard_normal(6000)
    k = rng.standard_normal(2500)
    _assert_matches_oracle(conv_projected_blocked(s, k, pair, cfg), s, k, pair, cfg)


def test_blocked_scratch_memory_stays_near_output_size():
    # Without tap segments the Toeplitz operand alone holds B copies of the
    # compact kernel (about 39x the output here). Allowed: a few arrays of the
    # output's size (signal and kernel projections, padding, the product),
    # plus one tap segment's Toeplitz matrix and one chunk of windows.
    rng = np.random.default_rng(20)
    pair = make_haar_pair(2)
    cfg = PrecisionConfig(2, 2)
    s = rng.standard_normal(20_000)
    k = rng.standard_normal(20_000)
    conv_projected_blocked(s, k, pair, cfg)
    tracemalloc.start()
    try:
        out = conv_projected_blocked(s, k, pair, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * out.nbytes + 2 * 2**20


def test_interp_matches_numpy_interp():
    rng = np.random.default_rng(0)
    grid = np.arange(40)
    for stride in (2, 3, 5):
        for m in (1, 2, 9, 30):
            stream = rng.uniform(-1, 1, m)
            got = _interp_uniform(40, stride, stream, np.float64)
            want = np.interp(grid, stride * np.arange(m), stream)
            assert_allclose(got, want, atol=EXACT_ATOL)


def test_blocked_accepts_any_kernel_length():
    pair = make_haar_pair(2)
    s = np.ones(20)
    for klen in (1, 5, 20):
        k = np.arange(1.0, klen + 1.0)
        for mode in SampleMode:
            out = conv_projected_blocked(s, k, pair, PrecisionConfig(2, 1, mode))
            assert out.shape == (20 + klen - 1,)
        assert_allclose(conv_projected_blocked(s, k, pair, PrecisionConfig(2, 2)),
                        np.convolve(s, k), rtol=0, atol=EXACT_ATOL)


def test_blocked_output_snr_on_smooth_data():
    # frozen seed: one projection recovers the low-frequency reference well
    # in both sampling modes, and every projection recovers it exactly
    pair = make_haar_pair(2)
    rng = np.random.default_rng(1)
    s = synth.ar_signal(600, rng)
    k = synth.ar_signal(40, rng)
    ref = np.convolve(s, k)
    for mode in (SampleMode.HALF_INTERPOLATE, SampleMode.ALL_PHASES):
        out = conv_projected_blocked(s, k, pair, PrecisionConfig(2, 1, sample_mode=mode))
        assert out.shape == ref.shape
        report = snr(ref, out)
        assert 20.0 < report.snr_db < 60.0
        assert not report.exact
    out = conv_projected_blocked(s, k, pair, PrecisionConfig(2, 2))
    assert_allclose(out, ref, rtol=0, atol=EXACT_ATOL * np.abs(ref).max())


def test_blocked_all_phases_covers_more_positions_than_one_phase():
    pair = make_haar_pair(2)
    rng = np.random.default_rng(9)
    s = synth.ar_signal(200, rng)
    k = synth.ar_signal(20, rng)
    all_out = conv_projected_blocked(s, k, pair, PrecisionConfig(2, 1))
    # phases 0 and 1 at stride 2 fill the whole range
    assert np.count_nonzero(all_out) > 200


def test_blocked_counter_convention():
    pair = make_haar_pair(2)
    s = np.ones(20)
    k = np.ones(4)
    counter = MacCounter()
    conv_projected_blocked(s, k, pair,
                           PrecisionConfig(2, 1, SampleMode.HALF_INTERPOLATE),
                           counter=counter)
    # signal pass: 20; phase-0 kernel pass: 4; products: G * Q = 10 * 3
    assert counter.count == 20 + 4 + 30
    counter = MacCounter()
    conv_projected_blocked(s, k, pair,
                           PrecisionConfig(2, 2, SampleMode.ALL_PHASES),
                           counter=counter)
    # two projections: one signal pass, then a kernel pass and products per phase
    assert counter.count == 2 * 20 + 2 * (2 * 4 + 2 * 30)


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
    kernels = rng.standard_normal((5, 13))
    banks = [project_kernel_bank(kernels, pair, 2, phase) for phase in cfg.phases()]
    assert banks[0].shape == (2 * 4, 5)
    for slen in (13, 14, 30):
        s = rng.standard_normal(slen)
        want = [np.abs(conv_projected_blocked(s, k, pair, cfg)).max() for k in kernels]
        assert_allclose(conv_projected_peaks(s, banks, 13, pair, cfg), want,
                        rtol=1e-12, atol=0)


def test_peaks_validate_bank_and_lengths():
    pair = make_haar_pair(2)
    cfg = PrecisionConfig(2, 1)
    with pytest.raises(DimensionMismatch):
        project_kernel_bank(np.ones(8), pair, 1, 0)
    with pytest.raises(IndexOutOfRange):
        project_kernel_bank(np.ones((2, 8)), pair, 1, 2)
    banks = [project_kernel_bank(np.ones((2, 8)), pair, 1, phase) for phase in (0, 1)]
    with pytest.raises(DimensionMismatch):
        conv_projected_peaks(np.ones(16), banks, 8, pair, PrecisionConfig(2, 2))
    with pytest.raises(DimensionMismatch):
        conv_projected_peaks(np.ones(16), banks[:1], 8, pair, cfg)
    with pytest.raises(DimensionMismatch):
        conv_projected_peaks(np.ones(16), banks, 11, pair, cfg)
    with pytest.raises(DimensionMismatch):
        conv_projected_peaks(np.ones(6), banks, 8, pair, cfg)
    with pytest.raises(DomainError):
        conv_projected_peaks(np.ones(16), banks, 8, pair, PrecisionConfig(4, 1))
