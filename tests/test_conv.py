import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_allclose

from pkscale import synth
from pkscale.apps import ConvMode, xcorr_match
from pkscale.cli import synth_feature_db, synth_queries
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
    # E from one kernel to a bank wider than CONV_BANK_COLUMNS / 2, so the
    # bank's block B runs from 1 (Q < 16) to Q / 8
    count = draw(st.integers(1, 300))
    return family, size, seed, dtype, used, slen, klen, count


def _window_peaks(s, kernels, pair, cfg):
    """conv_projected_peaks as one product of the compact signal's sliding
    windows, Q samples of every projection, with each phase's plain (p * Q, E)
    stack of taps, row l * Q + q holding every kernel's kd_{r,l}[Q - 1 - q]:
    the formula the block-Toeplitz bank replaced."""
    used = cfg.projections_used
    count, klen = kernels.shape
    stacks = [taps.transpose(1, 2, 0).reshape(-1, count)
              for taps in conv._kernel_taps(kernels, pair, used, cfg.phases())]
    compact_len = stacks[0].shape[0] // used
    sc = project_signal(s, pair, range(used))
    padded = np.zeros((used, sc.shape[1] + 2 * (compact_len - 1)), dtype=sc.dtype)
    padded[:, compact_len - 1:compact_len - 1 + sc.shape[1]] = sc
    out_len = s.shape[0] + klen - 1
    windows = sliding_window_view(padded, compact_len, axis=1)[:, :-(-out_len // pair.size)]
    windows = windows.transpose(1, 0, 2).reshape(windows.shape[1], -1)
    return np.max([np.abs(windows[:-(-(out_len - phase) // pair.size)] @ stack).max(axis=0)
                   for phase, stack in zip(cfg.phases(), stacks)], axis=0)


@settings(max_examples=60, deadline=None)
@given(peaks_case(), st.sampled_from(list(SampleMode)))
# float32 peak of about 1.1e-3 left by cancellation of terms near 0.27
@example(("dct", 2, 7, np.float32, 2, 2, 1, 3), SampleMode.HALF_INTERPOLATE)
# compact samples past the output's end are larger than the peak here
@example(("dct", 3, 3, np.float64, 1, 7, 4, 3), SampleMode.ALL_PHASES)
def test_peaks_equal_blocked_peaks_property(case, mode):
    family, size, seed, dtype, used, slen, klen, count = case
    pair = random_pair(family, size, seed)
    cfg = PrecisionConfig(size, used, sample_mode=mode)
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(slen).astype(dtype)
    kernels = rng.standard_normal((count, klen)).astype(dtype)
    bank = project_kernel_bank(kernels, pair, cfg)
    want = np.array([np.abs(conv_projected_blocked(s, k, pair, cfg)).max() for k in kernels],
                    dtype=np.float64)
    got = conv_projected_peaks(s, bank).astype(np.float64)
    if dtype == np.float64:
        assert_allclose(got, want, rtol=1e-12, atol=0)
        assert_allclose(got, _window_peaks(s, kernels, pair, cfg), rtol=1e-12, atol=0)
    else:
        # float32 rounds every stage at about 6e-8 of the operands, and both
        # paths round differently, so a peak that cancels far below its
        # operands is bounded by their scale, not by its own size
        atol = 1e-5 * np.abs(s).max() * np.abs(kernels.astype(np.float64)).sum(axis=1)
        assert np.all(np.abs(got - want) <= 1e-5 * np.abs(want) + atol), (got, want)


@pytest.mark.parametrize("family,size,used,mode,count,klen,slen,block", [
    # Q = 551 and 526 taps, above CONV_SEGMENT_TAPS: conv_projected_blocked
    # cuts its taps into segments, the bank holds them whole
    ("haar", 2, 1, SampleMode.HALF_INTERPOLATE, 1, 1100, 1500, 68),
    ("haar", 2, 1, SampleMode.HALF_INTERPOLATE, 7, 1100, 1300, 68),
    # B = 1: P * E = 1200 columns per block sample, wider than CONV_BANK_COLUMNS
    ("dct", 4, 2, SampleMode.ALL_PHASES, 300, 2100, 2300, 1),
    # B = 1: a bank wider than CONV_BANK_COLUMNS, and a short kernel
    ("custom", 3, 2, SampleMode.ALL_PHASES, 600, 200, 300, 1),
    ("dct", 8, 3, SampleMode.HALF_INTERPOLATE, 5, 100, 400, 1),
])
def test_peaks_of_long_kernels_and_wide_banks(family, size, used, mode, count, klen,
                                              slen, block):
    pair = random_pair(family, size, 17)
    cfg = PrecisionConfig(size, used, sample_mode=mode)
    rng = np.random.default_rng(count)
    s = rng.standard_normal(slen)
    kernels = rng.standard_normal((count, klen))
    bank = project_kernel_bank(kernels, pair, cfg)
    assert bank.block == block
    got = conv_projected_peaks(s, bank)
    want = [np.abs(conv_projected_blocked(s, k, pair, cfg)).max() for k in kernels]
    assert_allclose(got, want, rtol=1e-12, atol=0)
    assert_allclose(got, _window_peaks(s, kernels, pair, cfg), rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", [5, 61])
def test_projected_match_decisions_equal_window_formula(seed):
    # the match-db geometry: 256 queries of 2048 samples in 10 dB noise
    # against 64 entries of 256 samples, Haar L = 2, p = 1, half rate
    rng = np.random.default_rng(seed)
    db = synth_feature_db(64, 256, rng)
    queries = synth_queries(db, 256, 2048, rng, 10.0)
    pair = make_haar_pair(2)
    cfg = PrecisionConfig(2, 1, sample_mode=SampleMode.HALF_INTERPOLATE)
    mode = ConvMode(pair=pair, config=cfg)
    ids = [entry_id for entry_id, _ in db.entries]
    entries = np.stack([sig for _, sig in db.entries])
    energies = np.sum(entries * entries, axis=1)
    for _, query in queries:
        scores = _window_peaks(query, entries[:, ::-1], pair, cfg) / energies
        want = min(ids[i] for i in np.flatnonzero(scores == scores.max()))
        assert xcorr_match(query, db, mode)[0] == want


def test_peaks_refuse_banks_of_another_block(monkeypatch):
    pair = make_haar_pair(2)
    cfg = PrecisionConfig(2, 1)
    kernels = np.random.default_rng(7).standard_normal((4, 40))
    bank = project_kernel_bank(kernels, pair, cfg)
    assert bank.pair is pair and bank.config is cfg
    # Q = 21; one operand of both phases of the 4 kernels in blocks of 2
    assert (bank.kernel_len, bank.count, bank.block) == (40, 4, 2)
    assert bank.toeplitz.shape == (2 + 21 - 1, 2 * 2 * 4)
    s = np.random.default_rng(8).standard_normal(64)
    want = conv_projected_peaks(s, bank)
    assert want.shape == (4,)
    # a bank built with a narrower product holds the same taps in blocks of
    # 1 instead of 2 and carries its block, so it gives the same peaks
    monkeypatch.setattr(conv, "CONV_BANK_COLUMNS", 4)
    other = project_kernel_bank(kernels, pair, cfg)
    assert other.block == 1
    assert_allclose(conv_projected_peaks(s, other), want, rtol=1e-12, atol=0)
    # Toeplitz operands of one block under a bank that claims another
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(bank, block=1)
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(other, block=2)
    with pytest.raises(ValueError):
        bank.toeplitz[0, 0] = 1.0


def test_peaks_validate_bank_and_lengths():
    pair = make_haar_pair(2)
    cfg = PrecisionConfig(2, 1)
    kernels = np.random.default_rng(7).standard_normal((4, 40))
    bank = project_kernel_bank(kernels, pair, cfg)
    s = np.ones(64)
    assert conv_projected_peaks(s, bank).shape == (4,)
    assert conv_projected_peaks(np.ones(40), bank).shape == (4,)
    # operands of one projection under a configuration of two
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(bank, config=PrecisionConfig(2, 2))
    # an operand of four kernels under a bank that claims another count
    for count in (3, 8):
        with pytest.raises(DimensionMismatch):
            dataclasses.replace(bank, count=count)
    # a kernel longer than the signal
    with pytest.raises(DimensionMismatch):
        conv_projected_peaks(np.ones(39), bank)
    # a configuration of another pair size
    with pytest.raises(DomainError):
        dataclasses.replace(bank, config=PrecisionConfig(4, 1))


def test_peaks_refuse_bank_of_another_kernel_length_or_phase():
    # kernel lengths 8 and 9 share Q = 5 at L = 2, so the Toeplitz shapes fit
    # both; the length kept with the bank tells them apart
    pair = make_haar_pair(2)
    cfg = PrecisionConfig(2, 1)
    rng = np.random.default_rng(89)
    s = rng.standard_normal(32)
    for klen in (8, 9):
        kernels = rng.standard_normal((3, klen))
        bank = project_kernel_bank(kernels, pair, cfg)
        assert bank.kernel_len == klen
        want = [np.abs(conv_projected_blocked(s, k, pair, cfg)).max() for k in kernels]
        assert_allclose(conv_projected_peaks(s, bank), want, rtol=1e-12, atol=0)
    assert (project_kernel_bank(np.ones((3, 8)), pair, cfg).toeplitz.shape
            == project_kernel_bank(np.ones((3, 9)), pair, cfg).toeplitz.shape)
    # a half-rate bank holds phase 0 alone, and an all-phase bank is not a
    # half-rate one
    half_cfg = PrecisionConfig(2, 1, SampleMode.HALF_INTERPOLATE)
    half = project_kernel_bank(kernels, pair, half_cfg)
    assert half.count == bank.count == 3
    assert half.toeplitz.shape[1] * 2 == bank.toeplitz.shape[1]
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(half, config=cfg)
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(bank, config=half_cfg)


@pytest.mark.parametrize("kernels,cfg,error", [
    (np.ones((0, 8)), PrecisionConfig(2, 1), DimensionMismatch),
    (np.ones((3, 0)), PrecisionConfig(2, 1), DimensionMismatch),
    (np.ones(8), PrecisionConfig(2, 1), DimensionMismatch),
    # three projections of a size-2 pair
    (np.ones((3, 8)), PrecisionConfig(4, 3), DomainError),
])
def test_kernel_bank_refuses_bad_input(kernels, cfg, error):
    with pytest.raises(error):
        project_kernel_bank(kernels, make_haar_pair(2), cfg)


def _time_rule(signal_len, kernel_len, size, used, phases):
    """conv_projected_blocked's block-Toeplitz products, at their usual B."""
    return ConvDomain.TIME, -(-conv.CONV_ROW_OUTPUTS // phases)


def _fft_rule(fft_len):
    """conv_projected_blocked's overlap-save FFTs of ``fft_len`` samples."""
    def rule(signal_len, kernel_len, size, used, phases):
        return ConvDomain.FREQ, fft_len - conv._compact_kernel_len(kernel_len, size) + 1
    return rule


@pytest.fixture
def time_domain(monkeypatch):
    monkeypatch.setattr(conv, "_blocked_domain", _time_rule)


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
    # every geometry of at most 300 samples (pairs of L <= 8, every p and
    # both modes, checked one by one) runs as block-Toeplitz products; the
    # FFTs have property tests of their own
    assert conv._blocked_domain(slen, klen, size, used, len(cfg.phases()))[0] is ConvDomain.TIME
    counter = MacCounter()
    got = conv_projected_blocked(s, k, pair, cfg, counter=counter)
    assert got.dtype == dtype
    _assert_matches_oracle(got, s, k, pair, cfg)
    assert counter.count == mac_conv_proj_general(slen, klen, size, used, len(cfg.phases()))


@settings(max_examples=80, deadline=None)
@given(blocked_case(), st.sampled_from(list(SampleMode)), st.integers(0, 2),
       st.integers(1, 1 << 12))
def test_spectral_products_equal_per_index_oracle_property(case, mode, doublings, elements):
    # FFTs from the shortest the domain rule considers, a power of two of at
    # least 2Q, to 4x that, in chunks of one window and up, so many cases end
    # in a partial block or run several chunks
    family, size, seed, dtype, used, slen, klen = case
    pair = random_pair(family, size, seed)
    cfg = PrecisionConfig(size, used, sample_mode=mode)
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(slen).astype(dtype)
    k = rng.standard_normal(klen).astype(dtype)
    fft_len = conv._next_pow2(2 * conv._compact_kernel_len(klen, size)) << doublings
    counter = MacCounter()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conv, "_blocked_domain", _fft_rule(fft_len))
        patch.setattr(conv, "CONV_CHUNK_ELEMENTS", elements)
        got = conv_projected_blocked(s, k, pair, cfg, counter=counter)
    assert got.dtype == dtype
    _assert_matches_oracle(got, s, k, pair, cfg)
    assert counter.count == mac_conv_proj_general(slen, klen, size, used, len(cfg.phases()))


@pytest.mark.parametrize("family", ["dct", "haar", "custom"])
@pytest.mark.parametrize("mode", list(SampleMode))
@pytest.mark.parametrize("s_dtype,k_dtype", [(np.float64, np.float64),
                                             (np.float32, np.float32),
                                             (np.float32, np.float64)])
def test_spectral_products_equal_oracle_across_blocks_and_chunks(monkeypatch, family, mode,
                                                                 s_dtype, k_dtype):
    # Q = 34 compact taps and FFTs of 128 samples: hops of 95 compact
    # samples, 783 of them per phase, so 9 blocks, the last partial, in
    # chunks of 2 windows
    pair = random_pair(family, 4, 8)
    cfg = PrecisionConfig(4, 2, sample_mode=mode)
    monkeypatch.setattr(conv, "_blocked_domain", _fft_rule(128))
    monkeypatch.setattr(conv, "CONV_CHUNK_ELEMENTS", 2 * (2 + 2 * len(cfg.phases())) * 128)
    rng = np.random.default_rng(3001)
    s = rng.standard_normal(3001).astype(s_dtype)
    k = rng.standard_normal(130).astype(k_dtype)
    got = conv_projected_blocked(s, k, pair, cfg)
    monkeypatch.setattr(conv, "_blocked_domain", _time_rule)
    products = conv_projected_blocked(s, k, pair, cfg)
    assert got.dtype == products.dtype == (
        np.float32 if s_dtype == k_dtype == np.float32 else np.float64)
    if s_dtype == k_dtype:
        _assert_matches_oracle(got, s, k, pair, cfg)
    else:
        # a float32 signal is projected in float32 in both domains, so only
        # they agree to float64 rounding; the oracle projects in float64
        want = _per_index_oracle(s, k, pair, cfg)
        assert np.abs(got - want).max() <= 1e-5 * np.abs(s).max() * np.abs(k).sum()
        assert np.abs(got - products).max() <= 1e-12 * np.abs(products).max()


@pytest.mark.parametrize("family", ["dct", "haar", "custom"])
@pytest.mark.parametrize("size", [2, 4, 8])
def test_spectral_products_with_every_projection_equal_convolve(monkeypatch, family, size):
    rng = np.random.default_rng(size)
    pair = random_pair(family, size, size)
    for slen, klen in ((1000, 1), (1000, 3 * size + 1), (2000, 700)):
        s = rng.standard_normal(slen)
        k = rng.standard_normal(klen)
        compact_len = conv._compact_kernel_len(klen, size)
        monkeypatch.setattr(conv, "_blocked_domain", _fft_rule(conv._next_pow2(2 * compact_len)))
        out = conv_projected_blocked(s, k, pair, PrecisionConfig(size, size))
        ref = np.convolve(s, k)
        assert np.abs(out - ref).max() <= EXACT_ATOL * np.abs(ref).max()


def test_blocked_domain_runs_long_kernels_as_ffts():
    # 200000 samples against 600 taps, DCT L = 4, every phase: FFTs of 1024
    # samples, hops of 874 compact samples
    assert conv._blocked_domain(200_000, 600, 4, 2, 4) == (ConvDomain.FREQ, 874)
    assert conv._blocked_domain(200_000, 600, 4, 4, 4)[0] is ConvDomain.FREQ
    rng = np.random.default_rng(600)
    s = rng.standard_normal(200_000)
    k = rng.standard_normal(600)
    out = conv_projected_blocked(s, k, make_dct_pair(4), PrecisionConfig(4, 4))
    ref = np.convolve(s, k)
    assert np.abs(out - ref).max() <= EXACT_ATOL * np.abs(ref).max()


def test_blocked_domains_round_relative_to_their_operands(monkeypatch):
    # A signal 1e6 times louder in its first half, 600 taps, DCT L = 4, p = 4.
    # The products stay exact relative to the quiet half's own peak; the
    # FFTs of 1024 compact samples lose that near the step (their rounding
    # follows the block's largest values) and regain it once a block holds
    # no loud sample, 1024 * L output samples past the step.
    rng = np.random.default_rng(1)
    slen, klen, size = 40_000, 600, 4
    s = rng.standard_normal(slen)
    s[:slen // 2] *= 1e6
    k = rng.standard_normal(klen)
    ref = np.convolve(s, k)
    cfg = PrecisionConfig(size, size)
    for rule, first in ((_time_rule, slen // 2 + klen),
                        (_fft_rule(1024), slen // 2 + klen + 1024 * size)):
        monkeypatch.setattr(conv, "_blocked_domain", rule)
        out = conv_projected_blocked(s, k, make_dct_pair(size), cfg)
        assert np.abs(out - ref).max() <= EXACT_ATOL * np.abs(ref).max()
        quiet = slice(first, slen)
        assert (np.abs(out[quiet] - ref[quiet]).max()
                <= EXACT_ATOL * np.abs(ref[quiet]).max())


@pytest.mark.parametrize("mode", list(SampleMode))
@pytest.mark.parametrize("used", [1, 2, 4])
def test_blocked_equals_oracle_across_segments_and_chunks(time_domain, mode, used):
    # Q = 626 compact taps: more than one Toeplitz segment, and (in all but
    # the half-rate p = 1, 2 cases) more output rows than one chunk holds;
    # the domain rule runs this geometry as FFTs, so the products are pinned
    assert -(-(2500 + 3) // 4) > conv.CONV_SEGMENT_TAPS
    rng = np.random.default_rng(6000)
    pair = make_dct_pair(4)
    cfg = PrecisionConfig(4, used, sample_mode=mode)
    s = rng.standard_normal(6000)
    k = rng.standard_normal(2500)
    _assert_matches_oracle(conv_projected_blocked(s, k, pair, cfg), s, k, pair, cfg)


def test_blocked_scratch_memory_stays_near_output_size():
    # The domain rule runs this 20000-tap kernel as FFTs. Allowed: a few
    # arrays of the output's size (signal and kernel projections, padding,
    # the product or the kernel spectra), plus one chunk's buffers.
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


@pytest.mark.parametrize("pin_time,make,size,slen,klen", [
    # 200000 samples against 600 taps as FFTs
    (False, make_dct_pair, 4, 200_000, 600),
    # the 20000-tap kernel above as products: without tap segments the
    # Toeplitz operand alone would hold B copies of the compact kernel,
    # about 39x the output
    (True, make_haar_pair, 2, 20_000, 20_000),
], ids=["ffts", "products"])
def test_blocked_scratch_memory_stays_near_output_size_in_both_domains(
        monkeypatch, pin_time, make, size, slen, klen):
    if pin_time:
        monkeypatch.setattr(conv, "_blocked_domain", _time_rule)
    rng = np.random.default_rng(slen)
    pair = make(size)
    cfg = PrecisionConfig(size, 2)
    s = rng.standard_normal(slen)
    k = rng.standard_normal(klen)
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
    bank = project_kernel_bank(kernels, pair, cfg)
    for slen in (13, 14, 30):
        s = rng.standard_normal(slen)
        want = [np.abs(conv_projected_blocked(s, k, pair, cfg)).max() for k in kernels]
        assert_allclose(conv_projected_peaks(s, bank), want,
                        rtol=1e-12, atol=0)


def _chunk_rows(used, span, rows):
    """Row ranges of the window chunks the fast paths multiply."""
    chunk = max(1, conv.CONV_CHUNK_ELEMENTS // (used * span))
    return [(lo, min(lo + chunk, rows)) for lo in range(0, rows, chunk)]


def _padded_by_copy(s, pair, used, compact_len, block, rows, dtype):
    """The compact signal built from project_signal's returned stack, cast
    and zero padded into a new (used, rows * B + Q - 1) buffer."""
    sc = project_signal(s, pair, range(used)).astype(dtype, copy=False)
    padded = np.zeros((used, rows * block + compact_len - 1), dtype=dtype)
    padded[:, compact_len - 1:compact_len - 1 + sc.shape[1]] = sc
    return padded


def _window_chunk(padded, start, block, span, lo, hi):
    """Windows lo .. hi - 1 of ``padded`` from column ``start``, copied into a
    new (hi - lo, p * span) array."""
    windows = sliding_window_view(padded[:, start:], span, axis=1)[:, ::block]
    return np.ascontiguousarray(windows[:, lo:hi].transpose(1, 0, 2)).reshape(hi - lo, -1)


def _blocked_by_copies(s, k, pair, cfg):
    """conv_projected_blocked's block-Toeplitz products with every
    intermediate a new array: the compact signal from project_signal's
    returned stack, each chunk of windows copied fresh, and the taps
    projected one phase at a time. It makes the same products as the
    kernel, so it gives the same bits."""
    size, used, phases = pair.size, cfg.projections_used, cfg.phases()
    dtype = np.float32 if s.dtype == k.dtype == np.float32 else np.float64
    out_len = s.shape[0] + k.shape[0] - 1
    compact_len = -(-(k.shape[0] + size - 1) // size)
    reversed_k = conv._reversed_kernel(k, size)
    taps = np.stack([
        (reversed_k[size - 1 - r:size - 1 - r + compact_len * size].reshape(compact_len, size)
         @ pair.inverse[:used].T).T
        for r in phases]).astype(dtype, copy=False)
    block = -(-conv.CONV_ROW_OUTPUTS // len(phases))
    kept = -(-out_len // size)
    rows = -(-kept // block)
    padded = _padded_by_copy(s, pair, used, compact_len, block, rows, dtype)
    y = np.empty((rows, block * len(phases)), dtype=dtype)
    for first in range(0, compact_len, conv.CONV_SEGMENT_TAPS):
        width = min(conv.CONV_SEGMENT_TAPS, compact_len - first)
        start = compact_len - first - width
        span = block + width - 1
        toeplitz = conv._toeplitz_segment(taps[..., start:start + width], block)
        for lo, hi in _chunk_rows(used, span, rows):
            x = _window_chunk(padded, start, block, span, lo, hi)
            if first == 0:
                np.matmul(x, toeplitz, out=y[lo:hi])
            else:
                y[lo:hi] += x @ toeplitz
    if cfg.sample_mode is SampleMode.HALF_INTERPOLATE:
        return _interp_uniform(out_len, size, y.reshape(-1)[:kept], dtype)
    return y.reshape(-1)[:out_len]


def _peaks_by_copies(s, bank):
    """conv_projected_peaks with every intermediate a new array, and each
    product's |y| reduced over rows of E samples, cut at the last stream
    sample inside the output: output sample out_len - 1 with every phase,
    compact sample ceil(out_len / L) - 1 of phase 0 at half rate."""
    pair, block, count = bank.pair, bank.block, bank.count
    used, size = bank.config.projections_used, pair.size
    compact_len = -(-(bank.kernel_len + size - 1) // size)
    span = block + compact_len - 1
    out_len = s.shape[0] + bank.kernel_len - 1
    kept = -(-out_len // size)
    rows = -(-kept // block)
    valid = out_len if bank.config.sample_mode is SampleMode.ALL_PHASES else kept
    width = block * len(bank.config.phases())
    padded = _padded_by_copy(s, pair, used, compact_len, block, rows, s.dtype)
    peaks = np.zeros(count)
    for lo, hi in _chunk_rows(used, span, rows):
        x = _window_chunk(padded, 0, block, span, lo, hi)
        stream = np.abs(x @ bank.toeplitz).reshape(-1, count)[:valid - lo * width]
        peaks = np.maximum(peaks, stream.max(axis=0))
    return peaks


@pytest.mark.parametrize("size", [2, 3, 4, 8])
def test_blocked_equals_copying_pipeline_bitwise(time_domain, size):
    rng = np.random.default_rng(size)
    dtypes = [(np.float64, np.float64), (np.float32, np.float32), (np.float32, np.float64)]
    for family in ("dct", "custom"):
        pair = random_pair(family, size, size)
        for used in range(1, size + 1):
            for mode in SampleMode:
                cfg = PrecisionConfig(size, used, sample_mode=mode)
                # signal lengths that leave a partial last group
                for slen, klen in ((40 * size + 1, 3 * size + 2), (700 + size - 1, 150)):
                    for s_dtype, k_dtype in dtypes:
                        s = rng.standard_normal(slen).astype(s_dtype)
                        k = rng.standard_normal(klen).astype(k_dtype)
                        got = conv_projected_blocked(s, k, pair, cfg)
                        want = _blocked_by_copies(s, k, pair, cfg)
                        assert got.dtype == want.dtype
                        assert np.array_equal(got, want), (family, used, mode, slen, s_dtype, k_dtype)


@pytest.mark.parametrize("mode", list(SampleMode))
def test_blocked_segmented_kernel_equals_copying_pipeline_bitwise(time_domain, mode):
    # Q = 626 compact taps: two Toeplitz segments
    assert -(-(2500 + 3) // 4) > conv.CONV_SEGMENT_TAPS
    rng = np.random.default_rng(2500)
    pair = make_dct_pair(4)
    cfg = PrecisionConfig(4, 2, sample_mode=mode)
    for dtype in (np.float64, np.float32):
        s = rng.standard_normal(6001).astype(dtype)
        k = rng.standard_normal(2500).astype(dtype)
        assert np.array_equal(conv_projected_blocked(s, k, pair, cfg),
                              _blocked_by_copies(s, k, pair, cfg))


@pytest.mark.parametrize("family,size,used,mode,count,klen,slen,block", [
    # the match-db geometry with a partial last product row: 1153 compact
    # samples in rows of B = 8
    ("haar", 2, 1, SampleMode.HALF_INTERPOLATE, 64, 256, 2051, 8),
    # every phase, each with its own last sample inside the output
    ("dct", 4, 2, SampleMode.ALL_PHASES, 5, 130, 1001, 4),
    # E = 1
    ("dct", 3, 2, SampleMode.ALL_PHASES, 1, 200, 499, 8),
    # B = 1: a bank wider than CONV_BANK_COLUMNS, and a short kernel
    ("custom", 3, 2, SampleMode.ALL_PHASES, 600, 200, 301, 1),
    ("haar", 2, 1, SampleMode.HALF_INTERPOLATE, 1, 5, 9, 1),
    # two chunks of windows, the second partial
    ("haar", 2, 1, SampleMode.ALL_PHASES, 3, 40, 20001, 2),
])
def test_peaks_equal_copying_pipeline_bitwise(family, size, used, mode, count, klen,
                                              slen, block):
    pair = random_pair(family, size, 3)
    cfg = PrecisionConfig(size, used, sample_mode=mode)
    rng = np.random.default_rng(klen)
    for dtype in (np.float64, np.float32):
        kernels = rng.standard_normal((count, klen)).astype(dtype)
        s = rng.standard_normal(slen).astype(dtype)
        bank = project_kernel_bank(kernels, pair, cfg)
        assert bank.block == block
        got = conv_projected_peaks(s, bank)
        assert np.array_equal(got, _peaks_by_copies(s, bank))


def test_kernels_look_up_project_signal_at_call_time(monkeypatch):
    # span tracers wrap pkscale.conv.project_signal; both fast paths must
    # reach the projection through that name
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return project_signal(*args, **kwargs)

    monkeypatch.setattr(conv, "project_signal", spy)
    pair = make_dct_pair(4)
    cfg = PrecisionConfig(4, 2)
    rng = np.random.default_rng(4)
    s = rng.standard_normal(101)
    kernels = rng.standard_normal((3, 20))
    conv_projected_blocked(s, kernels[0], pair, cfg)
    assert calls == [(101,)]
    conv_projected_peaks(s, project_kernel_bank(kernels, pair, cfg))
    assert calls == [(101,), (101,)]


@pytest.mark.parametrize("size,mode,klen,slen", [
    (2, SampleMode.HALF_INTERPOLATE, 32, 35),
    (4, SampleMode.ALL_PHASES, 65, 65),
])
def test_peaks_cut_the_last_product_row_at_the_output_end(size, mode, klen, slen):
    # signal and kernels vanish but for their last L samples, so the largest
    # stream samples sit in the last product row of B = 2, which the end of
    # the output cuts; the stream samples past it are larger than the peak
    pair = make_dct_pair(size)
    cfg = PrecisionConfig(size, 1, sample_mode=mode)
    rng = np.random.default_rng(klen)
    kernels = np.zeros((2, klen))
    kernels[:, -size:] = rng.standard_normal((2, size))
    s = np.zeros(slen)
    s[-size:] = rng.standard_normal(size)
    bank = project_kernel_bank(kernels, pair, cfg)
    assert bank.block == 2
    got = conv_projected_peaks(s, bank)
    want = [np.abs(conv_projected_blocked(s, k, pair, cfg)).max() for k in kernels]
    assert_allclose(got, want, rtol=1e-12, atol=0)
    assert np.array_equal(got, _peaks_by_copies(s, bank))
    # every stream sample of every product row, inside the output or not
    compact_len = -(-(klen + size - 1) // size)
    kept = -(-(slen + klen - 1) // size)
    rows = -(-kept // 2)
    padded = _padded_by_copy(s, pair, 1, compact_len, 2, rows, s.dtype)
    x = _window_chunk(padded, 0, 2, compact_len + 1, 0, rows)
    uncut = np.abs(x @ bank.toeplitz).reshape(-1, 2).max(axis=0)
    assert np.any(uncut > got)
