import copy
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_allclose

from pkscale import synth
from pkscale.apps import ConvMode, FeatureDb, xcorr_match
from pkscale.cli import synth_feature_db, synth_queries
from pkscale.config import PrecisionConfig, SampleMode
from pkscale import conv
from pkscale.conv import (
    ConvDomain,
    ConvVariant,
    _interp_uniform,
    conv_direct,
    conv_fft,
    conv_projected_blocked,
    conv_projected_peaks,
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
from pkscale.reference import (
    ConvPlan,
    conv_overlap_save,
    conv_translate_project,
    cyclic_translate,
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
    slen = draw(st.integers(1, 90))
    klen = draw(st.integers(1, slen))
    # E from one kernel to a bank wider than CONV_BANK_COLUMNS / 2, so the
    # bank's block B runs from 1 (Q < 16) to Q / 8
    count = draw(st.integers(1, 300))
    return family, size, seed, dtype, used, slen, klen, count


def _one_group_at_least(s, size):
    """``s``, zero-padded to one group of ``size`` samples if it is shorter:
    project_signal refuses a signal shorter than one group."""
    return np.concatenate([s, np.zeros(max(0, size - s.shape[0]), s.dtype)])


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
    sc = project_signal(_one_group_at_least(s, pair.size), pair, range(used))
    padded = np.zeros((used, sc.shape[1] + 2 * (compact_len - 1)), dtype=sc.dtype)
    padded[:, compact_len - 1:compact_len - 1 + sc.shape[1]] = sc
    out_len = s.shape[0] + klen - 1
    windows = sliding_window_view(padded, compact_len, axis=1)[:, :-(-out_len // pair.size)]
    windows = windows.transpose(1, 0, 2).reshape(windows.shape[1], -1)
    # a phase past the output's end holds no sample of it
    return np.max([np.abs(windows[:-(-(out_len - phase) // pair.size)] @ stack).max(axis=0)
                   for phase, stack in zip(cfg.phases(), stacks) if phase < out_len], axis=0)


@pytest.fixture
def screen_every_call(monkeypatch):
    """The row screen on every match against a float64 bank
    (CONV_SCREEN_MACS = 0): the complement of float64_products."""
    monkeypatch.setattr(conv, "CONV_SCREEN_MACS", 0)


@settings(max_examples=60, deadline=None)
@given(peaks_case(), st.sampled_from(list(SampleMode)))
# float32 peak of about 1.1e-3 left by cancellation of terms near 0.27
@example(("dct", 2, 7, np.float32, 2, 2, 1, 3), SampleMode.HALF_INTERPOLATE)
# compact samples past the output's end are larger than the peak here
@example(("dct", 3, 3, np.float64, 1, 7, 4, 3), SampleMode.ALL_PHASES)
# a signal shorter than one group
@example(("haar", 4, 0, np.float64, 4, 3, 2, 5), SampleMode.ALL_PHASES)
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
    sc = [project_signal(_one_group_at_least(s, size), pair, l) for l in range(used)]
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
    slen = draw(st.integers(1, 300))
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
    # a float32 signal against a float64 kernel is projected in float64
    _assert_matches_oracle(got, s, k, pair, cfg)
    _assert_matches_oracle(products, s, k, pair, cfg)


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


def test_signals_shorter_than_one_group():
    # a signal of fewer than L samples is one zero-padded group, in both
    # fast paths and in projected matching, which pads a query only to its
    # entries' length
    pair = make_haar_pair(4)
    cfg = PrecisionConfig(4, 4)
    rng = np.random.default_rng(3)
    for slen in (1, 2, 3):
        s = rng.standard_normal(slen)
        kernels = rng.standard_normal((3, slen))
        for klen in range(1, slen + 1):
            want = [conv_direct(s, k) for k in kernels[:, :klen]]
            got = [conv_projected_blocked(s, k, pair, cfg) for k in kernels[:, :klen]]
            assert_allclose(np.array(got), np.array(want), rtol=0, atol=EXACT_ATOL)
            bank = project_kernel_bank(kernels[:, :klen], pair, cfg)
            assert_allclose(conv_projected_peaks(s, bank), np.abs(got).max(axis=1),
                            rtol=1e-12, atol=0)
    assert_allclose(conv_projected_blocked(np.ones(3), np.ones(1), pair, cfg), np.ones(3),
                    rtol=0, atol=EXACT_ATOL)
    db = FeatureDb.from_arrays([("a", np.array([1.0, 0.5])), ("b", np.array([-0.3, 2.0]))])
    want = xcorr_match([1.0, 2.0], db)
    got = xcorr_match([1.0, 2.0], db, ConvMode(pair=pair, config=cfg))
    assert got[0] == want[0] and got[1] == pytest.approx(want[1], rel=1e-12)


def test_finite_float32_projections_raise_no_warning():
    # a float32 bank build and projections of a float32 signal, DCT L = 5,
    # p = 1, half rate: OpenBLAS's float32 matrix-vector kernels can raise
    # the invalid flag on finite operands
    rng = np.random.default_rng(43)
    pair = make_dct_pair(5)
    cfg = PrecisionConfig(5, 1, sample_mode=SampleMode.HALF_INTERPOLATE)
    s = rng.standard_normal(86).astype(np.float32)
    kernels = rng.standard_normal((61, 86)).astype(np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        project_kernel_bank(kernels, pair, cfg)
        conv_projected_blocked(s, kernels[0], pair, cfg)
        project_signal(s, pair, [0])
        project_signal(s, pair, 0)


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
    """The compact signal built from project_signal's returned stack of the
    signal cast to ``dtype``, zero padded into a new (used, rows * B + Q - 1)
    buffer."""
    sc = project_signal(_one_group_at_least(s.astype(dtype), pair.size), pair, range(used))
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
    phases = len(bank.config.phases())
    valid = out_len if bank.config.sample_mode is SampleMode.ALL_PHASES else kept
    width = block * phases
    # a float32 signal against a float64 bank is projected in float64
    dtype = np.float32 if s.dtype == bank.toeplitz.dtype == np.float32 else np.float64
    padded = _padded_by_copy(s, pair, used, compact_len, block, rows, dtype)
    peaks = np.zeros(count)
    for lo, hi in _chunk_rows(used, span, rows):
        inside = valid - lo * width
        x = _window_chunk(padded, 0, block, span, lo, hi)
        stream = np.abs(x @ bank.toeplitz).reshape(-1, count)[:inside]
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


BITWISE_PEAKS_CASES = [
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
    # two chunks of 481 and 35 windows
    ("haar", 2, 1, SampleMode.HALF_INTERPOLATE, 64, 256, 8001, 8),
]


@pytest.mark.parametrize("family,size,used,mode,count,klen,slen,block", BITWISE_PEAKS_CASES)
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


def _picked_peaks_by_copies(s, bank, picked):
    """The peaks of product rows ``picked`` of ``s`` with every intermediate
    a new array: fewer rows than every row, whose copy is smaller than the
    operand, as the B windows of Q compact samples of each row times the
    screen's stack, in one product; the others as chunks of their windows
    times the bank's operand. The last row is cut at the output's end."""
    pair, block, count = bank.pair, bank.block, bank.count
    used = bank.config.projections_used
    compact_len = -(-(bank.kernel_len + pair.size - 1) // pair.size)
    span = block + compact_len - 1
    out_len = s.shape[0] + bank.kernel_len - 1
    kept = -(-out_len // pair.size)
    rows = -(-kept // block)
    phases = len(bank.config.phases())
    end = out_len if phases > 1 else kept
    tail = (rows * block * phases - end) * count if picked[-1] == rows - 1 else 0
    padded = _padded_by_copy(s, pair, used, compact_len, block, rows, np.float64)
    total = picked.shape[0]
    if total < rows and 2 * total * compact_len < span * phases * count:
        x = np.array([padded[:, n:n + compact_len].reshape(-1)
                      for j in picked for n in range(j * block, (j + 1) * block)])
        products = [(total, x @ bank.screen.stack)]
    else:
        products = [(hi, np.array([_window_chunk(padded, 0, block, span, j, j + 1)[0]
                                   for j in picked[lo:hi]]) @ bank.toeplitz)
                    for lo, hi in _chunk_rows(used, span, total)]
    peaks = np.zeros(count)
    for hi, y in products:
        y = np.abs(y).reshape(-1)
        if hi == total and tail:
            y = y[:-tail]
        peaks = np.maximum(peaks, y.reshape(-1, count).max(axis=0))
    return peaks


@pytest.mark.parametrize("family,size,used,mode,count,klen,slen,block", BITWISE_PEAKS_CASES)
def test_screened_peaks_equal_copying_pipeline_bitwise(screen_every_call, monkeypatch, family,
                                                       size, used, mode, count, klen, slen,
                                                       block):
    # the row screen on every match, a kernel planted in 10 dB noise: each
    # product it takes, of the kept rows through the stack or of every row
    # through the operand, equals its copying pipeline bit for bit. Float32
    # kernels make a float64 bank too; a float32 operand has no screen, and
    # multiplies every row
    pair = random_pair(family, size, 3)
    cfg = PrecisionConfig(size, used, sample_mode=mode)
    rng = np.random.default_rng(klen)
    picks = []
    bank_peaks = conv._bank_peaks
    monkeypatch.setattr(conv, "_bank_peaks",
                        lambda *args: picks.append(args[-1]) or bank_peaks(*args))
    for dtype in (np.float64, np.float32, None):
        kernels = rng.standard_normal((count, klen)).astype(dtype or np.float64)
        s = 0.1 * rng.standard_normal(slen)
        delay = int(rng.integers(0, slen - klen + 1))
        s[delay:delay + klen] += kernels[-1, ::-1]
        bank = project_kernel_bank(kernels, pair, cfg)
        assert bank.block == block
        if dtype is None:
            bank = dataclasses.replace(bank, toeplitz=bank.toeplitz.astype(np.float32))
        energies = np.sum(kernels.astype(np.float64) ** 2, axis=1)
        picks.clear()
        peaks, rows, path = _match_peaks_of(s, bank, energies)
        assert rows == sum(p.shape[0] for p in picks)
        want = np.max([_picked_peaks_by_copies(s, bank, p) for p in picks], axis=0)
        assert np.array_equal(peaks, want)
        if dtype is None:
            assert path == "float64-product" and rows == _match_rows(s, bank)
            assert np.array_equal(peaks, _peaks_by_copies(s, bank))
        else:
            assert path == "row-screen" and rows < _match_rows(s, bank)


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


def _match_db_bank(seed, size=2, entries=64):
    """The match-db geometry: entries of 256 samples, reversed into a bank
    under Haar L = ``size``, p = 1, half rate, and the entries."""
    rng = np.random.default_rng(seed)
    db = synth_feature_db(entries, 256, rng)
    cfg = PrecisionConfig(size, 1, sample_mode=SampleMode.HALF_INTERPOLATE)
    signals = np.stack([sig for _, sig in db.entries])
    return project_kernel_bank(signals[:, ::-1], make_haar_pair(size), cfg), signals, rng


@pytest.fixture
def float64_products(monkeypatch):
    """Runs a call under ``product`` with the row screen off."""
    def product(call, *args):
        with monkeypatch.context() as patch:
            patch.setattr(conv, "CONV_SCREEN_MACS", float("inf"))
            return call(*args)
    return product


@pytest.mark.parametrize("case", ["overflow", "nan"])
def test_signals_out_of_the_screens_range_run_float64_products(case):
    # products beyond float64, or a NaN: the row screen is skipped, and every
    # row runs in float64 with conv_projected_peaks' values and warnings,
    # which xcorr_match turns into DomainError
    bank, signals, rng = _match_db_bank(5)
    signals = signals * 1e10
    bank = project_kernel_bank(signals[:, ::-1], bank.pair, bank.config)
    energies = np.sum(signals * signals, axis=1)
    query = rng.standard_normal(2048) * 1e300
    if case == "nan":
        query[100] = np.nan
    assert conv._screens(query.shape[0], bank)
    runs = []
    for call in (conv_projected_peaks, lambda q, b: _match_peaks_of(q, b, energies)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs.append((call(query, bank), [str(w.message) for w in caught]))
    peaks, rows, path = runs[1][0]
    assert path == "float64-product" and rows == _match_rows(query, bank)
    assert np.array_equal(peaks, runs[0][0], equal_nan=True)
    assert runs[0][1] == runs[1][1]
    assert not np.all(np.isfinite(peaks))


@pytest.mark.parametrize("size", [4, 8])
def test_banks_below_the_size_rule_and_float32_banks_run_float64_products(size):
    # match-demo's L = 4 and 8 banks: 2.65 and 0.66 million multiply-adds;
    # neither they nor a float32 bank are screened
    bank, signals, rng = _match_db_bank(size, size)
    energies = np.sum(signals * signals, axis=1)
    query = rng.standard_normal(2048)
    assert not conv._screens(query.shape[0], bank)
    single = dataclasses.replace(bank, toeplitz=bank.toeplitz.astype(np.float32))
    assert single.screen is None and not conv._screens(query.shape[0], single)
    for b in (bank, single):
        peaks, rows, path = _match_peaks_of(query, b, energies)
        assert path == "float64-product" and rows == _match_rows(query, b)
        assert np.array_equal(peaks, conv_projected_peaks(query, b))
        assert np.array_equal(peaks, _peaks_by_copies(query, b))


@pytest.mark.parametrize("seed", [5, 23, 41])
def test_row_screened_match_decisions_equal_float64_products(float64_products, seed):
    # the match-db geometry, 256 queries of 2048 samples in 10 dB noise
    rng = np.random.default_rng(seed)
    db = synth_feature_db(64, 256, rng)
    queries = synth_queries(db, 256, 2048, rng, 10.0)
    mode = ConvMode(pair=make_haar_pair(2), config=PrecisionConfig(
        2, 1, sample_mode=SampleMode.HALF_INTERPOLATE))
    for _, query in queries:
        got = xcorr_match(query, db, mode)
        want = float64_products(xcorr_match, query, db, mode)
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1], rel=1e-14)


@pytest.fixture(params=["size-rule", "every-call"])
def pruning(request):
    """The row screen under its size rule, then on every match."""
    if request.param == "every-call":
        request.getfixturevalue("screen_every_call")
    return request.param


def _decision(peaks, energies, ids):
    scores = peaks / energies
    return min(ids[i] for i in np.flatnonzero(scores == scores.max()))


def _match_peaks_of(s, bank, energies):
    """conv._match_peaks of ``s`` for the scores peaks / ``energies``."""
    return conv._match_peaks(s, bank, conv._row_screen(bank, energies))


def _match_rows(s, bank):
    """The product rows of ``s`` against ``bank``."""
    kept = -(-(s.shape[0] + bank.kernel_len - 1) // bank.pair.size)
    return -(-kept // bank.block)


def _assert_partial_peaks(peaks, want, energies, rtol):
    """Every peak at most its float64 peak, the entries whose peaks fell
    short scoring below the best, and the best entry's peak its own."""
    assert np.all(peaks <= want * (1 + rtol))
    best = (peaks / energies).max()
    short = peaks < want * (1 - rtol)
    assert np.all(want[short] / energies[short] < best)
    winner = np.argmax(want / energies)
    assert_allclose(peaks[winner], want[winner], rtol=rtol, atol=0)


class _Unread(np.ndarray):
    """An operand that fails every ufunc it enters, matmul among them."""

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        raise AssertionError(f"bank.toeplitz entered {ufunc.__name__}")


@pytest.mark.parametrize("family,size", [(f, s) for f in ("dct", "haar", "custom")
                                         for s in (2, 3, 4, 8) if f != "haar" or s != 3])
@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("mode", list(SampleMode))
def test_row_subsets_through_the_stack_equal_their_block_toeplitz_rows(
        monkeypatch, family, size, full, mode):
    # products of fewer rows than every row, as the row screen takes them:
    # each picked row's B windows of Q compact samples times the stack,
    # against the row's window times the block-Toeplitz operand, in its
    # layout. Both sum the same nonzero terms, each
    # within gamma_K(2^-53) W_j N_e of the exact sample, and the operand is
    # never multiplied, until the rows' copy outgrows it
    pair = random_pair(family, size, 31)
    cfg = PrecisionConfig(size, size if full else 1, sample_mode=mode)
    rng = np.random.default_rng(size)
    bank = project_kernel_bank(rng.standard_normal((16, 40 * size + 3)), pair, cfg)
    setup = conv._peaks_setup(rng.standard_normal(300 * size + 1), bank, None)
    compact_len, out_len, kept, rows, padded = setup
    block, count, toeplitz = bank.block, bank.count, bank.toeplitz
    phases = len(cfg.phases())
    end = out_len if phases > 1 else kept
    tail = (rows * block * phases - end) * count
    # the fewest rows whose copy, 2 * rows * Q, reaches the operand's size
    least = -(-(block + compact_len - 1) * phases * count // (2 * compact_len))
    assert block in (4, 5) and 8 < least < rows and tail > 0
    # block sample 0's columns of the operand: every phase's taps
    taps = toeplitz.reshape(cfg.projections_used, block + compact_len - 1, -1)[
        :, :compact_len, :phases * count]
    assert np.array_equal(bank.screen.stack,
                          conv._toeplitz_segment(taps.transpose(2, 0, 1), 1))
    spy = copy.copy(bank)
    object.__setattr__(spy, "toeplitz", toeplitz.view(_Unread))
    windows = conv._window_view(padded, block, rows, 0, block + compact_len - 1)
    depth = toeplitz.shape[0]
    gamma = depth * 2.0 ** -53 / (1 - depth * 2.0 ** -53)
    norms = np.sqrt((toeplitz ** 2).sum(axis=0)).reshape(-1, count).max(axis=0)
    products = []
    maxima = conv._kernel_maxima

    def spy_maxima(y, *args):
        products.append(y.copy())
        return maxima(y, *args)

    monkeypatch.setattr(conv, "_kernel_maxima", spy_maxima)
    for picked in ([0], [rows // 2], [rows - 1], range(3, 9), [1, 4, 5, 13, rows - 1],
                   range(least - 1)):
        picked = np.array(picked)
        products.clear()
        peaks = conv._bank_peaks(spy, setup, picked)
        (y,) = products
        want = windows[picked].reshape(picked.shape[0], -1) @ toeplitz
        assert y.shape == want.shape
        bound = gamma * np.sqrt((windows[picked] ** 2).sum(axis=(1, 2)))[:, None] * norms
        gap = np.abs(y - want).reshape(picked.shape[0], -1, count).max(axis=1)
        assert np.all(gap <= 2 * bound)
        cut = tail if picked[-1] == rows - 1 else 0
        assert np.all(np.abs(peaks - maxima(want, cut, count)) <= 2 * bound.max(axis=0))
    with pytest.raises(AssertionError, match="entered matmul"):
        conv._bank_peaks(spy, setup, np.arange(least))


@pytest.mark.parametrize("family,size,used,mode", [
    ("haar", 2, 1, SampleMode.HALF_INTERPOLATE),
    ("dct", 4, 2, SampleMode.ALL_PHASES),
    ("custom", 3, 2, SampleMode.ALL_PHASES),
])
def test_window_norms_bound_each_window(family, size, used, mode):
    # S_j (1 + (K + 1) 2^-52), the square of W_j's bound, against the exact
    # sum of squares of row j's window of the scaled compact signal, every
    # kept projection, in exact rationals: on samples spread over e^-20 ..
    # e^20, and on a signal whose first half is 2^200 times louder than its
    # second, where rounding of the loud windows must not reach a quiet one
    from fractions import Fraction

    rng = np.random.default_rng(size)
    pair = random_pair(family, size, 29)
    cfg = PrecisionConfig(size, used, sample_mode=mode)
    bank = project_kernel_bank(rng.standard_normal((6, 40)), pair, cfg)
    spread = rng.standard_normal(300) * np.exp(rng.uniform(-20, 20, 300))
    stepped = rng.standard_normal(300)
    stepped[:150] *= 2.0 ** 200
    grow = 1 + Fraction(bank.toeplitz.shape[0] + 1, 2 ** 52)
    for s in (spread, stepped):
        setup = conv._peaks_setup(s, bank, None)
        screened = conv._screen_signal(setup[-1], bank)
        scaled = screened[0]
        sums = conv._row_bounds(bank, setup, screened,
                                conv._row_screen(bank, np.ones(bank.count)))
        compact_len, rows = setup[0], setup[3]
        span = bank.block + compact_len - 1
        assert sums.shape == (rows,)
        for j, total in enumerate(sums):
            window = scaled[:, j * bank.block:j * bank.block + span].reshape(-1)
            exact = sum(Fraction(float(v)) ** 2 for v in window)
            assert exact <= Fraction(float(total)) * grow <= exact * (1 + Fraction(1, 2 ** 40))


def test_row_bounds_hold_every_score_of_their_row():
    # U_j = gain sqrt(S_j) + floor against (1 + gamma_K) W_j N_e / energy_e
    # + the underflow floor, W_j^2 <= S_j (1 + (K + 1) 2^-52), and against
    # every float64 score of row j, squared, in exact rationals. The query
    # is zero but for the compact taps of the entry e with the largest N_e /
    # energy_e from compact sample 800 on (Haar projection 0 of a sample
    # pair is their sum over sqrt 2), so one sample meets Cauchy-Schwarz
    # with equality, and e wins
    from fractions import Fraction

    bank, signals, rng = _match_db_bank(5)
    energies = np.sum(signals * signals, axis=1)
    compact_len = bank.toeplitz.shape[0] - bank.block + 1
    entry = np.argmax(bank.screen.norms / energies)
    query = np.zeros(2048)
    query[1600:1600 + 2 * compact_len] = np.repeat(bank.screen.stack[:, entry] / math.sqrt(2), 2)
    setup = conv._peaks_setup(query, bank, None)
    screened = conv._screen_signal(setup[-1], bank)
    scale = screened[1]
    terms = conv._row_screen(bank, energies)
    sums, gain, floor = conv._row_bounds(bank, setup, screened, terms), terms.gain, terms.floor
    depth = bank.toeplitz.shape[0]
    gamma = Fraction(depth, 2 ** 53) / (1 - Fraction(depth, 2 ** 53))
    ratio = max(Fraction(float(n)) / Fraction(float(e))
                for n, e in zip(bank.screen.norms, energies))
    grow = 1 + Fraction(depth + 1, 2 ** 52)
    assert Fraction(gain) ** 2 >= (1 + gamma) ** 2 * grow * ratio ** 2
    assert Fraction(floor) >= Fraction(depth, 2 ** 123) / Fraction(float(energies.min()))
    padded, rows = setup[-1], setup[3]
    windows = conv._window_view(padded, bank.block, rows, 0, compact_len + bank.block - 1)
    y = np.abs(windows.reshape(rows, -1) @ bank.toeplitz).reshape(rows, -1, bank.count)
    scores = (y / energies).max(axis=(1, 2))
    for score, total in zip(scores, sums):
        excess = Fraction(float(score)) / Fraction(2) ** scale - Fraction(floor)
        assert excess <= 0 or excess ** 2 <= Fraction(gain) ** 2 * Fraction(float(total))
    # the planted taps: the tightest row's score within 1e-12 of its bound
    bounds = np.ldexp(gain * np.sqrt(sums) + floor, scale)
    assert np.max(scores / bounds) > 1 - 1e-12
    assert _decision(conv_projected_peaks(query, bank), energies,
                     range(bank.count)) == entry


def test_least_reaching_sum_keeps_every_row_that_can_reach():
    # a row with S below the threshold has gain sqrt(S) + floor below lower:
    # the threshold is at most ((lower - floor) / gain)^2 in exact rationals,
    # and within 2^-48 of it unless that is below 2^-1000, where it is 0
    from fractions import Fraction

    rng = np.random.default_rng(3)
    for _ in range(3000):
        lower, gain, floor = (float(v) for v in
                              rng.random(3) * np.ldexp(1.0, rng.integers(-540, 540, 3)))
        least = conv._least_reaching(lower, gain, floor)
        if lower <= floor:
            assert least == 0
            continue
        exact = ((Fraction(lower) - Fraction(floor)) / Fraction(gain)) ** 2
        if math.isinf(least):
            assert exact > Fraction(np.finfo(float).max)
        elif least == 0:
            assert exact < Fraction(2) ** -999
        else:
            assert exact * (1 - Fraction(1, 2 ** 48)) <= Fraction(least) <= exact


@pytest.mark.parametrize("seed", [5, 41])
def test_lower_bound_sits_strictly_below_the_loudest_rows_best_score(monkeypatch, seed):
    # the threshold's lower bound, the loudest row's best score in scaled
    # units, is rounded down, so a row whose bound only ties it is kept
    bank, signals, rng = _match_db_bank(seed)
    energies = np.sum(signals * signals, axis=1)
    db = FeatureDb.from_arrays((f"e{i:03d}", sig) for i, sig in enumerate(signals))
    queries = [q for _, q in synth_queries(db, 32, 2048, rng, 10.0)] + [np.zeros(2048)]
    seen = []
    bank_peaks, least_reaching = conv._bank_peaks, conv._least_reaching

    def peaks_spy(*args):
        seen.append(bank_peaks(*args))
        return seen[-1]

    def lower_spy(lower, *args):
        seen.append(lower)
        return least_reaching(lower, *args)

    monkeypatch.setattr(conv, "_bank_peaks", peaks_spy)
    monkeypatch.setattr(conv, "_least_reaching", lower_spy)
    positive = 0
    for query in queries:
        seen.clear()
        _match_peaks_of(query, bank, energies)
        peaks, lower = seen[:2]
        scale = conv._screen_signal(conv._peaks_setup(query, bank, None)[-1], bank)[1]
        best = math.ldexp(np.maximum.reduce(peaks / energies), -scale)
        assert lower < best if lower > 0 else lower == best == 0
        positive += lower > 0
    assert positive == len(queries) - 1


@pytest.mark.parametrize("seed", [0, 3, 4, 16])
def test_queries_loud_in_every_window_multiply_every_row(seed):
    # white noise whose first and last 16 samples, all that the end rows'
    # windows hold, are 4 times louder: every row's bound reaches the best
    # score, so every row is multiplied as conv_projected_peaks multiplies
    # them, and the loudest row's own product is dropped: the peaks are
    # conv_projected_peaks', bit for bit
    bank, signals, rng = _match_db_bank(seed)
    energies = np.sum(signals * signals, axis=1)
    query = rng.standard_normal(2048)
    query[:16] *= 4
    query[-16:] *= 4
    peaks, rows, path = _match_peaks_of(query, bank, energies)
    assert rows == _match_rows(query, bank) == 144
    assert path == "float64-product"
    want = conv_projected_peaks(query, bank)
    assert np.array_equal(peaks, want)
    ids = range(bank.count)
    assert _decision(peaks, energies, ids) == _decision(want, energies, ids)


def test_every_match_path_gives_the_float64_products_peaks():
    # white noise and -5 dB queries, where the row screen often keeps every
    # row: a query that multiplies every row gets the every-row float64
    # products' peaks bit for bit, as conv_projected_peaks does, and every
    # query gets the winner's own peak
    bank, signals, rng = _match_db_bank(5)
    energies = np.sum(signals * signals, axis=1)
    db = FeatureDb.from_arrays((f"e{i:03d}", sig) for i, sig in enumerate(signals))
    queries = ([rng.standard_normal(2048) for _ in range(64)]
               + [q for _, q in synth_queries(db, 64, 2048, rng, -5.0)])
    paths = []
    for query in queries:
        want = _peaks_by_copies(query, bank)
        assert np.array_equal(conv_projected_peaks(query, bank), want)
        peaks, rows, path = _match_peaks_of(query, bank, energies)
        paths.append(path)
        if path == "float64-product":
            assert rows == _match_rows(query, bank) and np.array_equal(peaks, want)
        winner = np.argmax(want / energies)
        assert peaks[winner] == want[winner]
    assert 0 < paths.count("float64-product") < len(queries)


@pytest.mark.parametrize("entry_exp,query_exp", [(140, -100), (-140, 100),
                                                (-100, 140), (100, -140)])
def test_screened_peaks_of_scaled_entries_and_queries(screen_every_call, entry_exp, query_exp):
    # white-noise queries, loud in every window, against entries and queries
    # scaled by powers of two past float32's range: conv_projected_peaks and
    # every match path scale exactly, and the match takes the same path
    # through the same rows
    bank, signals, rng = _match_db_bank(23)
    energies = np.sum(signals * signals, axis=1)
    scaled_bank = project_kernel_bank(np.ldexp(signals[:, ::-1], entry_exp), bank.pair,
                                      bank.config)
    scaled_energies = np.sum(np.ldexp(signals, entry_exp) ** 2, axis=1)
    paths = set()
    for _ in range(16):
        query = rng.standard_normal(2048)
        scaled = np.ldexp(query, query_exp)
        assert np.array_equal(conv_projected_peaks(scaled, scaled_bank),
                              np.ldexp(conv_projected_peaks(query, bank), entry_exp + query_exp))
        plain, rows, path = _match_peaks_of(query, bank, energies)
        got, scaled_rows, scaled_path = _match_peaks_of(scaled, scaled_bank, scaled_energies)
        assert (scaled_rows, scaled_path) == (rows, path)
        assert np.array_equal(got, np.ldexp(plain, entry_exp + query_exp))
        paths.add(path)
    assert paths == {"row-screen", "float64-product"}


def test_constant_signals_keep_every_full_window_row(monkeypatch):
    # a constant signal makes every window that lies inside the signal
    # equal, so each of their rows can reach the loudest row's best score
    # and is multiplied; the rows left out hold the signal's ends
    bank, signals, _ = _match_db_bank(41)
    energies = np.sum(signals * signals, axis=1)
    s = np.ones(2048)
    assert conv._screens(s.shape[0], bank)
    picks = []
    bank_peaks = conv._bank_peaks
    monkeypatch.setattr(conv, "_bank_peaks",
                        lambda *args: picks.append(args[-1]) or bank_peaks(*args))
    peaks, rows, path = _match_peaks_of(s, bank, energies)
    multiplied = np.sort(np.concatenate(picks))
    want = conv_projected_peaks(s, bank)
    compact_len = bank.toeplitz.shape[0] - bank.block + 1
    full = np.arange(-(-(compact_len - 1) // bank.block),
                     (2048 // bank.pair.size - bank.block) // bank.block + 1)
    assert np.all(np.isin(full, multiplied))
    assert path == "row-screen" and rows == multiplied.shape[0]
    assert 0 < multiplied[0] and multiplied[-1] < _match_rows(s, bank) - 1
    assert np.array_equal(multiplied, np.arange(multiplied[0], multiplied[-1] + 1))
    ids = range(bank.count)
    assert _decision(peaks, energies, ids) == _decision(want, energies, ids)
    winner = np.argmax(want / energies)
    assert_allclose(peaks[winner], want[winner], rtol=1e-12, atol=0)


def test_match_rows_count_the_neighbours_multiplied_at_block_1(screen_every_call,
                                                                  monkeypatch):
    # at B = 1 a single row is multiplied with a neighbour, as one-row
    # products can round equal columns apart, and the rows returned count
    # every row of both products
    rng = np.random.default_rng(1)
    entries = _smooth_rows(rng, 20, 5)
    cfg = PrecisionConfig(2, 1, sample_mode=SampleMode.HALF_INTERPOLATE)
    bank = project_kernel_bank(entries[:, ::-1], make_haar_pair(2), cfg)
    assert bank.block == 1
    energies = np.sum(entries * entries, axis=1)
    query = 0.1 * rng.standard_normal(300)
    query[120:125] += entries[3]
    picks = []
    bank_peaks = conv._bank_peaks
    monkeypatch.setattr(conv, "_bank_peaks",
                        lambda *args: picks.append(args[-1]) or bank_peaks(*args))
    peaks, rows, path = _match_peaks_of(query, bank, energies)
    assert path == "row-screen" and len(picks) == 2
    assert all(p.shape[0] == 2 for p in picks)
    assert rows == sum(p.shape[0] for p in picks) == 4
    ids = range(20)
    assert _decision(peaks, energies, ids) == _decision(conv_projected_peaks(query, bank),
                                                        energies, ids)


@pytest.mark.parametrize("seed", [5, 23])
def test_last_row_kept_but_not_loudest_stops_at_the_output_end(monkeypatch, seed):
    # the match-db geometry with queries of 2047 samples: the last product
    # row holds one stream sample past the output's end. Entry 3's first
    # sample and the query's last are spikes, so that sample, their product,
    # exceeds every sample of entry 3 inside the output; the loud end keeps
    # the last row, but an earlier row, holding more of the noise, is the
    # loudest
    bank, signals, rng = _match_db_bank(seed)
    signals[3, 0] = 40.0
    bank = project_kernel_bank(signals[:, ::-1], bank.pair, bank.config)
    energies = np.sum(signals * signals, axis=1)
    query = 0.1 * rng.standard_normal(2047)
    query[-1] = 30.0
    last = _match_rows(query, bank) - 1
    picks = []
    bank_peaks = conv._bank_peaks
    with monkeypatch.context() as patch:
        patch.setattr(conv, "_bank_peaks",
                      lambda *args: picks.append(args[-1]) or bank_peaks(*args))
        peaks, rows, path = _match_peaks_of(query, bank, energies)
    loudest, kept = picks
    assert loudest[0] != last and kept[-1] == last
    assert path == "row-screen" and rows == kept.shape[0] + 1 < last
    want = conv_projected_peaks(query, bank)
    _assert_partial_peaks(peaks, want, energies, 1e-14)
    # the last row's samples past the output's end would raise entry 3's peak
    setup = conv._peaks_setup(query, bank, None)
    windows = conv._window_view(setup[-1], bank.block, last + 1, 0,
                                bank.block + setup[0] - 1)
    y = np.abs(windows[last] @ bank.toeplitz).reshape(-1, bank.count)
    assert y[-1, 3] > want[3] >= y[:-1, 3].max()


@pytest.mark.parametrize("seed", [5, 23, 41])
def test_row_screen_multiplies_under_a_quarter_of_the_rows(seed):
    # the match-db geometry, 256 queries of 2048 samples in 10 dB noise:
    # about 15 of 144 rows per query
    rng = np.random.default_rng(seed)
    db = synth_feature_db(64, 256, rng)
    queries = synth_queries(db, 256, 2048, rng, 10.0)
    bank, signals, _ = _match_db_bank(seed)
    assert np.array_equal(signals, np.stack([sig for _, sig in db.entries]))
    energies = np.sum(signals * signals, axis=1)
    counts = []
    for _, query in queries:
        peaks, rows, path = _match_peaks_of(query, bank, energies)
        counts.append(rows)
        assert path == "row-screen"
        _assert_partial_peaks(peaks, conv_projected_peaks(query, bank),
                              energies, 1e-14)
    assert np.mean(counts) < 144 / 4


def test_pruned_peaks_keep_planted_near_ties():
    # entry 1 is entry 0 scaled by 1 + 2^-30, and the query holds entry 0
    # twice, the second copy 1 + 2^-30 louder: ties far closer than the slack
    bank, signals, rng = _match_db_bank(5)
    tie = 1 + 2.0 ** -30
    signals[1] = signals[0] * tie
    bank = project_kernel_bank(signals[:, ::-1], bank.pair, bank.config)
    query = np.zeros(2048)
    query[300:556] = signals[0]
    query[1200:1456] = signals[0] * tie
    energies = np.sum(signals * signals, axis=1)
    assert conv._screens(query.shape[0], bank)
    got, rows, _ = _match_peaks_of(query, bank, energies)
    want = conv_projected_peaks(query, bank)
    assert 2 <= rows < _match_rows(query, bank)
    assert got[0] > 0 and got[1] > 0
    # both within gamma_K(2^-53) ||x|| ||T_j|| of the float64 product's peaks
    sc = project_signal(query, bank.pair, 0)
    norms = np.sqrt((bank.toeplitz ** 2).sum(axis=0)).reshape(-1, bank.count).max(axis=0)
    depth = bank.toeplitz.shape[0]
    gamma = depth * 2.0 ** -53 / (1 - depth * 2.0 ** -53)
    assert np.all(np.abs(got[:2] - want[:2]) <= gamma * np.sqrt(sc @ sc) * norms[:2])
    ids = [f"e{i:03d}" for i in range(bank.count)]
    assert _decision(got, energies, ids) == _decision(want, energies, ids) == "e000"
    db = FeatureDb.from_arrays(zip(ids, signals))
    assert xcorr_match(query, db, ConvMode(pair=bank.pair, config=bank.config))[0] == "e000"


def test_pruning_keeps_entries_whose_score_sits_in_the_details(pruning):
    # entry 7 is modulated by (-, +, +, -): at L = 2 its compact taps, and
    # a copy at an odd delay, alternate in sign, so nearly all its energy is
    # in the Haar details of its compact taps; the window bound does not
    # depend on that split
    bank, signals, rng = _match_db_bank(23)
    signals[7] *= np.resize([-1.0, 1.0, 1.0, -1.0], 256)
    bank = project_kernel_bank(signals[:, ::-1], bank.pair, bank.config)
    energies = np.sum(signals * signals, axis=1)
    ids = [f"e{i:03d}" for i in range(bank.count)]
    for delay in (1, 515, 1791):
        query = 0.05 * rng.standard_normal(2048)
        query[delay:delay + 256] += signals[7]
        got = _match_peaks_of(query, bank, energies)[0]
        want = conv_projected_peaks(query, bank)
        assert got[7] > 0
        assert _decision(got, energies, ids) == _decision(want, energies, ids) == "e007"


def test_pruned_duplicates_go_to_the_lowest_id(float64_products):
    # entries 9 and 40 are copies of entry 3 under ids that sort before it
    bank, signals, rng = _match_db_bank(41)
    signals[9] = signals[40] = signals[3]
    ids = [f"e{i:03d}" for i in range(64)]
    ids[40], ids[9] = "a040", "b009"
    db = FeatureDb.from_arrays(zip(ids, signals))
    mode = ConvMode(pair=bank.pair, config=bank.config)
    bank = project_kernel_bank(signals[:, ::-1], bank.pair, bank.config)
    energies = np.sum(signals * signals, axis=1)
    for delay in (11, 1000):
        query = 0.1 * rng.standard_normal(2048)
        query[delay:delay + 256] += signals[3]
        got, rows, _ = _match_peaks_of(query, bank, energies)
        assert rows < _match_rows(query, bank)
        assert got[3] == got[9] == got[40] > 0
        assert xcorr_match(query, db, mode)[0] == "a040"
        assert float64_products(xcorr_match, query, db, mode)[0] == "a040"


@pytest.mark.parametrize("entry_exp,query_exp", [(140, -100), (-140, 100),
                                                (-100, 140), (100, -140)])
def test_pruned_peaks_of_scaled_entries_and_queries(entry_exp, query_exp):
    # powers of two move nothing but the units: the same rows are kept,
    # their peaks scale exactly, and the decisions stay
    bank, signals, rng = _match_db_bank(23)
    energies = np.sum(signals * signals, axis=1)
    scaled_bank = project_kernel_bank(np.ldexp(signals[:, ::-1], entry_exp), bank.pair,
                                      bank.config)
    scaled_energies = np.sum(np.ldexp(signals, entry_exp) ** 2, axis=1)
    ids = [f"e{i:03d}" for i in range(bank.count)]
    for pick in (2, 50):
        query = 0.1 * rng.standard_normal(2048)
        query[900:1156] += signals[pick]
        plain, rows, _ = _match_peaks_of(query, bank, energies)
        got, scaled_rows, _ = _match_peaks_of(np.ldexp(query, query_exp), scaled_bank,
                                                scaled_energies)
        assert scaled_rows == rows < _match_rows(query, bank)
        assert np.array_equal(got, np.ldexp(plain, entry_exp + query_exp))
        assert (_decision(got, scaled_energies, ids) == _decision(plain, energies, ids)
                == ids[pick])


def _smooth_rows(rng, count, length):
    return np.stack([synth.ar_signal(length, rng) for _ in range(count)])


@pytest.mark.parametrize("family,size,used,mode", [
    ("haar", 2, 1, SampleMode.HALF_INTERPOLATE),
    ("haar", 4, 2, SampleMode.ALL_PHASES),
    ("dct", 4, 2, SampleMode.ALL_PHASES),
    ("dct", 8, 3, SampleMode.HALF_INTERPOLATE),
    ("custom", 3, 2, SampleMode.ALL_PHASES),
])
def test_pruned_match_decisions_across_pairs_and_phases(pruning, float64_products, family,
                                                        size, used, mode):
    rng = np.random.default_rng(size * 10 + used)
    pair = random_pair(family, size, 7)
    cfg = PrecisionConfig(size, used, sample_mode=mode)
    entries = _smooth_rows(rng, 16, 96)
    ids = [f"e{i:03d}" for i in range(16)]
    db = FeatureDb.from_arrays(zip(ids, entries))
    dbmode = ConvMode(pair=pair, config=cfg)
    bank = project_kernel_bank(entries[:, ::-1], pair, cfg)
    energies = np.sum(entries * entries, axis=1)
    counts = []
    for pick in range(0, 16, 3):
        query = 0.2 * rng.standard_normal(700)
        delay = int(rng.integers(0, 700 - 96))
        query[delay:delay + 96] += entries[pick]
        peaks, rows, _ = _match_peaks_of(query, bank, energies)
        want = conv_projected_peaks(query, bank)
        counts.append(rows / _match_rows(query, bank))
        _assert_partial_peaks(peaks, want, energies, 1e-13)
        got = xcorr_match(query, db, dbmode)
        best = float64_products(xcorr_match, query, db, dbmode)
        assert got[0] == best[0] == _decision(want, energies, ids)
        assert got[1] == pytest.approx(best[1], rel=1e-13)
    if pruning == "every-call":
        assert np.mean(counts) < 1
    else:
        assert counts == [1] * len(counts)


@st.composite
def pruning_case(draw):
    family, size, seed, _ = draw(pair_geometry)
    used = draw(st.integers(1, size))
    klen = draw(st.integers(1, 60))
    slen = draw(st.integers(klen, 200))
    count = draw(st.integers(1, 40))
    return family, size, seed, used, klen, slen, count


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pruning_case(), st.sampled_from(list(SampleMode)))
# entries of one sample that tie exactly at B = 1, where a one-row product
# runs as a matrix-vector product and can round identical columns apart
@example(("haar", 4, 1, 3, 1, 8, 5), SampleMode.HALF_INTERPOLATE)
@example(("dct", 3, 19865, 2, 1, 88, 34), SampleMode.HALF_INTERPOLATE)
def test_pruned_decisions_equal_float64_products_property(pruning, case, mode):
    family, size, seed, used, klen, slen, count = case
    pair = random_pair(family, size, seed)
    cfg = PrecisionConfig(size, used, sample_mode=mode)
    rng = np.random.default_rng(seed)
    entries = _smooth_rows(rng, count, klen)
    query = 0.1 * rng.standard_normal(slen)
    delay = int(rng.integers(0, slen - klen + 1))
    query[delay:delay + klen] += entries[int(rng.integers(count))]
    bank = project_kernel_bank(entries[:, ::-1], pair, cfg)
    energies = np.sum(entries * entries, axis=1)
    peaks = _match_peaks_of(query, bank, energies)[0]
    want = conv_projected_peaks(query, bank)
    _assert_partial_peaks(peaks, want, energies, 1e-12)
    ids = [f"e{i:03d}" for i in range(count)]
    assert _decision(peaks, energies, ids) == _decision(want, energies, ids)


def test_products_of_2_to_8_rows_keep_identical_columns_equal():
    # _bank_peaks multiplies a single row at B = 1 with a neighbour on this
    # BLAS property: with 1 to 8 terms (entries of one sample, p <= 8) a
    # product of 2 to 8 rows gives columns equal up to sign equal |values|,
    # where a one-row product, run as a matrix-vector product, may not
    rng = np.random.default_rng(0)
    for terms in range(1, 9):
        for rows in range(2, 9):
            for columns in range(2, 70):
                x = rng.standard_normal((rows, terms))
                w = rng.standard_normal((terms, 1)) * rng.choice([-1.0, 1.0], columns)
                y = np.abs(x @ w)
                assert np.array_equal(y, np.repeat(y[:, :1], columns, axis=1))


@pytest.mark.parametrize("klen", [1, 3, 5, 64])
@pytest.mark.parametrize("family,size", [("haar", 2), ("haar", 4), ("dct", 3)])
def test_entries_equal_up_to_sign_go_to_the_lowest_id(pruning, family, size, klen):
    # conventional mode ties exact +-duplicates and gives the tie to the
    # lowest id; projected mode must too, at B = 1 (entries of 1 to 5
    # samples) and at B >= 2 (64 samples), where a wide product can round
    # its last columns apart from the others
    pair = random_pair(family, size, 0)
    rng = np.random.default_rng(klen)
    base = _smooth_rows(rng, 2, klen)
    entries = np.vstack([base[:1], rng.choice([-1.0, 1.0], (32, 1)) * base[1]])
    ids = [f"e{i:03d}" for i in range(33)]
    db = FeatureDb.from_arrays(zip(ids, entries))
    lowest = {ids[j]: ids[min(i for i in range(33) for sign in (1, -1)
                              if np.array_equal(entries[i], sign * entries[j]))]
              for j in range(33)}
    for used in range(1, size + 1):
        for mode in SampleMode:
            cfg = PrecisionConfig(size, used, sample_mode=mode)
            assert (project_kernel_bank(entries, pair, cfg).block == 1) == (klen < 64)
            for _ in range(5):
                query = 0.05 * rng.standard_normal(120)
                delay = int(rng.integers(0, 120 - klen))
                query[delay:delay + klen] += base[1]
                want = xcorr_match(query, db)[0]
                got = xcorr_match(query, db, ConvMode(pair=pair, config=cfg))[0]
                assert want == lowest[want] and got == lowest[got]
                if used == size and mode is SampleMode.ALL_PHASES:
                    assert got == want


@pytest.mark.parametrize("seed", range(110, 125))
def test_pruning_bounds_stop_at_the_output_end(pruning, seed):
    # entries and query hold their mass in their first and last L samples,
    # so the product samples past the output's end, which the last row's
    # window runs into, can exceed every sample inside it; a lower bound
    # taken from them would drop the winner
    pair = make_dct_pair(4)
    cfg = PrecisionConfig(4, 1, sample_mode=SampleMode.ALL_PHASES)
    rng = np.random.default_rng(seed)
    entries = np.zeros((2, 10))
    entries[:, :4] = rng.standard_normal((2, 4))
    entries += 1e-3 * rng.standard_normal((2, 10))
    query = 1e-3 * rng.standard_normal(21)
    query[-4:] = rng.standard_normal(4)
    bank = project_kernel_bank(entries[:, ::-1], pair, cfg)
    energies = np.sum(entries * entries, axis=1)
    peaks = _match_peaks_of(query, bank, energies)[0]
    want = conv_projected_peaks(query, bank)
    assert _decision(peaks, energies, "ab") == _decision(want, energies, "ab")
