import numpy as np
import pytest
from numpy.testing import assert_allclose

from pkscale.costs import (
    CostReport,
    Domain,
    MacCounter,
    counted_block_conv,
    counted_conv_projected_block,
    mac_conv_plain_freq,
    mac_conv_plain_time,
    mac_conv_proj_freq,
    mac_conv_proj_general,
    mac_conv_proj_time,
    mac_gemm_plain,
    mac_gemm_plain_general,
    mac_gemm_proj,
    mac_gemm_proj_general,
    mem_transfer,
    ratio_table,
    validate_conv_plain_time,
    validate_conv_projected_time,
    validate_gemm_plain,
    validate_gemm_projected,
)
from pkscale.errors import DimensionMismatch, DomainError
from pkscale.projection import make_dct_pair, make_haar_pair


def test_gemm_mac_golden_values():
    assert mac_gemm_plain(144) == 2_985_984
    assert mac_gemm_proj(144, 0, 8) == 414_720
    # full precision at L=8: 144^2 * (8 * 18 + 3 * 7 + 2)
    assert mac_gemm_proj(144, 7, 8) == 3_462_912


def test_conv_mac_golden_values():
    assert mac_conv_plain_time(600) == 720_000
    assert mac_conv_proj_time(600, 0, 2) == 182_401
    assert mac_conv_proj_time(600, 1, 2) == 364_802
    assert mac_conv_plain_freq(600) == 293_957


def test_conv_freq_projected_combines_block_and_projection_terms():
    # l = L-1 at L = 2: two compact length-300 blocks plus projection passes
    expected = 2 * (4 * 600 + 1) + round(2 * ((45 * 300 + 15) * np.log2(901) + 901))
    assert mac_conv_proj_freq(600, 1, 2) == expected


def test_gemm_general_reduces_to_square_form():
    for n, l, size in ((16, 0, 2), (144, 3, 8), (64, 7, 8)):
        assert mac_gemm_proj_general(n, n, n, l, size) == mac_gemm_proj(n, l, size)
    assert mac_gemm_plain_general(144, 144, 144) == mac_gemm_plain(144)
    assert mac_gemm_plain_general(144, 40, 144) == 144 * 40 * 144


def test_conv_general_golden_values():
    # bench-conv defaults (W 20000, N 600, L 2, p 1): half rate, all phases
    assert mac_conv_proj_general(20000, 600, 2, 1, 1) == 3_030_600
    assert mac_conv_proj_general(20000, 600, 2, 1, 2) == 6_041_200
    # 200000-sample signal, 600 taps, L 4, p 2, all phases
    assert mac_conv_proj_general(200_000, 600, 4, 2, 4) == 60_804_800
    for bad in ((8, 9, 2, 1, 1), (8, 0, 2, 1, 1), (8, 4, 2, 0, 1), (8, 4, 2, 3, 1),
                (8, 4, 2, 1, 0), (8, 4, 2, 1, 3), (8, 4, 1, 1, 1)):
        with pytest.raises(DomainError):
            mac_conv_proj_general(*bad)


def test_mac_argument_validation():
    with pytest.raises(DomainError):
        mac_gemm_plain(0)
    with pytest.raises(DomainError):
        mac_gemm_proj(16, 8, 8)
    with pytest.raises(DomainError):
        mac_gemm_proj(15, 0, 8)
    with pytest.raises(DomainError):
        mac_conv_proj_time(600, -1, 2)
    with pytest.raises(DomainError):
        mac_gemm_proj_general(0, 8, 8, 0, 2)


def test_memory_golden_values():
    gemm = mem_transfer(Domain.GEMM, 144, 0, 8, 32)
    assert gemm.plain_bits == 1_327_104
    assert gemm.projected_bits == 165_888
    assert gemm.reduction_percent == pytest.approx(87.5)
    conv = mem_transfer(Domain.CONV_TIME, 600, 0, 2, 32)
    assert conv.plain_bits == 76_832
    assert conv.projected_bits == 38_432
    assert conv.reduction_percent == pytest.approx(50.0)


def test_memory_reduction_only_quoted_below_full_precision():
    assert mem_transfer(Domain.GEMM, 16, 7, 8, 32).reduction_percent is None
    assert mem_transfer(Domain.GEMM, 16, 6, 8, 32).reduction_percent == pytest.approx(12.5)


def test_memory_validation():
    with pytest.raises(DomainError):
        mem_transfer(Domain.GEMM, 15, 0, 8, 32)
    with pytest.raises(DomainError):
        mem_transfer(Domain.GEMM, 16, 0, 8, 16)


def test_gemm_ratio_golden_values():
    rows = ratio_table(Domain.GEMM, [144], [2, 4, 8, 16])
    got = {row.size: row.ratio_percent for row in rows}
    assert got[2] == pytest.approx(51.3889, abs=5e-5)
    assert got[4] == pytest.approx(26.3889, abs=5e-5)
    assert got[8] == pytest.approx(13.8889, abs=5e-5)
    assert got[16] == pytest.approx(7.6389, abs=5e-5)


def test_ratio_table_other_domains_run():
    for domain in (Domain.CONV_TIME, Domain.CONV_FREQ):
        (row,) = ratio_table(domain, [600], [2])
        assert 0.0 < row.ratio_percent < 100.0
        assert row.domain is domain


def test_counted_block_conv_is_steady_state_slice():
    rng = np.random.default_rng(12)
    n = 10
    block = rng.uniform(-1, 1, 3 * n + 1)
    kernel = rng.uniform(-1, 1, n)
    counter = MacCounter()
    out = counted_block_conv(block, kernel, counter)
    full = np.convolve(block, kernel)
    assert_allclose(out, full[n - 1:n - 1 + 2 * n], atol=1e-12)
    assert counter.count == 2 * n * n


def test_counted_block_conv_requires_minimum_block():
    with pytest.raises(DimensionMismatch):
        counted_block_conv(np.ones(30), np.ones(10))


def test_counted_projected_block_geometry():
    rng = np.random.default_rng(13)
    pair = make_haar_pair(2)
    n = 8
    block = rng.uniform(-1, 1, 3 * n + 1)
    kernel = rng.uniform(-1, 1, n)
    # the compacted sequences form another minimum block at 1/L rate
    out = counted_conv_projected_block(block, kernel, pair, 2)
    assert out.shape == (2 * (n // 2),)
    with pytest.raises(DomainError):
        counted_conv_projected_block(block, rng.uniform(-1, 1, 9), pair, 1)


@pytest.mark.parametrize("n", [8, 16])
def test_validate_gemm_plain_counter(n):
    report = validate_gemm_plain(n)
    assert report.macs_model == report.macs_measured == n ** 3
    assert isinstance(report, CostReport)


@pytest.mark.parametrize("l", [0, 3, 7])
def test_validate_gemm_projected_counter(l):
    pair = make_dct_pair(8)
    report = validate_gemm_projected(16, l, 8, pair)
    assert report.macs_model == report.macs_measured == mac_gemm_proj(16, l, 8)


def test_validate_conv_counters():
    report = validate_conv_plain_time(16)
    assert report.macs_model == report.macs_measured == 512
    pair = make_haar_pair(2)
    for l in (0, 1):
        report = validate_conv_projected_time(16, l, 2, pair)
        assert report.macs_model == report.macs_measured
        assert report.macs_model == mac_conv_proj_time(16, l, 2)
