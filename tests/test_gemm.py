import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pkscale.config import PrecisionConfig
from pkscale.costs import MacCounter, mac_gemm_proj_general
from pkscale.errors import DimensionMismatch, DomainError
from pkscale.gemm import (
    Orientation,
    gemm_conventional,
    gemm_projected,
    reorder_block_major,
)
from pkscale.projection import make_dct_pair, make_haar_pair, project_cols, project_rows
from pkscale.reference import gemm_partial

from pair_cases import pair_geometry, random_pair

EXACT_REL = 1e-12


def test_conventional_hand_value():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    assert_allclose(gemm_conventional(a, b, 2), [[19.0, 22.0], [43.0, 50.0]])


def test_conventional_matches_numpy_with_borders():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, (7, 11))
    b = rng.uniform(-1, 1, (11, 5))
    assert_allclose(gemm_conventional(a, b, 4), a @ b, rtol=EXACT_REL, atol=1e-14)


def test_conventional_rejects_mismatched_inner():
    with pytest.raises(DimensionMismatch):
        gemm_conventional(np.ones((2, 3)), np.ones((4, 2)), 2)


def _assert_blocks_equal_source(ro, m, block):
    for bi in range(ro.grid[0]):
        for bj in range(ro.grid[1]):
            want = m[bi * block:(bi + 1) * block, bj * block:(bj + 1) * block]
            assert np.array_equal(ro.block_view(bi, bj), want)


def test_reorder_round_trip_row_wise():
    rng = np.random.default_rng(7)
    m = rng.uniform(-1, 1, (6, 10))
    ro = reorder_block_major(m, 4, Orientation.ROW_WISE)
    assert ro.grid == (2, 3)
    _assert_blocks_equal_source(ro, m, 4)


def test_reorder_round_trip_col_wise():
    rng = np.random.default_rng(8)
    m = rng.uniform(-1, 1, (9, 5))
    ro = reorder_block_major(m, 3, Orientation.COL_WISE)
    assert ro.grid == (3, 2)
    _assert_blocks_equal_source(ro, m, 3)


def test_reorder_data_layout_hand_value():
    m = np.arange(16.0).reshape(4, 4)
    ro = reorder_block_major(m, 2, Orientation.ROW_WISE)
    # first block is the top-left 2x2, row-major
    assert_allclose(ro.data[:4], [0.0, 1.0, 4.0, 5.0])
    co = reorder_block_major(m, 2, Orientation.COL_WISE)
    # first block is the same 2x2 but column-major
    assert_allclose(co.data[:4], [0.0, 4.0, 1.0, 5.0])


def test_full_projection_equals_plain():
    rng = np.random.default_rng(21)
    pair = make_dct_pair(8)
    a = rng.uniform(-1, 1, (6, 16))
    b = rng.uniform(-1, 1, (16, 9))
    cfg = PrecisionConfig(8, 8)
    exact = a @ b
    approx = gemm_projected(a, b, pair, cfg)
    assert_allclose(approx, exact, rtol=EXACT_REL, atol=1e-13)


def test_projected_constant_operands_exact_at_one_projection():
    # constants live entirely in the mean component, so one cosine
    # projection already reproduces the product
    pair = make_dct_pair(4)
    a = np.full((3, 8), 2.0)
    b = np.full((8, 2), 0.5)
    out = gemm_projected(a, b, pair, PrecisionConfig(4, 1))
    assert_allclose(out, a @ b, rtol=EXACT_REL)


def test_projected_partial_sums_are_additive():
    rng = np.random.default_rng(30)
    pair = make_dct_pair(4)
    a = rng.uniform(-1, 1, (5, 12))
    b = rng.uniform(-1, 1, (12, 7))
    total = np.zeros((5, 7))
    for used in range(1, 5):
        total += gemm_partial(a, b, pair, used - 1)
        assert_allclose(gemm_projected(a, b, pair, PrecisionConfig(4, used)),
                        total, rtol=EXACT_REL, atol=1e-13)


def test_projected_pads_odd_inner_dimension():
    rng = np.random.default_rng(31)
    pair = make_dct_pair(8)
    a = rng.uniform(-1, 1, (4, 13))
    b = rng.uniform(-1, 1, (13, 6))
    out = gemm_projected(a, b, pair, PrecisionConfig(8, 8))
    assert out.shape == (4, 6)
    assert_allclose(out, a @ b, rtol=EXACT_REL, atol=1e-13)


def test_projected_empty_dimensions():
    pair = make_dct_pair(4)
    cfg = PrecisionConfig(4, 2)
    for m, k, w in ((2, 0, 3), (0, 8, 3), (2, 8, 0)):
        a, b = np.ones((m, k)), np.ones((k, w))
        assert_allclose(gemm_projected(a, b, pair, cfg), np.zeros((m, w)))


def test_projected_config_pair_size_must_match():
    pair = make_dct_pair(4)
    with pytest.raises(DomainError):
        gemm_projected(np.ones((2, 8)), np.ones((8, 2)), pair, PrecisionConfig(8, 1))


def test_projected_counter_charges_padding_and_accumulation():
    pair = make_dct_pair(4)
    a = np.ones((3, 6))     # pads to 3 x 8
    b = np.ones((6, 2))     # pads to 8 x 2
    counter = MacCounter()
    gemm_projected(a, b, pair, PrecisionConfig(4, 2), counter=counter)
    per_pass = 3 * 8 + 8 * 2 + 3 * 2 * 2
    expected = 2 * per_pass + 3 * 2    # one accumulation beyond the first pass
    assert counter.count == expected


def test_conventional_counter_is_mkw():
    counter = MacCounter()
    gemm_conventional(np.ones((5, 7)), np.ones((7, 3)), 4, counter=counter)
    assert counter.count == 5 * 7 * 3


def test_float32_inputs_stay_float32():
    pair = make_haar_pair(2)
    a = np.ones((2, 4), dtype=np.float32)
    b = np.ones((4, 2), dtype=np.float32)
    assert gemm_projected(a, b, pair, PrecisionConfig(2, 2)).dtype == np.float32
    assert gemm_conventional(a, b, 2).dtype == np.float32


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 6), st.integers(1, 4))
def test_projected_full_sum_matches_numpy(m, kg, w, block_groups):
    rng = np.random.default_rng(m * 1000 + kg * 100 + w * 10 + block_groups)
    pair = make_haar_pair(4)
    a = rng.uniform(-1, 1, (m, 4 * kg))
    b = rng.uniform(-1, 1, (4 * kg, w))
    out = gemm_projected(a, b, pair, PrecisionConfig(4, 4))
    assert_allclose(out, a @ b, rtol=0, atol=1e-12 * max(1.0, np.abs(a @ b).max()))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 9), st.integers(2, 9), st.integers(2, 9), st.integers(1, 10))
def test_conventional_any_blocking_matches_numpy(m, k, w, block):
    rng = np.random.default_rng(m * 729 + k * 81 + w * 9 + block)
    a = rng.uniform(-1, 1, (m, k))
    b = rng.uniform(-1, 1, (k, w))
    assert_allclose(gemm_conventional(a, b, block), a @ b,
                    rtol=0, atol=1e-12 * max(1.0, np.abs(a @ b).max()))


def _operands(data, seed, dtype, k):
    m = data.draw(st.integers(1, 9))
    w = data.draw(st.integers(1, 9))
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((m, k)).astype(dtype),
            rng.standard_normal((k, w)).astype(dtype))


@settings(max_examples=60, deadline=None)
@given(pair_geometry, st.data())
def test_stacked_projections_are_index_major_single_projections(geometry, data):
    family, size, seed, dtype = geometry
    pair = random_pair(family, size, seed)
    used = data.draw(st.integers(1, size))
    groups = data.draw(st.integers(1, 5))
    a, b = _operands(data, seed, dtype, groups * size)
    rows = project_rows(a, pair, range(used))
    cols = project_cols(b, pair, range(used))
    assert rows.shape == (a.shape[0], used * groups) and rows.dtype == dtype
    assert cols.shape == (used * groups, b.shape[1]) and cols.dtype == dtype
    # each entry is an L-term sum, rounded at about L * eps of its operands
    tol = 1e-14 if dtype == np.float64 else 1e-6
    scale_a = np.abs(a).max() * np.abs(pair.forward).sum(axis=0).max()
    scale_b = np.abs(b).max() * np.abs(pair.inverse).sum(axis=1).max()
    assert_allclose(rows, np.hstack([project_rows(a, pair, l) for l in range(used)]),
                    rtol=0, atol=tol * scale_a)
    assert_allclose(cols, np.vstack([project_cols(b, pair, l) for l in range(used)]),
                    rtol=0, atol=tol * scale_b)


@settings(max_examples=60, deadline=None)
@given(pair_geometry, st.data())
def test_stacked_gemm_matches_partial_sums_cache_and_counter(geometry, data):
    family, size, seed, dtype = geometry
    pair = random_pair(family, size, seed)
    used = data.draw(st.integers(1, size))
    k = data.draw(st.integers(1, 5 * size))          # any inner dimension
    a, b = _operands(data, seed, dtype, k)
    m, w = a.shape[0], b.shape[1]
    cfg = PrecisionConfig(size, used)
    counter = MacCounter()
    got = gemm_projected(a, b, pair, cfg, counter=counter)
    assert got.shape == (m, w) and got.dtype == dtype
    padded = -(-k // size) * size
    assert counter.count == mac_gemm_proj_general(m, padded, w, used - 1, size)
    if dtype != np.float64:
        return
    ap = np.zeros((m, padded))
    ap[:, :k] = a
    bp = np.zeros((padded, w))
    bp[:k] = b
    # bound by the size of the summed slice terms, not of the result, which
    # can cancel far below them
    terms = sum(np.abs(project_rows(ap, pair, l)) @ np.abs(project_cols(bp, pair, l))
                for l in range(used))
    want = sum(gemm_partial(ap, bp, pair, l) for l in range(used))
    assert_allclose(got, want, rtol=0, atol=1e-12 * terms.max())
