import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pkscale.errors import DimensionMismatch, DomainError, IndexOutOfRange, SingularMatrix
from pkscale.projection import (
    CONDITION_LIMIT,
    INVERSE_TOL,
    PIVOT_TOL,
    PairKind,
    _smallest_pivot,
    make_custom_pair,
    make_dct_pair,
    make_haar_pair,
    project_cols,
    project_rows,
    project_signal,
    project_signal_dual,
)

IDENTITY_TOL = 1e-10


@pytest.mark.parametrize("size", [2, 4, 8, 16])
def test_dct_pair_inverse_identity(size):
    pair = make_dct_pair(size)
    assert_allclose(pair.forward @ pair.inverse, np.eye(size), atol=IDENTITY_TOL)
    assert_allclose(pair.inverse @ pair.forward, np.eye(size), atol=IDENTITY_TOL)


@pytest.mark.parametrize("size", [2, 4, 8])
def test_haar_pair_inverse_identity(size):
    pair = make_haar_pair(size)
    assert_allclose(pair.forward @ pair.inverse, np.eye(size), atol=IDENTITY_TOL)


def test_dct_first_column_is_all_ones():
    pair = make_dct_pair(8)
    assert_allclose(pair.forward[:, 0], np.ones(8))


def test_dct_inverse_maps_constant_to_first_coefficient():
    # the inverse's response to a constant signal isolates the mean component
    pair = make_dct_pair(8)
    e0 = np.zeros(8)
    e0[0] = 1.0
    assert_allclose(pair.inverse @ np.ones(8), e0, atol=1e-12)


def test_dct_columns_orthogonal_with_known_norms():
    size = 8
    pair = make_dct_pair(size)
    gram = pair.forward.T @ pair.forward
    expected = np.diag([size] + [size / 2] * (size - 1))
    assert_allclose(gram, expected, atol=1e-12)


def test_haar_two_matches_hand_matrix():
    pair = make_haar_pair(2)
    r = 1.0 / np.sqrt(2.0)
    assert_allclose(pair.forward, np.array([[r, r], [r, -r]]))
    assert_allclose(pair.inverse, pair.forward.T)


def test_haar_is_orthonormal():
    pair = make_haar_pair(8)
    assert_allclose(pair.forward @ pair.forward.T, np.eye(8), atol=1e-12)


def test_haar_rejects_non_power_of_two():
    with pytest.raises(DomainError):
        make_haar_pair(6)


@pytest.mark.parametrize("size", [0, 1, 65])
def test_pair_size_bounds(size):
    with pytest.raises(DomainError):
        make_dct_pair(size)


def test_custom_pair_round_trip():
    rng = np.random.default_rng(5)
    m = rng.uniform(-1, 1, (4, 4)) + 2 * np.eye(4)
    pair = make_custom_pair(m)
    assert pair.kind is PairKind.CUSTOM
    assert_allclose(pair.forward @ pair.inverse, np.eye(4), atol=IDENTITY_TOL)


def test_singular_matrix_rejected():
    with pytest.raises(SingularMatrix):
        make_custom_pair(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_ill_conditioned_matrix_rejected():
    import scipy.linalg

    with pytest.raises(SingularMatrix):
        make_custom_pair(scipy.linalg.hilbert(8))


MATRIX_KINDS = ("random", "near-singular", "repeated-row", "ill-conditioned")


def _test_matrices(kind, count=150):
    """Deterministic square matrices of size 2..16: ``random`` Gaussian,
    ``near-singular`` (one column a combination of the others, plus noise
    from 1e-17 to 1e-3), ``repeated-row`` (exactly singular) and
    ``ill-conditioned`` (singular values spread over 1e0..1e-12)."""
    rng = np.random.default_rng(MATRIX_KINDS.index(kind))
    for _ in range(count):
        size = int(rng.integers(2, 17))
        c = rng.standard_normal((size, size))
        if kind == "near-singular":
            c[:, -1] = c[:, :-1] @ rng.standard_normal(size - 1)
            c += 10.0 ** rng.uniform(-17, -3) * rng.standard_normal((size, size))
        elif kind == "repeated-row":
            c[int(rng.integers(size))] = c[int(rng.integers(size))]
        elif kind == "ill-conditioned":
            u, _, vt = np.linalg.svd(c)
            c = u @ np.diag(np.logspace(0, -rng.uniform(0, 12), size)) @ vt
        yield c


def _lapack_lu(c):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        return scipy.linalg.lu_factor(c)


def _smallest_lapack_pivot(lu):
    return float(np.abs(np.diag(lu[0])).min())


PIVOT_MATCH_REL = 1e-12
# Bands around each threshold inside which the reference and the pair code
# may decide differently: their LU solves come from different LAPACK builds,
# whose identity residuals differed by up to 1.7x on the same matrix, while
# condition estimates agree to far better than 1e-6 relative and smallest
# pivots to 4e-14 of the largest entry (about 1e-13 absolute here).
PIVOT_BAND = 2.0
CONDITION_BAND = 1e-6
RESIDUAL_BAND = 4.0


def _lapack_check(c):
    """The three pair checks with scipy's LU as the reference elimination:
    the first words of the message of the check that fails, or None, and
    whether a quantity fell inside its band around a threshold."""
    lu = _lapack_lu(c)
    pivot = _smallest_lapack_pivot(lu)
    near = PIVOT_TOL / PIVOT_BAND <= pivot <= PIVOT_TOL * PIVOT_BAND
    if pivot < PIVOT_TOL:
        return "elimination pivot", near
    inv = scipy.linalg.lu_solve(lu, np.eye(c.shape[0]))
    cond = np.abs(c).sum(axis=1).max() * np.abs(inv).sum(axis=1).max()
    near |= abs(cond / CONDITION_LIMIT - 1.0) <= CONDITION_BAND
    if cond >= CONDITION_LIMIT:
        return "condition estimate", near
    residual = np.abs(c @ inv - np.eye(c.shape[0])).max()
    near |= INVERSE_TOL / RESIDUAL_BAND <= residual <= INVERSE_TOL * RESIDUAL_BAND
    if residual > INVERSE_TOL:
        return "inverse verification", near
    return None, near


@pytest.mark.parametrize("kind", MATRIX_KINDS)
def test_smallest_pivot_matches_lapack_lu(kind):
    for c in _test_matrices(kind):
        ref = _smallest_lapack_pivot(_lapack_lu(c))
        # relative to the pivot where it is of the matrix's own scale, and
        # to the largest entry where cancellation leaves it near zero
        scale = ref if kind == "random" else float(np.abs(c).max())
        assert abs(_smallest_pivot(c) - ref) <= PIVOT_MATCH_REL * scale


@pytest.mark.parametrize("kind", MATRIX_KINDS)
def test_custom_pair_rejects_what_lapack_lu_rejects(kind):
    decided = 0
    for c in _test_matrices(kind):
        expected, near = _lapack_check(c)
        if near:
            # either decision is right; any other exception is not
            try:
                make_custom_pair(c)
            except SingularMatrix:
                pass
        elif expected is None:
            make_custom_pair(c)
            decided += 1
        else:
            with pytest.raises(SingularMatrix, match=f"^{expected}"):
                make_custom_pair(c)
            decided += 1
    assert decided >= 100


def test_custom_pair_rejects_non_square_and_non_finite():
    with pytest.raises(DimensionMismatch):
        make_custom_pair(np.ones((2, 3)))
    bad = np.eye(2)
    bad[0, 0] = np.nan
    with pytest.raises(DomainError):
        make_custom_pair(bad)


def test_pair_arrays_are_read_only():
    pair = make_dct_pair(4)
    with pytest.raises(ValueError):
        pair.forward[0, 0] = 5.0


def test_project_rows_hand_value():
    # one row of 1..8 against the all-ones analysis column sums the group
    pair = make_dct_pair(8)
    row = np.arange(1.0, 9.0).reshape(1, 8)
    assert_allclose(project_rows(row, pair, 0), [[36.0]])


def test_project_rows_grouping_haar():
    pair = make_haar_pair(2)
    m = np.array([[1.0, 3.0, 5.0, 7.0]])
    r = 1.0 / np.sqrt(2.0)
    assert_allclose(project_rows(m, pair, 0), [[4.0 * r, 12.0 * r]])
    assert_allclose(project_rows(m, pair, 1), [[-2.0 * r, -2.0 * r]])
    # a sequence of indices stacks them index-major, in the order given
    assert_allclose(project_rows(m, pair, [1, 0]),
                    [[-2.0 * r, -2.0 * r, 4.0 * r, 12.0 * r]])
    assert np.array_equal(project_rows(m, pair, [1]), project_rows(m, pair, 1))


def test_project_cols_uses_inverse_rows():
    pair = make_haar_pair(2)
    m = np.array([[1.0], [3.0]])
    r = 1.0 / np.sqrt(2.0)
    assert_allclose(project_cols(m, pair, 0), [[4.0 * r]])
    assert_allclose(project_cols(m, pair, 1), [[-2.0 * r]])
    assert_allclose(project_cols(m, pair, range(2)), [[4.0 * r], [-2.0 * r]])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_stacked_projections_equal_transposing_formula_bitwise(dtype):
    # 512x512 operands, DCT L=8, p=4: the stacks written in place equal, bit
    # for bit, the earlier formulas that built them by a transposing copy
    # (rows) and by tensordot (columns)
    pair = make_dct_pair(8)
    rng = np.random.default_rng(8)
    a = rng.standard_normal((512, 512)).astype(dtype)
    b = rng.standard_normal((512, 512)).astype(dtype)
    idx = list(range(4))
    coeff = np.ascontiguousarray(pair.forward[:, idx].astype(dtype))
    want_rows = (a.reshape(512, 64, 8) @ coeff).swapaxes(1, 2).reshape(512, 256)
    want_cols = np.tensordot(pair.inverse[idx].astype(dtype), b.reshape(64, 8, 512),
                             axes=(-1, 1)).reshape(256, 512)
    for got, want in ((project_rows(a, pair, range(4)), want_rows),
                      (project_cols(b, pair, range(4)), want_cols)):
        assert got.dtype == dtype
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)


def test_single_index_column_projection_allocates_only_its_result():
    # one index is a stack of one: the batched product reads the operand in
    # place, where a tensordot contraction copied it transposed (2 MB here)
    pair = make_dct_pair(8)
    b = np.random.default_rng(9).standard_normal((512, 512))
    project_cols(b, pair, 0)
    tracemalloc.start()
    try:
        out = project_cols(b, pair, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (64, 512)
    assert peak < 1.25 * out.nbytes


def test_projection_divisibility_required():
    pair = make_dct_pair(8)
    with pytest.raises(DimensionMismatch):
        project_rows(np.ones((2, 12)), pair, 0)
    with pytest.raises(DimensionMismatch):
        project_cols(np.ones((12, 2)), pair, 0)


def test_projection_index_bounds():
    pair = make_dct_pair(4)
    with pytest.raises(IndexOutOfRange):
        project_rows(np.ones((1, 4)), pair, 4)
    for bad in ([0, 4], [], [[0, 1]], [0.5]):
        with pytest.raises(IndexOutOfRange):
            project_cols(np.ones((4, 1)), pair, bad)
    with pytest.raises(IndexOutOfRange):
        project_signal(np.ones(4), pair, -1)


def test_projection_completeness_splits_product():
    # summing every projected partial product reproduces the plain product
    rng = np.random.default_rng(11)
    pair = make_dct_pair(4)
    a = rng.uniform(-1, 1, (3, 8))
    b = rng.uniform(-1, 1, (8, 5))
    total = sum(project_rows(a, pair, l) @ project_cols(b, pair, l)
                for l in range(4))
    assert_allclose(total, a @ b, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(1, 4), st.integers(1, 6))
def test_project_rows_is_linear(l, rows, groups):
    rng = np.random.default_rng(rows * 31 + groups * 7 + l)
    pair = make_haar_pair(4)
    x = rng.uniform(-1, 1, (rows, 4 * groups))
    y = rng.uniform(-1, 1, (rows, 4 * groups))
    assert_allclose(project_rows(2.5 * x - y, pair, l),
                    2.5 * project_rows(x, pair, l) - project_rows(y, pair, l),
                    atol=1e-12)


def test_project_signal_phase_and_padding():
    pair = make_haar_pair(2)
    r = 1.0 / np.sqrt(2.0)
    s = np.array([1.0, 3.0, 5.0, 7.0])
    # phase 0: groups (1,3), (5,7)
    assert_allclose(project_signal(s, pair, 0, phase=0), [4.0 * r, 12.0 * r])
    # phase 1 drops the first sample and zero-pads the tail group: (3,5), (7,0)
    assert_allclose(project_signal(s, pair, 0, phase=1), [8.0 * r, 7.0 * r])
    assert_allclose(project_signal(s, pair, 1, phase=1), [-2.0 * r, 7.0 * r])


def test_project_signal_dual_matches_inverse_rows():
    pair = make_dct_pair(4)
    s = np.arange(8.0)
    grouped = s.reshape(2, 4)
    for l in range(4):
        assert_allclose(project_signal_dual(s, pair, l),
                        grouped @ pair.inverse[l], atol=1e-12)


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("make,size", [(make_dct_pair, 3), (make_haar_pair, 4),
                                       (make_dct_pair, 8)])
def test_project_signal_stacks_single_index_rows(dual, make, size):
    project = project_signal_dual if dual else project_signal
    pair = make(size)
    rng = np.random.default_rng(size)
    for dtype, tol in ((np.float64, 1e-14), (np.float32, 1e-6)):
        s = rng.standard_normal(5 * size + 2).astype(dtype)
        for phase in (0, 1):
            for idx in ([0], [size - 1, 0], list(range(size)), range(1, size)):
                got = project(s, pair, idx, phase)
                want = np.stack([project(s, pair, l, phase) for l in idx])
                assert got.shape == (len(idx), 6) and got.dtype == dtype
                assert_allclose(got, want, rtol=0, atol=tol * np.abs(s).max())
    # one int keeps the 1-D result
    assert project(s, pair, 0).shape == (6,)


def test_project_signal_rejects_bad_index_sequences():
    pair = make_dct_pair(4)
    for project in (project_signal, project_signal_dual):
        for bad in ([0, 4], [], [[0, 1]], [0.5], [-1], "01"):
            with pytest.raises(IndexOutOfRange):
                project(np.ones(8), pair, bad)


def test_project_signal_phase_bounds():
    pair = make_haar_pair(2)
    with pytest.raises(IndexOutOfRange):
        project_signal(np.ones(6), pair, 0, phase=2)
    with pytest.raises(DimensionMismatch):
        project_signal(np.ones(1), pair, 0)


def test_projection_preserves_float32():
    pair = make_haar_pair(2)
    m32 = np.ones((2, 4), dtype=np.float32)
    assert project_rows(m32, pair, 0).dtype == np.float32
    assert project_signal(m32[0], pair, 0).dtype == np.float32


@pytest.mark.parametrize("size", [2, 3, 4, 8])
def test_project_signal_into_out_equals_returned_form(size):
    pair = make_dct_pair(size)
    rng = np.random.default_rng(size)
    for dtype in (np.float64, np.float32):
        for n in (size + 1, 7 * size + 1, 301):
            s = rng.standard_normal(n).astype(dtype)
            for phase in (0, 1):
                for idx in (range(1), range(size // 2 + 1), [size - 1, 0]):
                    want = project_signal(s, pair, idx, phase)
                    # columns of a wider buffer, and a float64 buffer for a
                    # float32 signal: projected as float32, cast once
                    for out_dtype in (dtype, np.float64):
                        buffer = np.full((len(idx), want.shape[1] + 5), np.nan, dtype=out_dtype)
                        out = buffer[:, 2:2 + want.shape[1]]
                        got = project_signal(s, pair, idx, phase, out=out)
                        assert got is out
                        assert np.array_equal(out, want.astype(out_dtype))
                        assert np.isnan(buffer[:, :2]).all() and np.isnan(buffer[:, -3:]).all()
                want = project_signal(s, pair, 0, phase)
                out = np.empty_like(want)
                assert np.array_equal(project_signal(s, pair, 0, phase, out=out), want)
    with pytest.raises(DimensionMismatch):
        project_signal(np.ones(8), pair, range(2), out=np.empty((2, 5)))
    with pytest.raises(DimensionMismatch):
        project_signal(np.ones(8), pair, range(2), out=np.empty((2, 8 // size), dtype=np.int64))
