import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pkscale.errors import DimensionMismatch, DomainError, IndexOutOfRange, SingularMatrix
from pkscale.projection import (
    PairKind,
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
