"""Invertible projection pairs and their application to matrices and signals.

A projection pair is a pair of L x L matrices (``forward``, ``inverse``) with
``forward @ inverse == I``. Column ``l`` of ``forward`` analyses length-L
groups of the left operand (or the input signal); row ``l`` of ``inverse``
plays the synthesis role on the right operand (or the kernel). Accumulating
the partial products of all L projection indices reproduces the plain result
exactly; truncating the accumulation trades accuracy for work, and the first
indices carry most of the energy for low-frequency data.

Two stock constructions are provided:

* a cosine basis  ``forward[i, j] = cos((pi/L) * (i + 1/2) * j)``, kept
  unnormalized with its inverse computed numerically, and
* the orthonormal Haar wavelet basis (power-of-two sizes), whose inverse is
  its transpose.

Numerical inverses (cosine and caller-supplied pairs) are taken with numpy
alone, so building a pair, like every projection below, loads no scipy.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, IndexOutOfRange, SingularMatrix

MIN_SIZE = 2
MAX_SIZE = 64
PIVOT_TOL = 1e-12        # smallest acceptable elimination pivot magnitude
CONDITION_LIMIT = 1e8    # infinity-norm condition estimate cutoff
INVERSE_TOL = 1e-10      # max-norm bound on forward @ inverse - I


class PairKind(enum.Enum):
    DCT = "dct"
    HAAR = "haar"
    CUSTOM = "custom"


@dataclass(frozen=True)
class ProjectionPair:
    """An invertible projection basis of size L.

    ``forward`` holds the analysis vectors in its columns, ``inverse`` the
    synthesis vectors in its rows. Both arrays are read-only float64.
    """

    size: int
    forward: np.ndarray
    inverse: np.ndarray
    kind: PairKind
    condition_estimate: float

    def __post_init__(self):
        self.forward.setflags(write=False)
        self.inverse.setflags(write=False)


def _norm_inf(m):
    return float(np.abs(m).sum(axis=1).max())


def _smallest_pivot(c):
    """Smallest pivot magnitude of Gaussian elimination with partial
    pivoting on ``c``: one row swap and one rank-1 update of the trailing
    block per column. A column with no nonzero candidate has pivot 0 and is
    skipped, as LAPACK's LU does."""
    u = np.array(c, dtype=np.float64)
    n = u.shape[0]
    smallest = np.inf
    for j in range(n):
        p = j + int(np.argmax(np.abs(u[j:, j])))
        if p != j:
            u[[j, p], j:] = u[[p, j], j:]
        pivot = u[j, j]
        smallest = min(smallest, abs(pivot))
        if pivot != 0.0:
            u[j + 1:, j + 1:] -= np.outer(u[j + 1:, j] / pivot, u[j, j + 1:])
    return float(smallest)


def _invert_checked(c):
    """Invert ``c`` in double precision with numpy alone.

    A partial-pivot elimination finds the smallest pivot, and
    ``np.linalg.solve(c, I)`` (LAPACK's LU with partial pivoting) gives the
    inverse. Raises SingularMatrix when a pivot falls below PIVOT_TOL, when
    the infinity-norm condition estimate reaches CONDITION_LIMIT, or when
    the computed inverse fails the identity check.
    """
    smallest = _smallest_pivot(c)
    if smallest < PIVOT_TOL:
        raise SingularMatrix(f"elimination pivot {smallest:.3e} below {PIVOT_TOL:.0e}")
    inv = np.linalg.solve(c, np.eye(c.shape[0]))
    cond = _norm_inf(c) * _norm_inf(inv)
    if cond >= CONDITION_LIMIT:
        raise SingularMatrix(f"condition estimate {cond:.3e} at or above {CONDITION_LIMIT:.0e}")
    residual = float(np.abs(c @ inv - np.eye(c.shape[0])).max())
    if residual > INVERSE_TOL:
        raise SingularMatrix(f"inverse verification failed, residual {residual:.3e}")
    return inv, cond


def _build_pair(c, kind):
    size = c.shape[0]
    inv, cond = _invert_checked(c)
    return ProjectionPair(
        size=size,
        forward=np.ascontiguousarray(c, dtype=np.float64),
        inverse=np.ascontiguousarray(inv, dtype=np.float64),
        kind=kind,
        condition_estimate=cond,
    )


def _check_size(size):
    if not (MIN_SIZE <= size <= MAX_SIZE):
        raise DomainError(f"projection size {size} outside [{MIN_SIZE}, {MAX_SIZE}]")


def make_dct_pair(size):
    """Unnormalized cosine pair: forward[i, j] = cos((pi/size)(i + 1/2) j).

    Column 0 is all ones, so index 0 captures the per-group mean (times the
    group length). The inverse is computed numerically, not transposed.
    """
    _check_size(size)
    i = np.arange(size, dtype=np.float64) + 0.5
    j = np.arange(size, dtype=np.float64)
    c = np.cos(np.pi / size * np.outer(i, j))
    return _build_pair(c, PairKind.DCT)


def make_haar_pair(size):
    """Orthonormal Haar wavelet pair; size must be a power of two.

    Built by the standard recursion with a 1/sqrt(2) factor per stage; the
    inverse equals the transpose.
    """
    _check_size(size)
    if size & (size - 1):
        raise DomainError(f"Haar pair needs a power-of-two size, got {size}")
    h = np.array([[1.0]])
    while h.shape[0] < size:
        top = np.kron(h, [1.0, 1.0])
        bottom = np.kron(np.eye(h.shape[0]), [1.0, -1.0])
        h = np.vstack([top, bottom]) / np.sqrt(2.0)
    c = h.T.copy()
    pair = ProjectionPair(
        size=size,
        forward=np.ascontiguousarray(c),
        inverse=np.ascontiguousarray(c.T),
        kind=PairKind.HAAR,
        condition_estimate=_norm_inf(c) * _norm_inf(c.T),
    )
    return pair


def make_custom_pair(matrix):
    """Wrap a caller-supplied square matrix as a projection pair.

    The matrix must be square, finite, of size in [2, 64], and invertible
    under the same pivot/condition thresholds as the stock pairs.
    """
    c = np.asarray(matrix, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionMismatch(f"projection matrix must be square, got {c.shape}")
    _check_size(c.shape[0])
    if not np.all(np.isfinite(c)):
        raise DomainError("projection matrix contains non-finite values")
    return _build_pair(c, PairKind.CUSTOM)


def _as_real(a, ndim, name):
    """``a`` as a contiguous ``ndim``-D float array: float32 stays float32,
    other real dtypes become float64, and complex input is refused rather
    than cut to its real part."""
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise DomainError(f"{name} is complex; only real input is supported")
    if a.dtype not in (np.float64, np.float32):
        a = a.astype(np.float64)
    if a.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {ndim}-D, got shape {a.shape}")
    return np.ascontiguousarray(a)


def _dtype_of(a, b):
    """The result dtype of two operands: float32 only when both are."""
    return np.float32 if (a.dtype == np.float32 and b.dtype == np.float32) else np.float64


def _check_indices(pair, l):
    """Check ``l``, one projection index or a nonempty sequence of them, each
    in [0, size), and return the indices as a list of ints."""
    try:
        idx = ([operator.index(l)] if isinstance(l, (int, np.integer))
               else [operator.index(i) for i in l])
    except TypeError:
        idx = None
    if not idx or min(idx) < 0 or max(idx) >= pair.size:
        raise IndexOutOfRange(
            f"projection indices must be an int or a nonempty sequence of ints in "
            f"[0, {pair.size}), got {l!r}")
    return idx


def project_rows(matrix, pair, l):
    """Project each row of ``matrix`` onto analysis vector ``l``, group-wise.

    ``l`` is one projection index or a sequence of them; one index is a
    stack of one. ``matrix.shape[1]`` must be divisible by ``pair.size``;
    with G = cols / size, the projections ``idx`` stack index-major into
    shape (rows, len(idx)*G) with
    ``out[i, j*G + g] = sum_t matrix[i, g*L + t] * forward[t, idx[j]]``.
    The stack is one batched product, each row's (G, L) groups times the
    (L, len(idx)) selected coefficients, written through a transposed view of
    the result, so it lands index-major with no intermediate array or copy.
    Rows are consumed in plain sequential order, which keeps the access
    pattern streaming-friendly.
    """
    a = _as_real(matrix, 2, "matrix")
    idx = _check_indices(pair, l)
    rows, cols = a.shape
    if cols % pair.size:
        raise DimensionMismatch(f"column count {cols} not divisible by projection size {pair.size}")
    groups = cols // pair.size
    grouped = a.reshape(rows, groups, pair.size)
    # fancy indexing leaves the selected columns F-ordered; the C-ordered
    # copy multiplies about twice as fast and gives the same values
    coeff = np.ascontiguousarray(pair.forward[:, idx], dtype=a.dtype)
    out = np.empty((rows, len(idx) * groups), dtype=a.dtype)
    # out[i, j*G + g] seen as [i, g, j]: each product lands index-major
    np.matmul(grouped, coeff, out=out.reshape(rows, len(idx), groups).swapaxes(1, 2))
    return out


def project_cols(matrix, pair, l):
    """Project each column of ``matrix`` with synthesis row ``l``, group-wise.

    ``l`` is one projection index or a sequence of them; one index is a
    stack of one. ``matrix.shape[0]`` must be divisible by ``pair.size``;
    with G = rows / size, the projections ``idx`` stack index-major into
    shape (len(idx)*G, cols) with
    ``out[k*G + g, j] = sum_t inverse[idx[k], t] * matrix[g*L + t, j]``,
    the rows that match :func:`project_rows`' columns. The stack is one
    batched product, the (len(idx), L) selected synthesis rows times each
    group's (L, cols) block of the matrix, read in place and written through
    a view of the result whose row k*G + g is row k of group g's product, so
    the index-major layout needs no transposed copy.
    """
    b = _as_real(matrix, 2, "matrix")
    idx = _check_indices(pair, l)
    rows, cols = b.shape
    if rows % pair.size:
        raise DimensionMismatch(f"row count {rows} not divisible by projection size {pair.size}")
    groups = rows // pair.size
    grouped = b.reshape(groups, pair.size, cols)
    coeff = pair.inverse[idx].astype(b.dtype, copy=False)
    out = np.empty((len(idx) * groups, cols), dtype=b.dtype)
    # out[k*G + g, j] seen as [g, k, j]: each product lands index-major
    np.matmul(coeff, grouped, out=out.reshape(len(idx), groups, cols).swapaxes(0, 1))
    return out


def _grouped(signal, size, phase):
    """Group signal[phase:] into rows of length ``size``, zero-padding the tail."""
    s = _as_real(signal, 1, "signal")
    if not (0 <= phase < size):
        raise IndexOutOfRange(f"phase {phase} outside [0, {size})")
    avail = s.shape[0] - phase
    if avail < size:
        raise DimensionMismatch(
            f"signal too short: {avail} samples past phase {phase}, need at least {size}")
    groups = -(-avail // size)
    seg = s[phase:]
    if groups * size != avail:
        seg = np.concatenate([seg, np.zeros(groups * size - avail, dtype=s.dtype)])
    return seg.reshape(groups, size)


def _project_groups(g, basis, idx, l, out=None):
    """Grouped signal ``g`` (G, L) times the columns ``idx`` of ``basis``
    (L, L), as :func:`project_signal` returns it: the index-major (n, G) for
    a sequence ``l``, its one row as (G,) for one index. The product runs in
    ``g``'s dtype and lands in ``out`` when one is given, cast once if its
    dtype differs."""
    single = isinstance(l, (int, np.integer))
    # take copies the selected columns C-ordered, which multiplies about
    # twice as fast as fancy indexing's F-ordered ones, with the same values
    coeff = basis.take(idx, axis=1).astype(g.dtype, copy=False)
    shape = g.shape[:1] if single else (coeff.shape[1], g.shape[0])
    if out is None:
        out = np.empty(shape, dtype=g.dtype)
    elif out.shape != shape or out.dtype not in (np.float32, np.float64):
        raise DimensionMismatch(
            f"out must be a float32 or float64 array of shape {shape}, "
            f"got {out.dtype} {out.shape}")
    # the stack lands index-major with no transposed copy
    np.matmul(coeff.T, g.T, out=out[None] if single else out, dtype=g.dtype)
    return out


def project_signal(signal, pair, l, phase=0, out=None):
    """Analysis projection of a 1-D signal with group offset ``phase``.

    ``l`` is one projection index or a sequence of them. A sequence ``idx``
    stacks the projections index-major into shape (len(idx), G),
    ``out[j, i] = sum_t signal[phase + i*L + t] * forward[t, idx[j]]``, and
    one index gives the one row of that stack as shape (G,). A trailing
    incomplete group is zero-padded.

    ``out``, if given, is a float32 or float64 array of the result's shape,
    such as a view of some columns of a wider buffer, and receives the
    projection in place of a new array. The projection runs in the signal's
    dtype either way, so a float32 signal projected into a float64 ``out``
    is rounded as float32 and cast once.
    """
    idx = _check_indices(pair, l)
    g = _grouped(signal, pair.size, phase)
    return _project_groups(g, pair.forward, idx, l, out)


def project_signal_dual(signal, pair, l, phase=0):
    """Synthesis-side projection: uses row ``l`` of the inverse matrix.

    Identical to :func:`project_signal` for orthonormal pairs; for general
    pairs this is the projection the kernel side of a product needs so that
    full accumulation reproduces plain inner products. ``l`` is one index or
    a sequence of them, stacked as in :func:`project_signal`.
    """
    idx = _check_indices(pair, l)
    g = _grouped(signal, pair.size, phase)
    return _project_groups(g, pair.inverse.T, idx, l)
