"""Blocked matrix multiplication, exact and projection-approximated.

The conventional kernel subdivides an M x K by K x W product into block x block
inner products over block-major-reordered operands. The projected kernels
compact the contracted dimension: projecting the left operand's rows and the
right operand's columns onto projection index ``l`` shrinks the inner
dimension by the projection size, and summing the partial products of the
first ``projections_used`` indices gives a result whose accuracy scales with
the number of indices kept (exact when all are kept). :func:`gemm_projected`
computes that sum as one product of rank-stacked operands: each operand's
projections onto the kept indices are stacked index-major along the inner
dimension, so one matmul contracts all of them at once. Each operand's
stack, a single kept index included, is one batched product written through
a strided view straight into that layout, with no transposing copy between
the operands and the compact product.

Counters: functions accept an optional ``counter`` with an ``add(n)`` method
(see :class:`pkscale.costs.MacCounter`). One count is one multiply-accumulate.
Matrix projection passes charge every element of the (possibly padded)
operand; block products charge ``h*c*w``; accumulating an additional partial
result charges one count per output element. The projected product charges
its per-slice formulation (one projection pass per operand and kept index,
one compact product per index, one accumulation per index after the first):
a convention, not a trace of the single stacked product that runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError
from .projection import _as_real, _dtype_of, project_cols, project_rows


class Orientation(enum.Enum):
    ROW_WISE = "row"     # blocks scanned row-by-row, row-major inside a block
    COL_WISE = "col"     # blocks scanned column-by-column, column-major inside


@dataclass
class BlockedOperand:
    """A matrix stored as contiguous blocks plus cleanup borders.

    ``data`` concatenates every block in scan order (row-by-row of the block
    grid for ROW_WISE, column-by-column for COL_WISE); inside a block the
    elements are row-major for ROW_WISE and column-major for COL_WISE.
    ``index`` lists (row0, col0, height, width, offset) per stored block.
    """

    rows: int
    cols: int
    block: int
    orientation: Orientation
    data: np.ndarray
    index: list
    grid: tuple

    def _slot(self, bi, bj):
        if self.orientation is Orientation.ROW_WISE:
            return bi * self.grid[1] + bj
        return bj * self.grid[0] + bi

    def block_view(self, bi, bj):
        """The (height x width) array of grid block (bi, bj)."""
        r0, c0, h, w, off = self.index[self._slot(bi, bj)]
        order = "C" if self.orientation is Orientation.ROW_WISE else "F"
        return self.data[off:off + h * w].reshape((h, w), order=order)


def _block_ranges(total, block):
    starts = range(0, total, block)
    return [(s, min(block, total - s)) for s in starts]


def reorder_block_major(matrix, block, orientation):
    """Copy ``matrix`` into block-major storage."""
    a = _as_real(matrix, 2, "operand")
    if block < 1:
        raise DomainError(f"block size must be positive, got {block}")
    rows, cols = a.shape
    row_ranges = _block_ranges(rows, block)
    col_ranges = _block_ranges(cols, block)
    grid = (len(row_ranges), len(col_ranges))
    data = np.empty(rows * cols, dtype=a.dtype)
    index = []
    if orientation is Orientation.ROW_WISE:
        scan = [(i, j) for i in range(grid[0]) for j in range(grid[1])]
    else:
        scan = [(i, j) for j in range(grid[1]) for i in range(grid[0])]
    off = 0
    for bi, bj in scan:
        r0, h = row_ranges[bi]
        c0, w = col_ranges[bj]
        flat = a[r0:r0 + h, c0:c0 + w].ravel(order="C" if orientation is Orientation.ROW_WISE else "F")
        data[off:off + h * w] = flat
        index.append((r0, c0, h, w, off))
        off += h * w
    return BlockedOperand(rows, cols, block, orientation, data, index, grid)


def gemm_conventional(a, b, block, counter=None):
    """Exact blocked product: accumulate block x block inner products.

    Operands are reordered block-major (rows of ``a`` row-wise, columns of
    ``b`` column-wise) and each output tile accumulates its chain of inner
    block products in ascending inner-index order.
    """
    a = _as_real(a, 2, "left operand")
    b = _as_real(b, 2, "right operand")
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"inner dims disagree: {a.shape} x {b.shape}")
    ra = reorder_block_major(a, block, Orientation.ROW_WISE)
    rb = reorder_block_major(b, block, Orientation.COL_WISE)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=_dtype_of(a, b))
    inner_blocks = ra.grid[1]
    for bi in range(ra.grid[0]):
        r0, h = ra.index[ra._slot(bi, 0)][0], ra.index[ra._slot(bi, 0)][2]
        for bj in range(rb.grid[1]):
            acc = None
            for t in range(inner_blocks):
                left = ra.block_view(bi, t)
                right = rb.block_view(t, bj)
                prod = left @ right
                acc = prod if acc is None else acc + prod
                if counter is not None:
                    counter.add(left.shape[0] * left.shape[1] * right.shape[1])
            c0 = rb.index[rb._slot(0, bj)][1]
            out[r0:r0 + acc.shape[0], c0:c0 + acc.shape[1]] = acc
    return out


def _pad_inner(a, b, size):
    k = a.shape[1]
    if k % size == 0:
        return a, b
    kp = ((k + size - 1) // size) * size
    ap = np.zeros((a.shape[0], kp), dtype=a.dtype)
    ap[:, :k] = a
    bp = np.zeros((kp, b.shape[1]), dtype=b.dtype)
    bp[:k, :] = b
    return ap, bp


def gemm_projected(a, b, pair, cfg, counter=None):
    """Approximate product keeping the first ``cfg.projections_used`` rank slices.

    With p = ``cfg.projections_used``, the sum of the p slice products
    ``sum_{l<p} (A C_l)(D_l B)`` is computed as one product of the stacked
    projections, ``[A C_0 ... A C_{p-1}] @ [D_0 B; ...; D_{p-1} B]``: each
    operand is projected once (:func:`project_rows` and :func:`project_cols`
    over ``range(p)``, each one batched product written straight into its
    index-major stack) and a single matmul contracts the p*K/L inner
    dimension. An inner dimension not divisible by the pair size is
    zero-padded (the padding stays confined to the contracted dimension, so
    the result needs no cropping). Exact when every projection index is used.

    The counter charges the per-slice formulation, a convention rather than a
    trace of the single product that runs: p*|A| for the left projection,
    p*|B| for the right one, m*(p*K/L)*w for the compact product and
    (p-1)*m*w for accumulating the slices, all on the padded geometry
    (:func:`pkscale.costs.mac_gemm_proj_general`).
    """
    cfg.check_pair(pair)
    a = _as_real(a, 2, "left operand")
    b = _as_real(b, 2, "right operand")
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"inner dims disagree: {a.shape} x {b.shape}")
    a, b = _pad_inner(a, b, pair.size)
    used = cfg.projections_used
    ac = project_rows(a, pair, range(used))
    bd = project_cols(b, pair, range(used))
    if counter is not None:
        counter.add(used * a.size)
        counter.add(used * b.size)
        counter.add(ac.shape[0] * ac.shape[1] * bd.shape[1])
        counter.add((used - 1) * a.shape[0] * b.shape[1])
    return ac @ bd
