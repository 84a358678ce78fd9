"""Literal references the shipping kernels are checked against: overlap-save
blocking, projected convolution by explicit translations, one rank slice of
the projected product, and counted minimum blocks that check the closed forms
of :mod:`pkscale.costs`. Nothing in the package imports this module."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import PrecisionConfig
from .conv import ConvDomain, ConvVariant, _check_linear, _fft_linear
from .costs import (Domain, MacCounter, mac_conv_plain_time, mac_conv_proj_time,
                    mac_gemm_plain, mac_gemm_proj, mem_transfer)
from .errors import CounterMismatch, DimensionMismatch, DomainError, IndexOutOfRange
from .gemm import gemm_conventional, gemm_projected
from .projection import (_as_real, _dtype_of, project_cols, project_rows, project_signal,
                         project_signal_dual)


@dataclass(frozen=True)
class ConvPlan:
    """Overlap-save segmentation: blocks of ``block_len`` samples, kernel of
    ``kernel_len``, each block convolved independently in ``domain``."""

    block_len: int
    kernel_len: int
    domain: ConvDomain = ConvDomain.TIME

    def __post_init__(self):
        if self.kernel_len < 1:
            raise DomainError(f"kernel length must be positive, got {self.kernel_len}")
        if self.block_len < self.kernel_len:
            raise DomainError(
                f"block length {self.block_len} shorter than kernel {self.kernel_len}")

    @classmethod
    def minimum(cls, kernel_len, domain=ConvDomain.TIME):
        """The smallest standard segmentation, block_len = 3 * kernel_len + 1."""
        return cls(3 * kernel_len + 1, kernel_len, domain)


def cyclic_translate(v, n):
    """Rotate left by ``n``: out[j] = v[(j + n) mod len(v)]."""
    v = _as_real(v, 1, "vector")
    if not (0 <= n < v.shape[0]):
        raise IndexOutOfRange(f"translation {n} outside [0, {v.shape[0]})")
    return np.roll(v, -n)


def conv_overlap_save(s, k, plan, counter=None):
    """Linear convolution by overlap-save segmentation: blocks of
    ``plan.block_len`` samples, overlapping by ``len(k) - 1``, convolved
    independently (direct or FFT per ``plan.domain``), keeping each block's
    aliasing-free tail. Equals :func:`conv_direct` for any legal plan.
    """
    s = _as_real(s, 1, "signal")
    k = _as_real(k, 1, "kernel")
    _check_linear(s, k)
    if plan.kernel_len != k.shape[0]:
        raise DimensionMismatch(
            f"plan built for kernel length {plan.kernel_len}, got {k.shape[0]}")
    klen = k.shape[0]
    wlen = plan.block_len
    hop = wlen - klen + 1
    out_len = s.shape[0] + klen - 1
    blocks = -(-out_len // hop)
    padded = np.zeros(klen - 1 + (blocks - 1) * hop + wlen, dtype=s.dtype)
    padded[klen - 1:klen - 1 + s.shape[0]] = s
    out = np.empty(blocks * hop, dtype=_dtype_of(s, k))
    for bi in range(blocks):
        block = padded[bi * hop:bi * hop + wlen]
        if plan.domain is ConvDomain.TIME:
            y = np.convolve(block, k)
            if counter is not None:
                counter.add(block.shape[0] * klen)
        else:
            y = _fft_linear(block, k, wlen + klen - 1)
        out[bi * hop:(bi + 1) * hop] = y[klen - 1:klen - 1 + hop]
    return out[:out_len]


def _translated_window(a, variant, m, length):
    """Zero-extended window holding the translated copy of ``a`` for output m."""
    w = np.zeros(length, dtype=a.dtype)
    alen = a.shape[0]
    if variant is ConvVariant.CONV:
        # w[j] = a[m - j] over the valid range
        jlo = max(0, m - alen + 1)
        jhi = min(m, length - 1)
        if jlo <= jhi:
            w[jlo:jhi + 1] = a[m - jhi:m - jlo + 1][::-1]
    else:
        # w[j] = a[j - d] with lag d = blen - 1 - m encoded by the caller via m
        d = m
        jlo = max(0, d)
        jhi = min(length, d + alen)
        if jlo < jhi:
            w[jlo:jhi] = a[jlo - d:jhi - d]
    return w


def conv_translate_project(a, b, pair, cfg, variant=ConvVariant.CIRC_XCORR):
    """Exact-reference projected convolution via explicit translations.

    Every output sample is an inner product of a translated copy of ``a``
    (cyclic for circular variants, zero-extended for linear ones) with
    ``b``, projected group-wise on both sides (analysis on ``a``, synthesis
    on ``b``) and summed over the first ``cfg.projections_used`` indices.
    With all indices kept it equals :func:`conv_direct` to rounding.
    Circular variants need ``len(a) == len(b) == pair.size``; translation n
    lands at output ``(N - n) mod N`` for circular cross-correlation and,
    with ``b`` reversed, at ``(n - 1) mod N`` for circular convolution.
    """
    cfg.check_pair(pair)
    a = _as_real(a, 1, "signal")
    b = _as_real(b, 1, "kernel")
    used = cfg.projections_used
    size = pair.size
    forward = pair.forward[:, :used]
    synthesis = pair.inverse[:used]

    if variant in (ConvVariant.CIRC_CONV, ConvVariant.CIRC_XCORR):
        if a.shape[0] != size or b.shape[0] != size:
            raise DimensionMismatch(
                f"circular translate-project needs both lengths equal to the pair size "
                f"{size}, got {a.shape[0]} and {b.shape[0]}")
        bb = b[::-1] if variant is ConvVariant.CIRC_CONV else b
        bd = synthesis @ bb
        out = np.zeros(size, dtype=_dtype_of(a, b))
        for n in range(size):
            ac = cyclic_translate(a, n) @ forward
            val = ac @ bd
            if variant is ConvVariant.CIRC_XCORR:
                out[(size - n) % size] = val
            else:
                out[(n - 1) % size] = val
        return out

    _check_linear(a, b)
    alen, blen = a.shape[0], b.shape[0]
    total = alen + blen - 1
    length = -(-total // size) * size
    wb = np.zeros(length, dtype=b.dtype)
    wb[:blen] = b
    proj_b = wb.reshape(-1, size) @ synthesis.T
    out = np.empty(total, dtype=_dtype_of(a, b))
    for m in range(total):
        arg = m if variant is ConvVariant.CONV else blen - 1 - m
        wa = _translated_window(a, variant, arg, length)
        proj_a = wa.reshape(-1, size) @ forward
        out[m] = float(np.sum(proj_a * proj_b))
    return out


def gemm_partial(a, b, pair, l, counter=None):
    """One rank slice of the projected product: project both operands onto
    index ``l`` and multiply the compacted matrices.

    The inner dimension must be divisible by the pair size.
    """
    a = _as_real(a, 2, "left operand")
    b = _as_real(b, 2, "right operand")
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"inner dims disagree: {a.shape} x {b.shape}")
    ac = project_rows(a, pair, l)
    bd = project_cols(b, pair, l)
    if counter is not None:
        counter.add(a.size)
        counter.add(b.size)
        counter.add(ac.shape[0] * ac.shape[1] * bd.shape[1])
    return ac @ bd


@dataclass(frozen=True)
class CostReport:
    domain: Domain
    n: int
    l: int | None
    size: int | None
    repr_bits: int
    macs_model: int
    macs_measured: int | None
    mem_bits_model: int


def _require_equal(model, measured, what):
    if model != measured:
        raise CounterMismatch(f"{what}: model {model}, measured {measured}")


def counted_block_conv(block, kernel, counter=None):
    """One minimum overlap-save block, steady-state outputs only.

    ``len(block)`` must be ``3 * len(kernel) + 1``; returns the 2N outputs
    starting at the first full-overlap position (a slice of the direct
    convolution), charging N counts each.
    """
    block = np.asarray(block, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    n = kernel.shape[0]
    if block.shape[0] != 3 * n + 1:
        raise DimensionMismatch(
            f"minimum blocking needs {3 * n + 1} samples for kernel length {n}, "
            f"got {block.shape[0]}")
    windows = sliding_window_view(block, n)[:2 * n]
    if counter is not None:
        counter.add(2 * n * n)
    return windows @ kernel[::-1]


def counted_conv_projected_block(block, kernel, pair, projections, counter=None):
    """Projected counterpart of :func:`counted_block_conv`.

    Projects the block and kernel per kept index (charging real samples),
    then runs the compacted minimum-block convolution for each. The kernel
    length must be divisible by the pair size so the compact geometry is
    again a minimum block.
    """
    n = np.asarray(kernel).shape[0]
    if n % pair.size:
        raise DomainError(f"kernel length {n} not divisible by projection size {pair.size}")
    acc = None
    for l in range(projections):
        sc = project_signal(block, pair, l)
        kd = project_signal_dual(kernel, pair, l)
        if counter is not None:
            counter.add(np.asarray(block).shape[0])
            counter.add(n)
        part = counted_block_conv(sc, kd, counter)
        acc = part if acc is None else acc + part
    return acc


def validate_gemm_plain(n, repr_bits=64, seed=0):
    """Run the blocked kernel on an N x N x N product and check its counter."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (n, n))
    b = rng.uniform(-1.0, 1.0, (n, n))
    counter = MacCounter()
    gemm_conventional(a, b, n, counter=counter)
    model = mac_gemm_plain(n)
    _require_equal(model, counter.count, f"gemm plain N={n}")
    mem = mem_transfer(Domain.GEMM, n, 0, 2, repr_bits)
    return CostReport(Domain.GEMM, n, None, None, repr_bits, model, counter.count,
                      mem.plain_bits)


def validate_gemm_projected(n, l, size, pair, repr_bits=64, seed=0):
    """Run the projected kernel with l+1 projections and check its counter."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (n, n))
    b = rng.uniform(-1.0, 1.0, (n, n))
    counter = MacCounter()
    cfg = PrecisionConfig(size, l + 1)
    gemm_projected(a, b, pair, cfg, counter=counter)
    model = mac_gemm_proj(n, l, size)
    _require_equal(model, counter.count, f"gemm projected N={n} l={l} L={size}")
    mem = mem_transfer(Domain.GEMM, n, l, size, repr_bits)
    return CostReport(Domain.GEMM, n, l, size, repr_bits, model, counter.count,
                      mem.projected_bits)


def validate_conv_plain_time(n, repr_bits=64, seed=0):
    """Run one instrumented minimum block and check the 2N^2 count."""
    rng = np.random.default_rng(seed)
    block = rng.uniform(-1.0, 1.0, 3 * n + 1)
    kernel = rng.uniform(-1.0, 1.0, n)
    counter = MacCounter()
    counted_block_conv(block, kernel, counter)
    model = mac_conv_plain_time(n)
    _require_equal(model, counter.count, f"conv plain time N={n}")
    mem = mem_transfer(Domain.CONV_TIME, n, 0, 2, repr_bits)
    return CostReport(Domain.CONV_TIME, n, None, None, repr_bits, model, counter.count,
                      mem.plain_bits)


def validate_conv_projected_time(n, l, size, pair, repr_bits=64, seed=0):
    """Run the instrumented projected minimum block and check its counter."""
    rng = np.random.default_rng(seed)
    block = rng.uniform(-1.0, 1.0, 3 * n + 1)
    kernel = rng.uniform(-1.0, 1.0, n)
    counter = MacCounter()
    counted_conv_projected_block(block, kernel, pair, l + 1, counter)
    model = mac_conv_proj_time(n, l, size)
    _require_equal(model, counter.count, f"conv projected time N={n} l={l} L={size}")
    mem = mem_transfer(Domain.CONV_TIME, n, l, size, repr_bits)
    return CostReport(Domain.CONV_TIME, n, l, size, repr_bits, model, counter.count,
                      mem.projected_bits)
