"""Analytic MAC and memory-transfer models, plus instrumented validation.

Formulas count multiply-accumulate operations (one MAC = one multiply plus
one accumulate) for square-N GEMM and for one minimum overlap-save block
(block length 3N+1 for a length-N kernel) of CONV:

* GEMM, plain:      N^3
* GEMM, projected:  N^2 * ((l+1)/L * N + 3l + 2)
* CONV, plain time: 2 N^2
* CONV, plain freq: (45N + 15) log2(3N + 1) + 3N + 1
* CONV, proj time:  (l+1)(4N + 1) + 2 (l+1) ceil(N/L)^2
* CONV, proj freq:  (l+1)(4N + 1) + (l+1)[(45c + 15) log2(3c + 1) + 3c + 1],
                    c = ceil(N/L)

The ``*_general`` forms count one instance of the shipping kernels instead
(any geometry; for CONV the whole signal, every computed phase).

Memory transfer in bits: GEMM moves both square operands (2 N^2 b plain,
2 (l+1)/L N^2 b projected); CONV moves one block plus kernel (4N+1 samples
plain, ceil((l+1)/L (4N+1)) projected). The reported reduction percentage is
the closed form (1 - (l+1)/L) * 100, quoted only when l < L-1.

The instrumented counterparts execute real kernels with a
:class:`MacCounter` and must equal the time-domain formulas exactly. The
counting convention (documented on the kernels): matrix projection passes
charge every element of the operand, signal projections charge real samples
only, block products charge h*c*w, GEMM partial-sum accumulation charges one
count per output element, CONV accumulation and output interpolation are
free (matching the closed forms above). Validation convolutions run the
minimum blocking and keep the 2N steady-state outputs starting at the first
full-overlap position, each costing N counts; the frequency-domain closed
forms have no instrumented counterpart. The shipping projected convolution,
:func:`pkscale.conv.conv_projected_blocked`, runs its compact convolutions
in either domain, chosen per call by an operation count, and charges the
same per-slice count in both, so :func:`mac_conv_proj_general` counts it in
either.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CounterMismatch, DimensionMismatch, DomainError
from .gemm import gemm_conventional, gemm_projected
from .config import PrecisionConfig
from .projection import project_signal, project_signal_dual


class Domain(enum.Enum):
    GEMM = "gemm"
    CONV_TIME = "conv-time"
    CONV_FREQ = "conv-freq"


class MacCounter:
    """Per-run multiply-accumulate tally; never share one across runs."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, n):
        self.count += int(n)


def _check_n(n):
    if n < 1:
        raise DomainError(f"size must be positive, got {n}")


def _check_proj(n, l, size, divisible):
    _check_n(n)
    if size < 2:
        raise DomainError(f"projection size {size} below 2")
    if not (0 <= l < size):
        raise DomainError(f"projection index {l} outside [0, {size})")
    if divisible and n % size:
        raise DomainError(f"size {n} not divisible by projection size {size}")


def mac_gemm_plain(n):
    _check_n(n)
    return n ** 3


def mac_gemm_proj(n, l, size):
    _check_proj(n, l, size, divisible=True)
    return n * n * ((l + 1) * n // size + 3 * l + 2)


def mac_conv_plain_time(n):
    _check_n(n)
    return 2 * n * n


def mac_conv_plain_freq(n):
    _check_n(n)
    return round((45 * n + 15) * math.log2(3 * n + 1) + 3 * n + 1)


def mac_conv_proj_time(n, l, size):
    _check_proj(n, l, size, divisible=False)
    c = -(-n // size)
    return (l + 1) * (4 * n + 1) + 2 * (l + 1) * c * c


def mac_conv_proj_freq(n, l, size):
    _check_proj(n, l, size, divisible=False)
    c = -(-n // size)
    block = (45 * c + 15) * math.log2(3 * c + 1) + 3 * c + 1
    return (l + 1) * (4 * n + 1) + round((l + 1) * block)


def mac_gemm_plain_general(m, k, w):
    """Instance-level plain count for an m x k by k x w product."""
    if min(m, k, w) < 1:
        raise DomainError(f"dims must be positive, got {m}x{k}x{w}")
    return m * k * w


def mac_gemm_proj_general(m, k, w, l, size):
    """Instance-level projected count; reduces to mac_gemm_proj when m=k=w."""
    if min(m, k, w) < 1:
        raise DomainError(f"dims must be positive, got {m}x{k}x{w}")
    _check_proj(k, l, size, divisible=True)
    return (l + 1) * (m * k + k * w) + (l + 1) * m * (k // size) * w + l * m * w


def mac_conv_plain_general(w, n):
    """Instance-level count of the direct linear convolution
    (:func:`pkscale.conv.conv_direct`) of a length-w signal with a length-n
    kernel: every signal sample meets every tap once, ``w*n``."""
    if min(w, n) < 1 or n > w:
        raise DomainError(f"need 1 <= kernel length <= signal length, got {n} and {w}")
    return w * n


def mac_conv_proj_general(w, n, size, used, phases):
    """Instance-level count of the shipping projected convolution
    (:func:`pkscale.conv.conv_projected_blocked`) for a length-w signal, a
    length-n kernel, ``used`` of ``size`` projections and ``phases``
    computed output phases (``len(PrecisionConfig.phases())``): one signal
    pass, then per phase a kernel pass and the compact convolutions,
    ``used*w + phases*used*(n + ceil(w/L) * ceil((n + L - 1)/L))``."""
    if min(w, n) < 1 or n > w:
        raise DomainError(f"need 1 <= kernel length <= signal length, got {n} and {w}")
    _check_proj(n, used - 1, size, divisible=False)
    if not 1 <= phases <= size:
        raise DomainError(f"phase count {phases} outside [1, {size}]")
    compact_signal = -(-w // size)
    compact_kernel = -(-(n + size - 1) // size)
    return used * w + phases * used * (n + compact_signal * compact_kernel)


@dataclass(frozen=True)
class MemoryEstimate:
    plain_bits: int
    projected_bits: int
    reduction_percent: float | None


def mem_transfer(domain, n, l, size, repr_bits):
    """Operand traffic in bits for plain vs projected execution."""
    _check_proj(n, l, size, divisible=(domain is Domain.GEMM))
    if repr_bits not in (32, 64):
        raise DomainError(f"repr_bits must be 32 or 64, got {repr_bits}")
    if domain is Domain.GEMM:
        plain = 2 * n * n * repr_bits
        projected = 2 * (l + 1) * n * n * repr_bits // size
    elif domain in (Domain.CONV_TIME, Domain.CONV_FREQ):
        samples = 4 * n + 1
        plain = samples * repr_bits
        projected = -(-((l + 1) * samples) // size) * repr_bits
    else:
        raise DomainError(f"unknown domain {domain!r}")
    reduction = None
    if l < size - 1:
        reduction = (1.0 - (l + 1) / size) * 100.0
    return MemoryEstimate(plain, projected, reduction)


def ratio_percent(domain, n, size, l=0):
    """Projected/plain MAC percentage at kernel size N and projection size L."""
    if domain is Domain.GEMM:
        ratio = mac_gemm_proj(n, l, size) / mac_gemm_plain(n)
    elif domain is Domain.CONV_TIME:
        ratio = mac_conv_proj_time(n, l, size) / mac_conv_plain_time(n)
    elif domain is Domain.CONV_FREQ:
        ratio = mac_conv_proj_freq(n, l, size) / mac_conv_plain_freq(n)
    else:
        raise DomainError(f"unknown domain {domain!r}")
    return 100.0 * ratio


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
