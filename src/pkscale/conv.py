"""Convolution and cross-correlation kernels, exact and projection-based.

Baselines: a direct kernel for the four variants (linear/circular conv and
cross-correlation), an FFT kernel with power-of-two zero padding, and
overlap-save segmentation that processes fixed-size blocks independently in
either domain.

Projection paths come in two flavors:

* :func:`conv_translate_project` is the exact reference construction. Each
  output sample is the inner product of a translated copy of one operand with
  the other; projecting both sides of that inner product group-wise and
  truncating the projection sum gives the graceful approximation, and keeping
  every index reproduces the direct result exactly. Circular variants
  translate cyclically; linear variants zero-extend instead.

* :func:`conv_projected_blocked` is the fast approximate path: it convolves
  compacted (projected) sequences at 1/L the rate and places the partial
  results at output stride L using calibrated integer offsets. It is not
  exact even with all projections kept (the cross-phase delay terms are
  dropped); expect roughly 20 dB output SNR on low-frequency data with one
  projection at size 2.

* :func:`conv_projected_peaks` runs the same path for one signal against a
  bank of equal-length kernels whose projections
  :func:`project_kernel_bank` computed once. It returns only each output's
  peak magnitude: every kernel's compact stream comes from one matrix
  product of the compact signal's sliding windows with the bank, and
  nothing is placed or interpolated into a full-length output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

from .config import SampleMode
from .errors import CalibrationFailed, DimensionMismatch, DomainError, IndexOutOfRange
from .projection import _grouped, project_signal, project_signal_dual


class ConvVariant(enum.Enum):
    CONV = "conv"
    XCORR = "xcorr"
    CIRC_CONV = "circ-conv"
    CIRC_XCORR = "circ-xcorr"


class ConvDomain(enum.Enum):
    TIME = "time"
    FREQ = "freq"


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


def _as_signal(x, name):
    x = np.asarray(x)
    if x.dtype not in (np.float32, np.float64):
        x = x.astype(np.float64)
    if x.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {x.shape}")
    return np.ascontiguousarray(x)


def _check_linear(s, k):
    if not (1 <= k.shape[0] <= s.shape[0]):
        raise DimensionMismatch(
            f"need 1 <= kernel length <= signal length, got {k.shape[0]} and {s.shape[0]}")


def permutation_matrix(n, size):
    """Cyclic translation matrix: identity blocks swapped about position n.

    Right-multiplying a row vector by it rotates the vector left by ``n``;
    ``n = 0`` is the identity and composition adds translation indices mod
    ``size``.
    """
    if not (0 <= n < size):
        raise IndexOutOfRange(f"translation {n} outside [0, {size})")
    p = np.zeros((size, size))
    if n:
        p[np.arange(n), size - n + np.arange(n)] = 1.0
    p[n + np.arange(size - n), np.arange(size - n)] = 1.0
    return p


def cyclic_translate(v, n):
    """Rotate left by ``n``: out[j] = v[(j + n) mod len(v)]."""
    v = _as_signal(v, "vector")
    if not (0 <= n < v.shape[0]):
        raise IndexOutOfRange(f"translation {n} outside [0, {v.shape[0]})")
    return np.roll(v, -n)


def conv_direct(s, k, variant=ConvVariant.CONV, counter=None):
    """Direct evaluation of the selected variant.

    Linear variants produce ``len(s) + len(k) - 1`` samples:
    conv``[m] = sum_n s[n] k[m - n]``; cross-correlation replaces ``k[m - n]``
    with ``k[m + n]``, so output index ``m`` holds lag ``m - (len(k) - 1)``.
    Circular variants need equal lengths N and wrap the kernel index mod N.
    """
    s = _as_signal(s, "signal")
    k = _as_signal(k, "kernel")
    if variant in (ConvVariant.CONV, ConvVariant.XCORR):
        _check_linear(s, k)
        if counter is not None:
            counter.add(s.shape[0] * k.shape[0])
        if variant is ConvVariant.CONV:
            return np.convolve(s, k)
        return np.convolve(s, k[::-1])
    if s.shape[0] != k.shape[0]:
        raise DimensionMismatch(
            f"circular variants need equal lengths, got {s.shape[0]} and {k.shape[0]}")
    n = s.shape[0]
    if counter is not None:
        counter.add(n * n)
    m = np.arange(n)
    if variant is ConvVariant.CIRC_CONV:
        idx = (m[:, None] - m[None, :]) % n
    else:
        idx = (m[:, None] + m[None, :]) % n
    return k[idx] @ s


def _next_pow2(n):
    return 1 << max(0, n - 1).bit_length()


def _fft_linear(s, k, out_len):
    nfft = _next_pow2(out_len)
    return scipy.fft.irfft(scipy.fft.rfft(s, nfft) * scipy.fft.rfft(k, nfft), nfft)[:out_len]


def conv_fft(s, k):
    """Linear convolution through an FFT zero-padded to the next power of two."""
    s = _as_signal(s, "signal")
    k = _as_signal(k, "kernel")
    _check_linear(s, k)
    return _fft_linear(s, k, s.shape[0] + k.shape[0] - 1)


def conv_overlap_save(s, k, plan, counter=None):
    """Linear convolution by overlap-save segmentation.

    Blocks of ``plan.block_len`` samples, overlapping by ``len(k) - 1``, are
    each convolved independently (direct or FFT per ``plan.domain``); the
    aliasing-free tail of every block is kept. The assembled output equals
    :func:`conv_direct` for any legal segmentation.
    """
    s = _as_signal(s, "signal")
    k = _as_signal(k, "kernel")
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


def _dtype_of(s, k):
    return np.float32 if (s.dtype == np.float32 and k.dtype == np.float32) else np.float64


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
    against ``b`` (cyclic translation for circular variants, zero extension
    for linear ones). Both sides of each inner product are projected
    group-wise — analysis side on the translated operand, synthesis side on
    ``b`` — and the first ``cfg.projections_used`` index products accumulated.
    With all indices kept the output equals :func:`conv_direct` of the same
    variant to machine precision.

    Circular variants require ``len(a) == len(b) == pair.size``. Index maps
    (derived from the translation algebra so full projections match the
    direct definitions): the translation-``n`` inner product lands at output
    ``(N - n) mod N`` for circular cross-correlation and, with ``b`` reversed,
    at ``(n - 1) mod N`` for circular convolution.
    """
    cfg.check_pair(pair)
    a = _as_signal(a, "signal")
    b = _as_signal(b, "kernel")
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


def alignment_calibrate(pair):
    """Per-phase output offsets for :func:`conv_projected_blocked`.

    Sends group-aligned unit impulses (signal impulse at the start of the
    phase's second group, kernel impulse at position zero) through the
    first-projection compact path and locates the response peak against the
    direct convolution's peak. Raises :class:`CalibrationFailed` when the
    response has no unique peak, which flags a pair unusable in blocked mode.
    The result is deterministic, so recalibration always reproduces it.

    Every pair that calibrates gets offsets ``(0, 1, ..., L-1)``. Grouped
    from ``phase``, the probe's only nonzero sample ``probe[phase + L]``
    opens group 1, so the compact probe is ``forward[0, 0]`` at index 1 and
    zero elsewhere; the kernel compacts to the single sample
    ``inverse[0, 0]``. The response is therefore nonzero at index 1 alone
    (or nowhere, when ``forward[0, 0] * inverse[0, 0] == 0``, which fails),
    the direct peak sits at ``phase + L``, and the offset is
    ``(phase + L) - L * 1 = phase``. :func:`conv_projected_peaks` relies on
    the offsets being nonnegative.
    """
    size = pair.size
    kernel = np.zeros(size)
    kernel[0] = 1.0
    kd = project_signal_dual(kernel, pair, 0, 0)
    offsets = []
    for phase in range(size):
        probe = np.zeros(4 * size)
        probe[phase + size] = 1.0
        sc = project_signal(probe, pair, 0, phase)
        response = np.convolve(sc, kd)
        mag = np.abs(response)
        peak = mag.max()
        if peak <= 0.0 or int((mag == peak).sum()) > 1:
            raise CalibrationFailed(
                f"no unique first-projection impulse response peak for phase {phase}")
        direct = np.abs(np.convolve(probe, kernel))
        offsets.append(int(np.argmax(direct)) - size * int(np.argmax(mag)))
    return tuple(offsets)


_OFFSET_CACHE = {}


def _calibrated_offsets(pair):
    """Calibration result memoized on the pair's coefficient bytes."""
    key = (pair.size, pair.forward.tobytes())
    offsets = _OFFSET_CACHE.get(key)
    if offsets is None:
        offsets = alignment_calibrate(pair)
        _OFFSET_CACHE[key] = offsets
    return offsets


def _interp_uniform(out_len, offset, stride, stream, dtype):
    """Linear interpolation from the uniform grid offset + stride*j onto
    integer targets 0..out_len-1, clamping targets outside the grid to the
    end values. Works one stride-residue class at a time so every class is a
    strided slice assignment instead of a gather."""
    m = stream.shape[0]
    out = np.empty(out_len, dtype=dtype)
    if m == 1:
        out[:] = stream[0]
        return out
    top = offset + stride * (m - 1)          # last target computed exactly
    lo = max(0, min(offset, out_len))
    hi = max(lo, min(top + 1, out_len))
    out[:lo] = stream[0]
    out[hi:] = stream[-1]
    diff = stream[1:] - stream[:-1]
    for rem in range(stride):
        start = offset + rem
        jlo = 0
        if start < 0:
            jlo = -(-(-start) // stride)
            start += stride * jlo
        if start >= hi:
            continue
        count = (hi - 1 - start) // stride + 1
        target = slice(start, start + stride * count, stride)
        if rem == 0:
            out[target] = stream[jlo:jlo + count]
        else:
            out[target] = stream[jlo:jlo + count] \
                + (rem / stride) * diff[jlo:jlo + count]
    return out


def conv_projected_blocked(s, k, pair, cfg, counter=None):
    """Fast approximate convolution on compacted sequences.

    For each kept projection ``l`` and computed phase, the phase-shifted
    signal projection is convolved against the kernel's synthesis projection
    at 1/L rate; the summed partial stream is placed at output stride L using
    the calibrated per-phase offset. HALF_INTERPOLATE computes phase 0 only
    and fills the other positions by linear interpolation between computed
    neighbors (border positions take the nearest computed value); ALL_PHASES
    computes every phase and leaves never-written border positions zero.

    Output length is ``len(s) + len(k) - 1``. This path is approximate even
    with all projections kept; :func:`conv_translate_project` is the exact
    reference. The counter charges one count per real signal sample per
    projection pass, plus the full compact convolution products; partial-sum
    additions and interpolation are not charged.
    """
    cfg.check_pair(pair)
    s = _as_signal(s, "signal")
    k = _as_signal(k, "kernel")
    _check_linear(s, k)
    size = pair.size
    if k.shape[0] % size:
        raise DimensionMismatch(
            f"kernel length {k.shape[0]} not divisible by projection size {size}")
    used = cfg.projections_used
    out_len = s.shape[0] + k.shape[0] - 1
    offsets = _calibrated_offsets(pair)
    kd = []
    for l in range(used):
        kd.append(project_signal_dual(k, pair, l, 0))
        if counter is not None:
            counter.add(k.shape[0])
    phases = range(size) if cfg.sample_mode is SampleMode.ALL_PHASES else (0,)
    out = np.zeros(out_len, dtype=_dtype_of(s, k))
    for phase in phases:
        stream = None
        for l in range(used):
            sc = project_signal(s, pair, l, phase)
            if counter is not None:
                counter.add(s.shape[0] - phase)
                counter.add(sc.shape[0] * kd[l].shape[0])
            part = np.convolve(sc, kd[l])
            stream = part if stream is None else stream + part
        if cfg.sample_mode is SampleMode.HALF_INTERPOLATE:
            in_range = -(-(out_len - offsets[phase]) // size)
            if in_range < 1:
                raise DomainError(
                    f"calibrated offset {offsets[phase]} places no computed "
                    f"sample inside the {out_len}-sample output")
            return _interp_uniform(out_len, offsets[phase], size,
                                   stream[:min(in_range, stream.shape[0])],
                                   out.dtype)
        positions = offsets[phase] + size * np.arange(stream.shape[0])
        keep = (positions >= 0) & (positions < out_len)
        out[positions[keep]] = stream[keep]
    return out


def project_kernel_bank(kernels, pair, projections, counter=None):
    """Synthesis projections of equal-length kernels, stacked for
    :func:`conv_projected_peaks`.

    ``kernels`` is (E, N) with N divisible by the pair size; with M = N / L,
    the result is the (projections * M, E) matrix whose row ``l * M + q``
    holds every kernel's projection ``l`` at compact index ``M - 1 - q``
    (each projection reversed, so a window of the compact signal times the
    bank is a convolution). Computed once per bank, so the counter is charged
    N per kernel per projection here, as :func:`conv_projected_blocked`
    charges its kernel pass on every call.
    """
    k = np.asarray(kernels, dtype=np.float64)
    if k.ndim != 2:
        raise DimensionMismatch(f"expected a stack of kernels, got shape {k.shape}")
    count, klen = k.shape
    size = pair.size
    if klen % size:
        raise DimensionMismatch(
            f"kernel length {klen} not divisible by projection size {size}")
    compact = k.reshape(count, klen // size, size) @ pair.inverse[:projections].T
    if counter is not None:
        counter.add(count * klen * projections)
    # (E, M, p) -> rows l * M + q, reversed along q
    return np.ascontiguousarray(
        compact[:, ::-1, :].transpose(2, 1, 0).reshape(-1, count))


def conv_projected_peaks(s, bank, kernel_len, pair, cfg, counter=None):
    """``max(abs(conv_projected_blocked(s, k)))`` for every kernel of a bank.

    ``bank`` comes from :func:`project_kernel_bank` with
    ``cfg.projections_used`` projections of kernels of length ``kernel_len``;
    the result has one peak per bank column. Grouping, projection, phases
    and placement follow :func:`conv_projected_blocked`. Each computed
    phase projects the signal once, then one product of the compact
    signal's sliding windows with the bank gives every kernel's compact
    stream, restricted to the samples placement keeps inside the output.
    Nothing else is needed for the peak: placement offsets are nonnegative
    (see :func:`alignment_calibrate`), so every kept sample lands in the
    output, and the remaining output samples are zero, copies of kept ones,
    or linear interpolations between two kept ones, which never exceed the
    larger of their magnitudes.

    The counter is charged as :func:`conv_projected_blocked` charges one
    call per kernel, less the kernel projections, which the bank paid for
    once: one count per real signal sample per projection pass, plus the
    full compact convolution products of every kernel. The count is that
    convention, not a trace of the windowed product, which also multiplies
    the window's zero padding.
    """
    cfg.check_pair(pair)
    s = _as_signal(s, "signal")
    size = pair.size
    used = cfg.projections_used
    compact_len = kernel_len // size
    if kernel_len % size or bank.ndim != 2 or bank.shape[0] != used * compact_len:
        raise DimensionMismatch(
            f"bank of shape {bank.shape} does not hold {used} projections of "
            f"length-{kernel_len} kernels at projection size {size}")
    if not 1 <= kernel_len <= s.shape[0]:
        raise DimensionMismatch(
            f"need 1 <= kernel length <= signal length, got {kernel_len} and {s.shape[0]}")
    out_len = s.shape[0] + kernel_len - 1
    offsets = _calibrated_offsets(pair)
    phases = range(size) if cfg.sample_mode is SampleMode.ALL_PHASES else (0,)
    forward = pair.forward[:, :used].astype(s.dtype, copy=False)
    peaks = np.zeros(bank.shape[1])
    for phase in phases:
        sc = _grouped(s, size, phase) @ forward
        groups = sc.shape[0]
        if counter is not None:
            counter.add(used * (s.shape[0] - phase))
            counter.add(used * groups * compact_len * bank.shape[1])
        kept = min(-(-(out_len - offsets[phase]) // size), groups + compact_len - 1)
        padded = np.zeros((used, groups + 2 * (compact_len - 1)), dtype=sc.dtype)
        padded[:, compact_len - 1:compact_len - 1 + groups] = sc.T
        # windows[j, l * M + q] = padded[l, j + q]
        windows = sliding_window_view(padded, compact_len, axis=1)[:, :kept]
        windows = windows.transpose(1, 0, 2).reshape(kept, -1)
        np.maximum(peaks, np.abs(windows @ bank).max(axis=0), out=peaks)
    return peaks
