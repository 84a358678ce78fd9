"""Convolution and cross-correlation kernels, exact and projection-based.

Baselines: direct evaluation of the four variants (linear and circular
convolution and cross-correlation) and an FFT kernel zero-padded to a power
of two. The references the fast paths are checked against are in
:mod:`pkscale.reference`.

* :func:`conv_projected_blocked` is the fast path, the polyphase
  convolution with the pair inserted into every polyphase inner product.
  Its compact convolutions run, chosen per call by operation counts, as
  products of the compact signal's windows with a block-Toeplitz matrix of
  the projected taps, or as overlap-save FFTs of the same windows
  (Oppenheim & Schafer, *Discrete-Time Signal Processing*, section 8.7).
* :func:`conv_projected_peaks` runs those products for one signal against a
  :class:`KernelBank` and returns each kernel's peak magnitude. The windows'
  overlap sits in the cached operand, not in per-call copies (Cho & Brand,
  "MEC", ICML 2017). ``xcorr_match`` prunes (:func:`_match_peaks`):
  Cauchy-Schwarz bounds every product row's scores by its window's norm,
  and only the rows that can still hold the best score are multiplied
  (filter and refine: Faloutsos et al., SIGMOD 1994), by the taps, not the
  B times larger operand. Either way a peak is the largest of the same
  float64 products of a float64 bank.

The fast paths share :func:`_compact_setup`, which projects the signal into
a zero-padded compact buffer and charges the counter, and
:func:`_compact_windows`, which copies that buffer's windows chunk by chunk.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import SampleMode
from .errors import DimensionMismatch
# project_signal_dual is unused here; perfbench/tracing.py wraps it under
# this module's name, so the name must resolve.
from .projection import _as_real, _dtype_of, project_signal, project_signal_dual  # noqa: F401

# Block-Toeplitz products of conv_projected_blocked: output samples per row
# of the product, most compact kernel taps per Toeplitz segment, and most
# window elements copied for one product (for its FFTs, about the most
# values one chunk of windows holds in their buffers).
CONV_ROW_OUTPUTS = 64
CONV_SEGMENT_TAPS = 512
CONV_CHUNK_ELEMENTS = 1 << 16
# conv_projected_blocked runs its compact convolutions as FFTs when
# CONV_FFT_COST times their operation count plus CONV_FFT_OVERHEAD is below
# the products' multiply-adds (_blocked_domain). Fitted to both producers'
# times at 105 geometries (signals of 16 to 200000 samples, kernels of 16 to
# 2000 taps, L 2 to 8; one OpenBLAS thread, 2-core x86-64 VM): the rule
# picked the faster one at 105 and at 102 in two runs.
CONV_FFT_COST = 9
CONV_FFT_OVERHEAD = 100_000
# Block-Toeplitz bank of conv_projected_peaks: about this many columns per
# product, B compact samples of each of its P phases and E kernels.
CONV_BANK_COLUMNS = 512
# _match_peaks screens the product rows of a float64 bank when a call's
# product makes at least CONV_SCREEN_MACS multiply-adds (_screens). The value
# was fitted for a float32 screen of the products, since removed, not for the
# row screen, which wins on smaller banks too (ROADMAP item 7).
CONV_SCREEN_MACS = 4_000_000


class ConvVariant(enum.Enum):
    CONV = "conv"
    XCORR = "xcorr"
    CIRC_CONV = "circ-conv"
    CIRC_XCORR = "circ-xcorr"


class ConvDomain(enum.Enum):
    TIME = "time"
    FREQ = "freq"


def _check_linear(s, k):
    if not (1 <= k.shape[0] <= s.shape[0]):
        raise DimensionMismatch(
            f"need 1 <= kernel length <= signal length, got {k.shape[0]} and {s.shape[0]}")


def conv_direct(s, k, variant=ConvVariant.CONV, counter=None):
    """Direct evaluation of the selected variant.

    Linear variants produce ``len(s) + len(k) - 1`` samples:
    conv``[m] = sum_n s[n] k[m - n]``; cross-correlation replaces ``k[m - n]``
    with ``k[m + n]``, so output index ``m`` holds lag ``m - (len(k) - 1)``.
    Circular variants need equal lengths N and wrap the kernel index mod N.
    """
    s = _as_real(s, 1, "signal")
    k = _as_real(k, 1, "kernel")
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
    # imported here: scipy.fft is slow to import, and only the FFT baselines
    # (conv_fft, reference.conv_overlap_save in the FREQ domain) use it
    import scipy.fft

    nfft = _next_pow2(out_len)
    return scipy.fft.irfft(scipy.fft.rfft(s, nfft) * scipy.fft.rfft(k, nfft), nfft)[:out_len]


def conv_fft(s, k):
    """Linear convolution through an FFT zero-padded to the next power of two."""
    s = _as_real(s, 1, "signal")
    k = _as_real(k, 1, "kernel")
    _check_linear(s, k)
    return _fft_linear(s, k, s.shape[0] + k.shape[0] - 1)


def _compact_kernel_len(kernel_len, size):
    """Q = ceil((N + L - 1) / L), the compact kernel length of every phase."""
    return -(-(kernel_len + size - 1) // size)


def _reversed_kernel(k, size):
    """The kernels along the last axis of ``k``, reversed into zero buffers
    of Q*L + L - 1 samples: ``buf[m] = k[Q*L - 1 - m]``.

    Grouped from phase L - 1 - r, group g of a buffer holds
    ``k[(Q-1-g)*L + r - t]`` at position t, so its synthesis projection l is
    ``kd_{r,l}[Q-1-g]``, the phase-r kernel projection in reverse order.
    """
    n = k.shape[-1]
    length = _compact_kernel_len(n, size) * size
    buf = np.zeros(k.shape[:-1] + (length + size - 1,), dtype=k.dtype)
    buf[..., length - n:length] = k[..., ::-1]
    return buf


def _interp_uniform(out_len, stride, stream, dtype):
    """Linear interpolation from the grid stride*j onto integer targets
    0..out_len-1, holding the last value past the grid's end. Works one
    stride-residue class at a time so every class is a strided slice
    assignment instead of a gather."""
    out = np.empty(out_len, dtype=dtype)
    hi = min(stride * (stream.shape[0] - 1) + 1, out_len)
    out[hi:] = stream[-1]
    diff = stream[1:] - stream[:-1]
    for rem in range(min(stride, hi)):
        count = (hi - 1 - rem) // stride + 1
        target = slice(rem, rem + stride * count, stride)
        if rem == 0:
            out[target] = stream[:count]
        else:
            out[target] = stream[:count] + (rem / stride) * diff[:count]
    return out


def _toeplitz_segment(taps, block):
    """Block-Toeplitz right operand of one tap segment.

    ``taps`` is (P, p, w): per computed phase r and projection l, w
    consecutive compact kernel taps in reversed order, ``g[r, l, m] =
    kd_{r,l}[o + w - 1 - m]`` for the segment's first tap o. The result is
    the (p * (block + w - 1), block * P) matrix ``T[l*(block+w-1) + a, i*P + r]
    = g[r, l, a - i]`` for 0 <= a - i < w, else 0, so a window of block + w - 1
    compact signal samples per projection times T gives block output rows of
    every phase, interleaved.
    """
    phases, used, width = taps.shape
    span = block + width - 1
    padded = np.zeros((phases, used, span + block - 1), dtype=taps.dtype)
    padded[..., block - 1:span] = taps
    # view[r, l, a, i] = padded[r, l, block - 1 + a - i]: indices 0 .. span + block - 2
    s_r, s_l, step = padded.strides
    view = np.ndarray((phases, used, span, block), padded.dtype, padded,
                      (block - 1) * step, (s_r, s_l, step, -step))
    view.flags.writeable = False
    return view.transpose(1, 2, 3, 0).reshape(used * span, block * phases)


def _compact_setup(s, pair, cfg, kernel_len, block, count, dtype, counter):
    """The set-up both fast paths share, for ``s`` against ``count`` kernels
    in product rows of B = ``block`` compact samples: ``(Q, out_len, kept,
    rows, padded)``, ``kept`` the compact samples of phase 0 inside the
    output and ``rows`` the product rows that hold them. ``padded`` (p, rows
    * B + Q - 1) holds ``padded[l, Q - 1 + i] = sc_l[i]`` for the G =
    ceil(len(s) / L) compact samples of each kept projection, zero elsewhere;
    the signal is cast to ``dtype`` and projected straight into it. The
    counter is charged p * len(s) plus p * G * Q per kernel and phase."""
    if not 1 <= kernel_len <= s.shape[0]:
        raise DimensionMismatch(
            f"need 1 <= kernel length <= signal length, got {kernel_len} and {s.shape[0]}")
    size = pair.size
    used = cfg.projections_used
    compact_len = _compact_kernel_len(kernel_len, size)
    out_len = s.shape[0] + kernel_len - 1
    kept = -(-out_len // size)
    rows = -(-kept // block)
    groups = -(-s.shape[0] // size)
    padded = np.zeros((used, rows * block + compact_len - 1), dtype=dtype)
    grouped = s.astype(dtype, copy=False)
    if s.shape[0] < size:
        # project_signal refuses a signal shorter than one group
        grouped = np.concatenate([grouped, np.zeros(size - s.shape[0], dtype)])
    project_signal(grouped, pair, range(used),
                   out=padded[:, compact_len - 1:compact_len - 1 + groups])
    if counter is not None:
        counter.add(used * s.shape[0]
                    + len(cfg.phases()) * used * groups * compact_len * count)
    return compact_len, out_len, kept, rows, padded


def _window_view(padded, block, rows, start, span):
    """The read-only (rows, p, span) windows of a :func:`_compact_setup`
    ``padded``: window j holds ``padded[l, start + j*B + a]``, a < span, of
    every l (as_strided's view, without its Python work)."""
    used, columns = padded.shape
    step = padded.itemsize
    view = np.ndarray((rows, used, span), padded.dtype, padded, start * step,
                      (block * step, columns * step, step))
    view.flags.writeable = False
    return view


def _compact_windows(padded, block, rows, start, span, picked):
    """Yield ``(lo, hi, x)``: x is the (hi - lo, p * span) copy of windows
    ``picked[lo:hi]`` of :func:`_window_view`, ``picked`` ascending, with
    the projections side by side, in chunks of about CONV_CHUNK_ELEMENTS:
    every row by slice into one buffer, so the caller must be done with x
    before it asks for the next chunk, fewer rows by index array into new
    arrays, and a single row is a slice of ``padded`` (a view where p = 1)."""
    used = padded.shape[0]
    count = picked.shape[0]
    if count == 1:
        first = start + picked[0] * block
        yield 0, 1, padded[:, first:first + span].reshape(1, used * span)
        return
    windows = _window_view(padded, block, rows, start, span)
    chunk = max(1, CONV_CHUNK_ELEMENTS // (used * span))
    # a slice copies 2 to 3 times as fast as an index array, which makes a
    # new array whatever its target (np.take's out= first copies the view)
    buffer = np.empty((min(chunk, count), used, span), padded.dtype) if count == rows else None
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        x = windows[picked[lo:hi]] if buffer is None else buffer[:hi - lo]
        if buffer is not None:
            x[...] = windows[lo:hi]
        yield lo, hi, x.reshape(hi - lo, used * span)


def _blocked_domain(signal_len, kernel_len, size, used, phases):
    """The producer :func:`conv_projected_blocked` runs, with its block:
    ``(ConvDomain.TIME, B)`` or ``(ConvDomain.FREQ, H)``.

    The products make ``rows * p * B * P * (Q + ceil(Q / S) * (B - 1))``
    multiply-adds (S = CONV_SEGMENT_TAPS, B = ceil(CONV_ROW_OUTPUTS / P),
    rows = ceil(kept / B)). FFTs of length n, a power of two of at least 2Q,
    advance H = n - Q + 1 compact samples per block; with ``f = 1.25 * n *
    log2(n)`` operations per real transform and 4 per complex product they
    make ``nb * ((p + P) * f + 4 * p * P * (n/2 + 1)) + p * P * f``, nb =
    ceil(kept / H). The n with the fewest operations is the candidate."""
    compact_len = _compact_kernel_len(kernel_len, size)
    kept = -(-(signal_len + kernel_len - 1) // size)
    block = -(-CONV_ROW_OUTPUTS // phases)
    segments = -(-compact_len // CONV_SEGMENT_TAPS)
    time = (-(-kept // block) * used * block * phases
            * (compact_len + segments * (block - 1)))
    freq, hop = None, 0
    n = _next_pow2(2 * compact_len)
    while True:
        blocks = -(-kept // (n - compact_len + 1))
        transform = 1.25 * n * (n.bit_length() - 1)
        count = (blocks * ((used + phases) * transform + 4 * used * phases * (n // 2 + 1))
                 + used * phases * transform)
        if freq is None or count < freq:
            freq, hop = count, n - compact_len + 1
        # past one block a longer transform only adds work
        if blocks == 1:
            break
        n *= 2
    if CONV_FFT_COST * freq + CONV_FFT_OVERHEAD < time:
        return ConvDomain.FREQ, hop
    return ConvDomain.TIME, block


def _blocked_plan(s, k, pair, cfg):
    """:func:`_blocked_domain` of :func:`conv_projected_blocked`'s operands."""
    return _blocked_domain(s.shape[0], k.shape[0], pair.size, cfg.projections_used,
                           len(cfg.phases()))


def _toeplitz_products(padded, taps, block, rows, y):
    """The compact convolutions as block-Toeplitz products of B = ``block``
    samples per row, one tap segment at a time, into the (rows, B * P)
    output ``y`` of :func:`conv_projected_blocked`."""
    compact_len = taps.shape[-1]
    for first in range(0, compact_len, CONV_SEGMENT_TAPS):
        width = min(CONV_SEGMENT_TAPS, compact_len - first)
        # window j of tap segment o reads sc_l[j*B + a - o - w + 1]
        start = compact_len - first - width
        toeplitz = _toeplitz_segment(taps[..., start:start + width], block)
        for lo, hi, x in _compact_windows(padded, block, rows, start, block + width - 1,
                                          np.arange(rows)):
            if first == 0:
                np.matmul(x, toeplitz, out=y[lo:hi])
            else:
                y[lo:hi] += x @ toeplitz


def _spectral_products(padded, taps, block, rows, y):
    """The compact convolutions as overlap-save FFTs of length n = H + Q - 1,
    H = ``block``, into the (rows, H * P) output ``y`` of
    :func:`conv_projected_blocked`, in its layout for B = H.

    Window j of the compact signal, n samples of every projection from j*H
    on, is transformed once in place; its spectra times those of the P * p
    kernels ``kd_{r,l}``, summed over l, are transformed back, and samples Q
    - 1 .. n - 1 of each phase are its compact samples j*H .. j*H + H - 1.
    Buffers of about CONV_CHUNK_ELEMENTS, reused by every chunk, keep a
    chunk's work in cache."""
    # imported here: only this producer needs FFTs, and numpy loads
    # numpy.fft on first use
    from numpy import fft

    phases, used, compact_len = taps.shape
    span = block + compact_len - 1
    bins = span // 2 + 1
    # spectra[r, l] = rfft of kd_{r,l} zero-padded to n
    spectra = fft.rfft(taps[..., ::-1], span)
    windows = _window_view(padded, block, rows, 0, span)
    chunk = min(rows, max(1, CONV_CHUNK_ELEMENTS // ((used + 2 * phases) * span)))
    forward = np.empty((chunk, used, bins), dtype=spectra.dtype)
    mixed = np.empty((chunk, phases, bins), dtype=spectra.dtype)
    scratch = np.empty((chunk, phases, 2 * bins), dtype=y.dtype)
    streams = y.reshape(rows, block, phases)
    for lo in range(0, rows, chunk):
        hi = min(lo + chunk, rows)
        xf = fft.rfft(windows[lo:hi], out=forward[:hi - lo])
        # every phase of one projection per product: fewer, longer SIMD
        # loops than one product per phase, or than einsum's complex loop
        yf = np.multiply(xf[:, None, 0], spectra[:, 0], out=mixed[:hi - lo])
        term = scratch[:hi - lo].view(spectra.dtype)
        for l in range(1, used):
            yf += np.multiply(xf[:, None, l], spectra[:, l], out=term)
        z = fft.irfft(yf, span, out=scratch[:hi - lo, :, :span])
        streams[lo:hi] = z[..., compact_len - 1:].transpose(0, 2, 1)


def conv_projected_blocked(s, k, pair, cfg, counter=None):
    """Convolution on compacted sequences, exact with every projection kept.

    With ``C = pair.forward``, ``D = pair.inverse`` and L the pair size, the
    signal is projected once in groups from sample 0,
    ``sc_l[i] = sum_t s[i*L + t] C[t, l]``, and for each computed output
    phase r the kernel's reversed groups are projected,
    ``kd_{r,l}[q] = sum_t D[l, t] k[q*L + r - t]`` for q < Q =
    ceil((N + L - 1) / L) (:func:`project_kernel_bank`). Since
    ``C @ D == I``, summing the compact convolutions over every l gives
    ``y[j*L + r] = sum_l (sc_l * kd_{r,l})[j]`` exactly; the first
    ``cfg.projections_used`` terms are the approximation. Any kernel length
    from 1 to ``len(s)`` works. ALL_PHASES computes every phase;
    HALF_INTERPOLATE computes phase 0 only and fills the other positions by
    linear interpolation between computed neighbors (positions past the last
    computed sample take its value).

    The output is held as a matrix Y of B compact samples per row,
    ``Y[j, i*P + r] = y[(j*B + i)*L + r]``, whose rows, flattened, are the
    interleaved output. Row j comes from the window of the compact signal
    starting at j*B, all p projections side by side, in one of two domains
    chosen per call by their operation counts (:func:`_blocked_domain`):

    * time: the window times the block-Toeplitz matrix of the projected taps
      (:func:`_toeplitz_segment`), B = ceil(CONV_ROW_OUTPUTS / P), with the
      taps cut into segments of at most CONV_SEGMENT_TAPS, each a product
      added into Y;
    * frequency: B = H, the hop of overlap-save FFTs of length n = H + Q - 1
      (:func:`_spectral_products`), for long kernels on long signals.

    A product sample's rounding is relative to its own terms; an FFT
    block's is relative to the largest of the n compact samples it
    transforms, so a quiet stretch within about n * L samples after a loud
    one keeps only the loud part's absolute accuracy (a 1e6 step, 600 taps,
    DCT L = 4, p = 4: 2.4e-10 of the quiet part's peak, against 1e-15).
    Both are exact to rounding at p = L. Output length is ``len(s) + len(k)
    - 1``. The counter charges p * len(s) for the signal pass, and per
    computed phase p * N for the kernel pass plus p * G * Q for the compact
    convolutions (G = ceil(len(s) / L)): the per-slice convention, not a
    trace of the work.
    """
    cfg.check_pair(pair)
    s = _as_real(s, 1, "signal")
    k = _as_real(k, 1, "kernel")
    phases = cfg.phases()
    dtype = _dtype_of(s, k)
    domain, block = _blocked_plan(s, k, pair, cfg)
    compact_len, out_len, kept, rows, padded = _compact_setup(
        s, pair, cfg, k.shape[0], block, 1, dtype, counter)
    # taps[r, l, q] = kd_{r,l}[Q - 1 - q]
    taps = _kernel_taps(k[None], pair, cfg.projections_used, phases,
                        counter)[:, 0].astype(dtype, copy=False)
    y = np.empty((rows, block * len(phases)), dtype=dtype)
    produce = _toeplitz_products if domain is ConvDomain.TIME else _spectral_products
    produce(padded, taps, block, rows, y)
    # free the compact signal before a half-rate output is allocated (the
    # producer's buffers are gone with its return): held across that
    # allocation, they raised the peak RSS of a caller keeping 64 short
    # half-rate outputs by about 0.5 MB
    del padded, taps
    if cfg.sample_mode is SampleMode.HALF_INTERPOLATE:
        return _interp_uniform(out_len, pair.size, y.reshape(-1)[:kept], dtype)
    return y.reshape(-1)[:out_len]


@dataclass(frozen=True)
class KernelBank:
    """Projections of E = ``count`` kernels of ``kernel_len`` samples under
    ``pair`` for every output phase of ``config``
    (:func:`project_kernel_bank`).

    ``toeplitz`` is the read-only right operand of
    :func:`conv_projected_peaks`: the (p * (B + Q - 1), B * P * E)
    block-Toeplitz matrix of :func:`_toeplitz_segment` with E kernels per
    output phase, so column ``(i*P + r)*E + e`` holds kernel e's phase-r
    taps for block sample i; B = ``block``. It is 0.56 MB for 64 kernels of
    256 samples at L = 2, p = 1, half rate (Q = 129, B = 8). The kernel
    length is kept because lengths that share Q (8 and 9 at L = 2) share
    shapes. A pair size other than the configuration's is refused
    (DomainError), and so is an operand of another shape
    (DimensionMismatch).

    ``screen`` is the :class:`_Screen` that :func:`_match_peaks` screens
    product rows with (67 kB above, almost all of it the B = 1 operand that
    subsets of rows run through), derived from a finite float64 operand, and
    None for any other.
    """

    pair: object
    config: object
    kernel_len: int
    count: int
    block: int
    toeplitz: np.ndarray
    screen: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.config.check_pair(self.pair)
        rows = self.config.projections_used * (
            self.block + _compact_kernel_len(self.kernel_len, self.pair.size) - 1)
        shape = (rows, self.block * len(self.config.phases()) * self.count)
        if self.toeplitz.shape != shape:
            raise DimensionMismatch(
                f"bank needs a {shape} operand, got {self.toeplitz.shape}")
        self.toeplitz.setflags(write=False)
        object.__setattr__(self, "screen", _screen_operand(self))


class _Screen(NamedTuple):
    """A float64 bank operand T's screen: max |T| * 2**``shift`` is in [1/2,
    1); ``norms[e]`` is the largest 2-norm of kernel e's columns times
    2**shift, rounded up; column r*E + e of ``stack`` holds kernel e's
    phase-r taps, column r*E + e of T in rows l*(B + Q - 1) + q, q < Q: the
    (p * Q, P * E) operand :func:`_toeplitz_segment` builds at B = 1, which
    :func:`_bank_peaks` multiplies subsets of rows by."""

    shift: int
    norms: np.ndarray
    stack: np.ndarray


def _screen_operand(bank):
    """The :class:`_Screen` of a :class:`KernelBank`'s operand, or None for
    a float32 or non-finite one."""
    toeplitz, count = bank.toeplitz, bank.count
    if toeplitz.dtype != np.float64:
        return None
    # block sample 0's columns as rows: every tap of T, and the other
    # entries of T are zeros
    used = bank.config.projections_used
    taps = toeplitz.reshape(used, -1, toeplitz.shape[1])[
        :, :_compact_kernel_len(bank.kernel_len, bank.pair.size), :toeplitz.shape[1] // bank.block]
    taps = np.ascontiguousarray(taps.transpose(2, 0, 1)).reshape(taps.shape[2], -1)
    top = float(max(taps.max(), -taps.min()))
    if not math.isfinite(top):
        return None
    shift = -math.frexp(top)[1]
    stack = np.ascontiguousarray(taps.T)
    stack.setflags(write=False)
    # every column of phase r and kernel e holds those taps
    norms = _norms_up(np.ldexp(taps, shift)).reshape(-1, count).max(axis=0)
    return _Screen(shift, norms, stack)


def _norms_up(rows):
    """The 2-norm of every ``rows[i]``, rounded up: a computed sum of n
    squares is within about (n + 1) * 2**-53 of itself."""
    axes = "ijk"[:rows.ndim]
    return np.sqrt(np.einsum(f"{axes},{axes}->i", rows, rows)
                   * (1 + (rows[0].size + 1) * 2.0 ** -52))


def _kernel_taps(kernels, pair, projections, phases, counter=None):
    """Synthesis projections of kernels (E, N) for the consecutive output
    phases ``phases``, reversed: ``taps[i, e, l, q] = kd_{r,l}[Q - 1 - q]``
    of kernel e at phase r = ``phases[i]``, shape (P, E, projections, Q).

    Phase r's groups start L - 1 - r samples into each kernel's
    :func:`_reversed_kernel` buffer, so the groups of every phase are one
    strided view of that buffer, one sample apart from phase to phase, and
    all phases take one batched product. The counter is charged N per kernel
    per projection and phase."""
    size = pair.size
    count, klen = kernels.shape
    compact_len = _compact_kernel_len(klen, size)
    buf = _reversed_kernel(kernels, size)
    step = buf.itemsize
    groups = np.ndarray((len(phases), count, compact_len, size), buf.dtype, buf,
                        (size - 1 - phases[0]) * step,
                        (-step, buf.strides[0], size * step, step))
    groups.flags.writeable = False
    compact = groups @ pair.inverse[:projections].T
    if counter is not None:
        counter.add(len(phases) * count * klen * projections)
    return compact.swapaxes(-1, -2)


def project_kernel_bank(kernels, pair, cfg, counter=None):
    """Synthesis projections of equal-length kernels under ``pair`` for every
    output phase of ``cfg``, as a :class:`KernelBank`.

    ``kernels`` is (E, N) with E and N at least 1; phase r's taps are every
    kernel's ``kd_{r,l}[Q - 1 - q]`` for l < p and q < Q (see
    :func:`conv_projected_blocked`), reversed so that a window of the
    compact signal times them is a convolution. The bank is built once, so
    a bank held across queries pays for it once, and it keeps ``pair`` and
    ``cfg`` for the queries it scores. The counter is charged N per kernel
    per projection and phase; building the operand is not charged.
    """
    cfg.check_pair(pair)
    k = _as_real(kernels, 2, "kernel stack")
    count, kernel_len = k.shape
    if count == 0 or kernel_len == 0:
        raise DimensionMismatch(f"kernel stack needs at least one kernel of at least "
                                f"one sample, got shape {k.shape}")
    phases = cfg.phases()
    compact_len = _compact_kernel_len(kernel_len, pair.size)
    block = _bank_block(len(phases), count, compact_len)
    taps = _kernel_taps(k, pair, cfg.projections_used, phases, counter)
    # C-contiguous: at B = 1 the reshaped view can be strided, and BLAS
    # rounds a product of a strided operand differently
    toeplitz = np.ascontiguousarray(_toeplitz_segment(
        taps.reshape(len(phases) * count, cfg.projections_used, compact_len), block))
    return KernelBank(pair, cfg, kernel_len, count, block, toeplitz)


def _bank_block(phases, count, compact_len):
    """A bank's B: a product about CONV_BANK_COLUMNS wide, and B <= Q / 8,
    so the Toeplitz zeros add at most (B + Q - 1) / Q <= 1.125 to its work."""
    return max(1, min(-(-CONV_BANK_COLUMNS // (phases * count)), compact_len // 8))


def _screens(signal_len, bank):
    """Whether :func:`_match_peaks` screens the product rows of a signal of
    ``signal_len`` samples against ``bank``: the bank has a screen and the
    call's product makes at least CONV_SCREEN_MACS multiply-adds."""
    if bank.screen is None:
        return False
    kept = -(-(signal_len + bank.kernel_len - 1) // bank.pair.size)
    return -(-kept // bank.block) * bank.toeplitz.size >= CONV_SCREEN_MACS


def _screen_signal(padded, bank):
    """``(scaled, scale)``: the float64 compact signal times the power of
    two that puts its largest magnitude in [1/2, 1), and the exponent that
    takes a product in those units back (screen units times 2**scale). None
    for a signal that is not finite, or whose products against ``bank``
    could overflow float64 or underflow it by more than 2**-126 in scaled
    units."""
    top = float(np.abs(padded).max())
    if not math.isfinite(top):
        return None
    exponent = math.frexp(top)[1]
    # every product sample and partial sum is below K * 2**scale
    scale = exponent - bank.screen.shift
    if scale + bank.toeplitz.shape[0].bit_length() > 1023 or scale < -896:
        return None
    return np.ldexp(padded, -exponent), scale


def _gamma(n, v):
    return n * v / (1 - n * v) if n * v < 1 else math.inf


def _kernel_maxima(y, tail, count):
    """Each of ``count`` kernels' largest |y| in a product chunk: |y| in
    place, its last ``tail`` samples (past the output's end) set to 0, the
    largest of each column, then of each kernel's columns."""
    # |y| in place: a second product-sized temporary made the allocator
    # hand pages back and fault them in on every call
    np.abs(y, out=y)
    if tail:
        y.reshape(-1)[y.size - tail:] = 0
    largest = y[0] if y.shape[0] == 1 else np.maximum.reduce(y, axis=0)
    return np.maximum.reduce(largest.reshape(-1, count), axis=0)


def conv_projected_peaks(s, bank, counter=None):
    """``max(abs(conv_projected_blocked(s, k, bank.pair, bank.config)))`` for
    every kernel of a bank.

    ``bank`` is a :func:`project_kernel_bank` result, whose pair and
    configuration the signal is projected and scored with; a float32 signal
    against a float64 bank is projected in float64. The compact streams run
    through :func:`conv_projected_blocked`'s products with P * E columns:
    window j of the compact signal times the bank's operand gives compact
    samples j*B .. j*B + B - 1 of every phase of every kernel, one product
    per chunk of windows. Only the stream samples inside the output count:
    the other output samples are zero, copies, or interpolations between
    two computed ones. The counter is charged p * len(s) plus p * G * Q per
    kernel and computed phase, :func:`conv_projected_blocked`'s convention
    less the kernel pass the bank paid for.
    """
    setup = _peaks_setup(_as_real(s, 1, "signal"), bank, counter)
    return _bank_peaks(bank, setup, np.arange(setup[3]))


def _peaks_setup(s, bank, counter):
    """The :func:`_compact_setup` of a peaks call on the 1-D float ``s``,
    projected in float64 against a float64 bank."""
    return _compact_setup(s, bank.pair, bank.config, bank.kernel_len, bank.block,
                          bank.count, _dtype_of(s, bank.toeplitz), counter)


def _bank_peaks(bank, setup, picked):
    """The peaks of product rows ``picked``, ascending, at least one: through
    the bank's operand, or for fewer rows than every row through its
    screen's ``stack`` where their windows' copy is the smaller."""
    block, count = bank.block, bank.count
    compact_len, out_len, kept, rows, padded = setup
    phases = len(bank.config.phases())
    span = block + compact_len - 1
    total = picked.shape[0]
    # the stream samples past the output's end, at the end of the last row:
    # stream row (j*B + i)*P + r is output sample (j*B + i)*L + r with every
    # phase, compact sample j*B + i of phase 0 at half rate
    end = out_len if phases > 1 else kept
    tail = (rows * block * phases - end) * count if picked[-1] == rows - 1 else 0
    if total < rows and 2 * total * compact_len < span * phases * count:
        # row j's B windows of Q compact samples from j*B on times the
        # stack: the row's samples in the operand's column order. The
        # stack, B times smaller than the operand, stays in cache from
        # query to query; the copy, written once and read once, must be
        # smaller than the operand (p * (B + Q - 1) * B * P * E)
        windows = _window_view(padded, 1, rows * block, 0, compact_len)
        x = windows.reshape(rows, block, *windows.shape[1:])[picked]
        y = (x.reshape(total * block, -1) @ bank.screen.stack).reshape(total, -1)
        return _kernel_maxima(y, tail, count)
    for lo, hi, x in _compact_windows(padded, block, rows, 0, span, picked):
        chunk = _kernel_maxima(x @ bank.toeplitz, tail if hi == total else 0, count)
        peaks = chunk if lo == 0 else np.maximum(peaks, chunk, out=peaks)
    return peaks


def _with_neighbour(bank, rows, picked):
    """``picked``, and at B = 1 a single row's neighbour: a one-row product
    runs as a matrix-vector product, which can round equal columns apart."""
    if bank.block == 1 and picked.shape[0] == 1 and rows > 1:
        return np.arange(2) + min(picked[0], rows - 2)
    return picked


def _match_peaks(s, bank, terms, counter=None):
    """:func:`conv_projected_peaks` of the 1-D float64 ``s`` for the scores
    peaks / energies of ``xcorr_match``, ``terms`` the bank's
    :func:`_row_screen` for those energies: ``(peaks, rows, path)``, the
    peaks, the product rows multiplied and how: "row-screen" (the rows the
    screen kept) or "float64-product" (every row, as
    :func:`conv_projected_peaks` multiplies them). An entry whose score
    cannot be the largest may get a partial peak, the largest over those
    rows. Where :func:`_screens` holds, the loudest row's peaks bound the
    best score from below, and only the other rows whose bound reaches it
    (:func:`_row_bounds`) are multiplied, all of them where that is every
    other row. So every row left out scores below the best. The counter is
    charged as :func:`conv_projected_peaks` is."""
    setup = _peaks_setup(s, bank, counter)
    rows = setup[3]
    screened = _screens(s.shape[0], bank) and _screen_signal(setup[-1], bank)
    # None: scores could leave float64, though the products cannot
    sums = _row_bounds(bank, setup, screened, terms) if screened else None
    if sums is not None:
        loudest = _with_neighbour(bank, rows, sums.argmax()[None])
        peaks = _bank_peaks(bank, setup, loudest)
        sums[loudest] = -np.inf         # multiplied already
        # the best score so far in scaled units, rounded down
        lower = math.nextafter(
            math.ldexp(np.maximum.reduce(peaks / terms.energies), -screened[1]), 0)
        picked = _with_neighbour(bank, rows, (
            sums >= _least_reaching(lower, terms.gain, terms.floor)).nonzero()[0])
        multiplied = loudest.shape[0] + picked.shape[0]
        if multiplied < rows or not picked.shape[0]:
            if picked.shape[0]:
                np.maximum(peaks, _bank_peaks(bank, setup, picked), out=peaks)
            return peaks, multiplied, "row-screen"
    return _bank_peaks(bank, setup, np.arange(rows)), rows, "float64-product"


class _RowScreen(NamedTuple):
    """A bank's terms of :func:`_row_bounds` for the scores peaks /
    ``energies``: ``gain`` and ``floor``, ``reach`` the bits by which a
    bound can exceed 2**scale, and ``step`` g = gcd(B, B + Q - 1)."""

    energies: np.ndarray
    gain: float
    floor: float
    reach: int
    step: int


def _row_screen(bank, energies):
    """The :class:`_RowScreen` of ``bank`` for ``energies``, once per bank
    and energies; ``gain`` is NaN for a bank without a screen, whose rows
    are never screened."""
    depth = bank.toeplitz.shape[0]
    # ufunc reductions: ndarray.min and max add a Python call each
    least = np.minimum.reduce(energies)
    gain = ((1 + _gamma(depth, 2.0 ** -53)) * math.sqrt(1 + (depth + 1) * 2.0 ** -52)
            * (1 + 2.0 ** -49) * np.maximum.reduce(bank.screen.norms / energies)
            if bank.screen else math.nan)
    return _RowScreen(energies, gain, depth * 2.0 ** -122 / least,
                      depth.bit_length() + 2 - math.frexp(least)[1],
                      math.gcd(bank.block, depth // bank.config.projections_used))


def _row_bounds(bank, setup, screened, terms):
    """S_j, the sum of squares of product row j's window of the scaled
    compact signal, for every row j; None where a bound could leave
    float64's range.

    With ``terms`` (:class:`_RowScreen`), U_j = gain * sqrt(S_j) + floor
    bounds every score in row j in scaled units (times 2**scale). Its
    float64 samples of entry e are at most (1 + gamma_K) * W_j * N_e
    (Cauchy-Schwarz, and Higham's bound on a sum of K = p * (B + Q - 1)
    terms), N_e the screen's norm of the entry's columns and W_j the 2-norm
    of the row's window, plus 2**-126 for each of 8 operations per term for
    underflow (doubled for the rounding of its quotient); gain is raised by
    2**-49 for its roundings. A row multiplied through the stack sums p * Q
    of those K terms, the rest being zeros, over a part of the window, and
    gamma_n grows with n, so U_j bounds it too. S_j adds up pieces of g
    columns, which tile every window; all its terms are nonnegative, so in
    any order W_j <= sqrt(S_j * (1 + (K + 1) * 2**-52)). W_j and N_e are
    below sqrt(K), so U_j * 2**scale < 2K * 2**scale / min energy_e."""
    scaled, scale = screened
    if max(scale, 0) + terms.reach > 1023:
        return None
    span = bank.block + setup[0] - 1
    step = terms.step
    pieces = scaled.reshape(scaled.shape[0], -1, step)
    sums = np.einsum("ijk,ijk->j", pieces, pieces)
    # window j: span / g pieces from piece j * B / g on
    windows = np.ndarray((span // step, setup[3]), sums.dtype, sums, 0,
                         (sums.itemsize, sums.itemsize * bank.block // step))
    return np.add.reduce(windows, axis=0)


def _least_reaching(lower, gain, floor):
    """The least S with gain * sqrt(S) + floor >= ``lower``, lowered by 2**-50
    past its three roundings (each within 2**-53 from 2**-1000 on; 0 below)."""
    root = (lower - floor) / gain if lower > floor else 0.0
    return root * root * (1 - 2.0 ** -50) if root * root >= 2.0 ** -1000 else 0.0
