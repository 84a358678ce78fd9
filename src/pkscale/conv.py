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

* :func:`conv_projected_blocked` is the fast path, the polyphase
  decomposition of the convolution with the pair inserted into every
  polyphase inner product. The signal is projected once, in groups of L
  from sample 0; for each computed output phase r the kernel's reversed
  groups are projected; convolving the compact sequences at 1/L the rate
  gives output samples r, r + L, r + 2L, ... directly. Keeping the first p
  projections is the graceful approximation, keeping all L reproduces
  :func:`conv_direct` to rounding, and any kernel length works. The compact
  convolutions run in one of two domains, chosen on every call by comparing
  operation counts: as matrix products of the compact signal's windows with
  a block-Toeplitz matrix of the projected kernel taps, whose output rows,
  flattened, are the phases already interleaved, or as overlap-save FFTs of
  the same windows (Oppenheim & Schafer, *Discrete-Time Signal
  Processing*, section 8.7) written into the same layout. Short kernels
  take the products, long kernels on long signals the FFTs.

* :func:`conv_projected_peaks` runs the same path for one signal against a
  bank of E equal-length kernels whose projections for every computed phase
  :func:`project_kernel_bank` computed once. It returns only each output's
  peak magnitude, and nothing is placed or interpolated into a full-length
  output. The bank is :func:`conv_projected_blocked`'s block-Toeplitz
  operand with E kernels per output phase, built once, so one product per
  chunk of windows gives every phase of every kernel's stream. The overlap
  of the windows sits in that cached matrix instead of in a copy of the
  signal's windows made for every call (the memory-efficient convolution of
  Cho & Brand, "MEC", ICML 2017).

Both fast paths share one set-up, :func:`_compact_setup`, which projects the
signal straight into the columns of its zero-padded compact buffer and
charges the counter; :func:`_window_view` is the windows of that buffer,
which :func:`_compact_windows` copies chunk by chunk into one buffer per
call for the products, and :func:`_kernel_taps` projects the taps of every
phase in one batched product.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .config import SampleMode
from .errors import DimensionMismatch, DomainError, IndexOutOfRange
# project_signal_dual is unused here; perfbench/tracing.py wraps it under
# this module's name, so the name must resolve.
from .projection import _as_real, project_signal, project_signal_dual  # noqa: F401

# Block-Toeplitz products of conv_projected_blocked: output samples per row
# of the product, most compact kernel taps per Toeplitz segment, and most
# window elements copied for one product (for its FFTs, about the most
# values one chunk of windows holds in their buffers).
CONV_ROW_OUTPUTS = 64
CONV_SEGMENT_TAPS = 512
CONV_CHUNK_ELEMENTS = 1 << 16
# conv_projected_blocked runs its compact convolutions as FFTs when
# CONV_FFT_COST times their operation count plus CONV_FFT_OVERHEAD is below
# the block-Toeplitz products' multiply-adds (_blocked_domain): BLAS makes
# about CONV_FFT_COST multiply-adds in the time of one FFT or spectral
# operation, and the FFTs' extra fixed work (transform set-up, calls per
# chunk) takes as long as CONV_FFT_OVERHEAD of them. Fitted to both
# producers' times at 105 geometries (signals of 16 to 200000 samples,
# kernels of 16 to 2000 taps, L 2 to 8; one OpenBLAS thread, 2-core x86-64
# VM), where the rule picked the faster one at 105 and at 102 in two runs;
# the fixed work also keeps every geometry of up to 300 samples on the
# products.
CONV_FFT_COST = 9
CONV_FFT_OVERHEAD = 100_000
# Block-Toeplitz bank of conv_projected_peaks: about this many columns per
# product, B compact samples of each of its P phases and E kernels.
CONV_BANK_COLUMNS = 512


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


def _check_linear(s, k):
    if not (1 <= k.shape[0] <= s.shape[0]):
        raise DimensionMismatch(
            f"need 1 <= kernel length <= signal length, got {k.shape[0]} and {s.shape[0]}")


def cyclic_translate(v, n):
    """Rotate left by ``n``: out[j] = v[(j + n) mod len(v)]."""
    v = _as_real(v, 1, "vector")
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
    # (conv_fft, overlap-save in the FREQ domain) use it
    import scipy.fft

    nfft = _next_pow2(out_len)
    return scipy.fft.irfft(scipy.fft.rfft(s, nfft) * scipy.fft.rfft(k, nfft), nfft)[:out_len]


def conv_fft(s, k):
    """Linear convolution through an FFT zero-padded to the next power of two."""
    s = _as_real(s, 1, "signal")
    k = _as_real(k, 1, "kernel")
    _check_linear(s, k)
    return _fft_linear(s, k, s.shape[0] + k.shape[0] - 1)


def conv_overlap_save(s, k, plan, counter=None):
    """Linear convolution by overlap-save segmentation.

    Blocks of ``plan.block_len`` samples, overlapping by ``len(k) - 1``, are
    each convolved independently (direct or FFT per ``plan.domain``); the
    aliasing-free tail of every block is kept. The assembled output equals
    :func:`conv_direct` for any legal segmentation.
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
    of ``kernel_len`` samples in product rows of B = ``block`` compact
    samples: returns ``(Q, out_len, kept, rows, padded)``, with ``kept`` the
    compact samples of phase 0 inside the output and ``rows`` the product
    rows that hold them.

    ``padded`` is the zero-padded compact signal whose windows
    :func:`_window_view` gives, ``padded[l, Q - 1 + i] = sc_l[i]`` for the
    G = ceil(len(s) / L) compact samples of each of the p kept projections,
    zero elsewhere, shape (p, rows * B + Q - 1). The signal is projected straight into the middle
    columns of a zeroed buffer, in ``s``'s dtype and cast once to ``dtype``.
    The counter is charged p * len(s) for the signal pass and p * G * Q per
    kernel and computed phase for the compact convolutions."""
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
    project_signal(s, pair, range(used),
                   out=padded[:, compact_len - 1:compact_len - 1 + groups])
    if counter is not None:
        counter.add(used * s.shape[0]
                    + len(cfg.phases()) * used * groups * compact_len * count)
    return compact_len, out_len, kept, rows, padded


def _window_view(padded, block, rows, start, span):
    """The read-only (rows, p, span) windows of a :func:`_compact_setup`
    ``padded`` (p, columns): window j holds ``padded[l, start + j*B + a]``,
    a < span, of every l. The last window ends at column start + rows*B - B +
    span - 1, inside padded for every span <= B + Q - 1 - start. An ndarray
    over padded's buffer is the same view as as_strided's, made without its
    Python work."""
    used, columns = padded.shape
    step = padded.itemsize
    view = np.ndarray((rows, used, span), padded.dtype, padded, start * step,
                      (block * step, columns * step, step))
    view.flags.writeable = False
    return view


def _compact_windows(padded, block, rows, start, span):
    """Yield ``(lo, hi, x)``: x is the (hi - lo, p * span) copy of windows lo
    .. hi - 1 of :func:`_window_view`, every projection side by side; times a
    :func:`_toeplitz_segment` operand, window j gives compact samples j*B ..
    j*B + B - 1. The windows overlap, so BLAS needs them copied, in chunks of
    about CONV_CHUNK_ELEMENTS. Every chunk is copied into the same buffer, so
    the caller must be done with x before it asks for the next chunk."""
    windows = _window_view(padded, block, rows, start, span)
    used = padded.shape[0]
    chunk = max(1, CONV_CHUNK_ELEMENTS // (used * span))
    buffer = np.empty((min(chunk, rows), used, span), dtype=padded.dtype)
    for lo in range(0, rows, chunk):
        hi = min(lo + chunk, rows)
        x = buffer[:hi - lo]
        x[...] = windows[lo:hi]
        yield lo, hi, x.reshape(hi - lo, used * span)


def _blocked_domain(signal_len, kernel_len, size, used, phases):
    """The producer :func:`conv_projected_blocked` runs, with its block:
    ``(ConvDomain.TIME, B)`` or ``(ConvDomain.FREQ, H)``.

    With Q compact taps, ``kept`` compact samples per phase and S =
    CONV_SEGMENT_TAPS, the block-Toeplitz products make ``rows * p * B * P *
    (Q + ceil(Q / S) * (B - 1))`` multiply-adds (rows = ceil(kept / B), B =
    ceil(CONV_ROW_OUTPUTS / P)), zeros of the Toeplitz matrices included.
    Overlap-save FFTs of length n, a power of two of at least 2Q, advance H =
    n - Q + 1 compact samples per block. Counting ``f = 1.25 * n * log2(n)``
    operations per real transform and 4 per complex product, they make
    ``nb * ((p + P) * f + 4 * p * P * (n/2 + 1)) + p * P * f``: per block, p
    forward and P inverse transforms and the spectral products, nb =
    ceil(kept / H), and once the kernel spectra. The n with the fewest
    operations is the candidate; see CONV_FFT_COST for the comparison."""
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
    """:func:`_blocked_domain` for :func:`conv_projected_blocked`'s
    operands: the domain and block it runs signal ``s`` against kernel
    ``k`` with."""
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
        for lo, hi, x in _compact_windows(padded, block, rows, start, block + width - 1):
            if first == 0:
                np.matmul(x, toeplitz, out=y[lo:hi])
            else:
                y[lo:hi] += x @ toeplitz


def _spectral_products(padded, taps, block, rows, y):
    """The compact convolutions as overlap-save FFTs of length n = H + Q - 1,
    H = ``block``, into the (rows, H * P) output ``y`` of
    :func:`conv_projected_blocked`, in its layout for B = H.

    Window j of the compact signal, n samples of every projection from j*H on
    (:func:`_window_view`), is transformed once. Its spectra times those of
    the P * p kernels ``kd_{r,l}``, summed over l, are transformed back;
    samples Q - 1 .. n - 1 of phase r's circular convolution are its linear
    one, compact samples j*H .. j*H + H - 1 of phase r's stream. The FFTs
    read the windows in place. A chunk of windows holds, per window, p
    forward spectra, P mixed spectra and P rows of n + 2 reals that take one
    term of the mix and then the inverse transforms: about (p + 2P) * n
    values, CONV_CHUNK_ELEMENTS in all, in buffers every chunk reuses, so a
    chunk's work stays in cache."""
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
    ``Y[j, i*P + r] = y[(j*B + i)*L + r]``, so its rows, flattened, are the
    interleaved output. Row j comes from the window of the zero-padded
    compact signal starting at j*B, all p projections side by side
    (:func:`_window_view`), in one of two domains, chosen on every call by
    comparing their operation counts (:func:`_blocked_domain`):

    * time: the window times the block-Toeplitz matrix of the projected
      kernel taps (:func:`_toeplitz_segment`), B = ceil(CONV_ROW_OUTPUTS /
      P). A product row of CONV_ROW_OUTPUTS output samples is wide enough
      for an efficient BLAS product, while each window is only B - 1 samples
      longer than the taps it meets. The taps are cut into segments of at
      most S = CONV_SEGMENT_TAPS, each a product of its own added into Y; a
      segment's Toeplitz matrix has p * (B + S - 1) rows, so its size does
      not grow with the kernel. The windows are copied in chunks of rows,
      each into the same buffer (:func:`_compact_windows`).
    * frequency: B = H, the hop of overlap-save FFTs of length n = H + Q - 1
      against the spectra of the projected kernel taps
      (:func:`_spectral_products`). Per output sample the products grow with
      Q and the FFTs with log n, so long kernels run here, unless the signal
      is too short to pay for the transforms' fixed work.

    The two domains differ in what their rounding is relative to. A product
    sample's error is relative to its own terms; an FFT block's error is
    relative to the largest values of the n compact samples it transforms,
    so where a quiet stretch of the signal follows a loud one within about
    n * L samples, its outputs keep only the loud part's absolute accuracy
    (a signal 1e6 times louder before a step, 600 taps, DCT L = 4, p = 4:
    2.4e-10 of the quiet part's peak, against 1e-15 in the time domain).
    Relative to the output's peak both are exact to rounding at p = L.
    Output length is ``len(s) + len(k) - 1``. The counter charges, in
    both domains, p * len(s) for the signal pass, and per computed phase p
    * N for the kernel pass plus p * G * Q for the compact convolutions (G
    = ceil(len(s) / L) compact signal samples); partial-sum additions and
    interpolation are not charged. The count is that per-slice convention,
    not a trace of the work: the products also multiply the Toeplitz
    matrix's zeros, and the FFTs do other work.
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
    """Projections of E = ``count`` equal-length kernels of length
    ``kernel_len`` under ``pair`` for every output phase of ``config``, as
    :func:`project_kernel_bank` builds them for one configuration.

    ``toeplitz`` is the read-only right operand of
    :func:`conv_projected_peaks`: the (p * (B + Q - 1), B * P * E)
    block-Toeplitz matrix of :func:`_toeplitz_segment`, laid out as
    :func:`conv_projected_blocked`'s with E kernels per output phase, so its
    column ``(i*P + r)*E + e`` holds kernel e's phase-r taps for block sample
    i. P is the number of ``config.phases()`` and B = ``block`` the compact
    samples per product row, chosen from P, E and Q by
    :func:`project_kernel_bank`. The operand is 0.56 MB for 64 kernels of
    256 samples at L = 2, p = 1, half rate (Q = 129, B = 8). The kernel
    length is kept because the shapes alone cannot tell lengths that share Q
    apart (8 and 9 at L = 2), and it sets how many output samples count
    toward a peak. A bank whose pair size differs from its configuration's
    is refused (DomainError), and so is an operand of another shape
    (DimensionMismatch).
    """

    pair: object
    config: object
    kernel_len: int
    count: int
    block: int
    toeplitz: np.ndarray

    def __post_init__(self):
        self.config.check_pair(self.pair)
        rows = self.config.projections_used * (
            self.block + _compact_kernel_len(self.kernel_len, self.pair.size) - 1)
        shape = (rows, self.block * len(self.config.phases()) * self.count)
        if self.toeplitz.shape != shape:
            raise DimensionMismatch(
                f"bank needs a {shape} operand, got {self.toeplitz.shape}")
        self.toeplitz.setflags(write=False)


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
    output phase of ``cfg``, stacked for :func:`conv_projected_peaks`.

    ``kernels`` is (E, N) with E and N at least 1; with Q = ceil((N + L - 1)
    / L) and p = ``cfg.projections_used``, phase r's taps are every kernel's
    ``kd_{r,l}[Q - 1 - q]`` for l < p and q < Q (see
    :func:`conv_projected_blocked`; each projection reversed, so a window of
    the compact signal times them is a convolution). The taps of the P
    phases and E kernels, phase-major, form one block-Toeplitz operand
    (:class:`KernelBank`), built here, once, so a bank held across queries
    pays for it once. The bank keeps ``pair`` and ``cfg``, so the queries it
    scores are projected with them. The counter is charged N per kernel per
    projection and phase, as :func:`conv_projected_blocked` charges its
    kernel pass on every call; building the operand only moves taps and is
    not charged.
    """
    cfg.check_pair(pair)
    k = _as_real(kernels, 2, "kernel stack")
    count, kernel_len = k.shape
    if count == 0 or kernel_len == 0:
        raise DimensionMismatch(f"kernel stack needs at least one kernel of at least "
                                f"one sample, got shape {k.shape}")
    phases = cfg.phases()
    compact_len = _compact_kernel_len(kernel_len, pair.size)
    # a product about CONV_BANK_COLUMNS wide, and B <= Q / 8, so the Toeplitz
    # zeros add at most (B + Q - 1) / Q <= 1.125 to its work
    block = max(1, min(-(-CONV_BANK_COLUMNS // (len(phases) * count)), compact_len // 8))
    taps = _kernel_taps(k, pair, cfg.projections_used, phases, counter)
    # C-contiguous: at B = 1 the reshaped view can be strided, and BLAS
    # rounds a product of a strided operand differently
    toeplitz = np.ascontiguousarray(_toeplitz_segment(
        taps.reshape(len(phases) * count, cfg.projections_used, compact_len), block))
    return KernelBank(pair, cfg, kernel_len, count, block, toeplitz)


def conv_projected_peaks(s, bank, counter=None):
    """``max(abs(conv_projected_blocked(s, k, bank.pair, bank.config)))`` for
    every kernel of a bank.

    ``bank`` is a :func:`project_kernel_bank` result; its pair, projection
    count and phases are the ones the signal is projected and scored with.
    The result has one peak per kernel. The signal is projected once, as in
    :func:`conv_projected_blocked`, and its compact streams run through the
    same block-Toeplitz products, with P * E columns where that function has
    its P output phases: window j of the compact signal
    (:func:`_compact_windows`), ``B + Q - 1`` samples of every projection
    from j*B on, times the bank's operand gives compact samples j*B .. j*B +
    B - 1 of every phase of every kernel's stream, so a product viewed as
    (rows * B * P, E) is the streams, phases interleaved. One product per
    chunk of windows. Only the stream samples that land inside the output
    count toward the peak. Nothing else is needed: the remaining output
    samples are zero, copies of computed ones, or linear interpolations
    between two computed ones, which never exceed the larger of their
    magnitudes.

    The counter is charged as :func:`conv_projected_blocked` charges one
    call per kernel, less the kernel projections, which the bank paid for
    once, and with the signal pass charged once for all kernels: p * len(s),
    plus p * G * Q per kernel and computed phase. The count is that
    convention, not a trace of the products, which also multiply the
    windows' zero padding and the Toeplitz operand's zeros.
    """
    s = _as_real(s, 1, "signal")
    block, count = bank.block, bank.count
    compact_len, out_len, kept, rows, padded = _compact_setup(
        s, bank.pair, bank.config, bank.kernel_len, block, count, s.dtype, counter)
    phases = len(bank.config.phases())
    # phases() is range(L) or range(1), so stream row (j*B + i)*P + r of a
    # product is output sample (j*B + i)*L + r with every phase, and compact
    # sample j*B + i of phase 0 at half rate: the rows inside the output are
    # one prefix, and every product row starts inside it
    valid = out_len if phases > 1 else kept
    width = block * phases          # stream rows per product row
    peaks = np.zeros(count)
    for lo, hi, x in _compact_windows(padded, block, rows, 0, block + compact_len - 1):
        y = x @ bank.toeplitz
        # |y| in place: a second product-sized temporary made the allocator
        # hand pages back and fault them in on every call
        np.abs(y, out=y)
        # the max over the whole product rows inside the output, B * P * E
        # wide, then over each kernel's samples; a partial last row on its own
        inside = valid - lo * width
        full = min(hi - lo, inside // width)
        if full:
            np.maximum(peaks, y[:full].max(axis=0).reshape(width, count).max(axis=0),
                       out=peaks)
        if full < hi - lo:
            tail = y[full, :(inside - full * width) * count]
            np.maximum(peaks, tail.reshape(-1, count).max(axis=0), out=peaks)
    return peaks
