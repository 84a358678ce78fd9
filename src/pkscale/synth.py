"""Synthetic test data with tunable sample-to-sample correlation.

Everything here is seeded through ``numpy.random.default_rng`` (PCG64), so a
fixed seed reproduces the same corpus on any platform. Signals and images are
white Gaussian noise passed through a one-pole smoothing filter
``y[t] = x[t] + rho * y[t-1]`` and rescaled to [-1, 1]; ``rho`` close to one
gives the slowly varying data that projection kernels are designed for.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

DEFAULT_RHO = 0.95


def _check_rho(rho):
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"correlation coefficient must be in [0, 1), got {rho}")


def _rescale(x):
    peak = np.max(np.abs(x))
    if peak > 0.0:
        x = x / peak
    return x


def _smooth(x, rho, axis=-1):
    """The one-pole filter ``y[t] = x[t] + rho * y[t-1]`` along ``axis``.

    Stepped along ``axis`` and vectorised across the other axis; the rounding
    is that of ``scipy.signal.lfilter([1], [1, -rho], x, axis=axis)``.
    """
    x = np.moveaxis(np.asarray(x, dtype=np.float64), axis, 0)
    y = np.empty_like(x)
    prev = 0.0
    for t, row in enumerate(x):
        prev = rho * prev + row
        y[t] = prev
    return np.moveaxis(y, 0, axis)


def ar_signal(length, rng, rho=DEFAULT_RHO):
    """Correlated 1-D signal of ``length`` samples in [-1, 1]."""
    if length < 1:
        raise DomainError(f"signal length must be positive, got {length}")
    _check_rho(rho)
    white = rng.standard_normal(length)
    return _rescale(_smooth(white, rho))


def ar_image(rows, cols, rng, rho=DEFAULT_RHO):
    """Correlated 2-D field, filtered along rows then columns, in [-1, 1]."""
    if rows < 1 or cols < 1:
        raise DomainError(f"image dimensions must be positive, got {rows}x{cols}")
    _check_rho(rho)
    white = rng.standard_normal((rows, cols))
    return _rescale(_smooth(_smooth(white, rho, axis=1), rho, axis=0))


def ar_matrix_pair(m, k, w, rng, rho=DEFAULT_RHO):
    """Left (m x k) and right (k x w) operands for a correlated matrix product."""
    return ar_image(m, k, rng, rho=rho), ar_image(k, w, rng, rho=rho)


def gallery(count, rows, cols, rng, rho=DEFAULT_RHO):
    """Stack of ``count`` correlated images, shape (count, rows, cols)."""
    if count < 1:
        raise DomainError(f"gallery needs at least one image, got {count}")
    return np.stack([ar_image(rows, cols, rng, rho=rho) for _ in range(count)])


def noisy_copy(x, rng, snr_db):
    """Additive white Gaussian noise at a prescribed signal-to-noise ratio."""
    x = np.asarray(x, dtype=np.float64)
    power = np.mean(x**2)
    if power == 0.0:
        raise DomainError("cannot scale noise against an all-zero array")
    noise = rng.standard_normal(x.shape)
    noise *= np.sqrt(power / np.mean(noise**2) * 10.0 ** (-snr_db / 10.0))
    return x + noise
