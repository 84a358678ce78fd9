"""Demo pipelines: 2D-PCA recognition and cross-correlation matching.

Both pipelines run on either the conventional kernels or the projected ones,
selected through :class:`GemmMode` / :class:`ConvMode`. The contract that
matters downstream is the decision (matched index or entry id), not the raw
numbers: at full projections the decisions are identical by construction, and
at reduced precision the benchmarks report how often they still agree.
"""

from __future__ import annotations

import glob
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .conv import (
    ConvVariant,
    conv_direct,
    conv_projected_blocked,
    conv_projected_peaks,
    project_kernel_bank,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyDb,
    EmptyGallery,
    HeterogeneousDims,
    ParseError,
    ZeroEnergyEntry,
)
from .gemm import gemm_projected
from .io import load_manifest, load_matrix, load_signal, read_pgm
from .projection import _as_real

DEFAULT_FEATURE_DIMS = 10


class ImageFormat(Enum):
    PGM = "pgm"
    PKM = "pkm"


def _mode_fields(pair, config):
    if (pair is None) != (config is None):
        raise DomainError("projected mode needs both a projection pair and a config")
    if pair is not None:
        config.check_pair(pair)


@dataclass(frozen=True)
class GemmMode:
    """Matrix-multiply selector: plain product, or projected at a given pair."""

    pair: object = None
    config: object = None

    def __post_init__(self):
        _mode_fields(self.pair, self.config)

    @property
    def is_projected(self):
        return self.pair is not None

    def label(self):
        if not self.is_projected:
            return "conventional"
        return f"projected-L{self.pair.size}-p{self.config.projections_used}"

    def multiply(self, a, b, counter=None):
        a = np.asarray(a)
        b = np.asarray(b)
        if self.is_projected:
            return gemm_projected(a, b, self.pair, self.config, counter=counter)
        if a.shape[1] != b.shape[0]:
            raise DimensionMismatch(
                f"inner dimensions disagree: {a.shape} @ {b.shape}")
        if counter is not None:
            counter.add(a.shape[0] * a.shape[1] * b.shape[1])
        return a @ b


@dataclass(frozen=True)
class ConvMode:
    """Cross-correlation selector: direct, or blocked projected convolution."""

    pair: object = None
    config: object = None

    def __post_init__(self):
        _mode_fields(self.pair, self.config)

    @property
    def is_projected(self):
        return self.pair is not None

    def label(self):
        if not self.is_projected:
            return "conventional"
        mode = self.config.sample_mode.value
        return f"projected-L{self.pair.size}-p{self.config.projections_used}-{mode}"

    def correlate(self, signal, kernel, counter=None):
        """Full linear cross-correlation of ``signal`` against ``kernel``."""
        kernel = np.asarray(kernel)
        if self.is_projected:
            # correlation == convolution with the kernel reversed
            return conv_projected_blocked(signal, kernel[::-1], self.pair,
                                          self.config, counter=counter)
        return conv_direct(signal, kernel, variant=ConvVariant.XCORR,
                           counter=counter)


@dataclass(frozen=True)
class TrainingSet:
    """Zero-mean square images plus their subject labels."""

    images: np.ndarray        # (count, n, n)
    labels: tuple

    def __post_init__(self):
        if self.images.ndim != 3 or self.images.shape[1] != self.images.shape[2]:
            raise DimensionMismatch(
                f"expected a stack of square images, got shape {self.images.shape}")
        if len(self.labels) != self.images.shape[0]:
            raise DimensionMismatch(
                f"{self.images.shape[0]} images but {len(self.labels)} labels")

    @property
    def count(self):
        return self.images.shape[0]

    @property
    def dim(self):
        return self.images.shape[1]


@dataclass(frozen=True)
class EigenBasis:
    """Top eigenvectors (columns) of the image scatter matrix."""

    vectors: np.ndarray       # (n, dims)
    eigenvalues: np.ndarray   # descending, nonnegative

    @property
    def dims(self):
        return self.vectors.shape[1]


def pca_train(training, dims=DEFAULT_FEATURE_DIMS, mode=GemmMode(), counter=None):
    """Image-scatter eigenbasis plus per-image feature matrices.

    The scatter matrix is the sum of A @ A.T over the training images,
    accumulated through the selected multiply; its top ``dims`` eigenvectors
    (LAPACK ``eigh``, eigenvalues descending) form the basis, and the
    features are :func:`pca_extract` of the training stack. A scatter with
    non-finite entries (non-finite images, or products that overflow) raises
    :class:`DomainError`.
    """
    n = training.dim
    if not 1 <= dims <= n:
        raise DomainError(f"feature count must be in [1, {n}], got {dims}")
    scatter = np.zeros((n, n))
    for image in training.images:
        scatter += mode.multiply(image, image.T, counter=counter)
    if not np.all(np.isfinite(scatter)):
        raise DomainError("image scatter matrix contains non-finite values")
    values, vectors = np.linalg.eigh((scatter + scatter.T) / 2.0)
    basis = EigenBasis(vectors=np.ascontiguousarray(vectors[:, ::-1][:, :dims]),
                       eigenvalues=np.maximum(values[::-1][:dims], 0.0))
    return basis, pca_extract(training.images, basis, mode=mode, counter=counter)


def pca_extract(images, basis, mode=GemmMode(), counter=None):
    """Feature matrices of a ``(count, n, n)`` image stack against a basis.

    Returns ``(count, n, dims)``, computed as one product of the stacked image
    rows, ``(count*n, n) @ basis``, so the basis is projected once per call.
    """
    images = np.asarray(images)
    n = basis.vectors.shape[0]
    if images.ndim != 3 or images.shape[1:] != (n, n):
        raise DimensionMismatch(
            f"image stack shape {images.shape} does not match basis rows {n}")
    count = images.shape[0]
    rows = mode.multiply(images.reshape(count * n, n), basis.vectors,
                         counter=counter)
    return rows.reshape(count, n, basis.dims)


def pca_match(features, gallery):
    """Gallery index nearest in Frobenius norm to each query feature matrix.

    ``features`` is a stack of query feature matrices and ``gallery`` a stack
    of the same shape per entry; returns one index per query, ties going to
    the lowest index. Each query is one vectorised pass over the gallery.
    """
    gallery = np.asarray(gallery, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    if gallery.shape[0] == 0:
        raise EmptyGallery("cannot match against an empty gallery")
    if features.ndim != 3 or features.shape[1:] != gallery.shape[1:]:
        raise DimensionMismatch(
            f"query stack has shape {features.shape}, gallery {gallery.shape}")
    flat = gallery.reshape(gallery.shape[0], -1)
    matches = np.empty(features.shape[0], dtype=np.intp)
    for i, query in enumerate(features.reshape(features.shape[0], -1)):
        # the difference form, not |f|^2 + |g|^2 - 2 f.g, so that duplicate
        # gallery entries tie exactly
        d = flat - query
        matches[i] = np.argmin(np.einsum("ij,ij->i", d, d))
    return matches


def _crop_or_pad(image, n):
    rows, cols = image.shape
    out = np.zeros((n, n), dtype=np.float64)
    r0 = max((rows - n) // 2, 0)
    c0 = max((cols - n) // 2, 0)
    rt = max((n - rows) // 2, 0)
    ct = max((n - cols) // 2, 0)
    h = min(rows, n)
    w = min(cols, n)
    out[rt:rt + h, ct:ct + w] = image[r0:r0 + h, c0:c0 + w]
    return out


def ingest_images(pattern, crop=None, fmt=ImageFormat.PGM):
    """Training set from files matching a glob pattern (or an explicit list).

    Images are center-cropped or zero-padded to ``crop`` when given
    (otherwise all files must agree in size), then made zero-mean. Labels are
    the part of the file name before the first dot.
    """
    if isinstance(pattern, (str, Path)):
        paths = sorted(glob.glob(str(pattern)))
    else:
        paths = [Path(p) for p in pattern]
    if not paths:
        raise ParseError(f"no files match {pattern!r}")
    images = []
    labels = []
    for path in paths:
        path = Path(path)
        raw = read_pgm(path) if fmt is ImageFormat.PGM else load_matrix(path)
        if crop is not None:
            raw = _crop_or_pad(raw, crop)
        elif images and raw.shape != images[0].shape:
            raise HeterogeneousDims(
                f"{path}: shape {raw.shape} differs from {images[0].shape} "
                "and no crop size was given")
        images.append(raw - raw.mean())
        labels.append(path.name.split(".")[0])
    stack = np.stack(images)
    if stack.shape[1] != stack.shape[2]:
        raise HeterogeneousDims(
            f"images are {stack.shape[1]}x{stack.shape[2]}, need square "
            "(pass a crop size)")
    return TrainingSet(images=stack, labels=tuple(labels))


def _checked_signal(x, name):
    """``x`` as a contiguous float64 array, checked to be a nonempty, finite,
    real 1-D signal."""
    x = _as_real(x, 1, name).astype(np.float64, copy=False)
    if x.shape[0] == 0:
        raise DimensionMismatch(f"{name} must be a nonempty 1-D signal")
    # an infinity or NaN carries into the sum, so a finite sum means finite
    # samples; only a sum that overflowed needs the samplewise check
    if not (math.isfinite(np.add.reduce(x)) or np.isfinite(x).all()):
        raise DomainError(f"{name} contains non-finite values")
    return x


@dataclass(frozen=True)
class _LengthGroup:
    """The nonzero-energy entries of one length, scored together."""

    length: int
    ids: tuple
    energies: np.ndarray
    signals: tuple


@dataclass(frozen=True)
class FeatureDb:
    """Reference signals to correlate queries against.

    Entries are checked once, here: each must be a nonempty, finite, real
    1-D signal whose energy (sum of squares) is finite, and is stored as a
    read-only float64 copy. Matching scores the nonzero-energy entries of
    one length together; projected matching does so against a bank of their
    projections built on first use and kept per (pair matrices,
    configuration), and the copies keep the banks in step with the entries.
    """

    entries: tuple            # of (id, 1-D float array)
    _dead: tuple = field(init=False, repr=False, compare=False)
    _groups: tuple = field(init=False, repr=False, compare=False)
    _banks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entries:
            raise EmptyDb("feature database has no entries")
        entries = []
        for entry_id, sig in self.entries:
            sig = _checked_signal(sig, f"entry {entry_id!r}").copy()
            sig.setflags(write=False)
            entries.append((entry_id, sig))
        object.__setattr__(self, "entries", tuple(entries))
        energies = tuple(float(np.sum(sig * sig)) for _, sig in entries)
        for (entry_id, _), energy in zip(entries, energies):
            # a score divided by an infinite energy is 0 or NaN
            if math.isinf(energy):
                raise DomainError(f"entry {entry_id!r} has an energy beyond float64")
        object.__setattr__(self, "_dead", tuple(
            entry_id for (entry_id, _), energy in zip(entries, energies) if energy == 0.0))
        live = [(entry_id, sig, energy) for (entry_id, sig), energy
                in zip(entries, energies) if energy != 0.0]
        groups = []
        for length in dict.fromkeys(sig.shape[0] for _, sig, _ in live):
            members = [m for m in live if m[1].shape[0] == length]
            groups.append(_LengthGroup(
                length=length,
                ids=tuple(entry_id for entry_id, _, _ in members),
                energies=np.array([energy for _, _, energy in members]),
                signals=tuple(sig for _, sig, _ in members)))
        object.__setattr__(self, "_groups", tuple(groups))

    @classmethod
    def from_manifest(cls, path):
        rows = load_manifest(path)
        if not rows:
            raise EmptyDb(f"manifest {path} lists no entries")
        return cls(entries=tuple(
            (entry_id, load_signal(entry_path)) for entry_id, entry_path in rows))

    @classmethod
    def from_arrays(cls, pairs):
        return cls(entries=tuple((str(entry_id), sig) for entry_id, sig in pairs))

    def _bank(self, group, pair, cfg, counter=None):
        """:func:`project_kernel_bank` of a group's reversed entries.

        Built once per (group, pair matrices, configuration) and kept; the
        counter of the call that builds it is charged for the projections.
        """
        key = (group.length, pair.forward.tobytes(), pair.inverse.tobytes(), cfg)
        bank = self._banks.get(key)
        if bank is None:
            bank = self._banks[key] = project_kernel_bank(
                np.stack(group.signals)[:, ::-1], pair, cfg, counter=counter)
        return bank


def xcorr_match(query, db, mode=ConvMode(), counter=None):
    """Best-matching database entry for a query signal.

    Each entry is scored by the peak absolute cross-correlation against the
    query, normalized by the entry's energy so a query equal to the entry
    scores 1. Returns (entry id, score); ties go to the lowest id. Entries of
    zero energy are skipped with a :class:`ZeroEnergyEntry` warning; a query
    shorter than an entry is zero-padded to the entry's length. A score that
    is not finite (a correlation beyond float64) raises :class:`DomainError`.

    The entries of one length are scored together. The conventional mode
    correlates the query with each of them in turn and is the reference for
    the decisions. The projected mode takes all their peaks at once with
    :func:`conv_projected_peaks`, using the database's bank of entry
    projections; its scores are those of :meth:`ConvMode.correlate` up to
    rounding.
    """
    query = _checked_signal(query, "query")
    for entry_id in db._dead:
        warnings.warn(f"entry {entry_id!r} has zero energy, skipped",
                      ZeroEnergyEntry, stacklevel=2)
    if not db._groups:
        raise EmptyDb("every database entry was skipped as zero-energy")
    best_id = best = None
    for group in db._groups:
        padded = _pad_to(query, group.length)
        # correlations beyond float64 become infinities and NaNs, which the
        # check below turns into DomainError; numpy's overflow warnings on
        # the way would reach a caller who made warnings errors first
        with np.errstate(over="ignore", invalid="ignore"):
            if mode.is_projected:
                peaks = conv_projected_peaks(
                    padded, db._bank(group, mode.pair, mode.config, counter=counter),
                    counter=counter)
            else:
                peaks = np.array([np.abs(mode.correlate(padded, signal, counter=counter)).max()
                                  for signal in group.signals])
            scores = peaks / group.energies
        # argmax returns the first NaN, and an infinity is the maximum, so a
        # non-finite score anywhere in the group shows up here
        i = scores.argmax()
        top = scores[i]
        if not math.isfinite(top):
            raise DomainError(f"the correlation scores of the length-{group.length} "
                              f"entries are not finite")
        # the group's lowest id among its ties; argmax gives the first
        ties = scores == top
        entry_id = (min(group.ids[j] for j in np.flatnonzero(ties))
                    if np.count_nonzero(ties) > 1 else group.ids[i])
        if best_id is None or top > best or (top == best and entry_id < best_id):
            best_id, best = entry_id, top
    return best_id, float(best)


def _pad_to(query, length):
    if query.shape[0] >= length:
        return query
    return np.concatenate([query, np.zeros(length - query.shape[0])])
