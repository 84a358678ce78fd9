"""Command-line benchmarks, cost-model sweeps, and demo pipelines.

The CSV written by the benchmark subcommands uses one fixed schema::

    kernel,config,snr_db,mse,msamples_per_sec,macs_model,macs_measured

and the cost-model sweep uses::

    domain,N,L,l,ratio_percent

Lines starting with '#' are comments (run settings, the ``# env`` line
naming numpy, its BLAS, the thread settings and the core count, padding
notes, timing details). With the same seed and flags every non-timing
column is reproducible bit for bit.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .apps import (
    ConvMode,
    GemmMode,
    TrainingSet,
    FeatureDb,
    pca_extract,
    pca_match,
    pca_train,
    ingest_images,
    ImageFormat,
    xcorr_match,
)
from .config import PrecisionConfig, SampleMode
from .conv import _blocked_plan, conv_direct, conv_fft, conv_projected_blocked
from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    EmptyDb,
    EmptyGallery,
    HeterogeneousDims,
    ParseError,
    SingularMatrix,
    ZeroReference,
)
from .gemm import gemm_conventional, gemm_projected
from .projection import make_dct_pair, make_haar_pair

# synth, costs and metrics are imported in the functions that use them, so
# that importing this module does not execute them

METRIC_HEADER = "kernel,config,snr_db,mse,msamples_per_sec,macs_model,macs_measured"
COST_HEADER = "domain,N,L,l,ratio_percent"
DEMO_HEADER = "mode,L,projections,match_rate,agreement_rate,elapsed_seconds,macs_counted"

_DATA_ERRORS = (
    ParseError,
    EmptyDb,
    EmptyGallery,
    HeterogeneousDims,
    ZeroReference,
    SingularMatrix,
    DimensionMismatch,
    DomainError,
    OSError,
)


def _emit(lines, out):
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cast(array, precision):
    if precision == "single":
        return np.asarray(array, dtype=np.float32)
    return np.asarray(array, dtype=np.float64)


def _build_pair(family, size):
    try:
        if family == "dct":
            return make_dct_pair(size)
        if family == "haar":
            return make_haar_pair(size)
    except (DomainError, SingularMatrix) as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown projection family {family!r}")


def _check_positive(value, name):
    if value < 1:
        raise ConfigError(f"{name} must be positive, got {value}")


def _check_proj(proj, size):
    if not 1 <= proj <= size:
        raise ConfigError(f"--proj {proj} outside [1, {size}]")


def _env_comment():
    """One comment line naming what the timings ran on: numpy and the BLAS it
    was built against, the BLAS/OpenMP thread settings, and the core count.
    The BLAS reads ``unknown`` where numpy's build configuration does not
    record it (numpy before 1.25 has no ``show_config(mode="dicts")``)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    threads = " ".join(f"{name}={os.environ.get(name, 'unset')}" for name in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return (f"# env numpy={np.__version__} blas={blas.get('name') or 'unknown'} "
            f"blas_version={blas.get('version') or 'unknown'} {threads} "
            f"cpu_count={os.cpu_count()}")


def _metric_row(kernel, config, rep, thr, macs_model, macs_measured):
    return (f"{kernel},{config},{rep.snr_db:.4f},{rep.mse:.6e},"
            f"{thr.msamples_per_sec:.4f},{macs_model},{macs_measured}")


def _timing_comment(kernel, config, thr, domain=None):
    ran = "" if domain is None else f" domain={domain.value}"
    return (f"# timing {kernel} {config}:{ran} median_s={thr.median_seconds:.6e} "
            f"mean_s={thr.mean_seconds:.6e} reps={thr.repetitions}")


def cmd_bench_gemm(args):
    from . import synth
    from .costs import MacCounter, mac_gemm_plain_general, mac_gemm_proj_general
    from .metrics import measure_throughput, snr

    _check_positive(args.n, "--n")
    _check_positive(args.inner, "--inner")
    _check_positive(args.reps, "--reps")
    pair = _build_pair(args.family, args.L)
    rng = np.random.default_rng(args.seed)
    a = _cast(synth.ar_image(args.n, args.inner, rng), args.precision)
    b = _cast(synth.ar_image(args.inner, args.n, rng), args.precision)
    reference = a.astype(np.float64) @ b.astype(np.float64)
    padded = -(-args.inner // args.L) * args.L

    lines = [f"# bench-gemm N={args.n} inner={args.inner} L={args.L} "
             f"family={args.family} precision={args.precision} seed={args.seed}",
             _env_comment(), METRIC_HEADER]
    if padded != args.inner:
        lines.append(f"# inner dimension zero-padded {args.inner} -> {padded} "
                     f"to a multiple of L={args.L}")
    timing = []
    for used in range(1, args.L + 1):
        cfg = PrecisionConfig(args.L, used)
        counter = MacCounter()
        approx = gemm_projected(a, b, pair, cfg, counter=counter)
        rep = snr(reference, approx)
        thr = measure_throughput(lambda: gemm_projected(a, b, pair, cfg),
                                 repetitions=args.reps)
        model = mac_gemm_proj_general(args.n, padded, args.n, used - 1, args.L)
        config = f"N{args.n}.K{args.inner}.L{args.L}.p{used}"
        lines.append(_metric_row("gemm-projected", config, rep, thr,
                                 model, counter.count))
        timing.append(_timing_comment("gemm-projected", config, thr))

    # exact baselines: the in-repo blocked kernel, and bare BLAS `a @ b`
    model = mac_gemm_plain_general(args.n, args.inner, args.n)
    config = f"N{args.n}.K{args.inner}"
    baselines = (
        ("gemm-conventional",
         lambda counter=None: gemm_conventional(a, b, args.n, counter=counter)),
        ("gemm-blas", lambda counter=None: GemmMode().multiply(a, b, counter=counter)),
    )
    for kernel, run in baselines:
        counter = MacCounter()
        rep = snr(reference, run(counter))
        thr = measure_throughput(run, repetitions=args.reps)
        lines.append(_metric_row(kernel, config, rep, thr, model, counter.count))
        timing.append(_timing_comment(kernel, config, thr))
    _emit(lines + timing, args.out)
    return 0


def cmd_bench_conv(args):
    from . import synth
    from .costs import (MacCounter, mac_conv_plain_freq, mac_conv_plain_general,
                        mac_conv_proj_general)
    from .metrics import measure_throughput, snr

    _check_positive(args.w, "--w")
    _check_positive(args.n, "--n")
    _check_positive(args.reps, "--reps")
    if args.n > args.w:
        raise ConfigError(f"kernel length {args.n} exceeds signal length {args.w}")
    pair = _build_pair(args.family, args.L)
    _check_proj(args.proj, args.L)
    rng = np.random.default_rng(args.seed)
    s = _cast(synth.ar_signal(args.w, rng), args.precision)
    k = _cast(synth.ar_signal(args.n, rng), args.precision)
    reference = np.convolve(s.astype(np.float64), k.astype(np.float64))

    lines = [f"# bench-conv W={args.w} N={args.n} L={args.L} "
             f"family={args.family} precision={args.precision} seed={args.seed}",
             _env_comment(), METRIC_HEADER]
    timing = []
    geometry = f"W{args.w}.N{args.n}"

    for mode, tag in ((SampleMode.HALF_INTERPOLATE, "half"),
                      (SampleMode.ALL_PHASES, "all")):
        cfg = PrecisionConfig(args.L, args.proj, sample_mode=mode)
        counter = MacCounter()
        approx = conv_projected_blocked(s, k, pair, cfg, counter=counter)
        rep = snr(reference, approx)
        thr = measure_throughput(lambda: conv_projected_blocked(s, k, pair, cfg),
                                 repetitions=args.reps)
        model = mac_conv_proj_general(args.w, args.n, args.L, args.proj, len(cfg.phases()))
        config = f"{geometry}.L{args.L}.p{args.proj}.{tag}"
        lines.append(_metric_row("conv-projected", config, rep, thr,
                                 model, counter.count))
        domain, _ = _blocked_plan(s, k, pair, cfg)
        timing.append(_timing_comment("conv-projected", config, thr, domain))

    counter = MacCounter()
    direct = conv_direct(s, k, counter=counter)
    rep = snr(reference, direct)
    thr = measure_throughput(lambda: conv_direct(s, k), repetitions=args.reps)
    lines.append(_metric_row("conv-time", geometry, rep, thr,
                             mac_conv_plain_general(args.w, args.n), counter.count))
    timing.append(_timing_comment("conv-time", geometry, thr))

    # imported here: scipy.signal is slow to import and only this row needs it
    from scipy.signal import oaconvolve

    for kernel, run in (("conv-fft", conv_fft), ("conv-oaconvolve", oaconvolve)):
        rep = snr(reference, run(s, k))
        thr = measure_throughput(lambda: run(s, k), repetitions=args.reps)
        lines.append(_metric_row(kernel, geometry, rep, thr,
                                 mac_conv_plain_freq(args.n), 0))
        timing.append(_timing_comment(kernel, geometry, thr))
    lines.append("# macs_measured=0 means the kernel is not instrumented "
                 "(library FFT)")
    _emit(lines + timing, args.out)
    return 0


def _parse_int_list(text, name):
    try:
        values = [int(v) for v in text.split(",") if v]
    except ValueError:
        raise ConfigError(f"{name} expects comma-separated integers, got {text!r}")
    if not values:
        raise ConfigError(f"{name} is empty")
    return values


def cmd_cost_model(args):
    from .costs import Domain, ratio_percent

    if args.l < 0:
        raise ConfigError(f"--l must be nonnegative, got {args.l}")
    n_values = _parse_int_list(args.n_list, "--n-list")
    for n in n_values:
        _check_positive(n, "--n-list values")
    sizes = _parse_int_list(args.l_list, "--l-list")
    for size in sizes:
        if size < 2:
            raise ConfigError(f"--l-list values must be at least 2, got {size}")
    domains = {
        "gemm": [Domain.GEMM],
        "conv-time": [Domain.CONV_TIME],
        "conv-freq": [Domain.CONV_FREQ],
        "default": [Domain.GEMM, Domain.CONV_FREQ],
        "all": [Domain.GEMM, Domain.CONV_TIME, Domain.CONV_FREQ],
    }[args.domain]
    lines = [f"# cost-model l={args.l} sizes={args.l_list} n={args.n_list}",
             COST_HEADER]
    skipped = 0
    for domain in domains:
        for n in n_values:
            for size in sizes:
                if args.l >= size:
                    raise ConfigError(
                        f"l={args.l} needs at least {args.l + 1} projections, "
                        f"but L={size}")
                if domain is Domain.GEMM and n % size:
                    skipped += 1
                    continue
                lines.append(f"{domain.value},{n},{size},{args.l},"
                             f"{ratio_percent(domain, n, size, l=args.l):.4f}")
    if skipped:
        lines.append(f"# skipped {skipped} gemm rows where L does not divide N")
    _emit(lines, args.out)
    return 0


def synth_faces(subjects, per_subject, size, rng, noise):
    """Subject gallery: a base image per subject plus per-shot variation."""
    from . import synth

    images = []
    labels = []
    for subject in range(subjects):
        base = synth.ar_image(size, size, rng)
        for _ in range(per_subject):
            shot = base + noise * synth.ar_image(size, size, rng)
            images.append(shot - shot.mean())
            labels.append(f"s{subject:03d}")
    return TrainingSet(images=np.stack(images), labels=tuple(labels))


def _split_by_label(training, per_label):
    """First ``per_label`` images of each label train; the rest test."""
    seen = {}
    train_idx = []
    test_idx = []
    for i, label in enumerate(training.labels):
        seen[label] = seen.get(label, 0) + 1
        (train_idx if seen[label] <= per_label else test_idx).append(i)
    if not train_idx or not test_idx:
        raise ConfigError(
            f"split with --train {per_label} leaves an empty train or test set")
    train = TrainingSet(images=training.images[train_idx],
                        labels=tuple(training.labels[i] for i in train_idx))
    return train, training.images[test_idx], [training.labels[i] for i in test_idx]


def _modes(args, mode_type, **config):
    """The conventional mode, then one projected mode per ``--L`` size."""
    modes = [mode_type()]
    for size in _parse_int_list(args.L, "--L"):
        _check_proj(args.proj, size)
        pair = _build_pair(args.family, size)
        modes.append(mode_type(pair=pair,
                               config=PrecisionConfig(size, args.proj, **config)))
    return modes


def _run_demo(name, lines, modes, decide, truth, out):
    """One CSV row per mode: ``decide(mode, counter)`` returns the decisions,
    timed, and they are scored against ``truth`` and against the first
    mode's decisions. A summary goes to stderr."""
    from .costs import MacCounter

    summary = []
    baseline = None
    for mode in modes:
        counter = MacCounter()
        start = time.perf_counter()
        predicted = decide(mode, counter)
        elapsed = time.perf_counter() - start
        match_rate = float(np.mean([p == t for p, t in zip(predicted, truth)]))
        if baseline is None:
            baseline = predicted
        agreement = float(np.mean([p == q for p, q in zip(predicted, baseline)]))
        size = mode.pair.size if mode.is_projected else 0
        used = mode.config.projections_used if mode.is_projected else 0
        lines.append(f"{mode.label()},{size},{used},{match_rate:.4f},{agreement:.4f},"
                     f"{elapsed:.4f},{counter.count}")
        summary.append(f"{mode.label()} match={match_rate:.3f} "
                       f"agreement={agreement:.3f}")
    print(f"{name}: " + "; ".join(summary), file=sys.stderr)
    _emit(lines, out)
    return 0


def cmd_pca_demo(args):
    _check_positive(args.dims, "--dims")
    if args.images:
        if args.crop is not None:
            _check_positive(args.crop, "--crop")
        corpus = ingest_images(args.images, crop=args.crop,
                               fmt=ImageFormat(args.format))
    elif args.synthetic:
        _check_positive(args.subjects, "--subjects")
        _check_positive(args.size, "--size")
        if not math.isfinite(args.noise):
            raise ConfigError(f"--noise must be finite, got {args.noise}")
        if args.per_subject <= args.train:
            raise ConfigError(
                f"--per-subject {args.per_subject} must exceed --train {args.train}")
        rng = np.random.default_rng(args.seed)
        corpus = synth_faces(args.subjects, args.per_subject, args.size, rng,
                             args.noise)
    else:
        raise ConfigError("pass --synthetic or --images PATTERN")
    if args.dims > corpus.dim:
        raise ConfigError(f"--dims {args.dims} exceeds the image size {corpus.dim}")
    corpus = TrainingSet(images=_cast(corpus.images, args.precision),
                         labels=corpus.labels)
    train, test_images, test_labels = _split_by_label(corpus, args.train)

    lines = [f"# pca-demo subjects={args.subjects} per-subject={args.per_subject} "
             f"train={args.train} size={args.size} dims={args.dims} "
             f"noise={args.noise} precision={args.precision} seed={args.seed}",
             _env_comment(), DEMO_HEADER]

    def decide(mode, counter):
        basis, gallery = pca_train(train, dims=args.dims, mode=mode,
                                   counter=counter)
        features = pca_extract(test_images, basis, mode=mode, counter=counter)
        return [train.labels[j] for j in pca_match(features, gallery)]

    return _run_demo("pca-demo", lines, _modes(args, GemmMode), decide,
                     test_labels, args.out)


def synth_feature_db(entries, entry_len, rng):
    from . import synth

    return FeatureDb.from_arrays(
        (f"e{i:03d}", synth.ar_signal(entry_len, rng)) for i in range(entries))


def synth_queries(db, count, query_len, rng, noise_snr_db):
    """Queries embedding a random entry at a random delay in noise."""
    from . import synth

    queries = []
    for _ in range(count):
        pick = int(rng.integers(len(db.entries)))
        entry_id, signal = db.entries[pick]
        delay = int(rng.integers(query_len - signal.shape[0] + 1))
        clean = np.zeros(query_len)
        clean[delay:delay + signal.shape[0]] = signal
        queries.append((entry_id, synth.noisy_copy(clean, rng, noise_snr_db)))
    return queries


def cmd_match_demo(args):
    if not math.isfinite(args.noise_snr_db):
        raise ConfigError(f"--noise-snr-db must be finite, got {args.noise_snr_db}")
    if args.manifest:
        db = FeatureDb.from_manifest(args.manifest)
        rng = np.random.default_rng(args.seed)
    elif args.synthetic:
        _check_positive(args.entries, "--entries")
        _check_positive(args.queries, "--queries")
        _check_positive(args.entry_len, "--entry-len")
        rng = np.random.default_rng(args.seed)
        db = synth_feature_db(args.entries, args.entry_len, rng)
    else:
        raise ConfigError("pass --synthetic or --manifest PATH")
    entry_max = max(sig.shape[0] for _, sig in db.entries)
    if args.query_len < entry_max:
        raise ConfigError(
            f"--query-len {args.query_len} is shorter than the longest "
            f"entry ({entry_max})")
    queries = synth_queries(db, args.queries, args.query_len, rng,
                            args.noise_snr_db)
    queries = [(true_id, _cast(q, args.precision)) for true_id, q in queries]

    lines = [f"# match-demo entries={len(db.entries)} entry-len={args.entry_len} "
             f"queries={args.queries} query-len={args.query_len} "
             f"noise-snr-db={args.noise_snr_db} precision={args.precision} "
             f"seed={args.seed}",
             _env_comment(), DEMO_HEADER]

    def decide(mode, counter):
        return [xcorr_match(query, db, mode=mode, counter=counter)[0]
                for _, query in queries]

    modes = _modes(args, ConvMode, sample_mode=SampleMode(args.sample))
    return _run_demo("match-demo", lines, modes, decide,
                     [true_id for true_id, _ in queries], args.out)


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", choices=["single", "double"],
                        default="double", help="input/kernel precision")
    common.add_argument("--seed", type=int, default=1)
    common.add_argument("--out", type=Path, default=None,
                        help="CSV output path (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="pkscale",
        description="Precision-scalable projection kernels: benchmarks and demos")
    sub = parser.add_subparsers(dest="command", required=True)
    # only the bench commands repeat their timings; the demos time one run
    timed = argparse.ArgumentParser(add_help=False, parents=[common])
    timed.add_argument("--reps", type=int, default=100,
                       help="timing repetitions (median reported)")

    p = sub.add_parser("bench-gemm", parents=[timed],
                       help="SNR/throughput sweep over projections for one "
                            "matrix-product geometry")
    p.add_argument("--n", type=int, default=144, help="outer dimension")
    p.add_argument("--inner", type=int, default=40, help="inner dimension")
    p.add_argument("--L", type=int, default=8, help="projection size")
    p.add_argument("--family", choices=["dct", "haar"], default="dct")
    p.set_defaults(func=cmd_bench_gemm)

    p = sub.add_parser("bench-conv", parents=[timed],
                       help="projected vs direct vs FFT convolution benchmark")
    p.add_argument("--w", type=int, default=20000, help="signal length")
    p.add_argument("--n", type=int, default=600, help="kernel length")
    p.add_argument("--L", type=int, default=2, help="projection size")
    p.add_argument("--proj", type=int, default=1, help="projections used")
    p.add_argument("--family", choices=["dct", "haar"], default="haar")
    p.set_defaults(func=cmd_bench_conv)

    p = sub.add_parser("cost-model", parents=[common],
                       help="analytic projected/plain MAC ratio sweep")
    p.add_argument("--domain",
                   choices=["gemm", "conv-time", "conv-freq", "default", "all"],
                   default="default")
    p.add_argument("--n-list", default=",".join(str(16 * i) for i in range(1, 17)),
                   help="comma-separated N sweep")
    p.add_argument("--l-list", default="2,4,8,16",
                   help="comma-separated projection sizes")
    p.add_argument("--l", type=int, default=0, help="projection index")
    p.set_defaults(func=cmd_cost_model)

    p = sub.add_parser("pca-demo", parents=[common],
                       help="2D-PCA recognition demo, conventional vs projected")
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--images", default=None, help="glob pattern of image files")
    p.add_argument("--format", choices=["pgm", "pkm"], default="pgm")
    p.add_argument("--crop", type=int, default=None)
    p.add_argument("--subjects", type=int, default=10)
    p.add_argument("--per-subject", type=int, default=8)
    p.add_argument("--train", type=int, default=5,
                   help="training images per subject")
    p.add_argument("--size", type=int, default=32, help="synthetic image side")
    p.add_argument("--noise", type=float, default=0.5,
                   help="synthetic within-subject variation level")
    p.add_argument("--dims", type=int, default=10, help="feature columns")
    p.add_argument("--L", default="8", help="comma-separated projection sizes")
    p.add_argument("--proj", type=int, default=1)
    p.add_argument("--family", choices=["dct", "haar"], default="dct")
    p.set_defaults(func=cmd_pca_demo)

    p = sub.add_parser("match-demo", parents=[common],
                       help="cross-correlation matching demo, conventional vs "
                            "projected")
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--manifest", default=None,
                   help="id<TAB>path manifest of entry signals")
    p.add_argument("--entries", type=int, default=20)
    p.add_argument("--entry-len", type=int, default=256)
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--query-len", type=int, default=2048)
    p.add_argument("--noise-snr-db", type=float, default=10.0)
    p.add_argument("--L", default="2", help="comma-separated projection sizes")
    p.add_argument("--proj", type=int, default=1)
    p.add_argument("--sample", choices=["half", "all"], default="half")
    p.add_argument("--family", choices=["dct", "haar"], default="haar")
    p.set_defaults(func=cmd_match_demo)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
