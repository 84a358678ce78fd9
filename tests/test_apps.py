import numpy as np
import pytest
from numpy.testing import assert_allclose

from pkscale import synth
from pkscale.apps import (
    ConvMode,
    EigenBasis,
    FeatureDb,
    GemmMode,
    ImageFormat,
    TrainingSet,
    _checked_signal,
    ingest_images,
    pca_extract,
    pca_match,
    pca_train,
    xcorr_match,
)
from pkscale.config import PrecisionConfig, SampleMode
from pkscale.conv import ConvVariant, conv_direct, conv_projected_blocked
from pkscale.costs import MacCounter, mac_gemm_proj_general
from pkscale.errors import (
    DimensionMismatch,
    DomainError,
    EmptyDb,
    EmptyGallery,
    HeterogeneousDims,
    ParseError,
    ZeroEnergyEntry,
)
from pkscale.gemm import gemm_projected
from pkscale.io import save_matrix, save_pgm, save_signal
from pkscale.projection import make_custom_pair, make_dct_pair, make_haar_pair

EIG_TOL = 1e-9


def test_mode_needs_pair_and_config_together():
    pair = make_dct_pair(4)
    with pytest.raises(DomainError):
        GemmMode(pair=pair)
    with pytest.raises(DomainError):
        ConvMode(config=PrecisionConfig(4, 1))
    with pytest.raises(DomainError):
        GemmMode(pair=pair, config=PrecisionConfig(8, 1))


def test_mode_labels():
    pair = make_dct_pair(8)
    assert GemmMode().label() == "conventional"
    assert GemmMode(pair=pair, config=PrecisionConfig(8, 3)).label() == \
        "projected-L8-p3"
    hpair = make_haar_pair(2)
    cfg = PrecisionConfig(2, 1, SampleMode.HALF_INTERPOLATE)
    assert ConvMode(pair=hpair, config=cfg).label() == "projected-L2-p1-half"


def test_gemm_mode_conventional_multiply():
    mode = GemmMode()
    counter = MacCounter()
    out = mode.multiply(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]),
                        counter=counter)
    assert_allclose(out, [[11.0]])
    assert counter.count == 2
    with pytest.raises(DimensionMismatch):
        mode.multiply(np.ones((2, 3)), np.ones((4, 2)))


def test_gemm_mode_projected_multiply_matches_kernel():
    pair = make_dct_pair(4)
    cfg = PrecisionConfig(4, 2)
    mode = GemmMode(pair=pair, config=cfg)
    rng = np.random.default_rng(8)
    a = rng.uniform(-1, 1, (3, 8))
    b = rng.uniform(-1, 1, (8, 5))
    assert_allclose(mode.multiply(a, b), gemm_projected(a, b, pair, cfg))


def test_conv_mode_correlate_matches_kernels():
    rng = np.random.default_rng(9)
    s = synth.ar_signal(64, rng)
    k = synth.ar_signal(8, rng)
    assert_allclose(ConvMode().correlate(s, k),
                    conv_direct(s, k, ConvVariant.XCORR))
    pair = make_haar_pair(2)
    cfg = PrecisionConfig(2, 1, SampleMode.HALF_INTERPOLATE)
    mode = ConvMode(pair=pair, config=cfg)
    assert_allclose(mode.correlate(s, k),
                    conv_projected_blocked(s, k[::-1], pair, cfg))


def test_training_set_validation():
    with pytest.raises(DimensionMismatch):
        TrainingSet(images=np.zeros((2, 3, 4)), labels=("a", "b"))
    with pytest.raises(DimensionMismatch):
        TrainingSet(images=np.zeros((2, 4, 4)), labels=("a",))
    ts = TrainingSet(images=np.zeros((2, 4, 4)), labels=("a", "b"))
    assert ts.count == 2 and ts.dim == 4


def _toy_training(seed=1, count=6, n=16):
    rng = np.random.default_rng(seed)
    images = synth.gallery(count, n, n, rng)
    images = images - images.mean(axis=(1, 2), keepdims=True)
    return TrainingSet(images=images, labels=tuple(f"s{i}" for i in range(count)))


def test_pca_train_basis_properties():
    training = _toy_training()
    basis, features = pca_train(training, dims=4)
    assert isinstance(basis, EigenBasis)
    assert basis.dims == 4
    assert_allclose(basis.vectors.T @ basis.vectors, np.eye(4), atol=1e-8)
    assert np.all(np.diff(basis.eigenvalues) <= 1e-9)
    assert np.all(basis.eigenvalues >= 0.0)
    assert features.shape == (training.count, training.dim, 4)
    for i in range(training.count):
        assert_allclose(features[i], training.images[i] @ basis.vectors,
                        atol=1e-9)


def test_pca_basis_matches_lapack():
    training = _toy_training()
    basis, _ = pca_train(training, dims=4)
    scatter = sum(image @ image.T for image in training.images)
    scale = np.abs(scatter).max()
    assert_allclose(scatter @ basis.vectors,
                    basis.vectors @ np.diag(basis.eigenvalues), atol=1e-12 * scale)
    assert_allclose(basis.eigenvalues, np.linalg.eigvalsh(scatter)[::-1][:4],
                    rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("mode", [
    GemmMode(), GemmMode(make_dct_pair(8), PrecisionConfig(8, 1))],
    ids=["conventional", "dct-L8-p1"])
@pytest.mark.parametrize("spoil", [
    lambda images: np.where(np.arange(images.size).reshape(images.shape) == 7,
                            np.inf, images),
    lambda images: images * 1e200,      # A @ A.T overflows
], ids=["inf-pixel", "overflow"])
def test_pca_train_rejects_non_finite_scatter(mode, spoil):
    # the file loaders reject non-finite pixels, so only the API reaches this
    training = _toy_training()
    bad = TrainingSet(images=spoil(training.images), labels=training.labels)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DomainError, match="non-finite"):
        pca_train(bad, dims=3, mode=mode)


def _decisions(training, queries, mode, dims=4):
    basis, gallery = pca_train(training, dims=dims, mode=mode)
    return pca_match(pca_extract(queries, basis, mode=mode), gallery)


@pytest.mark.parametrize("mode", [
    GemmMode(), GemmMode(make_dct_pair(8), PrecisionConfig(8, 1))],
    ids=["conventional", "dct-L8-p1"])
@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_pca_decisions_survive_extreme_magnitudes(mode, scale):
    training = _toy_training(count=8)
    rng = np.random.default_rng(12)
    queries = synth.gallery(12, 16, 16, rng)
    want = _decisions(training, queries, mode)
    scaled = TrainingSet(images=training.images * scale, labels=training.labels)
    got = _decisions(scaled, queries * scale, mode)
    assert np.array_equal(got, want)


def test_pca_train_projected_full_matches_conventional():
    training = _toy_training()
    pair = make_dct_pair(4)
    mode = GemmMode(pair=pair, config=PrecisionConfig(4, 4))
    basis_c, feats_c = pca_train(training, dims=3)
    basis_p, feats_p = pca_train(training, dims=3, mode=mode)
    # eigenvector sign is arbitrary; compare feature distances instead
    q = training.images
    fc = pca_extract(q, basis_c)
    fp = pca_extract(q, basis_p, mode=mode)
    assert np.array_equal(pca_match(fc, feats_c), pca_match(fp, feats_p))


def test_pca_counts_one_basis_projection_per_stack():
    training = _toy_training(count=6, n=16)
    queries = synth.gallery(4, 16, 16, np.random.default_rng(13))
    for mode, per_product in (
            (GemmMode(), lambda m, k, w: m * k * w),
            (GemmMode(make_dct_pair(4), PrecisionConfig(4, 2)),
             lambda m, k, w: mac_gemm_proj_general(m, k, w, 1, 4))):
        counter = MacCounter()
        basis, _ = pca_train(training, dims=3, mode=mode, counter=counter)
        pca_extract(queries, basis, mode=mode, counter=counter)
        # the scatter takes one product per training image; each extraction
        # is one product of the stacked rows
        assert counter.count == (6 * per_product(16, 16, 16)
                                 + per_product(6 * 16, 16, 3)
                                 + per_product(4 * 16, 16, 3))


def test_pca_train_dims_validation():
    training = _toy_training()
    with pytest.raises(DomainError):
        pca_train(training, dims=0)
    with pytest.raises(DomainError):
        pca_train(training, dims=17)


def test_pca_extract_shape_check():
    training = _toy_training()
    basis, _ = pca_train(training, dims=2)
    with pytest.raises(DimensionMismatch):
        pca_extract(np.ones((16, 16)), basis)          # one image, not a stack
    with pytest.raises(DimensionMismatch):
        pca_extract(np.ones((3, 16, 12)), basis)
    assert pca_extract(np.ones((3, 16, 16)), basis).shape == (3, 16, 2)


def test_pca_match_nearest_and_ties():
    gallery = np.stack([np.zeros((2, 2)), np.ones((2, 2)), np.ones((2, 2))])
    queries = np.stack([np.full((2, 2), 0.9), np.full((2, 2), 0.1)])
    assert pca_match(queries, gallery).tolist() == [1, 0]   # tie -> lowest index
    with pytest.raises(EmptyGallery):
        pca_match(np.zeros((1, 2, 2)), np.zeros((0, 2, 2)))
    with pytest.raises(DimensionMismatch):
        pca_match(np.zeros((1, 2, 2)), np.zeros((1, 3, 3)))
    with pytest.raises(DimensionMismatch):
        pca_match(np.zeros((2, 2)), gallery)             # one query, not a stack


def test_pca_match_equals_per_pair_reference():
    rng = np.random.default_rng(14)
    gallery = rng.standard_normal((9, 6, 3))
    queries = np.concatenate([rng.standard_normal((20, 6, 3)),
                              gallery[[4, 0]] + 1e-3])
    want = []
    for query in queries:
        dists = [np.linalg.norm(query - entry) for entry in gallery]
        want.append(min(range(len(gallery)), key=lambda j: (dists[j], j)))
    assert pca_match(queries, gallery).tolist() == want


def test_pca_match_duplicate_entries_pick_lowest_index():
    # each query's nearest entry appears twice; the expansion
    # |f|^2 + |g|^2 - 2 f.g rounds the two copies apart at some gallery
    # positions, the difference form never does
    rng = np.random.default_rng(15)
    entries = rng.standard_normal((9, 8, 4))
    gallery = np.concatenate([entries, entries[::-1]])
    for _ in range(10):
        queries = entries + 1e-3 * rng.standard_normal(entries.shape)
        assert pca_match(queries, gallery).tolist() == list(range(9))


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def test_pca_decisions_ignore_rotation_within_degenerate_eigenvalues():
    # images Q diag(s) R_i have scatter count * Q diag(s^2) Q^T; s repeats
    # one value inside the kept dims, so the basis is fixed only up to a
    # rotation of that pair, which leaves every feature distance unchanged
    rng = np.random.default_rng(16)
    n, dims = 16, 6
    s = np.array([9.0, 7.0, 5.0, 5.0, 4.0, 3.0] + [1.0 / (j + 2) for j in range(n - dims)])
    q = _orthogonal(rng, n)
    images = np.stack([q * s @ _orthogonal(rng, n) for _ in range(10)])
    training = TrainingSet(images=images, labels=tuple(range(10)))
    queries = np.stack([q * s @ _orthogonal(rng, n) for _ in range(40)])
    exact = GemmMode(make_dct_pair(8), PrecisionConfig(8, 8))
    conventional = _decisions(training, queries, GemmMode(), dims=dims)
    assert np.array_equal(_decisions(training, queries, exact, dims=dims),
                          conventional)
    basis, gallery = pca_train(training, dims=dims)
    assert_allclose(basis.eigenvalues[2], basis.eigenvalues[3], rtol=1e-12)
    c, t = np.cos(0.7), np.sin(0.7)
    turn = np.eye(dims)
    turn[2:4, 2:4] = [[c, -t], [t, c]]
    rotated = EigenBasis(vectors=basis.vectors @ turn, eigenvalues=basis.eigenvalues)
    assert np.array_equal(
        pca_match(pca_extract(queries, rotated), pca_extract(images, rotated)),
        conventional)


def test_ingest_images_pgm(tmp_path):
    rng = np.random.default_rng(4)
    for name in ("s01.a.pgm", "s02.a.pgm"):
        save_pgm(tmp_path / name, rng.uniform(0, 1, (8, 8)))
    training = ingest_images(str(tmp_path / "*.pgm"))
    assert training.labels == ("s01", "s02")
    assert training.images.shape == (2, 8, 8)
    assert_allclose(training.images.mean(axis=(1, 2)), 0.0, atol=1e-12)


def test_ingest_images_pkm_with_crop(tmp_path):
    save_matrix(tmp_path / "a.pkm", np.arange(24.0).reshape(4, 6))
    save_matrix(tmp_path / "b.pkm", np.ones((10, 10)))
    training = ingest_images(str(tmp_path / "*.pkm"), crop=4,
                             fmt=ImageFormat.PKM)
    assert training.images.shape == (2, 4, 4)
    # the first image keeps its center 4x4 window (columns 1..4), zero-mean
    raw = np.arange(24.0).reshape(4, 6)[:, 1:5]
    assert_allclose(training.images[0], raw - raw.mean(), atol=1e-12)


def test_ingest_images_rejects_mixed_sizes(tmp_path):
    save_pgm(tmp_path / "a.pgm", np.zeros((8, 8)) + 0.5)
    save_pgm(tmp_path / "b.pgm", np.zeros((9, 9)) + 0.5)
    with pytest.raises(HeterogeneousDims):
        ingest_images(str(tmp_path / "*.pgm"))


def test_ingest_images_rejects_non_square_without_crop(tmp_path):
    save_pgm(tmp_path / "a.pgm", np.zeros((4, 6)) + 0.5)
    with pytest.raises(HeterogeneousDims):
        ingest_images(str(tmp_path / "*.pgm"))


def test_ingest_images_no_match(tmp_path):
    with pytest.raises(ParseError):
        ingest_images(str(tmp_path / "nothing-*.pgm"))


def test_feature_db_construction(tmp_path):
    with pytest.raises(EmptyDb):
        FeatureDb(entries=())
    db = FeatureDb.from_arrays([("b", [1.0, 2.0]), ("a", [3.0])])
    assert db.entries[0][0] == "b"
    save_signal(tmp_path / "x.pks", np.arange(4.0))
    (tmp_path / "m.tsv").write_text("x\tx.pks\n")
    loaded = FeatureDb.from_manifest(tmp_path / "m.tsv")
    assert loaded.entries[0][0] == "x"
    assert_allclose(loaded.entries[0][1], np.arange(4.0))
    (tmp_path / "empty.tsv").write_text("# nothing\n")
    with pytest.raises(EmptyDb):
        FeatureDb.from_manifest(tmp_path / "empty.tsv")


def test_xcorr_match_recovers_embedded_entry():
    # unit-energy entries make the energy-normalized score a true cosine
    # similarity, so the embedded entry provably wins
    rng = np.random.default_rng(14)
    entries = []
    for i in range(5):
        sig = synth.ar_signal(64, rng)
        entries.append((f"e{i}", sig / np.linalg.norm(sig)))
    db = FeatureDb.from_arrays(entries)
    query = np.zeros(256)
    query[100:164] = db.entries[3][1]
    matched, score = xcorr_match(query, db)
    assert matched == "e3"
    assert score == pytest.approx(1.0, abs=1e-9)


def test_xcorr_match_pads_short_queries():
    db = FeatureDb.from_arrays([("long", np.ones(16))])
    matched, _ = xcorr_match(np.ones(4), db)
    assert matched == "long"


def test_xcorr_match_skips_zero_energy_entries():
    db = FeatureDb.from_arrays([("dead", np.zeros(8)), ("live", np.ones(8))])
    with pytest.warns(ZeroEnergyEntry, match="dead"):
        matched, _ = xcorr_match(np.ones(8), db)
    assert matched == "live"
    all_dead = FeatureDb.from_arrays([("d1", np.zeros(4)), ("d2", np.zeros(4))])
    with pytest.warns(ZeroEnergyEntry):
        with pytest.raises(EmptyDb):
            xcorr_match(np.ones(4), all_dead)


def test_xcorr_match_tie_goes_to_lowest_id():
    sig = np.ones(8)
    db = FeatureDb.from_arrays([("zz", sig), ("aa", sig.copy())])
    matched, _ = xcorr_match(sig, db)
    assert matched == "aa"


def test_xcorr_match_rejects_matrix_query():
    db = FeatureDb.from_arrays([("a", np.ones(4))])
    with pytest.raises(DimensionMismatch):
        xcorr_match(np.ones((2, 2)), db)


HALF = SampleMode.HALF_INTERPOLATE


def _projected_mode(pair, used=1, sample_mode=HALF):
    return ConvMode(pair=pair, config=PrecisionConfig(pair.size, used,
                                                      sample_mode=sample_mode))


def _per_pair_match(query, db, mode):
    """Reference: one ConvMode.correlate call per entry, the loop
    xcorr_match's conventional mode runs."""
    best_id, best_score = None, -np.inf
    for entry_id, signal in db.entries:
        energy = float(np.sum(signal * signal))
        if energy == 0.0:
            continue
        padded = np.concatenate(
            [query, np.zeros(max(0, signal.shape[0] - query.shape[0]))])
        score = float(np.max(np.abs(mode.correlate(padded, signal)))) / energy
        if score > best_score or (score == best_score and entry_id < best_id):
            best_id, best_score = entry_id, score
    return best_id, best_score


def test_conventional_xcorr_match_equals_per_pair_reference():
    # the energies FeatureDb computes once give the scores the per-query
    # energy sums gave, bit for bit
    rng = np.random.default_rng(40)
    db = FeatureDb.from_arrays(
        [("dead", np.zeros(12))] +
        [(f"e{i}", synth.ar_signal(12 if i % 2 else 20, rng)) for i in range(6)])
    for qlen in (5, 12, 20, 33):
        query = synth.ar_signal(qlen, rng)
        with pytest.warns(ZeroEnergyEntry):
            assert xcorr_match(query, db) == _per_pair_match(query, db, ConvMode())


@pytest.mark.parametrize("size", [2, 4, 8])
@pytest.mark.parametrize("family,make", [("dct", make_dct_pair),
                                         ("haar", make_haar_pair)])
def test_projected_xcorr_match_equals_per_pair_reference(family, make, size):
    rng = np.random.default_rng(size)
    pair = make(size)
    # two entry lengths, interleaved in the database
    db = FeatureDb.from_arrays(
        (f"e{i}", synth.ar_signal(4 * size if i % 2 else 6 * size, rng))
        for i in range(7))
    for used in sorted({1, size // 2, size}):
        for sample_mode in SampleMode:
            mode = _projected_mode(pair, used, sample_mode)
            for qlen in (3 * size + 1, 4 * size, 6 * size, 9 * size + 3):
                query = synth.ar_signal(qlen, rng)
                want_id, want_score = _per_pair_match(query, db, mode)
                got_id, got_score = xcorr_match(query, db, mode)
                assert got_id == want_id
                assert got_score == pytest.approx(want_score, rel=1e-12, abs=0)


def test_projected_xcorr_match_tie_goes_to_lowest_id():
    sig = np.ones(8)
    db = FeatureDb.from_arrays([("zz", sig), ("mm", -sig), ("aa", sig.copy())])
    matched, _ = xcorr_match(sig, db, _projected_mode(make_haar_pair(2)))
    assert matched == "aa"


def test_projected_xcorr_match_tie_across_length_groups_goes_to_lowest_id():
    # unit impulses of lengths 8 and 6 take the same floating-point operations
    # at Haar L2 p1, so their scores tie exactly; each length is its own
    # group, scored by its own product
    mode = _projected_mode(make_haar_pair(2))
    query = np.ones(8)
    long_, short = np.eye(1, 8)[0], np.eye(1, 6)[0]
    scores = [xcorr_match(query, FeatureDb.from_arrays([("x", sig)]), mode)[1]
              for sig in (long_, short)]
    assert scores[0] == scores[1]
    # the lowest id in the later group, then in the earlier one
    for entries in ([("b", long_), ("a", short)], [("a", long_), ("b", short)]):
        assert xcorr_match(query, FeatureDb.from_arrays(entries), mode) == ("a", scores[0])


def test_projected_xcorr_match_skips_zero_energy_entries():
    mode = _projected_mode(make_haar_pair(2))
    db = FeatureDb.from_arrays([("dead", np.zeros(8)), ("live", np.ones(8))])
    for _ in range(2):    # the second call reuses the database's bank
        with pytest.warns(ZeroEnergyEntry, match="dead"):
            matched, _ = xcorr_match(np.ones(8), db, mode)
        assert matched == "live"
    all_dead = FeatureDb.from_arrays([("d1", np.zeros(4)), ("d2", np.zeros(4))])
    with pytest.warns(ZeroEnergyEntry):
        with pytest.raises(EmptyDb):
            xcorr_match(np.ones(4), all_dead, mode)


def test_projected_xcorr_match_rejects_matrix_query():
    db = FeatureDb.from_arrays([("a", np.ones(4))])
    with pytest.raises(DimensionMismatch):
        xcorr_match(np.ones((2, 2)), db, _projected_mode(make_haar_pair(2)))


@pytest.mark.parametrize("mode", [
    ConvMode(),
    _projected_mode(make_haar_pair(2)),
    _projected_mode(make_dct_pair(4), 2, SampleMode.ALL_PHASES),
], ids=lambda mode: mode.label())
@pytest.mark.filterwarnings("error")
def test_xcorr_match_refuses_correlations_beyond_float64(mode):
    # finite entries and query whose products overflow: the correlations hold
    # infinities of both signs and NaNs, so no score can be trusted; the
    # error comes before any overflow warning numpy would raise on the way
    rng = np.random.default_rng(3)
    db = FeatureDb.from_arrays([("a", rng.standard_normal(16) * 1e10),
                                ("b", rng.standard_normal(16) * 1e10)])
    query = rng.standard_normal(64) * 1e300
    with pytest.raises(DomainError, match="not finite"):
        xcorr_match(query, db, mode)


def test_projected_xcorr_match_accepts_any_entry_length():
    rng = np.random.default_rng(12)
    db = FeatureDb.from_arrays([("a", synth.ar_signal(8, rng)),
                                ("odd", synth.ar_signal(7, rng))])
    query = synth.ar_signal(16, rng)
    for sample_mode in SampleMode:
        for used in (1, 2):
            mode = _projected_mode(make_haar_pair(2), used, sample_mode)
            want_id, want_score = _per_pair_match(query, db, mode)
            got_id, got_score = xcorr_match(query, db, mode)
            assert got_id == want_id
            assert got_score == pytest.approx(want_score, rel=1e-12, abs=0)
    # every projection kept scores exactly as the conventional pipeline
    full = _projected_mode(make_haar_pair(2), 2, SampleMode.ALL_PHASES)
    assert xcorr_match(query, db, full)[1] == pytest.approx(
        xcorr_match(query, db)[1], rel=1e-12, abs=0)


def test_projected_xcorr_match_counts_bank_once():
    pair = make_haar_pair(2)
    used, size = 2, 2
    entries = [("a", np.arange(1.0, 9.0)), ("b", np.ones(8)),
               ("c", np.arange(4.0)), ("z", np.zeros(6))]
    qlen = 11

    def per_query(phases):
        # conv_projected_blocked's charges less the kernel pass: the signal
        # pass once per length group, then each entry's compact product
        # (G = 6 compact query samples, Q = 5 or 3 compact entry samples)
        # per computed phase
        return 2 * used * qlen + phases * used * 6 * (2 * 5 + 1 * 3)

    # each entry's kernel pass, once per phase bank
    bank = used * (8 + 8 + 4)
    for sample_mode, phases in ((SampleMode.ALL_PHASES, size), (HALF, 1)):
        mode = _projected_mode(pair, used, sample_mode)
        db = FeatureDb.from_arrays(entries)
        counter = MacCounter()
        with pytest.warns(ZeroEnergyEntry):
            xcorr_match(np.ones(qlen), db, mode, counter=counter)
        assert counter.count == phases * bank + per_query(phases)
        counter = MacCounter()
        with pytest.warns(ZeroEnergyEntry):
            xcorr_match(np.ones(qlen), db, mode, counter=counter)
        assert counter.count == per_query(phases)


@pytest.mark.parametrize("size", [2, 4, 8])
def test_projected_banks_are_kept_per_pair_matrices(size):
    # a custom pair of Haar's forward matrix has a numerically solved inverse
    # that differs from Haar's transpose in the last bits, so it needs a bank
    # of its own
    haar = make_haar_pair(size)
    custom = make_custom_pair(haar.forward)
    assert np.array_equal(custom.forward, haar.forward)
    assert not np.array_equal(custom.inverse, haar.inverse)
    rng = np.random.default_rng(size)
    entries = [(f"e{i}", synth.ar_signal(4 * size, rng)) for i in range(5)]
    query = synth.ar_signal(16 * size, rng)
    db = FeatureDb.from_arrays(entries)
    xcorr_match(query, db, _projected_mode(haar))
    mode = _projected_mode(custom)
    assert xcorr_match(query, db, mode) == xcorr_match(query, FeatureDb.from_arrays(entries),
                                                       mode)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_signal_check_accepts_finite_samples_whose_sum_overflows():
    # the check reads the sum first and goes to the samples only when the
    # sum is not finite
    big = np.full(4, 1e308)
    assert np.array_equal(_checked_signal(big, "query"), big)
    with pytest.raises(DomainError, match="non-finite"):
        _checked_signal(np.array([1e308, 1e308, np.inf]), "query")


@pytest.mark.parametrize("bad,error", [
    (np.ones(4) + 1j, DomainError),
    (np.ones((2, 4)), DimensionMismatch),
    (np.ones(0), DimensionMismatch),
    (np.array([1.0, np.nan, 2.0]), DomainError),
    (np.array([1.0, np.inf]), DomainError),
    # finite samples whose energy overflows: every score against them would
    # be 0 or NaN
    (np.full(4, 1e200), DomainError),
], ids=["complex", "2-d", "empty", "nan", "inf", "energy-overflow"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_feature_db_rejects_bad_entries(bad, error):
    with pytest.raises(error, match="entry 'bad'"):
        FeatureDb.from_arrays([("ok", np.ones(4)), ("bad", bad)])
    with pytest.raises(error):
        FeatureDb(entries=(("bad", bad),))


def test_feature_db_keeps_read_only_copies():
    source = np.ones(8)
    db = FeatureDb.from_arrays([("a", source)])
    source[0] = 5.0
    assert db.entries[0][1][0] == 1.0
    with pytest.raises(ValueError):
        db.entries[0][1][0] = 5.0


def test_xcorr_match_rejects_complex_query():
    db = FeatureDb.from_arrays([("a", np.ones(4))])
    for mode in (ConvMode(), _projected_mode(make_haar_pair(2))):
        with pytest.raises(DomainError, match="complex"):
            xcorr_match(np.ones(4) + 1j, db, mode)
