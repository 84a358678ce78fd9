import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pkscale import cli, synth
from pkscale.errors import DomainError
from pkscale.metrics import snr

SNR_MATCH_ABS = 1e-9


def test_signal_deterministic_and_bounded():
    a = synth.ar_signal(500, np.random.default_rng(7))
    b = synth.ar_signal(500, np.random.default_rng(7))
    assert_allclose(a, b, rtol=0, atol=0)
    assert np.abs(a).max() == pytest.approx(1.0)


def test_signal_is_low_frequency():
    # the smoothing filter should concentrate energy well below Nyquist
    s = synth.ar_signal(4096, np.random.default_rng(1))
    spectrum = np.abs(np.fft.rfft(s)) ** 2
    low = spectrum[: len(spectrum) // 8].sum()
    assert low / spectrum.sum() > 0.9


def test_image_deterministic_and_bounded():
    a = synth.ar_image(20, 30, np.random.default_rng(3))
    b = synth.ar_image(20, 30, np.random.default_rng(3))
    assert_allclose(a, b, rtol=0, atol=0)
    assert a.shape == (20, 30)
    assert np.abs(a).max() == pytest.approx(1.0)


def test_correlation_coefficient_bounds():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        synth.ar_signal(10, rng, rho=1.0)
    with pytest.raises(DomainError):
        synth.ar_signal(10, rng, rho=-0.1)
    with pytest.raises(DomainError):
        synth.ar_signal(0, rng)
    with pytest.raises(DomainError):
        synth.ar_image(0, 5, rng)


def test_matrix_pair_shapes():
    a, b = synth.ar_matrix_pair(3, 5, 7, np.random.default_rng(2))
    assert a.shape == (3, 5)
    assert b.shape == (5, 7)


def test_gallery_shape_and_validation():
    g = synth.gallery(4, 8, 8, np.random.default_rng(5))
    assert g.shape == (4, 8, 8)
    with pytest.raises(DomainError):
        synth.gallery(0, 8, 8, np.random.default_rng(5))


@pytest.mark.parametrize("target_db", [0.0, 10.0, 30.0])
def test_noisy_copy_hits_requested_snr(target_db):
    rng = np.random.default_rng(11)
    x = synth.ar_signal(2000, rng)
    noisy = synth.noisy_copy(x, rng, target_db)
    # the noise is rescaled against its own measured power, so the realized
    # ratio matches the request to rounding error, not just in expectation
    assert snr(x, noisy).snr_db == pytest.approx(target_db, abs=SNR_MATCH_ABS)


def test_noisy_copy_rejects_zero_signal():
    with pytest.raises(DomainError):
        synth.noisy_copy(np.zeros(8), np.random.default_rng(0), 10.0)


def _rng(seed):
    return np.random.default_rng(seed)


def _feature_db():
    return cli.synth_feature_db(6, 64, _rng(5))


# sha256 of the float64 bytes of each generator's output at a fixed seed.
# Every benchmark and demo corpus comes from these generators, so a change of
# filter implementation or import path must leave them bit-identical.
GOLDEN_CORPUS = {
    "ar_signal": (
        lambda: [synth.ar_signal(1000, _rng(1))],
        "9583a23aecfd31929af35bc223b384002904c2d3c41161ba1af6a9b22ae12727"),
    "ar_signal_rho": (
        lambda: [synth.ar_signal(257, _rng(2), rho=0.5)],
        "8cf0f56490201362c479d92319f213252bd3f1d664bc1e581fce111ef8f7e37b"),
    "ar_image": (
        lambda: [synth.ar_image(17, 23, _rng(3))],
        "796c1b198ba938b7c7b89994ca2805494236145f48f5b999e5e73f3c21ce8385"),
    "ar_matrix_pair": (
        lambda: list(synth.ar_matrix_pair(12, 16, 20, _rng(4))),
        "27f467b3416f858b0bd4c470c3e7d3722212882bf02af3474b78582782540f1c"),
    "gallery": (
        lambda: [synth.gallery(3, 8, 12, _rng(6))],
        "c5ea1ac56642ab6e79a545e080f3ba5c46923697e80640c784150ce912fb18a4"),
    "noisy_copy": (
        lambda: [synth.noisy_copy(synth.ar_signal(300, _rng(7)), _rng(8), 10.0)],
        "3976e693c02b0cfd471542e91b866d4d49d06c20bd195250e88eec4124aa0209"),
    "synth_feature_db": (
        lambda: [s for _, s in _feature_db().entries],
        "70b03d7b40e6cdd8946be3f454b7121fd703381c2736d4dedb69878b5ed8eaa1"),
    "synth_queries": (
        lambda: [q for _, q in cli.synth_queries(_feature_db(), 4, 256, _rng(9), 10.0)],
        "ceda95135d024c1ef2c1d0d63744e6344e64f445678880c8bbc07bc7227cc045"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CORPUS))
def test_golden_corpus_is_bit_identical(name):
    build, expected = GOLDEN_CORPUS[name]
    h = hashlib.sha256()
    for a in build():
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    assert h.hexdigest() == expected
