import json
import subprocess
import sys

import numpy as np
import pytest

from pkscale.config import PrecisionConfig
from pkscale.conv import conv_direct, conv_projected_blocked
from pkscale.errors import DomainError
from pkscale.gemm import gemm_projected
from pkscale.projection import make_haar_pair, project_rows


PAIR = make_haar_pair(2)


@pytest.mark.parametrize("call", [
    lambda z: conv_direct(z, np.ones(2)),
    lambda z: conv_direct(np.ones(4), z[:2]),
    lambda z: conv_projected_blocked(z, np.ones(2), PAIR, PrecisionConfig(2, 1)),
    lambda z: gemm_projected(z.reshape(2, 2), np.ones((2, 2)), PAIR, PrecisionConfig(2, 2)),
    lambda z: project_rows(z.reshape(1, 4), PAIR, 0),
], ids=["conv_direct-signal", "conv_direct-kernel", "conv_projected_blocked",
        "gemm_projected", "project_rows"])
def test_kernels_reject_complex_input(call):
    # complex input used to be cut to its real part with only a ComplexWarning
    with pytest.raises(DomainError, match="complex"):
        call(np.ones(4) + 1j)


# Run in a fresh interpreter: the imports, pair construction, the projected
# kernels (the convolution in both domains) and matching, the synthetic generators, the 2D-PCA pipeline and a
# `bench-gemm` run, then the FFT baselines. Prints the package modules that
# `import pkscale` and `import pkscale.cli` loaded, the standard-library
# number modules the latter loaded, the package modules loaded after every
# shipping call, the scipy modules loaded before and after the FFT calls,
# and the FFT baselines' largest deviation from conv_direct.
NUMPY_ONLY_SCRIPT = """
import json
import os
import sys

import numpy as np


def package_modules():
    return sorted(m for m in sys.modules if m == "pkscale" or m.startswith("pkscale."))


import pkscale
package = package_modules()
import pkscale.cli
cli = package_modules()
startup = sorted({"statistics", "decimal", "fractions"} & set(sys.modules))
from pkscale import synth
from pkscale.apps import (ConvMode, FeatureDb, GemmMode, TrainingSet, pca_extract,
                          pca_match, pca_train, xcorr_match)
from pkscale.config import PrecisionConfig, SampleMode
from pkscale import conv
from pkscale.conv import ConvDomain, conv_direct, conv_fft, conv_projected_blocked
from pkscale.gemm import gemm_projected
from pkscale.projection import make_custom_pair, make_dct_pair, make_haar_pair


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


rng = np.random.default_rng(0)
pairs = [make_dct_pair(8), make_haar_pair(4),
         make_custom_pair(rng.standard_normal((5, 5)) + 3.0 * np.eye(5))]
a = rng.standard_normal((40, 40))
b = rng.standard_normal((40, 40))
s = rng.standard_normal(300)
k = rng.standard_normal(17)
for pair in pairs:
    gemm_projected(a, b, pair, PrecisionConfig(pair.size, 2))
    conv_projected_blocked(s, k, pair, PrecisionConfig(pair.size, 2))
# long enough for the frequency domain
assert conv._blocked_domain(20000, 2000, 8, 2, 8)[0] is ConvDomain.FREQ
conv_projected_blocked(rng.standard_normal(20000), rng.standard_normal(2000), pairs[0],
                       PrecisionConfig(8, 2))
db = FeatureDb.from_arrays((f"e{i}", rng.standard_normal(32)) for i in range(4))
half = PrecisionConfig(2, 1, SampleMode.HALF_INTERPOLATE)
xcorr_match(rng.standard_normal(128), db, ConvMode(make_haar_pair(2), half))
xcorr_match(rng.standard_normal(128), db)
synth.ar_signal(300, rng)
faces = np.stack([synth.ar_image(16, 16, rng) for _ in range(6)])
training = TrainingSet(images=faces, labels=tuple("abcdef"))
for mode in (GemmMode(), GemmMode(make_dct_pair(8), PrecisionConfig(8, 1))):
    basis, gallery = pca_train(training, dims=4, mode=mode)
    pca_match(pca_extract(faces, basis, mode=mode), gallery)
assert pkscale.cli.main(["bench-gemm", "--n", "8", "--inner", "8", "--L", "2",
                         "--reps", "1", "--out", os.devnull]) == 0
shipping = package_modules()
before = scipy_modules()

from pkscale.reference import ConvPlan, conv_overlap_save
direct = conv_direct(s, k)
errors = [float(np.abs(conv_fft(s, k) - direct).max())]
for block_len in (17, 40, 121):
    plan = ConvPlan(block_len, k.shape[0], ConvDomain.FREQ)
    errors.append(float(np.abs(conv_overlap_save(s, k, plan) - direct).max()))
print(json.dumps({"package": package, "cli": cli, "startup": startup, "shipping": shipping,
                  "before": before, "after": scipy_modules(), "errors": errors}))
"""


def test_projected_paths_load_no_scipy():
    done = subprocess.run([sys.executable, "-c", NUMPY_ONLY_SCRIPT],
                          capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(done.stdout)
    assert report["package"] == ["pkscale"]
    # perfbench's tracer wraps functions of gemm, conv and apps right after
    # `import pkscale.cli`, so that import must load them; costs, metrics
    # and synth are on no workload's set-up path and wait for their callers
    assert report["cli"] == ["pkscale", "pkscale.apps", "pkscale.cli", "pkscale.config",
                             "pkscale.conv", "pkscale.errors", "pkscale.gemm",
                             "pkscale.io", "pkscale.projection"]
    # statistics pulls in decimal and fractions, a few ms of every start-up
    assert report["startup"] == []
    # the criteria's references are for the tests: no shipping path loads them
    assert "pkscale.reference" not in report["shipping"]
    assert report["before"] == []
    # the FFT baselines import scipy.fft on their first call, and still
    # equal the direct kernel
    assert "scipy.fft" in report["after"]
    assert max(report["errors"]) <= 1e-11
