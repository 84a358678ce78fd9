"""Projection pairs for the hypothesis property tests of the kernels."""

import numpy as np
from hypothesis import strategies as st

from pkscale.projection import make_custom_pair, make_dct_pair, make_haar_pair


def random_pair(family, size, seed):
    if family == "dct":
        return make_dct_pair(size)
    if family == "haar":
        return make_haar_pair(size)
    # an orthogonal matrix with rescaled columns: general, and well conditioned
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    return make_custom_pair(q * rng.uniform(0.5, 2.0, size))


# (family, size, seed, dtype); the seed also seeds each test's operands
pair_geometry = st.tuples(
    st.sampled_from(["dct", "haar", "custom"]),
    st.sampled_from([2, 3, 4, 5, 6, 7, 8]),
    st.integers(0, 2**16),
    st.sampled_from([np.float32, np.float64]),
).filter(lambda g: g[0] != "haar" or g[1] in (2, 4, 8))
