import numpy as np
import pytest

import pkscale
from pkscale.config import PrecisionConfig
from pkscale.conv import conv_direct, conv_projected_blocked
from pkscale.errors import DomainError
from pkscale.gemm import gemm_projected
from pkscale.projection import make_haar_pair, project_rows


def test_every_export_resolves():
    missing = [name for name in pkscale.__all__ if not hasattr(pkscale, name)]
    assert missing == []


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
