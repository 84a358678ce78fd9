"""Precision-scalable numerical kernels built on invertible projections.

Inserting an invertible pair (C, D = C^-1) between the operands of a matrix
product or convolution splits the exact result into per-projection partial
results. Accumulating all of them reproduces the exact answer; stopping
early trades accuracy for multiply-accumulate work and memory traffic. This
package provides the projection pairs, the GEMM and convolution kernels, an
analytic cost model with instrumented counters, fidelity/throughput metrics,
and two demo applications (2D-PCA recognition, correlation matching).
"""

from .config import PrecisionConfig, SampleMode
from .conv import (
    ConvDomain,
    ConvPlan,
    ConvVariant,
    conv_direct,
    conv_fft,
    conv_overlap_save,
    conv_projected_blocked,
    conv_translate_project,
    cyclic_translate,
)
from .costs import (
    Domain,
    MacCounter,
    MemoryEstimate,
    mac_conv_plain_freq,
    mac_conv_plain_time,
    mac_conv_proj_freq,
    mac_conv_proj_time,
    mac_gemm_plain,
    mac_gemm_plain_general,
    mac_gemm_proj,
    mac_gemm_proj_general,
    mem_transfer,
    ratio_table,
)
from .gemm import (
    BlockedOperand,
    Orientation,
    gemm_conventional,
    gemm_partial,
    gemm_projected,
    reorder_block_major,
    restore_block_major,
)
from .metrics import SnrReport, ThroughputReport, measure_throughput, snr
from .projection import (
    PairKind,
    ProjectionPair,
    make_custom_pair,
    make_dct_pair,
    make_haar_pair,
    project_cols,
    project_rows,
    project_signal,
    project_signal_dual,
)

__version__ = "0.1.0"

__all__ = [
    "PrecisionConfig",
    "SampleMode",
    "ConvDomain",
    "ConvPlan",
    "ConvVariant",
    "conv_direct",
    "conv_fft",
    "conv_overlap_save",
    "conv_projected_blocked",
    "conv_translate_project",
    "cyclic_translate",
    "Domain",
    "MacCounter",
    "MemoryEstimate",
    "mac_conv_plain_freq",
    "mac_conv_plain_time",
    "mac_conv_proj_freq",
    "mac_conv_proj_time",
    "mac_gemm_plain",
    "mac_gemm_plain_general",
    "mac_gemm_proj",
    "mac_gemm_proj_general",
    "mem_transfer",
    "ratio_table",
    "BlockedOperand",
    "Orientation",
    "gemm_conventional",
    "gemm_partial",
    "gemm_projected",
    "reorder_block_major",
    "restore_block_major",
    "SnrReport",
    "ThroughputReport",
    "measure_throughput",
    "snr",
    "PairKind",
    "ProjectionPair",
    "make_custom_pair",
    "make_dct_pair",
    "make_haar_pair",
    "project_cols",
    "project_rows",
    "project_signal",
    "project_signal_dual",
    "__version__",
]
