"""Run-time precision configuration shared by the GEMM and CONV kernels."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import DomainError


class SampleMode(enum.Enum):
    """Output sampling policy of the blocked projected convolution.

    ALL_PHASES computes every group phase (full-rate output, L times the
    partial-convolution work); HALF_INTERPOLATE computes phase 0 only and
    fills the remaining output positions by linear interpolation.
    """

    ALL_PHASES = "all"
    HALF_INTERPOLATE = "half"


@dataclass(frozen=True)
class PrecisionConfig:
    """How many projection indices to accumulate, and how to sample output.

    ``projection_size`` must match the pair the kernel is given;
    ``projections_used`` in [1, projection_size] selects the accuracy/work
    trade-off. ``sample_mode`` only affects convolution.
    """

    projection_size: int
    projections_used: int
    sample_mode: SampleMode = SampleMode.ALL_PHASES

    def __post_init__(self):
        if self.projection_size < 2:
            raise DomainError(f"projection size {self.projection_size} below 2")
        if not (1 <= self.projections_used <= self.projection_size):
            raise DomainError(
                f"projections_used {self.projections_used} outside [1, {self.projection_size}]")

    def phases(self):
        """The output phases a projected convolution computes: all L for
        ALL_PHASES, phase 0 alone for HALF_INTERPOLATE."""
        if self.sample_mode is SampleMode.ALL_PHASES:
            return range(self.projection_size)
        return range(1)

    def check_pair(self, pair):
        if pair.size != self.projection_size:
            raise DomainError(
                f"config built for projection size {self.projection_size}, pair has {pair.size}")
