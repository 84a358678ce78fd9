"""Precision-scalable numerical kernels built on invertible projections.

Inserting an invertible pair (C, D = C^-1) between the operands of a matrix
product or convolution splits the exact result into per-projection partial
results. Accumulating all of them reproduces the exact answer; stopping
early trades accuracy for multiply-accumulate work and memory traffic. This
package provides the projection pairs, the GEMM and convolution kernels, an
analytic cost model with instrumented counters, fidelity/throughput metrics,
and two demo applications (2D-PCA recognition, correlation matching).
"""

__version__ = "0.1.0"
