"""Downlink multicell MU-MIMO cooperative transmission under limited feedback.

Simulation and analysis of zero-forcing joint transmission from cooperating
base stations when each mobile feeds back quantized channel directions:
per-cell and global codebook quantization, closed-form rate-loss bounds, and
reproducible Monte Carlo throughput experiments.
"""

__version__ = "0.1.0"
