"""Optimal reduced bases for discretized PDE solution operators.

The package computes weighted SVD bases of solution operators G = L^{-1}
by a randomized sketch that only touches L through sparse solves, provides
brute-force oracles for the optimality theory behind those bases, and
ships the two multiscale model problems (elliptic diffusion and radiative
transport) the experiments run on.
"""

__version__ = "0.1.0"
