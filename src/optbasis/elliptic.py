"""Multiscale elliptic diffusion on the unit-half square.

Discretizes -div(kappa grad u) = f on (0, L)^2 with homogeneous Dirichlet
boundary values, using the flux form of the 5-point stencil: each edge
between neighboring nodes carries kappa evaluated at the edge midpoint, so
the assembled matrix is symmetric by construction and positive definite
for positive kappa.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grids import Grid2D


def kappa(x1, x2, eps):
    """Oscillatory diffusion coefficient with contrast on scale eps.

    Sum of a smooth background and three bounded positive oscillatory
    ratios; stays positive for every eps > 0.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    two_pi = 2.0 * np.pi
    t1 = np.sin(two_pi * x1) * np.cos(two_pi * x2)
    t2 = (2.0 + 1.8 * np.sin(two_pi * x1 / eps)) / (2.0 + 1.8 * np.cos(two_pi * x2 / eps))
    t3 = (2.0 + np.sin(two_pi * x2 / eps)) / (2.0 + 1.8 * np.cos(two_pi * x1 / eps))
    return 2.0 + t1 + t2 + t3


@dataclass(frozen=True)
class EllipticMedium:
    """Multiscale diffusion medium kappa(x, x/epsilon)."""

    epsilon: float = 1.0

    def coefficient(self, x1, x2):
        return kappa(x1, x2, self.epsilon)


def assemble_elliptic(grid: Grid2D, medium: EllipticMedium):
    """Assemble the Dirichlet diffusion operator on the interior nodes.

    Returns a CSR matrix of size (m-1)^2 in the x-major node ordering.
    The symmetric edge coefficients are shared between the two incident
    rows, so A == A.T holds exactly in floating point.
    """
    m = grid.m_intervals
    n = grid.n_per_dim
    h = grid.h
    x = grid.interior_1d()
    xe = h * (np.arange(m) + 0.5)

    # kx[i, j]: edge between nodes (i, j+1) and (i+1, j+1) in x, i = 0..m-1
    kx = medium.coefficient(xe[:, None], x[None, :])
    # ky[i, j]: edge between nodes (i+1, j) and (i+1, j+1) in y, j = 0..m-1
    ky = medium.coefficient(x[:, None], xe[None, :])

    inv_h2 = 1.0 / (h * h)
    idx = np.arange(n * n).reshape(n, n)

    diag = (kx[1:, :] + kx[:-1, :] + ky[:, 1:] + ky[:, :-1]) * inv_h2
    east = -kx[1:-1, :] * inv_h2  # couples node block i to i+1, shape (n-1, n)
    north = -ky[:, 1:-1] * inv_h2  # couples (i, j) to (i, j+1), shape (n, n-1)

    rows = [idx.ravel(), idx[:-1, :].ravel(), idx[1:, :].ravel(),
            idx[:, :-1].ravel(), idx[:, 1:].ravel()]
    cols = [idx.ravel(), idx[1:, :].ravel(), idx[:-1, :].ravel(),
            idx[:, 1:].ravel(), idx[:, :-1].ravel()]
    vals = [diag.ravel(), east.ravel(), east.ravel(), north.ravel(), north.ravel()]

    a = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * n, n * n),
    )
    return a.tocsr()


def eval_source_elliptic(grid: Grid2D, amplitude=1.0):
    """Separable sine source amplitude * sin(4 pi x1) sin(4 pi x2) at interior nodes."""
    x1, x2 = grid.interior_flat()
    return amplitude * np.sin(4.0 * np.pi * x1) * np.sin(4.0 * np.pi * x2)
