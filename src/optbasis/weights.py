"""Discrete Sobolev inner products and their Cholesky-style factors.

The weighted inner products used everywhere else are <a, b> = a^T Pi b with
Pi symmetric positive definite.  Each weight is represented by an upper
triangular factor F with Pi = F^T F, so applying F, F^T and their inverses
is all the rest of the package ever needs.

Difference operators follow the forward-difference convention on interior
nodes: D^0 is the identity on the m-1 interior values of one grid line and
each further order divides a forward difference by h, losing one row.  The
two-dimensional operator for orders (i, j) is the Kronecker product
D^i (x) D^j in the x-major vectorization of the grid.

The Sobolev weight of order p on a Grid2D is

    Pi = h^2 * sum_{k=0..p} sum_{i=0..k} (D^{i,k-i})^T D^{i,k-i}

which for p = 0 reduces to h^2 I.  On a PhaseGrid the spatial weight is
tensorized with the angular average: Pi = Pi_spatial (x) I / n_angles.
"""

from __future__ import annotations

from math import comb

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded, lapack

from .exceptions import DimensionMismatch, OrderTooHigh
from .grids import Grid2D, PhaseGrid


def fd_operator_1d(m_intervals, order, h):
    """Forward-difference power D^order on one grid line.

    Parameters
    ----------
    m_intervals : int
        Number of grid cells; the line has m_intervals - 1 interior nodes.
    order : int
        Difference order k >= 0.  D^0 is the identity.
    h : float
        Grid spacing.

    Returns
    -------
    scipy.sparse.csr_matrix
        Operator of shape (m_intervals - 1 - order, m_intervals - 1) whose
        entries are the binomial stencil (-1)^(k-j) C(k, j) / h^k.
    """
    if order < 0:
        raise ValueError("difference order must be nonnegative")
    n = m_intervals - 1
    rows = n - order
    if rows < 1:
        raise OrderTooHigh(
            f"order {order} does not fit on {n} interior nodes (need order <= {n - 1})"
        )
    if order == 0:
        return sp.identity(n, format="csr")
    scale = h ** (-order)
    diags = [
        np.full(rows, (-1.0) ** (order - j) * comb(order, j) * scale)
        for j in range(order + 1)
    ]
    return sp.diags(diags, offsets=list(range(order + 1)), shape=(rows, n), format="csr")


def fd_operator_2d(m_intervals, order_x, order_y, h):
    """Mixed difference D^{order_x} (x) D^{order_y} on the x-major 2-d grid."""
    dx = fd_operator_1d(m_intervals, order_x, h)
    dy = fd_operator_1d(m_intervals, order_y, h)
    return sp.kron(dx, dy, format="csr")


def sobolev_gram_matrix(m_intervals, p, h):
    """Assembled Sobolev weight matrix of order p, including the h^2 prefactor."""
    n2 = (m_intervals - 1) ** 2
    acc = sp.csr_matrix((n2, n2))
    for k in range(p + 1):
        for i in range(k + 1):
            d = fd_operator_2d(m_intervals, i, k - i, h)
            acc = acc + d.T @ d
    return (h * h) * acc


class WeightFactor:
    """Upper triangular factor F of a weight matrix Pi = F^T F.

    Subclasses implement the four linear maps; the inner product and norm
    helpers are shared.
    """

    dim: int
    label: str

    def apply(self, v):
        raise NotImplementedError

    def apply_t(self, v):
        raise NotImplementedError

    def solve(self, v):
        raise NotImplementedError

    def solve_t(self, v):
        raise NotImplementedError

    def gram(self):
        """Assembled Pi as a sparse matrix, the operator of the Pi-inner products."""
        raise NotImplementedError

    def _check(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.dim:
            raise DimensionMismatch(
                f"vector has leading dimension {v.shape[0]}, weight expects {self.dim}"
            )
        return v

    def inner(self, a, b):
        """Weighted inner product <a, b> = (F a) . (F b)."""
        return float(np.dot(self.apply(a), self.apply(b)))

    def norm(self, v):
        fa = self.apply(v)
        if fa.ndim == 1:
            return float(np.linalg.norm(fa))
        return np.linalg.norm(fa, axis=0)


class DiagonalWeightFactor(WeightFactor):
    """F = scale * I; covers the order-zero weight and plain l2."""

    def __init__(self, scale, dim, label="diagonal"):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)
        self.dim = int(dim)
        self.label = label

    def apply(self, v):
        return self.scale * self._check(v)

    def apply_t(self, v):
        return self.scale * self._check(v)

    def solve(self, v):
        return self._check(v) / self.scale

    def solve_t(self, v):
        return self._check(v) / self.scale

    def gram(self):
        return (self.scale ** 2) * sp.identity(self.dim, format="csr")


class TriangularWeightFactor(WeightFactor):
    """Banded upper triangular Cholesky factor of an assembled SPD weight."""

    def __init__(self, band, gram_matrix, label="cholesky"):
        # band is the scipy upper banded storage, row u + i - j, column j
        self.band = band
        self.dim = band.shape[1]
        self.label = label
        self._gram = gram_matrix
        self._factor = _band_to_sparse_upper(band)
        self._factor_t = sp.csr_matrix(self._factor.T)

    @classmethod
    def from_gram(cls, gram_matrix, label="cholesky"):
        """Factor an assembled symmetric positive definite weight matrix."""
        g = sp.csr_matrix(gram_matrix)
        if g.shape[0] != g.shape[1]:
            raise DimensionMismatch("weight matrix must be square")
        asym = abs(g - g.T).max()
        if asym > 1e-12 * max(1.0, abs(g).max()):
            raise ValueError(f"weight matrix not symmetric (defect {asym:.3e})")
        coo = sp.triu(g).tocoo()
        u = int((coo.col - coo.row).max()) if coo.nnz else 0
        n = g.shape[0]
        ab = np.zeros((u + 1, n))
        ab[u + coo.row - coo.col, coo.col] = coo.data
        try:
            band = cholesky_banded(ab)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"weight matrix not positive definite: {exc}") from exc
        return cls(band, g, label=label)

    def apply(self, v):
        return self._factor @ self._check(v)

    def apply_t(self, v):
        return self._factor_t @ self._check(v)

    def _tbtrs(self, v, trans):
        x, info = lapack.dtbtrs(self.band, self._check(v), trans=trans)
        if info != 0:
            raise ValueError(f"triangular banded solve failed (info={info})")
        return x

    def solve(self, v):
        return self._tbtrs(v, "N")

    def solve_t(self, v):
        return self._tbtrs(v, "T")

    def gram(self):
        return self._gram


def _band_to_sparse_upper(band):
    """Expand scipy upper banded storage into a sparse upper triangular matrix."""
    u, n = band.shape[0] - 1, band.shape[1]
    rows, cols, vals = [], [], []
    for d in range(u + 1):
        # diagonal at offset d: entries band[u - d, d:]
        data = band[u - d, d:]
        keep = data != 0.0
        cols_d = np.arange(d, n)[keep]
        rows.append(cols_d - d)
        cols.append(cols_d)
        vals.append(data[keep])
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )


class TensorWeightFactor(WeightFactor):
    """Kronecker factor F_spatial (x) (minor_scale * I) on space-major vectors."""

    def __init__(self, spatial, n_minor, minor_scale, label="tensor"):
        self.spatial = spatial
        self.n_minor = int(n_minor)
        self.minor_scale = float(minor_scale)
        self.dim = spatial.dim * self.n_minor
        self.label = label
        self._gram = None

    def _map(self, v, op, scale):
        v = self._check(v)
        single = v.ndim == 1
        cols = 1 if single else v.shape[1]
        block = v.reshape(self.spatial.dim, self.n_minor * cols)
        out = scale * op(block)
        out = out.reshape(self.dim) if single else out.reshape(self.dim, cols)
        return out

    def apply(self, v):
        return self._map(v, self.spatial.apply, self.minor_scale)

    def apply_t(self, v):
        return self._map(v, self.spatial.apply_t, self.minor_scale)

    def solve(self, v):
        return self._map(v, self.spatial.solve, 1.0 / self.minor_scale)

    def solve_t(self, v):
        return self._map(v, self.spatial.solve_t, 1.0 / self.minor_scale)

    def gram(self):
        if self._gram is None:  # assembled on first use, so basis-only runs never form it
            eye = sp.identity(self.n_minor, format="csr")
            self._gram = sp.kron(self.spatial.gram(), (self.minor_scale ** 2) * eye, format="csr")
        return self._gram


def build_sobolev_weight(p, grid: Grid2D):
    """Weight factor for the order-p Sobolev inner product on a Grid2D.

    p = 0 gives the diagonal factor h I; p in {1, 2} assembles the mixed
    difference Gram matrix and factors it with a banded Cholesky.
    """
    if p not in (0, 1, 2):
        raise ValueError(f"Sobolev order must be 0, 1 or 2, got {p}")
    if p > grid.m_intervals - 2:
        raise OrderTooHigh(f"order {p} does not fit on a {grid.m_intervals}-interval grid")
    label = f"sobolev(p={p})"
    if p == 0:
        return DiagonalWeightFactor(grid.h, grid.n_interior, label=label)
    gram = sobolev_gram_matrix(grid.m_intervals, p, grid.h)
    return TriangularWeightFactor.from_gram(gram, label=label)


def build_rte_weight(p, phase_grid: PhaseGrid):
    """Phase-space weight: spatial Sobolev factor tensorized with the angular average."""
    spatial = build_sobolev_weight(p, phase_grid.spatial)
    scale = 1.0 / np.sqrt(phase_grid.n_angles)
    return TensorWeightFactor(
        spatial, phase_grid.n_angles, scale, label=f"{spatial.label} x angle-avg"
    )


def identity_weight(dim):
    """Plain Euclidean inner product as a weight factor."""
    return DiagonalWeightFactor(1.0, dim, label="identity")


def energy_norm(u, grid: Grid2D):
    """Discrete H^1 seminorm: h^2 sum of squared first differences, square-rooted.

    The differences are taken on the field itself, row by row in the order
    of fd_operator_2d(m, 1, 0, h) @ u and fd_operator_2d(m, 0, 1, h) @ u, and
    the value is bit-identical to applying those operators.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[0] != grid.n_interior:
        raise DimensionMismatch(
            f"field has {u.shape[0]} values, grid has {grid.n_interior} interior nodes"
        )
    n = grid.m_intervals - 1
    s = grid.h ** -1
    field = u.reshape(n, n)
    dx = (s * field[1:] - s * field[:-1]).ravel()
    dy = (s * field[:, 1:] - s * field[:, :-1]).ravel()
    return float(np.sqrt(grid.h ** 2 * (np.dot(dx, dx) + np.dot(dy, dy))))
