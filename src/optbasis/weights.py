"""Discrete Sobolev inner products and their Cholesky-style factors.

The weighted inner products used everywhere else are <a, b> = a^T Pi b with
Pi symmetric positive definite.  Each weight is one WeightFactor, an upper
triangular F = F_s (x) I_k with Pi = F^T F: F_s is a banded spatial factor
and k the number of angles, 1 off transport.  Applying F, F^T and their
inverses is all the rest of the package ever needs.

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

from .exceptions import DimensionMismatch, InvalidArgument, OrderTooHigh, SingularOperator
from .grids import Grid2D, PhaseGrid
from .linalg import work_array

# Fewest rows in a block of the blocked weight solves.  A factor of
# bandwidth u is cut into row blocks of max(u, SOLVE_BLOCK) rows, so each
# block couples only to the next and its products run as level-3 GEMMs.
SOLVE_BLOCK = 64

# Columns in every product and GEMM of a weight map off transport.  OpenBLAS
# picks its kernels by shape, so a block is mapped in panels of exactly this
# width, the last one zero-padded, and a column's bits do not depend on the
# other columns.  On transport each column is a matrix of its own.
SOLVE_PANEL = 32


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
        raise InvalidArgument("difference order must be nonnegative")
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
    """Factor F = F_s (x) I_k of the weight Pi = F^T F.

    ``band`` holds the upper triangular F_s in scipy's upper banded storage
    (row u + i - j, column j); a one-row band is a diagonal factor.  ``gram``
    is F_s^T F_s and ``n_minor`` the number of angles k, 1 off transport.
    Vectors are space-major, so column c of an F-ordered block, read
    row-major, is the (n_s, k) matrix M_c, and F maps it to F_s M_c.

    Every map runs on one layout, a stack of (n_s, w) matrices in the
    memory of the block: the (cols, n_s, k) stack of the M_c for k > 1, and
    for k = 1 the (n_s, cols) block cut into panels of SOLVE_PANEL columns,
    the last few columns in one zero-padded panel that is copied back.
    F_s is kept once, as row blocks of b = max(u, SOLVE_BLOCK) rows, where
    u is the bandwidth: block i keeps its b x b diagonal triangle T_i, the
    inverse of T_i and its coupling C_i = F_s[i, i + 1] to the next block.
    All four maps are one sweep over the blocks, on each matrix of the stack:

        F_s:       x_i <- T_i x_i + C_i x_{i+1},                   first block first,
        F_s^T:     x_i <- T_i^T x_i + C_{i-1}^T x_{i-1},           last block first,
        F_s^{-1}:  x_i <- T_i^{-1} (x_i - C_i x_{i+1}),            last block first,
        F_s^{-T}:  x_i <- T_i^{-T} (x_i - C_{i-1}^T x_{i-1}),      first block first,

    two GEMMs a block on each matrix.  A fixed-shape GEMM computes each
    column on its own, so a column's bits do not depend on the other
    columns.  A diagonal F_s multiplies and divides elementwise.  A zero on
    the diagonal raises SingularOperator here, with info the 1-based index
    of the first zero.
    """

    def __init__(self, band, gram, n_minor=1):
        self.band = band
        self.n_spatial = band.shape[1]
        self.n_minor = int(n_minor)
        self.dim = self.n_spatial * self.n_minor
        self._spatial_gram = gram
        self._gram = gram if self.n_minor == 1 else None
        zeros = np.flatnonzero(band[-1] == 0.0)
        if zeros.size:
            raise SingularOperator(
                f"triangular banded weight factor is singular (info={zeros[0] + 1})")
        if band.shape[0] > 1:  # a one-row band multiplies and divides elementwise
            self._edges, self._triangles, self._inverses, self._couplings = _row_blocks(band)

    @classmethod
    def diagonal(cls, scale, dim):
        """F = scale * I; covers the order-zero weight and plain l2."""
        if scale <= 0:
            raise InvalidArgument("scale must be positive")
        scale = np.float64(scale)  # scale ** 2 overflows to inf, as for a numpy array
        gram = (scale ** 2) * sp.identity(dim, format="csr")
        return cls(np.full((1, dim), scale), gram)

    @classmethod
    def from_gram(cls, gram_matrix):
        """Banded Cholesky factor of an assembled symmetric positive definite weight;
        all NaN, as ``defect`` reports, for a matrix that is not finite."""
        g = sp.csr_matrix(gram_matrix)
        if g.shape[0] != g.shape[1]:
            raise DimensionMismatch("weight matrix must be square")
        asym = abs(g - g.T).max()
        if asym > 1e-12 * max(1.0, abs(g).max()):
            raise InvalidArgument(f"weight matrix not symmetric (defect {asym:.3e})")
        coo = sp.triu(g).tocoo()
        u = int((coo.col - coo.row).max()) if coo.nnz else 0
        n = g.shape[0]
        ab = np.zeros((u + 1, n))
        ab[u + coo.row - coo.col, coo.col] = coo.data
        if not np.isfinite(ab).all():
            return cls(np.full_like(ab, np.nan), g)
        try:
            band = cholesky_banded(ab)
        except np.linalg.LinAlgError as exc:
            raise InvalidArgument(f"weight matrix not positive definite: {exc}") from exc
        return cls(band, g)

    def _map(self, v, overwrite_b, transpose=False, solve=False):
        """(op (x) I_k) v, with _sweep overwriting each matrix of the stack it is given."""
        x = work_array(v, overwrite_b, self.dim)
        cols = x.shape[1] if x.ndim == 2 else 1
        if self.n_minor > 1:
            self._sweep(x.T.reshape((cols, self.n_spatial, self.n_minor)), transpose, solve)
            return x
        block = x.reshape((self.n_spatial, cols), order="F")
        done = cols - cols % SOLVE_PANEL
        if done:
            self._sweep(_panel_stack(block[:, :done]), transpose, solve)
        if done < cols:
            panel = np.zeros((self.n_spatial, SOLVE_PANEL), dtype=x.dtype, order="F")
            panel[:, :cols - done] = block[:, done:]
            self._sweep(_panel_stack(panel), transpose, solve)
            block[:, done:] = panel[:, :cols - done]
        return x

    def _sweep(self, x, transpose, solve):
        """x <- op x on each matrix of the stack x, for op = F_s, F_s^T or their inverses.

        Block i couples to block j = i + 1 through C_i, or for F_s^T to
        j = i - 1 through C_{i-1}^T.  A product reads x_j before the sweep
        reaches it and a solve after, which fixes the direction.
        """
        if self.band.shape[0] == 1:  # one-row band
            band = self.band[0][:, None].astype(x.dtype, copy=False)
            (np.divide if solve else np.multiply)(x, band, out=x)
            return
        e, n = self._edges, len(self._triangles)
        for i in range(n) if transpose == solve else range(n - 1, -1, -1):
            xi = x[:, e[i]:e[i + 1]]
            j = i - 1 if transpose else i + 1
            coupled = 0 <= j < n
            if coupled:
                c = self._couplings[j].T if transpose else self._couplings[i]
                c = c.astype(x.dtype, copy=False)
                xj = x[:, e[j]:e[j + 1]]
            if coupled and solve:
                xi -= c @ xj
            t = (self._inverses[i] if solve else self._triangles[i]).astype(x.dtype, copy=False)
            xi[...] = (t.T if transpose else t) @ xi
            if coupled and not solve:
                xi += c @ xj

    # Each map takes ``overwrite_b`` as FactorizedSolver.solve does: with it
    # and an F-ordered v of float32 or float64, the result is written into v
    # and v returned.  A float32 v is mapped in float32, F_s's blocks rounded
    # as the sweep reaches them; any other v in float64.

    def apply(self, v, overwrite_b=False):
        """F v."""
        return self._map(v, overwrite_b)

    def apply_t(self, v, overwrite_b=False):
        """F^T v."""
        return self._map(v, overwrite_b, transpose=True)

    def solve(self, v, overwrite_b=False):
        """F^{-1} v."""
        return self._map(v, overwrite_b, solve=True)

    def solve_t(self, v, overwrite_b=False):
        """F^{-T} v."""
        return self._map(v, overwrite_b, transpose=True, solve=True)

    def gram(self):
        """Assembled Pi as a sparse matrix, the operator of the Pi-inner products."""
        if self._gram is None:  # assembled on first use, so basis-only runs never form it
            eye = sp.identity(self.n_minor, format="csr")
            self._gram = sp.kron(self._spatial_gram, eye, format="csr")
        return self._gram

    def norm(self, v):
        """||F v||_2, the Pi-norm of a vector v."""
        return float(np.linalg.norm(self.apply(v)))

    def defect(self):
        """What keeps F from serving as a weight, or None: "not finite" when F_s or
        its Gram matrix holds a number that is not finite, "singular" when the Gram
        matrix has a zero on its diagonal, as h^2 I has once h^2 underflows."""
        if not (np.isfinite(self.band).all() and np.isfinite(self._spatial_gram.data).all()):
            return "not finite"
        return None if self._spatial_gram.diagonal().all() else "singular"


def _panel_stack(x):
    """(panels, n, SOLVE_PANEL) view of an F-contiguous (n, panels * SOLVE_PANEL) block."""
    return x.reshape((x.shape[0], SOLVE_PANEL, -1), order="F").transpose(2, 0, 1)


def _band_block(band, rows, cols):
    """Dense F_s[rows, cols] of the upper banded F_s, for two index ranges."""
    u = band.shape[0] - 1
    j = np.arange(*cols)
    offset = j - np.arange(*rows)[:, None]
    inside = (offset >= 0) & (offset <= u)
    return np.where(inside, band[np.clip(u - offset, 0, u), j], 0.0)


def _row_blocks(band):
    """Row block edges, diagonal triangles, their inverses and the couplings of a banded F_s.

    The blocks have max(u, SOLVE_BLOCK) rows, the last one ragged; F_s is
    never formed densely.  The diagonal was checked for zeros, so each
    triangle inverts.
    """
    u, n = band.shape[0] - 1, band.shape[1]
    edges = list(range(0, n, max(u, SOLVE_BLOCK))) + [n]
    spans = list(zip(edges, edges[1:]))
    triangles = [_band_block(band, span, span) for span in spans]
    inverses = [lapack.dtrtri(t)[0] for t in triangles]
    couplings = [_band_block(band, a, b) for a, b in zip(spans, spans[1:])]
    return edges, triangles, inverses, couplings


def build_sobolev_weight(p, grid: Grid2D):
    """Weight factor for the order-p Sobolev inner product on a Grid2D.

    p = 0 gives the diagonal factor h I; p in {1, 2} assembles the mixed
    difference Gram matrix and factors it with a banded Cholesky.
    """
    if p not in (0, 1, 2):
        raise InvalidArgument(f"Sobolev order must be 0, 1 or 2, got {p}")
    if p > grid.m_intervals - 2:
        raise OrderTooHigh(f"order {p} does not fit on a {grid.m_intervals}-interval grid")
    if p == 0:
        return WeightFactor.diagonal(grid.h, grid.n_interior)
    return WeightFactor.from_gram(sobolev_gram_matrix(grid.m_intervals, p, grid.h))


def build_rte_weight(p, phase_grid: PhaseGrid):
    """Phase-space weight: spatial Sobolev factor tensorized with the angular average.

    The average's 1 / sqrt(k) is folded into the spatial band, and 1 / k
    into its Gram matrix.
    """
    spatial = build_sobolev_weight(p, phase_grid.spatial)
    k = phase_grid.n_angles
    return WeightFactor(spatial.band / np.sqrt(k), spatial.gram() / k, k)


def identity_weight(dim):
    """Plain Euclidean inner product as a weight factor."""
    return WeightFactor.diagonal(1.0, dim)


def energy_norm(u, grid: Grid2D):
    """Discrete H^1 seminorm: h^2 sum of squared first differences, square-rooted.

    ``u`` is a field, or an N x L block whose columns are fields; a block
    gives the L seminorms as an array.  The differences are taken on each
    field itself, row by row in the order of fd_operator_2d(m, 1, 0, h) @ u
    and fd_operator_2d(m, 0, 1, h) @ u, and each value is bit-identical to
    applying those operators to that field.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[0] != grid.n_interior:
        raise DimensionMismatch(
            f"field has {u.shape[0]} values, grid has {grid.n_interior} interior nodes"
        )
    n = grid.m_intervals - 1
    s = grid.h ** -1
    fields = np.ascontiguousarray(u.reshape(n * n, -1).T).reshape(-1, n, n)  # one per column
    dx = (s * fields[:, 1:] - s * fields[:, :-1]).reshape(len(fields), -1)
    dy = (s * fields[:, :, 1:] - s * fields[:, :, :-1]).reshape(len(fields), -1)
    norms = np.sqrt(grid.h ** 2 * (np.vecdot(dx, dx) + np.vecdot(dy, dy)))
    return norms if u.ndim == 2 else float(norms[0])
