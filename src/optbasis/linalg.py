"""Sparse factorization and dense decomposition helpers.

The sparse LU of an operator, given only its node size: SuperLU for 1, or
the package's own block LDU factor in dense node blocks (NodeBlockLU),
which picks its own elimination order; either behind one ``solve`` /
``solve_transpose`` pair.  Solves and span bases keep a float32 block in
float32, for the sketch's span-only power passes; everything else works
in float64.  The span bases, thin QR and dense SVD of the sketch, with the
shape checks and singularity detection the rest of the package relies on.
"""

from __future__ import annotations

import resource

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

from .exceptions import (
    DimensionMismatch,
    InvalidArgument,
    ProblemTooLarge,
    SingularOperator,
    SvdFailure,
)

# An operator whose estimated 1-norm condition number reaches 1 / PIVOT_RTOL
# is treated as singular.
PIVOT_RTOL = 1e-14

# Widest column chunk of a blocked SuperLU solve.  A block of k columns is
# solved as ceil(k / SOLVE_CHUNK) nearly equal chunks, one after another on
# the calling thread; the split depends on k alone.  Chunks are faster than
# one SuperLU call on the whole block: a 330-column solve took 6.2 against
# 10.4 ms on elliptic m = 32 and 32.8 against 45.5 ms on m = 64, with
# bitwise-equal solutions (one BLAS thread, a 2-vCPU host).
SOLVE_CHUNK = 32

# LAPACK's geqrf and orgqr block their work only above this many columns
# (ilaenv's crossover); up to it qr_factors takes geqrt's one-block
# compact WY form.
QR_BLOCKED = 128

# Nodes per batched product of a node-block sweep's diagonal step, which
# applies D^-1 to this many nodes' rows at once: a chunk's product is the
# only block the step allocates, 128 KiB for 100 float64 columns of
# 40-angle nodes.  Chunks of 16 nodes gave the same speed and a 0.3 MiB
# higher peak RSS on transport m = 12.
SCALE_NODES = 4

# SuperLU settings shared by every SuperLU factorization.  Minimum degree on
# A^T + A with a preference for diagonal pivots suits all the operators the
# package builds: their nonzero patterns are symmetric or nearly so and
# their diagonals dominate, so the diagonal is kept and the fill stays low.
# The threshold stays positive so that a small or zero diagonal entry is
# still pivoted away.
_SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                     options={"SymmetricMode": True})


class FactorizedSolver:
    """Sparse LU factorization of a square operator.

    Keeps a reference to the assembled matrix and exposes solves with both
    the operator and its transpose from the single factorization.  A caller
    gives only the node size; the factor picks its own elimination order.

    Every solve runs the factor's own solve with one flag, fixed when the
    operator is factored: "N" for ``solve``; for ``solve_transpose`` "T",
    or "N" when SuperLU factors an operator that equals its transpose
    exactly.

    With node size 1, SuperLU factors the operator in its own order, by
    minimum degree on A^T + A.  SuperLU solves with the transpose one
    right-hand side at a time, so an exactly symmetric operator, elliptic
    or identity, has its transposed solves done as solves with the
    operator itself.  Those walk the whole factor once per column, so
    their cost per column does not depend on the block's width.  A block
    of right-hand sides is solved in column chunks of at most SOLVE_CHUNK,
    in turn on the calling thread.  Each chunk's solution is written back
    into that chunk's own columns of the result, so a solve holds the
    result block and one chunk, never a second block.

    With node size k > 1, NodeBlockLU factors the operator in dense k x k
    node blocks, in its own block LDU form and order o.  Its "N" and "T"
    sweeps each make one GEMM per node and direction, so their cost per
    column falls with the block's width: a block is solved in one call
    on the calling thread, through one copy gathered by o (two for a
    float64 block, see below).  Transport's nodes are the angles of a
    spatial node: at m = 12 with 40 angles the factor stores 1.55M
    entries against 1.48M for SuperLU's.  Either way every solve runs on
    the calling thread, and the split of a block depends on its width and
    type alone.

    A float64 block is solved in float64.  A float32 block keeps its type:
    the node-block factor solves it in float32, rounding its float64 blocks
    as it sweeps, and SuperLU solves it in float64 and rounds the result.
    The node-block factor gathers a float64 block in two column halves,
    one after the other, so that what a solve gathers is never larger
    than a float32 block of the same width.  ``norm`` is ||L||_1 and
    ``inverse_norm`` the estimate of ||L^-1||_1 that the singularity
    check reads; ``basis.span_dtype`` reads them too.  A factor that runs
    out of memory raises ProblemTooLarge.

    Parameters
    ----------
    operator : sparse or dense square matrix
        Kept as it is, a dense one as CSR and one with duplicate entries as
        a summed copy; the copy each factor reads lives only to factor.
    node_size : int
        Unknowns per node of the factor's dense blocks, dividing the
        operator's size; 1 lets SuperLU factor it.
    """

    def __init__(self, operator, node_size=1):
        operator = operator if sp.issparse(operator) else sp.csr_matrix(operator)
        m, n = operator.shape
        if m != n or n == 0:
            raise DimensionMismatch(f"operator must be square and not empty, got {m}x{n}")
        if node_size < 1 or n % node_size:
            raise InvalidArgument(f"{n} unknowns do not split into nodes of {node_size}")
        if not getattr(operator, "has_canonical_format", True):  # duplicates, summed in a
            operator = operator.copy()  # copy, not by scipy's norm in the caller's arrays
            operator.sum_duplicates()
        self.operator = operator
        self.n = n
        self.node_size = node_size
        self.norm = spla.norm(operator, 1)  # its copy of |L| is freed before the factor exists
        # SuperLU's "T" goes column by column, so an operator equal to its transpose takes "N"
        symmetric = node_size == 1 and (operator != operator.T).nnz == 0
        self._trans_t = "N" if symmetric else "T"
        try:
            self._lu = (NodeBlockLU(operator, node_size) if node_size > 1
                        else spla.splu(sp.csc_matrix(operator), **_SPLU_OPTIONS))
        except RuntimeError as exc:  # SuperLU's report of a singular matrix
            raise SingularOperator(f"LU factorization failed: {exc}") from exc
        except MemoryError as exc:
            detail = f" ({exc})" if str(exc) else ""
            raise ProblemTooLarge(
                f"the LU factor of {n:,} unknowns ran out of memory{detail}") from exc
        # Hager-Higham estimate of ||L^-1||_1 from a few solves; reading the
        # pivots off self._lu.U would copy the whole factor
        inverse = spla.LinearOperator(
            (n, n), matvec=self._lu.solve, rmatvec=lambda x: self._lu.solve(x, trans="T"),
            dtype=float)
        self.inverse_norm = spla.onenormest(inverse, t=1)
        condition = self.norm * self.inverse_norm
        if not np.isfinite(condition) or condition >= 1.0 / PIVOT_RTOL:
            raise SingularOperator(
                f"operator numerically singular (estimated 1-norm condition number "
                f"{condition:.3e})"
            )

    @property
    def nnz(self):
        """Fill of the factorization: the entries of L and U that its factor counts."""
        return self._lu.nnz

    def solve(self, b, overwrite_b=False):
        """Solve L x = b for one vector or the columns of a matrix.

        x is float32 for a float32 ``b`` and float64 for any other.  With
        ``overwrite_b`` and an F-ordered ``b`` of that type, x is written
        into b and b is returned; otherwise b is left as it is.
        """
        return self._solve("N", b, overwrite_b)

    def solve_transpose(self, b, overwrite_b=False):
        """Solve L^T x = b using the same factorization.

        ``overwrite_b`` as for solve.
        """
        return self._solve(self._trans_t, b, overwrite_b)

    def _solve(self, trans, b, overwrite_b):
        x = work_array(b, overwrite_b, self.n)
        if self.node_size > 1:  # the node-block factor sweeps all columns gathered at once,
            o = self._lu.order  # a float64 block's in two halves
            k = x.shape[1] if x.ndim == 2 and x.dtype == np.float64 else 1
            for c in (x[:, :k // 2], x[:, k // 2:]) if k > 1 else (x,):
                c[o] = self._lu.solve(c[o], trans, overwrite_b=True)
            return x

        k = x.shape[1] if x.ndim == 2 else 1
        chunks = -(-k // SOLVE_CHUNK)
        for i in range(chunks):
            c = x[:, k * i // chunks:k * (i + 1) // chunks] if x.ndim == 2 else x
            c[:] = self._lu.solve(c, trans=trans)
        return x


class NodeBlockLU:
    """Block LDU factor A[o][:, o] = L D U of a square sparse matrix, in dense node blocks.

    Unknowns k i .. k i + k - 1 of A form node i.  The elimination order
    ``order``, o, is ``block_ordering``'s of the node graph of A, built
    once; A is never permuted: each node's rows are read in place from its
    CSR arrays, their columns mapped to o through the nodes' positions.
    Below, nodes are numbered in o; L is block unit lower, D block diagonal
    and U block unit upper.  The node-level fill is found first:
    eliminating node i joins its higher-numbered neighbours into a clique,
    which the lowest of them inherits.  Node rows are then factored one at
    a time: row i's entries are scattered into one dense buffer W over its
    node pattern; each earlier node j of the pattern, in ascending order,
    gives L_ij = W_ij D_jj^-1 and the update W -= W_ij U_j, a GEMM each.
    What is left of the diagonal block is D_ii, which getrf and getri
    invert, pivoting rows only inside the node, and U's row is D_ii^-1 W
    over the later nodes.

    D^-1 is kept in dense blocks, ``dinv``, with the pivots inside them.
    Off-diagonal blocks keep only what is not zero: an advection block
    couples each angle only to itself, and mixing the rows of a block keeps
    its zero columns while mixing its columns keeps its zero rows.  So each
    node's row of U keeps its nonzero columns and each node's column of L
    its nonzero rows, each with its indices.

    ``solve(b, trans)`` sweeps a whole block of right-hand sides at once, so
    its cost per column falls with the block's width, unlike SuperLU's,
    which walks the whole factor once per column.  Each sweep with L or U
    is one GEMM and one gather or scatter per node, with no triangular
    solve; D^-1 in between is one batched product per SCALE_NODES nodes.
    A float32 block is solved in float32, each node's float64 blocks
    rounded as the sweep reaches them.  It speaks SuperLU's object
    protocol: ``solve``, ``shape``, ``nnz`` and the factors ``L`` and ``U``
    as CSC matrices, built on each access.
    """

    def __init__(self, a, k):
        a = sp.csr_matrix(a, dtype=float)
        if not a.has_canonical_format:  # the scatter needs one entry per position
            raise InvalidArgument("the block LU needs a canonical CSR matrix, without "
                                  "duplicate or unsorted entries")
        n = a.shape[0]
        nodes = n // k
        self.shape = (n, n)
        self.k = k
        graph = _node_graph(a, k)
        node_order = block_ordering(graph, 1)  # the graph's nodes are its unknowns
        offsets = np.arange(k)
        self.order = (k * node_order[:, None] + offsets).ravel()
        position = np.argsort(node_order)  # node j of A is node position[j] of o
        upper = _node_fill(graph[node_order][:, node_order])
        lower = [[] for _ in range(nodes)]
        for i, later in enumerate(upper):
            for j in later:
                lower[j].append(i)
        # the entries of its blocks, were they dense: an upper bound before any numeric work
        entries = k * k * (nodes + 2 * sum(u.size for u in upper))
        limit = address_space_limit()
        if limit is not None and 8 * entries > limit:
            raise ProblemTooLarge(
                f"the block LU needs {entries:,} float64 entries ({8 * entries:,} bytes), "
                f"more than the address-space limit of {limit:,} bytes")

        self.dinv = np.empty((nodes, k, k))  # D_ii^-1
        self.u_index, self.u_rows = [None] * nodes, [None] * nodes
        self.c_index, self.c_cols = [None] * nodes, [None] * nodes
        c_index, c_cols = [[] for _ in range(nodes)], [[] for _ in range(nodes)]
        slot = np.zeros(nodes, dtype=np.intp)
        for i in range(nodes):
            earlier = np.asarray(lower[i], dtype=np.intp)
            pattern = np.concatenate((earlier, [i], upper[i]))
            slot[pattern] = np.arange(pattern.size)
            # W^T, so that the columns an update scatters into are contiguous rows
            wt = np.zeros((k * pattern.size, k))
            r = node_order[i] * k
            start, stop = a.indptr[r], a.indptr[r + k]
            cols = a.indices[start:stop]
            wt[slot[position[cols // k]] * k + cols % k,
               np.repeat(offsets, np.diff(a.indptr[r:r + k + 1]))] = a.data[start:stop]
            for s, j in enumerate(earlier):
                wij = wt[s * k:s * k + k]  # W_ij^T, final once the nodes before j are done
                if self.u_index[j].size:
                    u = self.u_index[j]
                    wt[slot[u // k] * k + u % k] -= self.u_rows[j].T @ wij
                keep = np.flatnonzero(wij.any(axis=0))  # rows of node i where W_ij is not zero
                c_index[j].append(i * k + keep)
                c_cols[j].append(wij[:, keep].T @ self.dinv[j])
                if i == upper[j][-1]:  # node j's column is complete
                    self.c_index[j] = np.concatenate(c_index[j])
                    self.c_cols[j] = np.vstack(c_cols[j])
                    c_index[j] = c_cols[j] = None
            d = earlier.size * k
            lu, piv, info = lapack.dgetrf(wt[d:d + k].T)
            if info > 0:
                raise SingularOperator(f"operator exactly singular: node {i} of the "
                                       f"block LU has a zero pivot")
            self.dinv[i] = lapack.dgetri(lu, piv, overwrite_lu=1)[0]
            later = wt[d + k:]  # W^T over the later nodes
            keep = np.flatnonzero(later.any(axis=1))
            self.u_index[i] = (upper[i][:, None] * k + offsets).ravel()[keep]
            self.u_rows[i] = self.dinv[i] @ later[keep].T
            if not upper[i].size:
                self.c_index[i], self.c_cols[i] = keep[:0], np.empty((0, k))
            wt = wij = later = None  # views of W^T would keep it alive into the next node

    @property
    def nnz(self):
        """Entries the factor stores: D^-1's blocks and the kept rows of L and columns of
        U, zeros inside them included, so that nnz(L) + nnz(U) - n of its CSC factors
        equals it."""
        return self.dinv.size + sum(a.size for a in (*self.c_cols, *self.u_rows))

    def solve(self, b, trans="N", overwrite_b=False):
        """x with A x = b ("N") or A^T x = b ("T"), for a vector or the columns of a block.

        A float32 ``b`` is solved in float32, anything else in float64.  With
        ``overwrite_b`` and a C-ordered ``b`` of that type, x is written into b.
        """
        x = np.asarray(b)
        dtype = _float_type(x)
        if not (overwrite_b and x.dtype == dtype and x.flags.c_contiguous
                and x.flags.writeable):
            x = np.array(x, dtype=dtype, order="C")
        y = x if x.ndim == 2 else x[:, None]
        if trans == "N":
            self._sweep_n(y)
        else:
            self._sweep_t(y)
        return x

    def _sweep_n(self, y):
        k, t = self.k, y.dtype
        for i, index in enumerate(self.c_index):  # z = L^-1 b
            if index.size:
                y[index] -= self.c_cols[i].astype(t, copy=False) @ y[i * k:i * k + k]
        self._scale(y, "N")  # w = D^-1 z
        for i in range(len(self.u_index) - 1, -1, -1):  # x = U^-1 w
            index = self.u_index[i]
            if index.size:
                y[i * k:i * k + k] -= self.u_rows[i].astype(t, copy=False) @ y[index]

    def _sweep_t(self, y):
        k, t = self.k, y.dtype
        for i, index in enumerate(self.u_index):  # z = U^-T b
            if index.size:
                y[index] -= self.u_rows[i].astype(t, copy=False).T @ y[i * k:i * k + k]
        self._scale(y, "T")  # w = D^-T z
        for i in range(len(self.c_index) - 1, -1, -1):  # x = L^-T w
            index = self.c_index[i]
            if index.size:
                y[i * k:i * k + k] -= self.c_cols[i].astype(t, copy=False).T @ y[index]

    def _scale(self, y, trans):
        """y <- D^-1 y ("N") or D^-T y ("T") for a C-ordered block y, SCALE_NODES nodes
        at a time, so that neither D^-1 nor y is ever copied whole."""
        stack = y.reshape(len(self.dinv), self.k, -1)
        for s in range(0, len(stack), SCALE_NODES):
            d = self.dinv[s:s + SCALE_NODES].astype(y.dtype, copy=False)
            nodes = stack[s:s + SCALE_NODES]
            nodes[...] = (d if trans == "N" else d.transpose(0, 2, 1)) @ nodes

    @property
    def L(self):
        """Block unit lower factor of A[o][:, o] = L D U as a CSC matrix, built on each
        access."""
        k, n = self.k, self.shape[0]
        rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.ones(n)]
        for j, index in enumerate(self.c_index):
            rows.append(np.repeat(index, k))
            cols.append(np.tile(j * k + np.arange(k), index.size))
            vals.append(self.c_cols[j].ravel())
        return _csc(rows, cols, vals, self.shape)

    @property
    def U(self):
        """The stored upper factor as a CSC matrix, built on each access: U of
        A[o][:, o] = L D U above its diagonal blocks, and D^-1 in them in place of U's
        identity blocks."""
        k = self.k
        block = np.arange(k)
        rows, cols, vals = [], [], []
        for i, index in enumerate(self.u_index):  # row by row: D_ii^-1, then U's row
            node = i * k + block
            rows.append(np.repeat(node, k + index.size))
            cols.append(np.tile(np.concatenate((node, index)), k))
            vals.append(np.concatenate((self.dinv[i], self.u_rows[i]), axis=1).ravel())
        return _csc(rows, cols, vals, self.shape)


def _csc(rows, cols, vals, shape):
    """A CSC matrix of the given entries, stored zeros kept."""
    return sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=shape)


def _node_graph(a, k):
    """Pattern of a CSR matrix compressed to its nodes of k consecutive unknowns."""
    n = a.shape[0]
    # node rows are k consecutive CSR rows: every k-th row pointer bounds
    # one; the pointers are copied because sum_duplicates rewrites them
    graph = sp.csr_matrix((np.ones(a.nnz), a.indices // k, a.indptr[::k].copy()),
                          shape=(n // k, n // k))
    graph.sum_duplicates()
    return graph


def _node_fill(graph):
    """The later nodes in each node row of the block LU of a node graph, in node order.

    Eliminating node i joins its later neighbours into a clique, so its
    parent, the lowest of them, inherits the others; the pattern is that of
    graph + graph^T, so L's block pattern is U's transposed.
    """
    g = sp.csr_matrix(graph + graph.T)
    upper = []
    for i in range(g.shape[0]):
        row = g.indices[g.indptr[i]:g.indptr[i + 1]]
        upper.append(set(row[row > i].tolist()))
    for i, later in enumerate(upper):
        if later:
            parent = min(later)
            upper[parent].update(later)
            upper[parent].discard(parent)
    return [np.array(sorted(later), dtype=np.intp) for later in upper]


def address_space_limit():
    """The process's address-space limit in bytes (``ulimit -v``), or None when it has none."""
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    return None if soft == resource.RLIM_INFINITY else soft


def checked_operand(a, n, dtype=float):
    """``a`` as an array of ``dtype``, a copy only if it is not one already;
    DimensionMismatch unless its leading dimension is n."""
    a = np.asarray(a, dtype=dtype)
    if a.shape[0] != n:
        raise DimensionMismatch(f"operand has leading dimension {a.shape[0]}, expected {n}")
    return a


def _float_type(a):
    """The type a kernel works in on array ``a``: float32 for float32, float64 for any other."""
    return np.float32 if a.dtype == np.float32 else np.float64


def work_array(a, overwrite, n=None):
    """The array an in-place kernel writes: ``a`` itself or an F-ordered copy.

    A float32 ``a`` stays float32 and anything else becomes float64.  ``a``
    itself only when ``overwrite`` is set and ``a`` is a writable F-ordered
    array of that type, so that the caller sees the result in it.  With
    ``n``, DimensionMismatch unless the leading dimension of ``a`` is n.
    """
    a = np.asarray(a)
    t = _float_type(a)
    a = np.asarray(a, dtype=t) if n is None else checked_operand(a, n, t)
    if overwrite and a.flags.f_contiguous and a.flags.writeable:
        return a
    return np.array(a, order="F")


def block_ordering(operator, k):
    """Minimum-degree ordering of an operator whose unknowns come in nodes of k.

    Node i holds the k contiguous unknowns k i .. k i + k - 1, the angles of
    one spatial node for a space-major transport operator.  The operator's
    pattern is compressed to the graph of its nodes, which SuperLU orders
    by minimum degree on A^T + A (its ``perm_c``, read off the factor of a
    diagonally dominant matrix with the graph's pattern, so the step never
    meets a singular matrix), and each node then expands into its k
    angles, in order.  Returns the elimination order as an index array;
    NodeBlockLU orders the node graph of its operator with k = 1.
    """
    a = sp.csr_matrix(operator)
    n = a.shape[0]
    if k < 1 or n % k:
        raise InvalidArgument(f"{n} unknowns do not split into nodes of {k}")
    graph = _node_graph(a, k)
    graph.data[:] = -1.0
    dominant = sp.csc_matrix(graph + sp.diags(graph.getnnz(axis=1) + 1.0))
    nodes = np.argsort(spla.splu(dominant, **_SPLU_OPTIONS).perm_c)  # perm_c maps old to new
    return (k * nodes[:, None] + np.arange(k)).ravel()


def reciprocity_defect(operator, reversal):
    """Number of entries where L^T and P L P differ; 0 means exactly reciprocal."""
    operator = sp.csr_matrix(operator)
    return int((operator.T.tocsr() != operator[reversal][:, reversal]).nnz)


def factorize(operator, node_size=1):
    """Factorize a square sparse operator once for repeated solves.

    ``node_size`` is the number of unknowns per node of the factor's dense
    blocks, 1 for SuperLU's; see FactorizedSolver.
    """
    return FactorizedSolver(operator, node_size)


def qr_thin(a):
    """Thin Q factor of an unpivoted Householder QR, with orthonormal columns.

    A tall ``a`` keeps every column: Q spans range(a) when ``a`` has full
    column rank, and a dependent or zero column still yields an orthonormal
    column, never a warning.  Rank is the caller's to read; the sketch reads
    it off the small SVD of Q^T A.  An F-ordered float64 block ``a`` is
    overwritten, as in lu_basis: Q is formed in its memory and returned as
    a view of it.  See qr_factors.
    """
    return qr_factors(a)[0]


def qr_factors(a):
    """Thin Householder QR a = Q R: Q (m x min(m, n)) and the upper trapezoidal R.

    LAPACK's geqrf and orgqr block their work only above QR_BLOCKED
    columns, and unblocked they are slow: on the sketch's 4,840 x 100
    block they took 30 ms.  Up to QR_BLOCKED columns geqrt factors ``a``
    in one block of all its min(m, n) columns, with a recursive BLAS-3
    panel, and leaves the reflectors V and the triangle T of the compact
    WY form Q = [I; 0] - V T V_1^T, V_1 the top of V; Q is formed from it
    in the memory of V by one small triangular product and one in-place
    TRMM, 8.6 ms in all (one BLAS thread, a 2-vCPU host).  Wider blocks,
    such as the elliptic sketch's 330 columns, keep geqrf and orgqr: the
    WY form gained little there (11.4 against 12.8 ms at 961 x 330) and
    moved the elliptic error curves by up to 2e-9 relative in roundoff.
    An F-ordered float64 block ``a`` is overwritten: Q is formed in its
    memory and returned as a view of it; R is a new array.
    """
    a = work_array(a, True)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {a.shape}")
    m, n = a.shape
    k = min(m, n)
    if k == 0 or k > QR_BLOCKED:
        return scipy.linalg.qr(a, mode="economic", overwrite_a=True, check_finite=False)
    v, t, _ = lapack.dgeqrt(k, a, overwrite_a=1)
    r = np.triu(v[:k])
    top = np.tril(v[:k, :k], -1)  # V_1, unit lower triangular
    np.fill_diagonal(top, 1.0)
    v[:k, :k] = top
    q = blas.dtrmm(-1.0, t @ top.T, v[:, :k], side=1, overwrite_b=1)  # T V_1^T is upper
    q[np.arange(k), np.arange(k)] += 1.0
    return q, r


def lu_basis(a):
    """Well-conditioned basis of range(a): the factor P L of a row-pivoted LU.

    L is unit lower trapezoidal with entries at most 1 in magnitude, so P L
    has full column rank and its range contains range(a), with equality when
    a has full column rank; a zero pivot leaves a unit column, never a NaN or
    a warning.  Several times cheaper than qr_thin, but not orthonormal.
    A float32 ``a`` is factored in float32 (sgetrf, slaswp), anything else
    in float64.  An F-ordered block ``a`` of that type is overwritten:
    LAPACK's getrf factors it in place and P L is built in its memory, the
    same bits as ``scipy.linalg.lu(a, permute_l=True)[0]``.
    """
    a = work_array(a, True)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {a.shape}")
    getrf, laswp = lapack.get_lapack_funcs(("getrf", "laswp"), (a,))
    lu, piv, _ = getrf(a, overwrite_a=1)  # info > 0 only flags a zero pivot of U
    r = min(lu.shape)
    pl = lu[:, :r]
    for j in range(1, r):  # the strict upper triangle, one column at a time
        pl[:j, j] = 0.0
    np.fill_diagonal(pl, 1.0)
    return laswp(pl, piv[:r], inc=-1, overwrite_a=1)  # undo the row swaps, last first


def svd_dense(a, overwrite_a=False):
    """Thin SVD of a dense matrix, returned as (U, s, V) with A = U diag(s) V^T.

    LAPACK's gesdd through scipy, the call numpy makes.  numpy and scipy
    each load their own OpenBLAS: at one BLAS thread the bits match numpy's
    (checked up to 4,096 x 4,096), at more they may differ in roundoff.
    With ``overwrite_a`` and an F-ordered float64 ``a``, gesdd works in
    the memory of ``a`` and leaves it destroyed.
    """
    a = work_array(a, overwrite_a)
    try:
        u, s, vt = scipy.linalg.svd(a, full_matrices=False, overwrite_a=True,
                                    lapack_driver="gesdd")
    except (np.linalg.LinAlgError, ValueError) as exc:  # ValueError: a NaN or inf entry
        raise SvdFailure(f"SVD did not converge: {exc}") from exc
    return u, s, vt.T


def r_svd(a, rank, rtol, overwrite_a=False):
    """Chan's R-SVD of a tall N x k matrix: its k singular values and leading left vectors.

    Returns (s, U_r): s all k singular values, descending, and U_r the
    left singular vectors of the r = min(rank, #{s_i > rtol s_0}) largest,
    an F-ordered N x r block; they are the right vectors of the wide a^T.
    The Householder QR a = Q_b R is followed by the k x k SVD of
    R^T = W diag(s) Z^T, the triangle that LAPACK's gesdd itself reduces a
    wide a^T to, so the values follow the path of gesdd of a^T, and
    U_r = Q_b Z[:, :r] is one GEMM over the r columns only (Chan, ACM TOMS
    8, 1982).  With ``overwrite_a`` and an F-ordered float64 ``a``, Q_b is
    formed in its memory by qr_factors.  A NaN raises SvdFailure, as in
    svd_dense.
    """
    a = work_array(a, overwrite_a)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise DimensionMismatch(f"expected a tall 2-d array, got shape {a.shape}")
    q_b, r_factor = qr_factors(a)
    _, s, z = svd_dense(r_factor.T)  # a NaN in a reaches R
    r = min(rank, int(np.sum(s > rtol * s[0])))
    return s, (z[:, :r].T @ q_b.T).T
