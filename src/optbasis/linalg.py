"""Sparse factorization and dense decomposition helpers.

The sparse LU of an operator, given only its node size: SuperLU for 1, or
the package's own LU in dense node blocks (NodeBlockLU), which picks its
own elimination order; either behind one ``solve`` / ``solve_transpose``
pair.  The span bases, thin QR and dense SVD of the sketch, with the shape
checks and singularity detection the rest of the package relies on.
"""

from __future__ import annotations

import os
import resource
from concurrent.futures import ThreadPoolExecutor

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
# solved as ceil(k / SOLVE_CHUNK) nearly equal chunks, on as many threads as
# the process may use; the split depends on k alone, so the bytes of a solve
# do not depend on the thread count.
SOLVE_CHUNK = 32

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
    of right-hand sides is solved in column chunks of at most SOLVE_CHUNK
    on a thread pool that lives only for the call; SuperLU releases the
    interpreter lock while it solves.  Each chunk's solution is written
    back into that chunk's own columns of the result, so a solve holds the
    result block and a few chunks, never a second block.

    With node size k > 1, NodeBlockLU factors the operator in dense k x k
    node blocks, in its own order o.  Its "N" and "T" sweeps each make one
    GEMM and one small TRSM per node, so their cost per column falls with
    the block's width: the whole block is solved in one call on the
    calling thread, through one copy gathered by o.  Transport's nodes are
    the angles of a spatial node: at m = 12 with 40 angles the factor has
    1.31M nonzero entries against 1.48M for SuperLU's, and a 100-column
    solve takes about half of SuperLU's time on two threads.  Either way
    the split of a block depends on its width alone, so the bytes of a
    solve do not depend on the thread count.

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
        self._trans_t = "T"
        norm = spla.norm(operator, 1)  # its copy of |L| is freed before the factor exists
        if node_size == 1:
            if (operator != operator.T).nnz == 0:  # SuperLU's "T" goes column by column
                self._trans_t = "N"
            try:
                self._lu = spla.splu(sp.csc_matrix(operator), **_SPLU_OPTIONS)
            except RuntimeError as exc:
                raise SingularOperator(f"LU factorization failed: {exc}") from exc
        else:
            self._lu = NodeBlockLU(operator, node_size)
        # Hager-Higham estimate of ||L^-1||_1 from a few solves; reading the
        # pivots off self._lu.U would copy the whole factor
        inverse = spla.LinearOperator(
            (n, n), matvec=self._lu.solve, rmatvec=lambda x: self._lu.solve(x, trans="T"),
            dtype=float)
        condition = norm * spla.onenormest(inverse, t=1)
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

        With ``overwrite_b`` and an F-ordered float64 ``b``, x is written
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
        if self.node_size > 1:  # the node-block factor sweeps the whole block at once
            o = self._lu.order
            x[o] = self._lu.solve(x[o], trans, overwrite_b=True)
            return x

        def solve_into(c):
            c[:] = self._lu.solve(c, trans=trans)

        _chunked(solve_into, x)
        return x


class NodeBlockLU:
    """LU in dense node blocks, P^T A[o][:, o] = L U, of a square sparse matrix.

    Unknowns k i .. k i + k - 1 of A form node i.  The elimination order
    ``order``, o, is ``block_ordering``'s of the node graph of A, built
    once; A is never permuted: each node's rows are read in place from its
    CSR arrays, their columns mapped to o through the nodes' positions.
    Below, nodes are numbered in o.  Rows pivot only inside their node, so
    P is block diagonal.  The node-level fill is found first: eliminating
    node i joins its higher-numbered neighbours into a clique, which the
    lowest of them inherits.  Node rows are then factored one at a time:
    row i's entries are scattered into one dense buffer W over its node
    pattern; each earlier node j of the pattern, in ascending order, gives
    C_ij = W_j U_jj^-1 and the update W -= C_ij U_j; getrf factors the
    diagonal block, W_i = P_i L_ii U_ii, and U's row is L_ii^-1 P_i^T W
    over the later nodes.  So L_ij = P_i^T C_ij.

    Diagonal blocks stay dense in getrf form.  Off-diagonal blocks keep
    only what is not zero: an advection block couples each angle only to
    itself, and mixing the rows of a block keeps its zero columns while
    mixing its columns keeps its zero rows.  So each node's row of U keeps
    its nonzero columns and each node's column of the C blocks its nonzero
    rows, each with its indices, and a solve spends one GEMM per node and
    direction on them.

    ``solve(b, trans)`` sweeps a whole block of right-hand sides at once, so
    its cost per column falls with the block's width, unlike SuperLU's,
    which walks the whole factor once per column.  It speaks SuperLU's
    object protocol: ``solve``, ``shape``, ``nnz`` and the factors ``L`` and
    ``U`` as CSC matrices, built on each access.
    """

    def __init__(self, a, k):
        a = sp.csr_matrix(a, dtype=float)  # canonical: the scatter needs one entry per position
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

        self.diag = np.empty((nodes, k, k))  # diag[i].T is getrf's F-ordered L_ii \ U_ii
        self.perm = np.empty((nodes, k), dtype=np.intp)  # (P_i^T x)[j] = x[perm[i, j]]
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
                cij = blas.dtrsm(1.0, self.diag[j].T, wt[s * k:s * k + k].T, side=1)
                if self.u_index[j].size:
                    u = self.u_index[j]
                    wt[slot[u // k] * k + u % k] -= self.u_rows[j].T @ cij.T
                keep = np.flatnonzero(cij.any(axis=1))
                c_index[j].append(i * k + keep)
                c_cols[j].append(cij[keep])
                if i == upper[j][-1]:  # node j's column is complete
                    self.c_index[j] = np.concatenate(c_index[j])
                    self.c_cols[j] = np.vstack(c_cols[j])
                    c_index[j] = c_cols[j] = None
            d = earlier.size * k
            lu, piv, info = lapack.dgetrf(wt[d:d + k].T)
            if info > 0:
                raise SingularOperator(f"operator exactly singular: node {i} of the "
                                       f"block LU has a zero pivot")
            self.diag[i] = lu.T
            self.perm[i] = _swaps_to_permutation(piv)
            # U_i = L_ii^-1 P_i^T W over the later nodes, solved in the F-ordered (P_i^T W)
            ui = blas.dtrsm(1.0, lu, wt[d + k:][:, self.perm[i]].T, lower=1, diag=1,
                            overwrite_b=1)
            keep = np.flatnonzero(ui.any(axis=0))
            self.u_index[i] = (upper[i][:, None] * k + offsets).ravel()[keep]
            self.u_rows[i] = ui[:, keep]
            if not upper[i].size:
                self.c_index[i], self.c_cols[i] = keep[:0], np.empty((0, k))
        self.pivoted = [not np.array_equal(p, offsets) for p in self.perm]

    @property
    def nnz(self):
        """Nonzero entries of L and U, the unit diagonal once, as SuperLU counts its fill.

        The arrays hold more: a kept row or column keeps its zeros too.
        """
        return sum(np.count_nonzero(a) for a in (self.diag, *self.c_cols, *self.u_rows))

    def solve(self, b, trans="N", overwrite_b=False):
        """x with A x = b ("N") or A^T x = b ("T"), for a vector or the columns of a block.

        With ``overwrite_b`` and a C-ordered float64 ``b``, x is written into b.
        """
        x = np.asarray(b, dtype=float)
        if not (overwrite_b and x.flags.c_contiguous and x.flags.writeable):
            x = np.array(x, order="C")
        y = x if x.ndim == 2 else x[:, None]
        if trans == "N":
            self._sweep_n(y)
        else:
            self._sweep_t(y)
        return x

    def _sweep_n(self, y):
        k = self.k
        for i in range(len(self.diag)):  # z = L^-1 P^T b
            yi = y[i * k:i * k + k]
            if self.pivoted[i]:
                yi[:] = yi[self.perm[i]]
            blas.dtrsm(1.0, self.diag[i].T, yi.T, side=1, lower=1, trans_a=1, diag=1,
                       overwrite_b=1)
            if self.c_index[i].size:
                y[self.c_index[i]] -= self.c_cols[i] @ yi
        for i in range(len(self.diag) - 1, -1, -1):  # x = U^-1 z
            yi = y[i * k:i * k + k]
            if self.u_index[i].size:
                yi -= self.u_rows[i] @ y[self.u_index[i]]
            blas.dtrsm(1.0, self.diag[i].T, yi.T, side=1, trans_a=1, overwrite_b=1)

    def _sweep_t(self, y):
        k = self.k
        for i in range(len(self.diag)):  # w = U^-T b
            yi = y[i * k:i * k + k]
            blas.dtrsm(1.0, self.diag[i].T, yi.T, side=1, overwrite_b=1)
            if self.u_index[i].size:
                y[self.u_index[i]] -= self.u_rows[i].T @ yi
        for i in range(len(self.diag) - 1, -1, -1):  # x = P L^-T w
            yi = y[i * k:i * k + k]
            if self.c_index[i].size:
                yi -= self.c_cols[i].T @ y[self.c_index[i]]
            blas.dtrsm(1.0, self.diag[i].T, yi.T, side=1, lower=1, diag=1, overwrite_b=1)
            if self.pivoted[i]:
                yi[self.perm[i]] = yi.copy()

    @property
    def L(self):
        """Unit lower factor of P^T A = L U as a CSC matrix, built on each access."""
        k = self.k
        tril = np.tril_indices(k, -1)
        inverse = np.argsort(self.perm, axis=1)  # row r of node i is row inverse[i, r] of L
        n = self.shape[0]
        rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.ones(n)]
        for j, index in enumerate(self.c_index):
            base = j * k
            node = index // k
            rows += [base + tril[0], np.repeat(node * k + inverse[node, index % k], k)]
            cols += [base + tril[1], np.tile(base + np.arange(k), index.size)]
            vals += [self.diag[j].T[tril], self.c_cols[j].ravel()]
        return _csc(rows, cols, vals, self.shape)

    @property
    def U(self):
        """Upper factor of P^T A = L U as a CSC matrix, built on each access."""
        k = self.k
        triu = np.triu_indices(k)
        rows, cols, vals = [], [], []
        for i, index in enumerate(self.u_index):
            base = i * k
            rows += [base + triu[0], np.repeat(base + np.arange(k), index.size)]
            cols += [base + triu[1], np.tile(index, k)]
            vals += [self.diag[i].T[triu], self.u_rows[i].ravel()]
        return _csc(rows, cols, vals, self.shape)


def _csc(rows, cols, vals, shape):
    m = sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=shape)
    m.eliminate_zeros()
    return m


def _swaps_to_permutation(piv):
    """The row order of getrf's swaps: swapping rows j and piv[j] in turn takes row p[j] to j."""
    p = np.arange(piv.size)
    for j in np.flatnonzero(piv != p):
        p[j], p[piv[j]] = p[piv[j]], p[j]
    return p


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


def solve_threads():
    """Threads a blocked sparse solve may use: the cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunked(solve_into, x):
    """Apply solve_into, which overwrites its argument, to x or to fixed column chunks of x.

    Only ``solve_into`` runs on the worker threads, never a public method,
    so a tracer hooked on the public solves sees one call from one thread.
    The chunks are disjoint column ranges of x, one per thread at a time.
    """
    k = x.shape[1] if x.ndim == 2 else 0
    chunks = -(-k // SOLVE_CHUNK)
    if chunks <= 1:
        solve_into(x)
        return
    edges = [k * i // chunks for i in range(chunks + 1)]

    def run(i):
        solve_into(x[:, edges[i]:edges[i + 1]])

    workers = min(solve_threads(), chunks)
    if workers == 1:
        for i in range(chunks):
            run(i)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(run, range(chunks)))


def checked_operand(a, n):
    """``a`` as a float64 array, a copy only if it is not one already;
    DimensionMismatch unless its leading dimension is n."""
    a = np.asarray(a, dtype=float)
    if a.shape[0] != n:
        raise DimensionMismatch(f"operand has leading dimension {a.shape[0]}, expected {n}")
    return a


def work_array(a, overwrite, n=None):
    """The array an in-place kernel writes: ``a`` itself or an F-ordered float64 copy.

    ``a`` itself only when ``overwrite`` is set and ``a`` is a writable
    F-ordered float64 array, so that the caller sees the result in it.
    With ``n``, DimensionMismatch unless the leading dimension of ``a`` is n.
    """
    a = np.asarray(a, dtype=float) if n is None else checked_operand(a, n)
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
    a view of it.
    """
    a = work_array(a, True)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {a.shape}")
    return scipy.linalg.qr(a, mode="economic", overwrite_a=True)[0]


def lu_basis(a):
    """Well-conditioned basis of range(a): the factor P L of a row-pivoted LU.

    L is unit lower trapezoidal with entries at most 1 in magnitude, so P L
    has full column rank and its range contains range(a), with equality when
    a has full column rank; a zero pivot leaves a unit column, never a NaN or
    a warning.  Several times cheaper than qr_thin, but not orthonormal.
    An F-ordered float64 block ``a`` is overwritten: LAPACK's getrf factors
    it in place and P L is built in its memory, the same bits as
    ``scipy.linalg.lu(a, permute_l=True)[0]``.
    """
    a = work_array(a, True)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {a.shape}")
    lu, piv, _ = lapack.dgetrf(a, overwrite_a=1)  # info > 0 only flags a zero pivot of U
    r = min(lu.shape)
    pl = lu[:, :r]
    for j in range(1, r):  # the strict upper triangle, one column at a time
        pl[:j, j] = 0.0
    np.fill_diagonal(pl, 1.0)
    return lapack.dlaswp(pl, piv[:r], inc=-1, overwrite_a=1)  # undo the row swaps, last first


def svd_dense(a, overwrite_a=False):
    """Thin SVD of a dense matrix, returned as (U, s, V) with A = U diag(s) V^T.

    LAPACK's gesdd through scipy, the call numpy makes.  numpy and scipy
    each load their own OpenBLAS: at one BLAS thread the bits match numpy's
    (checked up to 4,096 x 4,096), at more they may differ in roundoff.
    With ``overwrite_a`` and an F-ordered float64 ``a``, gesdd works in
    the memory of ``a`` and leaves it destroyed, so a wide k x N matrix
    costs one more k x N block, V^T, where a copying SVD costs two.
    """
    a = work_array(a, overwrite_a)
    try:
        u, s, vt = scipy.linalg.svd(a, full_matrices=False, overwrite_a=True,
                                    lapack_driver="gesdd")
    except (np.linalg.LinAlgError, ValueError) as exc:  # ValueError: a NaN or inf entry
        raise SvdFailure(f"SVD did not converge: {exc}") from exc
    return u, s, vt.T
