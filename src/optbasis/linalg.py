"""Sparse factorization and dense decomposition helpers.

Thin wrappers around scipy that add the shape checks and singularity
detection the rest of the package relies on.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .exceptions import (
    DimensionMismatch,
    InvalidArgument,
    NotReciprocal,
    SingularOperator,
    SvdFailure,
)

# An operator whose estimated 1-norm condition number reaches 1 / PIVOT_RTOL
# is treated as singular.
PIVOT_RTOL = 1e-14

# Widest column chunk of a blocked sparse solve.  A block of k columns is
# solved as ceil(k / SOLVE_CHUNK) nearly equal chunks, on as many threads as
# the process may use; the split depends on k alone, so the bytes of a solve
# do not depend on the thread count.
SOLVE_CHUNK = 32

# SuperLU settings shared by every factorization.  Minimum degree on A^T + A
# with a preference for diagonal pivots suits all the operators the package
# builds: their nonzero patterns are symmetric or nearly so and their
# diagonals dominate, so the diagonal is kept and the fill stays low.  The
# threshold stays positive so that a small or zero diagonal entry is still
# pivoted away.  A factor with a given ordering keeps the pivoting settings
# and takes its columns in natural order.
_PIVOTING = dict(diag_pivot_thresh=0.01, options={"SymmetricMode": True})
_SPLU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", **_PIVOTING)


class FactorizedSolver:
    """Sparse LU factorization of a square operator.

    Keeps a reference to the assembled matrix and exposes solves with both
    the operator and its transpose from the single factorization.

    Every solve runs one kernel on each column chunk c of its right-hand
    sides, c[take] = lu.solve(c[take], trans), with the gather index
    ``take`` and SuperLU's ``trans`` flag fixed once, when the operator is
    factored.  SuperLU solves with the transpose one right-hand side at a
    time, but solves with the operator itself blockwise through its
    supernodes, so a reciprocal operator, L^T = P L P for an involutive
    permutation P, has its transposed solves done as P L^{-1} P b with
    trans "N".  A block of right-hand sides is solved in column chunks of
    at most SOLVE_CHUNK on a thread pool that lives only for the call;
    SuperLU releases the interpreter lock while it solves.  Each chunk's
    solution is written back into that chunk's own columns of the result,
    so a solve holds the result block and a few chunks, never a second
    block.

    Without an ordering SuperLU orders the columns itself, by minimum degree
    on A^T + A, and ``take`` is the whole chunk.  With an ordering o it
    factors L[o][:, o] in that order, and ``take`` is o; a reciprocal
    transposed solve takes the one composed index P[o], or o when P is
    the identity.  Transport takes the block ordering of
    ``block_ordering``, minimum degree on its (m - 1)^2 spatial nodes with
    each node's angles kept together: at 40 angles it stores 1.32M entries
    against SuperLU's 1.48M at m = 12, 9.36M against 12.9M at m = 24 and
    124.5M against 181.9M at m = 64.  The elliptic operators keep
    SuperLU's own ordering: each node holds a single unknown, so there is
    nothing to compress, and a recomputed ordering would cost a gather and
    a scatter per solve for no gain.

    Parameters
    ----------
    operator : sparse or dense square matrix
        Kept as it is, a dense one as CSR; its CSC copy lives only to factor.
    reversal : integer index array or None
        The permutation P, with P[P] the identity.  The identity for a
        symmetric operator; for transport, the map from each direction to its
        reverse.  Checked exactly once here; None keeps SuperLU's transposed
        solve.
    ordering : integer index array or None
        Elimination order of the unknowns, a permutation of range(n).  None
        lets SuperLU order them.
    """

    def __init__(self, operator, reversal=None, ordering=None):
        operator = operator if sp.issparse(operator) else sp.csr_matrix(operator)
        m, n = operator.shape
        if m != n:
            raise DimensionMismatch(f"operator must be square, got {m}x{n}")
        self.operator = operator
        self.n = n
        self.reversal = None
        if reversal is not None:
            self.reversal = _checked_reversal(reversal, n)
            defect = reciprocity_defect(operator, self.reversal)
            if defect:
                raise NotReciprocal(
                    f"operator transpose differs from the reversed operator in "
                    f"{defect} entries"
                )
        self.ordering = None if ordering is None else _checked_ordering(ordering, n)
        # the gather index and SuperLU trans flag of each solve; without an
        # ordering a symmetric operator is indexed through views, not copies
        order = slice(None) if self.ordering is None else self.ordering
        self._plan = (order, "N")
        if self.reversal is None:
            self._plan_t = (order, "T")
        elif np.array_equal(self.reversal, np.arange(n)):
            self._plan_t = (order, "N")
        else:
            self._plan_t = (self.reversal[order], "N")  # P L^{-1} P through one index
        csc = sp.csc_matrix(operator)
        try:
            if self.ordering is None:
                self._lu = spla.splu(csc, **_SPLU_OPTIONS)
            else:
                self._lu = spla.splu(csc[self.ordering][:, self.ordering],
                                     permc_spec="NATURAL", **_PIVOTING)
        except RuntimeError as exc:
            raise SingularOperator(f"LU factorization failed: {exc}") from exc
        # Hager-Higham estimate of ||L^-1||_1 from a few solves; reading the
        # pivots off self._lu.U would copy the whole factor
        inverse = spla.LinearOperator(
            (n, n), matvec=self._lu.solve, rmatvec=lambda x: self._lu.solve(x, trans="T"),
            dtype=float)
        condition = spla.norm(csc, 1) * spla.onenormest(inverse, t=1)
        if not np.isfinite(condition) or condition >= 1.0 / PIVOT_RTOL:
            raise SingularOperator(
                f"operator numerically singular (estimated 1-norm condition number "
                f"{condition:.3e})"
            )

    @property
    def nnz(self):
        """Fill of the factorization: the entries SuperLU stores for L and U."""
        return self._lu.nnz

    def solve(self, b, overwrite_b=False):
        """Solve L x = b for one vector or the columns of a matrix.

        With ``overwrite_b`` and an F-ordered float64 ``b``, x is written
        into b and b is returned; otherwise b is left as it is.
        """
        return self._solve(self._plan, b, overwrite_b)

    def solve_transpose(self, b, overwrite_b=False):
        """Solve L^T x = b using the same factorization: P L^{-1} P b when reciprocal.

        ``overwrite_b`` as for solve.
        """
        return self._solve(self._plan_t, b, overwrite_b)

    def _solve(self, plan, b, overwrite_b):
        take, trans = plan
        x = work_array(b, overwrite_b, self.n)

        def solve_into(c):
            c[take] = self._lu.solve(c[take], trans=trans)

        _chunked(solve_into, x)
        return x


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


def _checked_reversal(reversal, n):
    p = np.asarray(reversal)
    if (p.shape != (n,) or not np.issubdtype(p.dtype, np.integer)
            or (n and (p.min() < 0 or p.max() >= n))
            or not np.array_equal(p[p], np.arange(n))):
        raise NotReciprocal(f"reversal must be an involutive permutation of {n} indices")
    return p


def _checked_ordering(ordering, n):
    o = np.asarray(ordering)
    if (o.shape != (n,) or not np.issubdtype(o.dtype, np.integer)
            or not np.array_equal(np.sort(o), np.arange(n))):
        raise InvalidArgument(f"ordering must be a permutation of {n} indices")
    return o


def block_ordering(operator, k):
    """Minimum-degree ordering of an operator whose unknowns come in nodes of k.

    Node i holds the k contiguous unknowns k i .. k i + k - 1, the angles of
    one spatial node for a space-major transport operator.  The operator's
    pattern is compressed to the graph of its nodes, which SuperLU orders
    by minimum degree on A^T + A (its ``perm_c``, read off the factor of a
    diagonally dominant matrix with the graph's pattern, so the step never
    meets a singular matrix), and each node then expands into its k
    angles, in order.  Returns the elimination order for
    ``FactorizedSolver(..., ordering=...)``.
    """
    a = sp.csr_matrix(operator)
    n = a.shape[0]
    if k < 1 or n % k:
        raise InvalidArgument(f"{n} unknowns do not split into nodes of {k}")
    # node rows are k consecutive CSR rows: every k-th row pointer bounds
    # one; the pointers are copied because sum_duplicates rewrites them
    graph = sp.csr_matrix((np.ones(a.nnz), a.indices // k, a.indptr[::k].copy()),
                          shape=(n // k, n // k))
    graph.sum_duplicates()
    graph.data[:] = -1.0
    dominant = sp.csc_matrix(graph + sp.diags(graph.getnnz(axis=1) + 1.0))
    nodes = np.argsort(spla.splu(dominant, **_SPLU_OPTIONS).perm_c)  # perm_c maps old to new
    return (k * nodes[:, None] + np.arange(k)).ravel()


def reciprocity_defect(operator, reversal):
    """Number of entries where L^T and P L P differ; 0 means exactly reciprocal."""
    operator = sp.csr_matrix(operator)
    return int((operator.T.tocsr() != operator[reversal][:, reversal]).nnz)


def factorize(operator, reversal=None, ordering=None):
    """Factorize a square sparse operator once for repeated solves.

    ``reversal`` is an involutive permutation P with L^T = P L P, which lets
    transposed solves run through the blocked forward solve, and
    ``ordering`` an elimination order such as ``block_ordering`` gives; see
    FactorizedSolver.
    """
    return FactorizedSolver(operator, reversal, ordering)


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
