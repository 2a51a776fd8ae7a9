"""Sparse factorization and dense decomposition helpers.

Thin wrappers around scipy that add the shape checks, singularity
detection and rank handling the rest of the package relies on.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import (
    DimensionMismatch,
    NotReciprocal,
    RankDeficientWarning,
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
# pivoted away.
_SPLU_OPTIONS = dict(
    permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0.01,
    options={"SymmetricMode": True},
)

# Columns whose pivoted-QR diagonal falls below this fraction of the leading
# pivot are considered linearly dependent and dropped.
QR_RANK_RTOL = 1e-12


class FactorizedSolver:
    """Sparse LU factorization of a square operator.

    Keeps a reference to the assembled matrix and exposes solves with both
    the operator and its transpose from the single factorization.

    SuperLU solves with the transpose one right-hand side at a time, but
    solves with the operator itself blockwise through its supernodes.  A
    reciprocal operator, L^T = P L P for an involutive permutation P, has
    its transposed solves done as P L^{-1} P b, through the blocked path.
    A block of right-hand sides is solved in column chunks of at most
    SOLVE_CHUNK on a thread pool that lives only for the call; SuperLU
    releases the interpreter lock while it solves.

    Parameters
    ----------
    operator : sparse or dense square matrix
        Converted to CSC for the factorization.
    reversal : integer index array or None
        The permutation P, with P[P] the identity.  The identity for a
        symmetric operator; for transport, the map from each direction to its
        reverse.  Checked exactly once here; None keeps SuperLU's transposed
        solve.
    """

    def __init__(self, operator, reversal=None):
        operator = sp.csc_matrix(operator)
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
            # a symmetric operator is indexed through views, not copies
            identity = np.array_equal(self.reversal, np.arange(n))
            self._take = slice(None) if identity else self.reversal
        try:
            self._lu = spla.splu(operator, **_SPLU_OPTIONS)
        except RuntimeError as exc:
            raise SingularOperator(f"LU factorization failed: {exc}") from exc
        # Hager-Higham estimate of ||L^-1||_1 from a few solves; reading the
        # pivots off self._lu.U would copy the whole factor
        inverse = spla.LinearOperator(
            (n, n), matvec=self._lu.solve, rmatvec=lambda x: self._lu.solve(x, trans="T"),
            dtype=float)
        condition = spla.norm(operator, 1) * spla.onenormest(inverse, t=1)
        if not np.isfinite(condition) or condition >= 1.0 / PIVOT_RTOL:
            raise SingularOperator(
                f"operator numerically singular (estimated 1-norm condition number "
                f"{condition:.3e})"
            )

    @property
    def nnz(self):
        """Fill of the factorization: the entries SuperLU stores for L and U."""
        return self._lu.nnz

    def _check_rhs(self, b):
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.n:
            raise DimensionMismatch(
                f"right-hand side has leading dimension {b.shape[0]}, expected {self.n}"
            )
        return b

    def solve(self, b):
        """Solve L x = b for one vector or the columns of a matrix."""
        return _chunked(self._lu.solve, self._check_rhs(b))

    def solve_transpose(self, b):
        """Solve L^T x = b using the same factorization: P L^{-1} P b when reciprocal."""
        b = self._check_rhs(b)
        if self.reversal is None:
            return _chunked(lambda c: self._lu.solve(c, trans="T"), b)
        return _chunked(self._lu.solve, b[self._take])[self._take]


def solve_threads():
    """Threads a blocked sparse solve may use: the cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunked(solve, b):
    """solve(b) for a vector, else solve applied to fixed column chunks of b.

    Only ``solve`` runs on the worker threads, never a public method, so a
    tracer hooked on the public solves sees one call from one thread.
    """
    k = b.shape[1] if b.ndim == 2 else 0
    chunks = -(-k // SOLVE_CHUNK)
    if chunks <= 1:
        return solve(b)
    edges = [k * i // chunks for i in range(chunks + 1)]
    x = np.empty(b.shape, order="F")  # the layout SuperLU returns

    def run(i):
        x[:, edges[i]:edges[i + 1]] = solve(b[:, edges[i]:edges[i + 1]])

    workers = min(solve_threads(), chunks)
    if workers == 1:
        for i in range(chunks):
            run(i)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(run, range(chunks)))
    return x


def _checked_reversal(reversal, n):
    p = np.asarray(reversal)
    if (p.shape != (n,) or not np.issubdtype(p.dtype, np.integer)
            or (n and (p.min() < 0 or p.max() >= n))
            or not np.array_equal(p[p], np.arange(n))):
        raise NotReciprocal(f"reversal must be an involutive permutation of {n} indices")
    return p


def reciprocity_defect(operator, reversal):
    """Number of entries where L^T and P L P differ; 0 means exactly reciprocal."""
    operator = sp.csr_matrix(operator)
    return int((operator.T.tocsr() != operator[reversal][:, reversal]).nnz)


def factorize(operator, reversal=None):
    """Factorize a square sparse operator once for repeated solves.

    ``reversal`` is an involutive permutation P with L^T = P L P, which lets
    transposed solves run through the blocked forward solve; see
    FactorizedSolver.
    """
    return FactorizedSolver(operator, reversal)


def qr_thin(a):
    """Thin QR factor with dependent columns dropped.

    Uses column-pivoted QR so rank deficiency shows up on the diagonal of R.
    Returns Q whose columns are orthonormal and span the numerically detected
    range of ``a``.  Emits a RankDeficientWarning when columns are dropped.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {a.shape}")
    if a.shape[1] == 0:
        return a.copy()
    q, r, _ = scipy.linalg.qr(a, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    lead = diag[0] if diag.size else 0.0
    if lead == 0.0:
        rank = 0
    else:
        rank = int(np.sum(diag > QR_RANK_RTOL * lead))
    if rank < a.shape[1]:
        warnings.warn(
            f"orthonormalization dropped {a.shape[1] - rank} dependent column(s)",
            RankDeficientWarning,
            stacklevel=2,
        )
        return q[:, :rank]
    return q


def lu_basis(a):
    """Well-conditioned basis of range(a): the factor P L of a row-pivoted LU.

    L is unit lower trapezoidal with entries at most 1 in magnitude, so P L
    has full column rank and its range contains range(a), with equality when
    a has full column rank; a zero pivot leaves a unit column, never a NaN or
    a warning.  Several times cheaper than qr_thin, but neither orthonormal
    nor rank-revealing.  The block ``a`` may be overwritten.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {a.shape}")
    return scipy.linalg.lu(a, permute_l=True, overwrite_a=True)[0]


def svd_dense(a):
    """Full SVD of a dense matrix, returned as (U, s, V) with A = U diag(s) V^T."""
    a = np.asarray(a, dtype=float)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"SVD did not converge: {exc}") from exc
    return u, s, vt.T
