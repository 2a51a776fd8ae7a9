"""Randomized weighted SVD bases of the solution operator.

For the factorizations here, the solution operator G = L^{-1} is never
formed at large scale.  With the source weight Pi_X = F_X^T F_X and the
Euclidean norm on solutions, the weighted singular triplets of G are
obtained from the plain SVD of A = G F_X^{-1} through

    v_hat_i = F_X^{-1} z_i,     u_hat_i = G v_hat_i / lambda_i,

where A z_i = lambda_i w_i.  The triplets satisfy

    U^T U = I,   V^T Pi_X V = I,   G V = U diag(lambda),

and the randomized sketch only ever touches A through solves with L, L^T
and the weight factor.  Its power passes keep their span with a pivoted
LU (Li et al., ACM TOMS 43, 2017), the early ones in float32 where the
node-block factor allows it; the one orthonormal basis, a plain
Householder QR of a block solved in float64, is taken before the small
SVD of Q^T A (Halko, Martinsson & Tropp, SIAM Rev. 53, 2011, Alg. 4.4
and 5.1), which alone decides the numerical rank.  The dense oracle is
``bayes.dense_svd_oracle``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigInvalid, InvalidArgument, RankDeficientWarning, RankExhausted
from .linalg import checked_operand, lu_basis, qr_thin, r_svd

# Singular values below this fraction of the largest are treated as numerically zero.
TRUNCATION_RTOL = 1e-14

# Error curves evaluate truncation levels in blocks of at most this many
# consecutive levels, one column per level, so a block's extra memory is a
# few N x LEVEL_BLOCK arrays whatever the curve's length.
LEVEL_BLOCK = 64

# The sketch's last DOUBLE_PASSES power passes run in float64 whatever the
# factor; only the draw's forward block and the passes before those may
# run in float32.  Two float64 passes wash the float32 roundoff out of
# the leading values: on configs/rte.json the first 40 lambda moved by
# at most 8.0e-14 relative (seeds 0-3), against 9.4e-13 with one.
DOUBLE_PASSES = 2

# float32 span passes need every map they meet to have a 1-norm within
# 2^-SPAN_EXPONENT .. 2^SPAN_EXPONENT, so that a chain of them on a block
# of unit entries stays far inside float32's range (2^-126 .. 2^128), and
# the operator's estimated condition number kappa to keep kappa u_32,
# u_32 = 2^-24, at most SPAN_CONDITION: a float32 solve then still keeps
# about three digits of every column.  Transport's kappa is 13-450
# (m = 8-24, eps1 down to 1/16, g up to 0.99), kappa u_32 <= 2.7e-5.
SPAN_EXPONENT = 40
SPAN_CONDITION = 1e-3

# Rows of the Gaussian draw made at a time, 400 KiB at the benchmark's
# 100 columns.
DRAW_ROWS = 512


@dataclass(frozen=True)
class RsvdParams:
    """Randomized range sketch parameters, the ``rsvd`` config section.

    ``oversample`` extra sample vectors and ``power`` subspace iteration
    passes trade work for accuracy; the counter-based seed makes runs
    reproducible bit for bit.
    """

    rank: int = 50
    oversample: int = 10
    power: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ConfigInvalid("'rsvd.rank' must be at least 1")
        for key in ("oversample", "power", "seed"):
            if getattr(self, key) < 0:
                raise ConfigInvalid(f"'rsvd.{key}' must be nonnegative")


@dataclass
class SVDBasis:
    """Weighted singular triplets of a solution operator.

    ``left_vectors`` are orthonormal, ``right_vectors`` are
    Pi_X-orthonormal, and G right_vectors = left_vectors diag(singular_values).
    ``meta`` names the method that computed the basis; ``obf.read_basis``
    adds the family and the recorded config.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_dofs(self):
        """Unknowns of the problem, the rows of the vectors."""
        return self.left_vectors.shape[0]

    @property
    def rank(self):
        """Number of triplets."""
        return self.singular_values.size


def _apply_forward(solver, fx, w):
    """A w with A = L^{-1} F_X^{-1}, in the memory of w if it is an F-ordered block of
    float32 or float64, in the type of w."""
    return solver.solve(fx.solve(w, overwrite_b=True), overwrite_b=True)


def _apply_adjoint(solver, fx, w):
    """A^T w = F_X^{-T} L^{-T} w, in the memory of w as for _apply_forward."""
    return fx.solve_t(solver.solve_transpose(w, overwrite_b=True), overwrite_b=True)


def _gaussian_block(rng, n, k, dtype):
    """rng.standard_normal((n, k)) as an F-ordered block of ``dtype``, drawn DRAW_ROWS rows
    at a time, the same numbers in the same order, so that no float64 C-ordered copy of
    the block is ever made."""
    block = np.empty((n, k), dtype=dtype, order="F")
    for s in range(0, n, DRAW_ROWS):
        block[s:s + DRAW_ROWS] = rng.standard_normal((min(DRAW_ROWS, n - s), k))
    return block


def sketch_width(params: RsvdParams, n):
    """Columns of the sketch, rank + oversample; ConfigInvalid if they exceed the n unknowns."""
    k = params.rank + params.oversample
    if k > n:
        raise ConfigInvalid(
            f"'rsvd.rank' + 'rsvd.oversample' = {k} exceeds the {n} unknowns of the problem"
        )
    return k


def _in_float32_range(*norms):
    """Whether each norm lies within 2^-SPAN_EXPONENT .. 2^SPAN_EXPONENT (a NaN does not)."""
    return all(2.0 ** -SPAN_EXPONENT <= s <= 2.0 ** SPAN_EXPONENT for s in norms)


def span_dtype(solver, fx):
    """The type of the sketch's early, span-only passes.

    float32 when the solver is a node-block factor (``node_size`` > 1)
    whose ``norm`` ||L||_1 and ``inverse_norm``, the estimate of
    ||L^-1||_1, lie in float32's safe range and whose condition estimate
    keeps kappa 2^-24 <= SPAN_CONDITION, and the weight's largest band
    entry and inverse smallest pivot lie in that range too; float64
    otherwise.  SuperLU solves float32 in float64, so its passes gain
    nothing from it.
    """
    if solver.node_size == 1:
        return np.dtype(np.float64)
    norm, inverse = solver.norm, solver.inverse_norm
    band = np.abs(fx.band)
    single = (_in_float32_range(norm, inverse, band.max(), 1.0 / band[-1].min())
              and norm * inverse * 2.0 ** -24 <= SPAN_CONDITION)
    return np.dtype(np.float32 if single else np.float64)


def single_passes(solver, fx, params: RsvdParams):
    """How many power passes the sketch runs in float32: all but the last
    DOUBLE_PASSES when ``span_dtype`` is float32, else none."""
    if params.power <= DOUBLE_PASSES or span_dtype(solver, fx) != np.float32:
        return 0
    return params.power - DOUBLE_PASSES


def compute_basis(solver, fx, *, params: RsvdParams):
    """Randomized weighted SVD basis of the factorized operator's inverse.

    Parameters
    ----------
    solver : FactorizedSolver
        Factorization of the (sparse) forward operator L.
    fx : WeightFactor
        Source weight factor.
    params : RsvdParams, keyword only

    Notes
    -----
    The sketch draws rank + oversample Gaussian columns from a Philox
    stream and runs ``power`` subspace iteration passes.  Inside a pass only
    the span matters, so each operator application is followed by the
    cheap pivoted-LU basis ``lu_basis``, which keeps the block well
    conditioned and never drops a column.  The one orthonormalization is
    the Householder QR of the last forward block, which keeps all k
    columns; triplets come from the SVD of the small projected matrix
    Q^T A, taken by ``r_svd`` of the tall A^T Q that the adjoint leaves
    (QR in place, then the k x k SVD of R^T, LAPACK's own path for the
    wide Q^T A, with no transposed copy), which forms only the r_eff
    right vectors the basis keeps.  Rank is read only there:
    singular values below TRUNCATION_RTOL of the largest truncate the
    basis, with one RankDeficientWarning when fewer than ``rank`` remain.
    A sketch wider than the N unknowns raises ConfigInvalid.

    The first ``single_passes(solver, fx, params)`` passes, and the
    forward block of the draw before them, run in float32 where the
    node-block factor allows it (Halko, Martinsson & Tropp, Sec. 4.5: a
    pass keeps only a span): the draw is written into a float32 block, and
    solves, weight maps and LU bases keep float32.  The last DOUBLE_PASSES passes, A^T Q
    and the lift run in float64, so the leading triplets keep double
    accuracy.  With SuperLU every block is float64.

    Every stage overwrites one N x k working block, from the Gaussian draw
    to A^T Q, so the sketch holds that block and what its solves gather;
    the block becomes float64 once, at the first double pass, and its
    float32 memory is freed.  The QR of A^T Q runs in that block, and the
    lift holds the r_eff columns of V and of U.
    """
    n = solver.n
    k = sketch_width(params, n)
    rng = np.random.Generator(np.random.Philox(params.seed))
    single = single_passes(solver, fx, params)
    draw = _gaussian_block(rng, n, k, np.float32 if single else np.float64)
    y = _apply_forward(solver, fx, draw)  # in the draw's memory
    del draw
    for p in range(params.power):
        if p == single:  # the passes from here on run in double
            y = y.astype(np.float64, order="F", copy=False)
        y = _apply_forward(solver, fx, lu_basis(_apply_adjoint(solver, fx, lu_basis(y))))
    q = qr_thin(y)
    del y  # q lives in the same memory
    atq = _apply_adjoint(solver, fx, q)
    del q  # overwritten by A^T Q
    svals, v_hat = r_svd(atq, params.rank, TRUNCATION_RTOL, overwrite_a=True)
    del atq  # destroyed by the QR

    achieved = int(np.sum(svals > TRUNCATION_RTOL * svals[0]))  # the QR kept all k >= 1 columns
    r_eff = v_hat.shape[1]
    if r_eff < params.rank:
        warnings.warn(
            f"requested rank {params.rank} but sketch found numerical rank {achieved}",
            RankDeficientWarning,
            stacklevel=2,
        )
    lam = svals[:r_eff].copy()
    v_hat = fx.solve(v_hat, overwrite_b=True)  # F_X^-1 Z in place
    u_hat = solver.solve(v_hat)
    u_hat /= lam
    return SVDBasis(lam, u_hat, v_hat, {"method": "rsvd"})


class SourceProjector:
    """Coefficient map g -> V_n^T (Pi_X g): Pi_X-inner products with the leading n right vectors.

    Shared by the linear projection solve and the nonlinear fixed point so
    both take the identical floating-point path.  Building keeps only a view
    of V_n and the weight's Gram matrix Pi_X, so a build per level block is cheap.
    """

    def __init__(self, basis: SVDBasis, fx, n):
        if n > basis.rank:
            raise RankExhausted(f"requested n = {n} but basis holds rank {basis.rank}")
        self._v = basis.right_vectors[:, :n]
        self._gram = fx.gram()

    def coefficients(self, g):
        """Inner products of g, a vector or an N x L block, with the leading n right vectors."""
        return self._v.T @ (self._gram @ checked_operand(g, self._gram.shape[0]))


def level_blocks(n_values):
    """The truncation levels in order, cut into runs of at most LEVEL_BLOCK."""
    n_values = list(n_values)
    return [n_values[i:i + LEVEL_BLOCK] for i in range(0, len(n_values), LEVEL_BLOCK)]


def checked_levels(levels):
    """``levels`` as a list; InvalidArgument unless they are a non-empty sequence of
    integers >= 1.  A level above a basis's rank is RankExhausted where it is used."""
    levels = list(levels)
    if not levels or not all(isinstance(n, (int, np.integer)) and n >= 1 for n in levels):
        raise InvalidArgument(
            f"truncation levels must be a non-empty sequence of integers >= 1, got {levels}")
    return levels


def level_block(coeffs, levels):
    """Zero-padded coefficient block with one column per truncation level.

    Column j keeps the leading levels[j] rows of coeffs, a vector shared by
    all levels or a block with one column per level, and zeroes the rest.
    """
    coeffs = np.asarray(coeffs)
    rows = np.arange(coeffs.shape[0])[:, None]
    return np.where(rows < np.asarray(levels), coeffs.reshape(coeffs.shape[0], -1), 0.0)


def reconstruct(basis: SVDBasis, coeffs):
    """Assemble sum_i lambda_i c_i u_hat_i over the leading n triplets.

    ``coeffs`` is a vector of n coefficients or an n x L block, for instance
    from ``level_block``, whose L columns are assembled by one GEMM
    U_n (lambda_n * C); n is the number of rows.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[0]
    if n > basis.rank:
        raise RankExhausted(f"requested n = {n} but basis holds rank {basis.rank}")
    block = basis.left_vectors[:, :n] @ (basis.singular_values[:n, None] * coeffs.reshape(n, -1))
    return block if coeffs.ndim == 2 else block[:, 0]


def defining_relation_errors(basis: SVDBasis, solver, fx, indices=None):
    """Residuals of the four defining relations, for spot checks.

    Returns a dict with the maximum deviation of left orthonormality and
    right Pi_X-orthonormality and the relative residuals of G v_hat = lambda u_hat
    and G* u_hat = lambda v_hat over the sampled indices, whose columns are
    solved as one forward and one adjoint block.
    """
    r = basis.rank
    idx = list(range(r) if indices is None else indices)
    out = {
        "left_orthonormality": _orthonormality_defect(basis.left_vectors),
        "right_orthonormality": _orthonormality_defect(fx.apply(basis.right_vectors)),
    }

    lam = basis.singular_values[idx]
    u = basis.left_vectors[:, idx]
    v = basis.right_vectors[:, idx]
    # G v and G* u = Pi_X^{-1} G^T u, each as one block of solves; the adjoint overwrites a copy
    gv = solver.solve(v)
    gstar_u = fx.solve(_apply_adjoint(solver, fx, np.array(u, order="F")), overwrite_b=True)
    for key, image, target in (("forward_residual", gv, u), ("adjoint_residual", gstar_u, v)):
        # each column divided by a power of two just above its largest magnitude: exact,
        # so the ratio keeps its bits, and no norm overflows at any grid length
        scale = np.ldexp(1.0, np.frexp(np.abs(target).max(axis=0, initial=0.0))[1])
        image, target = image / scale, target / scale
        residual = np.linalg.norm(image - lam * target, axis=0)
        out[key] = float((residual / (lam * np.linalg.norm(target, axis=0))).max(initial=0.0))
    return out


def _orthonormality_defect(w):
    """max |W^T W - I|: how far the columns of W are from orthonormal."""
    return float(np.abs(w.T @ w - np.eye(w.shape[1])).max())
