"""Bayesian reconstruction and Kolmogorov width checks, dense and small.

Everything here is a brute-force verification path.  The functions take a
dense operator G and put a white-noise prior on its source, so the solution
u = G f has covariance C = G G^T; conditioning on n exact linear
observations psi = M^T u gives

    mean = K^T Theta^{-1} psi,
    cov  = C - K^T Theta^{-1} K,

with K = M^T C and Theta = M^T C M.  The mean is a linear reconstruction
W psi with W = K^T Theta^{-1}, and trace(C) = ||G||_F^2 splits exactly into
the captured part trace(K^T Theta^{-1} K) and the residual trace(cov).
Formed through B = M^T G, K = B G^T and Theta = B B^T cost O(n N^2);
only the posterior covariance forms C itself.  The CLI check hands them the
weighted operator A = G F_X^{-1} from ``weighted_operator``: white noise on
F_X f is the prior f ~ N(0, Pi_X^{-1}), under which u has covariance A A^T,
and the optimal observations are A's leading left singular vectors, which
the dense SVD oracle computes.

The n-width side measures the worst-case approximation error of a trial
subspace through the same A: the best value over all n-dimensional
subspaces is singular value n+1 of A, attained by the leading right
singular subspace.  ``nwidth_eval`` reads only the largest singular value
of a residual, by ARPACK.  ``experiments.green_matrix`` forms the dense G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .basis import SVDBasis
from .exceptions import (
    BoundViolation,
    DimensionMismatch,
    ProblemTooLarge,
    RankDeficient,
    SingularTheta,
)
from .linalg import svd_dense

DENSE_BAYES_GUARD = 2048
DENSE_ORACLE_GUARD = 4096


def check_dense_size(n_dofs, size_guard):
    """Raise ProblemTooLarge if a dense N x N path would exceed its guard."""
    if n_dofs > size_guard:
        raise ProblemTooLarge(
            f"dense verification limited to {size_guard} unknowns, got {n_dofs}"
        )


def _as_green(g, size_guard):
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatch(f"expected a square dense operator, got shape {g.shape}")
    check_dense_size(g.shape[0], size_guard)
    return g


def _as_obs_matrix(m, n_dofs):
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2 or m.shape[0] != n_dofs:
        raise DimensionMismatch(
            f"observation matrix shape {m.shape} does not match state dimension {n_dofs}"
        )
    return m


def _solve_spd(theta, rhs, context):
    """Solve with a symmetric positive definite matrix, or raise SingularTheta."""
    n = theta.shape[0]
    if n == 0:
        return np.zeros_like(rhs)
    eigs = np.linalg.eigvalsh(0.5 * (theta + theta.T))
    if eigs[-1] <= 0.0 or eigs[0] <= n * np.finfo(float).eps * eigs[-1]:
        raise SingularTheta(f"{context}: observation Gram matrix numerically singular")
    c, low = scipy.linalg.cho_factor(theta)
    return scipy.linalg.cho_solve((c, low), rhs)


@dataclass
class Posterior:
    """Gaussian posterior of u = G f under white-noise f and exact observations psi."""

    mean: np.ndarray
    covariance: np.ndarray


def _conditioned(green, m, context):
    """B = M^T G, K = B G^T and Theta^{-1} K for Theta = B B^T, at O(n N^2)."""
    b = m.T @ green
    k = b @ green.T  # (n_obs, N)
    return b, k, _solve_spd(b @ b.T, k, context)


def posterior(green, obs_matrix, psi):
    """Condition the white-noise pushforward on exact observations M^T u = psi."""
    green = _as_green(green, DENSE_BAYES_GUARD)
    m = _as_obs_matrix(obs_matrix, green.shape[0])
    _, k, sol = _conditioned(green, m, "posterior")
    cov = green @ green.T - k.T @ sol
    return Posterior(sol.T @ np.asarray(psi, dtype=float), 0.5 * (cov + cov.T))


def trace_objective(green, obs_matrix):
    """Captured-variance objective trace(K^T Theta^{-1} K)."""
    green = _as_green(green, DENSE_BAYES_GUARD)
    m = _as_obs_matrix(obs_matrix, green.shape[0])
    _, k, sol = _conditioned(green, m, "trace objective")
    return float(np.vdot(k, sol))


def check_reconstruction_bound(green, obs_matrix, f):
    """Verify ||u - W psi|| <= sqrt(trace(cov)) ||f|| for one source draw.

    Returns (error, bound) and raises BoundViolation if the inequality
    fails beyond roundoff.
    """
    green = _as_green(green, DENSE_BAYES_GUARD)
    f = np.asarray(f, dtype=float)
    u = green @ f
    m = _as_obs_matrix(obs_matrix, green.shape[0])
    b, k, sol = _conditioned(green, m, "posterior")
    error = float(np.linalg.norm(u - sol.T @ (b @ f)))  # psi = M^T G f = B f
    residual_trace = max(float(np.vdot(green, green) - np.vdot(k, sol)), 0.0)
    bound = float(np.sqrt(residual_trace) * np.linalg.norm(f))
    if error > bound * (1.0 + 1e-10) + 1e-12 * (1.0 + np.linalg.norm(u)):
        raise BoundViolation(
            f"reconstruction error {error:.6e} exceeds trace bound {bound:.6e}"
        )
    return error, bound


def weighted_operator(green, fx):
    """Dense A = G F_X^{-1} for a given dense solution operator."""
    return fx.solve_t(np.asarray(green, dtype=float).T).T


def dense_svd_oracle(green, fx):
    """All weighted singular triplets of a dense G by brute force, for verification.

    Runs a full SVD of A = G F_X^{-1}, keeps its left vectors and maps its
    right vectors back through F_X^{-1}.  Refuses operators above
    DENSE_ORACLE_GUARD unknowns.
    """
    green = _as_green(green, DENSE_ORACLE_GUARD)
    u_hat, svals, z = svd_dense(weighted_operator(green, fx))
    return SVDBasis(svals, u_hat, fx.solve(z), {"method": "dense_oracle"})


def nwidth_eval(a, fx, v_n):
    """Worst-case weighted error of approximating from span(v_n).

    ``a`` is the dense weighted operator A = G F_X^{-1} from
    ``weighted_operator``, formed once by the caller.  Computes
    sigma_max((I - Q Q^T) A) where Q is an orthonormal basis of the image
    A F_X v_n = G v_n of the trial space; the residual is applied as two
    products, never formed.  An empty v_n returns the largest singular value of A.
    """
    a = _as_green(a, DENSE_BAYES_GUARD)
    n_dofs = a.shape[0]
    v_n = np.asarray(v_n, dtype=float)
    if v_n.size == 0:
        v_n = v_n.reshape(n_dofs, 0)
    if v_n.ndim == 1:
        v_n = v_n[:, None]
    if v_n.shape[0] != n_dofs:
        raise DimensionMismatch(f"trial basis shape {v_n.shape} does not match N = {n_dofs}")

    if v_n.shape[1] == 0:
        return _sigma_max(a)

    diag = np.abs(np.diag(scipy.linalg.qr(v_n, mode="r", pivoting=True)[0]))
    if diag[0] == 0.0 or diag[-1] <= 1e-12 * diag[0]:
        raise RankDeficient("trial basis does not have full column rank")

    q = np.linalg.qr(a @ fx.apply(v_n), mode="reduced")[0]

    def deflate(y):
        return y - q @ (q.T @ y)

    return _sigma_max(spla.LinearOperator(a.shape, matvec=lambda x: deflate(a @ x),
                                          rmatvec=lambda y: a.T @ deflate(y), dtype=float))


def _sigma_max(a):
    """Largest singular value of a square matrix or operator, by ARPACK from a Philox start."""
    v0 = np.random.Generator(np.random.Philox(0)).standard_normal(a.shape[0])
    return float(spla.svds(a, k=1, tol=0, v0=v0, return_singular_vectors=False)[0])
