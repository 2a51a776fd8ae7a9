"""Semilinear solves in a reduced basis, plus the full-system reference.

The reduced solver treats L u + N(u) = f by a relaxed fixed point on the
basis coefficients: with c_f = V_n^T Pi_X f the source coefficients and
c_i the iterate,

    c_new = (1 - relax) c + relax (c_f - V_n^T Pi_X N(u(c))),
    u(c) = sum_i lambda_i c_i u_hat_i,

stopping when the weighted undamped step
sum_i lambda_i^2 |(c_f - V_n^T Pi_X N(u(c)))_i - c_i|^2, the residual of the
reduced equations, drops below tol, so relax changes the path but not the
criterion.  The subtractive form keeps the linear limit exact: for a
vanishing nonlinearity the first sweep returns c_f bitwise, the
coefficients of the linear projection solve.

The fixed point takes a sequence of truncation levels and iterates them
at once: each level's coefficients are one column of a zero-padded
(max n) x L block, so a sweep is one GEMM for u, one for the projection
and the nonlinearity applied to the N x L block.  Each level keeps its own
stopping rule and drops out of later sweeps once converged; curves pass
blocks of ``basis.LEVEL_BLOCK`` levels, and one level is the list [n].

The damped Newton solver on the full discrete system provides reference
solutions the reduced results are measured against, and
``check_linear_representation_bound`` gates the paper's truncation bound
on them: both curve commands run it at every level of their curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import (SourceProjector, SVDBasis, checked_levels, level_block, level_blocks,
                    reconstruct)
from .exceptions import BoundViolation, Diverged, InvalidArgument, NonFiniteResult
from .grids import PhaseGrid
from .linalg import factorize
from .transport import sigma_b

# l-infinity trust region for the fixed-point coefficients
DIVERGENCE_LIMIT = 1e12


class CubicTerm:
    """Pointwise cubic nonlinearity u -> u^3."""

    tag = "cubic"

    def __call__(self, u):
        return u * u * u  # numpy's general power is about 50 times slower

    def jacobian(self, u):
        return sp.diags(3.0 * u ** 2).tocsr()


class TwoPhotonTerm:
    """Two-photon absorption: sigma_b(x) <u>(x) u(x, v), with <u> the angular mean."""

    tag = "two_photon"

    def __init__(self, phase_grid: PhaseGrid, eps1):
        self.phase_grid = phase_grid
        x1, x2 = phase_grid.spatial.interior_flat()
        self.sigma_b_values = sigma_b(x1, x2, eps1)

    def __call__(self, u):
        """N(u) of a vector, or of each column of an N x L block."""
        u = np.asarray(u, dtype=float)
        block = u.reshape(self.sigma_b_values.size, self.phase_grid.n_angles, -1)
        weighted_mean = self.sigma_b_values[:, None] * block.mean(axis=1)  # (n_s, L)
        return (weighted_mean[:, None, :] * block).reshape(u.shape)

    def jacobian(self, u):
        n_v = self.phase_grid.n_angles
        n_s = self.phase_grid.spatial.n_interior
        block = np.asarray(u, dtype=float).reshape(n_s, n_v)
        mean = block.mean(axis=1)
        diag_part = sp.kron(sp.diags(self.sigma_b_values * mean), sp.identity(n_v))
        sb_phase = np.repeat(self.sigma_b_values, n_v)
        ones = np.ones((n_v, n_v)) / n_v
        mean_part = sp.diags(sb_phase * np.asarray(u, float)) @ sp.kron(
            sp.identity(n_s), sp.csr_matrix(ones)
        )
        return (diag_part + mean_part).tocsr()


@dataclass
class FixedPointResult:
    """Fixed-point iterates at a block of L truncation levels.

    ``coefficients`` (zero-padded to the largest n) and ``solution`` hold
    one column per level, ``sweeps`` and ``final_step`` one entry and
    ``step_history`` one list of undamped steps per level.  ``iterations``
    counts the sweeps of all levels together and ``converged`` says whether
    every level's undamped step fell below tol.
    """

    coefficients: np.ndarray
    solution: np.ndarray
    iterations: int
    converged: bool
    sweeps: np.ndarray
    final_step: np.ndarray
    step_history: list


def fixed_point_solve(basis: SVDBasis, fx, f, term, levels, settings):
    """Relaxed fixed point for the reduced semilinear problem at each of ``levels``.

    ``levels`` is a sequence of truncation levels iterated together as one
    block; ``settings`` is the config's NonlinearSettings.  Each level stops
    once its undamped step falls below ``settings.tol``, or after
    ``settings.max_iter`` sweeps unconverged.  A level whose coefficients
    leave the trust region stops too; if it is the first failing level in
    the given order, Diverged is raised naming it, otherwise the result
    reports ``converged`` False.
    """
    levels = np.asarray(checked_levels(levels), dtype=int)
    relax = settings.relax
    projector = SourceProjector(basis, fx, int(levels.max()))
    source = projector.coefficients(f)
    lam2 = basis.singular_values[:source.shape[0], None] ** 2
    coeffs = level_block(source, levels)
    sweeps = np.zeros(levels.size, dtype=int)
    steps = np.full(levels.size, np.inf)
    history = [[] for _ in levels]
    left = np.zeros(levels.size, dtype=bool)  # left the trust region
    active = np.arange(levels.size)
    for _ in range(settings.max_iter):
        if not active.size:
            break
        c = coeffs[:, active]
        raw = level_block(source[:, None] - projector.coefficients(term(reconstruct(basis, c))),
                          levels[active])
        new = raw if relax == 1.0 else (1.0 - relax) * c + relax * raw
        sweeps[active] += 1
        out = ~np.all(np.isfinite(new), axis=0) | (
            np.abs(new).max(axis=0, initial=0.0) > DIVERGENCE_LIMIT)
        step = np.sum(lam2 * (raw - c) ** 2, axis=0)
        left[active[out]] = True
        active, new, step = active[~out], new[:, ~out], step[~out]
        coeffs[:, active] = new
        steps[active] = step
        for j, s in zip(active, step.tolist()):
            history[j].append(s)
        active = active[step >= settings.tol]
    failed = np.flatnonzero(~(steps < settings.tol))
    if failed.size and left[failed[0]]:
        j = failed[0]
        raise Diverged(f"fixed point at n = {levels[j]} left the trust region "
                       f"after {sweeps[j]} iterations")
    return FixedPointResult(coeffs, reconstruct(basis, coeffs), int(sweeps.sum()),
                            not failed.size, sweeps, steps, history)


# an overflowing norm is reported once, as the BoundViolation below, not as warnings
@np.errstate(over="ignore", invalid="ignore")
def check_linear_representation_bound(basis: SVDBasis, solver, fx, f, term, u_ref, n_values):
    """Verify the truncation bound of a converged reference at each n below the basis rank.

    With coefficients taken from the exact effective source f - N(u_ref),
    the reconstruction error obeys

        ||u_ref - u_n||_2 <= lambda_{n+1} (||f||_X + ||N(u_ref)||_X);

    ``term`` None means N = 0, where this is the projection bound.  One
    projector at the largest n gives every level's coefficients as a prefix,
    and each block of levels is reconstructed by one GEMM.
    Returns (n, lhs, rhs) for each checked n.  Raises InvalidArgument if a
    level is not an integer of at least 1 or u_ref does not solve the full
    system, RankExhausted for an n above the rank, and BoundViolation at the
    first n whose inequality fails beyond roundoff or whose sides are not
    finite numbers.  The solution norm is Euclidean, as everywhere in the
    package; only sources carry the weight Pi_X.
    """
    n_values = checked_levels(n_values)
    u_ref = np.asarray(u_ref, dtype=float)
    f = np.asarray(f, dtype=float)
    nonlinear = term(u_ref) if term is not None else np.zeros_like(u_ref)
    residual = solver.operator @ u_ref + nonlinear - f
    if np.linalg.norm(residual) > 1e-8 * (1.0 + np.linalg.norm(f)):
        raise InvalidArgument("u_ref does not solve the full system to reference accuracy")

    coeffs = SourceProjector(basis, fx, max(n_values)).coefficients(f - nonlinear)
    source_norm = fx.norm(f) + fx.norm(nonlinear)
    slack = 1e-12 * (1.0 + np.linalg.norm(u_ref))
    checked = []
    # lambda_{n+1} is in the basis only below its rank
    for levels in level_blocks(n for n in n_values if n < basis.rank):
        u_n = reconstruct(basis, level_block(coeffs[:max(levels)], levels))
        errors = np.linalg.norm(u_ref[:, None] - u_n, axis=0)
        for n, lhs in zip(levels, errors.tolist()):
            rhs = float(basis.singular_values[n] * source_norm)
            if not np.isfinite(lhs + rhs):
                raise BoundViolation(f"truncation bound at n = {n} is not finite: representation "
                                     f"error {lhs:.6e}, bound {rhs:.6e}; the norms overflow")
            if lhs > rhs * (1.0 + 1e-8) + slack:
                raise BoundViolation(
                    f"truncation bound fails at n = {n}: representation error {lhs:.6e} "
                    f"exceeds lambda_{n + 1} (||f||_X + ||N(u)||_X) = {rhs:.6e}; the basis "
                    "is not accurate enough there, raise rsvd.power or rsvd.oversample"
                )
            checked.append((n, lhs, rhs))
    return checked


# an overflowing residual is reported once, as the NonFiniteResult below, not as warnings
@np.errstate(over="ignore", invalid="ignore")
def newton_reference(solver, term, f, tol=1e-12, max_iter=50):
    """Damped Newton solve of the full system L u + N(u) = f.

    ``solver`` is the factorized L.  Each Jacobian, L plus a term with L's
    pattern, is factored in L's node size, so in L's node order.  Starts
    from its linear solve, halves the step until the residual decreases,
    and stops once ||residual|| <= tol (1 + ||f||).  Raises
    NonFiniteResult if the residual's norm overflows or is NaN, and
    Diverged if damping stalls or the iteration budget runs out.
    """
    op = solver.operator
    f = np.asarray(f, dtype=float)
    u = solver.solve(f)
    f_scale = 1.0 + np.linalg.norm(f)
    for _ in range(max_iter):
        residual = op @ u + term(u) - f
        res_norm = np.linalg.norm(residual)
        if not np.isfinite(res_norm):
            raise NonFiniteResult("Newton residual is not finite: the source or the "
                                  "solution overflows")
        if res_norm <= tol * f_scale:
            return u
        jac = op + term.jacobian(u)
        direction = factorize(jac, solver.node_size).solve(-residual)
        alpha = 1.0
        while alpha >= 2.0 ** -30:
            trial = u + alpha * direction
            if np.linalg.norm(op @ trial + term(trial) - f) < res_norm:
                u = trial
                break
            alpha *= 0.5
        else:
            raise Diverged("Newton line search stalled")
    residual = op @ u + term(u) - f
    if np.linalg.norm(residual) <= tol * f_scale:
        return u
    raise Diverged(f"Newton did not reach tolerance in {max_iter} iterations")
