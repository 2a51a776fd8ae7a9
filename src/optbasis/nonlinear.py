"""Semilinear solves in a reduced basis, plus the full-system reference.

The reduced solver treats L u + N(u) = f by a relaxed fixed point on the
basis coefficients: with c_i the weighted inner products of the effective
source against the right vectors,

    c_new_i = (1 - relax) c_i + relax <f - N(u(c)), v_hat_i>_X,
    u(c) = sum_i lambda_i c_i u_hat_i,

stopping when the weighted undamped step
sum_i lambda_i^2 |<f - N(u(c)), v_hat_i>_X - c_i|^2, the residual of the
reduced equations, drops below tol, so relax changes the path but not the
criterion.  For a vanishing nonlinearity one pass reproduces the linear
projection solve exactly, floating point included, because both share the
same coefficient code path.

The damped Newton solver on the full discrete system provides reference
solutions the reduced results are measured against, and
``check_linear_representation_bound`` gates the paper's truncation bound
on them: both curve commands run it at every level of their curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .basis import SourceProjector, SVDBasis, reconstruct
from .exceptions import BoundViolation, Diverged
from .grids import PhaseGrid
from .linalg import factorize
from .transport import sigma_b

# l-infinity trust region for the fixed-point coefficients
DIVERGENCE_LIMIT = 1e12


class CubicTerm:
    """Pointwise cubic nonlinearity u -> u^3."""

    tag = "cubic"

    def __call__(self, u):
        return u ** 3

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
        n_v = self.phase_grid.n_angles
        block = np.asarray(u, dtype=float).reshape(-1, n_v)
        mean = block.mean(axis=1)
        return ((self.sigma_b_values * mean)[:, None] * block).ravel()

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
    coefficients: np.ndarray
    solution: np.ndarray
    iterations: int
    converged: bool
    final_step: float
    step_history: list = field(default_factory=list)


def fixed_point_solve(basis: SVDBasis, fx, f, term, n, settings):
    """Relaxed fixed point for the reduced semilinear problem.

    ``settings`` is the config's NonlinearSettings.  Raises Diverged when a
    coefficient leaves the trust region; otherwise returns the result with
    ``converged`` indicating whether the undamped step fell below
    ``settings.tol`` within ``settings.max_iter`` sweeps.
    """
    relax = settings.relax
    projector = SourceProjector(basis, fx, n)
    lam = basis.singular_values[:n]
    coeffs = projector.coefficients(f)
    history = []
    converged = False
    step = np.inf
    iterations = 0
    for _ in range(settings.max_iter):
        u = reconstruct(basis, coeffs, n)
        raw = projector.coefficients(f - term(u))
        new = raw if relax == 1.0 else (1.0 - relax) * coeffs + relax * raw
        if not np.all(np.isfinite(new)) or (new.size and np.abs(new).max() > DIVERGENCE_LIMIT):
            raise Diverged(
                f"fixed point left the trust region after {iterations + 1} iterations"
            )
        step = float(np.sum(lam ** 2 * (raw - coeffs) ** 2))
        history.append(step)
        coeffs = new
        iterations += 1
        if step < settings.tol:
            converged = True
            break
    return FixedPointResult(
        coefficients=coeffs,
        solution=reconstruct(basis, coeffs, n),
        iterations=iterations,
        converged=converged,
        final_step=step,
        step_history=history,
    )


def check_linear_representation_bound(basis: SVDBasis, solver, fx, f, term, u_ref, n_values):
    """Verify the truncation bound of a converged reference at each n below the basis rank.

    With coefficients taken from the exact effective source f - N(u_ref),
    the reconstruction error obeys

        ||u_ref - u_n||_2 <= lambda_{n+1} (||f||_X + ||N(u_ref)||_X);

    ``term`` None means N = 0, where this is the projection bound.  One
    projector at the largest n gives every level's coefficients as a prefix.
    Returns (n, lhs, rhs) for each checked n.  Raises ValueError if u_ref does
    not solve the full system, RankExhausted for an n above the rank, and
    BoundViolation if the inequality fails beyond roundoff.  The output norm is
    Euclidean, matching the identity output weight used throughout.
    """
    u_ref = np.asarray(u_ref, dtype=float)
    f = np.asarray(f, dtype=float)
    nonlinear = term(u_ref) if term is not None else np.zeros_like(u_ref)
    residual = solver.operator @ u_ref + nonlinear - f
    if np.linalg.norm(residual) > 1e-8 * (1.0 + np.linalg.norm(f)):
        raise ValueError("u_ref does not solve the full system to reference accuracy")

    n_values = list(n_values)
    coeffs = SourceProjector(basis, fx, max(n_values)).coefficients(f - nonlinear)
    source_norm = fx.norm(f) + fx.norm(nonlinear)
    slack = 1e-12 * (1.0 + np.linalg.norm(u_ref))
    checked = []
    for n in n_values:
        if n >= basis.rank:  # lambda_{n+1} is not in the basis
            continue
        lhs = float(np.linalg.norm(u_ref - reconstruct(basis, coeffs[:n], n)))
        rhs = float(basis.singular_values[n] * source_norm)
        if lhs > rhs * (1.0 + 1e-8) + slack:
            raise BoundViolation(
                f"truncation bound fails at n = {n}: representation error {lhs:.6e} "
                f"exceeds lambda_{n + 1} (||f||_X + ||N(u)||_X) = {rhs:.6e}; the basis "
                "is not accurate enough there, raise rsvd.power or rsvd.oversample"
            )
        checked.append((n, lhs, rhs))
    return checked


def newton_reference(solver, term, f, tol=1e-12, max_iter=50):
    """Damped Newton solve of the full system L u + N(u) = f.

    ``solver`` is the factorized L.  Starts from its linear solve, halves
    the step until the residual decreases, and stops once
    ||residual|| <= tol (1 + ||f||).  Raises Diverged if damping stalls or
    the iteration budget runs out.
    """
    op = solver.operator
    f = np.asarray(f, dtype=float)
    u = solver.solve(f)
    f_scale = 1.0 + np.linalg.norm(f)
    for _ in range(max_iter):
        residual = op @ u + term(u) - f
        res_norm = np.linalg.norm(residual)
        if res_norm <= tol * f_scale:
            return u
        jac = (op + term.jacobian(u)).tocsc()
        direction = factorize(jac).solve(-residual)
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
