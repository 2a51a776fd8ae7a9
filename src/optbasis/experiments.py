"""Wiring from a validated configuration to assembled problems and error curves.

An error curve evaluates its truncation levels in blocks of up to
``basis.LEVEL_BLOCK`` consecutive levels: each block is solved as one
N x L block of reduced solutions, one column per level, and its errors are
column norms.  Every kernel takes its levels as a sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .basis import (SourceProjector, SVDBasis, checked_levels, compute_basis, level_block,
                    level_blocks, reconstruct)
from .bayes import DENSE_ORACLE_GUARD, check_dense_size, dense_svd_oracle
from .config import FAMILIES, ExperimentConfig
from .elliptic import EllipticMedium, assemble_elliptic, eval_source_elliptic
from .exceptions import ConfigInvalid, Diverged, NonFiniteResult, VanishingReference
from .grids import Grid2D, PhaseGrid
from .linalg import block_ordering, factorize
from .nonlinear import CubicTerm, TwoPhotonTerm, fixed_point_solve, newton_reference
from .transport import RteCoefficients, assemble_rte, eval_source_rte
from .weights import build_rte_weight, build_sobolev_weight, energy_norm, identity_weight


@dataclass
class ProblemSetup:
    """Assembled operator, weights and source for one experiment.

    ``ordering`` is the elimination order of its LU: for transport the
    minimum-degree order of the spatial nodes, each expanded into its
    angles (``linalg.block_ordering``), whose node size makes the factor
    one of dense node blocks; None, SuperLU's own minimum degree, for the
    other families.
    """

    config: ExperimentConfig
    operator: sp.csr_matrix
    fx: object
    source: np.ndarray
    grid: Grid2D
    phase_grid: PhaseGrid | None
    term: object | None
    ordering: np.ndarray | None

    @property
    def n_dofs(self):
        return self.operator.shape[0]

    @property
    def fy(self):
        """The Euclidean solution norm as a weight factor; only the benchmark's gates read it."""
        return identity_weight(self.n_dofs)

    def factorize(self):
        """Sparse LU of the operator in its ordering."""
        return factorize(self.operator, self.ordering)


# a discretization that overflows is reported once, as the ConfigInvalid below
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def build_problem(config: ExperimentConfig) -> ProblemSetup:
    """Assemble operator, weight factors, source and nonlinearity for a config.

    Raises ConfigInvalid naming the settings of a part that is not finite, or of
    a weight whose Gram matrix underflowed to a singular one.
    """
    grid = Grid2D(config.m_intervals, config.length)
    phase_grid = None
    term = None

    if config.pde == "elliptic":
        operator = assemble_elliptic(grid, EllipticMedium(config.eps))
        fx = build_sobolev_weight(config.p, grid)
        if config.is_semilinear:
            term = CubicTerm()
    elif config.pde == "rte":
        phase_grid = PhaseGrid(grid, config.n_angles)
        coeff = RteCoefficients(config.eps1, config.eps2, config.g)
        operator = assemble_rte(phase_grid, coeff)
        fx = build_rte_weight(config.p, phase_grid)
        if config.is_semilinear:
            term = TwoPhotonTerm(phase_grid, config.eps1)
    else:  # identity: diagnostic family with unit operator and unit weights
        operator = sp.identity(grid.n_interior, format="csr")
        fx = identity_weight(grid.n_interior)

    if config.source.kind == "sine":
        source = eval_source_elliptic(grid, config.source.amplitude)
    elif config.source.kind == "beam":
        source = eval_source_rte(phase_grid, config.source.amplitude)
    else:  # zero
        source = np.zeros(operator.shape[0])
    length = f"'grid.length' = {config.length!r}"
    medium = [f"'problem.{key}' = {getattr(config, key)!r}"
              for key in FAMILIES[config.family].medium]

    def finite(a):
        return None if np.isfinite(a).all() else "not finite"

    for part, defect, settings in (
            ("operator", finite(operator.data), [length, *medium]),
            ("weight", fx.defect(), [length]),
            ("source", finite(source), [length])):
        if defect:
            raise ConfigInvalid(f"the discretized {part} is {defect} at {', '.join(settings)}")
    ordering = None if phase_grid is None else block_ordering(operator, phase_grid.n_angles)
    return ProblemSetup(config, operator, fx, source, grid, phase_grid, term, ordering)


def compute_problem_basis(setup: ProblemSetup, solver=None) -> SVDBasis:
    """Randomized basis from the problem's ``config.rsvd``."""
    solver = solver if solver is not None else setup.factorize()
    return compute_basis(solver, setup.fx, params=setup.config.rsvd)


def green_matrix(setup: ProblemSetup, size_guard) -> np.ndarray:
    """Dense G = L^{-1} from one factorization, refused above ``size_guard`` before it."""
    check_dense_size(setup.n_dofs, size_guard)
    return setup.factorize().solve(np.eye(setup.n_dofs))


def oracle_problem_basis(setup: ProblemSetup, green=None) -> SVDBasis:
    """Dense-oracle basis for an assembled problem, from its G or one formed here."""
    green = green if green is not None else green_matrix(setup, DENSE_ORACLE_GUARD)
    return dense_svd_oracle(green, setup.fx)


def reference_solution(setup: ProblemSetup, solver):
    """Direct solve for linear problems, damped Newton for semilinear ones.

    ``solver`` is the factorized operator.  Newton keeps its own 1e-12
    tolerance; ``config.nonlinear`` sets only the fixed point.
    """
    if setup.term is None:
        return solver.solve(setup.source)
    return newton_reference(solver, setup.term, setup.source)


def solve_linear_projection(basis: SVDBasis, fx, f, levels):
    """Spectral solves of the linear problem truncated to the leading n triplets.

    ``levels`` is a sequence of truncation levels n, solved as one N x L
    block with one column per level.
    """
    levels = checked_levels(levels)
    coeffs = SourceProjector(basis, fx, max(levels)).coefficients(f)
    return reconstruct(basis, level_block(coeffs, levels))


@dataclass
class ErrorCurve:
    """Relative errors of reduced solutions against a reference, per basis size."""

    n_values: list
    rel_l2: list
    rel_energy: list | None = None

    def header(self):
        return "n,rel_l2,rel_energy" if self.rel_energy is not None else "n,rel_l2"

    def rows(self):
        if self.rel_energy is None:
            return [(n, l2) for n, l2 in zip(self.n_values, self.rel_l2)]
        return list(zip(self.n_values, self.rel_l2, self.rel_energy))


def error_curve(u_ref, basis: SVDBasis, fx, f, n_values, grid=None) -> ErrorCurve:
    """Linear projection errors over a range of truncation levels.

    Passing a Grid2D adds the relative energy seminorm column (spatial
    fields only).
    """
    return _curve(u_ref, n_values, grid,
                  lambda levels: solve_linear_projection(basis, fx, f, levels))


def nonlinear_error_curve(u_ref, basis: SVDBasis, fx, f, term, n_values,
                          settings, grid=None) -> ErrorCurve:
    """Fixed-point solution errors over a range of truncation levels.

    Each block of levels is one ``fixed_point_solve``.  Raises Diverged
    naming the first level whose fixed point stops short of ``settings.tol``.
    """
    def solutions(levels):
        result = fixed_point_solve(basis, fx, f, term, levels, settings)
        if not result.converged:
            j = int(np.flatnonzero(~(result.final_step < settings.tol))[0])
            raise Diverged(
                f"fixed point at n = {levels[j]} did not converge in {result.sweeps[j]} "
                f"iterations: final step {result.final_step[j]:.3e} against tol {settings.tol:.3e}"
            )
        return result.solution

    return _curve(u_ref, n_values, grid, solutions)


# an overflowing norm is reported once, as the NonFiniteResult below, not as warnings
@np.errstate(over="ignore", invalid="ignore")
def _curve(u_ref, n_values, grid, solutions) -> ErrorCurve:
    """Errors of solutions(levels), an N x L block, against u_ref, relative to its own norms.

    Raises NonFiniteResult rather than return an error computed from a
    non-finite norm or solution.

    Each level's error is taken from its own contiguous row of the
    transposed block, so it equals the norm of that column bitwise.
    """
    n_values = checked_levels(n_values)
    u_ref = np.asarray(u_ref, dtype=float)
    ref_l2 = np.linalg.norm(u_ref)
    if ref_l2 == 0.0:
        raise VanishingReference("reference solution vanishes, relative errors undefined")
    ref_energy = energy_norm(u_ref, grid) if grid is not None else None
    if ref_energy == 0.0:
        raise VanishingReference(
            "reference solution has zero energy seminorm, relative energy errors undefined"
        )
    l2, energy = [], []
    for levels in level_blocks(n_values):
        err = np.ascontiguousarray((solutions(levels) - u_ref[:, None]).T)  # one row per level
        l2 += (np.sqrt(np.vecdot(err, err)) / ref_l2).tolist()
        if grid is not None:
            energy += (energy_norm(err.T, grid) / ref_energy).tolist()
    if not np.isfinite([ref_l2, ref_energy or 0.0] + l2 + energy).all():
        raise NonFiniteResult("relative errors are not finite: a norm or a solution overflows")
    return ErrorCurve(n_values, l2, energy if grid is not None else None)
