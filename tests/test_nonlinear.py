"""Reduced semilinear fixed point, nonlinear terms and the Newton reference."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from optbasis.basis import RsvdParams, SourceProjector, compute_basis, reconstruct
from optbasis.bayes import dense_svd_oracle
from optbasis.config import NonlinearSettings
from optbasis.elliptic import EllipticMedium, assemble_elliptic, eval_source_elliptic
from optbasis.exceptions import ConfigInvalid, Diverged, RankExhausted
from optbasis.grids import Grid2D, PhaseGrid
from optbasis.linalg import factorize
from optbasis.nonlinear import (
    CubicTerm,
    TwoPhotonTerm,
    check_linear_representation_bound,
    fixed_point_solve,
    newton_reference,
)
from optbasis.weights import build_sobolev_weight, identity_weight


def semilinear_setup(m=8, p=1, amplitude=100.0):
    grid = Grid2D(m)
    op = assemble_elliptic(grid, EllipticMedium(1.0))
    solver = factorize(op)
    fx = build_sobolev_weight(p, grid)
    f = eval_source_elliptic(grid, amplitude)
    return solver, fx, f


def green_of(solver):
    """Dense G = L^{-1} from a factorization, for the dense oracle."""
    return solver.solve(np.eye(solver.n))


class TestTerms:
    def test_cubic_values_and_jacobian(self):
        u = np.array([1.0, -2.0, 0.5])
        term = CubicTerm()
        np.testing.assert_array_equal(term(u), [1.0, -8.0, 0.125])
        np.testing.assert_allclose(
            term.jacobian(u).toarray(), np.diag([3.0, 12.0, 0.75]), atol=1e-15
        )

    def test_two_photon_matches_manual_angular_mean(self):
        pg = PhaseGrid(Grid2D(4), 5)
        term = TwoPhotonTerm(pg, eps1=0.5)
        rng = np.random.Generator(np.random.Philox(0))
        u = rng.normal(size=pg.n_dofs)
        block = u.reshape(9, 5)
        expected = (term.sigma_b_values * block.mean(axis=1))[:, None] * block
        np.testing.assert_allclose(term(u), expected.ravel(), atol=1e-14)

    @pytest.mark.parametrize("shape", [(961,), (961, 64)], ids=["vector", "block"])
    def test_cubic_is_the_third_power(self, shape):
        u = 3.0 * np.random.Generator(np.random.Philox(4)).standard_normal(shape)
        np.testing.assert_allclose(CubicTerm()(u), u ** 3, rtol=1e-15, atol=0)

    def test_two_photon_acts_on_each_column_of_a_block(self):
        # nonnegative intensities, so no angular mean cancels
        pg = PhaseGrid(Grid2D(6), 8)
        term = TwoPhotonTerm(pg, eps1=0.5)
        block = np.random.Generator(np.random.Philox(5)).uniform(0.1, 1.0, (pg.n_dofs, 7))
        out = term(block)
        assert out.shape == block.shape
        for j in range(block.shape[1]):
            np.testing.assert_allclose(out[:, j], term(block[:, j]), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("make", [
        lambda: (CubicTerm(), 27),
        lambda: (TwoPhotonTerm(PhaseGrid(Grid2D(4), 3), 1.0), 27),
    ])
    def test_jacobian_is_the_directional_derivative(self, make):
        term, n = make()
        rng = np.random.Generator(np.random.Philox(2))
        u = rng.normal(size=n)
        d = rng.normal(size=n)
        t = 1e-7
        fd = (term(u + t * d) - term(u)) / t
        np.testing.assert_allclose(term.jacobian(u) @ d, fd, atol=1e-5)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=-3.0, max_value=3.0), st.integers(min_value=0, max_value=200))
    def test_cubic_is_odd_and_degree_three_homogeneous(self, alpha, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        u = rng.normal(size=7)
        term = CubicTerm()
        np.testing.assert_allclose(term(-u), -term(u), atol=1e-12)
        np.testing.assert_allclose(term(alpha * u), alpha**3 * term(u), atol=1e-9)

    def test_two_photon_is_degree_two_homogeneous(self):
        pg = PhaseGrid(Grid2D(4), 3)
        term = TwoPhotonTerm(pg, 1.0)
        rng = np.random.Generator(np.random.Philox(3))
        u = rng.normal(size=pg.n_dofs)
        np.testing.assert_allclose(term(2.5 * u), 6.25 * term(u), rtol=1e-12)


def unresolved(basis, fx, g, n):
    """g - V_n c(g): the part of g that the leading n right vectors do not resolve."""
    return g - basis.right_vectors[:, :n] @ SourceProjector(basis, fx, n).coefficients(g)


class TestProjection:
    def test_split_reassembles_the_input(self):
        # the split f = V_n c + r is weighted-orthogonal, so the X-norms obey Pythagoras
        solver, fx, f = semilinear_setup()
        basis = dense_svd_oracle(green_of(solver), fx)
        coeffs = SourceProjector(basis, fx, 10).coefficients(f)
        resid = unresolved(basis, fx, f, 10)
        assert fx.norm(f) ** 2 == pytest.approx(coeffs @ coeffs + fx.norm(resid) ** 2,
                                                rel=1e-12)

    def test_residual_is_weighted_orthogonal_to_the_span(self):
        solver, fx, f = semilinear_setup()
        basis = dense_svd_oracle(green_of(solver), fx)
        resid = unresolved(basis, fx, f, 10)
        inner = basis.right_vectors[:, :10].T @ fx.apply_t(fx.apply(resid))
        np.testing.assert_allclose(inner, 0.0, atol=1e-10)

    def test_projection_of_a_span_member_is_itself(self):
        solver, fx, _ = semilinear_setup()
        basis = dense_svd_oracle(green_of(solver), fx)
        g = basis.right_vectors[:, :5] @ np.arange(1.0, 6.0)
        np.testing.assert_allclose(SourceProjector(basis, fx, 5).coefficients(g),
                                   np.arange(1.0, 6.0), atol=1e-10)
        assert np.linalg.norm(unresolved(basis, fx, g, 5)) < 1e-10


class TestFixedPoint:
    def test_linear_limit_is_one_pass_and_bitwise_equal_to_projection(self, zero_term):
        solver, fx, f = semilinear_setup()
        basis = compute_basis(solver, fx, params=RsvdParams(12, 20, 2, seed=0))
        result = fixed_point_solve(basis, fx, f, zero_term, [12], NonlinearSettings())
        assert result.converged
        assert result.iterations == 1
        assert result.final_step[0] == 0.0
        direct = reconstruct(basis, SourceProjector(basis, fx, 12).coefficients(f))
        np.testing.assert_array_equal(result.solution[:, 0], direct)

    def test_full_rank_cubic_agrees_with_newton(self):
        solver, fx, f = semilinear_setup(m=8, amplitude=100.0)
        basis = dense_svd_oracle(green_of(solver), fx)
        term = CubicTerm()
        result = fixed_point_solve(basis, fx, f, term, [basis.rank], NonlinearSettings(tol=1e-24))
        reference = newton_reference(solver, term, f)
        assert result.converged
        np.testing.assert_allclose(result.solution[:, 0], reference, atol=1e-8)

    def test_solution_actually_satisfies_the_reduced_equations(self):
        # at convergence the coefficients reproduce the projection of the
        # effective source f - N(u)
        solver, fx, f = semilinear_setup()
        basis = dense_svd_oracle(green_of(solver), fx)
        n = 20
        result = fixed_point_solve(basis, fx, f, CubicTerm(), [n],
                                   NonlinearSettings(tol=1e-26, max_iter=2000))
        projector = SourceProjector(basis, fx, n)
        fixed = projector.coefficients(f - CubicTerm()(result.solution[:, 0]))
        np.testing.assert_allclose(result.coefficients[:, 0], fixed, atol=1e-11)

    def test_under_relaxation_reaches_the_same_fixed_point(self):
        solver, fx, f = semilinear_setup()
        basis = dense_svd_oracle(green_of(solver), fx)
        full = fixed_point_solve(basis, fx, f, CubicTerm(), [15], NonlinearSettings(tol=1e-24))
        damped = fixed_point_solve(basis, fx, f, CubicTerm(), [15],
                                   NonlinearSettings(tol=1e-24, max_iter=2000, relax=0.5))
        assert damped.converged
        np.testing.assert_allclose(damped.solution, full.solution, atol=1e-9)
        assert damped.iterations >= full.iterations

    def test_relaxation_does_not_loosen_the_stopping_rule(self):
        # the step is the undamped one, the residual of the reduced equations:
        # from the same start a damped sweep records the full step, not relax^2 of it
        solver, fx, f = semilinear_setup()
        basis = dense_svd_oracle(green_of(solver), fx)
        full = fixed_point_solve(basis, fx, f, CubicTerm(), [15], NonlinearSettings(max_iter=1))
        damped = fixed_point_solve(basis, fx, f, CubicTerm(), [15],
                                   NonlinearSettings(max_iter=1, relax=0.05))
        assert damped.step_history == full.step_history
        assert damped.final_step[0] > 0.0
        tol = 0.01 * full.final_step[0]  # above the damped step 0.05^2 * full.final_step
        result = fixed_point_solve(basis, fx, f, CubicTerm(), [15],
                                   NonlinearSettings(tol=tol, max_iter=1, relax=0.05))
        assert not result.converged

    def test_step_history_is_recorded(self):
        solver, fx, f = semilinear_setup()
        basis = dense_svd_oracle(green_of(solver), fx)
        result = fixed_point_solve(basis, fx, f, CubicTerm(), [10], NonlinearSettings())
        assert len(result.step_history[0]) == result.iterations
        assert result.step_history[0][-1] == result.final_step[0]

    def test_divergence_is_detected(self):
        fi = identity_weight(6)
        solver = factorize(sp.identity(6, format="csc"))
        basis = dense_svd_oracle(green_of(solver), fi)
        f = np.full(6, 50.0)  # cubic blowup: |u| grows every sweep
        with pytest.raises(Diverged):
            fixed_point_solve(basis, fi, f, CubicTerm(), [6], NonlinearSettings(max_iter=200))

    def test_invalid_relaxation_rejected(self):
        # the settings are checked once, where they are made
        for relax in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigInvalid, match=r"'nonlinear.relax' must be in \(0, 1\]"):
                NonlinearSettings(relax=relax)


class TestRepresentationBound:
    def test_holds_for_converged_reference(self):
        solver, fx, f = semilinear_setup(m=8)
        basis = dense_svd_oracle(green_of(solver), fx)
        term = CubicTerm()
        u_ref = newton_reference(solver, term, f)
        checked = check_linear_representation_bound(
            basis, solver, fx, f, term, u_ref, (3, 8, 15)
        )
        assert [n for n, _, _ in checked] == [3, 8, 15]
        for _, lhs, rhs in checked:
            assert lhs <= rhs * (1 + 1e-8) + 1e-12

    @pytest.mark.parametrize("term", [CubicTerm(), None])
    def test_each_level_projects_the_effective_source(self, term):
        # one projector's coefficient prefix equals a projector built per level;
        # without a term the bound is the projection bound of the linear problem
        solver, fx, f = semilinear_setup(m=8)
        basis = dense_svd_oracle(green_of(solver), fx)
        u_ref = newton_reference(solver, term, f) if term else solver.solve(f)
        nonlinear = term(u_ref) if term else np.zeros_like(f)
        for n, lhs, rhs in check_linear_representation_bound(
                basis, solver, fx, f, term, u_ref, range(1, 20)):
            coeffs = SourceProjector(basis, fx, n).coefficients(f - nonlinear)
            u_n = reconstruct(basis, coeffs)
            assert lhs == pytest.approx(np.linalg.norm(u_ref - u_n), rel=1e-12)
            assert rhs == basis.singular_values[n] * (fx.norm(f) + fx.norm(nonlinear))

    def test_levels_at_the_rank_are_skipped(self):
        solver, fx, f = semilinear_setup(m=6)
        basis = dense_svd_oracle(green_of(solver), fx)
        u_ref = newton_reference(solver, CubicTerm(), f)
        checked = check_linear_representation_bound(basis, solver, fx, f, CubicTerm(),
                                                    u_ref, [1, basis.rank - 1, basis.rank])
        assert [n for n, _, _ in checked] == [1, basis.rank - 1]

    def test_unconverged_reference_rejected(self):
        solver, fx, f = semilinear_setup()
        basis = dense_svd_oracle(green_of(solver), fx)
        with pytest.raises(ValueError, match="reference accuracy"):
            check_linear_representation_bound(
                basis, solver, fx, f, CubicTerm(), np.zeros(solver.n) + 1.0, [5]
            )

    def test_rank_exhaustion_raises(self):
        solver, fx, f = semilinear_setup()
        basis = dense_svd_oracle(green_of(solver), fx)
        u_ref = newton_reference(solver, CubicTerm(), f)
        with pytest.raises(RankExhausted):
            check_linear_representation_bound(
                basis, solver, fx, f, CubicTerm(), u_ref, [3, basis.rank + 1]
            )


class TestNewtonReference:
    def test_satisfies_the_full_system(self):
        solver, fx, f = semilinear_setup(m=8, amplitude=100.0)
        term = CubicTerm()
        u = newton_reference(solver, term, f, tol=1e-13)
        resid = solver.operator @ u + term(u) - f
        assert np.linalg.norm(resid) <= 1e-13 * (1 + np.linalg.norm(f))

    def test_linear_problem_returns_the_direct_solve(self, zero_term):
        solver, fx, f = semilinear_setup()
        u = newton_reference(solver, zero_term, f)
        np.testing.assert_allclose(u, solver.solve(f), atol=1e-12)

    def test_two_photon_reference_on_the_phase_grid(self):
        from optbasis.transport import RteCoefficients, assemble_rte, eval_source_rte

        pg = PhaseGrid(Grid2D(6), 6)
        op = assemble_rte(pg, RteCoefficients())
        term = TwoPhotonTerm(pg, 1.0)
        f = eval_source_rte(pg, 0.5)
        u = newton_reference(factorize(op), term, f)
        resid = op @ u + term(u) - f
        assert np.linalg.norm(resid) <= 1e-12 * (1 + np.linalg.norm(f))
        assert u.min() > 0  # absorption only dims the beam, never flips it

    def test_each_jacobian_is_factored_in_the_operators_ordering(self, monkeypatch):
        from optbasis import nonlinear
        from optbasis.transport import RteCoefficients, assemble_rte, eval_source_rte

        for n_angles in (6, 5):
            pg = PhaseGrid(Grid2D(6), n_angles)
            op = assemble_rte(pg, RteCoefficients())
            term = TwoPhotonTerm(pg, 1.0)
            f = eval_source_rte(pg, 50.0)
            solver = factorize(op, n_angles)
            calls, factors = [], []

            def recording(jac, node_size=1):
                calls.append((jac, node_size))
                factors.append(factorize(jac, node_size))
                return factors[-1]

            monkeypatch.setattr(nonlinear, "factorize", recording)
            u = newton_reference(solver, term, f)
            assert len(calls) >= 2
            assert all(node_size == solver.node_size for _, node_size in calls)
            # each Jacobian has L's node pattern, so its factor orders it as L's does
            for factor in factors:
                np.testing.assert_array_equal(factor._lu.order, solver._lu.order)
            # SuperLU's own ordering of each Jacobian gives the same solution
            monkeypatch.setattr(nonlinear, "factorize", factorize)
            expected = newton_reference(factorize(op), term, f)
            assert np.linalg.norm(u - expected) <= 1e-12 * np.linalg.norm(expected)
