"""Gaussian conditioning, trace objectives and worst-case width evaluation."""

import numpy as np
import pytest
import scipy.linalg

from optbasis.bayes import (
    DENSE_BAYES_GUARD,
    check_reconstruction_bound,
    dense_svd_oracle,
    nwidth_eval,
    posterior,
    trace_objective,
    weighted_operator,
)
from optbasis.config import config_from_dict
from optbasis.elliptic import EllipticMedium, assemble_elliptic
from optbasis.exceptions import (
    DimensionMismatch,
    ProblemTooLarge,
    RankDeficient,
    SingularTheta,
)
from optbasis.experiments import build_problem, green_matrix
from optbasis.grids import Grid2D
from optbasis.weights import build_sobolev_weight, identity_weight


def toy_green(n=12, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.normal(size=(n, n)) + n * np.eye(n)
    return np.linalg.inv(a)


def elliptic_green(m=5):
    grid = Grid2D(m)
    op = assemble_elliptic(grid, EllipticMedium(1.0))
    return np.linalg.inv(op.toarray()), grid


class TestPosterior:
    def test_full_observation_interpolates_exactly(self):
        green = toy_green()
        rng = np.random.Generator(np.random.Philox(1))
        f = rng.normal(size=12)
        u = green @ f
        post = posterior(green, np.eye(12), u)
        np.testing.assert_allclose(post.mean, u, atol=1e-9)
        assert abs(np.trace(post.covariance)) < 1e-9

    def test_no_observations_returns_the_prior(self):
        green = toy_green()
        post = posterior(green, np.zeros((12, 0)), np.zeros(0))
        np.testing.assert_array_equal(post.mean, np.zeros(12))
        np.testing.assert_allclose(post.covariance, green @ green.T, atol=1e-14)

    def test_reconstruction_map_reproduces_the_mean(self):
        green = toy_green(seed=7)
        rng = np.random.Generator(np.random.Philox(8))
        m = rng.normal(size=(12, 3))
        psi = rng.normal(size=3)
        post = posterior(green, m, psi)
        # W = K^T Theta^{-1} with K = M^T C, Theta = M^T C M, C = G G^T
        k = m.T @ green @ green.T
        recon = k.T @ np.linalg.inv(k @ m)
        np.testing.assert_allclose(recon @ psi, post.mean, atol=1e-12)

    def test_vector_observation_is_promoted_to_one_column(self):
        green = toy_green(seed=9)
        direction = np.ones(12)
        post = posterior(green, direction, np.array([2.0]))
        column = posterior(green, direction[:, None], np.array([2.0]))
        np.testing.assert_array_equal(post.mean, column.mean)
        np.testing.assert_array_equal(post.covariance, column.covariance)

    def test_covariance_is_symmetric(self):
        green = toy_green(seed=10)
        rng = np.random.Generator(np.random.Philox(11))
        post = posterior(green, rng.normal(size=(12, 5)), rng.normal(size=5))
        np.testing.assert_array_equal(post.covariance, post.covariance.T)

    def test_dependent_observations_raise(self):
        green = toy_green(seed=12)
        m = np.ones((12, 2))  # two identical columns
        with pytest.raises(SingularTheta):
            posterior(green, m, np.zeros(2))

    def test_size_guard(self):
        n = DENSE_BAYES_GUARD + 1  # np.zeros is calloc'd: no memory is committed
        with pytest.raises(ProblemTooLarge, match=f"limited to {DENSE_BAYES_GUARD} unknowns"):
            posterior(np.zeros((n, n)), np.zeros((n, 1)), np.zeros(1))

    @pytest.mark.parametrize("check", [
        lambda g, m: trace_objective(g, m),
        lambda g, m: check_reconstruction_bound(g, m, np.zeros(g.shape[0])),
        lambda g, m: nwidth_eval(g, identity_weight(g.shape[0]), m),
    ], ids=["trace_objective", "check_reconstruction_bound", "nwidth_eval"])
    def test_every_dense_check_is_guarded(self, check):
        n = DENSE_BAYES_GUARD + 1
        with pytest.raises(ProblemTooLarge):
            check(np.zeros((n, n)), np.zeros((n, 1)))

    def test_nonsquare_operator_rejected(self):
        with pytest.raises(DimensionMismatch):
            posterior(np.ones((3, 4)), np.eye(3), np.zeros(3))


class TestTraceObjective:
    def test_conserves_the_prior_trace_against_the_posterior(self):
        # the captured trace and the actual posterior covariance trace
        # add up to the prior trace
        green = toy_green(seed=13)
        rng = np.random.Generator(np.random.Philox(14))
        m = rng.normal(size=(12, 4))
        captured = trace_objective(green, m)
        post = posterior(green, m, np.zeros(4))
        assert captured + np.trace(post.covariance) == pytest.approx(
            np.trace(green @ green.T), rel=1e-10
        )

    def test_optimal_subspace_hits_the_closed_form(self):
        green = toy_green(seed=15)
        u, s, _ = np.linalg.svd(green)
        assert trace_objective(green, u[:, :3]) == pytest.approx(np.sum(s[:3] ** 2),
                                                                 rel=1e-11)

    def test_optimal_subspace_dominates_random_candidates(self):
        green = toy_green(seed=16)
        u, s, _ = np.linalg.svd(green)
        best = trace_objective(green, u[:, :2])
        rng = np.random.Generator(np.random.Philox(17))
        for _ in range(50):
            cand = rng.normal(size=(12, 2))
            assert trace_objective(green, cand) <= best * (1 + 1e-10)

    def test_observations_along_svd_directions_factor_through_the_spectrum(self):
        # psi_i = u_i^T G f = lambda_i (v_i . f) when observing along the
        # left singular directions
        green = toy_green(seed=18)
        u, s, vt = np.linalg.svd(green)
        rng = np.random.Generator(np.random.Philox(19))
        f = rng.normal(size=12)
        psi = u[:, :4].T @ (green @ f)
        np.testing.assert_allclose(psi, s[:4] * (vt[:4] @ f), atol=1e-12)


class TestReconstructionBound:
    def test_holds_for_random_draws(self):
        green = toy_green(16, seed=20)
        rng = np.random.Generator(np.random.Philox(21))
        for _ in range(25):
            m = rng.normal(size=(16, 4))
            f = rng.normal(size=16)
            error, bound = check_reconstruction_bound(green, m, f)
            assert error <= bound * (1 + 1e-10) + 1e-12

    def test_full_observation_gives_zero_error_and_zero_bound(self):
        green = toy_green(seed=22)
        f = np.ones(12)
        error, bound = check_reconstruction_bound(green, np.eye(12), f)
        assert error < 1e-9
        assert bound < 1e-6


class TestNwidthEval:
    def test_flat_spectrum_is_indifferent_to_the_subspace(self):
        # for G = I every n-dimensional trial space leaves worst-case error 1
        fi = identity_weight(8)
        rng = np.random.Generator(np.random.Philox(23))
        val = nwidth_eval(np.eye(8), fi, rng.normal(size=(8, 3)))
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_empty_trial_space_returns_the_operator_norm(self):
        green = toy_green(seed=24)
        fi = identity_weight(12)
        s1 = np.linalg.svd(green, compute_uv=False)[0]
        assert nwidth_eval(green, fi, np.zeros((12, 0))) == pytest.approx(s1, rel=1e-12)

    def test_optimal_subspace_achieves_the_next_singular_value(self):
        green, grid = elliptic_green(5)
        fx = build_sobolev_weight(1, grid)
        oracle = dense_svd_oracle(green, fx)
        a = weighted_operator(green, fx)
        for n in (1, 3):
            width = nwidth_eval(a, fx, oracle.right_vectors[:, :n])
            assert width == pytest.approx(oracle.singular_values[n], rel=1e-9)

    def test_no_candidate_beats_the_optimum(self):
        green, grid = elliptic_green(4)
        fx = build_sobolev_weight(0, grid)
        oracle = dense_svd_oracle(green, fx)
        optimal = oracle.singular_values[2]
        a = weighted_operator(green, fx)
        rng = np.random.Generator(np.random.Philox(25))
        for _ in range(50):
            cand = rng.normal(size=(grid.n_interior, 2))
            assert nwidth_eval(a, fx, cand) >= optimal - 1e-10

    @pytest.mark.parametrize("family, m, grid", [
        ("elliptic", 5, {}), ("rte", 4, {"n_angles": 4}), ("identity", 4, {}),
    ])
    def test_matches_a_full_svd_of_the_residual(self, family, m, grid):
        setup = build_problem(config_from_dict({
            "problem": {"family": family}, "grid": {"m_intervals": m, **grid},
            "weights": {"p": 1}}))
        green = green_matrix(setup, 4096)
        a = weighted_operator(green, setup.fx)
        oracle = dense_svd_oracle(green, setup.fx)
        rng = np.random.Generator(np.random.Philox(27))
        for v_n in (np.zeros((setup.n_dofs, 0)), oracle.right_vectors[:, :3],
                    rng.normal(size=(setup.n_dofs, 1)), rng.normal(size=(setup.n_dofs, 4))):
            if v_n.shape[1]:
                q = np.linalg.qr(a @ setup.fx.apply(v_n))[0]
                full = scipy.linalg.svdvals(a - q @ (q.T @ a))[0]
            else:
                full = scipy.linalg.svdvals(a)[0]
            assert nwidth_eval(a, setup.fx, v_n) == pytest.approx(full, rel=1e-12)

    def test_rank_deficient_trial_space_rejected(self):
        fi = identity_weight(6)
        cand = np.ones((6, 2))
        with pytest.raises(RankDeficient):
            nwidth_eval(np.eye(6), fi, cand)

    def test_wrong_dimension_rejected(self):
        fi = identity_weight(6)
        with pytest.raises(DimensionMismatch):
            nwidth_eval(np.eye(6), fi, np.ones((5, 2)))

    def test_identity_weights_leave_the_operator_unchanged(self):
        green = toy_green(seed=26)
        fi = identity_weight(12)
        np.testing.assert_array_equal(weighted_operator(green, fi), green)
