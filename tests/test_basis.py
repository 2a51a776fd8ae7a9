"""Randomized and dense weighted SVD bases of solution operators."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from optbasis import basis as basis_module
from optbasis.basis import (
    RsvdParams,
    SourceProjector,
    _apply_adjoint,
    _apply_forward,
    compute_basis,
    defining_relation_errors,
    level_block,
    level_blocks,
    reconstruct,
)
from optbasis.bayes import DENSE_ORACLE_GUARD, dense_svd_oracle
from optbasis.config import config_from_dict
from optbasis.elliptic import EllipticMedium, assemble_elliptic
from optbasis.experiments import build_problem
from optbasis.exceptions import (
    ConfigInvalid,
    DimensionMismatch,
    ProblemTooLarge,
    RankDeficientWarning,
    RankExhausted,
)
from optbasis.grids import Grid2D, PhaseGrid
from optbasis.linalg import factorize, lu_basis, qr_thin, svd_dense
from optbasis.transport import RteCoefficients, assemble_rte
from optbasis.weights import (
    WeightFactor,
    build_rte_weight,
    build_sobolev_weight,
    identity_weight,
)


def elliptic_setup(m, p):
    grid = Grid2D(m)
    op = assemble_elliptic(grid, EllipticMedium(1.0))
    solver = factorize(op)
    fx = build_sobolev_weight(p, grid)
    return solver, fx


def green_of(solver):
    """Dense G = L^{-1} from a factorization, for the dense oracle."""
    return solver.solve(np.eye(solver.n))


def qr_every_pass_values(solver, fx, params):
    """Leading singular values of the sketch with qr_thin after every operator application."""
    rng = np.random.Generator(np.random.Philox(params.seed))
    sketch = rng.standard_normal((solver.n, params.rank + params.oversample))
    y = _apply_forward(solver, fx, sketch)
    for _ in range(params.power):
        q = qr_thin(_apply_adjoint(solver, fx, qr_thin(y)))
        y = _apply_forward(solver, fx, q)
    q = qr_thin(y)
    return svd_dense(_apply_adjoint(solver, fx, q).T)[1][:params.rank]


def random_spd_factor(n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    b = rng.normal(size=(n, n))
    return WeightFactor.from_gram(sp.csr_matrix(b.T @ b + n * np.eye(n)))


class TestDenseOracle:
    def test_identity_operator_has_unit_spectrum(self):
        fi = identity_weight(6)
        basis = dense_svd_oracle(green_of(factorize(sp.identity(6, format="csc"))), fi)
        np.testing.assert_allclose(basis.singular_values, 1.0, atol=1e-14)

    def test_diagonal_operator_exact_triplets(self):
        fi = identity_weight(3)
        basis = dense_svd_oracle(green_of(factorize(sp.diags([1.0, 2.0, 4.0]))), fi)
        np.testing.assert_allclose(basis.singular_values, [1.0, 0.5, 0.25], atol=1e-15)
        np.testing.assert_allclose(np.abs(basis.left_vectors), np.eye(3), atol=1e-14)
        np.testing.assert_allclose(np.abs(basis.right_vectors), np.eye(3), atol=1e-14)

    def test_defining_relations_hold_at_machine_precision(self):
        solver, fx = elliptic_setup(8, 1)
        basis = dense_svd_oracle(green_of(solver), fx)
        errs = defining_relation_errors(basis, solver, fx, indices=range(10))
        assert errs["left_orthonormality"] < 1e-12
        assert errs["right_orthonormality"] < 1e-12
        assert errs["forward_residual"] < 1e-12
        assert errs["adjoint_residual"] < 1e-10

    def test_relations_hold_under_random_spd_weights(self):
        rng = np.random.Generator(np.random.Philox(21))
        op = sp.csc_matrix(rng.normal(size=(12, 12)) + 12.0 * np.eye(12))
        solver = factorize(op)
        fx = random_spd_factor(12, 100)
        basis = dense_svd_oracle(green_of(solver), fx)
        errs = defining_relation_errors(basis, solver, fx)
        assert max(errs.values()) < 1e-10

    def test_size_guard(self):
        n = DENSE_ORACLE_GUARD + 1
        fi = identity_weight(n)
        with pytest.raises(ProblemTooLarge):
            dense_svd_oracle(np.zeros((n, n)), fi)  # calloc'd: no memory committed

    def test_nonsquare_operator_rejected(self):
        fi = identity_weight(3)
        with pytest.raises(DimensionMismatch):
            dense_svd_oracle(np.ones((3, 4)), fi)

    def test_values_sorted_descending(self):
        solver, fx = elliptic_setup(6, 0)
        basis = dense_svd_oracle(green_of(solver), fx)
        assert np.all(np.diff(basis.singular_values) <= 0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=500))
    def test_diagonal_operators_invert_the_diagonal(self, n, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        d = rng.uniform(0.5, 4.0, size=n)
        fi = identity_weight(n)
        basis = dense_svd_oracle(green_of(factorize(sp.diags(d))), fi)
        np.testing.assert_allclose(
            basis.singular_values, np.sort(1.0 / d)[::-1], rtol=1e-12
        )


class TestRandomizedBasis:
    def test_identity_operator_recovered_exactly(self):
        fi = identity_weight(12)
        solver = factorize(sp.identity(12, format="csc"))
        basis = compute_basis(solver, fi, params=RsvdParams(rank=5, oversample=7, power=0))
        np.testing.assert_allclose(basis.singular_values, 1.0, atol=1e-12)
        fu = basis.left_vectors
        np.testing.assert_allclose(fu.T @ fu, np.eye(5), atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_inverted_integer_diagonal(self, seed):
        # G = diag(1, 1/2, ..., 1/30); a power-8 sketch pins the leading six
        # values well below 1e-6 relative for every seed tried
        op = sp.diags(np.arange(1.0, 31.0)).tocsc()
        fi = identity_weight(30)
        basis = compute_basis(
            factorize(op), fi, params=RsvdParams(rank=6, oversample=4, power=8, seed=seed)
        )
        target = 1.0 / np.arange(1.0, 7.0)
        assert np.max(np.abs(basis.singular_values - target) / target) < 1e-6

    def test_same_seed_reproduces_bitwise(self):
        solver, fx = elliptic_setup(8, 1)
        params = RsvdParams(rank=6, oversample=10, power=2, seed=42)
        a = compute_basis(solver, fx, params=params)
        b = compute_basis(solver, fx, params=params)
        np.testing.assert_array_equal(a.singular_values, b.singular_values)
        np.testing.assert_array_equal(a.left_vectors, b.left_vectors)
        np.testing.assert_array_equal(a.right_vectors, b.right_vectors)

    def test_different_seeds_differ(self):
        solver, fx = elliptic_setup(8, 1)
        a = compute_basis(solver, fx, params=RsvdParams(6, 10, 2, seed=0))
        b = compute_basis(solver, fx, params=RsvdParams(6, 10, 2, seed=1))
        assert np.any(a.singular_values != b.singular_values)

    def test_values_sorted_descending(self):
        solver, fx = elliptic_setup(8, 2)
        basis = compute_basis(solver, fx, params=RsvdParams(10, 20, 2))
        assert np.all(np.diff(basis.singular_values) <= 0)

    def test_defining_relations_with_generous_sketch(self):
        solver, fx = elliptic_setup(8, 1)
        basis = compute_basis(solver, fx, params=RsvdParams(8, 30, 4, seed=0))
        errs = defining_relation_errors(basis, solver, fx)
        assert errs["left_orthonormality"] < 1e-12
        assert errs["right_orthonormality"] < 1e-12
        assert errs["forward_residual"] < 1e-14

    def test_oracle_agreement_with_two_power_passes(self):
        # the smooth weight decays fast enough that q = 2 reaches 1e-6 on
        # the leading half of the requested rank, every seed
        solver, fx = elliptic_setup(16, 1)
        top = dense_svd_oracle(green_of(solver), fx).singular_values[:5]
        for seed in range(5):
            basis = compute_basis(solver, fx, params=RsvdParams(10, 20, 2, seed=seed))
            rel = np.abs(basis.singular_values[:5] - top) / top
            assert rel.max() < 1e-6

    def test_oracle_agreement_flat_weight_needs_an_extra_pass(self):
        solver, fx = elliptic_setup(16, 0)
        top = dense_svd_oracle(green_of(solver), fx).singular_values[:5]
        for seed in range(5):
            basis = compute_basis(solver, fx, params=RsvdParams(10, 20, 3, seed=seed))
            rel = np.abs(basis.singular_values[:5] - top) / top
            assert rel.max() < 1e-6

    def test_flat_weight_small_sketch_keeps_its_ritz_error(self):
        # regression for the intrinsic accuracy limit: with the flat weight,
        # a 15-column sketch and q = 2 the top-5 relative error sits at the
        # 1e-4 level and no code change should silently claim 1e-6
        solver, fx = elliptic_setup(16, 0)
        top = dense_svd_oracle(green_of(solver), fx).singular_values[:5]
        basis = compute_basis(solver, fx, params=RsvdParams(10, 5, 2, seed=0))
        rel = np.max(np.abs(basis.singular_values[:5] - top) / top)
        assert 1e-6 < rel < 1e-2

    def test_sketch_larger_than_problem_rejected(self):
        solver, fx = elliptic_setup(4, 0)  # N = 9
        with pytest.raises(ConfigInvalid, match="'rsvd.rank' \\+ 'rsvd.oversample' = 13 "
                                                "exceeds the 9 unknowns of the problem"):
            compute_basis(solver, fx, params=RsvdParams(rank=8, oversample=5))

    def test_numerical_rank_deficiency_truncates_with_warning(self):
        class TinyTailSolver:
            # stands in for L = diag(1, 1, 1e16): the third singular value
            # of G falls below the relative truncation floor
            n = 3
            diag = np.array([1.0, 1.0, 1e-16])

            def solve(self, b, overwrite_b=False):
                return (np.asarray(b, dtype=float).T * self.diag).T

            def solve_transpose(self, b, overwrite_b=False):
                return self.solve(b)

        fi = identity_weight(3)
        for power in (1, 2):
            # the power passes and the QR keep the dead column; the small
            # SVD cuts it and compute_basis is the one place that warns
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                basis = compute_basis(TinyTailSolver(), fi, params=RsvdParams(3, 0, power))
            assert [w.category for w in caught] == [RankDeficientWarning]
            assert basis.rank == 2
            np.testing.assert_allclose(basis.singular_values, 1.0, atol=1e-12)

    @pytest.mark.parametrize("power", [0, 1, 3])
    def test_one_qr_and_two_lu_bases_per_pass(self, power, monkeypatch):
        calls = {"qr_thin": 0, "lu_basis": 0}

        def counted(name):
            kernel = getattr(basis_module, name)

            def wrapper(a):
                calls[name] += 1
                return kernel(a)
            return wrapper

        for name in calls:
            monkeypatch.setattr(basis_module, name, counted(name))
        solver, fx = elliptic_setup(8, 1)
        compute_basis(solver, fx, params=RsvdParams(6, 4, power))
        assert calls == {"qr_thin": 1, "lu_basis": 2 * power}

    @pytest.mark.parametrize("make_setup", [
        pytest.param(lambda: elliptic_setup(16, 2), id="elliptic"),
        pytest.param(lambda: rte_setup(6, 8, 1), id="rte"),
    ])
    def test_lu_power_passes_match_qr_power_passes(self, make_setup):
        solver, fx = make_setup()
        params = RsvdParams(20, 10, 2, seed=5)
        basis = compute_basis(solver, fx, params=params)
        reference = qr_every_pass_values(solver, fx, params)
        assert basis.rank == params.rank
        rel = np.abs(basis.singular_values - reference) / reference
        assert rel.max() < 1e-10
        errs = defining_relation_errors(basis, solver, fx)
        assert errs["forward_residual"] <= 1e-12

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigInvalid, match="'rsvd.rank' must be at least 1"):
            RsvdParams(rank=0)
        with pytest.raises(ConfigInvalid, match="'rsvd.oversample' must be nonnegative"):
            RsvdParams(rank=3, oversample=-1)
        with pytest.raises(ConfigInvalid, match="'rsvd.power' must be nonnegative"):
            RsvdParams(rank=3, power=-2)
        with pytest.raises(ConfigInvalid, match="'rsvd.seed' must be nonnegative"):
            RsvdParams(rank=3, seed=-1)

    def test_meta_records_only_the_method(self):
        # the config that ran is the record of everything else
        solver, fx = elliptic_setup(6, 1)
        basis = compute_basis(solver, fx, params=RsvdParams(4, 8, 1, seed=3))
        assert basis.meta == {"method": "rsvd"}
        oracle = dense_svd_oracle(green_of(solver), fx)
        assert oracle.meta == {"method": "dense_oracle"}


def relation_errors_column_by_column(basis, solver, fx, indices):
    """The forward and adjoint residuals with one solve per sampled index."""
    lam, u, v = basis.singular_values, basis.left_vectors, basis.right_vectors
    fwd = adj = 0.0
    for i in indices:
        gv = solver.solve(v[:, i])
        fwd = max(fwd, np.linalg.norm(gv - lam[i] * u[:, i]) / (lam[i] * np.linalg.norm(u[:, i])))
        gstar_u = fx.solve(fx.solve_t(solver.solve_transpose(u[:, i])))
        adj = max(adj, np.linalg.norm(gstar_u - lam[i] * v[:, i])
                  / (lam[i] * np.linalg.norm(v[:, i])))
    return fwd, adj


class TestRelationCheck:
    @pytest.mark.parametrize("make_setup", [
        pytest.param(lambda: elliptic_setup(16, 2), id="elliptic"),
        pytest.param(lambda: rte_setup(6, 8, 1), id="rte"),
    ])
    def test_blocked_residuals_match_a_column_loop(self, make_setup):
        solver, fx = make_setup()
        basis = compute_basis(solver, fx, params=RsvdParams(40, 10, 1, seed=2))
        sample = [0, 1, 7, 20, 33, 39]
        errs = defining_relation_errors(basis, solver, fx, sample)
        fwd, adj = relation_errors_column_by_column(basis, solver, fx, sample)
        assert errs["adjoint_residual"] > 1e-8  # a power-1 tail, far above roundoff
        assert errs["adjoint_residual"] == pytest.approx(adj, rel=1e-12)
        # the forward residual is roundoff, so it also gets an absolute floor
        assert errs["forward_residual"] == pytest.approx(fwd, rel=1e-12, abs=1e-15)

    def test_no_sampled_index_gives_zero_residuals(self):
        solver, fx = elliptic_setup(6, 1)
        basis = compute_basis(solver, fx, params=RsvdParams(4, 4, 1))
        errs = defining_relation_errors(basis, solver, fx, [])
        assert errs["forward_residual"] == errs["adjoint_residual"] == 0.0


class TestProjectionPieces:
    def test_coefficients_recover_weighted_expansion(self):
        solver, fx = elliptic_setup(8, 1)
        basis = dense_svd_oracle(green_of(solver), fx)
        rng = np.random.Generator(np.random.Philox(17))
        c = rng.normal(size=6)
        g = basis.right_vectors[:, :6] @ c
        np.testing.assert_allclose(
            SourceProjector(basis, fx, 6).coefficients(g), c, atol=1e-10
        )

    def test_reconstruct_matches_manual_sum(self):
        solver, fx = elliptic_setup(6, 0)
        basis = dense_svd_oracle(green_of(solver), fx)
        c = np.arange(1.0, 5.0)
        manual = sum(
            basis.singular_values[i] * c[i] * basis.left_vectors[:, i] for i in range(4)
        )
        np.testing.assert_allclose(reconstruct(basis, c), manual, atol=1e-14)

    def test_level_block_keeps_each_levels_prefix(self):
        c = np.arange(1.0, 6.0)
        np.testing.assert_array_equal(level_block(c[:4], [1, 4, 2]), [
            [1.0, 1.0, 1.0],
            [0.0, 2.0, 2.0],
            [0.0, 3.0, 0.0],
            [0.0, 4.0, 0.0],
        ])
        block = np.arange(1.0, 7.0).reshape(3, 2)
        np.testing.assert_array_equal(level_block(block, [3, 1]), [[1.0, 2.0], [3.0, 0.0],
                                                                   [5.0, 0.0]])

    def test_level_blocks_cut_the_levels_in_order(self, monkeypatch):
        monkeypatch.setattr(basis_module, "LEVEL_BLOCK", 3)
        assert level_blocks(range(7, 0, -1)) == [[7, 6, 5], [4, 3, 2], [1]]
        assert level_blocks([]) == []

    def test_a_block_reconstructs_each_level(self):
        # one GEMM over the zero-padded block, each column to roundoff of its own sum
        solver, fx = elliptic_setup(8, 1)
        basis = dense_svd_oracle(green_of(solver), fx)
        rng = np.random.Generator(np.random.Philox(23))
        c = rng.normal(size=12)
        levels = [3, 12, 7, 1]
        block = reconstruct(basis, level_block(c, levels))
        assert block.shape == (solver.n, 4)
        for j, n in enumerate(levels):
            np.testing.assert_allclose(block[:, j], reconstruct(basis, c[:n]), rtol=0,
                                       atol=1e-14 * np.abs(basis.left_vectors).max()
                                       * np.abs(basis.singular_values[:n] * c[:n]).sum())

    def test_projection_reproduces_direct_solve_at_full_rank(self):
        solver, fx = elliptic_setup(8, 1)
        basis = dense_svd_oracle(green_of(solver), fx)
        rng = np.random.Generator(np.random.Philox(19))
        f = rng.normal(size=solver.n)
        coeffs = SourceProjector(basis, fx, solver.n).coefficients(f)
        np.testing.assert_allclose(
            reconstruct(basis, coeffs), solver.solve(f), atol=1e-9
        )

    def test_rank_exhaustion_raises(self):
        solver, fx = elliptic_setup(6, 0)
        basis = compute_basis(solver, fx, params=RsvdParams(4, 6, 1))
        with pytest.raises(RankExhausted):
            SourceProjector(basis, fx, 5)
        with pytest.raises(RankExhausted):
            reconstruct(basis, np.ones(5))

    def test_wrong_length_source_raises_dimension_mismatch(self):
        solver, fx = elliptic_setup(6, 1)
        basis = dense_svd_oracle(green_of(solver), fx)
        with pytest.raises(DimensionMismatch, match="leading dimension 26"):
            SourceProjector(basis, fx, 3).coefficients(np.ones(solver.n + 1))


def rte_setup(m, n_angles, p):
    phase_grid = PhaseGrid(Grid2D(m), n_angles)
    solver = factorize(assemble_rte(phase_grid, RteCoefficients(1.0, 1.0, 0.5)))
    return solver, build_rte_weight(p, phase_grid)


COEFFICIENT_CASES = [
    pytest.param(lambda: elliptic_setup(8, 0), id="elliptic-p0"),
    pytest.param(lambda: elliptic_setup(8, 1), id="elliptic-p1"),
    pytest.param(lambda: elliptic_setup(8, 2), id="elliptic-p2"),
    pytest.param(lambda: rte_setup(6, 4, 1), id="rte-p1"),
]


class TestProjectionAccuracy:
    @pytest.mark.parametrize("make_setup", COEFFICIENT_CASES)
    def test_coefficients_match_an_extended_precision_reference(self, make_setup):
        # entrywise forward-error scale of V^T (Pi g): |V|^T (|Pi| |g|)
        solver, fx = make_setup()
        basis = dense_svd_oracle(green_of(solver), fx)
        g = np.random.Generator(np.random.Philox(29)).normal(size=solver.n)
        v = basis.right_vectors
        pi = fx.gram().toarray()
        exact = v.astype(np.longdouble).T @ (pi.astype(np.longdouble) @ g.astype(np.longdouble))
        got = SourceProjector(basis, fx, basis.rank).coefficients(g)
        scale = np.abs(v).T @ (np.abs(pi) @ np.abs(g))
        assert np.all(np.abs(got - exact) <= 1e-13 * scale)


def configured_problem(family, m, p, rank, oversample, power, **grid):
    """Factor, weights and sketch settings of a problem as the commands build it."""
    problem = ({"family": family, "eps": 0.0625} if "elliptic" in family
               else {"family": family, "eps1": 1.0, "eps2": 1.0, "g": 0.5})
    setup = build_problem(config_from_dict({
        "problem": problem, "grid": {"m_intervals": m, **grid}, "weights": {"p": p},
        "rsvd": {"rank": rank, "oversample": oversample, "power": power},
    }))
    return setup.factorize(), setup.fx, setup.config.rsvd


class TestSketchMemory:
    # Every stage of the sketch overwrites one N x k working block; the
    # solves add their column chunks, and the small SVD one copy of the
    # block and its right vectors.
    # Copying stages held about seven blocks at once.
    @pytest.mark.parametrize("problem", [
        pytest.param(("elliptic", 16, 2, 40, 10, 2, {}), id="elliptic"),
        pytest.param(("rte", 8, 1, 20, 20, 3, {"n_angles": 8}), id="transport"),
    ])
    def test_peak_above_the_inputs_is_at_most_four_working_blocks(self, problem):
        *args, grid = problem
        solver, fx, params = configured_problem(*args, **grid)
        block = solver.n * (params.rank + params.oversample) * 8
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            compute_basis(solver, fx, params=params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert (peak - start) / block <= 4.0


def basis_and_numpy_reference(problem):
    """compute_basis's basis, and the same sketch ended by numpy's copying SVD of the wide Q^T A.

    The reference is returned as (singular values, left vectors, right
    vectors) of the requested rank.
    """
    *args, grid = problem
    solver, fx, params = configured_problem(*args, **grid)
    basis = compute_basis(solver, fx, params=params)
    rng = np.random.Generator(np.random.Philox(params.seed))
    sketch = rng.standard_normal((solver.n, params.rank + params.oversample))
    y = _apply_forward(solver, fx, sketch)
    for _ in range(params.power):
        y = _apply_forward(solver, fx, lu_basis(_apply_adjoint(solver, fx, lu_basis(y))))
    _, lam, vt = np.linalg.svd(_apply_adjoint(solver, fx, qr_thin(y)).T, full_matrices=False)
    lam, v = lam[:params.rank], fx.solve(vt[:params.rank].T)
    assert basis.rank == params.rank
    return basis, (lam, solver.solve(v) / lam, v)


BENCH_PROBLEMS = {
    "elliptic-solve": ("semilinear_elliptic", 32, 2, 310, 20, 2, {}),
    "transport-basis": ("rte", 12, 1, 50, 50, 6, {"n_angles": 40}),
}


class TestSmallSvd:
    # The triplets come from scipy's gesdd of Q^T A, run in place on a
    # column-major copy of A^T Q; numpy's copying SVD of the same Q^T A is
    # the reference, on both benchmark shapes.
    @pytest.mark.parametrize("name", sorted(BENCH_PROBLEMS))
    def test_in_place_svd_agrees_with_numpys_copying_svd(self, name):
        basis, (lam_np, _, v_np) = basis_and_numpy_reference(BENCH_PROBLEMS[name])
        lam = basis.singular_values
        assert np.all(np.abs(lam - lam_np) <= 1e-12 * lam_np)
        v = basis.right_vectors
        v = v * np.sign(np.sum(v * v_np, axis=0))
        gap = np.linalg.norm(v - v_np, axis=0) / np.linalg.norm(v_np, axis=0)
        assert gap.max() <= 1e-9

    def test_at_one_blas_thread_it_is_numpys_basis_to_the_bit(self):
        # numpy and scipy each load their own OpenBLAS, whose threaded kernels
        # may split work differently; at one thread, the benchmark's setting,
        # the two give the same bits.  A child interpreter sets the count.
        code = (
            "import test_basis as t\n"
            "for problem in t.BENCH_PROBLEMS.values():\n"
            "    basis, reference = t.basis_and_numpy_reference(problem)\n"
            "    mine = (basis.singular_values, basis.left_vectors, basis.right_vectors)\n"
            "    assert [a.tobytes() for a in mine] == [b.tobytes() for b in reference]\n"
        )
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=300, env={**os.environ, "PYTHONPATH": path,
                                               "OPENBLAS_NUM_THREADS": "1"})
        assert run.returncode == 0, run.stderr
