"""Config-to-problem wiring, reference solves and error curves."""

import json
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from optbasis import basis as basis_module
from optbasis import obf
from optbasis.basis import RsvdParams, compute_basis, level_blocks
from optbasis.config import FAMILIES, NonlinearSettings, config_from_dict, config_to_dict
from optbasis.elliptic import eval_source_elliptic
from optbasis.exceptions import (
    Diverged,
    InvalidArgument,
    OptbasisError,
    ProblemTooLarge,
    RankExhausted,
)
from optbasis.experiments import (
    ErrorCurve,
    build_problem,
    compute_problem_basis,
    error_curve,
    green_matrix,
    nonlinear_error_curve,
    oracle_problem_basis,
    reference_solution,
    solve_linear_projection,
)
from optbasis.linalg import block_ordering, factorize, reciprocity_defect
from optbasis.nonlinear import check_linear_representation_bound, fixed_point_solve
from optbasis.weights import build_sobolev_weight, energy_norm
from optbasis.transport import eval_source_rte


def make_config(family="elliptic", m=6, p=1, **extra):
    raw = {
        "problem": {"family": family},
        "grid": {"m_intervals": m},
        "weights": {"p": p},
    }
    for section, content in extra.items():
        raw.setdefault(section, {}).update(content)
    return config_from_dict(raw)


def assert_identity_weight(weight, dim):
    """A one-row band of ones with no angles: F = I."""
    np.testing.assert_array_equal(weight.band, np.ones((1, dim)))
    assert weight.n_minor == 1


class TestBuildProblem:
    def test_elliptic_assembly(self):
        setup = build_problem(make_config())
        assert setup.operator.shape == (25, 25)
        assert setup.n_dofs == 25
        np.testing.assert_array_equal(setup.fx.band, build_sobolev_weight(1, setup.grid).band)
        assert setup.fx.n_minor == 1
        assert_identity_weight(setup.fy, 25)
        assert setup.phase_grid is None
        assert setup.term is None
        np.testing.assert_array_equal(setup.source,
                                      eval_source_elliptic(setup.grid, 1.0))

    def test_semilinear_elliptic_carries_the_cubic_term(self):
        setup = build_problem(make_config("semilinear_elliptic"))
        assert setup.term.tag == "cubic"
        np.testing.assert_array_equal(setup.source,
                                      eval_source_elliptic(setup.grid, 100.0))

    def test_rte_assembly(self):
        setup = build_problem(make_config("rte", m=5, grid={"n_angles": 6}))
        assert setup.phase_grid is not None
        assert setup.operator.shape == (16 * 6, 16 * 6)
        # the spatial Sobolev factor tensorized with the angular average
        spatial = build_sobolev_weight(1, setup.phase_grid.spatial)
        np.testing.assert_array_equal(setup.fx.band, spatial.band / np.sqrt(6))
        assert setup.fx.n_minor == 6
        assert_identity_weight(setup.fy, 16 * 6)
        assert setup.term is None
        np.testing.assert_array_equal(setup.source,
                                      eval_source_rte(setup.phase_grid, 1.0))

    def test_semilinear_rte_carries_the_two_photon_term(self):
        setup = build_problem(make_config("semilinear_rte", m=5,
                                          problem={"eps1": 0.25},
                                          grid={"n_angles": 4}))
        assert setup.term.tag == "two_photon"
        assert setup.term.phase_grid is setup.phase_grid

    def test_identity_family(self):
        setup = build_problem(make_config("identity", m=4))
        assert (setup.operator != sp.identity(9)).nnz == 0
        assert_identity_weight(setup.fx, 9)
        np.testing.assert_array_equal(setup.source, np.zeros(9))

    def test_identity_family_with_a_sine_source(self):
        setup = build_problem(make_config("identity", m=4,
                                          problem={"source": {"kind": "sine",
                                                              "amplitude": 2.0}}))
        np.testing.assert_array_equal(setup.source,
                                      eval_source_elliptic(setup.grid, 2.0))

    def test_zero_source_for_elliptic(self):
        setup = build_problem(make_config(problem={"source": {"kind": "zero"}}))
        np.testing.assert_array_equal(setup.source, np.zeros(25))

    def test_zero_source_for_rte(self):
        setup = build_problem(make_config("rte", m=4,
                                          problem={"source": {"kind": "zero"}},
                                          grid={"n_angles": 4}))
        np.testing.assert_array_equal(setup.source, np.zeros(9 * 4))


@st.composite
def discretization_sections(draw):
    """problem, grid and weights sections of any family on a small grid, with medium
    values, lengths and amplitudes anywhere in the float range the parser allows."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    spec = FAMILIES[family]
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    problem = {"family": family}
    for key in spec.medium:
        problem[key] = draw(st.floats(0.0, 1.0, exclude_max=True) if key == "g" else positive)
    problem["source"] = {"kind": draw(st.sampled_from(spec.sources)),
                         "amplitude": draw(st.floats(allow_nan=False, allow_infinity=False))}
    grid = {"m_intervals": draw(st.integers(2, 6)), "length": draw(positive)}
    if spec.pde == "rte":
        grid["n_angles"] = draw(st.integers(1, 5))
    return {"problem": problem, "grid": grid, "weights": {"p": draw(st.integers(0, 2))}}


class TestFiniteDiscretization:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(discretization_sections())
    def test_a_config_builds_a_finite_problem_or_raises_the_package_error(self, raw):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning is a failure too
            try:
                setup = build_problem(config_from_dict(raw))
            except OptbasisError:
                return
        for values in (setup.operator.data, setup.fx.band, setup.fx.gram().data, setup.source):
            assert np.isfinite(values).all()


class TestReversal:
    # the factor keeps no reversal; the setup's phase grid still carries it,
    # and the operators keep the structure each transposed solve relies on
    @pytest.mark.parametrize("family", ["rte", "semilinear_rte"])
    def test_even_angle_transport_carries_the_direction_reversal(self, family):
        setup = build_problem(make_config(family, m=5, grid={"n_angles": 6}))
        p = setup.phase_grid.reversal()
        op = setup.operator.tocsr()
        assert (op.T.tocsr() != op[p][:, p]).nnz == 0
        assert reciprocity_defect(op, p) == 0
        # the factor's native "T" sweep agrees with the reversed solve L^T = P L P
        solver = setup.factorize()
        b = np.random.Generator(np.random.Philox(5)).standard_normal((setup.n_dofs, 3))
        reversed_solve = solver.solve(b[p])[p]
        gap = np.linalg.norm(solver.solve_transpose(b) - reversed_solve)
        assert gap <= 1e-12 * np.linalg.norm(reversed_solve)

    @pytest.mark.parametrize("family", ["rte", "semilinear_rte"])
    def test_odd_angle_transport_has_none(self, family):
        setup = build_problem(make_config(family, m=5, grid={"n_angles": 5}))
        assert setup.phase_grid.reversal() is None
        solver = setup.factorize()
        b = np.random.Generator(np.random.Philox(6)).standard_normal(setup.n_dofs)
        x = solver.solve_transpose(b)
        assert np.linalg.norm(setup.operator.T @ x - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("family", ["elliptic", "semilinear_elliptic", "identity"])
    def test_symmetric_families_carry_the_identity(self, family):
        setup = build_problem(make_config(family))
        assert (setup.operator != setup.operator.T).nnz == 0
        assert reciprocity_defect(setup.operator, np.arange(setup.n_dofs)) == 0
        # an exactly symmetric operator's transposed solve is its "N" solve
        solver = setup.factorize()
        b = np.random.Generator(np.random.Philox(7)).standard_normal((setup.n_dofs, 3))
        np.testing.assert_array_equal(solver.solve_transpose(b), solver.solve(b))


class TestOrdering:
    @pytest.mark.parametrize("family", ["rte", "semilinear_rte"])
    @pytest.mark.parametrize("n_angles", [6, 5])
    def test_transport_carries_its_block_ordering(self, family, n_angles):
        setup = build_problem(make_config(family, m=5, grid={"n_angles": n_angles}))
        solver = setup.factorize()
        assert solver.node_size == n_angles
        np.testing.assert_array_equal(solver._lu.order,
                                      block_ordering(setup.operator, n_angles))

    @pytest.mark.parametrize("family", ["elliptic", "semilinear_elliptic", "identity"])
    def test_other_families_keep_superlus_ordering(self, family):
        setup = build_problem(make_config(family))
        solver = setup.factorize()
        assert solver.node_size == 1
        assert isinstance(solver._lu, spla.SuperLU)
        assert solver.nnz == factorize(setup.operator).nnz

    @pytest.mark.parametrize("family", ["rte", "semilinear_rte"])
    def test_one_angle_transport_factors_with_superlu(self, family):
        # a node of one unknown has nothing to gather into blocks
        setup = build_problem(make_config(family, m=5, grid={"n_angles": 1}))
        assert isinstance(setup.factorize()._lu, spla.SuperLU)


class TestBases:
    def test_randomized_basis_uses_the_config_params_by_default(self):
        config = make_config(rsvd={"rank": 7, "oversample": 5, "power": 3, "seed": 2})
        setup = build_problem(config)
        basis = compute_problem_basis(setup)
        assert basis.rank == 7
        assert basis.meta == {"method": "rsvd"}
        direct = compute_basis(setup.factorize(), setup.fx,
                               params=RsvdParams(rank=7, oversample=5, power=3, seed=2))
        np.testing.assert_array_equal(basis.singular_values, direct.singular_values)

    def test_rte_metadata(self, tmp_path):
        # what the basis came from is the config its sidecar records
        config = make_config("rte", m=4, problem={"eps1": 0.5, "eps2": 0.25},
                             grid={"n_angles": 4}, rsvd={"rank": 5})
        path = tmp_path / "rte.obf"
        obf.write_basis(path, compute_problem_basis(build_problem(config)), config)
        meta = obf.read_basis(path).meta
        assert meta == {"method": "rsvd", "family": "rte", "config": config_to_dict(config)}
        assert config_from_dict(meta["config"]) == config
        problem = meta["config"]["problem"]
        assert (problem["eps1"], problem["eps2"], problem["g"]) == (0.5, 0.25, 0.5)
        assert "eps" not in problem
        assert meta["config"]["grid"]["n_angles"] == 4

    @pytest.mark.parametrize("family, medium", [
        ("elliptic", {"eps": 0.5}), ("semilinear_elliptic", {"eps": 0.5}), ("identity", {}),
    ])
    def test_metadata_carries_exactly_the_family_medium(self, family, medium, tmp_path):
        config = make_config(family, m=4, problem=medium)
        basis = oracle_problem_basis(build_problem(config))
        side = json.loads(obf.write_basis(tmp_path / "b.obf", basis, config).read_text())
        assert (side["family"], side["basis_meta"]) == (family, {"method": "dense_oracle"})
        problem = side["config"]["problem"]
        del problem["source"]
        assert problem == {"family": family, **medium}

    def test_oracle_is_full_rank_and_guarded(self):
        setup = build_problem(make_config(m=5))
        oracle = oracle_problem_basis(setup)
        assert oracle.rank == setup.n_dofs
        assert oracle.meta == {"method": "dense_oracle"}
        with pytest.raises(ProblemTooLarge):
            green_matrix(setup, size_guard=4)


class TestReferenceSolution:
    def test_linear_reference_is_the_direct_solve(self):
        setup = build_problem(make_config())
        solver = factorize(setup.operator)
        np.testing.assert_array_equal(reference_solution(setup, solver),
                                      solver.solve(setup.source))

    def test_semilinear_reference_solves_the_full_system(self):
        setup = build_problem(make_config("semilinear_elliptic", m=5))
        u = reference_solution(setup, setup.factorize())
        resid = setup.operator @ u + setup.term(u) - setup.source
        assert np.linalg.norm(resid) <= 1e-11 * (1 + np.linalg.norm(setup.source))


class TestErrorCurves:
    def test_curve_shape_and_header(self):
        setup = build_problem(make_config(m=5))
        basis = oracle_problem_basis(setup)
        u_ref = reference_solution(setup, setup.factorize())
        curve = error_curve(u_ref, basis, setup.fx, setup.source, [1, 4, 16],
                            grid=setup.grid)
        assert curve.header() == "n,rel_l2,rel_energy"
        rows = curve.rows()
        assert [r[0] for r in rows] == [1, 4, 16]
        assert len(rows[0]) == 3

    def test_without_a_grid_there_is_no_energy_column(self):
        setup = build_problem(make_config(m=5))
        basis = oracle_problem_basis(setup)
        u_ref = reference_solution(setup, setup.factorize())
        curve = error_curve(u_ref, basis, setup.fx, setup.source, [2, 3])
        assert curve.rel_energy is None
        assert curve.header() == "n,rel_l2"
        assert len(curve.rows()[0]) == 2

    def test_full_rank_projection_recovers_the_reference(self):
        setup = build_problem(make_config(m=5))
        basis = oracle_problem_basis(setup)
        u_ref = reference_solution(setup, setup.factorize())
        curve = error_curve(u_ref, basis, setup.fx, setup.source, [basis.rank])
        assert curve.rel_l2[0] < 1e-11

    def test_projection_matches_the_shared_coefficient_path(self):
        setup = build_problem(make_config(m=5))
        basis = oracle_problem_basis(setup)
        u_full = solve_linear_projection(basis, setup.fx, setup.source, [basis.rank])[:, 0]
        np.testing.assert_allclose(u_full, reference_solution(setup, setup.factorize()),
                                   atol=1e-11)

    def test_vanishing_term_gives_bitwise_the_linear_curve(self, zero_term):
        setup = build_problem(make_config(m=5))
        basis = oracle_problem_basis(setup)
        u_ref = reference_solution(setup, setup.factorize())
        ns = [1, 3, 7, 16]
        linear = error_curve(u_ref, basis, setup.fx, setup.source, ns)
        nonlin = nonlinear_error_curve(u_ref, basis, setup.fx, setup.source,
                                       zero_term, ns, NonlinearSettings())
        assert nonlin.rel_l2 == linear.rel_l2

    def test_semilinear_curve_decreases_to_the_newton_reference(self):
        setup = build_problem(make_config("semilinear_elliptic", m=5))
        basis = oracle_problem_basis(setup)
        u_ref = reference_solution(setup, setup.factorize())
        curve = nonlinear_error_curve(u_ref, basis, setup.fx, setup.source,
                                      setup.term, [1, 8, 16],
                                      NonlinearSettings(tol=1e-22))
        assert curve.rel_l2[-1] < 1e-8
        assert curve.rel_l2[0] > curve.rel_l2[-1]

    def test_error_curve_dataclass_rows(self):
        curve = ErrorCurve([1, 2], [0.5, 0.25])
        assert curve.rows() == [(1, 0.5), (2, 0.25)]
        curve = ErrorCurve([1], [0.5], [0.4])
        assert curve.rows() == [(1, 0.5, 0.4)]


# An elliptic grid exercises the energy column; semilinear_rte has no grid.
SHARED_KERNEL_CASES = [
    pytest.param("semilinear_elliptic", {"m_intervals": 8}, 2, True, id="elliptic-grid"),
    pytest.param("semilinear_rte", {"m_intervals": 6, "n_angles": 4}, 1, False,
                 id="rte-no-grid"),
]


def curve_case(family, grid, p):
    config = make_config(family, p=p, grid=grid,
                         rsvd={"rank": 14, "oversample": 6, "power": 2, "seed": 3})
    setup = build_problem(config)
    solver = factorize(setup.operator)
    basis = compute_problem_basis(setup, solver=solver)
    return config, setup, basis, reference_solution(setup, solver)


def column_errors(u_ref, blocks, grid):
    """The curve bookkeeping done by hand, one norm per column of the blocked kernel."""
    solutions = [column for block in blocks for column in block.T]
    l2 = [float(np.linalg.norm(u - u_ref) / np.linalg.norm(u_ref)) for u in solutions]
    if grid is None:
        return l2, None
    return l2, [energy_norm(u - u_ref, grid) / energy_norm(u_ref, grid) for u in solutions]


@pytest.fixture(scope="module")
def level_case():
    """semilinear_elliptic at m = 8, p = 1, rank 10 + 5, with its Newton reference."""
    setup = build_problem(make_config("semilinear_elliptic", m=8,
                                      rsvd={"rank": 10, "oversample": 5}))
    solver = setup.factorize()
    return SimpleNamespace(setup=setup, solver=solver,
                           basis=compute_problem_basis(setup, solver),
                           u_ref=reference_solution(setup, solver))


LEVEL_KERNELS = {
    "solve_linear_projection": lambda c, levels: solve_linear_projection(
        c.basis, c.setup.fx, c.setup.source, levels),
    "fixed_point_solve": lambda c, levels: fixed_point_solve(
        c.basis, c.setup.fx, c.setup.source, c.setup.term, levels, c.setup.config.nonlinear),
    "check_linear_representation_bound": lambda c, levels: check_linear_representation_bound(
        c.basis, c.solver, c.setup.fx, c.setup.source, c.setup.term, c.u_ref, levels),
    "error_curve": lambda c, levels: error_curve(
        c.u_ref, c.basis, c.setup.fx, c.setup.source, levels),
    "nonlinear_error_curve": lambda c, levels: nonlinear_error_curve(
        c.u_ref, c.basis, c.setup.fx, c.setup.source, c.setup.term, levels,
        c.setup.config.nonlinear),
}


@pytest.mark.parametrize("levels", [[-3], [0], [], [2.7], [3, -1]], ids=str)
@pytest.mark.parametrize("kernel", list(LEVEL_KERNELS))
def test_a_bad_truncation_level_is_an_invalid_argument(level_case, kernel, levels):
    with pytest.raises(InvalidArgument, match="truncation levels must be a non-empty sequence"):
        LEVEL_KERNELS[kernel](level_case, levels)


class TestSharedCurveKernel:
    # a block width below the rank, so the curves below span several blocks
    @pytest.fixture(autouse=True)
    def narrow_blocks(self, monkeypatch):
        monkeypatch.setattr(basis_module, "LEVEL_BLOCK", 5)

    @pytest.mark.parametrize("family, grid, p, with_grid", SHARED_KERNEL_CASES)
    def test_nonlinear_curve_is_column_norms(self, family, grid, p, with_grid):
        config, setup, basis, u_ref = curve_case(family, grid, p)
        grid = setup.grid if with_grid else None
        ns = list(range(1, basis.rank + 1))
        curve = nonlinear_error_curve(u_ref, basis, setup.fx, setup.source, setup.term, ns,
                                      config.nonlinear, grid=grid)
        blocks = [fixed_point_solve(basis, setup.fx, setup.source, setup.term, levels,
                                    config.nonlinear).solution for levels in level_blocks(ns)]
        assert [block.shape[1] for block in blocks] == [5, 5, 4]
        l2, energy = column_errors(u_ref, blocks, grid)
        assert curve.rel_l2 == l2
        assert curve.rel_energy == energy

    @pytest.mark.parametrize("family, grid, p, with_grid", SHARED_KERNEL_CASES)
    def test_linear_curve_is_column_norms(self, family, grid, p, with_grid):
        _, setup, basis, u_ref = curve_case(family, grid, p)
        grid = setup.grid if with_grid else None
        ns = list(range(1, basis.rank + 1))
        curve = error_curve(u_ref, basis, setup.fx, setup.source, ns, grid=grid)
        blocks = [solve_linear_projection(basis, setup.fx, setup.source, levels)
                  for levels in level_blocks(ns)]
        l2, energy = column_errors(u_ref, blocks, grid)
        assert curve.rel_l2 == l2
        assert curve.rel_energy == energy

    def test_curves_apply_no_weight_factor(self, monkeypatch):
        # the coefficients come from the Gram matrix, never from F_X products
        config, setup, basis, u_ref = curve_case("semilinear_elliptic", {"m_intervals": 8}, 2)

        def refuse(v):
            raise AssertionError("weight factor applied inside an error curve")

        monkeypatch.setattr(setup.fx, "apply", refuse)
        monkeypatch.setattr(setup.fx, "apply_t", refuse)
        ns = list(range(1, basis.rank + 1))
        linear = error_curve(u_ref, basis, setup.fx, setup.source, ns, grid=setup.grid)
        nonlin = nonlinear_error_curve(u_ref, basis, setup.fx, setup.source, setup.term, ns,
                                       config.nonlinear, grid=setup.grid)
        assert len(linear.rel_l2) == len(nonlin.rel_l2) == basis.rank

    def test_curve_beyond_the_basis_rank_raises(self):
        _, setup, basis, u_ref = curve_case("semilinear_elliptic", {"m_intervals": 8}, 2)
        with pytest.raises(RankExhausted):
            error_curve(u_ref, basis, setup.fx, setup.source, [1, basis.rank + 1])


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def shipped_config(name, amplitude=None, relax=None):
    raw = json.loads((CONFIGS / name).read_text())
    if amplitude is not None:
        raw["problem"]["source"]["amplitude"] = amplitude
    if relax is not None:
        raw.setdefault("nonlinear", {})["relax"] = relax
    return config_from_dict(raw)


def per_level_reference(basis, fx, f, term, n, settings):
    """One level at a time with GEMVs, projecting f - N(u) as one vector.

    The order of operations of the per-n curve that the level blocks
    replaced; returns the solution and its sweep count (0 for N = 0).
    """
    u_n, lam, v_n = basis.left_vectors[:, :n], basis.singular_values[:n], basis.right_vectors[:, :n]
    coeffs = v_n.T @ (fx.gram() @ f)
    if term is None:
        return u_n @ (lam * coeffs), 0
    for sweep in range(1, settings.max_iter + 1):
        raw = v_n.T @ (fx.gram() @ (f - term(u_n @ (lam * coeffs))))
        step = np.sum(lam ** 2 * (raw - coeffs) ** 2)
        coeffs = (1.0 - settings.relax) * coeffs + settings.relax * raw
        if step < settings.tol:
            return u_n @ (lam * coeffs), sweep
    raise AssertionError(f"reference fixed point at n = {n} did not converge")


class TestLevelBlocksAgainstPerLevelGemv:
    # The blocked kernels sum in a different order than one GEMV per level.
    # The shipped semilinear cases converge in one sweep at every level; the
    # elliptic ones at amplitudes 3e4 and 1e5 take from 1 to 20 and 91 sweeps,
    # so levels leave the block at different sweeps.
    @pytest.mark.parametrize("config", [
        pytest.param(("elliptic.json", None, None), id="desk-elliptic"),
        pytest.param(("semilinear_rte.json", None, None), id="semilinear-rte"),
        pytest.param(("semilinear_elliptic.json", 3e4, 1.0), id="elliptic-3e4-relax-1"),
        pytest.param(("semilinear_elliptic.json", 1e5, 0.5), id="elliptic-1e5-relax-0.5"),
    ])
    def test_same_sweeps_and_solutions_to_1e_9(self, config):
        config = shipped_config(*config)
        setup = build_problem(config)
        solver = setup.factorize()
        basis = compute_problem_basis(setup, solver)
        u_ref = reference_solution(setup, solver)
        ns = list(range(1, basis.rank + 1))
        args = (basis, setup.fx, setup.source)
        if setup.term is None:
            curve = error_curve(u_ref, *args, ns)
            solutions = solve_linear_projection(*args, ns)
            sweeps = np.zeros(len(ns), dtype=int)
        else:
            curve = nonlinear_error_curve(u_ref, *args, setup.term, ns, config.nonlinear)
            result = fixed_point_solve(*args, setup.term, ns, config.nonlinear)
            solutions, sweeps = result.solution, result.sweeps
        ref_norm = np.linalg.norm(u_ref)
        for j, n in enumerate(ns):
            expected, expected_sweeps = per_level_reference(*args, setup.term, n,
                                                            config.nonlinear)
            assert sweeps[j] == expected_sweeps, n
            assert np.linalg.norm(solutions[:, j] - expected) <= 1e-9 * ref_norm, n
            rel_l2 = np.linalg.norm(expected - u_ref) / ref_norm
            assert abs(curve.rel_l2[j] - rel_l2) <= 1e-9, n
        if config.source.amplitude >= 3e4:
            assert sweeps.min() < sweeps.max()


def first_one_level_failure(basis, fx, f, term, ns, settings):
    """The message of the first level whose one-level fixed point fails, the per-n curve's."""
    for n in ns:
        try:
            result = fixed_point_solve(basis, fx, f, term, [n], settings)
        except Diverged as exc:
            return str(exc)
        if not result.converged:
            return (f"fixed point at n = {n} did not converge in {result.sweeps[0]} iterations: "
                    f"final step {result.final_step[0]:.3e} against tol {settings.tol:.3e}")
    return None


class TestFailingLevels:
    # At amplitude 1e5 without damping, level 3 needs 10 sweeps and every level
    # from 4 on leaves the trust region.  With a budget of 9 sweeps, levels 3 to
    # 25 stop unconverged while the levels above still leave the trust region.
    @pytest.mark.parametrize("max_iter, kind", [(500, "left the trust region"),
                                                (9, "did not converge")])
    def test_a_curve_fails_at_its_first_failing_level(self, max_iter, kind):
        config = shipped_config("semilinear_elliptic.json", 1e5, 1.0)
        setup = build_problem(config)
        solver = setup.factorize()
        basis = compute_problem_basis(setup, solver)
        u_ref = reference_solution(setup, solver)
        settings = NonlinearSettings(tol=1e-12, max_iter=max_iter, relax=1.0)
        args = (basis, setup.fx, setup.source, setup.term, list(range(1, 41)), settings)
        expected = first_one_level_failure(*args)
        assert kind in expected
        with pytest.raises(Diverged) as failure:
            nonlinear_error_curve(u_ref, *args)
        assert str(failure.value) == expected
        if max_iter == 9:  # the levels above left the trust region, the first failure did not
            result = fixed_point_solve(*args)
            assert not result.converged
            with pytest.raises(Diverged, match="trust region"):
                fixed_point_solve(*args[:4], [30], settings)
