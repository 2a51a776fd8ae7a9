"""End-to-end acceptance checks.

Each test covers one headline property of the package at its gating
tolerance and prints a single pass/fail line with the measured numbers.
The first test runs the full-resolution elliptic problems and takes a
few minutes; everything else is desk scale and fast.
"""

import numpy as np
import pytest

from optbasis.basis import (
    RsvdParams,
    SourceProjector,
    compute_basis,
    defining_relation_errors,
)
from optbasis.bayes import (
    check_reconstruction_bound,
    nwidth_eval,
    posterior,
    trace_objective,
    weighted_operator,
)
from optbasis.config import config_from_dict
from optbasis.exceptions import BoundViolation
from optbasis.experiments import (
    build_problem,
    compute_problem_basis,
    oracle_problem_basis,
    solve_linear_projection,
)
from optbasis.elliptic import eval_source_elliptic
from optbasis.linalg import factorize, svd_dense
from optbasis.nonlinear import (
    CubicTerm,
    check_linear_representation_bound,
    fixed_point_solve,
    newton_reference,
)
from optbasis.weights import build_sobolev_weight, identity_weight


def make_config(family, m, p, **extra):
    raw = {
        "problem": {"family": family},
        "grid": {"m_intervals": m},
        "weights": {"p": p},
    }
    for section, content in extra.items():
        raw.setdefault(section, {}).update(content)
    return config_from_dict(raw)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def desk_elliptic():
    """Desk-scale elliptic problem (m = 32) with its dense-oracle basis."""
    setup = build_problem(make_config("elliptic", 32, 1))
    solver = factorize(setup.operator)
    return setup, solver, oracle_problem_basis(setup)


@pytest.fixture(scope="module")
def desk_rte():
    """Desk-scale transport problem (m = 16, 16 angles) with its oracle basis."""
    setup = build_problem(make_config("rte", 16, 1, grid={"n_angles": 16}))
    solver = factorize(setup.operator)
    return setup, solver, oracle_problem_basis(setup)


def projection_bound_sweep(u_ref, basis, fx, f):
    """Worst slack of ||u_ref - u_n||_2 <= lambda_{n+1} ||f||_X over all n.

    Takes the coefficients from the package's source projector and builds
    the reduced solutions cumulatively, so the full sweep costs one pass
    over the basis.  Returns (violations, worst_margin) with margin
    lhs/rhs - 1, negative when the bound holds.
    """
    coeffs = SourceProjector(basis, fx, basis.rank).coefficients(f)
    f_norm = fx.norm(f)
    lam = basis.singular_values
    err = np.asarray(u_ref, dtype=float).copy()
    violations = 0
    worst = -np.inf
    for n in range(1, basis.rank):
        err -= lam[n - 1] * coeffs[n - 1] * basis.left_vectors[:, n - 1]
        lhs = float(np.linalg.norm(err))
        rhs = float(lam[n] * f_norm)
        worst = max(worst, lhs / rhs - 1.0)
        if lhs > rhs:
            violations += 1
    return violations, worst


def test_01_full_resolution_relative_errors_at_n_300():
    # m = 64 grid (3969 unknowns), strong scale separation, second-order
    # source weight; gate: relative l2 error at n = 300 below 3e-4 for both
    # the linear projection solve and the semilinear fixed point
    config = make_config("semilinear_elliptic", 64, 2, problem={"eps": 0.0625},
                         rsvd={"rank": 310, "oversample": 20, "power": 2, "seed": 0})
    setup = build_problem(config)
    solver = factorize(setup.operator)
    basis = compute_problem_basis(setup, solver)

    f_lin = eval_source_elliptic(setup.grid, 1.0)
    u_lin = solver.solve(f_lin)
    u_300 = solve_linear_projection(basis, setup.fx, f_lin, [300])[:, 0]
    rel_lin = float(np.linalg.norm(u_300 - u_lin) / np.linalg.norm(u_lin))

    u_ref = newton_reference(solver, setup.term, setup.source)
    result = fixed_point_solve(basis, setup.fx, setup.source, setup.term, [300], config.nonlinear)
    rel_semi = float(np.linalg.norm(result.solution[:, 0] - u_ref) / np.linalg.norm(u_ref))

    ok = rel_lin <= 3e-4 and result.converged and rel_semi <= 3e-4
    assert report(
        "full-resolution errors at n = 300",
        ok,
        f"linear {rel_lin:.3e}, semilinear {rel_semi:.3e}, gate 3e-04",
    )


def test_02_width_identity_and_random_candidate_domination():
    # on problems small enough for brute force, the best n-dimensional
    # approximation error equals the next singular value, and no random
    # subspace does better
    toys = []

    setup = build_problem(make_config("elliptic", 7, 1))
    solver = factorize(setup.operator)
    toys.append(("elliptic m=7", solver.solve(np.eye(setup.n_dofs)),
                 setup.fx, oracle_problem_basis(setup)))

    rng = np.random.Generator(np.random.Philox(101))
    green = rng.normal(size=(64, 64))
    fi = identity_weight(64)
    u, s, v = svd_dense(green)
    toys.append(("random N=64", green, fi, None))

    worst_gap = 0.0
    worst_slack = 0.0
    ok = True
    for name, green, fx, oracle in toys:
        if oracle is not None:
            lam, vecs = oracle.singular_values, oracle.right_vectors
        else:
            lam, vecs = s, v
        a = weighted_operator(green, fx)
        for n in range(1, 6):
            width = nwidth_eval(a, fx, vecs[:, :n])
            gap = abs(width - lam[n])
            worst_gap = max(worst_gap, gap)
            if gap > 1e-9:
                ok = False
            for _ in range(100):
                cand = rng.standard_normal((green.shape[0], n))
                slack = lam[n] - nwidth_eval(a, fx, cand)
                worst_slack = max(worst_slack, slack)
                if slack > 1e-9:
                    ok = False
    assert report(
        "width identity and candidate domination",
        ok,
        f"worst identity gap {worst_gap:.3e}, worst domination slack "
        f"{worst_slack:.3e}, gate 1e-09",
    )


def test_03_trace_objective_closed_form_domination_conservation():
    # observing along the leading left singular vectors attains the
    # closed-form optimum sum of the leading squared singular values; no
    # random observation matrix beats it, and the posterior trace split
    # always adds up to the total
    cases = []
    rng = np.random.Generator(np.random.Philox(202))
    green = rng.normal(size=(48, 48))
    green /= np.linalg.svd(green, compute_uv=False)[0]
    cases.append(("random N=48", green))
    setup = build_problem(make_config("elliptic", 7, 0))
    cases.append(("elliptic m=7", factorize(setup.operator).solve(np.eye(setup.n_dofs))))

    n = 4
    ok = True
    worst_closed = 0.0
    worst_conserve = 0.0
    for name, green in cases:
        u, s, _ = svd_dense(green)
        optimum = trace_objective(green, u[:, :n])
        closed = float(np.sum(s[:n] ** 2))
        gap = abs(optimum - closed)
        worst_closed = max(worst_closed, gap)
        if gap > 1e-9:
            ok = False
        total = float(np.trace(green @ green.T))
        for _ in range(200):
            m = rng.standard_normal((green.shape[0], n))
            captured = trace_objective(green, m)
            if captured > optimum + 1e-9:
                ok = False
            # captured trace plus the posterior's own covariance trace
            residual = float(np.trace(posterior(green, m, np.zeros(n)).covariance))
            conserve = abs(captured + residual - total) / total
            worst_conserve = max(worst_conserve, conserve)
            if conserve > 1e-8:
                ok = False
    assert report(
        "trace objective optimum, domination, conservation",
        ok,
        f"closed-form gap {worst_closed:.3e} (gate 1e-09), worst relative "
        f"trace defect {worst_conserve:.3e} (gate 1e-08), 200 draws each",
    )


def test_04_posterior_reconstruction_bound():
    # posterior-mean reconstruction from n = 4 observations at N = 16:
    # error below sqrt(residual trace) times the source norm for every draw
    setup = build_problem(make_config("elliptic", 5, 0))
    green = factorize(setup.operator).solve(np.eye(setup.n_dofs))
    rng = np.random.Generator(np.random.Philox(303))
    violations = 0
    worst = 0.0
    for _ in range(100):
        m = rng.standard_normal((16, 4))
        f = rng.standard_normal(16)
        try:
            error, bound = check_reconstruction_bound(green, m, f)
            worst = max(worst, error / bound)
        except BoundViolation:
            violations += 1
    assert report(
        "posterior reconstruction bound",
        violations == 0,
        f"0 of 100 draws allowed to violate, got {violations}; "
        f"worst error/bound {worst:.3f}",
    )


def test_05_randomized_basis_matches_the_oracle():
    # elliptic m = 16 (N = 225): top-5 singular values from the sketched
    # computation against brute force, with and without power iterations
    setup = build_problem(make_config("elliptic", 16, 2))
    solver = factorize(setup.operator)
    oracle = oracle_problem_basis(setup)
    top = oracle.singular_values[:5]

    with_power = compute_basis(solver, setup.fx, params=RsvdParams(10, 5, 2, seed=12))
    err_q2 = float(np.max(np.abs(with_power.singular_values[:5] - top) / top))

    no_power = compute_basis(solver, setup.fx, params=RsvdParams(10, 5, 0, seed=12))
    err_q0 = float(np.max(np.abs(no_power.singular_values[:5] - top) / top))

    ok = err_q2 <= 1e-6 and err_q0 <= 1e-2
    assert report(
        "randomized top-5 singular values vs oracle",
        ok,
        f"2 power iterations {err_q2:.3e} (gate 1e-06), "
        f"0 power iterations {err_q0:.3e} (gate 1e-02)",
    )


def test_06_defining_relations_across_orders_and_families():
    # every produced basis satisfies both orthonormality relations and the
    # forward/adjoint mapping relations to 1e-8, for weight orders 0..2 on
    # both problem families at desk scale
    worst = 0.0
    ok = True
    cases = []
    for p in (0, 1, 2):
        cases.append(("elliptic", 32, p, None, (20, 60, 4)))
    for p in (1, 2):
        cases.append(("rte", 16, p, 16, (20, 60, 4)))
    # slow spectral decay of the flat-weight transport operator needs a
    # wider sketch and more power iterations to pin the Ritz angles down
    cases.append(("rte", 16, 0, 16, (20, 180, 8)))

    relations = ("left_orthonormality", "right_orthonormality", "forward_residual")
    solvers = {}
    for family, m, p, n_angles, (rank, oversample, power) in cases:
        extra = {"grid": {"n_angles": n_angles}} if n_angles else {}
        rsvd = {"rank": rank, "oversample": oversample, "power": power, "seed": 0}
        setup = build_problem(make_config(family, m, p, rsvd=rsvd, **extra))
        if family not in solvers:
            solvers[family] = factorize(setup.operator)
        solver = solvers[family]
        basis = compute_problem_basis(setup, solver)
        errors = defining_relation_errors(basis, solver, setup.fx)
        level = max(errors[key] for key in relations)
        worst = max(worst, level)
        if level > 1e-8:
            ok = False
    assert report(
        "defining relations for all weight orders and families",
        ok,
        f"worst relation error {worst:.3e} over 6 bases, gate 1e-08",
    )


def test_07_projection_error_bounded_by_next_singular_value(desk_elliptic, desk_rte):
    # truncation error of the reduced linear solve never exceeds the next
    # singular value times the weighted source norm, at every level n
    results = {}
    for name, (setup, solver, basis) in (("elliptic", desk_elliptic),
                                         ("transport", desk_rte)):
        u_ref = solver.solve(setup.source)
        violations, margin = projection_bound_sweep(u_ref, basis, setup.fx,
                                                    setup.source)
        results[name] = (violations, margin)
    total = sum(v for v, _ in results.values())
    detail = ", ".join(
        f"{name} {v} violations (worst margin {m:+.3e})"
        for name, (v, m) in results.items()
    )
    assert report("projection error vs next singular value", total == 0, detail)


def test_08_faster_decay_for_smoother_source_weights():
    # the 50th relative singular value drops as the weight order grows,
    # for every scale separation in the sweep
    ok = True
    lines = []
    for eps in (1.0, 0.25, 0.0625):
        ratios = {}
        solver = None
        for p in (0, 1, 2):
            setup = build_problem(make_config("elliptic", 32, p,
                                              problem={"eps": eps}))
            if solver is None:
                solver = factorize(setup.operator)
            lam = oracle_problem_basis(setup).singular_values
            ratios[p] = float(lam[49] / lam[0])
        if not ratios[2] < ratios[1] < ratios[0]:
            ok = False
        lines.append(f"eps {eps:g}: " + " > ".join(f"{ratios[p]:.3e}" for p in (0, 1, 2)))
    assert report(
        "singular value decay ordering by weight order",
        ok,
        "lambda_50/lambda_1 " + "; ".join(lines),
    )


def test_09_semilinear_truncation_bound(desk_elliptic):
    # reduced representation of the converged semilinear solution obeys the
    # next-singular-value bound with the nonlinearity folded into the source
    setup, solver, basis = desk_elliptic
    f = eval_source_elliptic(setup.grid, 100.0)
    term = CubicTerm()
    u_ref = newton_reference(solver, term, f)
    violations = 0
    ratios = []
    for n in (5, 10, 20):
        try:
            [(_, lhs, rhs)] = check_linear_representation_bound(
                basis, solver, setup.fx, f, term, u_ref, [n]
            )
            ratios.append(f"n={n} lhs/rhs {lhs / rhs:.3f}")
        except BoundViolation:
            violations += 1
    assert report(
        "semilinear truncation bound",
        violations == 0,
        f"0 violations required, got {violations}; " + ", ".join(ratios),
    )


def test_10_linear_limit_positivity_and_zero_source(desk_rte, zero_term):
    # the fixed point with a vanishing nonlinearity stops after one sweep
    # on exactly the projection solution; the transport solve keeps the
    # beam nonnegative and maps a zero source to the zero vector
    setup = build_problem(make_config(
        "elliptic", 32, 1, rsvd={"rank": 40, "oversample": 10, "power": 2, "seed": 0}))
    solver = factorize(setup.operator)
    basis = compute_problem_basis(setup, solver)
    result = fixed_point_solve(basis, setup.fx, setup.source, zero_term, [40],
                               setup.config.nonlinear)
    direct = solve_linear_projection(basis, setup.fx, setup.source, [40])
    one_sweep = result.converged and result.iterations == 1
    exact = bool(np.array_equal(result.solution, direct))

    rte_setup, rte_solver, _ = desk_rte
    beam = rte_solver.solve(rte_setup.source)
    nonneg = float(beam.min()) >= 0.0
    zero = rte_solver.solve(np.zeros(rte_setup.n_dofs))
    zero_ok = float(np.abs(zero).max()) == 0.0

    ok = one_sweep and exact and nonneg and zero_ok
    assert report(
        "linear limit, positivity, zero source",
        ok,
        f"one sweep {one_sweep}, exact equality {exact}, "
        f"beam min {float(beam.min()):.3e}, zero-source max {float(np.abs(zero).max()):.1e}",
    )


def test_11_strongly_nonlinear_fixed_point_within_the_truncation_bound():
    # a cubic term carrying 0.42 of L u: at every n = 1..49 the bound holds,
    # every level's relaxed fixed point converges, and its error stays within
    # the bound and within 1.1 x the best representation error of u_ref
    config = make_config("semilinear_elliptic", 32, 1,
                         problem={"eps": 0.0625, "source": {"kind": "sine", "amplitude": 1e5}},
                         rsvd={"rank": 50, "oversample": 50, "power": 4, "seed": 0},
                         nonlinear={"relax": 0.5})
    setup = build_problem(config)
    solver = factorize(setup.operator)
    basis = compute_problem_basis(setup, solver)
    f, term = setup.source, setup.term
    u_ref = newton_reference(solver, term, f)
    ratio = float(np.linalg.norm(term(u_ref)) / np.linalg.norm(setup.operator @ u_ref))

    levels = list(range(1, 50))
    checked = check_linear_representation_bound(basis, solver, setup.fx, f, term, u_ref, levels)
    result = fixed_point_solve(basis, setup.fx, f, term, levels, config.nonlinear)
    error = np.linalg.norm(result.solution - u_ref[:, None], axis=0)
    lhs = np.array([c[1] for c in checked])
    rhs = np.array([c[2] for c in checked])

    ok = (ratio >= 0.4 and [c[0] for c in checked] == levels and result.converged
          and bool(np.all(error <= rhs)) and bool(np.all(error <= 1.1 * lhs)))
    assert report(
        "strongly nonlinear fixed point",
        ok,
        f"||N(u)||/||Lu|| {ratio:.3f} (gate 0.4), converged {result.converged}, "
        f"worst bound lhs/rhs {float(np.max(lhs / rhs)):.3f}, "
        f"worst error/rhs {float(np.max(error / rhs)):.3f}, "
        f"worst error/representation {float(np.max(error / lhs)):.3f} (gate 1.1)",
    )
