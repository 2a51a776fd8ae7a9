"""Command line front end for assembling, basis building and experiment runs."""

import argparse
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import obf
from .basis import defining_relation_errors
from .bayes import (
    DENSE_BAYES_GUARD,
    check_reconstruction_bound,
    nwidth_eval,
    posterior,
    trace_objective,
    weighted_operator,
)
from .config import SETTINGS, config_from_dict, config_to_dict, load_config
from .exceptions import BoundViolation, ConfigInvalid, OptbasisError
from .experiments import (
    build_problem,
    compute_problem_basis,
    error_curve,
    green_matrix,
    nonlinear_error_curve,
    oracle_problem_basis,
    reference_solution,
)
from .linalg import SOLVE_CHUNK, reciprocity_defect, solve_threads
from .nonlinear import check_linear_representation_bound

SWEEP_EPS_VALUES = (1.0, 0.25, 0.0625)


def _fmt(x):
    return format(float(x), ".16e")


def _write_csv(path, header, rows):
    lines = [header]
    for row in rows:
        parts = [str(row[0])] + [_fmt(v) for v in row[1:]]
        lines.append(",".join(parts))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_decay_csv(path, basis):
    """Singular values relative to the largest, one row per index."""
    lam = basis.singular_values
    _write_csv(path, "i,lambda_rel", [(i + 1, lam[i] / lam[0]) for i in range(basis.rank)])


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


# Each override flag sets the config key of the same name in its section.
_OVERRIDES = {section: [f.name for f in fields(cls)] for section, cls in SETTINGS.items()}


def _load_config(args):
    """The config a command runs: the file, at paper scale if asked, with the
    given override flags written into it and checked like file values."""
    config = load_config(args.config)
    if args.paper_scale:
        config = config.with_paper_scale()
    raw, given = config_to_dict(config), vars(args)
    for section, keys in _OVERRIDES.items():
        raw[section].update({key: given[key] for key in keys if given.get(key) is not None})
    return config_from_dict(raw)


class _Checks:
    """Collects named pass/fail lines and the overall exit status."""

    def __init__(self):
        self.failed = 0

    def record(self, name, ok, detail=""):
        tag = "ok" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{tag:4s} {name}{suffix}")
        if not ok:
            self.failed += 1

    def exit_code(self):
        return 1 if self.failed else 0


def cmd_assemble_check(args):
    config = _load_config(args)
    setup = build_problem(config)
    checks = _Checks()

    try:
        solver = setup.factorize()
        checks.record("operator factorizes", True,
                      f"N = {setup.n_dofs}, nnz(LU) = {solver.nnz}")
    except OptbasisError as exc:
        checks.record("operator factorizes", False, str(exc))
        return checks.exit_code()

    rng = np.random.Generator(np.random.Philox(1234))
    v = rng.standard_normal(setup.n_dofs)
    roundtrip = np.linalg.norm(setup.fx.solve(setup.fx.apply(v)) - v)
    checks.record("weight factor roundtrip", roundtrip <= 1e-10 * np.linalg.norm(v),
                  f"residual {roundtrip:.3e}")

    if config.pde == "elliptic":
        asym = abs(setup.operator - setup.operator.T).max()
        checks.record("operator symmetric", asym == 0.0, f"defect {asym:.3e}")
        ones = np.ones(setup.n_dofs)
        u = solver.solve(ones)
        checks.record("maximum principle", u.min() >= -1e-12, f"min {u.min():.3e}")
        n = config.m_intervals - 1
        idx = np.arange(n * n).reshape(n, n)
        inner = idx[1:-1, 1:-1].ravel()
        if inner.size:
            sums = np.asarray(setup.operator.sum(axis=1)).ravel()[inner]
            scale = abs(setup.operator.diagonal()).max()
            checks.record("interior row sums vanish", abs(sums).max() <= 1e-9 * scale,
                          f"max {abs(sums).max():.3e}")
    elif config.pde == "rte":
        from .transport import hg_kernel_matrix

        kernel = hg_kernel_matrix(config.g, config.n_angles)
        row_defect = abs(kernel.sum(axis=1) / config.n_angles - 1.0).max()
        checks.record("kernel rows normalized", row_defect <= 1e-12,
                      f"defect {row_defect:.3e}")
        coo = setup.operator.tocoo()
        off = coo.data[coo.row != coo.col]
        checks.record("off-diagonal signs", off.max() <= 1e-12 if off.size else True)
        checks.record("diagonal positive", setup.operator.diagonal().min() > 0.0)
        zero = solver.solve(np.zeros(setup.n_dofs))
        checks.record("zero source gives zero solution", abs(zero).max() == 0.0)
        if setup.reversal is None:
            checks.record("operator reciprocal", True,
                          f"no direction reversal exists for {config.n_angles} angles")
        else:
            defect = reciprocity_defect(setup.operator, setup.reversal)
            checks.record("operator reciprocal", defect == 0,
                          f"exact L^T == P L P, {defect} mismatched entries")

    return checks.exit_code()


def _print_solve_threads():
    """The thread count of the sparse solves; it never changes a written byte."""
    threads = solve_threads()
    print(f"sparse solves: {threads} thread{'' if threads == 1 else 's'}, "
          f"chunks of at most {SOLVE_CHUNK} columns")


def _relation_summary(basis, solver, setup):
    r = basis.rank
    sample = sorted(set([0, r // 2, r - 1]) | set(range(0, r, max(1, r // 8))))
    return defining_relation_errors(basis, solver, setup.fx, setup.fy, sample)


def cmd_basis(args):
    config = _load_config(args)
    setup = build_problem(config)
    solver = setup.factorize()
    _print_solve_threads()
    basis = compute_problem_basis(setup, solver)
    errors = _relation_summary(basis, solver, setup)
    for name, value in errors.items():
        print(f"{name}: {value:.3e}")
    side = obf.write_basis(args.out, basis, config)
    print(f"wrote rank-{basis.rank} basis to {args.out} (sidecar {side})")
    return 0


def cmd_sv_decay(args):
    setup = build_problem(_load_config(args))
    basis = compute_problem_basis(setup)
    _write_decay_csv(args.out, basis)
    print(f"wrote {basis.rank} singular value ratios to {args.out}")
    return 0


def _curve_command(args, semilinear, what, curve):
    """solve-linear and solve-nonlinear: basis and reference from one factorization,
    the truncation bound at every n of the curve, then the CSV of
    curve(setup, u_ref, basis, n_values, grid)."""
    config = _load_config(args)
    if config.is_semilinear != semilinear:
        kind = "semilinear" if semilinear else "linear"
        raise ConfigInvalid(f"{args.command} needs a {kind} problem family")
    setup = build_problem(config)
    solver = setup.factorize()
    _print_solve_threads()
    basis = compute_problem_basis(setup, solver)
    u_ref = reference_solution(setup, solver)
    nmax = min(args.nmax or basis.rank, basis.rank)
    n_values = list(range(1, nmax + 1))
    bound = check_linear_representation_bound(basis, solver, setup.fx, setup.source,
                                              setup.term, u_ref, n_values)
    grid = setup.grid if config.pde == "elliptic" else None
    result = curve(setup, u_ref, basis, n_values, grid)
    _write_csv(args.out, result.header(), result.rows())
    print(f"wrote {what} for n = 1..{nmax} to {args.out}")
    if bound:
        n, lhs, rhs = max(bound, key=lambda checked: checked[1] / checked[2])
        print(f"truncation bound holds for n = 1..{bound[-1][0]} "
              f"(worst lhs/rhs {lhs / rhs:.3f} at n = {n})")
    else:
        print(f"truncation bound not checked: no n below the basis rank {basis.rank}")
    return 0


def cmd_solve_linear(args):
    return _curve_command(
        args, False, "error curve",
        lambda setup, u_ref, basis, n_values, grid: error_curve(
            u_ref, basis, setup.fx, setup.source, n_values, grid=grid))


def cmd_solve_nonlinear(args):
    return _curve_command(
        args, True, "fixed-point error curve",
        lambda setup, u_ref, basis, n_values, grid: nonlinear_error_curve(
            u_ref, basis, setup.fx, setup.source, setup.term, n_values,
            setup.config.nonlinear, grid=grid))


def cmd_oracle_svd(args):
    config = _load_config(args)
    setup = build_problem(config)
    basis = oracle_problem_basis(setup)
    side = obf.write_basis(args.out, basis, config)
    head = ", ".join(f"{v:.6e}" for v in basis.singular_values[:10])
    print(f"leading singular values: {head}")
    print(f"wrote rank-{basis.rank} oracle basis to {args.out} (sidecar {side})")
    return 0


def _check_green(setup):
    """Dense G for the optimality checks, whose subspaces need 1 <= n < N."""
    if setup.n_dofs < 2:
        raise ConfigInvalid(
            f"the dense optimality checks need at least 2 unknowns, got {setup.n_dofs}"
        )
    return green_matrix(setup, DENSE_BAYES_GUARD)


def cmd_nwidth_check(args):
    config = _load_config(args)
    setup = build_problem(config)
    green = _check_green(setup)
    basis = oracle_problem_basis(setup, green)
    a = weighted_operator(green, setup.fx, setup.fy)
    lam = basis.singular_values
    checks = _Checks()
    rng = np.random.Generator(np.random.Philox(777))
    for n in range(1, min(5, setup.n_dofs - 1) + 1):
        width = nwidth_eval(a, setup.fx, basis.right_vectors[:, :n])
        checks.record(f"width at optimal n = {n} matches next singular value",
                      abs(width - lam[n]) <= 1e-9,
                      f"|{width:.6e} - {lam[n]:.6e}|")
        # min(w) - lambda_{n+1} over the candidates: positive when all are dominated
        margin = min(nwidth_eval(a, setup.fx, rng.standard_normal((setup.n_dofs, n)))
                     for _ in range(args.samples)) - lam[n]
        checks.record(f"random candidates dominated at n = {n}", margin >= -1e-9,
                      f"smallest margin {margin:.3e}")
    return checks.exit_code()


def cmd_bayes_check(args):
    config = _load_config(args)
    setup = build_problem(config)
    green = _check_green(setup)
    checks = _Checks()
    u_left, svals, _ = np.linalg.svd(green)
    n = min(4, setup.n_dofs - 1)
    objective = trace_objective(green, u_left[:, :n])
    closed = float(np.sum(svals[:n] ** 2))
    checks.record("objective at optimum matches closed form",
                  abs(objective - closed) <= 1e-9 * closed,
                  f"gap {abs(objective - closed):.3e}")
    # the captured trace and the posterior's own covariance trace add up to tr(G G^T)
    residual = float(np.trace(posterior(green, u_left[:, :n], np.zeros(n)).covariance))
    total = float(np.trace(green @ green.T))
    gap = abs(objective + residual - total)
    checks.record("trace conservation", gap <= 1e-8 * total, f"gap {gap:.3e}")
    rng = np.random.Generator(np.random.Philox(4242))
    dominated = True
    violations = 0
    for _ in range(args.samples):
        m = rng.standard_normal((setup.n_dofs, n))
        if trace_objective(green, m) > objective * (1.0 + 1e-9):
            dominated = False
        f = rng.standard_normal(setup.n_dofs)
        try:
            check_reconstruction_bound(green, m, f)
        except BoundViolation:
            violations += 1
    checks.record("random observations dominated", dominated)
    checks.record("reconstruction bound holds", violations == 0,
                  f"{violations} violations in {args.samples} draws")
    return checks.exit_code()


def cmd_sweep(args):
    config = _load_config(args)
    if config.pde == "identity":
        raise ConfigInvalid("sweep needs a PDE problem family")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for eps in SWEEP_EPS_VALUES:
        medium = {"eps1": eps, "eps2": eps} if config.pde == "rte" else {"eps": eps}
        basis = compute_problem_basis(build_problem(replace(config, **medium)))
        path = out_dir / f"sv_decay_eps{eps:g}.csv"
        _write_decay_csv(path, basis)
        written.append(path)
    for path in written:
        print(f"wrote {path}")
    return 0


def _add_common(sub, out_required=False, rsvd=False, nmax=False, nonlinear=False,
                samples=None):
    sub.add_argument("--config", required=True, help="path to a JSON experiment config")
    sub.add_argument("--paper-scale", action="store_true",
                     help="override the grid to the full-resolution setting")
    if out_required:
        sub.add_argument("--out", required=True, help="output file or directory")
    if rsvd:
        sub.add_argument("--rank", type=int, help="basis rank override")
        sub.add_argument("--oversample", type=int, help="extra sketch columns")
        sub.add_argument("--power", type=int, help="subspace iteration passes")
        sub.add_argument("--seed", type=int, help="sketch seed override")
    if nmax:
        sub.add_argument("--nmax", type=_positive_int,
                         help="largest truncation level in the curve")
    if nonlinear:
        sub.add_argument("--tol", type=_finite_float,
                         help="fixed-point step tolerance (the Newton reference "
                              "always solves to 1e-12)")
        sub.add_argument("--max-iter", type=int, dest="max_iter",
                         help="fixed-point iteration budget")
        sub.add_argument("--relax", type=_finite_float, help="fixed-point relaxation factor")
    if samples is not None:
        sub.add_argument("--samples", type=_positive_int, default=samples,
                         help="number of random draws")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="optbasis",
        description="Reduced bases for discretized PDE solution operators",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("assemble-check",
                              help="assemble a problem and run structural checks")
    _add_common(sub)
    sub.set_defaults(func=cmd_assemble_check)

    sub = commands.add_parser("basis", help="compute a randomized basis and write it")
    _add_common(sub, out_required=True, rsvd=True)
    sub.set_defaults(func=cmd_basis)

    sub = commands.add_parser("sv-decay", help="write relative singular value decay")
    _add_common(sub, out_required=True, rsvd=True)
    sub.set_defaults(func=cmd_sv_decay)

    sub = commands.add_parser("solve-linear",
                              help="projection error curve against a direct solve")
    _add_common(sub, out_required=True, rsvd=True, nmax=True)
    sub.set_defaults(func=cmd_solve_linear)

    sub = commands.add_parser("solve-nonlinear",
                              help="fixed-point error curve against a Newton solve")
    _add_common(sub, out_required=True, rsvd=True, nmax=True, nonlinear=True)
    sub.set_defaults(func=cmd_solve_nonlinear)

    sub = commands.add_parser("oracle-svd",
                              help="dense SVD oracle basis for small problems")
    _add_common(sub, out_required=True)
    sub.set_defaults(func=cmd_oracle_svd)

    sub = commands.add_parser("nwidth-check",
                              help="verify the width identity and subspace optimality")
    _add_common(sub, samples=100)
    sub.set_defaults(func=cmd_nwidth_check)

    sub = commands.add_parser("bayes-check",
                              help="verify the trace objective and reconstruction bound")
    _add_common(sub, samples=100)
    sub.set_defaults(func=cmd_bayes_check)

    sub = commands.add_parser("sweep",
                              help="singular value decay across the scale separation sweep")
    _add_common(sub, out_required=True, rsvd=True)
    sub.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OptbasisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
