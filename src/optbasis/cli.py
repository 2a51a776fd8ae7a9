"""Command line front end for assembling, basis building and experiment runs."""

import argparse
import contextlib
import ctypes
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import obf
from .basis import defining_relation_errors, single_passes, sketch_width
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
from .linalg import SOLVE_CHUNK, reciprocity_defect
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
    setup = build_problem(_load_config(args))
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

    if setup.config.pde == "elliptic":
        asymmetry = abs(setup.operator - setup.operator.T).max()
        checks.record("operator symmetric", asymmetry == 0.0, f"defect {asymmetry:.3e}")
        ones = np.ones(setup.n_dofs)
        u = solver.solve(ones)
        checks.record("maximum principle", u.min() >= -1e-12, f"min {u.min():.3e}")
        n = setup.grid.n_per_dim
        idx = np.arange(n * n).reshape(n, n)
        inner = idx[1:-1, 1:-1].ravel()
        if inner.size:
            sums = np.asarray(setup.operator.sum(axis=1)).ravel()[inner]
            scale = abs(setup.operator.diagonal()).max()
            checks.record("interior row sums vanish", abs(sums).max() <= 1e-9 * scale,
                          f"max {abs(sums).max():.3e}")
    elif setup.config.pde == "rte":
        from .transport import hg_kernel_matrix

        n_angles = setup.phase_grid.n_angles
        kernel = hg_kernel_matrix(setup.config.g, n_angles)
        row_defect = abs(kernel.sum(axis=1) / n_angles - 1.0).max()
        checks.record("kernel rows normalized", row_defect <= 1e-12,
                      f"defect {row_defect:.3e}")
        coo = setup.operator.tocoo()
        off = coo.data[coo.row != coo.col]
        checks.record("off-diagonal signs", off.max() <= 1e-12 if off.size else True)
        checks.record("diagonal positive", setup.operator.diagonal().min() > 0.0)
        zero = solver.solve(np.zeros(setup.n_dofs))
        checks.record("zero source gives zero solution", abs(zero).max() == 0.0)
        reversal = setup.phase_grid.reversal()
        if reversal is None:
            checks.record("operator reciprocal", True,
                          f"no direction reversal exists for {n_angles} angles")
        else:
            defect = reciprocity_defect(setup.operator, reversal)
            relation = "exact L^T == P L P" if defect == 0 else "L^T != P L P"
            checks.record("operator reciprocal", defect == 0,
                          f"{relation}, {defect} mismatched entries")

    return checks.exit_code()


def _sketched_problem(config):
    """The assembled problem of a command that sketches, refused before any factor when
    the sketch is wider than its unknowns."""
    setup = build_problem(config)
    sketch_width(config.rsvd, setup.n_dofs)
    return setup


def _factor(setup):
    """The operator's sparse LU for a command that sketches; prints how its solves run:
    SuperLU's column chunks, or one sweep of node blocks, with the number of power
    passes the sketch runs in float32 when there are any."""
    solver = setup.factorize()
    how = (f"chunks of at most {SOLVE_CHUNK} columns" if solver.node_size == 1 else
           f"node blocks of {solver.node_size} unknowns, all columns in one sweep")
    single = single_passes(solver, setup.fx, setup.config.rsvd)
    if single:
        how += f", {single} of {setup.config.rsvd.power} power passes in float32"
    print(f"sparse solves: 1 thread, {how}")
    return solver


def cmd_basis(args):
    setup = _sketched_problem(_load_config(args))
    solver = _factor(setup)
    basis = compute_problem_basis(setup, solver)
    r = basis.rank
    sample = sorted(set([0, r // 2, r - 1]) | set(range(0, r, max(1, r // 8))))
    for name, value in defining_relation_errors(basis, solver, setup.fx, sample).items():
        print(f"{name}: {value:.3e}")
    side = obf.write_basis(args.out, basis, setup.config)
    print(f"wrote rank-{basis.rank} basis to {args.out} (sidecar {side})")
    return 0


def cmd_sv_decay(args):
    setup = _sketched_problem(_load_config(args))
    basis = compute_problem_basis(setup)
    _write_decay_csv(args.out, basis)
    print(f"wrote {basis.rank} singular value ratios to {args.out}")
    return 0


def cmd_curve(args):
    """solve-linear and solve-nonlinear: basis and reference from one factorization,
    the truncation bound at every n of the curve, then the error curve's CSV."""
    semilinear = args.command == "solve-nonlinear"
    config = _load_config(args)
    if config.is_semilinear != semilinear:
        kind = "semilinear" if semilinear else "linear"
        raise ConfigInvalid(f"{args.command} needs a {kind} problem family")
    setup = _sketched_problem(config)
    solver = _factor(setup)
    basis = compute_problem_basis(setup, solver)
    u_ref = reference_solution(setup, solver)
    nmax = min(args.nmax or basis.rank, basis.rank)
    n_values = list(range(1, nmax + 1))
    bound = check_linear_representation_bound(basis, solver, setup.fx, setup.source,
                                              setup.term, u_ref, n_values)
    grid = setup.grid if config.pde == "elliptic" else None
    if semilinear:
        result = nonlinear_error_curve(u_ref, basis, setup.fx, setup.source, setup.term,
                                       n_values, config.nonlinear, grid=grid)
    else:
        result = error_curve(u_ref, basis, setup.fx, setup.source, n_values, grid=grid)
    _write_csv(args.out, result.header(), result.rows())
    what = "fixed-point error curve" if semilinear else "error curve"
    print(f"wrote {what} for n = 1..{nmax} to {args.out}")
    if bound:
        n, lhs, rhs = max(bound, key=lambda checked: checked[1] / checked[2])
        print(f"truncation bound holds for n = 1..{bound[-1][0]} "
              f"(worst lhs/rhs {lhs / rhs:.3f} at n = {n})")
    else:
        print(f"truncation bound not checked: no n below the basis rank {basis.rank}")
    return 0


def cmd_oracle_svd(args):
    setup = build_problem(_load_config(args))
    basis = oracle_problem_basis(setup)
    side = obf.write_basis(args.out, basis, setup.config)
    head = ", ".join(f"{v:.6e}" for v in basis.singular_values[:10])
    print(f"leading singular values: {head}")
    print(f"wrote rank-{basis.rank} oracle basis to {args.out} (sidecar {side})")
    return 0


def _checked_operator(setup):
    """Oracle basis and weighted operator A = G F_X^{-1} of the optimality checks, from
    one dense G; their subspaces need 1 <= n < N."""
    if setup.n_dofs < 2:
        raise ConfigInvalid(
            f"the dense optimality checks need at least 2 unknowns, got {setup.n_dofs}"
        )
    green = green_matrix(setup, DENSE_BAYES_GUARD)
    return oracle_problem_basis(setup, green), weighted_operator(green, setup.fx)


def cmd_nwidth_check(args):
    setup = build_problem(_load_config(args))
    basis, a = _checked_operator(setup)
    lam = basis.singular_values
    checks = _Checks()
    rng = np.random.Generator(np.random.Philox(777))
    for n in range(1, min(5, setup.n_dofs - 1) + 1):
        width = nwidth_eval(a, setup.fx, basis.right_vectors[:, :n])
        checks.record(f"width at optimal n = {n} matches next singular value",
                      abs(width - lam[n]) <= 1e-10 * lam[n],
                      f"|{width:.6e} - {lam[n]:.6e}|")
        # min(w) - lambda_{n+1} over the candidates: positive when all are dominated
        margin = min(nwidth_eval(a, setup.fx, rng.standard_normal((setup.n_dofs, n)))
                     for _ in range(args.samples)) - lam[n]
        checks.record(f"random candidates dominated at n = {n}", margin >= -1e-10 * lam[n],
                      f"smallest margin {margin:.3e}")
    return checks.exit_code()


def cmd_bayes_check(args):
    """Trace checks under the prior f ~ N(0, Pi_X^{-1}), that is on A = G F_X^{-1}."""
    setup = build_problem(_load_config(args))
    basis, a = _checked_operator(setup)
    checks = _Checks()
    n = min(4, setup.n_dofs - 1)
    optimal = basis.left_vectors[:, :n]
    objective = trace_objective(a, optimal)
    closed = float(np.sum(basis.singular_values[:n] ** 2))
    checks.record("objective at optimum matches closed form",
                  abs(objective - closed) <= 1e-9 * closed,
                  f"gap {abs(objective - closed):.3e}")
    # the captured trace and the posterior's own covariance trace add up to tr(A A^T)
    residual = float(np.trace(posterior(a, optimal, np.zeros(n)).covariance))
    total = float(np.vdot(a, a))
    gap = abs(objective + residual - total)
    checks.record("trace conservation", gap <= 1e-8 * total, f"gap {gap:.3e}")
    rng = np.random.Generator(np.random.Philox(4242))
    dominated = True
    violations = 0
    for _ in range(args.samples):
        m = rng.standard_normal((setup.n_dofs, n))
        if trace_objective(a, m) > objective * (1.0 + 1e-9):
            dominated = False
        f = rng.standard_normal(setup.n_dofs)
        try:
            check_reconstruction_bound(a, m, f)
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
        basis = compute_problem_basis(_sketched_problem(replace(config, **medium)))
        path = out_dir / f"sv_decay_eps{eps:g}.csv"
        _write_decay_csv(path, basis)
        written.append(path)
    for path in written:
        print(f"wrote {path}")
    return 0


def _add_command(commands, name, func, help_text, out_required=False, rsvd=False,
                 nmax=False, nonlinear=False, samples=None):
    sub = commands.add_parser(name, help=help_text)
    sub.set_defaults(func=func)
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
    _add_command(commands, "assemble-check", cmd_assemble_check,
                 "assemble a problem and run structural checks")
    _add_command(commands, "basis", cmd_basis, "compute a randomized basis and write it",
                 out_required=True, rsvd=True)
    _add_command(commands, "sv-decay", cmd_sv_decay, "write relative singular value decay",
                 out_required=True, rsvd=True)
    _add_command(commands, "solve-linear", cmd_curve,
                 "projection error curve against a direct solve",
                 out_required=True, rsvd=True, nmax=True)
    _add_command(commands, "solve-nonlinear", cmd_curve,
                 "fixed-point error curve against a Newton solve",
                 out_required=True, rsvd=True, nmax=True, nonlinear=True)
    _add_command(commands, "oracle-svd", cmd_oracle_svd,
                 "dense SVD oracle basis for small problems", out_required=True)
    _add_command(commands, "nwidth-check", cmd_nwidth_check,
                 "verify the width identity and subspace optimality", samples=100)
    _add_command(commands, "bayes-check", cmd_bayes_check,
                 "verify the trace objective and reconstruction bound", samples=100)
    _add_command(commands, "sweep", cmd_sweep,
                 "singular value decay across the scale separation sweep",
                 out_required=True, rsvd=True)
    return parser


def _pin_blas_threads():
    """Set the OpenBLAS that numpy and scipy each bundle to one thread, leaving alone a
    library or setter that is missing.  Left to its own pool, OpenBLAS made node-block
    sweeps ten times slower on two cores and changed the bytes of written files."""
    for package, pattern, setter in (
            (np, "libscipy_openblas64_*", "scipy_openblas_set_num_threads64_"),
            (scipy, "libscipy_openblas*", "scipy_openblas_set_num_threads")):
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        for path in libs.glob(pattern):
            with contextlib.suppress(OSError, AttributeError):
                set_threads = getattr(ctypes.CDLL(str(path)), setter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)


def main(argv=None):
    _pin_blas_threads()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OptbasisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
