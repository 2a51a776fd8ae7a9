"""Every error the package raises on purpose is one of its own types.

A static scan walks the syntax tree of each module of ``src/optbasis`` and
flags every ``raise`` of a builtin exception class outside a short
allow-list, so a stray ``ValueError`` cannot come back unnoticed; the sites
that raise ``InvalidArgument`` in its place are then exercised one by one.
"""

import ast
import builtins
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from optbasis.basis import checked_levels
from optbasis.bayes import dense_svd_oracle
from optbasis.elliptic import EllipticMedium, assemble_elliptic
from optbasis.exceptions import InvalidArgument, OptbasisError
from optbasis.grids import Grid2D, PhaseGrid
from optbasis.linalg import factorize
from optbasis.nonlinear import CubicTerm, check_linear_representation_bound
from optbasis.transport import hg_kernel_matrix
from optbasis.weights import (
    WeightFactor,
    build_sobolev_weight,
    fd_operator_1d,
    identity_weight,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "optbasis"

# (module, enclosing function, builtin class) allowed to raise a builtin:
# read_basis's malformed-file IOErrors, which the CLI maps to exit 2 like
# every OptbasisError, and _coerce's fall-through, which no config key reaches.
ALLOWED = {("obf", "read_basis", "IOError"), ("config", "_coerce", "TypeError")}


def builtin_raises(tree, module):
    """(module, enclosing function, class) for each raise of a builtin exception class."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                cls = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
                if isinstance(cls, type) and issubclass(cls, BaseException):
                    found.append((module, function, exc.id))
            visit(child, function)

    visit(tree, None)
    return found


def package_raises():
    return [site for path in sorted(PACKAGE.glob("*.py"))
            for site in builtin_raises(ast.parse(path.read_text(), filename=str(path)),
                                       path.stem)]


def test_no_builtin_exception_is_raised_outside_the_allow_list():
    assert [site for site in package_raises() if site not in ALLOWED] == []


def test_every_allowed_site_still_exists():
    assert ALLOWED <= set(package_raises())


def test_the_scan_sees_builtin_raises_only():
    tree = ast.parse("raise KeyError\n"
                     "def f(exc):\n"
                     "    raise ValueError('x')\n"
                     "    raise Custom('y')\n"
                     "    raise exc\n"
                     "    raise\n"
                     "class C:\n"
                     "    def g(self):\n"
                     "        raise OSError from None\n")
    assert builtin_raises(tree, "m") == [("m", None, "KeyError"), ("m", "f", "ValueError"),
                                         ("m", "g", "OSError")]


def unconverged_reference():
    solver = factorize(assemble_elliptic(Grid2D(4), EllipticMedium(1.0)))
    fx = identity_weight(solver.n)
    basis = dense_svd_oracle(solver.solve(np.eye(solver.n)), fx)
    f = np.ones(solver.n)
    check_linear_representation_bound(basis, solver, fx, f, CubicTerm(), f, [1])


SITES = {
    "grid-intervals": lambda: Grid2D(1),
    "grid-length": lambda: Grid2D(4, length=0.0),
    "phase-angles": lambda: PhaseGrid(Grid2D(4), 0),
    "hg-anisotropy": lambda: hg_kernel_matrix(1.0, 4),
    "hg-kernel-finite": lambda: hg_kernel_matrix(0.999999999, 4),
    "truncation-levels": lambda: checked_levels([0]),
    "difference-order": lambda: fd_operator_1d(6, -1, 0.1),
    "weight-scale": lambda: WeightFactor.diagonal(0.0, 3),
    "weight-symmetry": lambda: WeightFactor.from_gram(np.array([[2.0, 1.0], [0.0, 2.0]])),
    "weight-definiteness": lambda: WeightFactor.from_gram(-np.eye(2)),
    "sobolev-order": lambda: build_sobolev_weight(3, Grid2D(6)),
    "reference-accuracy": unconverged_reference,
    "node-size": lambda: factorize(sp.identity(3, format="csr"), 2),
}


@pytest.mark.parametrize("site", list(SITES))
def test_each_invalid_argument_is_the_package_error_and_a_value_error(site):
    with pytest.raises(OptbasisError) as err:
        SITES[site]()
    assert type(err.value) is InvalidArgument
    assert isinstance(err.value, ValueError)
