"""Every trace hook of the benchmark (perfbench/spans.py HOOKS) still binds in the package,
and what its counters read off a hooked call still exists.

A hook whose target was renamed is skipped at trace time with only a warning,
and its per-layer metrics go missing; this check fails on the rename instead.
The hooks are read, never installed.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _read_hooks():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.HOOKS


HOOKS = _read_hooks()


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


@pytest.mark.parametrize("hook", HOOKS, ids=lambda h: f"{h.group}:{h.name}")
def test_hook_target_exists(hook):
    module = importlib.import_module(f"optbasis.{hook.module}")
    target = getattr(module, hook.name, None)
    assert callable(target), f"optbasis.{hook.module} has no {hook.name}"
    classes = _subclasses(target) if hook.methods else []
    for method in hook.methods:
        assert any(inspect.isfunction(c.__dict__.get(method)) for c in classes), (
            f"no class under optbasis.{hook.module}.{hook.name} defines {method}"
        )


# What the counters of perfbench/spans.py read off the hooked calls: a rename
# here would zero a per-layer metric without any hook failing to bind.
def test_compute_basis_takes_params_fourth():
    from optbasis.basis import compute_basis

    assert list(inspect.signature(compute_basis).parameters)[3] == "params"


def test_fixed_point_result_reports_iterations_and_convergence():
    from optbasis.nonlinear import FixedPointResult

    assert {"iterations", "converged"} <= {f.name for f in dataclasses.fields(FixedPointResult)}


def test_a_factorized_solver_keeps_its_lu():
    import scipy.sparse as sp

    from optbasis.linalg import factorize

    lu = factorize(sp.identity(3, format="csc"))._lu
    assert all(hasattr(lu, name) for name in ("L", "U", "shape"))
