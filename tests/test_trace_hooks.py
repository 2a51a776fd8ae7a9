"""Every trace hook of the benchmark (perfbench/spans.py HOOKS) still binds in the package,
and what its counters read off a hooked call still exists.

A hook whose target was renamed is skipped at trace time with only a warning,
and its per-layer metrics go missing; this check fails on the rename instead.
The hooks are read, never installed in this process; one traced benchmark
child runs in a subprocess of its own, as the benchmark starts it.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


spans = _load("spans")
workloads = _load("workloads")
HOOKS = spans.HOOKS


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

    # the counter reads params as args[3] or kwargs["params"]; keyword only, it is the latter
    param = inspect.signature(compute_basis).parameters["params"]
    assert param.kind is inspect.Parameter.KEYWORD_ONLY


def test_fixed_point_result_reports_iterations_and_convergence():
    from optbasis.nonlinear import FixedPointResult

    assert {"iterations", "converged"} <= {f.name for f in dataclasses.fields(FixedPointResult)}


def test_a_factorized_solver_keeps_its_lu():
    import scipy.sparse as sp

    from optbasis.linalg import factorize

    lu = factorize(sp.identity(3, format="csc"))._lu
    assert all(hasattr(lu, name) for name in ("L", "U", "shape"))


def _traced_toy_child(name, tmp_path):
    """Per-layer metrics of the toy ``name`` job through perfbench/child.py with its hooks
    installed, as the benchmark's traced run starts it: one BLAS thread, the package from
    src/.  Asserts that no metric is absent and that the values are strict JSON."""
    workload = workloads.get(name, toy=True)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config(1)))
    job, result = tmp_path / "job.json", tmp_path / "result.json"
    job.write_text(json.dumps({"argv": workload.argv(config, tmp_path / workload.output),
                               "trace": True, "result": str(result)}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(job)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(result.read_text())
    assert record["rc"] == 0, record["error"]
    values, absent = spans.layer_metrics(record["trace"])
    assert absent == []
    json.dumps(values, allow_nan=False)
    return workload, values


def test_a_traced_transport_basis_child_reports_every_metric(tmp_path):
    from optbasis.config import config_from_dict
    from optbasis.experiments import build_problem

    workload, values = _traced_toy_child("transport-basis", tmp_path)
    assert values["basis.rank_kept_frac"] == 1.0
    # the traced fill is read off the factors L and U the block factor builds on demand
    solver = build_problem(config_from_dict(workload.config(1))).factorize()
    assert values["linalg.lu_nnz"] == solver.nnz


def test_a_traced_elliptic_solve_child_reports_every_metric(tmp_path):
    _, values = _traced_toy_child("elliptic-solve", tmp_path)
    assert values["nonlinear.fixed_point_iters"] > 0
