"""Trace hooks installed from outside the package, and the per-layer metrics they give.

``install()`` wraps public functions and methods of the optbasis modules in
place, in every optbasis module namespace that bound them, so calls made
through ``from .x import f`` are seen too.  Each call becomes a span (name,
start, end, parent span) kept in memory; counters are read at the same
boundaries from arguments and results.  Nothing under ``src/`` changes.

A hook whose module, class, function or method no longer exists is not an
error: it is listed as absent, with a warning on stderr, and the metrics
that depend on it are left out of the report.  The untraced benchmark runs
never import this module.

Self time is a span's duration minus the durations of its direct children.
Inclusive times (``*_s`` without ``self``) count only the outermost span of
a group, so nested calls into the same group are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    group: str                 # span name; the module part is the layer
    module: str                # optbasis submodule
    name: str                  # function, or class whose subclasses are hooked too
    methods: tuple = ()        # empty for a function


def _fn(group, module, name):
    return Hook(group, module, name)


def _cls(group, module, name, *methods):
    return Hook(group, module, name, methods)


# The measured layers are the package modules.  config (parsing, < 1 ms),
# grids (descriptors only) and bayes (the dense path no workload command
# calls) are deliberately not hooked.
HOOKS = (
    _fn("cli.main", "cli", "main"),
    _fn("experiments.build_problem", "experiments", "build_problem"),
    _fn("experiments.compute_problem_basis", "experiments", "compute_problem_basis"),
    _fn("experiments.reference", "experiments", "reference_solution"),
    _fn("experiments.curve", "experiments", "error_curve"),
    _fn("experiments.curve", "experiments", "nonlinear_error_curve"),
    _fn("elliptic.assemble", "elliptic", "assemble_elliptic"),
    _fn("elliptic.source", "elliptic", "eval_source_elliptic"),
    _fn("transport.assemble", "transport", "assemble_rte"),
    _fn("transport.source", "transport", "eval_source_rte"),
    _fn("weights.build", "weights", "build_sobolev_weight"),
    _fn("weights.build", "weights", "build_rte_weight"),
    _fn("weights.build", "weights", "identity_weight"),
    _fn("weights.energy_norm", "weights", "energy_norm"),
    _cls("weights.apply", "weights", "WeightFactor", "apply", "apply_t"),
    _cls("weights.solve", "weights", "WeightFactor", "solve", "solve_t"),
    _fn("linalg.factorize", "linalg", "factorize"),
    _cls("linalg.solve", "linalg", "FactorizedSolver", "solve"),
    _cls("linalg.solve_t", "linalg", "FactorizedSolver", "solve_transpose"),
    _fn("linalg.qr", "linalg", "qr_thin"),
    _fn("linalg.svd", "linalg", "svd_dense"),
    _fn("basis.compute_basis", "basis", "compute_basis"),
    _cls("basis.projector_build", "basis", "SourceProjector", "__init__"),
    _cls("basis.project", "basis", "SourceProjector", "coefficients"),
    _fn("basis.reconstruct", "basis", "reconstruct"),
    _fn("basis.relation_check", "basis", "defining_relation_errors"),
    _fn("nonlinear.fixed_point", "nonlinear", "fixed_point_solve"),
    _fn("nonlinear.newton", "nonlinear", "newton_reference"),
    _cls("nonlinear.term", "nonlinear", "CubicTerm", "__call__", "jacobian"),
    _cls("nonlinear.term", "nonlinear", "TwoPhotonTerm", "__call__", "jacobian"),
    _fn("obf.write", "obf", "write_basis"),
)

LAYERS = ("cli", "experiments", "elliptic", "transport", "weights", "linalg", "basis",
          "nonlinear", "obf")


def _cols(a):
    shape = getattr(a, "shape", ())
    return 1 if len(shape) < 2 else int(shape[1])


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """In-memory span recorder with counters read at the hooked boundaries."""

    def __init__(self):
        self.spans = []        # [group, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(float)
        self.lu_nnz = {}       # id(solver) -> nnz(L + U), computed from the factors
        self.absent = []       # hooks that could not be installed
        self.no_count = set()  # counters that could not be read

    # -- span bookkeeping -------------------------------------------------
    def wrap(self, group, fn):
        tracer = self
        count = _COUNTERS.get(group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [group, time.perf_counter(), None, parent]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if count is not None:
                outer = parent < 0 or tracer.spans[parent][0] != group
                count(tracer, args, kwargs, result, outer)
            return result

        return wrapper

    # -- report -----------------------------------------------------------
    def report(self):
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        groups = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        modules = dict.fromkeys(LAYERS, 0.0)
        min_self = 0.0
        for i, s in enumerate(spans):
            g = groups[s[0]]
            g["calls"] += 1
            self_s = dur[i] - child[i]
            min_self = min(min_self, self_s)
            g["self_s"] += self_s
            if not self._has_ancestor(i, s[0]):
                g["incl_s"] += dur[i]
            layer = s[0].split(".", 1)[0]
            modules[layer] = modules.get(layer, 0.0) + self_s
        counts = dict(self.counts)
        counts["linalg.lu_nnz"] = max(self.lu_nnz.values(), default=0)
        counts["nonlinear.newton_factorizations"] = sum(
            1 for i, s in enumerate(spans)
            if s[0] == "linalg.factorize" and self._has_ancestor(i, "nonlinear.newton"))
        names = sorted({s[0] for s in spans})
        index = {n: k for k, n in enumerate(names)}
        return {
            "groups": dict(groups),
            "layer_self_s": modules,
            "counts": counts,
            "min_self_s": min_self,
            "absent": list(self.absent),
            "no_count": sorted(self.no_count),
            "span_names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3]] for s in spans],
        }

    def _has_ancestor(self, i, group):
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == group:
                return True
            p = self.spans[p][3]
        return False


# -- counters, called after a hooked call returns -----------------------------

def _count_factorize(tracer, args, kwargs, solver, outer):
    tracer.counts["linalg.factorize_calls"] += 1
    lu = getattr(solver, "_lu", None)
    if lu is None or not hasattr(lu, "L"):
        tracer.no_count.add("linalg.lu_nnz")
        return
    tracer.lu_nnz[id(solver)] = int(lu.L.nnz + lu.U.nnz - lu.shape[0])


def _solve_counter(kind):
    def count(tracer, args, kwargs, result, outer):
        cols = _cols(args[1]) if len(args) > 1 else 1
        tracer.counts[f"linalg.{kind}_cols"] += cols
        nnz = tracer.lu_nnz.get(id(args[0]))
        if nnz is None:
            tracer.no_count.add("linalg.solve_flops")
        else:
            tracer.counts["linalg.solve_flops"] += 2.0 * nnz * cols
    return count


def _count_qr(tracer, args, kwargs, q, outer):
    tracer.counts["linalg.qr_calls"] += 1
    tracer.counts["linalg.qr_cols_in"] += _cols(args[0])
    tracer.counts["linalg.qr_cols_out"] += _cols(q)


def _weights_counter(kind):
    def count(tracer, args, kwargs, result, outer):
        if outer and len(args) > 1:
            tracer.counts[f"weights.{kind}_cols"] += _cols(args[1])
    return count


def _count_compute_basis(tracer, args, kwargs, basis, outer):
    # compute_basis(solver, fx, fy, params, meta=None)
    params = args[3] if len(args) > 3 else kwargs.get("params")
    tracer.counts["basis.rank_requested"] += getattr(params, "rank", 0)
    tracer.counts["basis.rank_kept"] += getattr(basis, "rank", 0)


def _count_projector(tracer, args, kwargs, result, outer):
    tracer.counts["basis.projector_builds"] += 1


def _count_fixed_point(tracer, args, kwargs, result, outer):
    tracer.counts["nonlinear.fixed_point_calls"] += 1
    tracer.counts["nonlinear.fixed_point_iters"] += getattr(result, "iterations", 0)
    tracer.counts["nonlinear.fixed_point_converged"] += bool(getattr(result, "converged", False))


def _count_write(tracer, args, kwargs, sidecar, outer):
    tracer.counts["obf.bytes_written"] += _file_size(args[0]) + _file_size(sidecar)


_COUNTERS = {
    "linalg.factorize": _count_factorize,
    "linalg.solve": _solve_counter("solve"),
    "linalg.solve_t": _solve_counter("solve_t"),
    "linalg.qr": _count_qr,
    "weights.apply": _weights_counter("apply"),
    "weights.solve": _weights_counter("solve"),
    "basis.compute_basis": _count_compute_basis,
    "basis.projector_build": _count_projector,
    "nonlinear.fixed_point": _count_fixed_point,
    "obf.write": _count_write,
}


# -- installation --------------------------------------------------------------

def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "optbasis" or name.startswith("optbasis."))]


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _install_hook(tracer, hook):
    try:
        module = importlib.import_module(f"optbasis.{hook.module}")
    except ImportError:
        return False
    target = getattr(module, hook.name, None)
    if target is None:
        return False
    if not hook.methods:
        if not callable(target):
            return False
        wrapper = tracer.wrap(hook.group, target)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, attr, wrapper)
        return True
    found = set()
    for cls in _subclasses(target):
        for meth in hook.methods:
            fn = cls.__dict__.get(meth)
            if inspect.isfunction(fn):
                setattr(cls, meth, tracer.wrap(hook.group, fn))
                found.add(meth)
    return found == set(hook.methods)


def install(hooks=HOOKS):
    """Wrap every hook that exists; return the tracer that records them."""
    tracer = Tracer()
    for hook in hooks:
        if not _install_hook(tracer, hook):
            label = f"optbasis.{hook.module}.{hook.name}"
            if hook.methods:
                label += "." + "/".join(hook.methods)
            tracer.absent.append(hook.group)
            print(f"perfbench: trace hook {label} not found; "
                  f"metrics that need '{hook.group}' are reported as absent",
                  file=sys.stderr)
    return tracer


# -- per-layer metrics ---------------------------------------------------------

def _incl(group):
    return lambda r: r["groups"].get(group, {}).get("incl_s", 0.0)


def _self(group):
    return lambda r: r["groups"].get(group, {}).get("self_s", 0.0)


def _count(name):
    return lambda r: r["counts"].get(name, 0)


def _ratio(num, den):
    def f(r):
        d = r["counts"].get(den, 0)
        return r["counts"].get(num, 0) / d if d else 0.0
    return f


def _solve_gflops(r):
    t = _incl("linalg.solve")(r) + _incl("linalg.solve_t")(r)
    return r["counts"].get("linalg.solve_flops", 0.0) / t / 1e9 if t > 0 else 0.0


def _layer_self(layer):
    return lambda r: r["layer_self_s"].get(layer, 0.0)


# (name, unit, groups whose hooks it needs, value from the child's trace report).
# A layer that does not run on a workload reports 0.  linalg.lu_nnz (largest
# factor) and linalg.solve_flops are computed from the LU factors' sizes, not
# measured: flops = 2 * nnz(L + U) per right-hand-side column.
LAYER_METRICS = (
    ("cli.self_s", "s", ("cli.main",), _self("cli.main")),
    ("experiments.build_problem_s", "s", ("experiments.build_problem",),
     _incl("experiments.build_problem")),
    ("experiments.reference_s", "s", ("experiments.reference",), _incl("experiments.reference")),
    ("experiments.curve_s", "s", ("experiments.curve",), _incl("experiments.curve")),
    ("elliptic.assemble_s", "s", ("elliptic.assemble",), _incl("elliptic.assemble")),
    ("transport.assemble_s", "s", ("transport.assemble",), _incl("transport.assemble")),
    ("weights.build_s", "s", ("weights.build",), _incl("weights.build")),
    ("weights.apply_s", "s", ("weights.apply",), _incl("weights.apply")),
    ("weights.apply_cols", "count", ("weights.apply",), _count("weights.apply_cols")),
    ("weights.solve_s", "s", ("weights.solve",), _incl("weights.solve")),
    ("weights.solve_cols", "count", ("weights.solve",), _count("weights.solve_cols")),
    ("linalg.factorize_s", "s", ("linalg.factorize",), _incl("linalg.factorize")),
    ("linalg.factorize_calls", "count", ("linalg.factorize",),
     _count("linalg.factorize_calls")),
    ("linalg.lu_nnz", "count", ("linalg.factorize",), _count("linalg.lu_nnz")),
    ("linalg.solve_s", "s", ("linalg.solve",), _incl("linalg.solve")),
    ("linalg.solve_cols", "count", ("linalg.solve",), _count("linalg.solve_cols")),
    ("linalg.solve_t_s", "s", ("linalg.solve_t",), _incl("linalg.solve_t")),
    ("linalg.solve_t_cols", "count", ("linalg.solve_t",), _count("linalg.solve_t_cols")),
    ("linalg.solve_flops", "flop", ("linalg.factorize", "linalg.solve", "linalg.solve_t"),
     _count("linalg.solve_flops")),
    ("linalg.solve_gflops", "GFLOP/s", ("linalg.factorize", "linalg.solve", "linalg.solve_t"),
     _solve_gflops),
    ("linalg.qr_s", "s", ("linalg.qr",), _incl("linalg.qr")),
    ("linalg.qr_calls", "count", ("linalg.qr",), _count("linalg.qr_calls")),
    ("linalg.qr_kept_frac", "ratio", ("linalg.qr",),
     _ratio("linalg.qr_cols_out", "linalg.qr_cols_in")),
    ("linalg.svd_s", "s", ("linalg.svd",), _incl("linalg.svd")),
    ("basis.compute_basis_s", "s", ("basis.compute_basis",), _incl("basis.compute_basis")),
    ("basis.compute_basis_self_s", "s",
     ("basis.compute_basis", "linalg.solve", "linalg.solve_t", "linalg.qr", "linalg.svd",
      "weights.apply", "weights.solve"),
     _self("basis.compute_basis")),
    ("basis.rank_kept_frac", "ratio", ("basis.compute_basis",),
     _ratio("basis.rank_kept", "basis.rank_requested")),
    ("basis.projector_builds", "count", ("basis.projector_build",),
     _count("basis.projector_builds")),
    ("basis.projector_build_s", "s", ("basis.projector_build",),
     _incl("basis.projector_build")),
    ("basis.reconstruct_s", "s", ("basis.reconstruct",), _incl("basis.reconstruct")),
    ("basis.relation_check_s", "s", ("basis.relation_check",), _incl("basis.relation_check")),
    ("nonlinear.fixed_point_s", "s", ("nonlinear.fixed_point",), _incl("nonlinear.fixed_point")),
    ("nonlinear.fixed_point_iters", "count", ("nonlinear.fixed_point",),
     _count("nonlinear.fixed_point_iters")),
    ("nonlinear.fixed_point_converged_frac", "ratio", ("nonlinear.fixed_point",),
     _ratio("nonlinear.fixed_point_converged", "nonlinear.fixed_point_calls")),
    ("nonlinear.newton_s", "s", ("nonlinear.newton",), _incl("nonlinear.newton")),
    ("nonlinear.newton_factorizations", "count", ("nonlinear.newton", "linalg.factorize"),
     _count("nonlinear.newton_factorizations")),
    ("obf.write_s", "s", ("obf.write",), _incl("obf.write")),
    ("obf.bytes_written", "B", ("obf.write",), _count("obf.bytes_written")),
) + tuple((f"{layer}.self_s", "s", (), _layer_self(layer)) for layer in LAYERS[1:])

# Counters whose inputs come from outside the public API; when they cannot be
# read the metric is absent even though its hooks are installed.
_COUNT_SOURCES = {"linalg.lu_nnz": ("linalg.lu_nnz",),
                  "linalg.solve_flops": ("linalg.lu_nnz", "linalg.solve_flops"),
                  "linalg.solve_gflops": ("linalg.lu_nnz", "linalg.solve_flops")}

TRACE_METRICS = (
    ("trace.wall_s", "s"),          # wall time of the traced command
    ("trace.overhead_s", "s"),      # traced wall_s minus the untraced median
)

PER_LAYER_UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS} | dict(TRACE_METRICS)


def layer_metrics(report):
    """Per-layer metric values from a trace report, and the names left absent."""
    absent_groups = set(report["absent"])
    no_count = set(report["no_count"])
    values, absent = {}, []
    for name, _unit, needs, fn in LAYER_METRICS:
        if absent_groups.intersection(needs) or no_count.intersection(
                _COUNT_SOURCES.get(name, ())):
            absent.append(name)
        else:
            values[name] = float(fn(report))
    return values, absent


def self_time_sum(report):
    """Sum of every layer's self time: the traced command's time as the spans see it."""
    return sum(report["layer_self_s"].values())
