"""The benchmark's correctness gates (perfbench/gates.py) still read what the CLI writes.

Each toy workload of perfbench/workloads.py runs through ``cli.main`` and its
output goes through the gate the benchmark applies to it, so a change to the
package API the gates use (``obf.read_basis``, ``config.load_config``,
``experiments.build_problem``, the weight factors) fails here rather than in
every benchmark command.  Nothing under perfbench/ is modified or run.
"""

import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from optbasis.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 3


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


gates = _load("gates")
workloads = _load("workloads")


def _run(workload, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(workload.config(SEED)))
    out = tmp_path / workload.output
    assert main(workload.argv(config_path, out)) == 0
    return config_path, out


@pytest.mark.parametrize("name", sorted(workloads.TOY_WORKLOADS))
def test_toy_workload_output_passes_its_gates(name, tmp_path):
    # each gate raises GateFailure on an output it rejects
    workload = workloads.get(name, toy=True)
    config_path, out = _run(workload, tmp_path)
    if workload.writes_basis:
        assert "rel_l2_at_nmax" in gates.check_basis(out, config_path, with_rel_l2=True)
    else:
        gates.check_curve(out, workload.nmax)
        # the curve workloads also gate a basis written from the same config
        check = replace(workload, command="basis", output="basis.obf", nmax=None)
        config_path, out = _run(check, tmp_path)
        gates.check_basis(out, config_path, with_rel_l2=False)
