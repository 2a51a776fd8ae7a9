"""Self-test of the benchmark at toy size (m = 8, 4 angles); takes a few seconds.

Usage (from the root of a checkout): ``python3 perfbench/selftest.py``.

Every workload shape goes through the harness untraced and traced, with
its gates and the trace consistency check, and must pass with the metric
names ``BENCHMARK.json`` declares.  Then deliberately corrupted outputs (a
changed value in an ``.obf``, a stale sidecar, a non-finite CSV entry, a
rerun that wrote different bytes) must each be counted as a failure, and a
trace hook whose target has gone must leave only its metrics absent.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import struct
import sys
import tempfile
from pathlib import Path

import run
import spans
import workloads

ROOT = run.BENCH_DIR.parent
failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]},
            {w["name"] for w in spec["workloads"]})


def failed_after(record, workload, corrupt):
    """Apply ``corrupt`` to the kept outputs, re-gate, and return the failed count."""
    commands = [dict(c) for c in record["commands"]]
    backup = Path(record["work"]) / "backup"
    for k, c in enumerate(commands):
        shutil.copytree(c["out_dir"], backup / str(k))
    try:
        corrupt(commands)
        for c in commands:
            c["digest"] = run._digest(c["out_dir"])
        reasons, _ = run.evaluate(workload, Path(record["work"]) / "config.json", commands,
                                  record["check_command"])
    finally:
        for k, c in enumerate(commands):
            shutil.rmtree(c["out_dir"])
            shutil.copytree(backup / str(k), c["out_dir"])
        shutil.rmtree(backup)
    return sum(1 for r in reasons.values() if r)


def patch_bytes(path, offset, data):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(data)


def corrupt_obf_value(commands):
    # first singular value: header is 25 bytes
    patch_bytes(Path(commands[0]["out_dir"]) / "basis.obf", 25, struct.pack("<d", 0.5))


def corrupt_sidecar(commands):
    side = Path(commands[0]["out_dir"]) / "basis.meta.json"
    meta = json.loads(side.read_text())
    meta["rank"] += 1
    side.write_text(json.dumps(meta))


def corrupt_csv(commands):
    path = Path(commands[0]["out_dir"]) / "curve.csv"
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].split(",")[0] + ",nan,nan"
    path.write_text("\n".join(lines) + "\n")


def corrupt_rerun(commands):
    out = Path(commands[1]["out_dir"])
    target = sorted(out.iterdir())[0]
    target.write_bytes(target.read_bytes() + b"\n")


def check_missing_hook():
    """A hooked public name that has gone leaves its metrics absent; the command completes."""
    from optbasis import basis, cli

    saved = basis.SourceProjector
    del basis.SourceProjector
    try:
        tracer = spans.install()
    finally:
        basis.SourceProjector = saved
    workload = workloads.get("elliptic-solve", toy=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(workload.config(3)))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(workload.argv(config, Path(tmp) / workload.output))
    values, absent = spans.layer_metrics(tracer.report())
    expect(rc == 0 and {"basis.projector_builds", "basis.projector_build_s"} <= set(absent)
           and "nonlinear.fixed_point_s" in values,
           "a missing hook target leaves only its metrics absent and the command completes")


def main():
    end_to_end, per_layer, names = declared_metrics()
    expect(names == set(workloads.WORKLOADS), "BENCHMARK.json lists the harness's workloads")
    expect(end_to_end == set(run.END_TO_END_UNITS), "BENCHMARK.json end_to_end matches run.py")
    expect(per_layer == set(run.spans.PER_LAYER_UNITS), "BENCHMARK.json per_layer matches spans.py")

    for name in sorted(workloads.TOY_WORKLOADS):
        workload = workloads.get(name, toy=True)
        for trace in (False, True):
            record = run.run_benchmark(ROOT, workload, seed=3, seconds=0.0, trace=trace,
                                       keep=True, setup_samples=1)
            try:
                result = record["result"]
                label = f"{name} trace={int(trace)}"
                expect(result["correct"] and result["failed"] == 0
                       and result["attempted"] >= 2, f"{label}: all commands pass their gates "
                       f"({result['failed']}/{result['attempted']} failed"
                       f"{'; ' + json.dumps(record['failures']) if record['failures'] else ''})")
                want = per_layer if trace else end_to_end
                got = set(result["metrics"])
                expect(got == want, f"{label}: reports every declared metric"
                       + (f" (missing {sorted(want - got)})" if want - got else ""))
                if trace:
                    frac = record["trace_self_sum_s"] / result["metrics"]["trace.wall_s"]["value"]
                    expect(abs(frac - 1.0) <= run.SELF_SUM_TOLERANCE,
                           f"{label}: layer self times sum to {frac:.4f} of the traced wall")
                    continue
                if workload.writes_basis:
                    cases = (("changed value in the .obf", corrupt_obf_value),
                             ("sidecar rank does not match the header", corrupt_sidecar))
                else:
                    cases = (("non-finite CSV row", corrupt_csv),)
                cases += (("rerun wrote different bytes", corrupt_rerun),)
                for what, corrupt in cases:
                    expect(failed_after(record, workload, corrupt) > 0,
                           f"{label}: {what} is counted as failed")
            finally:
                shutil.rmtree(record["work"], ignore_errors=True)

    check_missing_hook()
    print(f"{len(failures)} self-test check(s) failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
