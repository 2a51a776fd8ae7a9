"""optbasis benchmark: one CLI workload, timed end to end in fresh child processes.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload transport-basis --seed 1 --seconds 50 --trace 0

Load shape: a closed loop with one client.  One child process runs at a
time, each a fresh interpreter with its BLAS pools pinned to one thread
(SuperLU is serial; two BLAS threads were no faster and noisier).  Each
child imports ``optbasis.cli`` from ``src/`` of the checkout and runs
``cli.main(argv)`` once; the argv and the config it names are generated
from the workload and the seed (see ``workloads.py``).

Every run starts with one untimed warm-up command, whose output is the
reference the later commands of the run must match byte for byte.
``--trace 0`` then times the command repeatedly for ``--seconds`` (at least
three times; no command is started that would end past ``--seconds``) and
reports the end-to-end metrics.  ``--trace 1`` times it at least once, then
runs the same argv once more with the hooks of ``spans.py`` installed, and
reports the per-layer metrics plus the tracing overhead.
Every output is gated (``gates.py``); a command counts as failed when it
exits non-zero, fails a gate, or writes bytes that differ from the first
command of the run.  The last stdout line is the JSON result; everything
else (environment, samples, layer table) is printed above it and written
with the span list to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gates  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)  # also keeps this process's own checks on one thread

WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"
# Start-up-only children per run, on top of the one each command child gives.
SETUP_SAMPLES = 3
# Timed commands an untraced run makes at the least.
MIN_TIMED = 3
# The whole run, checks included, ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 165.0
CHECK_RESERVE_S = 15.0
# Trace consistency: layer self times sum to the traced wall time within 5%.
SELF_SUM_TOLERANCE = 0.05

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "rel_l2_at_nmax": "ratio",
    "left_orthonormality_digits": "digits",
}


def _digest(directory):
    h = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Harness:
    """Spawns pinned children in one work directory and keeps their records."""

    def __init__(self, root, work, deadline):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_PINS)
        self.spawned = 0

    def spawn(self, argv, trace=False):
        """One child: start-up only when argv is None, else one CLI command."""
        k = self.spawned
        self.spawned += 1
        job = self.work / f"job{k}.json"
        result = self.work / f"result{k}.json"
        log = self.work / f"child{k}.log"
        job.write_text(json.dumps({"argv": argv, "trace": trace, "result": str(result)}))
        timeout = max(1.0, self.deadline - time.monotonic())
        t_spawn = time.monotonic()
        try:
            with open(log, "w") as fh:
                proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(job)],
                                      cwd=self.work, env=self.env, stdout=fh,
                                      stderr=subprocess.STDOUT, timeout=timeout)
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
        try:
            rec = json.loads(result.read_text())
        except (OSError, ValueError):
            rec = {"t_ready": None, "rc": None, "error": None}
        rec["setup_s"] = rec["t_ready"] - t_spawn if rec.get("t_ready") else None
        rec["child_s"] = time.monotonic() - t_spawn
        if rc != 0:
            rec["rc"] = rc
        if rec.get("rc") != 0:
            rec["log_tail"] = log.read_text()[-2000:]
        rec["argv"] = argv
        return rec

    def command(self, workload, config_path, tag, trace=False):
        """Run the workload's command into its own directory and fingerprint the output."""
        out_dir = self.work / tag
        out_dir.mkdir()
        rec = self.spawn(workload.argv(config_path, out_dir / workload.output), trace)
        rec["tag"] = tag
        rec["out_dir"] = str(out_dir)
        rec["digest"] = _digest(out_dir) if rec.get("rc") == 0 else None
        return rec


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def evaluate(workload, config_path, commands, check_cmd):
    """Gate the outputs; return (failure reasons per command, accuracy metrics)."""
    reasons = {c["tag"]: [] for c in commands + ([check_cmd] if check_cmd else [])}
    first = commands[0]
    for c in commands:
        if c.get("rc") != 0:
            reasons[c["tag"]].append(f"exit code {c.get('rc')}")
        elif c["digest"] != first["digest"]:
            reasons[c["tag"]].append(f"output differs from {first['tag']}")

    accuracy = {}
    gate_error = None
    if first.get("rc") == 0:
        out = Path(first["out_dir"]) / workload.output
        try:
            if workload.writes_basis:
                accuracy.update(gates.check_basis(out, config_path, with_rel_l2=True))
            else:
                accuracy["rel_l2_at_nmax"] = gates.check_curve(out, workload.nmax)
        except gates.GateFailure as exc:
            gate_error = str(exc)
    if gate_error:
        for c in commands:
            if c["digest"] == first["digest"]:
                reasons[c["tag"]].append(f"gate: {gate_error}")

    if check_cmd is not None:
        if check_cmd.get("rc") != 0:
            reasons[check_cmd["tag"]].append(f"exit code {check_cmd.get('rc')}")
        else:
            out = Path(check_cmd["out_dir"]) / "basis.obf"
            try:
                basis_metrics = gates.check_basis(out, config_path, with_rel_l2=False)
                accuracy["left_orthonormality"] = basis_metrics["left_orthonormality"]
                accuracy["forward_relation"] = basis_metrics["forward_relation"]
            except gates.GateFailure as exc:
                reasons[check_cmd["tag"]].append(f"gate: {exc}")
    return reasons, accuracy


def _trace_gate(traced, untraced_walls):
    """Per-layer metrics of the traced command, its self-time sum, and consistency failures."""
    report = traced["trace"]
    values, absent = spans.layer_metrics(report)
    wall = traced["wall_s"]
    self_sum = spans.self_time_sum(report)
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - _median(untraced_walls)
    problems = []
    if abs(self_sum - wall) > SELF_SUM_TOLERANCE * wall:
        problems.append(f"layer self times sum to {self_sum:.4f} s, traced wall {wall:.4f} s")
    if report["min_self_s"] < -1e-6:
        problems.append(f"negative self time {report['min_self_s']:.3e} s (spans overlap)")
    return values, absent, self_sum, problems


def _git_commit(root):
    if not (root / ".git").exists():  # an exported checkout; do not report an enclosing repo
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def run_benchmark(root, workload, seed, seconds, trace, keep=False, setup_samples=SETUP_SAMPLES):
    """Run one benchmark run; return the full record (result JSON under "result")."""
    started = time.monotonic()
    src = str(root / "src")
    if src not in sys.path:  # the gates read outputs with the checkout's own package
        sys.path.insert(0, src)
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
              "loadavg_at_start": _loadavg(), "nproc": len(os.sched_getaffinity(0)),
              "git_commit": _git_commit(root)}
    work = root / WORK_DIR / f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    record["work"] = str(work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    harness = Harness(root, work, started + RUN_DEADLINE_S)
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(workload.config(seed), indent=1))

        harness.spawn(None)  # warm-up: bytecode compilation and file cache, not timed
        setup = [harness.spawn(None) for _ in range(setup_samples)]

        # Untimed warm-up command: caches and lazy set-up settle before timing.
        commands = [harness.command(workload, config_path, "warmup")]
        timed = []
        loop_start = time.monotonic()
        minimum = 1 if trace else MIN_TIMED
        while True:
            now = time.monotonic()
            if len(timed) >= minimum:
                # Start no command that would end past --seconds or near the deadline.
                span = statistics.median(c["child_s"] for c in commands)
                if (now + span > loop_start + seconds
                        or now + 1.5 * span > harness.deadline - CHECK_RESERVE_S):
                    break
            timed.append(harness.command(workload, config_path, f"cmd{len(timed)}"))
            if not keep:
                shutil.rmtree(timed[-1]["out_dir"], ignore_errors=True)
        commands += timed
        if trace:
            commands.append(harness.command(workload, config_path, "traced", trace=True))

        check_cmd = None
        if not workload.writes_basis:
            # The curve command does not write its basis; rebuild the same
            # basis (same config, same seed) with `basis`, untimed, to gate it.
            check = replace(workload, command="basis", output="basis.obf", nmax=None)
            check_cmd = harness.command(check, config_path, "basis-check")

        reasons, accuracy = evaluate(workload, config_path, commands, check_cmd)
        metrics = {}
        if trace:
            traced = commands[-1]
            if traced.get("rc") == 0 and traced.get("trace"):
                values, absent, self_sum, problems = _trace_gate(
                    traced, [c["wall_s"] for c in timed])
                reasons["traced"] += [f"trace: {p}" for p in problems]
                record["absent_metrics"] = absent
                record["trace_self_sum_s"] = self_sum
                record["trace_report"] = traced.pop("trace")
                metrics = {name: values[name] for name in spans.PER_LAYER_UNITS if name in values}
        else:
            metrics["wall_s"] = _median(c.get("wall_s") for c in timed)
            metrics["setup_s"] = _median([s["setup_s"] for s in setup]
                                         + [c["setup_s"] for c in timed])
            metrics["peak_rss_mb"] = _median(c.get("maxrss_mib") for c in timed)
            if "rel_l2_at_nmax" in accuracy:
                metrics["rel_l2_at_nmax"] = accuracy["rel_l2_at_nmax"]
            if accuracy.get("left_orthonormality", 0.0) > 0.0:
                metrics["left_orthonormality_digits"] = -math.log10(
                    accuracy["left_orthonormality"])
            metrics = {k: v for k, v in metrics.items() if v is not None}

        units = spans.PER_LAYER_UNITS if trace else END_TO_END_UNITS
        attempted = len(reasons)
        failed = sum(1 for r in reasons.values() if r)
        record.update(
            env=(setup[0].get("env") if setup else None),
            setup_samples_s=[s["setup_s"] for s in setup] + [c["setup_s"] for c in timed],
            commands=commands, check_command=check_cmd, accuracy=accuracy,
            failures={k: v for k, v in reasons.items() if v},
            elapsed_s=time.monotonic() - started,
            result={"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}})
        return record
    finally:
        if not keep:
            shutil.rmtree(work, ignore_errors=True)


def print_summary(record):
    env = record.get("env") or {}
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}"
          f"  elapsed {record['elapsed_s']:.1f} s")
    print("environment " + json.dumps({
        "python": env.get("python"), "numpy": env.get("numpy"), "scipy": env.get("scipy"),
        "numpy_blas": env.get("numpy_blas"), "scipy_blas": env.get("scipy_blas"),
        "nproc": record["nproc"], "blas_thread_vars": env.get("blas_thread_vars"),
        "loadavg_at_start": record["loadavg_at_start"], "seed": record["seed"],
        "git_commit": record["git_commit"]}))
    print("setup samples s: " + " ".join(f"{s:.4f}" for s in record["setup_samples_s"] if s))
    for c in record["commands"] + ([record["check_command"]] if record["check_command"] else []):
        wall = c.get("wall_s")
        print(f"  {c['tag']:12s} rc {c.get('rc')}  wall "
              + (f"{wall:.4f} s" if wall is not None else "-")
              + (f"  cpu {c['cpu_s']:.4f} s" if c.get("cpu_s") else "")
              + (f"  rss {c['maxrss_mib']:.1f} MiB" if c.get("maxrss_mib") else ""))
    timed = [c for c in record["commands"] if c["tag"].startswith("cmd")]
    print(f"wall_s samples: {len(timed)} timed commands; median reported")
    print("accuracy " + json.dumps(record["accuracy"]))
    for tag, why in record["failures"].items():
        print(f"FAILED {tag}: {'; '.join(why)}")
    for c in record["commands"]:
        if c.get("log_tail"):
            print(f"--- {c['tag']} output tail ---\n{c['log_tail']}")
    for name in record.get("absent_metrics", []):
        print(f"warning: per-layer metric {name} is absent (its trace hook is missing)")
    report = record.get("trace_report")
    if report:
        wall = record["result"]["metrics"].get("trace.wall_s", {}).get("value") or 1.0
        print(f"layer self times sum to {record['trace_self_sum_s']:.4f} s of the traced "
              f"wall {wall:.4f} s (gate: within {100 * SELF_SUM_TOLERANCE:.0f} %)")
        print("layer self time (share of traced wall):")
        for layer, t in report["layer_self_s"].items():
            print(f"  {layer:12s} {t:9.4f} s  {100 * t / wall:5.1f} %")
        print("computed, not measured: linalg.lu_nnz, linalg.solve_flops, linalg.solve_gflops")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = BENCH_DIR.parent
    if not (root / "src" / "optbasis" / "cli.py").is_file():
        print(f"error: no optbasis source under {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    record = run_benchmark(root, workloads.get(args.workload), args.seed, args.seconds,
                           bool(args.trace))
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print_summary(record)
    print(f"full record: {path.relative_to(root)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
