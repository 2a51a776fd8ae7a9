"""One benchmark child: import the CLI, optionally trace it, run one argv, report.

Usage: ``python3 child.py JOB.json``.  The job names the CLI argv (or
``null`` to measure start-up only), whether to install the trace hooks,
and where to write the result JSON.  The parent records the monotonic
clock just before it starts this process; ``t_ready`` below is read right
after ``optbasis.cli`` is imported, so the difference is the set-up a CLI
user pays (interpreter, numpy, scipy, OpenBLAS, the package).
"""

import time
import json
import os
import sys

import optbasis.cli as cli

T_READY = time.monotonic()

import resource  # noqa: E402  (after the set-up clock is read)
import traceback  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment():
    import numpy
    import scipy

    def blas(config):
        dep = (config or {}).get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    try:
        scipy_config = scipy.show_config(mode="dicts")
    except TypeError:  # older scipy without dict mode
        scipy_config = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(getattr(numpy.__config__, "CONFIG", None)),
        "scipy_blas": blas(scipy_config),
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "optbasis_file": os.path.abspath(cli.__file__),
    }


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    result = {"t_ready": T_READY, "env": _environment(), "rc": None, "wall_s": None,
              "maxrss_mib": None, "cpu_s": None, "trace": None, "error": None}
    tracer = None
    if job["argv"] is not None:
        if job["trace"]:
            import spans

            tracer = spans.install()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            rc = cli.main(job["argv"])
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # report, do not hide, any crash of the command
            rc = 1
            result["error"] = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu_start
        result["rc"] = 0 if rc is None else rc
        result["maxrss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["trace"] = tracer.report()
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
