"""Correctness gates on what the CLI wrote, and the accuracy metrics read from it.

Each check raises ``GateFailure`` with a reason; the harness counts a
failed gate against every command whose output it covers.  The checks use
only the package's public reading and assembly API (``obf.read_basis``,
``config.load_config``, ``experiments.build_problem`` and the weight
factors' ``apply``) and never factorize for the relation check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
from pathlib import Path

# Acceptance test 01: fixed point against Newton at n = 300.
REL_L2_GATE = 3e-4
# max_i ||lambda_i L u_i - v_i|| / ||v_i||
FORWARD_RELATION_GATE = 1e-10


class GateFailure(Exception):
    """An output that fails a correctness gate."""


def check_curve(path, nmax):
    """Gate an error-curve CSV; return rel_l2 at n = nmax (last row)."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise GateFailure(f"curve not readable: {exc}") from exc
    if not lines or not lines[0].startswith("n,rel_l2"):
        raise GateFailure("curve header missing")
    rows = lines[1:]
    if len(rows) != nmax:
        raise GateFailure(f"curve has {len(rows)} rows, expected {nmax}")
    last = None
    for k, line in enumerate(rows, start=1):
        parts = line.split(",")
        try:
            n = int(parts[0])
            values = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise GateFailure(f"curve row {k} not numeric: {line!r}") from exc
        if n != k or not values or not all(math.isfinite(v) for v in values):
            raise GateFailure(f"curve row {k} malformed or not finite: {line!r}")
        last = values[0]
    if not last <= REL_L2_GATE:
        raise GateFailure(f"rel_l2 at n = {nmax} is {last:.3e}, gate {REL_L2_GATE:.0e}")
    return last


def _header_only_read(obf, path):
    """read_basis on a copy with no sidecar beside it, so metadata comes from the header."""
    with tempfile.TemporaryDirectory(dir=Path(path).parent) as tmp:
        bare = Path(tmp) / "bare.obf"
        try:
            os.link(path, bare)
        except OSError:
            shutil.copyfile(path, bare)
        return obf.read_basis(bare)


def left_orthonormality(fy, left_vectors):
    """max |U^T Pi_Y U - I|."""
    import numpy as np

    fu = fy.apply(left_vectors)
    return float(np.abs(fu.T @ fu - np.eye(fu.shape[1])).max())


def check_basis(obf_path, config_path, with_rel_l2):
    """Gate a written basis; return its accuracy metrics.

    Checks that the file reads back, that the sidecar's family, n_dofs and
    rank match the header, and the forward relation lambda_i L u_i = v_i
    with sparse products only.  With ``with_rel_l2`` the linear projection
    solve at n = rank is compared with a direct solve of L u = f by scipy,
    independent of the package's own solver layer.
    """
    import numpy as np
    from scipy.sparse.linalg import spsolve
    from optbasis import obf
    from optbasis.config import load_config
    from optbasis.experiments import build_problem

    try:
        basis = obf.read_basis(obf_path)
        header = _header_only_read(obf, obf_path)
        side = json.loads(Path(obf_path).with_suffix(".meta.json").read_text())
    except (OSError, ValueError) as exc:
        raise GateFailure(f"basis does not read back: {exc}") from exc
    for key, want in (("family", header.meta.get("family")), ("n_dofs", header.n_dofs),
                      ("rank", header.rank)):
        if side.get(key) != want:
            raise GateFailure(f"sidecar {key} {side.get(key)!r} does not match header {want!r}")

    setup = build_problem(load_config(config_path))
    if basis.n_dofs != setup.n_dofs or basis.rank < 1:
        raise GateFailure(f"basis shape {basis.n_dofs} x {basis.rank} "
                          f"does not fit the problem ({setup.n_dofs} unknowns)")
    lam, u, v = basis.singular_values, basis.left_vectors, basis.right_vectors
    if not (np.isfinite(lam).all() and np.isfinite(u).all() and np.isfinite(v).all()):
        raise GateFailure("basis holds non-finite values")

    resid = (setup.operator @ u) * lam - v
    forward = float((np.linalg.norm(resid, axis=0) / np.linalg.norm(v, axis=0)).max())
    if not forward <= FORWARD_RELATION_GATE:
        raise GateFailure(f"forward relation {forward:.3e}, gate {FORWARD_RELATION_GATE:.0e}")

    metrics = {"left_orthonormality": left_orthonormality(setup.fy, u),
               "forward_relation": forward}
    if with_rel_l2:
        u_ref = spsolve(setup.operator.tocsc(), setup.source)
        coeffs = setup.fx.apply(v).T @ setup.fx.apply(setup.source)
        u_n = u @ (lam * coeffs)
        metrics["rel_l2_at_nmax"] = float(np.linalg.norm(u_n - u_ref) / np.linalg.norm(u_ref))
    return metrics
