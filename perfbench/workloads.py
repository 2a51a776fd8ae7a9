"""Benchmark workloads: one optbasis CLI command each, with a config made from the seed.

Every workload is a single CLI invocation.  Its config is generated here
from the workload name and the benchmark seed, which becomes ``rsvd.seed``;
nothing else about the inputs varies with the seed.  ``toy=True`` gives the
same command shape on an 8-interval grid (4 angles for transport) so the
self-test can push every workload through the harness in a few seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

# rsvd.seed feeds a Philox counter, which takes any nonnegative integer.
SEED_MODULUS = 2 ** 63


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # CLI subcommand
    output: str           # file name the command writes (plus a sidecar for .obf)
    problem: dict
    grid: dict
    p: int
    rank: int
    oversample: int
    power: int
    nmax: int | None = None   # solve-nonlinear only: length of the error curve

    @property
    def writes_basis(self):
        return self.output.endswith(".obf")

    def config(self, seed):
        """Config dict for one run; the seed becomes the sketch seed."""
        return {
            "problem": dict(self.problem),
            "grid": dict(self.grid),
            "weights": {"p": self.p},
            "rsvd": {"rank": self.rank, "oversample": self.oversample,
                     "power": self.power, "seed": seed % SEED_MODULUS},
        }

    def argv(self, config_path, out_path):
        argv = [self.command, "--config", str(config_path), "--out", str(out_path)]
        if self.nmax is not None:
            argv += ["--nmax", str(self.nmax)]
        return argv


_ELLIPTIC = {"eps": 0.0625}
_RTE = {"family": "rte", "eps1": 1.0, "eps2": 1.0, "g": 0.5}

# The semilinear elliptic case of acceptance test 01 (rank, sketch and the
# 300-point fixed-point error curve) on a 32-interval grid, 961 unknowns, so
# that a run holds many commands; the curve still dominates.
ELLIPTIC_SOLVE = Workload(
    "elliptic-solve", "solve-nonlinear", "curve.csv",
    {"family": "semilinear_elliptic", **_ELLIPTIC}, {"m_intervals": 32}, p=2,
    rank=310, oversample=20, power=2, nmax=300)

# configs/rte.json at the paper's 40 angles on a 12-interval grid (4,840
# unknowns): few sketch columns against an LU with many times the elliptic
# fill, so sparse solves dominate.
TRANSPORT_BASIS = Workload(
    "transport-basis", "basis", "basis.obf",
    dict(_RTE), {"m_intervals": 12, "n_angles": 40}, p=1,
    rank=50, oversample=50, power=6)

WORKLOADS = {w.name: w for w in (ELLIPTIC_SOLVE, TRANSPORT_BASIS)}

# Toy shapes: m = 8 gives 49 elliptic unknowns and 196 transport unknowns.
TOY_WORKLOADS = {
    "elliptic-solve": Workload(
        "elliptic-solve", "solve-nonlinear", "curve.csv",
        {"family": "semilinear_elliptic", **_ELLIPTIC}, {"m_intervals": 8}, p=2,
        rank=48, oversample=1, power=2, nmax=48),
    "transport-basis": Workload(
        "transport-basis", "basis", "basis.obf",
        dict(_RTE), {"m_intervals": 8, "n_angles": 4}, p=1,
        rank=20, oversample=20, power=6),
}


def get(name, toy=False):
    table = TOY_WORKLOADS if toy else WORKLOADS
    if name not in table:
        raise KeyError(f"unknown workload '{name}' (choose from {', '.join(table)})")
    return table[name]
