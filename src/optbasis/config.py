"""Experiment configuration: strict JSON parsing and canonical serialization.

A configuration file has the nested sections ``problem``, ``grid``,
``weights`` and optionally ``rsvd``, ``nonlinear`` and ``output``.
Unknown sections or keys are hard errors so typos cannot silently fall
back to defaults, and keys that do not apply to the chosen problem
family are rejected too.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .basis import RsvdParams
from .exceptions import ConfigInvalid

PROBLEM_FAMILIES = ("elliptic", "semilinear_elliptic", "rte", "semilinear_rte", "identity")
SOURCE_KINDS = ("sine", "beam", "zero")

ELLIPTIC_FAMILIES = ("elliptic", "semilinear_elliptic")
RTE_FAMILIES = ("rte", "semilinear_rte")

PAPER_M_INTERVALS = 64
PAPER_N_ANGLES = 40

_DEFAULT_SOURCES = {
    "elliptic": ("sine", 1.0),
    "semilinear_elliptic": ("sine", 100.0),
    "rte": ("beam", 1.0),
    "semilinear_rte": ("beam", 0.1),
    "identity": ("zero", 0.0),
}


@dataclass(frozen=True)
class SourceSpec:
    kind: str
    amplitude: float


@dataclass(frozen=True)
class NonlinearSettings:
    tol: float = 1e-12
    max_iter: int = 500
    relax: float = 1.0

    def __post_init__(self):
        if not self.tol > 0:
            raise ConfigInvalid("'nonlinear.tol' must be positive")
        if self.max_iter < 1:
            raise ConfigInvalid("'nonlinear.max_iter' must be at least 1")
        if not 0.0 < self.relax <= 1.0:
            raise ConfigInvalid("'nonlinear.relax' must be in (0, 1]")


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "."
    stem: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    m_intervals: int
    p: int
    length: float = 0.5
    n_angles: int | None = None
    eps: float | None = None
    eps1: float | None = None
    eps2: float | None = None
    g: float | None = None
    source: SourceSpec = SourceSpec("zero", 0.0)
    rsvd: RsvdParams = field(default_factory=lambda: RsvdParams(rank=50))
    nonlinear: NonlinearSettings = NonlinearSettings()
    output: OutputSettings = OutputSettings()

    @property
    def is_rte(self):
        return self.family in RTE_FAMILIES

    @property
    def is_semilinear(self):
        return self.family in ("semilinear_elliptic", "semilinear_rte")

    def with_paper_scale(self):
        """Paper-scale resolution: m = 64 cells, 40 angles for transport."""
        if self.family == "identity":
            return self
        if self.is_rte:
            return replace(self, m_intervals=PAPER_M_INTERVALS, n_angles=PAPER_N_ANGLES)
        return replace(self, m_intervals=PAPER_M_INTERVALS)


class _Section:
    """One config section with pop-style access and leftover-key detection."""

    def __init__(self, name, data):
        if not isinstance(data, dict):
            raise ConfigInvalid(f"section '{name}' must be an object")
        self.name = name
        self.data = dict(data)

    def take(self, key, kind, default=None, required=False):
        if key not in self.data:
            if required:
                raise ConfigInvalid(f"missing required key '{self.name}.{key}'")
            return default
        value = self.data.pop(key)
        return _coerce(value, kind, f"{self.name}.{key}")

    def finish(self):
        if self.data:
            stray = sorted(self.data)[0]
            raise ConfigInvalid(f"unknown key '{self.name}.{stray}'")


def _coerce(value, kind, where):
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigInvalid(f"'{where}' must be an integer")
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigInvalid(f"'{where}' must be a number")
        # NaN fails both comparisons, as does an integer beyond the float range.
        if not -sys.float_info.max <= value <= sys.float_info.max:
            raise ConfigInvalid(f"'{where}' must be a finite number")
        return float(value)
    if kind is str:
        if not isinstance(value, str):
            raise ConfigInvalid(f"'{where}' must be a string")
        return value
    raise TypeError(f"unsupported coercion {kind}")


def rsvd_params(**fields):
    """RsvdParams from configured values; a bad value raises ConfigInvalid."""
    try:
        return RsvdParams(**fields)
    except ValueError as exc:
        raise ConfigInvalid(f"invalid 'rsvd' section: {exc}") from exc


def config_from_dict(raw):
    """Parse and validate a configuration dictionary."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("configuration root must be an object")
    raw = dict(raw)
    known = {"problem", "grid", "weights", "rsvd", "nonlinear", "output"}
    for key in raw:
        if key not in known:
            raise ConfigInvalid(f"unknown section '{key}'")
    for required in ("problem", "grid", "weights"):
        if required not in raw:
            raise ConfigInvalid(f"missing required section '{required}'")

    problem = _Section("problem", raw["problem"])
    family = problem.take("family", str, required=True)
    if family not in PROBLEM_FAMILIES:
        raise ConfigInvalid(
            f"'problem.family' must be one of {', '.join(PROBLEM_FAMILIES)}, got '{family}'"
        )
    is_rte = family in RTE_FAMILIES

    eps = problem.take("eps", float)
    eps1 = problem.take("eps1", float)
    eps2 = problem.take("eps2", float)
    g = problem.take("g", float)
    if family in ELLIPTIC_FAMILIES:
        if eps1 is not None or eps2 is not None or g is not None:
            raise ConfigInvalid(
                f"'problem.eps1/eps2/g' do not apply to family '{family}'"
            )
        eps = 1.0 if eps is None else eps
        if eps <= 0:
            raise ConfigInvalid("'problem.eps' must be positive")
    elif is_rte:
        if eps is not None:
            raise ConfigInvalid(f"'problem.eps' does not apply to family '{family}'")
        eps1 = 1.0 if eps1 is None else eps1
        eps2 = 1.0 if eps2 is None else eps2
        g = 0.5 if g is None else g
        if eps1 <= 0 or eps2 <= 0:
            raise ConfigInvalid("'problem.eps1' and 'problem.eps2' must be positive")
        if not 0.0 <= g < 1.0:
            raise ConfigInvalid("'problem.g' must be in [0, 1)")
    else:
        if any(v is not None for v in (eps, eps1, eps2, g)):
            raise ConfigInvalid("medium parameters do not apply to family 'identity'")

    default_kind, default_amp = _DEFAULT_SOURCES[family]
    if "source" in problem.data:
        source_sec = _Section("problem.source", problem.data.pop("source"))
        kind = source_sec.take("kind", str, default=default_kind)
        amplitude = source_sec.take("amplitude", float, default=default_amp)
        source_sec.finish()
    else:
        kind, amplitude = default_kind, default_amp
    if kind not in SOURCE_KINDS:
        raise ConfigInvalid(
            f"'problem.source.kind' must be one of {', '.join(SOURCE_KINDS)}, got '{kind}'"
        )
    if kind == "beam" and not is_rte:
        raise ConfigInvalid(f"source kind 'beam' requires a transport family, not '{family}'")
    if kind == "sine" and is_rte:
        raise ConfigInvalid("source kind 'sine' does not apply to transport families")
    problem.finish()

    grid = _Section("grid", raw["grid"])
    m_intervals = grid.take("m_intervals", int, required=True)
    if m_intervals < 2:
        raise ConfigInvalid("'grid.m_intervals' must be at least 2")
    length = grid.take("length", float, default=0.5)
    if length <= 0:
        raise ConfigInvalid("'grid.length' must be positive")
    n_angles = grid.take("n_angles", int)
    if is_rte:
        n_angles = 16 if n_angles is None else n_angles
        if n_angles < 1:
            raise ConfigInvalid("'grid.n_angles' must be at least 1")
    elif n_angles is not None:
        raise ConfigInvalid(f"'grid.n_angles' does not apply to family '{family}'")
    grid.finish()

    weights = _Section("weights", raw["weights"])
    p = weights.take("p", int, required=True)
    if p not in (0, 1, 2):
        raise ConfigInvalid("'weights.p' must be 0, 1 or 2")
    weights.finish()

    rsvd_sec = _Section("rsvd", raw.get("rsvd", {}))
    rank = rsvd_sec.take("rank", int, default=50)
    oversample = rsvd_sec.take("oversample", int, default=10)
    power = rsvd_sec.take("power", int, default=2)
    seed = rsvd_sec.take("seed", int, default=0)
    rsvd_sec.finish()
    rsvd = rsvd_params(rank=rank, oversampling=oversample, power=power, seed=seed)

    nl_sec = _Section("nonlinear", raw.get("nonlinear", {}))
    tol = nl_sec.take("tol", float, default=1e-12)
    max_iter = nl_sec.take("max_iter", int, default=500)
    relax = nl_sec.take("relax", float, default=1.0)
    nl_sec.finish()
    nonlinear = NonlinearSettings(tol, max_iter, relax)

    out_sec = _Section("output", raw.get("output", {}))
    directory = out_sec.take("directory", str, default=".")
    stem = out_sec.take("stem", str)
    out_sec.finish()

    return ExperimentConfig(
        family=family,
        m_intervals=m_intervals,
        p=p,
        length=length,
        n_angles=n_angles,
        eps=eps,
        eps1=eps1,
        eps2=eps2,
        g=g,
        source=SourceSpec(kind, amplitude),
        rsvd=rsvd,
        nonlinear=nonlinear,
        output=OutputSettings(directory, stem),
    )


def config_to_dict(config: ExperimentConfig):
    """Canonical nested dictionary, invertible by config_from_dict."""
    problem = {"family": config.family}
    if config.family in ELLIPTIC_FAMILIES:
        problem["eps"] = config.eps
    elif config.is_rte:
        problem.update(eps1=config.eps1, eps2=config.eps2, g=config.g)
    problem["source"] = {"kind": config.source.kind, "amplitude": config.source.amplitude}
    grid = {"m_intervals": config.m_intervals, "length": config.length}
    if config.is_rte:
        grid["n_angles"] = config.n_angles
    out = {
        "problem": problem,
        "grid": grid,
        "weights": {"p": config.p},
        "rsvd": {
            "rank": config.rsvd.rank,
            "oversample": config.rsvd.oversampling,
            "power": config.rsvd.power,
            "seed": config.rsvd.seed,
        },
        "nonlinear": {
            "tol": config.nonlinear.tol,
            "max_iter": config.nonlinear.max_iter,
            "relax": config.nonlinear.relax,
        },
        "output": {"directory": config.output.directory},
    }
    if config.output.stem is not None:
        out["output"]["stem"] = config.output.stem
    return out


def load_config(path):
    """Read and validate a JSON configuration file."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{path}: not valid JSON ({exc})") from exc
    return config_from_dict(raw)


def save_config(config: ExperimentConfig, path):
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n")
