"""Experiment configuration: strict JSON parsing and canonical serialization.

A configuration file has the nested sections ``problem``, ``grid``,
``weights`` and optionally ``rsvd`` and ``nonlinear``.
Unknown sections or keys are hard errors so typos cannot silently fall
back to defaults, and keys that do not apply to the chosen problem
family are rejected too.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from types import MappingProxyType

from .basis import RsvdParams
from .exceptions import ConfigInvalid

PAPER_M_INTERVALS = 64
PAPER_N_ANGLES = 40


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one problem family.

    ``pde`` is "elliptic", "rte" or "identity"; ``medium`` maps each medium
    key that applies to its default; ``tag`` is the family byte of the .obf
    header, fixed forever because files on disk carry it.
    """

    pde: str
    semilinear: bool
    medium: MappingProxyType
    sources: tuple
    default_source: tuple
    tag: int


_ELLIPTIC_MEDIUM = MappingProxyType({"eps": 1.0})
_RTE_MEDIUM = MappingProxyType({"eps1": 1.0, "eps2": 1.0, "g": 0.5})

FAMILIES = MappingProxyType({
    "elliptic": Family("elliptic", False, _ELLIPTIC_MEDIUM, ("sine", "zero"), ("sine", 1.0), 1),
    "semilinear_elliptic": Family("elliptic", True, _ELLIPTIC_MEDIUM, ("sine", "zero"),
                                  ("sine", 100.0), 3),
    "rte": Family("rte", False, _RTE_MEDIUM, ("beam", "zero"), ("beam", 1.0), 2),
    "semilinear_rte": Family("rte", True, _RTE_MEDIUM, ("beam", "zero"), ("beam", 0.1), 4),
    # diagnostic family: unit operator and unit weights
    "identity": Family("identity", False, MappingProxyType({}), ("zero", "sine"),
                       ("zero", 0.0), 0),
})

_MEDIUM_KEYS = sorted({key for family in FAMILIES.values() for key in family.medium})


@dataclass(frozen=True)
class SourceSpec:
    kind: str
    amplitude: float


@dataclass(frozen=True)
class NonlinearSettings:
    """Relaxed fixed-point settings, the ``nonlinear`` config section."""

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
    rsvd: RsvdParams = RsvdParams()
    nonlinear: NonlinearSettings = NonlinearSettings()

    @property
    def pde(self):
        return FAMILIES[self.family].pde

    @property
    def is_semilinear(self):
        return FAMILIES[self.family].semilinear

    def with_paper_scale(self):
        """Paper-scale resolution: m = 64 cells, 40 angles for transport."""
        if self.pde == "identity":
            return self
        if self.pde == "rte":
            return replace(self, m_intervals=PAPER_M_INTERVALS, n_angles=PAPER_N_ANGLES)
        return replace(self, m_intervals=PAPER_M_INTERVALS)


# The settings sections: each is read and written by its dataclass's fields,
# with the type of each field's default.
SETTINGS = MappingProxyType({"rsvd": RsvdParams, "nonlinear": NonlinearSettings})


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


def config_from_dict(raw):
    """Parse and validate a configuration dictionary."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("configuration root must be an object")
    raw = dict(raw)
    known = {"problem", "grid", "weights", "rsvd", "nonlinear"}
    for key in raw:
        if key not in known:
            raise ConfigInvalid(f"unknown section '{key}'")
    for required in ("problem", "grid", "weights"):
        if required not in raw:
            raise ConfigInvalid(f"missing required section '{required}'")

    problem = _Section("problem", raw["problem"])
    family = problem.take("family", str, required=True)
    spec = FAMILIES.get(family)
    if spec is None:
        raise ConfigInvalid(
            f"'problem.family' must be one of {', '.join(FAMILIES)}, got '{family}'"
        )

    for key in _MEDIUM_KEYS:
        if key in problem.data and key not in spec.medium:
            raise ConfigInvalid(f"'problem.{key}' does not apply to family '{family}'")
    medium = {key: problem.take(key, float, default=default)
              for key, default in spec.medium.items()}
    for key, value in medium.items():
        if key == "g" and not 0.0 <= value < 1.0:
            raise ConfigInvalid("'problem.g' must be in [0, 1)")
        if key != "g" and value <= 0:
            raise ConfigInvalid(f"'problem.{key}' must be positive")

    kind, amplitude = spec.default_source
    if "source" in problem.data:
        source_sec = _Section("problem.source", problem.data.pop("source"))
        kind = source_sec.take("kind", str, default=kind)
        amplitude = source_sec.take("amplitude", float, default=amplitude)
        source_sec.finish()
    if kind not in spec.sources:
        raise ConfigInvalid(
            f"'problem.source.kind' for family '{family}' must be one of "
            f"{', '.join(spec.sources)}, got '{kind}'"
        )
    problem.finish()

    grid = _Section("grid", raw["grid"])
    m_intervals = grid.take("m_intervals", int, required=True)
    if m_intervals < 2:
        raise ConfigInvalid("'grid.m_intervals' must be at least 2")
    length = grid.take("length", float, default=0.5)
    if length <= 0:
        raise ConfigInvalid("'grid.length' must be positive")
    n_angles = grid.take("n_angles", int)
    if spec.pde == "rte":
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

    settings = {}
    for name, cls in SETTINGS.items():
        section = _Section(name, raw.get(name, {}))
        values = {f.name: section.take(f.name, type(f.default), f.default)
                  for f in fields(cls)}
        section.finish()
        settings[name] = cls(**values)

    return ExperimentConfig(
        family=family,
        m_intervals=m_intervals,
        p=p,
        length=length,
        n_angles=n_angles,
        source=SourceSpec(kind, amplitude),
        **settings,
        **medium,
    )


def config_to_dict(config: ExperimentConfig):
    """Canonical nested dictionary, invertible by config_from_dict."""
    problem = {"family": config.family}
    problem.update({key: getattr(config, key) for key in FAMILIES[config.family].medium})
    problem["source"] = {"kind": config.source.kind, "amplitude": config.source.amplitude}
    grid = {"m_intervals": config.m_intervals, "length": config.length}
    if config.pde == "rte":
        grid["n_angles"] = config.n_angles
    return {
        "problem": problem,
        "grid": grid,
        "weights": {"p": config.p},
        **{name: asdict(getattr(config, name)) for name in SETTINGS},
    }


def load_config(path):
    """Read and validate a JSON configuration file."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{path}: not valid JSON ({exc})") from exc
    return config_from_dict(raw)
