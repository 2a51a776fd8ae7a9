"""Strict config parsing, defaults, canonical serialization and file round trips."""

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import optbasis
from optbasis.config import (
    FAMILIES,
    SETTINGS,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
)
from optbasis.exceptions import ConfigInvalid


def minimal(family="elliptic", **grid_extra):
    raw = {
        "problem": {"family": family},
        "grid": {"m_intervals": 8, **grid_extra},
        "weights": {"p": 1},
    }
    return raw


class TestDefaults:
    def test_elliptic_defaults(self):
        c = config_from_dict(minimal())
        assert c.family == "elliptic"
        assert c.eps == 1.0
        assert c.eps1 is None and c.eps2 is None and c.g is None
        assert c.length == 0.5
        assert c.n_angles is None
        assert (c.source.kind, c.source.amplitude) == ("sine", 1.0)
        assert (c.rsvd.rank, c.rsvd.oversample, c.rsvd.power, c.rsvd.seed) == (50, 10, 2, 0)
        assert (c.nonlinear.tol, c.nonlinear.max_iter, c.nonlinear.relax) == (1e-12, 500, 1.0)
        assert c.pde == "elliptic" and not c.is_semilinear

    def test_rte_defaults(self):
        c = config_from_dict(minimal("rte"))
        assert (c.eps1, c.eps2, c.g) == (1.0, 1.0, 0.5)
        assert c.eps is None
        assert c.n_angles == 16
        assert (c.source.kind, c.source.amplitude) == ("beam", 1.0)
        assert c.pde == "rte"

    def test_semilinear_source_amplitudes(self):
        assert config_from_dict(minimal("semilinear_elliptic")).source.amplitude == 100.0
        assert config_from_dict(minimal("semilinear_rte")).source.amplitude == 0.1
        assert config_from_dict(minimal("semilinear_rte")).is_semilinear

    def test_identity_defaults_to_zero_source(self):
        c = config_from_dict(minimal("identity"))
        assert (c.source.kind, c.source.amplitude) == ("zero", 0.0)

    def test_explicit_values_override(self):
        raw = {
            "problem": {"family": "rte", "eps1": 0.25, "eps2": 0.5, "g": 0.0,
                        "source": {"kind": "beam", "amplitude": 2.5}},
            "grid": {"m_intervals": 12, "length": 1.0, "n_angles": 8},
            "weights": {"p": 2},
            "rsvd": {"rank": 7, "oversample": 3, "power": 4, "seed": 11},
            "nonlinear": {"tol": 1e-10, "max_iter": 40, "relax": 0.5},
        }
        c = config_from_dict(raw)
        assert (c.eps1, c.eps2, c.g) == (0.25, 0.5, 0.0)
        assert (c.m_intervals, c.length, c.n_angles) == (12, 1.0, 8)
        assert c.p == 2
        assert (c.rsvd.rank, c.rsvd.oversample, c.rsvd.power, c.rsvd.seed) == (7, 3, 4, 11)
        assert (c.nonlinear.tol, c.nonlinear.max_iter, c.nonlinear.relax) == (1e-10, 40, 0.5)


class TestRejections:
    def test_root_must_be_object(self):
        with pytest.raises(ConfigInvalid, match="root must be an object"):
            config_from_dict(["problem"])

    def test_unknown_section(self):
        for section in ("extras", "output"):
            raw = minimal()
            raw[section] = {}
            with pytest.raises(ConfigInvalid, match=f"unknown section '{section}'"):
                config_from_dict(raw)

    def test_missing_required_section(self):
        raw = minimal()
        del raw["weights"]
        with pytest.raises(ConfigInvalid, match="missing required section 'weights'"):
            config_from_dict(raw)

    def test_section_must_be_object(self):
        raw = minimal()
        raw["grid"] = 5
        with pytest.raises(ConfigInvalid, match="section 'grid' must be an object"):
            config_from_dict(raw)

    def test_unknown_key_is_named_with_its_section(self):
        raw = minimal()
        raw["grid"]["cells"] = 8
        with pytest.raises(ConfigInvalid, match="unknown key 'grid.cells'"):
            config_from_dict(raw)

    def test_missing_required_key(self):
        raw = minimal()
        del raw["grid"]["m_intervals"]
        with pytest.raises(ConfigInvalid, match="missing required key 'grid.m_intervals'"):
            config_from_dict(raw)

    def test_unknown_family(self):
        with pytest.raises(ConfigInvalid, match="problem.family"):
            config_from_dict(minimal("parabolic"))

    def test_int_rejects_bool_and_float(self):
        raw = minimal()
        raw["grid"]["m_intervals"] = True
        with pytest.raises(ConfigInvalid, match="'grid.m_intervals' must be an integer"):
            config_from_dict(raw)
        raw["grid"]["m_intervals"] = 8.0
        with pytest.raises(ConfigInvalid, match="must be an integer"):
            config_from_dict(raw)

    def test_float_rejects_bool_and_string(self):
        raw = minimal()
        raw["grid"]["length"] = True
        with pytest.raises(ConfigInvalid, match="'grid.length' must be a number"):
            config_from_dict(raw)
        raw["grid"]["length"] = "0.5"
        with pytest.raises(ConfigInvalid, match="must be a number"):
            config_from_dict(raw)

    @pytest.mark.parametrize("section, key", [
        ("problem", "eps"), ("grid", "length"), ("source", "amplitude"), ("nonlinear", "tol"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10 ** 400])
    def test_float_rejects_non_finite(self, section, key, value):
        raw = minimal("semilinear_elliptic")
        if section == "source":
            raw["problem"]["source"] = {"amplitude": value}
            where = "problem.source.amplitude"
        else:
            raw.setdefault(section, {})[key] = value
            where = f"{section}.{key}"
        with pytest.raises(ConfigInvalid, match=f"'{where}' must be a finite number"):
            config_from_dict(raw)

    def test_str_rejects_number(self):
        raw = minimal()
        raw["problem"]["family"] = 3
        with pytest.raises(ConfigInvalid, match="'problem.family' must be a string"):
            config_from_dict(raw)

    def test_family_specific_medium_keys(self):
        raw = minimal()
        raw["problem"]["eps1"] = 0.5
        with pytest.raises(ConfigInvalid, match="eps1' does not apply to family 'elliptic'"):
            config_from_dict(raw)
        raw = minimal("rte")
        raw["problem"]["eps"] = 0.5
        with pytest.raises(ConfigInvalid, match="does not apply to family 'rte'"):
            config_from_dict(raw)
        raw = minimal("identity")
        raw["problem"]["g"] = 0.5
        with pytest.raises(ConfigInvalid, match="identity"):
            config_from_dict(raw)

    @pytest.mark.parametrize("key,value", [("eps", 0.0), ("eps", -1.0)])
    def test_elliptic_eps_positivity(self, key, value):
        raw = minimal()
        raw["problem"][key] = value
        with pytest.raises(ConfigInvalid, match="must be positive"):
            config_from_dict(raw)

    def test_rte_parameter_ranges(self):
        raw = minimal("rte")
        raw["problem"]["eps1"] = 0.0
        with pytest.raises(ConfigInvalid, match="must be positive"):
            config_from_dict(raw)
        raw = minimal("rte")
        raw["problem"]["g"] = 1.0
        with pytest.raises(ConfigInvalid, match=r"'problem.g' must be in \[0, 1\)"):
            config_from_dict(raw)

    def test_grid_ranges(self):
        raw = minimal()
        raw["grid"]["m_intervals"] = 1
        with pytest.raises(ConfigInvalid, match="at least 2"):
            config_from_dict(raw)
        raw = minimal()
        raw["grid"]["length"] = 0.0
        with pytest.raises(ConfigInvalid, match="'grid.length' must be positive"):
            config_from_dict(raw)
        raw = minimal("rte", n_angles=0)
        with pytest.raises(ConfigInvalid, match="'grid.n_angles' must be at least 1"):
            config_from_dict(raw)

    def test_n_angles_rejected_for_elliptic(self):
        raw = minimal(n_angles=8)
        with pytest.raises(ConfigInvalid, match="'grid.n_angles' does not apply"):
            config_from_dict(raw)

    @pytest.mark.parametrize("p", [-1, 3])
    def test_weight_order_range(self, p):
        raw = minimal()
        raw["weights"]["p"] = p
        with pytest.raises(ConfigInvalid, match="'weights.p' must be 0, 1 or 2"):
            config_from_dict(raw)

    def test_source_kind_and_family_consistency(self):
        raw = minimal()
        raw["problem"]["source"] = {"kind": "beam"}
        with pytest.raises(ConfigInvalid, match="for family 'elliptic' must be one of sine, zero"):
            config_from_dict(raw)
        raw = minimal("rte")
        raw["problem"]["source"] = {"kind": "sine"}
        with pytest.raises(ConfigInvalid, match="for family 'rte' must be one of beam, zero"):
            config_from_dict(raw)
        raw = minimal()
        raw["problem"]["source"] = {"kind": "ramp"}
        with pytest.raises(ConfigInvalid, match="problem.source.kind"):
            config_from_dict(raw)

    def test_zero_source_allowed_everywhere(self):
        for family in ("elliptic", "rte", "identity"):
            raw = minimal(family) if family != "rte" else minimal("rte")
            raw["problem"]["source"] = {"kind": "zero", "amplitude": 0.0}
            assert config_from_dict(raw).source.kind == "zero"

    def test_invalid_rsvd_section(self):
        for patch, msg in [
            ({"rank": 0}, "'rsvd.rank' must be at least 1"),
            ({"oversample": -1}, "'rsvd.oversample' must be nonnegative"),
            ({"power": -1}, "'rsvd.power' must be nonnegative"),
            ({"seed": -1}, "'rsvd.seed' must be nonnegative"),
            ({"rank": 5.0}, "'rsvd.rank' must be an integer"),
            ({"oversampling": 5}, "unknown key 'rsvd.oversampling'"),
        ]:
            raw = minimal()
            raw["rsvd"] = patch
            with pytest.raises(ConfigInvalid, match=msg):
                config_from_dict(raw)

    def test_nonlinear_ranges(self):
        for patch, msg in [
            ({"tol": 0.0}, "'nonlinear.tol' must be positive"),
            ({"max_iter": 0}, "'nonlinear.max_iter' must be at least 1"),
            ({"relax": 0.0}, r"'nonlinear.relax' must be in \(0, 1\]"),
            ({"relax": 1.5}, r"'nonlinear.relax' must be in \(0, 1\]"),
        ]:
            raw = minimal()
            raw["nonlinear"] = patch
            with pytest.raises(ConfigInvalid, match=msg):
                config_from_dict(raw)


class TestRoundTrips:
    @pytest.mark.parametrize("family", ["elliptic", "semilinear_elliptic", "rte",
                                        "semilinear_rte", "identity"])
    def test_dict_round_trip_is_identity(self, family):
        c = config_from_dict(minimal(family))
        assert config_from_dict(config_to_dict(c)) == c

    def test_round_trip_preserves_overrides(self):
        raw = {
            "problem": {"family": "semilinear_rte", "eps1": 0.0625,
                        "source": {"kind": "beam", "amplitude": 0.2}},
            "grid": {"m_intervals": 10, "n_angles": 12},
            "weights": {"p": 0},
            "rsvd": {"rank": 9, "seed": 3},
        }
        c = config_from_dict(raw)
        again = config_from_dict(config_to_dict(c))
        assert again == c

    def test_file_round_trip(self, tmp_path):
        c = config_from_dict(minimal("rte"))
        path = tmp_path / "case.json"
        path.write_text(json.dumps(config_to_dict(c), indent=2))
        assert load_config(path) == c
        # the file is plain nested JSON
        raw = json.loads(path.read_text())
        assert raw["problem"]["family"] == "rte"

    def test_settings_sections_are_their_dataclass_fields(self):
        raw = config_to_dict(config_from_dict(minimal()))
        for name, cls in SETTINGS.items():
            assert list(raw[name]) == [f.name for f in fields(cls)]
            assert raw[name] == {f.name: f.default for f in fields(cls)}

    def test_invalid_json_reports_the_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigInvalid, match="not valid JSON"):
            load_config(path)


class TestPaperScale:
    def test_elliptic(self):
        c = config_from_dict(minimal()).with_paper_scale()
        assert c.m_intervals == 64
        assert c.n_angles is None

    def test_rte(self):
        c = config_from_dict(minimal("rte")).with_paper_scale()
        assert (c.m_intervals, c.n_angles) == (64, 40)

    def test_identity_unchanged(self):
        c = config_from_dict(minimal("identity"))
        assert c.with_paper_scale() == c
        assert c.with_paper_scale().m_intervals == 8


class TestFamilyTable:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_parsed_config_reads_the_table(self, name):
        family = FAMILIES[name]
        c = config_from_dict(minimal(name))
        assert c.pde == family.pde
        assert c.is_semilinear == family.semilinear
        assert (c.source.kind, c.source.amplitude) == family.default_source
        assert family.default_source[0] in family.sources
        assert {key: getattr(c, key) for key in family.medium} == dict(family.medium)
        unset = {"eps", "eps1", "eps2", "g"} - set(family.medium)
        assert all(getattr(c, key) is None for key in unset)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_serialized_medium_is_exactly_the_family_medium(self, name):
        problem = config_to_dict(config_from_dict(minimal(name)))["problem"]
        assert list(problem) == ["family", *FAMILIES[name].medium, "source"]

    def test_table_is_read_only(self):
        with pytest.raises(TypeError):
            FAMILIES["parabolic"] = FAMILIES["elliptic"]
        with pytest.raises(TypeError):
            FAMILIES["elliptic"].medium["eps"] = 2.0

    def test_family_facts_live_only_in_config(self):
        # family names and per-family tables belong to config.FAMILIES; other
        # modules branch on a config's pde and is_semilinear
        family_names = re.compile(r"\b(semilinear_elliptic|semilinear_rte)\b")
        retired = re.compile(r"\b(PROBLEM_FAMILIES|ELLIPTIC_FAMILIES|RTE_FAMILIES|SOURCE_KINDS"
                             r"|_DEFAULT_SOURCES|FAMILY_TAGS|is_rte|check_equivalence"
                             r"|EquivalenceReport|principal_angles|_energy_norm_on|DiffOp1D"
                             r"|OutputSettings|OPTBASIS_THREADS|DiagonalWeightFactor"
                             r"|TriangularWeightFactor|TensorWeightFactor"
                             r"|_band_to_sparse_upper|_rsvd_params|_nonlinear_settings"
                             r"|rsvd_params|_jsonable|oversampling)\b")
        offenders = []
        for path in sorted(Path(optbasis.__file__).parent.glob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if retired.search(line) or (path.name != "config.py"
                                            and family_names.search(line)):
                    offenders.append(f"{path.name}:{lineno}: {line.strip()}")
        assert offenders == []


# Any JSON value: the scalars config files can hold, and nested lists and objects.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=4,
)


def _settings_section(cls):
    keys = st.sampled_from([f.name for f in fields(cls)]) | st.text(max_size=6)
    return st.dictionaries(keys, _JSON, max_size=4) | _JSON


class TestSettingsFuzz:
    @given(rsvd=_settings_section(SETTINGS["rsvd"]),
           nonlinear=_settings_section(SETTINGS["nonlinear"]))
    def test_any_value_parses_or_is_config_invalid(self, rsvd, nonlinear):
        raw = {**minimal(), "rsvd": rsvd, "nonlinear": nonlinear}
        try:
            config = config_from_dict(raw)
        except ConfigInvalid:
            return
        assert config_from_dict(config_to_dict(config)) == config

    @given(rank=st.integers(1, 10**30), oversample=st.integers(0, 10**6),
           power=st.integers(0, 50), seed=st.integers(0, 2**128),
           tol=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           max_iter=st.integers(1, 10**9),
           relax=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    def test_valid_settings_round_trip(self, rank, oversample, power, seed, tol, max_iter,
                                       relax):
        raw = {**minimal(),
               "rsvd": {"rank": rank, "oversample": oversample, "power": power, "seed": seed},
               "nonlinear": {"tol": tol, "max_iter": max_iter, "relax": relax}}
        config = config_from_dict(raw)
        assert config_to_dict(config)["rsvd"] == raw["rsvd"]
        assert config_to_dict(config)["nonlinear"] == raw["nonlinear"]
        assert config_from_dict(config_to_dict(config)) == config
