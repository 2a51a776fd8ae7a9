"""Binary basis file format: byte layout, round trips and corruption handling."""

import json
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from optbasis import obf
from optbasis.basis import SVDBasis
from optbasis.bayes import dense_svd_oracle
from optbasis.config import FAMILIES, config_from_dict, config_to_dict
from optbasis.elliptic import EllipticMedium, assemble_elliptic
from optbasis.exceptions import OptbasisError, SidecarMismatch
from optbasis.grids import Grid2D
from optbasis.linalg import factorize
from optbasis.weights import build_sobolev_weight


# A pair written when basis_meta still repeated the config: 15 entries, 12 of them copies.
FULL_META_PAIR = Path(__file__).parent / "data" / "rte_m4_full_meta.obf"


def family_config(family="identity", m=4):
    return config_from_dict({"problem": {"family": family}, "grid": {"m_intervals": m},
                             "weights": {"p": 1}})


def small_basis():
    grid = Grid2D(5)
    solver = factorize(assemble_elliptic(grid, EllipticMedium(1.0)))
    fx = build_sobolev_weight(1, grid)
    return dense_svd_oracle(solver.solve(np.eye(solver.n)), fx)


def handmade_basis():
    rng = np.random.Generator(np.random.Philox(5))
    n, r = 7, 3
    return SVDBasis(np.array([3.0, 2.0, 1.0]),
                    rng.normal(size=(n, r)), rng.normal(size=(n, r)), {"method": "rsvd"})


class TestLayout:
    def test_header_bytes(self, tmp_path):
        path = tmp_path / "b.obf"
        obf.write_basis(path, handmade_basis(), family_config("rte"))
        blob = path.read_bytes()
        magic, version, n_dofs, rank, tag = struct.unpack_from("<4sIQQB", blob)
        assert magic == b"OBAS"
        assert version == 1
        assert (n_dofs, rank) == (7, 3)
        assert tag == 2

    def test_total_size_is_exact(self, tmp_path):
        path = tmp_path / "b.obf"
        obf.write_basis(path, handmade_basis(), family_config())
        expected = struct.calcsize("<4sIQQB") + 8 * 3 * (1 + 2 * 7)
        assert path.stat().st_size == expected

    def test_singular_values_live_right_after_the_header(self, tmp_path):
        basis = handmade_basis()
        path = tmp_path / "b.obf"
        obf.write_basis(path, basis, family_config())
        blob = path.read_bytes()
        lam = np.frombuffer(blob, dtype="<f8", count=3, offset=struct.calcsize("<4sIQQB"))
        np.testing.assert_array_equal(lam, basis.singular_values)

    def test_writes_are_deterministic(self, tmp_path):
        basis = small_basis()
        obf.write_basis(tmp_path / "a.obf", basis, family_config("elliptic"))
        obf.write_basis(tmp_path / "b.obf", basis, family_config("elliptic"))
        assert (tmp_path / "a.obf").read_bytes() == (tmp_path / "b.obf").read_bytes()


class TestRoundTrip:
    def test_arrays_survive_bit_for_bit(self, tmp_path):
        basis = small_basis()
        path = tmp_path / "case.obf"
        obf.write_basis(path, basis, family_config("elliptic", m=5))
        back = obf.read_basis(path)
        assert (back.n_dofs, back.rank) == (basis.n_dofs, basis.rank)
        np.testing.assert_array_equal(back.singular_values, basis.singular_values)
        np.testing.assert_array_equal(back.left_vectors, basis.left_vectors)
        np.testing.assert_array_equal(back.right_vectors, basis.right_vectors)
        assert back.meta["family"] == "elliptic"

    def test_sidecar_carries_the_config(self, tmp_path):
        path = tmp_path / "case.obf"
        config = family_config("elliptic", m=5)
        side = obf.write_basis(path, small_basis(), config)
        assert side == tmp_path / "case.meta.json"
        stored = json.loads(side.read_text())
        assert sorted(stored) == ["basis_meta", "config", "family", "format_version",
                                  "n_dofs", "rank"]
        assert stored["format_version"] == 1
        assert stored["family"] == "elliptic"
        assert stored["basis_meta"] == {"method": "dense_oracle"}
        assert stored["config"] == config_to_dict(config)
        back = obf.read_basis(path)
        assert config_from_dict(back.meta["config"]) == config

    def test_missing_sidecar_is_tolerated(self, tmp_path):
        path = tmp_path / "case.obf"
        side = obf.write_basis(path, small_basis(), family_config("semilinear_rte"))
        side.unlink()
        back = obf.read_basis(path)
        assert back.meta == {"family": "semilinear_rte"}

    def test_sidecar_with_a_full_basis_meta_still_reads(self):
        stored = json.loads(obf.sidecar_path(FULL_META_PAIR).read_text())
        assert len(stored["basis_meta"]) == 15
        back = obf.read_basis(FULL_META_PAIR)
        assert (back.n_dofs, back.rank) == (36, 5)
        assert back.meta == {**stored["basis_meta"], "config": stored["config"]}
        assert back.meta["family"] == "rte"

    def test_family_tags_cover_exactly_the_config_families(self):
        # the tags are on disk in every existing .obf: they must never be renumbered
        pinned = {"identity": 0, "elliptic": 1, "rte": 2, "semilinear_elliptic": 3,
                  "semilinear_rte": 4}
        assert {name: family.tag for name, family in FAMILIES.items()} == pinned
        assert obf.TAG_FAMILIES == {tag: name for name, tag in pinned.items()}

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_family_tag_round_trips(self, tmp_path, family):
        path = tmp_path / "b.obf"
        side = obf.write_basis(path, handmade_basis(), family_config(family))
        side.unlink()
        assert obf.read_basis(path).meta["family"] == family


class TestStaleSidecar:
    def test_elliptic_sidecar_cannot_relabel_an_rte_basis(self, tmp_path):
        rte = SVDBasis(np.array([2.0]), np.ones((4, 1)), np.ones((4, 1)), {"method": "rsvd"})
        path = tmp_path / "rte.obf"
        obf.write_basis(path, rte, family_config("rte"))
        obf.write_basis(tmp_path / "old.obf", small_basis(), family_config("elliptic", m=5))
        (tmp_path / "old.meta.json").replace(obf.sidecar_path(path))
        with pytest.raises(SidecarMismatch, match="sidecar family 'elliptic'"):
            obf.read_basis(path)
        assert issubclass(SidecarMismatch, OptbasisError)
        assert issubclass(SidecarMismatch, OSError)

    @pytest.mark.parametrize("key", ["family", "n_dofs", "rank"])
    def test_each_disagreeing_field_is_rejected(self, tmp_path, key):
        path = tmp_path / "b.obf"
        side = obf.write_basis(path, handmade_basis(), family_config())
        stored = json.loads(side.read_text())
        stored[key] = {"family": "elliptic", "n_dofs": 8, "rank": 2}[key]
        side.write_text(json.dumps(stored))
        with pytest.raises(SidecarMismatch, match=f"sidecar {key} "):
            obf.read_basis(path)

    def test_family_in_basis_meta_does_not_override_the_header(self, tmp_path):
        path = tmp_path / "b.obf"
        side = obf.write_basis(path, handmade_basis(), family_config())
        stored = json.loads(side.read_text())
        stored["basis_meta"]["family"] = "elliptic"
        side.write_text(json.dumps(stored))
        assert obf.read_basis(path).meta["family"] == "identity"

    @pytest.mark.parametrize("text, match", [
        ("{bad", "not valid JSON"),
        ("[1, 2]", "not a JSON object"),
        ('{"basis_meta": [1]}', "not a JSON object"),
    ], ids=["undecodable", "not-an-object", "basis-meta-not-an-object"])
    def test_malformed_sidecar_is_rejected(self, tmp_path, text, match):
        path = tmp_path / "b.obf"
        obf.write_basis(path, handmade_basis(), family_config()).write_text(text)
        with pytest.raises(SidecarMismatch, match=match):
            obf.read_basis(path)


class TestCorruption:
    def test_unknown_family_rejected_at_write_time(self, tmp_path):
        with pytest.raises(KeyError, match="heat"):
            obf.write_basis(tmp_path / "b.obf", handmade_basis(),
                            replace(family_config(), family="heat"))
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "b.obf"
        obf.write_basis(path, handmade_basis(), family_config())
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(IOError, match="bad magic"):
            obf.read_basis(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "b.obf"
        obf.write_basis(path, handmade_basis(), family_config())
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(IOError, match="unsupported format version 9"):
            obf.read_basis(path)

    def test_unknown_tag(self, tmp_path):
        path = tmp_path / "b.obf"
        obf.write_basis(path, handmade_basis(), family_config())
        blob = bytearray(path.read_bytes())
        blob[24] = 200
        path.write_bytes(bytes(blob))
        with pytest.raises(IOError, match="unknown problem family tag 200"):
            obf.read_basis(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "b.obf"
        path.write_bytes(b"OBAS\x01")
        with pytest.raises(IOError, match="truncated"):
            obf.read_basis(path)

    def test_wrong_payload_length(self, tmp_path):
        path = tmp_path / "b.obf"
        obf.write_basis(path, handmade_basis(), family_config())
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(IOError, match="expected .* bytes"):
            obf.read_basis(path)


class _Unconvertible:
    """Array stand-in whose conversion fails, so a write stops partway."""

    def __array__(self, dtype=None, copy=None):
        raise RuntimeError("conversion failed")


class TestAtomicWrite:
    def _previous_pair(self, tmp_path):
        path = tmp_path / "b.obf"
        obf.write_basis(path, handmade_basis(), family_config())
        return path, path.read_bytes(), obf.sidecar_path(path).read_bytes()

    def test_failure_in_the_payload_keeps_the_previous_pair(self, tmp_path):
        path, blob, side = self._previous_pair(tmp_path)
        broken = handmade_basis()
        broken.right_vectors = _Unconvertible()  # fails after the header and left vectors
        with pytest.raises(RuntimeError, match="conversion failed"):
            obf.write_basis(path, broken, family_config("elliptic"))
        assert path.read_bytes() == blob
        assert obf.sidecar_path(path).read_bytes() == side
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.meta.json", "b.obf"]

    def test_failure_in_the_sidecar_keeps_the_previous_pair(self, tmp_path):
        path, blob, side = self._previous_pair(tmp_path)
        broken = small_basis()
        broken.meta = {"method": object()}  # not JSON serializable
        with pytest.raises(TypeError):
            obf.write_basis(path, broken, family_config("elliptic", m=5))
        assert path.read_bytes() == blob
        assert obf.sidecar_path(path).read_bytes() == side
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.meta.json", "b.obf"]

    def test_overwrite_replaces_both_files(self, tmp_path):
        path, blob, _ = self._previous_pair(tmp_path)
        config = family_config("elliptic", m=5)
        obf.write_basis(path, small_basis(), config)
        assert path.read_bytes() != blob
        assert obf.read_basis(path).meta["config"] == config_to_dict(config)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.meta.json", "b.obf"]
