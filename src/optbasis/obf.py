"""Binary basis files: a fixed little-endian layout plus a JSON sidecar.

Layout of an .obf file::

    bytes 0..3    magic "OBAS"
    bytes 4..7    format version, u32
    bytes 8..15   n_dofs, u64
    bytes 16..23  rank, u64
    byte  24      problem family tag, u8 (config.FAMILIES[family].tag)
    then          singular values, rank f64
    then          left vectors, n_dofs x rank f64, column-major
    then          right vectors, n_dofs x rank f64, column-major

All scalars little-endian.  The sidecar <stem>.meta.json carries the
validated experiment configuration that ran and, as ``basis_meta``, the
method that computed the basis; reading tolerates a missing sidecar but
rejects one that is not a JSON object or whose family, n_dofs or rank
disagree with the header, and writing always produces one.
Both files are written to temporary files in their own directory and then
moved into place, so a failed write leaves the previous pair untouched.
Write-then-read reproduces arrays bit for bit.
"""

from __future__ import annotations

import json
import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .basis import SVDBasis
from .config import FAMILIES, ExperimentConfig, config_to_dict
from .exceptions import SidecarMismatch

MAGIC = b"OBAS"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQQB")

TAG_FAMILIES = {family.tag: name for name, family in FAMILIES.items()}


def sidecar_path(path):
    return Path(path).with_suffix(".meta.json")


def write_basis(path, basis: SVDBasis, config: ExperimentConfig):
    """Write a basis and the sidecar of the config that ran; returns the sidecar path."""
    path = Path(path)
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, basis.n_dofs, basis.rank,
                          FAMILIES[config.family].tag)

    def write_payload(fh):
        fh.write(header)
        fh.write(np.ascontiguousarray(basis.singular_values, dtype="<f8").tobytes())
        fh.write(np.asfortranarray(basis.left_vectors, dtype="<f8").tobytes(order="F"))
        fh.write(np.asfortranarray(basis.right_vectors, dtype="<f8").tobytes(order="F"))

    meta = {
        "format_version": FORMAT_VERSION,
        "family": config.family,
        "n_dofs": basis.n_dofs,
        "rank": basis.rank,
        "basis_meta": basis.meta,
        "config": config_to_dict(config),
    }
    meta_bytes = (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode()

    side = sidecar_path(path)
    staged = []
    try:
        for target, write in ((path, write_payload), (side, lambda fh: fh.write(meta_bytes))):
            staged.append(target.with_name(f".{target.name}.{secrets.token_hex(8)}.tmp"))
            with open(staged[-1], "xb") as fh:
                write(fh)
        for tmp, target in zip(staged, (path, side)):
            os.replace(tmp, target)
    finally:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
    return side


def read_basis(path):
    """Read a basis file back; metadata comes from the sidecar when present."""
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        raise IOError(f"{path}: truncated basis file")
    magic, version, n_dofs, rank, tag = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise IOError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise IOError(f"{path}: unsupported format version {version}")
    if tag not in TAG_FAMILIES:
        raise IOError(f"{path}: unknown problem family tag {tag}")
    need = _HEADER.size + 8 * rank * (1 + 2 * n_dofs)
    if len(blob) != need:
        raise IOError(f"{path}: expected {need} bytes, found {len(blob)}")

    offset = _HEADER.size
    lam = np.frombuffer(blob, dtype="<f8", count=rank, offset=offset).copy()
    offset += 8 * rank
    left = np.frombuffer(blob, dtype="<f8", count=n_dofs * rank, offset=offset)
    left = left.reshape((n_dofs, rank), order="F").copy()
    offset += 8 * n_dofs * rank
    right = np.frombuffer(blob, dtype="<f8", count=n_dofs * rank, offset=offset)
    right = right.reshape((n_dofs, rank), order="F").copy()

    header = {"family": TAG_FAMILIES[tag], "n_dofs": int(n_dofs), "rank": int(rank)}
    meta = {}
    side = sidecar_path(path)
    if side.exists():
        try:
            stored = json.loads(side.read_text())
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise SidecarMismatch(f"{side}: sidecar is not valid JSON ({exc})") from exc
        if not isinstance(stored, dict) or not isinstance(stored.get("basis_meta") or {}, dict):
            raise SidecarMismatch(f"{side}: sidecar or its basis_meta is not a JSON object")
        for key, value in header.items():
            if stored.get(key, value) != value:
                raise SidecarMismatch(
                    f"{side}: sidecar {key} {stored[key]!r} does not match "
                    f"{value!r} in the header of {path}"
                )
        meta.update(stored.get("basis_meta") or {})
        if stored.get("config") is not None:
            meta["config"] = stored["config"]
    meta["family"] = header["family"]
    return SVDBasis(lam, left, right, meta)
