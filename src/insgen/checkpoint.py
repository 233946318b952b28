"""Binary checkpoint format.

Layout (all integers little-endian u32):

    b"INSR" | version | header_len | header JSON | manifest_len |
    manifest JSON | raw parameter blob

The header JSON carries the model config plus arbitrary extra metadata
(vocab, loss/task settings). The manifest lists (name, shape, offset) per
parameter; parameter data is raw 32-bit little-endian floats at the given
blob offsets. Saving is atomic (write temp, rename) and save -> load ->
save round-trips byte-identically.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from typing import Any

import numpy as np

from .model import InsertionModel, ModelConfig

MAGIC = b"INSR"
VERSION = 1


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


def _dump_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save(path: str, model: InsertionModel, extra: dict[str, Any] | None = None) -> None:
    header = {"config": dataclasses.asdict(model.config), "extra": extra or {}}
    manifest = []
    blobs = []
    offset = 0
    for name, p in model.params.items():
        raw = np.ascontiguousarray(p.data, dtype="<f4").tobytes()
        manifest.append({"name": name, "shape": list(p.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    header_b = _dump_json(header)
    manifest_b = _dump_json(manifest)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(header_b)))
        f.write(header_b)
        f.write(struct.pack("<I", len(manifest_b)))
        f.write(manifest_b)
        for raw in blobs:
            f.write(raw)
    os.replace(tmp, path)


def load(path: str) -> tuple[InsertionModel, dict[str, Any]]:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {data[:4]!r}, expected {MAGIC!r}")
    pos = 4

    def read(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise CheckpointError(f"{path}: truncated: {what} ends past the {len(data)}-byte file")
        pos += n
        return data[pos - n : pos]

    def u32(what: str) -> int:
        return struct.unpack("<I", read(4, what))[0]

    version = u32("version")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    try:
        header = json.loads(read(u32("header length"), "header"))
        manifest = json.loads(read(u32("manifest length"), "manifest"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable header or manifest: {e}") from None
    blob = data[pos:]

    config = ModelConfig(**header["config"])
    model = InsertionModel(config, seed=0)
    names = {entry["name"] for entry in manifest}
    if names != set(model.params):
        missing = sorted(set(model.params) - names)
        extra_names = sorted(names - set(model.params))
        raise CheckpointError(f"{path}: manifest mismatch (missing {missing}, unexpected {extra_names})")
    for entry in manifest:
        shape = tuple(entry["shape"])
        n = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        if start + 4 * n > len(blob):
            raise CheckpointError(f"{path}: truncated: {entry['name']} ends past the {len(blob)}-byte blob")
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=start).reshape(shape)
        param = model.params[entry["name"]]
        if param.shape != shape:
            raise CheckpointError(f"{path}: {entry['name']} has shape {shape}, expected {param.shape}")
        param.data = arr.astype(config.np_dtype)
    return model, header["extra"]
