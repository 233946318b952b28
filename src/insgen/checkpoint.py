"""Binary checkpoint format.

Layout (all integers little-endian u32):

    b"INSR" | version | header_len | header JSON | manifest_len |
    manifest JSON | raw parameter blob

The header JSON carries the model config plus arbitrary extra metadata
(vocab, loss/task settings). The manifest lists (name, shape, offset) per
parameter; parameter data is raw 32-bit little-endian floats at the given
blob offsets. Saving streams each array's bytes straight to the file (no
blob is built in memory), is atomic (write temp, rename), and save -> load
-> save round-trips byte-identically.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from typing import Any, Iterable

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
    manifest, arrays = pack_arrays((name, p.data) for name, p in model.params.items())
    header_b = _dump_json(header)
    manifest_b = _dump_json(manifest)
    write_atomic(
        path,
        MAGIC,
        struct.pack("<I", VERSION),
        struct.pack("<I", len(header_b)),
        header_b,
        struct.pack("<I", len(manifest_b)),
        manifest_b,
        *arrays,
    )


def write_atomic(path: str, *chunks: bytes | np.ndarray) -> None:
    """Write the chunks to a temp file, then rename it over path.

    An array chunk goes as its little-endian float32 bytes, written from the
    array itself (a float32 array is not copied; any other is converted).
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        for chunk in chunks:
            if isinstance(chunk, np.ndarray):
                chunk = np.ascontiguousarray(chunk, dtype="<f4")
            f.write(chunk)
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

    try:
        config = ModelConfig(**header["config"])
        model = InsertionModel(config, seed=0)
        extra = header["extra"]
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad header: {type(e).__name__}: {e}") from None
    shapes = {name: p.shape for name, p in model.params.items()}
    for name, arr in read_arrays(path, manifest, blob, shapes).items():
        model.params[name].data = arr.astype(config.np_dtype)
    return model, extra


def pack_arrays(arrays: Iterable[tuple[str, np.ndarray]]) -> tuple[list[dict], list[np.ndarray]]:
    """A (name, shape, offset) manifest and the arrays in blob order.

    Passed to write_atomic in that order, the arrays make the float32 blob
    that read_arrays reads back.
    """
    manifest, kept, offset = [], [], 0
    for name, arr in arrays:
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        kept.append(arr)
        offset += 4 * arr.size
    return manifest, kept


def read_arrays(path: str, manifest, blob: bytes, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """The float32 arrays a (name, shape, offset) manifest places in blob.

    The manifest must name exactly the arrays of `shapes`, with those
    shapes, each inside the blob; anything else raises CheckpointError.
    """
    try:
        entries = {e["name"]: (tuple(e["shape"]), int(e["offset"])) for e in manifest}
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed manifest: {type(e).__name__}: {e}") from None
    if set(entries) != set(shapes):
        missing = sorted(set(shapes) - set(entries))
        extra_names = sorted(set(entries) - set(shapes))
        raise CheckpointError(f"{path}: manifest mismatch (missing {missing}, unexpected {extra_names})")
    arrays = {}
    for name, (shape, start) in entries.items():
        if shape != shapes[name]:
            raise CheckpointError(f"{path}: {name} has shape {shape}, expected {shapes[name]}")
        n = int(np.prod(shape))
        if start < 0 or start + 4 * n > len(blob):
            raise CheckpointError(f"{path}: truncated: {name} ends past the {len(blob)}-byte blob")
        arrays[name] = np.frombuffer(blob, dtype="<f4", count=n, offset=start).reshape(shape)
    return arrays
