"""The INSR container: model checkpoints and optimizer sidecars.

Layout (all integers little-endian u32):

    b"INSR" | version | header_len | header JSON | manifest_len |
    manifest JSON | raw little-endian blob

The manifest lists (name, shape, offset) per array, plus its dtype when
that is not float32; array data is raw little-endian floats of that dtype
(float32 or float64) at the given blob offsets. Each array keeps the dtype
it was written in, so a float64 model loads unrounded. `write` and `read`
are the only code that knows this layout, and `read_arrays` the only check
of a manifest against the arrays a caller expects.

A model checkpoint (`save`/`load`) has header {"config": model config,
"extra": the run's record, `config.RunConfig.checkpoint_record()`} and
one array per parameter. The optimizer sidecar (`save_optimizer_state` in
training) has header {"step": k} and arrays m.<param> and v.<param>. Writing streams each
array's bytes straight to the file (no blob is built in memory), is atomic
(write temp, rename), and save -> load -> save round-trips byte-identically.
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
DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}  # manifest name -> stored dtype


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


def _dump_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save(path: str, model: InsertionModel, extra: dict[str, Any] | None = None) -> None:
    header = {"config": dataclasses.asdict(model.config), "extra": extra or {}}
    write(path, header, {name: p.data for name, p in model.params.items()})


def load(path: str) -> tuple[InsertionModel, dict[str, Any]]:
    header, manifest, blob = read(path)
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


def write(path: str, header: dict[str, Any], arrays: dict[str, np.ndarray]) -> None:
    """Write an INSR file of header and named arrays: temp file, then rename over path.

    Each array goes as the little-endian bytes of its own dtype, float32 or
    float64, written from the array itself (a contiguous little-endian array
    is not copied). Another dtype raises ValueError.
    """
    manifest, offset = [], 0
    for name, arr in arrays.items():
        if arr.dtype.name not in DTYPES:
            raise ValueError(f"{name}: cannot store a {arr.dtype} array, only {sorted(DTYPES)}")
        entry = {"name": name, "shape": list(arr.shape), "offset": offset}
        if arr.dtype.name != "float32":
            entry["dtype"] = arr.dtype.name
        manifest.append(entry)
        offset += arr.nbytes
    header_b, manifest_b = _dump_json(header), _dump_json(manifest)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC + struct.pack("<II", VERSION, len(header_b)) + header_b)
        f.write(struct.pack("<I", len(manifest_b)) + manifest_b)
        for arr in arrays.values():
            f.write(np.ascontiguousarray(arr, dtype=DTYPES[arr.dtype.name]))
    os.replace(tmp, path)


def read(path: str) -> tuple[Any, Any, memoryview]:
    """The header, manifest and blob of an INSR file; the blob is a view, not a copy.

    A wrong magic or version, a length past the end of the file, or
    unreadable JSON raises CheckpointError naming the file.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {data[:4]!r}, expected {MAGIC!r}")
    pos = 4

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise CheckpointError(f"{path}: truncated: {what} ends past the {len(data)}-byte file")
        pos += n
        return data[pos - n : pos]

    def u32(what: str) -> int:
        return struct.unpack("<I", take(4, what))[0]

    version = u32("version")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    try:
        header = json.loads(take(u32("header length"), "header"))
        manifest = json.loads(take(u32("manifest length"), "manifest"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable header or manifest: {e}") from None
    return header, manifest, memoryview(data)[pos:]


def read_arrays(path: str, manifest, blob: memoryview, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """The arrays a (name, shape, offset[, dtype]) manifest places in blob, each in its stored dtype.

    The manifest must name exactly the arrays of `shapes`, with those
    shapes and a dtype of DTYPES (float32 when absent), each inside the
    blob; anything else raises CheckpointError.
    """
    try:
        entries = {
            e["name"]: (tuple(e["shape"]), int(e["offset"]), DTYPES[e.get("dtype", "float32")]) for e in manifest
        }
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed manifest: {type(e).__name__}: {e}") from None
    if set(entries) != set(shapes):
        missing = sorted(set(shapes) - set(entries))
        extra_names = sorted(set(entries) - set(shapes))
        raise CheckpointError(f"{path}: manifest mismatch (missing {missing}, unexpected {extra_names})")
    arrays = {}
    for name, (shape, start, dtype) in entries.items():
        if shape != shapes[name]:
            raise CheckpointError(f"{path}: {name} has shape {shape}, expected {shapes[name]}")
        n = int(np.prod(shape))
        if start < 0 or start + dtype.itemsize * n > len(blob):
            raise CheckpointError(f"{path}: truncated: {name} ends past the {len(blob)}-byte blob")
        arrays[name] = np.frombuffer(blob, dtype=dtype, count=n, offset=start).reshape(shape)
    return arrays
