"""Checkpoint binary format: magic, manifest, bit-exact round trips."""

import hashlib
import json
import os
import struct

import numpy as np
import pytest

from insgen import checkpoint
from insgen.decoding import DecodeConfig, decode
from insgen.model import InsertionModel, ModelConfig
from insgen.vocab import NUM_RESERVED


def small_model(dtype="float32") -> InsertionModel:
    cfg = ModelConfig(
        vocab_size=NUM_RESERVED + 4,
        d_model=8,
        num_layers=1,
        num_heads=2,
        d_ff=16,
        max_positions=12,
        dtype=dtype,
    )
    return InsertionModel(cfg, seed=3)


def test_magic_and_version(tmp_path):
    path = str(tmp_path / "m.insr")
    checkpoint.save(path, small_model(), extra={"note": "x"})
    raw = open(path, "rb").read()
    assert raw[:4] == b"INSR"
    assert struct.unpack_from("<I", raw, 4)[0] == 1


def test_round_trip_restores_params_and_extra(tmp_path):
    path = str(tmp_path / "m.insr")
    model = small_model()
    extra = {"vocab": ["<pad>", "a"], "seed": 5}
    checkpoint.save(path, model, extra=extra)
    loaded, got_extra = checkpoint.load(path)
    assert got_extra == extra
    assert loaded.config == model.config
    for name, p in model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, p.data)


def test_save_load_save_is_byte_identical(tmp_path):
    p1 = str(tmp_path / "a.insr")
    p2 = str(tmp_path / "b.insr")
    model = small_model()
    checkpoint.save(p1, model, extra={"k": 1})
    loaded, extra = checkpoint.load(p1)
    checkpoint.save(p2, loaded, extra=extra)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_save_load_save_byte_identical_for_float64_model(tmp_path):
    p1 = str(tmp_path / "a.insr")
    p2 = str(tmp_path / "b.insr")
    model = small_model(dtype="float64")
    checkpoint.save(p1, model)
    loaded, extra = checkpoint.load(p1)
    checkpoint.save(p2, loaded, extra=extra)
    assert open(p1, "rb").read() == open(p2, "rb").read()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_arrays_keep_their_dtype_and_every_bit(tmp_path, dtype):
    # only a non-float32 array's manifest entry names its dtype
    path = str(tmp_path / "m.insr")
    model = small_model(dtype=dtype)
    checkpoint.save(path, model)
    _, manifest, _ = checkpoint.read(path)
    assert {e.get("dtype", "float32") for e in manifest} == {dtype}
    assert all("dtype" not in e for e in manifest) == (dtype == "float32")
    loaded, _ = checkpoint.load(path)
    for name, p in model.params.items():
        assert loaded.params[name].data.dtype == p.data.dtype
        assert loaded.params[name].data.tobytes() == p.data.tobytes(), name


@pytest.mark.parametrize("mode", ["greedy", "parallel"])
def test_float64_checkpoint_decodes_with_the_bits_of_its_model(tmp_path, mode):
    # a rounded checkpoint would score with other logprobs; the penalty makes every step insert, so traces hold them
    path = str(tmp_path / "m.insr")
    model = small_model(dtype="float64")
    checkpoint.save(path, model)
    loaded, _ = checkpoint.load(path)
    config = DecodeConfig(mode=mode, eos_penalty=50.0, max_output_length=8)
    for x in [(6,), (7, 8), (9, 6, 7)]:
        assert decode(loaded, x, config) == decode(model, x, config), x


def test_committed_checkpoint_resaves_byte_identically(tmp_path):
    # the float32 benchmark checkpoint still loads, and writing it again gives its bytes
    data = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "data")
    with open(os.path.join(data, "copy-btree.json"), encoding="utf-8") as f:
        meta = json.load(f)
    with open(os.path.join(data, "copy-btree.insr"), "rb") as f:
        raw = f.read()
    assert hashlib.sha256(raw).hexdigest() == meta["sha256"]
    model, extra = checkpoint.load(os.path.join(data, "copy-btree.insr"))
    path = str(tmp_path / "again.insr")
    checkpoint.save(path, model, extra=extra)
    assert open(path, "rb").read() == raw


def test_write_rejects_a_dtype_it_cannot_store(tmp_path):
    path = str(tmp_path / "m.insr")
    with pytest.raises(ValueError, match="float16"):
        checkpoint.write(path, {}, {"w": np.zeros(3, dtype=np.float16)})
    assert not os.path.exists(path)


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.insr"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(checkpoint.CheckpointError, match="magic"):
        checkpoint.load(str(path))


def test_rejects_unknown_version(tmp_path):
    path = str(tmp_path / "m.insr")
    checkpoint.save(path, small_model())
    raw = bytearray(open(path, "rb").read())
    struct.pack_into("<I", raw, 4, 99)
    open(path, "wb").write(bytes(raw))
    with pytest.raises(checkpoint.CheckpointError, match="version"):
        checkpoint.load(path)


def test_no_temp_file_left_behind(tmp_path):
    path = str(tmp_path / "m.insr")
    checkpoint.save(path, small_model())
    assert [f.name for f in tmp_path.iterdir()] == ["m.insr"]
