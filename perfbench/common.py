"""Shared pieces of the benchmark: checkout paths, the pinned checkpoint, the dev slice.

The benchmark runs from the root of a source checkout and imports `insgen`
from its `src/` directory, never from an installed copy, so it always
measures the code it was checked out with.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")  # scratch space; ignored by git
CKPT_PATH = os.path.join(BENCH_DIR, "data", "copy-btree.insr")
CKPT_META = os.path.join(BENCH_DIR, "data", "copy-btree.json")

# Each length 1..MAX_LENGTH appears equally often in the dev slice, so every
# seed decodes the same mix of lengths and only the tokens differ.
MAX_LENGTH = 32


class MissingProgram(RuntimeError):
    pass


def import_insgen():
    """Put the checkout's src/ first on sys.path and import insgen from it."""
    if not os.path.isfile(os.path.join(SRC, "insgen", "__init__.py")):
        raise MissingProgram(f"no insgen package under {SRC}")
    sys.path.insert(0, SRC)
    import insgen

    if not os.path.abspath(insgen.__file__).startswith(SRC + os.sep):
        raise MissingProgram(f"imported insgen from {insgen.__file__}, not from {SRC}")
    return insgen


def dev_slice(seed: int, per_length: int):
    """Seeded copy-task pairs: `per_length` sentences of each length 1..MAX_LENGTH."""
    from insgen import tasks

    pairs = []
    for n in range(1, MAX_LENGTH + 1):
        spec = tasks.TaskSpec(
            kind="copy", min_length=n, max_length=n, seed=seed * 1000 + n, num_train=0, num_dev=per_length
        )
        pairs.extend(tasks.generate_datasets(spec)[1])
    return pairs


def load_meta() -> dict:
    with open(CKPT_META, "r", encoding="utf-8") as f:
        return json.load(f)


def decode_config(extra: dict, mode: str, beta: float):
    """Decode settings for the pinned checkpoint: its termination regime plus mode and beta."""
    from insgen.decoding import DecodeConfig

    return DecodeConfig(mode=mode, eos_penalty=beta, termination=extra["loss"]["termination"])
