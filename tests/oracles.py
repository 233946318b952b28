"""Independent oracles for decoding tests: hand-scripted policies and a subsequence check.

The policies bypass the neural model entirely: they expose the same
encode/log_probs surface the decoder consumes, but place their probability
mass by rule. They verify that the decode loop reproduces known insertion
schedules independently of training.
"""

from __future__ import annotations

import numpy as np

from insgen.canvas import TokenSeq
from insgen.vocab import EOS, EOSLOT, NUM_RESERVED

LOW = -30.0
HIGH = -0.5


def is_subsequence(candidate: TokenSeq, reference: TokenSeq) -> bool:
    """True iff candidate can be obtained by deleting tokens from reference."""
    it = iter(reference)
    return all(tok in it for tok in candidate)


class ScriptedPolicy:
    """Maps each canvas (by token tuple) to explicit high-probability actions.

    Unscripted canvases fall back to end-of-sequence at the rightmost slot.
    """

    def __init__(self, script: dict[TokenSeq, list[tuple[int, int]]], vocab_size: int):
        self.script = dict(script)
        self.vocab_size = vocab_size

    def encode(self, x: TokenSeq):
        return None

    def log_probs(self, memory, canvas: TokenSeq) -> np.ndarray:
        logp = np.full((len(canvas) + 1, self.vocab_size), LOW)
        actions = self.script.get(canvas)
        if actions is None:
            logp[len(canvas), EOS] = HIGH
        else:
            for content, location in actions:
                logp[location, content] = HIGH
        return logp


class Gusher:
    """Never stops: inserts the first content token at slot 0 and ends every other slot."""

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size

    def encode(self, x: TokenSeq):
        return None

    def log_probs(self, memory, canvas: TokenSeq) -> np.ndarray:
        logp = np.full((len(canvas) + 1, self.vocab_size), LOW)
        logp[0, NUM_RESERVED] = HIGH
        logp[1:, EOSLOT] = HIGH
        return logp


class BalancedTreePolicy:
    """Insert the center token of every missing span of a fixed target.

    Even-length spans resolve to the right of the two centermost tokens.
    On each slot with an empty span the policy predicts end-of-slot, so
    parallel decoding of a length-n target takes floor(log2 n) + 1
    insertion iterations exactly. Canvases along the parallel schedule are
    aligned to the target precisely (even with repeated tokens); any other
    canvas falls back to leftmost subsequence matching.
    """

    def __init__(self, target: TokenSeq, vocab_size: int):
        self.target = tuple(target)
        self.vocab_size = vocab_size
        self._schedule: dict[TokenSeq, tuple[int, ...]] = {}
        kept: tuple[int, ...] = ()
        while True:
            tokens = tuple(self.target[i] for i in kept)
            self._schedule.setdefault(tokens, kept)
            if len(kept) == len(self.target):
                break
            kept = tuple(sorted(set(kept) | set(self._span_centers(kept))))

    def _span_centers(self, kept: tuple[int, ...]) -> list[int]:
        bounds = (-1,) + kept + (len(self.target),)
        centers = []
        for first, nxt in zip(bounds, bounds[1:]):
            if nxt - first > 1:
                centers.append((first + 1 + nxt - 1 + 1) // 2)
        return centers

    def encode(self, x: TokenSeq):
        return None

    def log_probs(self, memory, canvas: TokenSeq) -> np.ndarray:
        logp = np.full((len(canvas) + 1, self.vocab_size), LOW)
        if not is_subsequence(canvas, self.target):
            logp[:, EOSLOT] = HIGH
            return logp
        kept = self._schedule.get(canvas)
        if kept is None:
            kept = self._align(canvas)
        bounds = (-1,) + tuple(kept) + (len(self.target),)
        for slot in range(len(canvas) + 1):
            first, last = bounds[slot] + 1, bounds[slot + 1] - 1
            if last < first:
                logp[slot, EOSLOT] = HIGH
            else:
                center = (first + last + 1) // 2
                logp[slot, self.target[center]] = HIGH
        return logp

    def _align(self, tokens: TokenSeq) -> tuple[int, ...]:
        kept = []
        j = 0
        for tok in tokens:
            while self.target[j] != tok:
                j += 1
            kept.append(j)
            j += 1
        return tuple(kept)
