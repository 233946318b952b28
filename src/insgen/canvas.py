"""Canvas mechanics for insertion-based generation, on plain values.

A canvas is the current partial output: a token tuple (`TokenSeq`) with
T+1 insertion slots (l = 0 .. T). An action is a `(content, location)`
pair. Tokens are only ever inserted, never reordered or deleted, so every
intermediate canvas is a subsequence of the final output. Training samples
a random subsequence of the target as its kept indices and assigns each
slot the `range` of target indices still missing there.
"""

from __future__ import annotations

import numpy as np

TokenSeq = tuple[int, ...]
Action = tuple[int, int]  # (content, location)


def apply_insertion(canvas: TokenSeq, action: Action) -> TokenSeq:
    """Insert one token, producing a canvas of length T+1."""
    content, location = action
    if not 0 <= location <= len(canvas):
        raise ValueError(f"insertion location {location} outside [0, {len(canvas)}]")
    return canvas[:location] + (content,) + canvas[location:]


def apply_parallel_insertions(canvas: TokenSeq, actions: list[Action]) -> TokenSeq:
    """Apply simultaneous insertions, at most one per slot.

    Locations refer to the pre-insertion canvas; the result equals applying
    the actions serially in descending location order. It is built in one
    pass: each stretch of the canvas between two insertion slots, then the
    token inserted at the next slot.
    """
    actions = sorted(actions, key=lambda a: a[1])
    locations = [location for _, location in actions]
    if len(set(locations)) != len(locations):
        raise ValueError(f"duplicate insertion locations: {locations}")
    for location in locations[:1] + locations[-1:]:  # sorted, so only the ends can be out of range
        if not 0 <= location <= len(canvas):
            raise ValueError(f"insertion location {location} outside [0, {len(canvas)}]")
    out: list[int] = []
    start = 0
    for content, location in actions:
        out += canvas[start:location]
        out.append(content)
        start = location
    out += canvas[start:]
    return tuple(out)


def sample_subsequence(y: TokenSeq, rng: np.random.Generator) -> tuple[int, ...]:
    """The kept indices of a random subsequence of y, uniform over lengths.

    First k ~ Uniform{0..|y|}, then a uniform k-subset of positions via
    shuffling the index list and keeping the first k in target order.
    """
    n = len(y)
    k = int(rng.integers(0, n + 1))
    return tuple(sorted(rng.permutation(n)[:k].tolist()))


def slot_spans(y: TokenSeq, kept: tuple[int, ...]) -> list[range]:
    """The missing target indices of each of the len(kept)+1 slots, as ranges.

    Slot l owns the indices strictly between kept index l-1 and kept index l
    (virtual boundaries at -1 and |y|); the ranges partition the complement
    of the kept set. `kept` must be strictly increasing indices into y.
    """
    bounds = (-1, *kept, len(y))
    if any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError(f"kept indices {kept} are not strictly increasing indices into y (length {len(y)})")
    return [range(a + 1, b) for a, b in zip(bounds, bounds[1:])]
