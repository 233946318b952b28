"""Canvas mechanics for insertion-based generation.

A canvas is the current partial output: an immutable token sequence with
T+1 insertion slots (l = 0 .. T). Tokens are only ever inserted, never
reordered or deleted, so every intermediate canvas is a subsequence of the
final output. Training samples a random subsequence of the target and
assigns each slot the contiguous span of target tokens still missing there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TokenSeq = tuple[int, ...]


@dataclass(frozen=True)
class Canvas:
    """Immutable partial output; insertion ops return new canvases."""

    tokens: TokenSeq = ()

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class InsertionAction:
    """Insert `content` into slot `location` of the current canvas."""

    content: int
    location: int


@dataclass(frozen=True)
class CanvasSample:
    """A random subsequence of a target y: the kept indices and the canvas they induce."""

    kept_indices: tuple[int, ...]
    canvas: Canvas


@dataclass(frozen=True)
class SlotSpan:
    """Contiguous run of missing target indices owned by one slot.

    Inclusive bounds; empty spans are encoded as last == first - 1.
    """

    first: int
    last: int

    def __len__(self) -> int:
        return max(0, self.last - self.first + 1)

    @property
    def empty(self) -> bool:
        return self.last < self.first


def apply_insertion(canvas: Canvas, action: InsertionAction) -> Canvas:
    """Insert one token, producing a canvas of length T+1."""
    T = len(canvas)
    if not 0 <= action.location <= T:
        raise ValueError(f"insertion location {action.location} outside [0, {T}]")
    toks = canvas.tokens
    return Canvas(toks[: action.location] + (action.content,) + toks[action.location :])


def apply_parallel_insertions(canvas: Canvas, actions: list[InsertionAction]) -> Canvas:
    """Apply simultaneous insertions, at most one per slot.

    Locations refer to the pre-insertion canvas; the result equals applying
    the actions serially in descending location order.
    """
    T = len(canvas)
    locations = [a.location for a in actions]
    if len(set(locations)) != len(locations):
        raise ValueError(f"duplicate insertion locations: {sorted(locations)}")
    for a in actions:
        if not 0 <= a.location <= T:
            raise ValueError(f"insertion location {a.location} outside [0, {T}]")
    result = canvas
    for a in sorted(actions, key=lambda a: a.location, reverse=True):
        result = apply_insertion(result, a)
    return result


def sample_subsequence(y: TokenSeq, rng: np.random.Generator) -> CanvasSample:
    """Draw a random subsequence of y, uniform over lengths.

    First k ~ Uniform{0..|y|}, then a uniform k-subset of positions via
    shuffling the index list and keeping the first k in target order.
    """
    n = len(y)
    k = int(rng.integers(0, n + 1))
    kept = tuple(sorted(rng.permutation(n)[:k].tolist()))
    return CanvasSample(kept_indices=kept, canvas=Canvas(tuple(y[i] for i in kept)))


def slot_spans(y: TokenSeq, sample: CanvasSample) -> list[SlotSpan]:
    """The k+1 spans of missing target indices, one per slot of the sampled canvas.

    Slot l owns the indices strictly between kept index l-1 and kept index l
    (virtual boundaries at -1 and |y|); the spans partition the complement
    of the kept set.
    """
    n = len(y)
    kept = sample.kept_indices
    if len(kept) != len(sample.canvas):
        raise ValueError("sample kept_indices and canvas length disagree")
    for pos, i in enumerate(kept):
        if not 0 <= i < n or sample.canvas.tokens[pos] != y[i]:
            raise ValueError("sample is not a subsequence view of y")
    bounds = (-1,) + kept + (n,)
    return [SlotSpan(bounds[l] + 1, bounds[l + 1] - 1) for l in range(len(kept) + 1)]


def splice(sample: CanvasSample, y: TokenSeq) -> TokenSeq:
    """Rebuild y by splicing each slot's missing span back into the canvas."""
    spans = slot_spans(y, sample)
    out: list[int] = []
    for l, span in enumerate(spans):
        out.extend(y[span.first : span.last + 1])
        if l < len(sample.canvas):
            out.append(sample.canvas.tokens[l])
    return tuple(out)

