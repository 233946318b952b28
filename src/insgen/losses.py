"""Training objective: slot targets and the one weighted-NLL loss.

Every generation order trains on the same quantity: a weighted negative
log-likelihood of the joint log p(content, location) (the factorized head
supplies log p(l) + log p(c|l)) over the tokens of each slot's missing
span. The orders differ only in their targets:

  * binary_tree   -- weight each span token by softmax(-d / tau) of its
    distance d from the span center; low temperature concentrates on it.
  * uniform       -- the tau -> infinity limit: equal weights 1/len(span).
  * left_to_right -- one target, the next token at the rightmost slot of
    a sampled prefix (end-of-sequence once the prefix is complete).

Termination supervision comes in two regimes: slot finalization turns
every empty span into an end-of-slot target; sequence finalization drops
empty spans, except that a fully complete canvas targets end-of-sequence
at every location.

A slot target is a plain `(location, tokens, weights)` tuple: the builders
resolve its tokens (the span's target tokens, end-of-slot or
end-of-sequence) once, so the loss reads them without the output sequence.

`weighted_nll` evaluates the loss of a whole batch as one gather: the mean
over items of the mean over each item's slot losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .canvas import TokenSeq, slot_spans
from .vocab import EOS, EOSLOT

ORDERS = ("left_to_right", "binary_tree", "uniform")
TERMINATIONS = ("slot", "sequence")


@dataclass
class LossConfig:
    order: str = "binary_tree"
    temperature: float = 1.0
    termination: str = "slot"

    def __post_init__(self):
        if self.order not in ORDERS:
            raise ValueError(f"unknown order {self.order!r}")
        if self.termination not in TERMINATIONS:
            raise ValueError(f"unknown termination {self.termination!r}")
        if self.order == "left_to_right" and self.termination != "sequence":
            raise ValueError("left_to_right training requires sequence finalization")
        if self.order == "binary_tree" and not self.temperature > 0:
            raise ValueError("binary tree temperature must be positive")


SlotTarget = tuple[int, TokenSeq, tuple[float, ...]]  # (location, tokens, weights)


@lru_cache(maxsize=4096)
def span_weights(n: int, order: str, tau: float) -> tuple[float, ...]:
    """Target weights of any n-token span: uniform, or binary-tree softmax weights.

    A binary-tree weight is softmax(-d / tau) of the token's distance d from
    the span center: tau -> 0 concentrates on the centermost token(s), tau ->
    inf tends to uniform, and max-subtraction keeps tiny temperatures finite.
    The weights depend only on n, the order and tau, not on where the span
    starts, so each (n, order, tau) is computed once.
    """
    if n < 1:
        raise ValueError("span_weights needs a nonempty span")
    if order == "uniform":
        return tuple(np.full(n, 1.0 / n).tolist())
    if not tau > 0:
        raise ValueError("temperature must be positive")
    z = -np.abs((n - 1) / 2.0 - np.arange(n)) / tau
    z -= z.max()
    e = np.exp(z)
    return tuple((e / e.sum()).tolist())


def build_slot_targets(y: TokenSeq, kept: tuple[int, ...], config: LossConfig) -> list[SlotTarget]:
    """Per-slot supervision for the canvas that the kept indices of y induce."""
    spans = slot_spans(y, kept)
    complete = not any(spans)
    targets: list[SlotTarget] = []
    for l, span in enumerate(spans):
        if span:
            w = span_weights(len(span), config.order, config.temperature)
            targets.append((l, y[span.start : span.stop], w))
        elif config.termination == "slot":
            targets.append((l, (EOSLOT,), (1.0,)))
        elif complete:
            targets.append((l, (EOS,), (1.0,)))
    return targets


def left_to_right_targets(y: TokenSeq, k: int) -> list[SlotTarget]:
    """The single left-to-right target for prefix length k: (y_{k+1}, k), or EOS at |y|."""
    if not 0 <= k <= len(y):
        raise ValueError(f"prefix length {k} outside [0, {len(y)}]")
    return [(k, y[k : k + 1] if k < len(y) else (EOS,), (1.0,))]


def weighted_nll(logp: Tensor, targets: Sequence[list[SlotTarget]]) -> Tensor:
    """Batch loss from joint log-probs (B, C+1, V): mean over rows of their mean slot losses.

    Row b supervises `targets[b]`; each slot loss is the target-weighted
    negative log-likelihood of its tokens.
    """
    B = len(targets)
    index, weights = [], []  # one (row, location, token) per supervised token
    for b, row in enumerate(targets):
        if not row:
            raise ValueError(f"row {b} has no slot targets")
        share = 1.0 / (len(row) * B)
        for location, tokens, ws in row:
            for tok, w in zip(tokens, ws):
                index.append((b, location, tok))
                weights.append(w * share)
    picked = ad.take(logp, tuple(np.asarray(index, dtype=np.int64).T))
    return ad.neg(ad.tsum(ad.mul(picked, np.asarray(weights, dtype=logp.dtype))))
