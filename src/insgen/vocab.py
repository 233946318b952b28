"""Token vocabulary with the reserved control tokens.

Reserved ids occupy the lowest indices: padding, the two terminal tokens
(end-of-sequence for sequence finalization, end-of-slot for slot
finalization), the decoder's left/right boundary markers, and the unknown
token used when applying a frozen vocab to out-of-vocabulary text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PAD = 0
EOS = 1
EOSLOT = 2
LEFT_MARK = 3
RIGHT_MARK = 4
UNK = 5

RESERVED = ("<pad>", "<eos>", "<eoslot>", "<left>", "<right>", "<unk>")
NUM_RESERVED = len(RESERVED)

TERMINAL_IDS = (EOS, EOSLOT)


@dataclass(frozen=True)
class Vocab:
    """Bijection between token strings and ids; reserved ids come first."""

    tokens: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for i, tok in enumerate(self.tokens):
            if not isinstance(tok, str):
                raise ValueError(f"vocab token {i} is {tok!r}, not a string")
        if tuple(self.tokens[:NUM_RESERVED]) != RESERVED:
            raise ValueError(f"vocab must start with the reserved tokens {RESERVED}")
        index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(index) != len(self.tokens):
            raise ValueError("duplicate token strings in vocab")
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str, allow_unk: bool = False) -> int:
        i = self._index.get(token)
        if i is None:
            if allow_unk:
                return UNK
            raise KeyError(f"token {token!r} not in vocabulary")
        return i

    def encode(self, text: str) -> tuple[int, ...]:
        return tuple(self.id_of(t) for t in text.split())

    def decode(self, ids) -> str:
        return " ".join(self.tokens[i] for i in ids)


def build_vocab(content_tokens) -> Vocab:
    """Vocab from an iterable of content-token strings (insertion order kept)."""
    seen: dict[str, None] = {}
    for t in content_tokens:
        if t not in seen:
            seen[t] = None
    return Vocab(tokens=RESERVED + tuple(seen))


def content_vocab(size: int) -> Vocab:
    """Synthetic-task vocab with `size` content tokens named w0..w{size-1}."""
    return build_vocab(f"w{i}" for i in range(size))
