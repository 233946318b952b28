"""Synthetic tasks, corpus files, and evaluation metrics.

Desk-scale stand-ins for a real translation corpus: copy, reverse, sort,
and a toy translation task (bijective token substitution plus local
reordering of adjacent pairs, gated by a content hash so the mapping stays
a learnable function of the source). Each pair is a pure function of the
task spec and its index, like a line number in a corpus, so a split is
generated on demand: a pair is built the first time it is read and kept by
its split, and a run never builds a pair it does not read. Evaluation
decodes every pair and reports sequence accuracy, token edit distance,
corpus BLEU, and the iteration-versus-length table used to check the
logarithmic decoding bound.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .canvas import TokenSeq
from .decoding import DecodeConfig, decode, iteration_lower_bound
from .vocab import NUM_RESERVED, Vocab, content_vocab

KINDS = ("copy", "reverse", "sort", "toy_translation")


@dataclass
class TaskSpec:
    kind: str = "copy"
    content_vocab_size: int = 32
    min_length: int = 1
    max_length: int = 32
    swap_probability: float = 0.1  # toy_translation only
    seed: int = 0
    num_train: int = 10_000
    num_dev: int = 1_000

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.min_length < 1 or self.max_length < self.min_length:
            raise ValueError("need 1 <= min_length <= max_length")
        if not 0.0 <= self.swap_probability <= 1.0:
            raise ValueError("swap_probability must be in [0, 1]")
        if self.content_vocab_size < 1:
            raise ValueError("content_vocab_size must be >= 1")
        if self.num_train < 0 or self.num_dev < 0:
            raise ValueError("num_train and num_dev must be >= 0")
        if self.seed < 0:  # numpy's seeding takes nonnegative integers; the config's type check takes the rest
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")

    def vocab(self) -> Vocab:
        return content_vocab(self.content_vocab_size)

    def substitution(self) -> np.ndarray:
        """Seeded bijection over content token ids (toy_translation)."""
        rng = np.random.default_rng([self.seed, 0xBEEF])
        perm = rng.permutation(self.content_vocab_size)
        table = np.arange(NUM_RESERVED + self.content_vocab_size)
        table[NUM_RESERVED:] = perm + NUM_RESERVED
        return table


@lru_cache(maxsize=65536)
def _swap_gate(seed: int, a: int, b: int) -> float:
    """Deterministic pseudo-uniform value in [0, 1) for an adjacent token pair."""
    return float(np.random.default_rng([seed, 0x51A9, a, b]).random())


def _apply_local_swaps(tokens: list[int], spec: TaskSpec) -> list[int]:
    out = list(tokens)
    i = 0
    while i < len(out) - 1:
        if _swap_gate(spec.seed, out[i], out[i + 1]) < spec.swap_probability:
            out[i], out[i + 1] = out[i + 1], out[i]
            i += 2  # swapped pair is settled; don't cascade
        else:
            i += 1
    return out


def generate_pair(spec: TaskSpec, rng: np.random.Generator) -> tuple[TokenSeq, TokenSeq]:
    """One (source, target) pair; the target is a pure function of the source."""
    n = int(rng.integers(spec.min_length, spec.max_length + 1))
    lo = NUM_RESERVED
    x = rng.integers(lo, lo + spec.content_vocab_size, size=n).tolist()
    if spec.kind == "copy":
        y = list(x)
    elif spec.kind == "reverse":
        y = x[::-1]
    elif spec.kind == "sort":
        y = sorted(x)
    else:  # toy_translation
        y = _apply_local_swaps(spec.substitution()[x].tolist(), spec)
    return tuple(x), tuple(y)


def pair_at(spec: TaskSpec, index: int) -> tuple[TokenSeq, TokenSeq]:
    """The index-th pair; deterministic given (spec, seed, index)."""
    return generate_pair(spec, np.random.default_rng([spec.seed, 1, index]))


Dataset = Sequence[tuple[TokenSeq, TokenSeq]]


class Split(Sequence):
    """Pairs `start`, `start + 1`, ... of a task, each built on first access and kept.

    Indexing, slicing, iteration and len behave as on the list of the same
    pairs; a slice is a list. The split holds its own copy of the spec.
    """

    def __init__(self, spec: TaskSpec, start: int, length: int):
        self.spec = dataclasses.replace(spec)
        self.start = start
        self._pairs: list[tuple[TokenSeq, TokenSeq] | None] = [None] * length

    def __len__(self) -> int:
        return len(self._pairs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._pairs)))]
        pair = self._pairs[index]  # raises IndexError past either end
        if pair is None:
            if index < 0:
                index += len(self._pairs)
            pair = self._pairs[index] = pair_at(self.spec, self.start + index)
        return pair


def generate_datasets(spec: TaskSpec) -> tuple[Dataset, Dataset]:
    """Train and dev splits, generated on demand; dev indices continue after train indices."""
    return Split(spec, 0, spec.num_train), Split(spec, spec.num_train, spec.num_dev)


# -- corpus files ------------------------------------------------------------


class CorpusFormatError(ValueError):
    pass


def save_corpus(path: str, dataset: Dataset, vocab: Vocab) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for x, y in dataset:
            f.write(f"{vocab.decode(x)}\t{vocab.decode(y)}\n")


def load_corpus(path: str, vocab: Vocab) -> Dataset:
    """Read tab-separated token pairs, one per line, with a frozen vocab.

    Tokens the vocab does not hold map to the reserved unknown id.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError as e:
        raise CorpusFormatError(f"{path}: not UTF-8 text ({e})") from None
    if not lines:
        raise CorpusFormatError(f"{path}: empty corpus")
    dataset = []
    for num, line in enumerate(lines, start=1):
        sides = line.split("\t")
        if len(sides) != 2:
            raise CorpusFormatError(f"{path}:{num}: expected one tab separating source and target")
        dataset.append(tuple(tuple(vocab.id_of(t, allow_unk=True) for t in side.split()) for side in sides))
    return dataset


# -- metrics -----------------------------------------------------------------


def edit_distance(a: TokenSeq, b: TokenSeq) -> int:
    """Token-level Levenshtein distance, by Myers' bit-parallel algorithm.

    Myers (J. ACM 46(3), 1999), in Hyyrö's form for the global distance:
    one column of the dynamic-programming table over the shorter sequence
    is held as bit-vectors of its vertical deltas (+1 in `pv`, -1 in `mv`),
    and each token of the longer sequence advances the whole column with a
    few word operations. The vectors are Python ints, so any length fits;
    masking `pv` to the column keeps them from growing.
    """
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    peq: dict[int, int] = {}  # token -> the rows of b that hold it
    for i, t in enumerate(b):
        peq[t] = peq.get(t, 0) | 1 << i
    mask, last = (1 << m) - 1, 1 << (m - 1)
    pv, mv, dist = mask, 0, m
    for t in a:
        eq = peq.get(t, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = ph << 1 | 1  # row 0 of the table steps by +1 along a
        pv = (mh << 1 | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


def _ngram_counts(seq: TokenSeq, n: int) -> dict[tuple, int]:
    counts: dict[tuple, int] = {}
    for i in range(len(seq) - n + 1):
        g = tuple(seq[i : i + n])
        counts[g] = counts.get(g, 0) + 1
    return counts


def corpus_bleu(hyps: list[TokenSeq], refs: list[TokenSeq]) -> float:
    """Corpus-level BLEU-4 in [0, 100]: clipped n-gram precision, brevity penalty.

    Unsmoothed: exactly 0 when any order has no match.
    """
    max_n = 4
    if len(hyps) != len(refs):
        raise ValueError(f"corpus size mismatch: {len(hyps)} hyps vs {len(refs)} refs")
    if not refs:
        raise ValueError("empty corpus")
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hc = _ngram_counts(hyp, n)
            rc = _ngram_counts(ref, n)
            totals[n - 1] += max(len(hyp) - n + 1, 0)
            matches[n - 1] += sum(min(c, rc.get(g, 0)) for g, c in hc.items())
    if hyp_len == 0:
        return 0.0
    log_prec = 0.0
    for m, t in zip(matches, totals):
        if m == 0 or t == 0:
            return 0.0
        log_prec += math.log(m / t) / max_n
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_prec)


# -- evaluation --------------------------------------------------------------


@dataclass
class IterationRow:
    length: int
    iterations: int
    lower_bound: int
    upper_bound: int


def format_or_na(value: float, spec: str) -> str:
    """`value` formatted by `spec`, or n/a for NaN (a mean over no finished decode)."""
    return "n/a" if math.isnan(value) else format(value, spec)


@dataclass
class EvalReport:
    num_items: int
    sequence_accuracy: float
    mean_edit_distance: float
    bleu: float
    mean_insertion_iterations: float  # over the decodes that finished; NaN when all were truncated
    median_insertion_iterations: float
    truncated: int
    rows: list[IterationRow] = field(default_factory=list)
    mean_output_length: float = 0.0

    def render(self) -> str:
        lines = [
            f"items\t{self.num_items}",
            f"sequence_accuracy\t{self.sequence_accuracy:.6f}",
            f"mean_edit_distance\t{self.mean_edit_distance:.6f}",
            f"corpus_bleu\t{self.bleu:.4f}",
            f"mean_insertion_iterations\t{format_or_na(self.mean_insertion_iterations, '.4f')}",
            f"median_insertion_iterations\t{format_or_na(self.median_insertion_iterations, '.1f')}",
            f"mean_output_length\t{self.mean_output_length:.4f}",
            f"truncated\t{self.truncated}",
        ]
        return "\n".join(lines) + "\n"

    def iteration_table(self) -> str:
        lines = ["length\titerations\tlower_bound\tupper_bound"]
        for r in self.rows:
            lines.append(f"{r.length}\t{r.iterations}\t{r.lower_bound}\t{r.upper_bound}")
        return "\n".join(lines) + "\n"


def evaluate(policy, dataset: Dataset, config: DecodeConfig) -> EvalReport:
    """Decode every pair and aggregate metrics plus the iteration table; an empty dataset raises ValueError."""
    if not dataset:
        raise ValueError("empty dataset")
    hyps: list[TokenSeq] = []
    exact = 0
    dists = []
    iteration_counts = []
    rows: list[IterationRow] = []
    truncated = 0
    for x, y in dataset:
        out, trace = decode(policy, x, config)
        hyps.append(out)
        exact += out == y
        dists.append(edit_distance(out, y))
        if trace.truncated:
            truncated += 1
        else:
            iteration_counts.append(trace.insertion_iterations)
            n = len(out)
            if n >= 1:
                rows.append(
                    IterationRow(
                        length=n,
                        iterations=trace.insertion_iterations,
                        lower_bound=iteration_lower_bound(n),
                        upper_bound=n,
                    )
                )
    refs = [y for _, y in dataset]
    return EvalReport(
        num_items=len(dataset),
        sequence_accuracy=exact / len(dataset),
        mean_edit_distance=float(np.mean(dists)),
        bleu=corpus_bleu(hyps, refs),
        mean_insertion_iterations=float(np.mean(iteration_counts)) if iteration_counts else math.nan,
        median_insertion_iterations=float(statistics.median(iteration_counts)) if iteration_counts else math.nan,
        truncated=truncated,
        rows=rows,
        mean_output_length=float(np.mean([len(h) for h in hyps])),
    )
