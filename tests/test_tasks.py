"""Task generators, corpus files, and metric correctness."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insgen.tasks import (
    CorpusFormatError,
    TaskSpec,
    corpus_bleu,
    edit_distance,
    generate_pair,
    load_corpus,
    pair_at,
    save_corpus,
)
from insgen.vocab import NUM_RESERVED, UNK, Vocab, build_vocab, content_vocab


def test_vocab_reserved_ids_lowest():
    v = content_vocab(4)
    assert v.tokens[:6] == ("<pad>", "<eos>", "<eoslot>", "<left>", "<right>", "<unk>")
    assert v.id_of("w0") == NUM_RESERVED
    assert v.token_of(NUM_RESERVED + 3) == "w3"
    assert len(v) == NUM_RESERVED + 4


def test_vocab_rejects_duplicates_and_unknowns():
    with pytest.raises(ValueError):
        Vocab(tokens=("<pad>",))
    v = content_vocab(2)
    with pytest.raises(KeyError):
        v.id_of("nope")
    assert v.id_of("nope", allow_unk=True) == UNK


def test_generate_pair_copy_reverse_sort():
    rng = np.random.default_rng(0)
    spec = TaskSpec(kind="copy", content_vocab_size=8, min_length=3, max_length=3)
    x, y = generate_pair(spec, rng)
    assert y == x
    spec = TaskSpec(kind="reverse", content_vocab_size=8, min_length=3, max_length=3)
    x, y = generate_pair(spec, rng)
    assert y == x[::-1]
    spec = TaskSpec(kind="sort", content_vocab_size=8, min_length=4, max_length=4)
    x, y = generate_pair(spec, rng)
    assert y == tuple(sorted(x))


def test_generate_pair_deterministic_by_index():
    spec = TaskSpec(kind="toy_translation", seed=9)
    assert pair_at(spec, 17) == pair_at(spec, 17)
    assert pair_at(spec, 17) != pair_at(spec, 18)


def test_toy_translation_is_function_of_source():
    # same source must always map to the same target, or accuracy is capped
    spec = TaskSpec(kind="toy_translation", content_vocab_size=4, min_length=2, max_length=6, seed=3)
    seen: dict[tuple, tuple] = {}
    rng = np.random.default_rng(1)
    for _ in range(2000):
        x, y = generate_pair(spec, rng)
        assert len(y) == len(x)
        if x in seen:
            assert seen[x] == y
        seen[x] = y


def test_toy_translation_substitution_bijective_and_swaps_occur():
    spec = TaskSpec(kind="toy_translation", content_vocab_size=16, seed=4, swap_probability=0.5)
    table = spec.substitution()
    content = table[NUM_RESERVED:]
    assert sorted(content.tolist()) == list(range(NUM_RESERVED, NUM_RESERVED + 16))
    # with swap probability 0 the target is the plain substitution
    nospec = TaskSpec(kind="toy_translation", content_vocab_size=16, seed=4, swap_probability=0.0)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x, y = generate_pair(nospec, rng)
        assert y == tuple(table[list(x)].tolist())
    # with swap probability 1 every adjacent pair swaps (non-overlapping scan)
    allspec = TaskSpec(kind="toy_translation", content_vocab_size=16, seed=4, swap_probability=1.0)
    x, y = generate_pair(allspec, np.random.default_rng(3))
    subst = tuple(table[list(x)].tolist())
    rebuilt = list(subst)
    i = 0
    while i < len(rebuilt) - 1:
        rebuilt[i], rebuilt[i + 1] = rebuilt[i + 1], rebuilt[i]
        i += 2
    assert y == tuple(rebuilt)


def test_toy_translation_swap_rate_near_probability():
    spec = TaskSpec(
        kind="toy_translation", content_vocab_size=32, min_length=16, max_length=16,
        seed=5, swap_probability=0.1,
    )
    rng = np.random.default_rng(11)
    table = spec.substitution()
    changed = total = 0
    for _ in range(400):
        x, y = generate_pair(spec, rng)
        subst = tuple(table[list(x)].tolist())
        changed += sum(a != b for a, b in zip(subst, y))
        total += len(y)
    rate = changed / total
    assert 0.05 < rate < 0.35  # two positions move per swap


def test_corpus_round_trip(tmp_path):
    vocab = content_vocab(6)
    dataset = [
        ((NUM_RESERVED, NUM_RESERVED + 1), (NUM_RESERVED + 2,)),
        ((NUM_RESERVED + 3,), (NUM_RESERVED + 3, NUM_RESERVED)),
        ((NUM_RESERVED + 3,), (NUM_RESERVED + 3, NUM_RESERVED)),  # duplicate preserved
    ]
    path = str(tmp_path / "corpus.tsv")
    save_corpus(path, dataset, vocab)
    loaded, loaded_vocab = load_corpus(path, vocab)
    assert loaded == dataset
    assert loaded_vocab is vocab


def test_load_corpus_parses_tokens(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("a b\tc d\n")
    dataset, vocab = load_corpus(str(path))
    assert vocab.tokens[NUM_RESERVED:] == ("a", "b", "c", "d")
    assert dataset == [((vocab.id_of("a"), vocab.id_of("b")), (vocab.id_of("c"), vocab.id_of("d")))]


def test_load_corpus_frozen_vocab_maps_unknowns(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("w0 zzz\tw1\n")
    dataset, _ = load_corpus(str(path), content_vocab(4))
    assert dataset[0][0] == (NUM_RESERVED, UNK)


def test_load_corpus_errors(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a b c\n")
    with pytest.raises(CorpusFormatError, match=":1:"):
        load_corpus(str(bad))
    bad2 = tmp_path / "bad2.tsv"
    bad2.write_text("a\tb\nnope\n")
    with pytest.raises(CorpusFormatError, match=":2:"):
        load_corpus(str(bad2))
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    with pytest.raises(CorpusFormatError, match="empty"):
        load_corpus(str(empty))


def test_edit_distance_cases():
    assert edit_distance((1, 2, 3), (1, 2, 3)) == 0
    assert edit_distance((), (1, 2)) == 2
    assert edit_distance((1, 2, 3), (1, 3)) == 1
    assert edit_distance((1, 2), (2, 1)) == 2
    assert edit_distance((1, 2, 3), (4, 5, 6)) == 3


def _reference_bleu(hyps, refs, max_n=4):
    """Independent BLEU oracle: textbook formula with exact Fraction precisions."""
    from collections import Counter

    precisions = []
    for n in range(1, max_n + 1):
        match = 0
        total = 0
        for hyp, ref in zip(hyps, refs):
            hgrams = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
            rgrams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            match += sum(min(c, rgrams[g]) for g, c in hgrams.items())
            total += max(len(hyp) - n + 1, 0)
        if total == 0 or match == 0:
            return 0.0
        precisions.append(Fraction(match, total))
    c = sum(len(h) for h in hyps)
    r = sum(len(x) for x in refs)
    bp = 1.0 if c >= r else math.exp(1 - r / c)
    geo = math.exp(sum(math.log(float(p)) for p in precisions) / max_n)
    return 100.0 * bp * geo


# frozen fixture: three sentence pairs with partial overlap
BLEU_FIXTURE_HYPS = [
    (1, 2, 3, 4, 5),
    (6, 7, 8, 9),
    (1, 1, 2, 2, 3, 10),
]
BLEU_FIXTURE_REFS = [
    (1, 2, 3, 4, 6),
    (6, 7, 8, 9),
    (1, 1, 2, 3, 10, 11),
]
# value computed once with _reference_bleu and frozen:
# p1=13/15, p2=10/12, p3=6/9, p4=2/6, c=r=15 so BP=1
BLEU_FIXTURE_VALUE = 63.29430


def test_corpus_bleu_matches_independent_oracle():
    oracle = _reference_bleu(BLEU_FIXTURE_HYPS, BLEU_FIXTURE_REFS)
    assert abs(oracle - BLEU_FIXTURE_VALUE) < 1e-3  # the frozen value is the oracle's
    got = corpus_bleu(BLEU_FIXTURE_HYPS, BLEU_FIXTURE_REFS)
    assert abs(got - BLEU_FIXTURE_VALUE) < 0.1


def test_corpus_bleu_identity_is_100():
    corpus = [(1, 2, 3, 4), (5, 6, 7, 8, 9)]
    assert corpus_bleu(corpus, corpus) == pytest.approx(100.0)


def test_corpus_bleu_no_overlap_is_zero_unsmoothed():
    hyps = [(1, 2, 3, 4, 5)]
    refs = [(6, 7, 8, 9, 10)]
    assert corpus_bleu(hyps, refs) == 0.0
    # zero 4-gram matches (but some unigrams) -> still exactly 0 without smoothing
    hyps2 = [(1, 9, 2, 9, 3)]
    refs2 = [(1, 2, 3, 4, 5)]
    assert corpus_bleu(hyps2, refs2) == 0.0


def test_corpus_bleu_empty_hypotheses_zero():
    assert corpus_bleu([(), ()], [(1, 2), (3,)]) == 0.0


def test_corpus_bleu_errors():
    with pytest.raises(ValueError):
        corpus_bleu([], [])
    with pytest.raises(ValueError):
        corpus_bleu([(1,)], [(1,), (2,)])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_corpus_bleu_permutation_invariant_and_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    hyps, refs = [], []
    for _ in range(4):
        n = int(rng.integers(1, 10))
        hyps.append(tuple(rng.integers(0, 5, size=n).tolist()))
        refs.append(tuple(rng.integers(0, 5, size=int(rng.integers(1, 10))).tolist()))
    base = corpus_bleu(hyps, refs)
    assert abs(base - _reference_bleu(hyps, refs)) < 0.1
    perm = rng.permutation(len(hyps))
    shuffled = corpus_bleu([hyps[i] for i in perm], [refs[i] for i in perm])
    assert abs(base - shuffled) < 1e-9
