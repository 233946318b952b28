"""Canvas mechanics: insertion application, subsequence sampling, slot spans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insgen.canvas import apply_insertion, apply_parallel_insertions, sample_subsequence, slot_spans
from oracles import is_subsequence

# readable ids for the worked examples
ATE, TOGETHER, FRIENDS, THREE, LUNCH = 10, 11, 12, 13, 14
A, B, C, D, E, F, G = range(20, 27)


def test_apply_insertion_between_tokens():
    assert apply_insertion((B, D), (C, 1)) == (B, C, D)


def test_apply_insertion_into_empty_canvas():
    assert apply_insertion((), (ATE, 0)) == (ATE,)


def test_apply_insertion_append_chain():
    c = apply_insertion((A,), (B, 1))
    c = apply_insertion(c, (C, 2))
    assert c == (A, B, C)


def test_apply_insertion_rejects_out_of_range():
    with pytest.raises(ValueError):
        apply_insertion((A,), (B, 2))
    with pytest.raises(ValueError):
        apply_insertion((), (B, -1))


def test_parallel_insertions_first_parallel_row():
    out = apply_parallel_insertions((ATE,), [(FRIENDS, 0), (TOGETHER, 1)])
    assert out == (FRIENDS, ATE, TOGETHER)


def test_parallel_insertions_second_parallel_row():
    out = apply_parallel_insertions((FRIENDS, ATE, TOGETHER), [(THREE, 0), (LUNCH, 2)])
    assert out == (THREE, FRIENDS, ATE, LUNCH, TOGETHER)


def test_parallel_insertions_empty_action_set():
    assert apply_parallel_insertions((A, B), []) == (A, B)


def test_parallel_insertions_rejects_duplicates_and_range():
    with pytest.raises(ValueError, match="duplicate"):
        apply_parallel_insertions((A,), [(B, 0), (C, 0)])
    with pytest.raises(ValueError):
        apply_parallel_insertions((A,), [(B, 5)])


@given(st.lists(st.integers(0, 9), max_size=8), st.integers(0, 9), st.data())
def test_parallel_singleton_equals_serial(tokens, content, data):
    canvas = tuple(tokens)
    action = (content, data.draw(st.integers(0, len(tokens))))
    assert apply_parallel_insertions(canvas, [action]) == apply_insertion(canvas, action)


@given(st.data())
def test_parallel_matches_descending_serial(data):
    canvas = tuple(data.draw(st.lists(st.integers(0, 9), max_size=6)))
    locs = data.draw(
        st.lists(st.integers(0, len(canvas)), max_size=len(canvas) + 1, unique=True)
    )
    actions = [(data.draw(st.integers(0, 9)), l) for l in locs]
    expected = canvas
    for a in sorted(actions, key=lambda a: a[1], reverse=True):
        expected = apply_insertion(expected, a)
    got = apply_parallel_insertions(canvas, actions)
    assert got == expected
    assert len(got) == len(canvas) + len(actions)


def test_sample_subsequence_length_uniform():
    rng = np.random.default_rng(1234)
    y = (1, 2, 3, 4)
    counts = np.zeros(5, dtype=int)
    draws = 100_000
    for _ in range(draws):
        counts[len(sample_subsequence(y, rng))] += 1
    freqs = counts / draws
    np.testing.assert_allclose(freqs, 0.2, atol=0.01)
    # chi-squared against uniform; critical value for df=4 at alpha=1e-3 is 18.47
    chi2 = float(((counts - draws / 5) ** 2 / (draws / 5)).sum())
    assert chi2 < 18.47


def test_sample_subsequence_edges():
    rng = np.random.default_rng(0)
    y = (5, 6, 7)
    seen_empty = seen_full = False
    for _ in range(200):
        kept = sample_subsequence(y, rng)
        if len(kept) == 0:
            seen_empty = True
            assert kept == ()
        if len(kept) == len(y):
            seen_full = True
            assert kept == (0, 1, 2)
            assert not any(slot_spans(y, kept))
    assert seen_empty and seen_full


def test_slot_spans_paper_tree_seed():
    # y = [A..G] with only D kept: D splits y into [A,B,C] and [E,F,G]
    y = (A, B, C, D, E, F, G)
    assert slot_spans(y, (3,)) == [range(0, 3), range(4, 7)]


def test_slot_spans_all_kept_and_none_kept():
    y = (1, 2, 3)
    assert not any(slot_spans(y, (0, 1, 2)))
    assert slot_spans(y, ()) == [range(0, 3)]


def test_slot_spans_rejects_bad_kept_indices():
    # out of range, repeated, or out of order
    for kept in [(3,), (-1,), (1, 1), (2, 1), (0, 1, 2, 3)]:
        with pytest.raises(ValueError):
            slot_spans((1, 2, 3), kept)


@settings(max_examples=200)
@given(st.lists(st.integers(0, 5), max_size=12), st.integers(0, 2**31 - 1))
def test_slot_spans_partition_the_missing_indices(tokens, seed):
    y = tuple(tokens)
    kept = sample_subsequence(y, np.random.default_rng(seed))
    spans = slot_spans(y, kept)
    assert len(spans) == len(kept) + 1
    # spliced back between the kept indices, the spans give every index of y once, in order
    spliced = [i for l, span in enumerate(spans) for i in (*span, *kept[l : l + 1])]
    assert spliced == list(range(len(y)))


def test_is_subsequence_paper_examples():
    ref = (A, B, C, D, E)
    assert is_subsequence((B, D), ref)
    assert not is_subsequence((B, A), ref)
    assert is_subsequence((), ref)
    assert is_subsequence((), ())


@given(st.lists(st.integers(0, 4), max_size=10), st.data())
def test_is_subsequence_accepts_any_deletion(tokens, data):
    ref = tuple(tokens)
    kept = data.draw(st.lists(st.integers(0, max(len(ref) - 1, 0)), unique=True, max_size=len(ref)))
    cand = tuple(ref[i] for i in sorted(kept)) if ref else ()
    assert is_subsequence(cand, ref)


def test_is_subsequence_rejects_longer_candidate():
    assert not is_subsequence((1, 1), (1,))
