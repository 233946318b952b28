"""Canvas mechanics: insertion application, subsequence sampling, slot spans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insgen.canvas import (
    Canvas,
    CanvasSample,
    InsertionAction,
    SlotSpan,
    apply_insertion,
    apply_parallel_insertions,
    sample_subsequence,
    slot_spans,
    splice,
)
from oracles import is_subsequence

# readable ids for the worked examples
ATE, TOGETHER, FRIENDS, THREE, LUNCH = 10, 11, 12, 13, 14
A, B, C, D, E, F, G = range(20, 27)


def test_apply_insertion_between_tokens():
    out = apply_insertion(Canvas((B, D)), InsertionAction(C, 1))
    assert out.tokens == (B, C, D)


def test_apply_insertion_into_empty_canvas():
    out = apply_insertion(Canvas(), InsertionAction(ATE, 0))
    assert out.tokens == (ATE,)


def test_apply_insertion_append_chain():
    c = apply_insertion(Canvas((A,)), InsertionAction(B, 1))
    c = apply_insertion(c, InsertionAction(C, 2))
    assert c.tokens == (A, B, C)


def test_apply_insertion_rejects_out_of_range():
    with pytest.raises(ValueError):
        apply_insertion(Canvas((A,)), InsertionAction(B, 2))
    with pytest.raises(ValueError):
        apply_insertion(Canvas(), InsertionAction(B, -1))


def test_parallel_insertions_first_parallel_row():
    out = apply_parallel_insertions(
        Canvas((ATE,)), [InsertionAction(FRIENDS, 0), InsertionAction(TOGETHER, 1)]
    )
    assert out.tokens == (FRIENDS, ATE, TOGETHER)


def test_parallel_insertions_second_parallel_row():
    out = apply_parallel_insertions(
        Canvas((FRIENDS, ATE, TOGETHER)),
        [InsertionAction(THREE, 0), InsertionAction(LUNCH, 2)],
    )
    assert out.tokens == (THREE, FRIENDS, ATE, LUNCH, TOGETHER)


def test_parallel_insertions_empty_action_set():
    c = Canvas((A, B))
    assert apply_parallel_insertions(c, []) == c


def test_parallel_insertions_rejects_duplicates_and_range():
    with pytest.raises(ValueError, match="duplicate"):
        apply_parallel_insertions(Canvas((A,)), [InsertionAction(B, 0), InsertionAction(C, 0)])
    with pytest.raises(ValueError):
        apply_parallel_insertions(Canvas((A,)), [InsertionAction(B, 5)])


@given(st.lists(st.integers(0, 9), max_size=8), st.integers(0, 9), st.data())
def test_parallel_singleton_equals_serial(tokens, content, data):
    canvas = Canvas(tuple(tokens))
    loc = data.draw(st.integers(0, len(tokens)))
    action = InsertionAction(content, loc)
    assert apply_parallel_insertions(canvas, [action]) == apply_insertion(canvas, action)


@given(st.data())
def test_parallel_matches_descending_serial(data):
    tokens = tuple(data.draw(st.lists(st.integers(0, 9), max_size=6)))
    canvas = Canvas(tokens)
    locs = data.draw(
        st.lists(st.integers(0, len(tokens)), max_size=len(tokens) + 1, unique=True)
    )
    actions = [InsertionAction(data.draw(st.integers(0, 9)), l) for l in locs]
    expected = canvas
    for a in sorted(actions, key=lambda a: a.location, reverse=True):
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
        counts[len(sample_subsequence(y, rng).canvas)] += 1
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
        s = sample_subsequence(y, rng)
        if len(s.canvas) == 0:
            seen_empty = True
            assert s.kept_indices == ()
        if len(s.canvas) == len(y):
            seen_full = True
            assert s.canvas.tokens == y
            assert all(sp.empty for sp in slot_spans(y, s))
    assert seen_empty and seen_full


def test_slot_spans_paper_tree_seed():
    # y = [A..G] with only D kept: D splits y into [A,B,C] and [E,F,G]
    y = (A, B, C, D, E, F, G)
    sample = CanvasSample(kept_indices=(3,), canvas=Canvas((D,)))
    assert slot_spans(y, sample) == [SlotSpan(0, 2), SlotSpan(4, 6)]


def test_slot_spans_all_kept_and_none_kept():
    y = (1, 2, 3)
    full = CanvasSample(kept_indices=(0, 1, 2), canvas=Canvas(y))
    assert all(sp.empty for sp in slot_spans(y, full))
    empty = CanvasSample(kept_indices=(), canvas=Canvas())
    assert slot_spans(y, empty) == [SlotSpan(0, 2)]


def test_slot_spans_rejects_inconsistent_sample():
    with pytest.raises(ValueError):
        slot_spans((1, 2, 3), CanvasSample(kept_indices=(0,), canvas=Canvas((9,))))
    with pytest.raises(ValueError):
        slot_spans((1, 2, 3), CanvasSample(kept_indices=(0, 1), canvas=Canvas((1,))))


@settings(max_examples=200)
@given(st.lists(st.integers(0, 5), max_size=12), st.integers(0, 2**31 - 1))
def test_splice_reconstructs_target(tokens, seed):
    y = tuple(tokens)
    rng = np.random.default_rng(seed)
    sample = sample_subsequence(y, rng)
    spans = slot_spans(y, sample)
    assert len(spans) == len(sample.canvas) + 1
    missing = sorted(set(range(len(y))) - set(sample.kept_indices))
    covered = [i for sp in spans for i in range(sp.first, sp.last + 1)]
    assert covered == missing
    assert splice(sample, y) == y


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
