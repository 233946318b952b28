"""Loss: center weighting, termination targets and the one weighted-NLL loss."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insgen import autodiff as ad
from insgen.canvas import sample_subsequence, slot_spans
from insgen.losses import (
    LossConfig,
    _span_weights,
    SlotTarget,
    build_slot_targets,
    left_to_right_targets,
    slot_weights,
    span_center_distance,
    weighted_nll,
)
from insgen.vocab import EOS, EOSLOT, NUM_RESERVED

from conftest import central_difference_grad, max_rel_error


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(order="left_to_right", termination="slot")
    with pytest.raises(ValueError):
        LossConfig(order="binary_tree", temperature=0.0)
    with pytest.raises(ValueError):
        LossConfig(order="sideways")
    LossConfig(order="uniform", termination="sequence")  # fine


def test_span_center_distance_odd_span():
    span = range(4, 7)
    assert span_center_distance(span, 4) == 1.0
    assert span_center_distance(span, 5) == 0.0
    assert span_center_distance(span, 6) == 1.0


def test_span_center_distance_even_tie_and_singleton():
    assert span_center_distance(range(2, 4), 2) == 0.5
    assert span_center_distance(range(2, 4), 3) == 0.5
    assert span_center_distance(range(5, 6), 5) == 0.0
    with pytest.raises(ValueError):
        span_center_distance(range(2, 4), 4)


def test_slot_weights_length3_hand_value():
    w = slot_weights(range(0, 3), tau=1.0)
    np.testing.assert_allclose(w, [0.21194, 0.57612, 0.21194], atol=1e-5)
    assert abs(w.sum() - 1.0) < 1e-9


def test_slot_weights_singleton_and_uniform_limit():
    np.testing.assert_array_equal(slot_weights(range(3, 4), 1.0), [1.0])
    w = slot_weights(range(0, 5), tau=1e9)
    np.testing.assert_allclose(w, 0.2, atol=1e-6)


def test_slot_weights_tiny_temperature_concentrates():
    w = slot_weights(range(0, 5), tau=1e-9)
    np.testing.assert_allclose(w, [0, 0, 1.0, 0, 0], atol=1e-12)
    # even length: mass splits over the two centermost
    w = slot_weights(range(0, 4), tau=1e-9)
    np.testing.assert_allclose(w, [0, 0.5, 0.5, 0], atol=1e-12)


@settings(max_examples=100)
@given(
    st.integers(0, 10),
    st.integers(1, 9),
    st.floats(0.05, 100.0),
)
def test_slot_weights_properties(first, length, tau):
    span = range(first, first + length)
    w = slot_weights(span, tau)
    assert abs(w.sum() - 1.0) < 1e-9
    np.testing.assert_allclose(w, w[::-1], atol=1e-12)  # symmetric span -> symmetric weights
    d = np.array([span_center_distance(span, i) for i in span])
    order = np.argsort(d, kind="stable")
    assert np.all(np.diff(w[order]) <= 1e-12)  # nonincreasing in distance


def test_center_weight_sharpens_as_tau_decreases():
    span = range(0, 7)
    centers = [slot_weights(span, tau)[3] for tau in (4.0, 2.0, 1.0, 0.5, 0.25)]
    assert all(b > a for a, b in zip(centers, centers[1:]))


def test_slot_weights_rejects_empty_span():
    with pytest.raises(ValueError):
        slot_weights(range(3, 3), 1.0)


@pytest.mark.parametrize("tau", [1e-3, 0.1, 0.8, 1.0, 5.0, 50.0])
def test_cached_span_weights_equal_slot_weights_at_every_offset(tau):
    # the cache keys on the span's length only; a span's weights must not
    # depend on where it starts, bit for bit
    for n in range(1, 65):
        cached = _span_weights(n, "binary_tree", tau)
        for start in (0, 3, 17):
            assert cached == tuple(slot_weights(range(start, start + n), tau).tolist()), (n, start)
        assert _span_weights(n, "uniform", tau) == tuple(np.full(n, 1.0 / n).tolist())


def test_build_slot_targets_weights_match_slot_weights():
    y = tuple(range(10, 22))
    kept = (2, 3, 9)
    for order, tau in (("binary_tree", 0.7), ("uniform", 1.0)):
        for t in build_slot_targets(y, kept, LossConfig(order=order, temperature=tau)):
            if t.kind == "span":
                want = slot_weights(t.span, tau) if order == "binary_tree" else np.full(len(t.span), 1 / len(t.span))
                assert t.weights == tuple(want.tolist()), (order, t.span)


def _logp_grid(vocab: int, slots: int, rng) -> np.ndarray:
    logits = rng.normal(size=(slots, vocab))
    flat = logits.reshape(-1)
    flat -= flat.max()
    logz = np.log(np.exp(flat).sum())
    return (flat - logz).reshape(slots, vocab)


def _item_loss(logp: np.ndarray, y, targets) -> float:
    """The batch loss of a single item (B = 1) from hand-built log-probs."""
    return weighted_nll(ad.tensor(logp[None]), [y], [targets]).item()


def _span_target(span: range, location: int, weights) -> SlotTarget:
    return SlotTarget(location=location, kind="span", span=span, weights=tuple(weights))


def test_binary_tree_slot_loss_half_probability():
    # both span tokens at p = 0.5: weighted sum of log 2 with weights summing to 1
    logp = np.full((2, NUM_RESERVED + 4), -50.0)
    y = (NUM_RESERVED, NUM_RESERVED + 1)
    logp[1, y[0]] = math.log(0.5)
    logp[1, y[1]] = math.log(0.5)
    span = range(0, 2)
    loss = _item_loss(logp, y, [_span_target(span, 1, slot_weights(span, 1.0))])
    assert abs(loss - math.log(2)) < 1e-12


def test_binary_tree_slot_loss_singleton():
    logp = np.full((1, NUM_RESERVED + 2), math.log(0.1))
    y = (NUM_RESERVED,)
    span = range(0, 1)
    loss = _item_loss(logp, y, [_span_target(span, 0, slot_weights(span, 0.7))])
    assert abs(loss + math.log(0.1)) < 1e-12


def test_uniform_slot_loss_hand_values():
    # uniform targets come from build_slot_targets: an empty canvas has one span
    logp = np.full((1, NUM_RESERVED + 3), math.log(0.25))
    y = (NUM_RESERVED, NUM_RESERVED + 1)
    config = LossConfig(order="uniform", termination="slot")
    targets = build_slot_targets(y, (), config)
    assert targets[0].weights == (0.5, 0.5)
    assert abs(_item_loss(logp, y, targets) - math.log(4)) < 1e-12
    single = build_slot_targets(y[1:], (), config)
    assert abs(_item_loss(logp, y[1:], single) + math.log(0.25)) < 1e-12


def test_binary_tree_limit_equals_uniform_500_random_instances():
    # oracle: the plain mean over the span's log-probs, straight off the array
    rng = np.random.default_rng(42)
    vocab = NUM_RESERVED + 8
    for _ in range(500):
        n = int(rng.integers(1, 7))
        slots = n + 1
        y = tuple(rng.integers(NUM_RESERVED, vocab, size=n).tolist())
        first = int(rng.integers(0, n))
        last = int(rng.integers(first, n))
        location = int(rng.integers(0, slots))
        logp = _logp_grid(vocab, slots, rng)
        span = range(first, last + 1)
        bt = _item_loss(logp, y, [_span_target(span, location, slot_weights(span, 1e9))])
        uni = -float(np.mean(logp[location, list(y[first : last + 1])]))
        assert abs(bt - uni) < 1e-6


def test_full_loss_identity_and_mean():
    # an item's loss is the arithmetic mean of its slot losses
    logp = np.full((2, NUM_RESERVED + 2), -50.0)
    logp[0, EOSLOT] = -1.7
    logp[1, EOSLOT] = -math.log(2)
    logp[1, EOS] = -math.log(4)
    first = SlotTarget(location=0, kind="end_of_slot")
    assert abs(_item_loss(logp, (), [first]) - 1.7) < 1e-12
    pair = [SlotTarget(location=1, kind="end_of_slot"), SlotTarget(location=1, kind="end_of_sequence")]
    assert abs(_item_loss(logp, (), pair) - 1.5 * math.log(2)) < 1e-12


def test_full_loss_rejects_empty():
    logp = ad.tensor(np.zeros((2, 1, NUM_RESERVED + 2)))
    with pytest.raises(ValueError, match="row 1"):
        weighted_nll(logp, [(), ()], [[SlotTarget(location=0, kind="end_of_slot")], []])


def test_build_slot_targets_complete_canvas_both_modes():
    y = (7, 8, 9)
    kept = (0, 1, 2)
    slot_mode = build_slot_targets(y, kept, LossConfig(order="uniform", termination="slot"))
    assert [t.kind for t in slot_mode] == ["end_of_slot"] * 4
    assert [t.location for t in slot_mode] == [0, 1, 2, 3]
    seq_mode = build_slot_targets(y, kept, LossConfig(order="uniform", termination="sequence"))
    assert [t.kind for t in seq_mode] == ["end_of_sequence"] * 4


def test_build_slot_targets_empty_canvas_single_span():
    y = (7, 8, 9)
    kept = ()
    for term in ("slot", "sequence"):
        targets = build_slot_targets(y, kept, LossConfig(order="binary_tree", termination=term))
        assert len(targets) == 1
        assert targets[0].kind == "span" and targets[0].span == range(0, 3)


def test_build_slot_targets_mixed_spans_slot_mode():
    y = (7, 8, 9, 10)
    kept = (1, 2)
    targets = build_slot_targets(y, kept, LossConfig(order="uniform", termination="slot"))
    assert [(t.location, t.kind) for t in targets] == [
        (0, "span"),
        (1, "end_of_slot"),
        (2, "span"),
    ]
    assert targets[0].span == range(0, 1)
    assert targets[2].span == range(3, 4)


def test_build_slot_targets_sequence_mode_drops_empty():
    y = (7, 8, 9, 10)
    kept = (1, 2)
    targets = build_slot_targets(y, kept, LossConfig(order="uniform", termination="sequence"))
    assert [(t.location, t.kind) for t in targets] == [(0, "span"), (2, "span")]


def test_target_token_ids():
    y = (7, 8, 9)
    assert SlotTarget(0, "span", range(1, 3)).token_ids(y) == (8, 9)
    assert SlotTarget(0, "end_of_slot").token_ids(y) == (EOSLOT,)
    assert SlotTarget(0, "end_of_sequence").token_ids(y) == (EOS,)


def test_left_to_right_targets():
    y = (7, 8, 9)
    assert left_to_right_targets(y, 3) == [SlotTarget(location=3, kind="end_of_sequence")]
    t0 = left_to_right_targets(y, 0)
    assert t0 == [SlotTarget(location=0, kind="span", span=range(0, 1), weights=(1.0,))]
    with pytest.raises(ValueError):
        left_to_right_targets(y, 4)


def test_left_to_right_perfect_model_zero_loss():
    y = (7, 8)
    logp = np.full((1, NUM_RESERVED + 4), -60.0)
    logp[0, 7] = 0.0  # p = 1 on the correct action
    assert abs(_item_loss(logp, y, left_to_right_targets(y, 0))) < 1e-12


def test_analytic_minimum_on_two_token_toy():
    # span of two tokens with weights w: best achievable slot loss is
    # the cross entropy at p == w, i.e. -sum(w log w)
    y = (NUM_RESERVED, NUM_RESERVED + 1)
    span = range(0, 2)
    w = slot_weights(span, 1.3)
    targets = [_span_target(span, 0, w)]
    vocab = NUM_RESERVED + 2
    best = np.full((1, vocab), -1e9)
    best[0, y[0]] = math.log(w[0])
    best[0, y[1]] = math.log(w[1])
    optimum = _item_loss(best, y, targets)
    expected = -(w[0] * math.log(w[0]) + w[1] * math.log(w[1]))
    assert abs(optimum - expected) < 1e-9
    # enumeration oracle: no distribution over the two correct actions does better
    for p0 in np.linspace(0.001, 0.999, 499):
        trial = np.full((1, vocab), -1e9)
        trial[0, y[0]] = math.log(p0)
        trial[0, y[1]] = math.log(1 - p0)
        assert _item_loss(trial, y, targets) >= optimum - 1e-9


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    vocab = NUM_RESERVED + 5
    y = tuple(rng.integers(NUM_RESERVED, vocab, size=3).tolist())
    logits = ad.tensor(rng.normal(size=(4, vocab)), requires_grad=True)
    kept = (1,)

    def build(config):
        targets = build_slot_targets(y, kept, config)

        def f():
            flat = ad.reshape(logits, (1, 4 * vocab))
            logp = ad.reshape(ad.log_softmax(flat, axis=-1), (1, 4, vocab))
            return weighted_nll(logp, [y], [targets])

        return f

    for config in (
        LossConfig(order="binary_tree", temperature=0.7, termination="slot"),
        LossConfig(order="uniform", termination="sequence"),
    ):
        f = build(config)
        with ad.Tape() as tape:
            loss = f()
        tape.backward(loss)
        numeric = central_difference_grad(lambda: f().item(), logits.data)
        assert max_rel_error(logits.grad, numeric) < 1e-4
        logits.zero_grad()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 3))
def test_batch_loss_matches_slotwise_reference(seed, n, batch):
    # the one gather over a padded batch equals the mean of per-slot oracles
    rng = np.random.default_rng(seed)
    vocab = NUM_RESERVED + 6
    tau = 1.1
    config = LossConfig(order="binary_tree", temperature=tau, termination="slot")
    ys, kepts = [], []
    for _ in range(batch):
        y = tuple(rng.integers(NUM_RESERVED, vocab, size=n).tolist())
        ys.append(y)
        kepts.append(sample_subsequence(y, rng))
    slots = max(len(kept) for kept in kepts) + 1
    logp = np.stack([_logp_grid(vocab, slots, rng) for _ in range(batch)])

    expected = []
    for b, (y, kept) in enumerate(zip(ys, kepts)):
        terms = []
        for l, span in enumerate(slot_spans(y, kept)):
            if not span:
                terms.append(-logp[b, l, EOSLOT])
            else:
                w = slot_weights(span, tau)
                terms.append(-float(np.dot(w, logp[b, l, list(y[span.start : span.stop])])))
        expected.append(np.mean(terms))
    targets = [build_slot_targets(y, kept, config) for y, kept in zip(ys, kepts)]
    got = weighted_nll(ad.tensor(logp), ys, targets).item()
    assert abs(got - float(np.mean(expected))) < 1e-9
