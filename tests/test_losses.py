"""Loss: center weighting, termination targets and the one weighted-NLL loss."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insgen import autodiff as ad
from insgen.canvas import sample_subsequence, slot_spans
from insgen.losses import LossConfig, build_slot_targets, left_to_right_targets, span_weights, weighted_nll
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


def slot_weights(n: int, tau: float) -> np.ndarray:
    """Binary-tree weights of an n-token span, as an array."""
    return np.array(span_weights(n, "binary_tree", tau))


def center_distances(span: range) -> np.ndarray:
    """Each index's distance from the span center, one index at a time."""
    return np.array([abs((span[0] + span[-1]) / 2.0 - i) for i in span])


def reference_weights(span: range, tau: float) -> tuple[float, ...]:
    """Oracle: softmax(-d / tau) over a span at its own offset, index by index."""
    z = -center_distances(span) / tau
    z -= z.max()
    e = np.exp(z)
    return tuple((e / e.sum()).tolist())


def weight_distances(n: int) -> np.ndarray:
    """The center distances that span_weights used, read back from its tau = 1 weights."""
    w = slot_weights(n, 1.0)
    return np.log(w.max() / w) + ((n - 1) % 2) / 2  # an even span's nearest tokens sit 0.5 off


def test_span_center_distance_odd_span():
    np.testing.assert_allclose(weight_distances(3), [1.0, 0.0, 1.0], atol=1e-12)
    np.testing.assert_array_equal(center_distances(range(4, 7)), [1.0, 0.0, 1.0])


def test_span_center_distance_even_tie_and_singleton():
    np.testing.assert_allclose(weight_distances(2), [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(weight_distances(4), [1.5, 0.5, 0.5, 1.5], atol=1e-12)
    np.testing.assert_array_equal(weight_distances(1), [0.0])
    np.testing.assert_array_equal(center_distances(range(2, 4)), [0.5, 0.5])


def test_slot_weights_length3_hand_value():
    w = slot_weights(3, tau=1.0)
    np.testing.assert_allclose(w, [0.21194, 0.57612, 0.21194], atol=1e-5)
    assert abs(w.sum() - 1.0) < 1e-9


def test_slot_weights_singleton_and_uniform_limit():
    assert span_weights(1, "binary_tree", 1.0) == (1.0,)
    w = slot_weights(5, tau=1e9)
    np.testing.assert_allclose(w, 0.2, atol=1e-6)


def test_slot_weights_tiny_temperature_concentrates():
    w = slot_weights(5, tau=1e-9)
    np.testing.assert_allclose(w, [0, 0, 1.0, 0, 0], atol=1e-12)
    # even length: mass splits over the two centermost
    w = slot_weights(4, tau=1e-9)
    np.testing.assert_allclose(w, [0, 0.5, 0.5, 0], atol=1e-12)


@settings(max_examples=100)
@given(
    st.integers(1, 9),
    st.floats(0.05, 100.0),
)
def test_slot_weights_properties(length, tau):
    w = slot_weights(length, tau)
    assert abs(w.sum() - 1.0) < 1e-9
    np.testing.assert_allclose(w, w[::-1], atol=1e-12)  # symmetric span -> symmetric weights
    order = np.argsort(center_distances(range(length)), kind="stable")
    assert np.all(np.diff(w[order]) <= 1e-12)  # nonincreasing in distance


def test_center_weight_sharpens_as_tau_decreases():
    centers = [slot_weights(7, tau)[3] for tau in (4.0, 2.0, 1.0, 0.5, 0.25)]
    assert all(b > a for a, b in zip(centers, centers[1:]))


def test_slot_weights_rejects_empty_span():
    for order in ("binary_tree", "uniform"):
        with pytest.raises(ValueError):
            span_weights(0, order, 1.0)


@pytest.mark.parametrize("tau", [1e-3, 0.1, 0.8, 1.0, 5.0, 50.0])
def test_cached_span_weights_equal_slot_weights_at_every_offset(tau):
    # the weights key on the span's length only; they must equal the
    # index-by-index oracle at any offset, bit for bit
    for n in range(1, 65):
        cached = span_weights(n, "binary_tree", tau)
        for start in (0, 3, 17):
            assert cached == reference_weights(range(start, start + n), tau), (n, start)
        assert span_weights(n, "uniform", tau) == tuple(np.full(n, 1.0 / n).tolist())


def test_build_slot_targets_weights_match_slot_weights():
    y = tuple(range(10, 22))
    kept = (2, 3, 9)
    spans = slot_spans(y, kept)
    for order, tau in (("binary_tree", 0.7), ("uniform", 1.0)):
        targets = build_slot_targets(y, kept, LossConfig(order=order, temperature=tau))
        assert len(targets) == len(spans)  # slot mode: one target per slot
        for (location, tokens, weights), span in zip(targets, spans):
            if span:
                uniform = tuple(np.full(len(span), 1 / len(span)).tolist())
                assert weights == (reference_weights(span, tau) if order == "binary_tree" else uniform), (order, span)
                assert tokens == y[span.start : span.stop], (order, span)


def _logp_grid(vocab: int, slots: int, rng) -> np.ndarray:
    logits = rng.normal(size=(slots, vocab))
    flat = logits.reshape(-1)
    flat -= flat.max()
    logz = np.log(np.exp(flat).sum())
    return (flat - logz).reshape(slots, vocab)


def _item_loss(logp: np.ndarray, targets) -> float:
    """The batch loss of a single item (B = 1) from hand-built log-probs."""
    return weighted_nll(ad.Tensor(logp[None]), [targets]).item()


def _span_target(y, span: range, location: int, weights):
    return (location, y[span.start : span.stop], tuple(weights))


def test_binary_tree_slot_loss_half_probability():
    # both span tokens at p = 0.5: weighted sum of log 2 with weights summing to 1
    logp = np.full((2, NUM_RESERVED + 4), -50.0)
    y = (NUM_RESERVED, NUM_RESERVED + 1)
    logp[1, y[0]] = math.log(0.5)
    logp[1, y[1]] = math.log(0.5)
    span = range(0, 2)
    loss = _item_loss(logp, [_span_target(y, span, 1, slot_weights(2, 1.0))])
    assert abs(loss - math.log(2)) < 1e-12


def test_binary_tree_slot_loss_singleton():
    logp = np.full((1, NUM_RESERVED + 2), math.log(0.1))
    y = (NUM_RESERVED,)
    span = range(0, 1)
    loss = _item_loss(logp, [_span_target(y, span, 0, slot_weights(1, 0.7))])
    assert abs(loss + math.log(0.1)) < 1e-12


def test_uniform_slot_loss_hand_values():
    # uniform targets come from build_slot_targets: an empty canvas has one span
    logp = np.full((1, NUM_RESERVED + 3), math.log(0.25))
    y = (NUM_RESERVED, NUM_RESERVED + 1)
    config = LossConfig(order="uniform", termination="slot")
    targets = build_slot_targets(y, (), config)
    assert targets == [(0, y, (0.5, 0.5))]
    assert abs(_item_loss(logp, targets) - math.log(4)) < 1e-12
    single = build_slot_targets(y[1:], (), config)
    assert abs(_item_loss(logp, single) + math.log(0.25)) < 1e-12


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
        bt = _item_loss(logp, [_span_target(y, span, location, slot_weights(len(span), 1e9))])
        uni = -float(np.mean(logp[location, list(y[first : last + 1])]))
        assert abs(bt - uni) < 1e-6


def test_full_loss_identity_and_mean():
    # an item's loss is the arithmetic mean of its slot losses
    logp = np.full((2, NUM_RESERVED + 2), -50.0)
    logp[0, EOSLOT] = -1.7
    logp[1, EOSLOT] = -math.log(2)
    logp[1, EOS] = -math.log(4)
    first = (0, (EOSLOT,), (1.0,))
    assert abs(_item_loss(logp, [first]) - 1.7) < 1e-12
    pair = [(1, (EOSLOT,), (1.0,)), (1, (EOS,), (1.0,))]
    assert abs(_item_loss(logp, pair) - 1.5 * math.log(2)) < 1e-12


def test_full_loss_rejects_empty():
    logp = ad.Tensor(np.zeros((2, 1, NUM_RESERVED + 2)))
    with pytest.raises(ValueError, match="row 1"):
        weighted_nll(logp, [[(0, (EOSLOT,), (1.0,))], []])


def test_build_slot_targets_complete_canvas_both_modes():
    y = (7, 8, 9)
    kept = (0, 1, 2)
    slot_mode = build_slot_targets(y, kept, LossConfig(order="uniform", termination="slot"))
    assert slot_mode == [(l, (EOSLOT,), (1.0,)) for l in range(4)]
    seq_mode = build_slot_targets(y, kept, LossConfig(order="uniform", termination="sequence"))
    assert seq_mode == [(l, (EOS,), (1.0,)) for l in range(4)]


def test_build_slot_targets_empty_canvas_single_span():
    y = (7, 8, 9)
    kept = ()
    for term in ("slot", "sequence"):
        targets = build_slot_targets(y, kept, LossConfig(order="binary_tree", termination=term))
        assert len(targets) == 1
        assert targets[0][:2] == (0, (7, 8, 9))


def test_build_slot_targets_mixed_spans_slot_mode():
    y = (7, 8, 9, 10)
    kept = (1, 2)
    targets = build_slot_targets(y, kept, LossConfig(order="uniform", termination="slot"))
    assert [(location, tokens) for location, tokens, _ in targets] == [
        (0, (7,)),
        (1, (EOSLOT,)),
        (2, (10,)),
    ]


def test_build_slot_targets_sequence_mode_drops_empty():
    y = (7, 8, 9, 10)
    kept = (1, 2)
    targets = build_slot_targets(y, kept, LossConfig(order="uniform", termination="sequence"))
    assert [(location, tokens) for location, tokens, _ in targets] == [(0, (7,)), (2, (10,))]


def test_target_token_ids():
    # each target carries its tokens: a span's missing target tokens, end-of-slot
    # in each empty slot (slot mode), end-of-sequence at every slot of a complete
    # canvas (sequence mode), and the next token or end-of-sequence (left-to-right)
    y = (7, 8, 9)

    def tokens(targets):
        return [toks for _, toks, _ in targets]

    uniform_slot = LossConfig(order="uniform", termination="slot")
    assert tokens(build_slot_targets(y, (0,), uniform_slot)) == [(EOSLOT,), (8, 9)]
    assert tokens(build_slot_targets(y, (1,), uniform_slot)) == [(7,), (9,)]
    assert tokens(build_slot_targets(y, (0, 2), uniform_slot)) == [(EOSLOT,), (8,), (EOSLOT,)]
    uniform_seq = LossConfig(order="uniform", termination="sequence")
    assert tokens(build_slot_targets(y, (0,), uniform_seq)) == [(8, 9)]
    assert tokens(build_slot_targets(y, (0, 1, 2), uniform_seq)) == [(EOS,)] * 4
    assert [tokens(left_to_right_targets(y, k)) for k in range(4)] == [[(7,)], [(8,)], [(9,)], [(EOS,)]]


def test_left_to_right_targets():
    y = (7, 8, 9)
    assert left_to_right_targets(y, 3) == [(3, (EOS,), (1.0,))]
    t0 = left_to_right_targets(y, 0)
    assert t0 == [(0, (7,), (1.0,))]
    with pytest.raises(ValueError):
        left_to_right_targets(y, 4)


def test_left_to_right_perfect_model_zero_loss():
    y = (7, 8)
    logp = np.full((1, NUM_RESERVED + 4), -60.0)
    logp[0, 7] = 0.0  # p = 1 on the correct action
    assert abs(_item_loss(logp, left_to_right_targets(y, 0))) < 1e-12


def test_analytic_minimum_on_two_token_toy():
    # span of two tokens with weights w: best achievable slot loss is
    # the cross entropy at p == w, i.e. -sum(w log w)
    y = (NUM_RESERVED, NUM_RESERVED + 1)
    span = range(0, 2)
    w = slot_weights(2, 1.3)
    targets = [_span_target(y, span, 0, w)]
    vocab = NUM_RESERVED + 2
    best = np.full((1, vocab), -1e9)
    best[0, y[0]] = math.log(w[0])
    best[0, y[1]] = math.log(w[1])
    optimum = _item_loss(best, targets)
    expected = -(w[0] * math.log(w[0]) + w[1] * math.log(w[1]))
    assert abs(optimum - expected) < 1e-9
    # enumeration oracle: no distribution over the two correct actions does better
    for p0 in np.linspace(0.001, 0.999, 499):
        trial = np.full((1, vocab), -1e9)
        trial[0, y[0]] = math.log(p0)
        trial[0, y[1]] = math.log(1 - p0)
        assert _item_loss(trial, targets) >= optimum - 1e-9


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    vocab = NUM_RESERVED + 5
    y = tuple(rng.integers(NUM_RESERVED, vocab, size=3).tolist())
    logits = ad.Tensor(rng.normal(size=(4, vocab)), requires_grad=True)
    kept = (1,)

    def build(config):
        targets = build_slot_targets(y, kept, config)

        def f():
            flat = ad.reshape(logits, (1, 4 * vocab))
            logp = ad.reshape(ad.log_softmax(flat, axis=-1), (1, 4, vocab))
            return weighted_nll(logp, [targets])

        return f

    for config in (
        LossConfig(order="binary_tree", temperature=0.7, termination="slot"),
        LossConfig(order="uniform", termination="sequence"),
    ):
        f = build(config)
        with ad.Tape() as tape:
            loss = f()
        ad.backward(tape, loss)
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
                w = reference_weights(span, tau)
                terms.append(-float(np.dot(w, logp[b, l, list(y[span.start : span.stop])])))
        expected.append(np.mean(terms))
    targets = [build_slot_targets(y, kept, config) for y, kept in zip(ys, kepts)]
    got = weighted_nll(ad.Tensor(logp), targets).item()
    assert abs(got - float(np.mean(expected))) < 1e-9
