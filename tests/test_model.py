"""Model shape/normalization contracts and slot-representation behavior."""

import numpy as np
import pytest

from insgen import checkpoint
from insgen.model import DECODER_SUBLAYERS, ENCODER_SUBLAYERS, InsertionModel, ModelConfig, conditional_log_probs
from insgen.vocab import NUM_RESERVED


def tiny_config(**kw) -> ModelConfig:
    base = dict(
        vocab_size=NUM_RESERVED + 6,
        d_model=16,
        num_layers=1,
        num_heads=2,
        d_ff=32,
        max_positions=16,
        dtype="float64",
    )
    base.update(kw)
    return ModelConfig(**base)


def make_model(**kw) -> InsertionModel:
    return InsertionModel(tiny_config(**kw), seed=7)


ALL_VARIANTS = [
    dict(head_variant="joint"),
    dict(head_variant="factorized"),
    dict(head_variant="joint", use_contextual_bias=True),
    dict(head_variant="factorized", use_contextual_bias=True),
    dict(head_variant="joint", mos_components=3),
    dict(head_variant="factorized", mos_components=3),
    dict(head_variant="joint", use_contextual_bias=True, mos_components=3),
    dict(head_variant="factorized", use_contextual_bias=True, mos_components=3),
]


def _joint(model, x, canvas):
    return model.log_probs(model.encode(x), canvas)


def _slots(model, source, canvas) -> np.ndarray:
    """Slot matrix (T+1, d_model) of one canvas through the batched decoder."""
    ids = np.asarray([list(canvas)], dtype=np.int64).reshape(1, len(canvas))
    H, _ = model.slot_matrix_batch(*source, ids, np.array([len(canvas)]))
    return H.data[0]


def test_encode_shape_contract():
    # one (keys, values) pair of (1, S, h) slabs per decoder layer, and no key mask
    model = make_model(num_layers=2)
    cross, src_mask = model.encode((7, 8, 9))
    assert src_mask is None and len(cross) == 2
    for keys, values in cross:
        assert keys.shape == values.shape == (1, 3, 16)


def test_sublayer_records_hold_the_tensors_of_params(tmp_path):
    # the forward reads the very Tensors that Adam updates and checkpoint.load fills
    model = make_model(num_layers=2)
    seen = set()
    for stack, layers, sublayers in (("enc", model._encoder, ENCODER_SUBLAYERS), ("dec", model._decoder, DECODER_SUBLAYERS)):
        assert len(layers) == 2
        for i, layer in enumerate(layers):
            assert len(layer) == len(sublayers)
            for record, (name, fields) in zip(layer, sublayers):
                assert len(record) == len(fields)
                for tensor, field in zip(record, fields):
                    key = f"{stack}{i}.{name}.{field}"
                    assert tensor is model.params[key], key
                    seen.add(key)
    assert seen == {k for k in model.params if k.startswith(("enc", "dec"))}
    # a loaded model is built from seed 0 and then filled, so only shared Tensors give the saved model's output
    path = str(tmp_path / "m.insr")
    checkpoint.save(path, model)
    loaded, _ = checkpoint.load(path)
    assert loaded.log_probs(loaded.encode((7, 8, 9)), (8, 9)).tobytes() == _joint(model, (7, 8, 9), (8, 9)).tobytes()


def test_encode_position_sensitivity():
    model = make_model()
    cross, _ = model.encode((7, 7))
    rows = cross[0][0].data[0]  # the first decoder layer's cross keys
    assert not np.allclose(rows[0], rows[1])


def test_encode_rejects_overlong_input():
    model = make_model()
    with pytest.raises(ValueError, match="max_positions"):
        model.encode(tuple([7] * 17))


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: "-".join(f"{k}={v[k]}" for k in v))
def test_log_probs_on_the_encode_handle_equals_the_training_path(variant):
    # the single-source calls decoding makes equal the batched calls training makes, at B = 1
    model = make_model(num_layers=2, **variant)
    x, canvas = (6, 7, 8), (9, 10)
    cross, src_mask = model.encode_batch(np.array([x]), np.array([len(x)]))
    H, slot_mask = model.slot_matrix_batch(cross, src_mask, np.array([canvas]), np.array([len(canvas)]))
    expected = model.joint_log_probs_batch(H, slot_mask).data[0]
    assert np.array_equal(model.log_probs(model.encode(x), canvas), expected)


def test_slot_matrix_row_counts():
    model = make_model()
    source = model.encode((7, 8))
    assert _slots(model, source, ()).shape == (1, 16)
    assert _slots(model, source, (7, 8, 9, 10)).shape == (5, 16)


def test_slot_matrix_rejects_overlong_canvas():
    model = make_model()
    source = model.encode((7,))
    with pytest.raises(ValueError, match="max_positions"):
        _slots(model, source, (7,) * 15)


def test_insertion_changes_every_slot_row():
    # no causal cache is possible: all decoder states depend on the whole canvas
    model = make_model()
    source = model.encode((7, 8))
    before = _slots(model, source, (7, 8))
    after = _slots(model, source, (7, 9, 8))
    # compare the two slots flanking the untouched first token
    assert not np.allclose(before[0], after[0])
    assert not np.allclose(before[1], after[1])


def test_distribution_reacts_to_any_canvas_token():
    model = make_model()
    source = model.encode((7, 8, 9))
    base = _joint(model, (7, 8, 9), (7, 8, 9))
    for pos, repl in [(0, 10), (2, 10)]:
        toks = [7, 8, 9]
        toks[pos] = repl
        changed = model.log_probs(source, tuple(toks))
        # every slot's distribution moves, including slots far from the edit
        for slot in range(4):
            assert not np.allclose(base[slot], changed[slot], atol=1e-9)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: "-".join(f"{k}={v[k]}" for k in v))
def test_joint_distribution_normalizes(variant):
    model = make_model(**variant)
    logp = _joint(model, (6, 7, 8), (9, 10))
    assert logp.shape == (3, model.config.vocab_size)
    total = np.exp(logp).sum()
    assert abs(total - 1.0) < 1e-6


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: "-".join(f"{k}={v[k]}" for k in v))
def test_empty_canvas_single_slot(variant):
    model = make_model(**variant)
    logp = _joint(model, (6, 7), ())
    assert logp.shape == (1, model.config.vocab_size)
    assert abs(np.exp(logp).sum() - 1.0) < 1e-6


def test_joint_uniform_when_logits_zero():
    model = make_model()
    model.params["out.w"].data[:] = 0.0
    logp = _joint(model, (6,), (7, 8))
    expected = 1.0 / (3 * model.config.vocab_size)
    np.testing.assert_allclose(np.exp(logp), expected, atol=1e-12)


def test_renormalized_conditional_equals_row_softmax():
    model = make_model()
    source = model.encode((6, 7, 8))
    H, slot_mask = model.slot_matrix_batch(*source, np.array([[9, 10]]), np.array([2]))
    joint = model.joint_log_probs_batch(H, slot_mask).data[0]
    cond = conditional_log_probs(joint)
    logits = (H.data[0] @ model.params["out.w"].data)
    row_softmax = logits - np.log(np.exp(logits - logits.max(-1, keepdims=True)).sum(-1, keepdims=True)) - logits.max(-1, keepdims=True)
    np.testing.assert_allclose(cond, row_softmax, atol=1e-6)


def test_factorized_factors_normalize():
    model = make_model(head_variant="factorized")
    source = model.encode((6, 7))
    H, slot_mask = model.slot_matrix_batch(*source, np.array([[8, 9, 10]]), np.array([3]))
    joint = model.joint_log_probs_batch(H, slot_mask).data[0]
    p_loc = np.exp(model.location_log_probs_batch(H, slot_mask).data[0])
    assert abs(p_loc.sum() - 1.0) < 1e-6
    cond = np.exp(conditional_log_probs(joint))
    np.testing.assert_allclose(cond.sum(axis=-1), 1.0, atol=1e-6)


def test_factorized_single_slot_location_prob_one():
    model = make_model(head_variant="factorized")
    source = model.encode((6,))
    H, slot_mask = model.slot_matrix_batch(*source, np.zeros((1, 0), dtype=np.int64), np.array([0]))
    p_loc = np.exp(model.location_log_probs_batch(H, slot_mask).data[0])
    np.testing.assert_allclose(p_loc, [1.0], atol=1e-12)


def test_factorized_adds_exactly_d_model_params():
    joint = make_model(head_variant="joint")
    fact = make_model(head_variant="factorized")
    sizes = [sum(p.size for p in m.params.values()) for m in (joint, fact)]
    assert sizes[1] - sizes[0] == fact.config.d_model


def test_contextual_bias_maxpool_semantics():
    model = make_model(use_contextual_bias=True)
    from insgen.autodiff import Tensor
    H = Tensor(np.array([[[1.0, -2.0], [0.0, 3.0]]]))
    g = model._context_vector(H, np.array([[True, True]]))
    np.testing.assert_allclose(g.data, [[1.0, 3.0]])
    # masked row never wins the pool
    g2 = model._context_vector(H, np.array([[True, False]]))
    np.testing.assert_allclose(g2.data, [[1.0, -2.0]])


def test_contextual_bias_zero_matrix_is_noop():
    plain = make_model()
    biased = make_model(use_contextual_bias=True)
    for name, p in plain.params.items():
        biased.params[name].data = p.data.copy()
    biased.params["out.ctx_bias"].data[:] = 0.0
    a = _joint(plain, (6, 7), (8, 9))
    b = _joint(biased, (6, 7), (8, 9))
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_mos_single_component_equals_plain_head():
    plain = make_model()
    mixture = make_model(mos_components=1)
    for name, p in plain.params.items():
        mixture.params[name].data = p.data.copy()
    np.testing.assert_allclose(
        _joint(plain, (6, 7), (8,)), _joint(mixture, (6, 7), (8,)), atol=1e-12
    )


def _row_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(-1, keepdims=True))


def test_mos_sums_to_one_and_matches_hand_mixture():
    model = make_model(head_variant="factorized", mos_components=2)
    source = model.encode((6, 7))
    H, slot_mask = model.slot_matrix_batch(*source, np.array([[8]]), np.array([1]))
    joint = model.joint_log_probs_batch(H, slot_mask).data[0]
    assert abs(np.exp(joint).sum() - 1.0) < 1e-6

    # hand-computed mixture: sum_k pi_k(h_l) * softmax(tanh(h_l Wk + bk) W)
    Hd = H.data[0]
    prior = Hd @ model.params["out.mos_prior"].data
    pi = np.exp(_row_softmax(prior))
    mix = np.zeros((Hd.shape[0], model.config.vocab_size))
    for k in range(2):
        z = np.tanh(Hd @ model.params[f"out.mos{k}.w"].data + model.params[f"out.mos{k}.b"].data)
        mix += pi[:, k : k + 1] * np.exp(_row_softmax(z @ model.params["out.w"].data))
    np.testing.assert_allclose(np.exp(conditional_log_probs(joint)), mix, atol=1e-9)


def test_mos_forced_prior_selects_component():
    model = make_model(head_variant="factorized", mos_components=2)
    source = model.encode((6, 7))
    h = _slots(model, source, ())[0]
    # point the prior at component 0 for this slot vector: h . p0 = 50, h . p1 = 0
    model.params["out.mos_prior"].data[:] = 0.0
    model.params["out.mos_prior"].data[:, 0] = 50.0 * h / (h @ h)
    joint = model.log_probs(source, ())
    cond = conditional_log_probs(joint)
    z0 = np.tanh(h @ model.params["out.mos0.w"].data + model.params["out.mos0.b"].data)
    expected = _row_softmax((z0 @ model.params["out.w"].data)[None, :])
    np.testing.assert_allclose(cond, expected, atol=1e-9)


def test_batched_and_single_paths_agree():
    # a row of a padded batch must not see the other rows, for every head
    xs = [(6, 7, 8), (9, 10), (8,)]
    canvases = [(7, 8), (9,), ()]
    src = np.zeros((3, 3), dtype=np.int64)
    canvas = np.zeros((3, 2), dtype=np.int64)
    for b, (x, c) in enumerate(zip(xs, canvases)):
        src[b, : len(x)] = x
        canvas[b, : len(c)] = c
    for variant in ALL_VARIANTS:
        model = make_model(**variant)
        cross, src_mask = model.encode_batch(src, np.array([3, 2, 1]))
        H, slot_mask = model.slot_matrix_batch(cross, src_mask, canvas, np.array([2, 1, 0]))
        joint = model.joint_log_probs_batch(H, slot_mask).data
        for b, (x, c) in enumerate(zip(xs, canvases)):
            np.testing.assert_allclose(joint[b, : len(c) + 1], _joint(model, x, c), atol=1e-9, err_msg=str(variant))
