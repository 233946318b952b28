"""Gradient and algebra checks for the tensor substrate.

Every differentiable primitive is checked against central finite
differences in float64; softmax gets its algebraic identities checked
directly.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insgen import autodiff as ad

from conftest import central_difference_grad, max_rel_error


def _gradcheck(build_loss, params, tol=1e-6, eps=1e-6):
    """Compare tape gradients of build_loss() against the finite-difference oracle."""
    with ad.Tape() as tape:
        loss = build_loss()
    ad.backward(tape, loss)
    for p in params:
        numeric = central_difference_grad(lambda: _loss_value(build_loss), p.data, eps=eps)
        assert p.grad is not None
        assert max_rel_error(p.grad, numeric) < tol


def _loss_value(build_loss) -> float:
    return build_loss().item()


def test_matmul_identity():
    a = ad.Tensor(np.arange(9.0).reshape(3, 3))
    out = ad.matmul(ad.Tensor(np.eye(3)), a)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_hand_value():
    out = ad.matmul(ad.Tensor([[1.0, 2.0], [3.0, 4.0]]), ad.Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 2))))


def test_matmul_gradcheck():
    rng = np.random.default_rng(0)
    a = ad.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    _gradcheck(lambda: ad.tsum(ad.mul(ad.matmul(a, b), ad.matmul(a, b))), [a, b])


def test_softmax_symmetry():
    out = ad.softmax(ad.Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_hand_value():
    out = ad.softmax(ad.Tensor([-1.0, 0.0, -1.0]))
    np.testing.assert_allclose(out.data, [0.21194, 0.57612, 0.21194], atol=1e-5)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.floats(-100, 100))
def test_softmax_shift_invariance_and_normalization(xs, c):
    base = ad.softmax(ad.Tensor(np.array(xs))).data
    shifted = ad.softmax(ad.Tensor(np.array(xs) + c)).data
    np.testing.assert_allclose(base, shifted, atol=1e-12)
    assert np.all(base >= 0)
    assert abs(base.sum() - 1.0) < 1e-12


def test_softmax_empty_axis_errors():
    with pytest.raises(ad.ShapeError):
        ad.softmax(ad.Tensor(np.zeros((0,))))


def test_softmax_gradcheck():
    rng = np.random.default_rng(1)
    x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = rng.normal(size=(3, 4))
    _gradcheck(lambda: ad.tsum(ad.mul(ad.softmax(x, axis=-1), w)), [x])


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 5))
    np.testing.assert_allclose(
        ad.log_softmax(ad.Tensor(x)).data, np.log(ad.softmax(ad.Tensor(x)).data), atol=1e-12
    )


def test_log_softmax_gradcheck():
    rng = np.random.default_rng(3)
    x = ad.Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    w = rng.normal(size=(2, 6))
    _gradcheck(lambda: ad.tsum(ad.mul(ad.log_softmax(x, axis=-1), w)), [x])


def test_attention_single_position_returns_value_row():
    rng = np.random.default_rng(4)
    q = ad.Tensor(rng.normal(size=(1, 1, 4)))
    k = ad.Tensor(rng.normal(size=(1, 1, 4)))
    v = ad.Tensor(rng.normal(size=(1, 1, 4)))
    out = ad.attention(q, k, v, num_heads=2)
    np.testing.assert_allclose(out.data, v.data, atol=1e-12)


def test_attention_zero_logits_averages_values():
    v = ad.Tensor(np.array([[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]]))
    q = ad.Tensor(np.zeros((1, 2, 2)))
    k = ad.Tensor(np.zeros((1, 3, 2)))
    out = ad.attention(q, k, v)
    np.testing.assert_allclose(out.data[0], np.tile(v.data[0].mean(axis=0), (2, 1)), atol=1e-12)


def test_attention_gradcheck_two_heads():
    rng = np.random.default_rng(5)
    q = ad.Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
    k = ad.Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
    v = ad.Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
    w = rng.normal(size=(1, 3, 4))
    _gradcheck(
        lambda: ad.tsum(ad.mul(ad.attention(q, k, v, num_heads=2), w)), [q, k, v], tol=1e-5
    )


def test_attention_mask_blocks_keys():
    rng = np.random.default_rng(6)
    k = ad.Tensor(rng.normal(size=(1, 3, 2)))
    v = ad.Tensor(rng.normal(size=(1, 3, 2)))
    q = ad.Tensor(rng.normal(size=(1, 1, 2)))
    mask = np.array([[[True, True, False]]])
    out = ad.attention(q, k, v, mask=mask)
    out_trunc = ad.attention(q, ad.Tensor(k.data[:, :2]), ad.Tensor(v.data[:, :2]))
    np.testing.assert_allclose(out.data, out_trunc.data, atol=1e-9)


def test_attention_mask_shape_mismatch_errors():
    q = ad.Tensor(np.zeros((1, 2, 2)))
    kv = ad.Tensor(np.zeros((1, 3, 2)))
    with pytest.raises(ad.ShapeError):
        ad.attention(q, kv, kv, mask=np.ones((1, 5, 4), dtype=bool))


def test_attention_masked_gradcheck():
    rng = np.random.default_rng(7)
    q = ad.Tensor(rng.normal(size=(1, 2, 4)), requires_grad=True)
    k = ad.Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
    v = ad.Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
    mask = np.array([[[True, False, True], [True, True, True]]])
    w = rng.normal(size=(1, 2, 4))
    _gradcheck(
        lambda: ad.tsum(ad.mul(ad.attention(q, k, v, num_heads=2, mask=mask), w)),
        [q, k, v],
        tol=1e-5,
    )


def test_layer_norm_gradcheck():
    rng = np.random.default_rng(8)
    x = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    gain = ad.Tensor(rng.normal(size=5), requires_grad=True)
    bias = ad.Tensor(rng.normal(size=5), requires_grad=True)
    w = rng.normal(size=(3, 5))
    _gradcheck(lambda: ad.tsum(ad.mul(ad.layer_norm(x, gain, bias), w)), [x, gain, bias])


def test_embedding_gradcheck_scatter():
    rng = np.random.default_rng(9)
    table = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    ids = np.array([[0, 2, 2], [5, 1, 0]])
    w = rng.normal(size=(2, 3, 3))
    _gradcheck(lambda: ad.tsum(ad.mul(ad.embedding(table, ids), w)), [table])


def test_adjacent_pairs_layout_and_grad():
    rng = np.random.default_rng(10)
    x = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    out = ad.adjacent_pairs(x)
    assert out.shape == (3, 6)
    np.testing.assert_array_equal(out.data[1], np.concatenate([x.data[1], x.data[2]]))
    w = rng.normal(size=(3, 6))
    _gradcheck(lambda: ad.tsum(ad.mul(ad.adjacent_pairs(x), w)), [x])


def test_max_over_axis_grad_routes_to_argmax():
    x = ad.Tensor(np.array([[1.0, -2.0], [0.0, 3.0]]), requires_grad=True)
    out = ad.max_over_axis(x, axis=0)
    np.testing.assert_array_equal(out.data, [1.0, 3.0])
    with ad.Tape() as tape:
        loss = ad.tsum(ad.max_over_axis(x, axis=0))
    ad.backward(tape, loss)
    np.testing.assert_array_equal(x.grad, [[1.0, 0.0], [0.0, 1.0]])


def test_take_gradcheck():
    rng = np.random.default_rng(11)
    x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    idx = (np.array([0, 2, 2]), np.array([1, 3, 3]))
    w = rng.normal(size=3)
    _gradcheck(lambda: ad.tsum(ad.mul(ad.take(x, idx), w)), [x])


ROWS = np.array([0, 1, 2, 4, 6, 7, 8])  # real rows of a (3, 3) slab with lengths 3, 1 and 3


def test_gather_rows_layout_and_gradcheck():
    rng = np.random.default_rng(13)
    x = ad.Tensor(rng.normal(size=(3, 3, 4)), requires_grad=True)
    out = ad.gather_rows(x, ROWS)
    np.testing.assert_array_equal(out.data, x.data.reshape(9, 4)[ROWS])
    w = rng.normal(size=(len(ROWS), 4))
    _gradcheck(lambda: ad.tsum(ad.mul(ad.gather_rows(x, ROWS), w)), [x])


def test_scatter_rows_layout_and_gradcheck():
    rng = np.random.default_rng(14)
    x = ad.Tensor(rng.normal(size=(len(ROWS), 4)), requires_grad=True)
    out = ad.scatter_rows(x, ROWS, (3, 3, 4))
    assert out.shape == (3, 3, 4)
    np.testing.assert_array_equal(out.data.reshape(9, 4)[ROWS], x.data)
    np.testing.assert_array_equal(out.data.reshape(9, 4)[[3, 5]], 0.0)  # padded rows are zeros
    w = rng.normal(size=(3, 3, 4))
    _gradcheck(lambda: ad.tsum(ad.mul(ad.scatter_rows(x, ROWS, (3, 3, 4)), w)), [x])
    # the two ops are inverses: gathering the scattered rows gives x back
    np.testing.assert_array_equal(ad.gather_rows(out, ROWS).data, x.data)


def test_logsumexp_and_stack_gradcheck():
    rng = np.random.default_rng(12)
    a = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    w = rng.normal(size=(2, 3))
    _gradcheck(
        lambda: ad.tsum(ad.mul(ad.logsumexp(ad.stack([a, b], axis=0), axis=0), w)), [a, b]
    )


def test_backward_sum_gives_ones():
    x = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tsum(x)
    ad.backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_sum_of_squares():
    x = ad.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tsum(ad.mul(x, x))
    ad.backward(tape, loss)
    np.testing.assert_allclose(x.grad, 2 * x.data)


def _tsum_tape(x):
    with ad.Tape() as tape:
        loss = ad.tsum(x)
    return tape, loss


def test_backward_accumulates_until_zeroed():
    # leaf grads accumulate across tapes until zeroed; each tape runs once
    x = ad.Tensor(np.ones(3), requires_grad=True)
    for _ in range(2):
        tape, loss = _tsum_tape(x)
        ad.backward(tape, loss)
    np.testing.assert_array_equal(x.grad, 2 * np.ones(3))
    x.zero_grad()
    tape, loss = _tsum_tape(x)
    ad.backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_second_backward_on_a_tape_raises():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tsum(ad.mul(x, 2.0))
    ad.backward(tape, loss)
    assert len(tape.nodes) == 2 and tape.nodes == [None, None]  # length kept, nodes taken off
    with pytest.raises(RuntimeError, match="already ran"):
        ad.backward(tape, loss)
    np.testing.assert_array_equal(x.grad, 2 * np.ones(3))  # the failed call added nothing


# every name in autodiff.__all__ that is an op
OPS = sorted(set(ad.__all__) - {"Tensor", "Tape", "backward", "tensor", "set_finite_checks"})


def _op_cases(dtype) -> dict:
    """One call of every op: name -> (input arrays, call), where call(*input tensors) runs the op."""
    rng = np.random.default_rng(7)

    def r(*shape):
        return rng.normal(size=shape).astype(dtype)

    visible = np.array([[[True, True, False, True, True]], [[True, False, True, True, False]]])
    return {
        "matmul": ([r(2, 3, 4), r(4, 5)], ad.matmul),
        "add": ([r(2, 3), r(3)], ad.add),
        "affine": ([r(2, 3, 4), r(4, 5), r(5)], ad.affine),
        "sub": ([r(2, 3), r(2, 3)], ad.sub),
        "neg": ([r(2, 3)], ad.neg),
        "mul": ([r(2, 3), r(3)], ad.mul),
        "relu": ([r(2, 3)], ad.relu),
        "tanh": ([r(2, 3)], ad.tanh),
        "softmax": ([r(2, 5)], ad.softmax),
        "log_softmax": ([r(2, 5)], ad.log_softmax),
        "logsumexp": ([r(4)], ad.logsumexp),  # a 0-d result
        "layer_norm": ([r(2, 3, 6), r(6), r(6)], ad.layer_norm),
        "attention": ([r(2, 3, 4), r(2, 5, 4), r(2, 5, 4)],
                      lambda q, k, v: ad.attention(q, k, v, num_heads=2, mask=visible)),
        "embedding": ([r(7, 4)], lambda table: ad.embedding(table, np.array([[0, 3, 3], [6, 1, 0]]))),
        "adjacent_pairs": ([r(2, 4, 3)], ad.adjacent_pairs),
        "max_over_axis": ([r(2, 4, 3)], lambda x: ad.max_over_axis(x, axis=-2)),
        "take": ([r(2, 4, 3)], lambda x: ad.take(x, (np.array([0, 1, 1]), np.array([3, 0, 3]), np.array([2, 2, 0])))),
        "gather_rows": ([r(2, 4, 3)], lambda x: ad.gather_rows(x, np.array([6, 0, 3]))),
        "scatter_rows": ([r(3, 4)], lambda x: ad.scatter_rows(x, np.array([5, 0, 2]), (2, 3, 4))),
        "tsum": ([r(2, 3)], ad.tsum),
        "tmean": ([r(2, 3)], ad.tmean),
        "reshape": ([r(2, 3)], lambda x: ad.reshape(x, (3, 2))),
        "stack": ([r(2, 3), r(2, 3)], lambda a, b: ad.stack([a, b], axis=1)),
    }


def test_an_op_records_nothing_without_a_tape_or_an_input_needing_a_gradient():
    cases = _op_cases(np.float64)
    assert sorted(cases) == OPS
    for name, (arrays, call) in cases.items():  # no tape open
        out = call(*[ad.Tensor(a, requires_grad=True) for a in arrays])
        assert not out.requires_grad and out.node is None, name
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with ad.Tape() as tape:
        ad.add(x, ad.Tensor(np.ones(3)))
        count = len(tape.nodes)
        for name, (arrays, call) in cases.items():
            out = call(*[ad.Tensor(a) for a in arrays])
            assert not out.requires_grad and out.node is None, name
    assert len(tape.nodes) == count == 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", OPS)
def test_an_untaped_op_computes_the_bits_of_its_taped_run(name, dtype):
    arrays, call = _op_cases(dtype)[name]
    untaped = call(*[ad.Tensor(a, requires_grad=True) for a in arrays])
    with ad.Tape() as tape:
        taped = call(*[ad.Tensor(a, requires_grad=True) for a in arrays])
    assert tape.nodes and taped.requires_grad
    assert type(untaped.data) is np.ndarray and untaped.data.dtype == taped.data.dtype == dtype
    assert untaped.data.shape == taped.data.shape
    assert untaped.data.tobytes() == taped.data.tobytes()


@pytest.mark.parametrize("name", OPS)
def test_an_untaped_op_that_makes_nan_raises(name):
    # conftest turns the finite checks on; an op with no tape open still runs them
    arrays, call = _op_cases(np.float64)[name]
    arrays[0] = np.full_like(arrays[0], np.nan)
    with pytest.raises(FloatingPointError):
        call(*[ad.Tensor(a) for a in arrays])


def test_an_untaped_op_that_overflows_to_inf_raises():
    x = ad.Tensor(np.full(3, 3e38, dtype=np.float32))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        ad.add(x, x)


def test_backward_rejects_nonscalar_loss():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with ad.Tape() as tape:
        y = ad.mul(x, 2.0)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(tape, y)


def test_shared_input_grads_do_not_alias():
    # z = x + x: both branches feed the same tensor; grads must sum to 2.
    x = ad.Tensor(np.ones(4), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tsum(ad.add(x, x))
    ad.backward(tape, loss)
    np.testing.assert_array_equal(x.grad, 2 * np.ones(4))


def test_output_of_a_closed_tape_is_a_leaf_of_the_next():
    # a tensor made on another tape stays a leaf: its .grad receives the new
    # tape's gradient, and nothing flows on to what made it
    w = ad.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    with ad.Tape():
        h = ad.mul(w, 2.0)
    with ad.Tape() as tape:
        loss = ad.tsum(ad.mul(h, h))
    ad.backward(tape, loss)
    np.testing.assert_array_equal(h.grad, 2 * h.data)
    assert w.grad is None


def test_a_tape_frees_without_the_cycle_collector():
    # nodes name their tape by serial number, not by reference, so a tape and
    # the arrays it saved go as soon as the last reference to them does
    x = ad.Tensor(np.ones((4, 3)), requires_grad=True)
    w = ad.Tensor(np.ones((3, 2)), requires_grad=True)
    gc.disable()
    try:
        with ad.Tape() as tape:
            loss = ad.tsum(ad.relu(ad.matmul(x, w)))
        ad.backward(tape, loss)
        tape_ref = weakref.ref(tape)
        del tape, loss
        assert tape_ref() is None
    finally:
        gc.enable()


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_ops_stay_finite_on_bounded_inputs(seed):
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.uniform(-1e3, 1e3, size=(3, 4)))
    y = ad.Tensor(rng.uniform(-1e3, 1e3, size=(4, 3)))
    gain = ad.Tensor(np.ones(4))
    bias = ad.Tensor(np.zeros(4))
    batch = ad.Tensor(x.data[None])
    for out in (
        ad.matmul(x, y),
        ad.softmax(x, axis=-1),
        ad.log_softmax(x, axis=-1),
        ad.layer_norm(x, gain, bias),
        ad.attention(batch, batch, batch, num_heads=2),
        ad.relu(x),
        ad.tanh(x),
    ):
        assert np.all(np.isfinite(out.data))


# -- exactness of the rewritten kernels against the formulas they replaced ----


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: tells -0.0 from +0.0, unlike ==."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_matches_the_where_formula_bit_for_bit(dtype):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 34, 16)).astype(dtype)
    tiny = np.finfo(dtype).tiny
    x.flat[:6] = [-0.0, 0.0, -tiny, tiny, -tiny / 4, tiny / 4]  # signed zeros and subnormals
    with ad.Tape() as tape:
        y = ad.relu(ad.Tensor(x, requires_grad=True))
    assert _same_bits(y.data, np.where(x > 0, x, 0))  # -0.0 comes out as +0.0
    g = rng.normal(size=x.shape).astype(dtype)
    (gx,) = tape.nodes[0].backward_fn(g)
    assert _same_bits(gx, g * (x > 0))


def test_relu_propagates_nan():
    ad.set_finite_checks(False)  # the autouse fixture turns them back on
    out = ad.relu(ad.Tensor(np.array([np.nan, -1.0, 2.0]))).data
    assert np.isnan(out[0]) and out[1] == 0.0 and out[2] == 2.0


def _layer_norm_with_mean(x, gain, bias, eps=1e-5):
    """layer_norm's forward as written with ndarray.mean."""
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    var = np.einsum("...i,...i->...", xhat, xhat)[..., None] / x.shape[-1]
    xhat *= 1.0 / np.sqrt(var + eps)
    y = xhat * gain
    y += bias
    return y


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(8, 34, 64), (3, 5, 17), (7,)])
def test_layer_norm_matches_a_mean_reference_bit_for_bit(dtype, shape):
    rng = np.random.default_rng(1)
    x = (rng.normal(size=shape) * 3 + 1).astype(dtype)
    gain = rng.normal(size=shape[-1]).astype(dtype)
    bias = rng.normal(size=shape[-1]).astype(dtype)
    out = ad.layer_norm(ad.Tensor(x), ad.Tensor(gain), ad.Tensor(bias)).data
    assert _same_bits(out, _layer_norm_with_mean(x, gain, bias))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_without_mask_equals_an_all_true_mask_bit_for_bit(dtype):
    rng = np.random.default_rng(2)
    q, k, v = (rng.normal(size=(3, 6, 8)).astype(dtype) for _ in range(3))
    g = rng.normal(size=(3, 6, 8)).astype(dtype)
    results = []
    for mask in (None, np.ones((3, 1, 6), dtype=bool)):
        ts = [ad.Tensor(a, requires_grad=True) for a in (q, k, v)]
        with ad.Tape() as tape:
            out = ad.attention(*ts, num_heads=2, mask=mask)
            loss = ad.tsum(ad.mul(out, g))
        ad.backward(tape, loss)
        results.append([out.data] + [t.grad for t in ts])
    for a, b in zip(*results):
        assert _same_bits(a, b)


def _attention_with_head_copies(q, k, v, num_heads, mask, g):
    """attention's forward and backward as written with contiguous per-head copies.

    Returns the output and the gradients of q, k and v for the output gradient g.
    """
    B, Tq, h = q.shape
    Tk, d = k.shape[1], h // num_heads
    scale = q.dtype.type(1.0 / np.sqrt(d))

    def split(x):  # (B, T, h) -> contiguous (B, heads, T, d)
        return np.ascontiguousarray(x.reshape(B, -1, num_heads, d).transpose(0, 2, 1, 3))

    def transposed(x):
        return np.ascontiguousarray(np.swapaxes(x, -1, -2))

    def merge(x):  # (B, heads, T, d) -> (B, T, h)
        return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(B, -1, h)

    qh, vh = split(q * scale), split(v)
    kt = transposed(split(k))
    scores = qh @ kt
    if mask is not None:
        scores += np.where(mask, 0.0, -1e9).astype(scores.dtype)[:, None, :, :]
    scores -= transposed(scores.reshape(-1, Tk)).max(axis=0).reshape(scores.shape[:-1] + (1,))
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    w = scores
    out = merge(w @ vh)
    goh = split(g)
    gw = goh @ transposed(vh)
    gvh = transposed(w) @ goh
    gs = gw
    gs -= np.einsum("bhij,bhij->bhi", gw, w)[..., None]
    gs *= w
    gqh = gs @ transposed(kt)
    gqh *= scale
    gkh = transposed(gs) @ qh
    return out, merge(gqh), merge(gkh), merge(gvh)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mask_kind", [None, "keys", "full"])
@pytest.mark.parametrize(
    "B, Tq, Tk, num_heads",
    [
        (8, 24, 24, 4),
        (8, 12, 20, 4),
        (1, 7, 5, 1),
        (1, 1, 1, 4),  # a length-1 source
        (8, 1, 1, 1),
        (1, 9, 9, 4),
        (8, 3, 11, 1),
        (8, 1, 6, 4),
        (2, 5, 1, 4),
    ],
)
def test_attention_matches_a_heads_as_copies_reference_bit_for_bit(dtype, mask_kind, B, Tq, Tk, num_heads):
    rng = np.random.default_rng(B * 1000 + Tq * 100 + Tk * 10 + num_heads)
    h = 16 * num_heads  # the model's head width
    q = rng.normal(size=(B, Tq, h)).astype(dtype)
    k, v = (rng.normal(size=(B, Tk, h)).astype(dtype) for _ in range(2))
    g = rng.normal(size=(B, Tq, h)).astype(dtype)
    mask = None
    if mask_kind is not None:
        mask = rng.random(size=(B, 1 if mask_kind == "keys" else Tq, Tk)) < 0.7
        mask[..., 0] = True  # every query sees at least one key
    ts = [ad.Tensor(a, requires_grad=True) for a in (q, k, v)]
    with ad.Tape() as tape:
        out = ad.attention(*ts, num_heads=num_heads, mask=mask)
    grads = tape.nodes[-1].backward_fn(g)
    expected = _attention_with_head_copies(q, k, v, num_heads, mask, g)
    for got, want in zip((out.data, *grads), expected):
        assert _same_bits(got, want)
