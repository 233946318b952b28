"""Optimizer, batch construction, and training-loop contracts."""

import math
import os
import tracemalloc

import numpy as np
import pytest

from insgen import autodiff as ad
from insgen import checkpoint, training
from insgen.config import load_config
from insgen.decoding import DecodeConfig, decode
from insgen.losses import LossConfig
from insgen.model import InsertionModel, ModelConfig
from insgen.tasks import TaskSpec, generate_datasets, pair_at
from insgen.training import (
    BatchItem,
    OptimizerState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    batch_loss,
    clip_gradients,
    make_training_batch,
    scheduled_learning_rate,
    train,
    train_step,
)
from insgen.vocab import EOSLOT, NUM_RESERVED

from conftest import numpy_item_loss


def tiny_model(**kw) -> InsertionModel:
    cfg = ModelConfig(
        vocab_size=NUM_RESERVED + 8,
        d_model=16,
        num_layers=1,
        num_heads=2,
        d_ff=32,
        max_positions=24,
        dtype="float64",
    )
    for k, v in kw.items():
        setattr(cfg, k, v)
    return InsertionModel(cfg, seed=11)


def tiny_dataset(n=40, kind="copy", max_length=6) -> list:
    spec = TaskSpec(kind=kind, content_vocab_size=8, min_length=1, max_length=max_length,
                    seed=5, num_train=n, num_dev=4)
    train_set, _ = generate_datasets(spec)
    return train_set


def test_make_training_batch_left_to_right_prefixes():
    dataset = tiny_dataset()
    rng = np.random.default_rng(3)
    batch = make_training_batch(dataset, LossConfig(order="left_to_right", termination="sequence"), rng, 16)
    assert len(batch) == 16
    for item in batch:
        assert item.canvas == item.y[: len(item.canvas)]
        assert len(item.targets) == 1


@pytest.mark.parametrize("batch_size", [1, 2, 10, 63, 64])
def test_make_training_batch_holds_batch_size_items(batch_size):
    batch = make_training_batch(tiny_dataset(), LossConfig(), np.random.default_rng(batch_size), batch_size)
    assert len(batch) == batch_size


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(LossConfig(), id="binary_tree"),
        pytest.param(LossConfig(order="left_to_right", termination="sequence"), id="left_to_right"),
    ],
)
def test_training_batch_from_a_split_equals_the_batch_from_its_list(config):
    spec = TaskSpec(kind="reverse", content_vocab_size=8, max_length=6, seed=5, num_train=40, num_dev=4)
    split, _ = generate_datasets(spec)
    eager = [pair_at(spec, i) for i in range(spec.num_train)]
    for seed in range(3):
        batch = make_training_batch(split, config, np.random.default_rng(seed), 16)
        assert batch == make_training_batch(eager, config, np.random.default_rng(seed), 16)


def test_make_training_batch_complete_canvas_targets_end_of_slot():
    dataset = [((NUM_RESERVED,), (NUM_RESERVED,))]
    config = LossConfig(order="uniform", termination="slot")
    rng = np.random.default_rng(0)
    for _ in range(50):
        batch = make_training_batch(dataset, config, rng, 1)
        if len(batch[0].canvas) == len(batch[0].y):
            assert [t[1] for t in batch[0].targets] == [(EOSLOT,), (EOSLOT,)]
            break
    else:
        pytest.fail("never drew the complete canvas")


def test_make_training_batch_deterministic_given_seed():
    dataset = tiny_dataset()
    config = LossConfig(order="binary_tree")
    a = make_training_batch(dataset, config, np.random.default_rng(42), 8)
    b = make_training_batch(dataset, config, np.random.default_rng(42), 8)
    assert a == b


def test_scheduled_learning_rate_warmup_then_decay():
    config = TrainConfig(learning_rate=1e-3, warmup_steps=200)
    assert scheduled_learning_rate(config, 1) == pytest.approx(1e-3 / 200)
    assert scheduled_learning_rate(config, 200) == pytest.approx(1e-3)
    assert scheduled_learning_rate(config, 800) == pytest.approx(1e-3 * 0.5)


def test_adam_zero_gradient_zero_update():
    model = tiny_model()
    before = {k: p.data.copy() for k, p in model.params.items()}
    state = OptimizerState.for_model(model)
    grads = {k: np.zeros_like(p.data) for k, p in model.params.items()}
    config = TrainConfig()
    adam_step(model.params, grads, state, config, lr=config.learning_rate)
    for k, p in model.params.items():
        np.testing.assert_array_equal(p.data, before[k])


def test_adam_hand_computed_single_step():
    from insgen.autodiff import Tensor

    params = {"w": Tensor(np.array([0.0]), requires_grad=True)}
    state = OptimizerState(m={"w": np.zeros(1)}, v={"w": np.zeros(1)}, step=0)
    config = TrainConfig(
        learning_rate=0.1, adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-8, warmup_steps=0
    )
    adam_step(params, {"w": np.array([1.0])}, state, config, lr=config.learning_rate)
    assert params["w"].data[0] == pytest.approx(-0.0999999990, abs=1e-9)
    assert state.step == 1


def test_clip_gradients_halves_norm_two():
    grads = {"a": np.array([2.0, 0.0]), "b": np.array([0.0, 0.0])}
    raw = clip_gradients(grads, 1.0)
    assert raw == pytest.approx(2.0)
    np.testing.assert_allclose(grads["a"], [1.0, 0.0])


def test_adam_shape_mismatch_errors():
    model = tiny_model()
    state = OptimizerState.for_model(model)
    grads = {k: np.zeros_like(p.data) for k, p in model.params.items()}
    grads["embed"] = np.zeros(3)
    config = TrainConfig()
    with pytest.raises(ValueError, match="shape"):
        adam_step(model.params, grads, state, config, lr=config.learning_rate)


def test_batch_loss_matches_per_item_reference():
    # the one-gather batched loss must equal the mean of single-item losses
    model = tiny_model()
    dataset = tiny_dataset()
    config = LossConfig(order="binary_tree", temperature=0.8, termination="slot")
    batch = make_training_batch(dataset, config, np.random.default_rng(1), 6)
    got = batch_loss(model, batch).item()

    ref_losses = []
    for item in batch:
        logp = model.log_probs(model.encode(item.x), item.canvas)
        ref_losses.append(numpy_item_loss(logp, item.targets))
    assert got == pytest.approx(float(np.mean(ref_losses)), abs=1e-9)


@pytest.mark.parametrize(
    "config, expected",
    [
        pytest.param(LossConfig(order="binary_tree", temperature=0.8, termination="slot"),
                     4.8210505059557835, id="binary_tree"),
        pytest.param(LossConfig(order="uniform", termination="sequence"), 4.326765536683467, id="uniform"),
        pytest.param(LossConfig(order="left_to_right", termination="sequence"),
                     4.231702126628173, id="left_to_right"),
    ],
)
def test_batch_loss_pinned_values(config, expected):
    # values of the float64 tiny model on fixed seeded batches; each order's
    # loss must not drift when the loss code is reorganized
    batch = make_training_batch(tiny_dataset(), config, np.random.default_rng(1), 6)
    assert batch_loss(tiny_model(), batch).item() == pytest.approx(expected, abs=1e-9)


def test_full_model_gradients_match_finite_differences_sampled():
    # spot-check end-to-end gradients on a random subset of coordinates of
    # every parameter (the acceptance suite sweeps every coordinate), for both
    # heads with contextual bias and a mixture of softmaxes
    dataset = tiny_dataset(8, max_length=4)
    config = LossConfig(order="binary_tree", temperature=1.0, termination="slot")
    batch = make_training_batch(dataset, config, np.random.default_rng(2), 2)
    for head_variant in ("factorized", "joint"):
        model = tiny_model(head_variant=head_variant, use_contextual_bias=True, mos_components=2)
        _check_sampled_gradients(model, batch)


def _check_sampled_gradients(model, batch):
    model.zero_grads()
    with ad.Tape() as tape:
        loss = batch_loss(model, batch)
    ad.backward(tape, loss)

    rng = np.random.default_rng(0)
    eps = 1e-6
    for name, p in model.params.items():
        flat = p.data.reshape(-1)
        grad = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = batch_loss(model, batch).item()
            flat[idx] = orig - eps
            down = batch_loss(model, batch).item()
            flat[idx] = orig
            numeric = (up - down) / (2 * eps)
            denom = max(abs(numeric), abs(grad[idx]), 1e-5)
            assert abs(grad[idx] - numeric) / denom < 1e-4, f"{model.config.head_variant} {name}[{idx}]"


def test_float32_model_computes_in_float32(monkeypatch):
    # every tape output of a float32 train step (two micro-batches, one tape
    # each, with the weighting of each micro-batch loss) and of decoding
    # stays float32; nodes do not keep their outputs, so each output's dtype
    # is observed as the op records it
    tapes = []
    recorded: dict[int, list] = {}  # id(tape) -> dtype of each output the tape recorded

    class RecordingTape(ad.Tape):
        def __enter__(self):
            tapes.append(self)
            return super().__enter__()

    record = ad._record

    def observed_record(out, inputs, backward_fn):
        tape = ad._TAPE_STACK[-1] if ad._TAPE_STACK else None
        before = len(tape.nodes) if tape is not None else 0
        out = record(out, inputs, backward_fn)
        if tape is not None and len(tape.nodes) > before:
            recorded.setdefault(id(tape), []).append(out.dtype)
        return out

    def output_dtypes(tape) -> set:
        dtypes = recorded.get(id(tape), [])
        assert len(dtypes) == len(tape.nodes)
        return set(dtypes)

    monkeypatch.setattr(training, "Tape", RecordingTape)
    monkeypatch.setattr(ad, "_record", observed_record)
    model = tiny_model(dtype="float32")
    batch = make_training_batch(tiny_dataset(), LossConfig(), np.random.default_rng(0), 16)
    loss = train_step(model, batch, OptimizerState.for_model(model), TrainConfig())
    assert math.isfinite(loss)
    assert len(tapes) == 2
    for tape in tapes:
        assert output_dtypes(tape) == {np.dtype(np.float32)}
    assert all(p.grad.dtype == np.float32 for p in model.params.values() if p.grad is not None)

    x = tiny_dataset()[0][0]
    with ad.Tape() as tape:
        decode(model, x, DecodeConfig(mode="parallel", max_output_length=6))
    assert tape.nodes and output_dtypes(tape) == {np.dtype(np.float32)}
    assert model.log_probs(model.encode(x), (x[0],)).dtype == np.float32


def test_train_zero_steps_checkpoint_equals_init(tmp_path):
    model = tiny_model()
    init = {k: p.data.copy() for k, p in model.params.items()}
    run_dir = str(tmp_path / "run")
    train(model, tiny_dataset(), LossConfig(), TrainConfig(steps=0, seed=1), run_dir=run_dir)
    loaded, _ = checkpoint.load(os.path.join(run_dir, "ckpt-0.insr"))
    for k, v in init.items():
        np.testing.assert_array_equal(loaded.params[k].data, v)


def test_train_loss_decreases_on_copy():
    model = tiny_model(dtype="float32")
    dataset = tiny_dataset(60)
    config = TrainConfig(steps=200, batch_size=16, seed=7, checkpoint_interval=0)
    _, history = train(model, dataset, LossConfig(order="uniform"), config)
    losses = [l for _, l in history]
    smoothed = np.convolve(losses, np.ones(50) / 50, mode="valid")
    assert smoothed[-1] < smoothed[0]


def test_train_rerun_is_bit_identical():
    def run():
        model = tiny_model(dtype="float32")
        _, history = train(
            model, tiny_dataset(30), LossConfig(), TrainConfig(steps=12, batch_size=8, seed=3, checkpoint_interval=0)
        )
        return history

    assert run() == run()


def test_train_writes_the_log_and_the_checkpoints_its_config_asks_for(tmp_path):
    run = tmp_path / "run"
    config = TrainConfig(steps=4, batch_size=4, seed=1, checkpoint_interval=2)
    train(tiny_model(dtype="float32"), tiny_dataset(20), LossConfig(), config, run_dir=str(run))
    assert set(os.listdir(run)) == {"metrics.log", "ckpt-2.insr", "ckpt-4.insr"}


def test_nan_loss_aborts_with_snapshot(tmp_path):
    model = tiny_model(dtype="float32")
    model.params["embed"].data[:] = np.nan
    run_dir = str(tmp_path / "run")
    ad.set_finite_checks(False)  # exercise the loop's own guard, not the op-level one
    with pytest.raises(TrainingDiverged, match="step 1"):
        train(
            model,
            tiny_dataset(10),
            LossConfig(),
            TrainConfig(steps=3, batch_size=4, seed=0, checkpoint_interval=0),
            run_dir=run_dir,
        )
    assert os.path.exists(os.path.join(run_dir, "diverged.json"))


def test_gradients_nonzero_for_influencing_params():
    model = tiny_model()
    dataset = tiny_dataset(10)
    batch = make_training_batch(dataset, LossConfig(), np.random.default_rng(4), 4)
    model.zero_grads()
    with ad.Tape() as tape:
        loss = batch_loss(model, batch)
    ad.backward(tape, loss)
    for name, p in model.params.items():
        assert p.grad is not None and np.abs(p.grad).sum() > 0, name


def _padded_batch() -> list[BatchItem]:
    """Items of distinct source lengths and more than one canvas length, so both sides are padded."""
    batch = make_training_batch(tiny_dataset(), LossConfig(), np.random.default_rng(3), 12)
    batch = list({len(it.x): it for it in batch}.values())
    assert len(batch) >= 3
    assert len({len(it.x) for it in batch}) > 1 and len({len(it.canvas) for it in batch}) > 1
    return batch


def _loss_and_grads(model, batch) -> tuple[float, dict[str, np.ndarray]]:
    model.zero_grads()
    with ad.Tape() as tape:
        loss = batch_loss(model, batch)
    ad.backward(tape, loss)
    grads = {k: np.zeros_like(p.data) if p.grad is None else p.grad.copy() for k, p in model.params.items()}
    return loss.item(), grads


@pytest.mark.parametrize(
    "variant",
    [{}, {"head_variant": "factorized", "use_contextual_bias": True, "mos_components": 2}],
    ids=["joint", "factorized-bias-mos"],
)
def test_padded_batch_equals_the_mean_of_its_single_item_runs(variant):
    # padded rows must reach neither the loss nor any gradient: a padded
    # batch is the 1/B-weighted sum of its items run alone, which pad nothing
    model = tiny_model(**variant)
    batch = _padded_batch()
    loss, grads = _loss_and_grads(model, batch)
    singles = [_loss_and_grads(model, [item]) for item in batch]
    B = len(batch)
    assert loss == pytest.approx(sum(l for l, _ in singles) / B, rel=1e-12)
    atol = 1e-12 * max(float(np.abs(g).max()) for g in grads.values())
    for k, g in grads.items():
        np.testing.assert_allclose(g, sum(gs[k] for _, gs in singles) / B, rtol=0, atol=atol, err_msg=k)


def test_position_wise_layers_see_only_real_rows(monkeypatch):
    # every encoder and decoder projection runs on the real rows of a padded
    # batch: sum(src_len) source rows and sum(canvas_len + 2) decoder rows
    model = tiny_model()
    names = {id(p): k for k, p in model.params.items()}
    seen = []
    affine = ad.affine

    def spy(x, w, b):
        seen.append((names[id(w)], x.size // x.shape[-1]))
        return affine(x, w, b)

    monkeypatch.setattr(ad, "affine", spy)
    batch = _padded_batch()
    batch_loss(model, batch)
    src_rows = sum(len(it.x) for it in batch)
    dec_rows = sum(len(it.canvas) + 2 for it in batch)
    assert src_rows < len(batch) * max(len(it.x) for it in batch)
    assert dec_rows < len(batch) * (max(len(it.canvas) for it in batch) + 2)

    def real_rows(name):  # cross-attention keys and values project the encoder's rows
        return src_rows if name.startswith("enc") or ".cross.wk" in name or ".cross.wv" in name else dec_rows

    layer_calls = [(name, rows) for name, rows in seen if name.startswith(("enc", "dec"))]
    assert layer_calls == [(name, real_rows(name)) for name, _ in layer_calls]
    # q, k, v, o and the FFN's two per encoder layer; two attention blocks plus the FFN per decoder layer
    assert len(layer_calls) == 16 * model.config.num_layers


def test_length_buckets_group_items_by_source_length(monkeypatch):
    batch = make_training_batch(tiny_dataset(), LossConfig(), np.random.default_rng(8), 32)
    buckets = training._length_buckets(batch)
    assert [len(g) for g in buckets] == [8, 8, 8, 8]
    assert sorted(id(it) for g in buckets for it in g) == sorted(id(it) for it in batch)
    keys = [(len(it.x), len(it.canvas)) for g in buckets for it in g]
    assert keys == sorted(keys)  # source length first, then canvas length
    with monkeypatch.context() as m:
        m.setattr(training, "MICRO_BATCH", 32)
        assert training._length_buckets(batch) == [batch]
    assert [len(g) for g in training._length_buckets(batch[:20])] == [8, 8, 4]


def test_micro_batch_size_does_not_change_the_step(monkeypatch):
    # the loss is a weighted sum of micro-batch means, so its gradient is the
    # same weighted sum of per-micro-batch gradients, accumulated in p.grad
    batch = make_training_batch(tiny_dataset(), LossConfig(), np.random.default_rng(6), 32)
    results = []
    for micro_batch in (len(batch), 3, 8):
        monkeypatch.setattr(training, "MICRO_BATCH", micro_batch)
        model = tiny_model()
        loss = train_step(model, batch, OptimizerState.for_model(model), TrainConfig(clip_norm=0.0))
        results.append((loss, {k: p.grad.copy() for k, p in model.params.items()}))
    ref_loss, ref_grads = results[0]
    atol = 1e-12 * max(float(np.abs(g).max()) for g in ref_grads.values())
    for loss, grads in results[1:]:
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for k, g in grads.items():
            np.testing.assert_allclose(g, ref_grads[k], rtol=0, atol=atol, err_msg=k)


def test_train_step_memory_is_bounded_by_micro_batch():
    # one micro-batch's tape is alive at a time, so a step's peak memory does
    # not grow with the batch size
    cfg = load_config(None, ["task.kind=copy", "task.num_train=256", "task.num_dev=1"])
    train_set, _ = generate_datasets(cfg.task)
    model = InsertionModel(cfg.resolved_model(), seed=0)
    opt_state = OptimizerState.for_model(model)
    config = TrainConfig()

    def step_peak(batch_size: int) -> int:
        batch = make_training_batch(train_set, cfg.loss, np.random.default_rng(batch_size), batch_size)
        tracemalloc.start()
        try:
            train_step(model, batch, opt_state, config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert step_peak(64) <= 1.5 * step_peak(8)


def test_a_tape_holds_less_than_its_op_outputs(monkeypatch):
    # nodes keep only the arrays their backward reads, not every op output:
    # after the forward of a pinned micro-batch (the longest of a seeded
    # batch), the tape holds well under the summed size of all outputs
    cfg = load_config(None, ["task.kind=copy", "task.num_train=256", "task.num_dev=1"])
    train_set, _ = generate_datasets(cfg.task)
    model = InsertionModel(cfg.resolved_model(), seed=0)
    batch = make_training_batch(train_set, cfg.loss, np.random.default_rng(0), 64)
    group = training._length_buckets(batch)[-1]
    output_bytes = 0
    record = ad._record

    def counting_record(out, inputs, backward_fn):
        nonlocal output_bytes
        output_bytes += out.data.nbytes
        return record(out, inputs, backward_fn)

    monkeypatch.setattr(ad, "_record", counting_record)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with ad.Tape() as tape:
            loss = batch_loss(model, group)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tape.nodes and loss.requires_grad
    assert held <= 0.85 * output_bytes, (held, output_bytes)
