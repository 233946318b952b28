"""Optimization loop: canvas-sampled batches, Adam with warmup, checkpoints.

Each batch item pairs a source with ONE sampled canvas and its slot
targets; states are never reused across generation steps, every item is an
independent forward pass. The loss is the mean over items of the mean
over each item's slot losses.

A step splits the batch into micro-batches of `MICRO_BATCH` items, sorted
by source length first, then by canvas length. Each runs as one forward on
its own tape, and its backward runs right away, adding its share of the
gradient into the parameters' .grad. A tape keeps only the arrays its
backward reads (see autodiff), so step memory is one micro-batch's saved
arrays, and `MICRO_BATCH` bounds it whatever the batch size. The model's
position-wise layers run on real token rows only, so padding costs only in
attention and the slot head. Source length leads the sort key, which keeps
the encoder's S x S attention scores dense.

The batch rng for step t derives from (seed, t), so a run's batches are
a pure function of its seed.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from .autodiff import Tape, Tensor
from .canvas import sample_subsequence
from .losses import LossConfig, SlotTarget, build_slot_targets, left_to_right_targets, weighted_nll
from .model import InsertionModel
from .tasks import Dataset
from .vocab import PAD

MICRO_BATCH = 8  # 16 trains faster but holds twice the activations per pass


@dataclass
class TrainConfig:
    batch_size: int = 64
    steps: int = 5000
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_eps: float = 1e-9
    warmup_steps: int = 200
    clip_norm: float = 1.0
    seed: int = 0
    checkpoint_interval: int = 1000

    def __post_init__(self):
        for name in ("learning_rate", "adam_eps"):
            if not 0 < getattr(self, name) < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        for name in ("adam_beta1", "adam_beta2"):  # beta = 1 divides by 1 - beta**t = 0
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:  # numpy's seeding takes nonnegative integers; the config's type check takes the rest
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        # 0 means no warmup, no clipping, and a checkpoint only at the end
        for name in ("steps", "warmup_steps", "clip_norm", "checkpoint_interval"):
            if not getattr(self, name) >= 0:  # also rejects NaN
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_model(cls, model: InsertionModel) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(p.data) for k, p in model.params.items()},
            v={k: np.zeros_like(p.data) for k, p in model.params.items()},
            step=0,
        )


class TrainingDiverged(RuntimeError):
    pass


def scheduled_learning_rate(config: TrainConfig, step: int) -> float:
    """Linear warmup to the base rate, then inverse-square-root decay (step is 1-based)."""
    if config.warmup_steps <= 0:
        return config.learning_rate * step**-0.5
    return config.learning_rate * min(
        step / config.warmup_steps, (config.warmup_steps / step) ** 0.5
    )


def clip_gradients(grads: dict[str, np.ndarray], clip_norm: float) -> float:
    """Scale all gradients so the global norm is at most clip_norm (0: no clipping); returns the raw norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if 0 < clip_norm < total:
        scale = clip_norm / total
        for g in grads.values():
            g *= scale
    return total


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    config: TrainConfig,
    lr: float,
) -> None:
    """Bias-corrected Adam update, in place."""
    if set(params) != set(grads):
        raise ValueError("parameter and gradient name sets differ")
    state.step += 1
    t = state.step
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_eps
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"{name}: gradient shape {g.shape} != parameter shape {p.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        p.data -= (lr / c1) * m / (np.sqrt(v / c2) + eps)


# -- batches -----------------------------------------------------------------


@dataclass
class BatchItem:
    x: tuple[int, ...]
    y: tuple[int, ...]
    canvas: tuple[int, ...]
    targets: list[SlotTarget]


def make_training_batch(
    dataset: Dataset,
    loss_config: LossConfig,
    rng: np.random.Generator,
    batch_size: int,
) -> list[BatchItem]:
    """Draw batch_size examples (with replacement) and one sampled canvas each."""
    if not dataset:
        raise ValueError("empty dataset")
    idx = rng.integers(0, len(dataset), size=batch_size)
    items: list[BatchItem] = []
    for i in idx:
        x, y = dataset[int(i)]
        if loss_config.order == "left_to_right":
            k = int(rng.integers(0, len(y) + 1))
            items.append(BatchItem(x, y, tuple(y[:k]), left_to_right_targets(y, k)))
        else:
            kept = sample_subsequence(y, rng)
            targets = build_slot_targets(y, kept, loss_config)
            items.append(BatchItem(x, y, tuple(y[i] for i in kept), targets))
    return items


def batch_loss(model: InsertionModel, batch: list[BatchItem]) -> Tensor:
    """One forward over the batch, padded ids in, real rows through the layers; mean over items of their losses."""
    B = len(batch)
    src_len = np.array([len(it.x) for it in batch], dtype=np.int64)
    can_len = np.array([len(it.canvas) for it in batch], dtype=np.int64)
    S = max(1, int(src_len.max()))
    C = int(can_len.max())
    src = np.full((B, S), PAD, dtype=np.int64)
    canvas = np.full((B, C), PAD, dtype=np.int64)
    for b, it in enumerate(batch):
        src[b, : len(it.x)] = it.x
        canvas[b, : len(it.canvas)] = it.canvas

    cross, src_mask = model.encode_batch(src, src_len)
    H, slot_mask = model.slot_matrix_batch(cross, src_mask, canvas, can_len)
    logp = model.joint_log_probs_batch(H, slot_mask)
    return weighted_nll(logp, [it.targets for it in batch])


def train_step(
    model: InsertionModel,
    batch: list[BatchItem],
    opt_state: OptimizerState,
    config: TrainConfig,
) -> float:
    model.zero_grads()
    loss = 0.0
    for group in _length_buckets(batch):
        # one tape per micro-batch: its backward adds into p.grad, and its
        # activations are freed before the next micro-batch runs
        with Tape() as tape:
            part = ad.mul(batch_loss(model, group), len(group) / len(batch))
        ad.backward(tape, part)
        loss += part.item()
    grads = {name: p.grad for name, p in model.params.items() if p.grad is not None}
    for name, p in model.params.items():
        grads.setdefault(name, np.zeros_like(p.data))
    clip_gradients(grads, config.clip_norm)
    lr = scheduled_learning_rate(config, opt_state.step + 1)
    adam_step(model.params, grads, opt_state, config, lr=lr)
    return loss


def _length_buckets(batch: list[BatchItem]) -> list[list[BatchItem]]:
    """Split the batch into MICRO_BATCH-item micro-batches sorted by (source, canvas) length (mean loss is unchanged)."""
    if len(batch) <= MICRO_BATCH:
        return [batch]
    order = sorted(range(len(batch)), key=lambda i: (len(batch[i].x), len(batch[i].canvas), i))
    return [
        [batch[i] for i in order[s : s + MICRO_BATCH]]
        for s in range(0, len(order), MICRO_BATCH)
    ]


# No caller: perfbench/tracer.py wraps this name, so it goes when the tracer drops it (ROADMAP).
def save_optimizer_state(path: str, state: OptimizerState) -> None:
    arrays = {
        f"{group}.{name}": arr
        for group, moments in (("m", state.m), ("v", state.v))
        for name, arr in moments.items()
    }
    ckpt.write(path, {"step": state.step}, arrays)


# -- the loop ------------------------------------------------------------------


def train(
    model: InsertionModel,
    dataset: Dataset,
    loss_config: LossConfig,
    config: TrainConfig,
    run_dir: str | None = None,
    extra_meta: dict | None = None,
) -> tuple[OptimizerState, list[tuple[int, float]]]:
    """Run steps 1 to config.steps from fresh Adam moments; returns optimizer state and (step, loss) history.

    With a run_dir, appends to metrics.log and writes ckpt-{step}.insr every
    checkpoint_interval steps and at the end. Aborts on a non-finite loss
    with a diagnostic snapshot.
    """
    opt_state = OptimizerState.for_model(model)
    history: list[tuple[int, float]] = []
    log_fh = None
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
        log_fh = open(os.path.join(run_dir, "metrics.log"), "a", encoding="utf-8")
    start = time.monotonic()

    def write_checkpoint(step: int) -> None:
        if run_dir is None:
            return
        ckpt.save(os.path.join(run_dir, f"ckpt-{step}.insr"), model, extra=extra_meta or {})

    wrote_final = False
    try:
        for step in range(1, config.steps + 1):
            rng = np.random.default_rng([config.seed, step])
            batch = make_training_batch(dataset, loss_config, rng, config.batch_size)
            loss = train_step(model, batch, opt_state, config)
            if not math.isfinite(loss):
                snapshot = {
                    "step": step,
                    "loss": repr(loss),
                    "grad_norms": {
                        k: float(np.abs(p.grad).max()) if p.grad is not None else 0.0
                        for k, p in model.params.items()
                    },
                }
                if run_dir is not None:
                    with open(os.path.join(run_dir, "diverged.json"), "w") as f:
                        json.dump(snapshot, f, indent=2)
                raise TrainingDiverged(f"non-finite loss at step {step}")
            history.append((step, loss))
            if log_fh is not None:
                log_fh.write(f"step={step}\tloss={loss!r}\telapsed={time.monotonic() - start:.3f}\n")
                log_fh.flush()
            if config.checkpoint_interval > 0 and step % config.checkpoint_interval == 0:
                write_checkpoint(step)
                wrote_final = step == config.steps
        if not wrote_final:
            write_checkpoint(config.steps)
    finally:
        if log_fh is not None:
            log_fh.close()
    return opt_state, history
