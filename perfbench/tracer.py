"""Span tracing from outside the program: wrappers on insgen's public functions.

Each wrapper is installed at the name its caller looks up (for example
`insgen.tasks.decode`, which `tasks.evaluate` calls, or `insgen.autodiff.affine`,
which `model.py` reaches as `ad.affine`). A call records one span: name,
start, end, parent span and group. Calls that start a train step or a
sentence open a new group, so the spans of one step or sentence share an id.
Spans stay in memory and are written out once, after the measurement.

A span's layer is the module that defines the wrapped function; a layer's
self time is the time its spans cover minus the time of their child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

# autodiff ops reported by name; every other op counts as "other"
NAMED_OPS = ("affine", "attention", "layer_norm", "log_softmax", "embedding", "add", "take")
AUTODIFF_OPS = NAMED_OPS + (
    "matmul", "neg", "sub", "mul", "relu", "tanh", "softmax", "logsumexp",
    "adjacent_pairs", "max_over_axis", "tsum", "tmean", "reshape", "stack",
)
LAYERS = ("autodiff", "model", "losses", "canvas", "training", "decoding", "tasks", "checkpoint")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    """An argument passed either by position or by keyword."""
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Installs span-recording wrappers and keeps the spans of one run."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent, group, phase)
        self.counts: dict[str, float] = defaultdict(float)
        self.phase = "setup"
        self._stack: list[int] = []
        self._group = 0
        self._installed: list = []

    # -- wrappers -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, root: bool = False, observe=None) -> None:
        orig = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if root:
                self._group += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._group, self.phase)
            if observe is not None:
                observe(args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, orig))

    def start_measure(self) -> None:
        """Spans from here on are measured ones; counts restart from zero."""
        self.phase = "measure"
        self.counts.clear()

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)

    def install(self) -> None:
        """Wrap every measured public function of insgen."""
        from insgen import autodiff, checkpoint, decoding, model, tasks, training

        counts = self.counts

        def op_output(args, kwargs, out):
            counts["op_outputs"] += 1
            counts["op_outputs_f64"] += out.dtype == np.float64

        for op in AUTODIFF_OPS:
            self.wrap(autodiff, op, f"autodiff.{op}", observe=op_output)

        def tape(args, kwargs, out):
            counts["tape_nodes"] += len(_arg(args, kwargs, 0, "tape").nodes)

        self.wrap(autodiff, "backward", "autodiff.backward", observe=tape)

        M = model.InsertionModel

        def decoder_input(args, kwargs, out):
            canvas = _arg(args, kwargs, 3, "canvas")
            canvas_len = _arg(args, kwargs, 4, "canvas_len")
            B, C = canvas.shape
            counts["decoder_rows"] += B
            counts["decoder_positions"] += B * (C + 2)
            counts["decoder_pad"] += B * (C + 2) - int((canvas_len + 2).sum())

        self.wrap(M, "encode_batch", "model.encode")
        self.wrap(M, "slot_matrix_batch", "model.decoder", observe=decoder_input)
        self.wrap(M, "joint_log_probs_batch", "model.head")
        self.wrap(M, "encode", "model.encode_one")
        self.wrap(M, "log_probs", "model.log_probs")
        self.wrap(decoding, "conditional_log_probs", "model.conditional_log_probs")

        self.wrap(training, "build_slot_targets", "losses.build_slot_targets")
        self.wrap(training, "left_to_right_targets", "losses.left_to_right_targets")
        self.wrap(training, "sample_subsequence", "canvas.sample_subsequence")
        self.wrap(decoding, "apply_parallel_insertions", "canvas.apply_parallel_insertions")
        self.wrap(decoding, "apply_insertion", "canvas.apply_insertion")

        def batch_input(args, kwargs, out):
            batch = _arg(args, kwargs, 1, "batch")
            B = len(batch)
            S = max(1, max(len(it.x) for it in batch))
            C = max(len(it.canvas) for it in batch)
            real = sum(len(it.x) + len(it.canvas) for it in batch)
            counts["micro_batches"] += 1
            counts["batch_positions"] += B * (S + C)
            counts["batch_pad"] += B * (S + C) - real

        self.wrap(training, "train", "training.train")
        self.wrap(training, "make_training_batch", "training.make_training_batch", root=True)
        self.wrap(training, "train_step", "training.train_step")
        self.wrap(training, "batch_loss", "training.batch_loss", observe=batch_input)
        self.wrap(training, "clip_gradients", "training.clip_gradients")
        self.wrap(training, "adam_step", "training.adam_step")
        self.wrap(training, "save_optimizer_state", "training.save_optimizer_state")

        def decoded(args, kwargs, out):
            trace = out[1]
            counts["iterations"] += trace.iterations
            counts["insertions"] += sum(len(s.actions) for s in trace.steps)
            counts["slots_scored"] += sum(len(s.canvas_before) + 1 for s in trace.steps)

        self.wrap(tasks, "decode", "decoding.decode", root=True, observe=decoded)
        self.wrap(decoding, "parallel_step", "decoding.parallel_step")
        self.wrap(decoding, "greedy_step", "decoding.greedy_step")

        self.wrap(tasks, "evaluate", "tasks.evaluate")
        self.wrap(tasks, "edit_distance", "tasks.edit_distance")
        self.wrap(tasks, "corpus_bleu", "tasks.corpus_bleu", root=True)
        self.wrap(tasks, "generate_datasets", "tasks.generate_datasets")

        self.wrap(checkpoint, "save", "checkpoint.save")
        self.wrap(checkpoint, "load", "checkpoint.load")

    # -- report ---------------------------------------------------------------

    def write(self, path: str, header: dict) -> None:
        """JSON lines: `header` plus the field names, then one array per span (id = line index)."""
        with open(path, "w", encoding="utf-8") as f:
            fields = ["name", "start_ns", "end_ns", "parent", "group", "phase"]
            f.write(json.dumps({**header, "fields": fields}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")) + "\n")

    def layer_metrics(self, ops: int, setups: int, workload_kind: str) -> dict[str, float | None]:
        """Per-layer metrics; times and counts are per op (train step or sentence).

        `tasks.datagen_ms` and `checkpoint.load_ms` are per set-up. A value of
        None marks a metric that does not apply to the workload.
        """
        total_ms: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        setup_ms: dict[str, float] = defaultdict(float)
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent, _, phase in self.spans:
            ms = (end - start) / 1e6
            if parent >= 0:
                child_ms[parent] += ms
            if phase == "setup":
                setup_ms[name] += ms
            else:
                total_ms[name] += ms
                calls[name] += 1
        self_ms: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _, phase), children in zip(self.spans, child_ms):
            if phase == "measure":
                self_ms[name.split(".")[0]] += (end - start) / 1e6 - children

        c = self.counts
        train = workload_kind == "train"

        def per_op(x):
            return x / ops

        def only(applies: bool, value):
            return value if applies else None

        out: dict[str, float | None] = {}
        for op in NAMED_OPS + ("other",):
            names = [f"autodiff.{op}"] if op != "other" else [
                f"autodiff.{o}" for o in AUTODIFF_OPS if o not in NAMED_OPS
            ]
            out[f"autodiff.{op}.fwd_ms"] = per_op(sum(total_ms[n] for n in names))
            out[f"autodiff.{op}.calls"] = per_op(sum(calls[n] for n in names))
        out["autodiff.backward_ms"] = only(train, per_op(total_ms["autodiff.backward"]))
        out["autodiff.tape_nodes"] = only(train, per_op(c["tape_nodes"]))
        out["autodiff.f64_out_frac"] = c["op_outputs_f64"] / c["op_outputs"] if c["op_outputs"] else None

        out["model.encode_ms"] = per_op(total_ms["model.encode"])
        out["model.encode_calls"] = per_op(calls["model.encode"])
        out["model.decoder_ms"] = per_op(total_ms["model.decoder"])
        out["model.decoder_calls"] = per_op(calls["model.decoder"])
        dec_calls = calls["model.decoder"]
        out["model.decoder_rows_per_call"] = c["decoder_rows"] / dec_calls if dec_calls else None
        out["model.decoder_pad_frac"] = (
            c["decoder_pad"] / c["decoder_positions"] if c["decoder_positions"] else None
        )
        out["model.head_ms"] = per_op(total_ms["model.head"])

        out["losses.targets_ms"] = only(
            train, per_op(total_ms["losses.build_slot_targets"] + total_ms["losses.left_to_right_targets"])
        )
        out["canvas.sample_ms"] = only(train, per_op(total_ms["canvas.sample_subsequence"]))
        out["canvas.insert_ms"] = only(
            not train, per_op(total_ms["canvas.apply_parallel_insertions"] + total_ms["canvas.apply_insertion"])
        )

        out["training.batch_build_ms"] = only(train, per_op(total_ms["training.make_training_batch"]))
        out["training.forward_ms"] = only(train, per_op(total_ms["training.batch_loss"]))
        out["training.clip_ms"] = only(train, per_op(total_ms["training.clip_gradients"]))
        out["training.adam_ms"] = only(train, per_op(total_ms["training.adam_step"]))
        out["training.micro_batches_per_step"] = only(train, per_op(c["micro_batches"]))
        out["training.pad_frac"] = only(
            train, c["batch_pad"] / c["batch_positions"] if c["batch_positions"] else None
        )

        out["decoding.select_ms"] = only(
            not train,
            per_op(
                total_ms["decoding.parallel_step"]
                + total_ms["decoding.greedy_step"]
                + total_ms["model.conditional_log_probs"]
            ),
        )
        out["decoding.iterations_per_sent"] = only(not train, per_op(c["iterations"]))
        out["decoding.insertions_per_iter"] = only(
            not train, c["insertions"] / c["iterations"] if c["iterations"] else None
        )
        out["decoding.useful_slot_frac"] = only(
            not train, c["insertions"] / c["slots_scored"] if c["slots_scored"] else None
        )

        out["tasks.score_ms"] = only(
            not train, per_op(total_ms["tasks.edit_distance"] + total_ms["tasks.corpus_bleu"])
        )
        out["tasks.datagen_ms"] = setup_ms["tasks.generate_datasets"] / setups
        out["checkpoint.load_ms"] = only(not train, setup_ms["checkpoint.load"] / setups)
        out["checkpoint.save_ms"] = only(train, per_op(total_ms["checkpoint.save"]))

        for layer in LAYERS:
            out[f"{layer}.self_ms"] = per_op(self_ms[layer])
        out["trace.spans_per_op"] = per_op(sum(calls.values()))
        return out
