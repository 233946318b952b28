#!/usr/bin/env python3
"""Train the pinned copy-task checkpoint that the eval workloads decode with.

Trains the binary-tree / slot-termination copy model deterministically with
`training.train`, copies the final checkpoint to data/copy-btree.insr, then
sweeps the terminal penalty beta on a seeded dev slice in both decode modes
and pins the beta whose mean output length is closest to the reference with
no truncated sentence and no output at the length cap. The step count, beta,
sweep and baseline eval reports go to data/copy-btree.json.

    python3 perfbench/make_checkpoint.py

The checkpoint is committed so that later changes to the training path
cannot change what the eval workloads decode.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import sys
import tempfile

import common

STEPS = 3000
SEED = 0
SWEEP_SEED = 999  # used as is; run.py hashes its workload seeds, so their slices differ
SWEEP_PER_LENGTH = 8
BETAS = [0.5 * i for i in range(9)]  # 0 .. 4


def train_checkpoint(steps: int, seed: int) -> None:
    from insgen import config, training
    from insgen.model import InsertionModel
    from insgen.tasks import generate_datasets

    cfg = config.load_config(
        None,
        [
            "task.kind=copy",
            "loss.order=binary_tree",
            "loss.temperature=1.0",
            "loss.termination=slot",
            f"train.steps={steps}",
            f"train.seed={seed}",
            f"train.checkpoint_interval={steps}",
        ],
    )
    train_set, _ = generate_datasets(cfg.task)
    model = InsertionModel(cfg.resolved_model(), seed=seed)
    extra = {
        "vocab": list(cfg.task.vocab().tokens),
        "loss": dataclasses.asdict(cfg.loss),
        "task": dataclasses.asdict(cfg.task),
        "decode": dataclasses.asdict(cfg.decode),
    }
    os.makedirs(common.OUT_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="ckpt-", dir=common.OUT_DIR)
    try:
        _, history = training.train(model, train_set, cfg.loss, cfg.train, run_dir=run_dir, extra_meta=extra)
        os.makedirs(os.path.dirname(common.CKPT_PATH), exist_ok=True)
        shutil.copyfile(os.path.join(run_dir, f"ckpt-{steps}.insr"), common.CKPT_PATH)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    tail = [loss for _, loss in history[-50:]]
    print(f"trained {steps} steps; mean loss over the last 50 steps {sum(tail) / len(tail):.4f}")


def report_dict(report) -> dict:
    d = dataclasses.asdict(report)
    d.pop("rows")
    return d


def sweep(steps: int, seed: int) -> dict:
    from insgen import checkpoint, tasks

    model, extra = checkpoint.load(common.CKPT_PATH)
    pairs = common.dev_slice(SWEEP_SEED, SWEEP_PER_LENGTH)
    ref_len = sum(len(y) for _, y in pairs) / len(pairs)
    rows = []
    for beta in BETAS:
        row = {"beta": beta}
        for mode in ("parallel", "greedy"):
            cfg = common.decode_config(extra, mode, beta)
            outputs = []
            orig_decode = tasks.decode

            def recording_decode(policy, x, config):
                out, trace = orig_decode(policy, x, config)
                outputs.append(out)
                return out, trace

            tasks.decode = recording_decode
            try:
                report = tasks.evaluate(model, pairs, cfg)
            finally:
                tasks.decode = orig_decode
            row[mode] = report_dict(report)
            row[mode]["max_output_length_seen"] = max(len(o) for o in outputs)
            row[mode]["cap"] = cfg.max_output_length
        rows.append(row)
        print(
            f"beta={beta:g}  ref_len={ref_len:.3f}  "
            + "  ".join(
                f"{m}: len={row[m]['mean_output_length']:.3f} bleu={row[m]['bleu']:.2f} "
                f"acc={row[m]['sequence_accuracy']:.3f} it={row[m]['mean_insertion_iterations']:.3f} "
                f"trunc={row[m]['truncated']} max={row[m]['max_output_length_seen']}"
                for m in ("parallel", "greedy")
            )
        )

    def admissible(row) -> bool:
        return all(
            row[m]["truncated"] == 0 and row[m]["max_output_length_seen"] < row[m]["cap"]
            for m in ("parallel", "greedy")
        )

    def length_error(row) -> float:
        return max(abs(row[m]["mean_output_length"] - ref_len) for m in ("parallel", "greedy"))

    candidates = [r for r in rows if admissible(r)]
    if not candidates:
        raise SystemExit("no beta keeps every output below the length cap")
    best = min(candidates, key=lambda r: (length_error(r), r["beta"]))
    with open(common.CKPT_PATH, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    return {
        "checkpoint": os.path.relpath(common.CKPT_PATH, common.ROOT),
        "sha256": digest,
        "train_steps": steps,
        "train_seed": seed,
        "config_overrides": [
            "task.kind=copy",
            "loss.order=binary_tree",
            "loss.temperature=1.0",
            "loss.termination=slot",
        ],
        "beta": best["beta"],
        "sweep_slice": {"seed": SWEEP_SEED, "per_length": SWEEP_PER_LENGTH, "mean_reference_length": ref_len},
        "baseline": {m: best[m] for m in ("parallel", "greedy")},
        "sweep": rows,
    }


def main() -> int:
    common.import_insgen()
    from insgen import perf

    perf.limit_blas_threads(1)
    train_checkpoint(STEPS, SEED)
    meta = sweep(STEPS, SEED)
    with open(common.CKPT_META, "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"pinned beta={meta['beta']:g}; wrote {os.path.relpath(common.CKPT_META, common.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
