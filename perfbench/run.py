#!/usr/bin/env python3
"""insgen benchmark: one offline workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload train-copy --seed 1 --seconds 60 --trace 0

Workloads (closed loop, one caller, no extra threads):

  train-copy     `training.train` from step 1 on the copy task, in rounds of
                 a fixed step count, each with a fresh model and a fresh
                 temporary run directory
  eval-parallel  `tasks.evaluate` in parallel mode on a seeded dev slice,
                 decoding with the pinned checkpoint data/copy-btree.insr
  eval-greedy    the same in greedy mode

The workload seed derives the data seed; the program only sees generated
inputs. Set-up (imports, data generation, model build or checkpoint load,
warm-up) runs before timing and counts in `setup_s`. The run then repeats
rounds until `--seconds` have passed and enough ops were timed for the tail
percentile. Each train step or decoded sentence is one op. Timings are taken
in the run's fast phases (the low decile of per-round medians, and so on),
because a shared host can run the same code much slower for minutes at a
time; README.md has the details.

With `--trace 0` only the op itself is timed. With `--trace 1` the first
half of the time runs untimed by spans, the second half with span wrappers
on every measured public function (see tracer.py); the run reports per-layer
metrics and the tracing overhead. Human-readable lines go first; the last
line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile

import common

SETUP_REPS = 3
SPAN_CAP = 200_000  # a traced run stops adding rounds past this many spans
SEED_TAG = 0x1B5  # mixes the workload seed into the data seed

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "items_per_s": "1/s",
    "iter_ms.p50": "ms",
    "iterations_per_op": "count",
    "error": "score",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def data_seed(seed: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, SEED_TAG]).generate_state(1)[0])


class OpTimer:
    """Times every call of one function, the op of a workload, and hands its result on.

    Results are not kept, so memory use does not grow with the number of ops.
    """

    def __init__(self, owner, attr: str, on_result, on_error=None):
        orig = getattr(owner, attr)
        self.ms: list[float] = []
        self.errors: list[str] = []
        self.active = False
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            start = clock()
            try:
                out = orig(*args, **kwargs)
            except Exception as e:  # a failed op is counted, not fatal
                self.errors.append(f"{type(e).__name__}: {e}")
                if on_error is None:
                    raise
                return on_error()
            self.ms.append((clock() - start) * 1e3)
            on_result(out)
            return out

        setattr(owner, attr, timed)


class CallCounter:
    """Counts calls of one function without timing them."""

    def __init__(self, owner, attr: str):
        orig = getattr(owner, attr)
        self.calls = 0

        def counted(*args, **kwargs):
            self.calls += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, counted)


# -- workloads ---------------------------------------------------------------


class TrainCopy:
    """`training.train` from step 1 with a fresh model, default config, copy task."""

    kind = "train"
    op_name = "train step"
    STEPS = 30  # per round; fixed so the loss curve is a pure function of the seed
    LOSS_WINDOW = 10
    WARMUP_STEPS = 2
    MIN_OPS = 240  # 8 rounds; the tail comes from the faster 4: 120 steps, 12 beyond p90
    TAIL_PCT = 90
    WINDOW = STEPS  # a window is a round, so every window trains on the same batches
    # workload-specific names of the end-to-end metrics, for the printed lines
    NAMES = {
        "op_ms.p50": "train_step_ms.p50",
        "op_ms.tail": "train_step_ms.tail",
        "items_per_s": "train_items_per_s",
        "iter_ms.p50": "train_pass_ms.p50",
        "iterations_per_op": "train_passes_per_step",
        "error": "train_loss_last",
    }

    def __init__(self, seed: int):
        from insgen import training

        self.seed = data_seed(seed)
        self.losses: list[float] = []
        self.timer = OpTimer(training, "train_step", on_result=lambda loss: self.losses.append(float(loss)))
        self.passes = CallCounter(training, "batch_loss")
        self.round_rates: list[float] = []
        self.passes_per_op: list[int] = []
        self.first_round: list[float] | None = None
        self.failures: list[str] = []

    def setup(self) -> None:
        from insgen import config, tasks, training
        from insgen.model import InsertionModel

        cfg = config.load_config(
            None,
            ["task.kind=copy", f"task.seed={self.seed}", f"train.seed={self.seed}", f"train.steps={self.STEPS}"],
        )
        train_set, _ = tasks.generate_datasets(cfg.task)
        warm = InsertionModel(cfg.resolved_model(), seed=cfg.train.seed)
        with tempfile.TemporaryDirectory(prefix="run-", dir=common.OUT_DIR) as run_dir:
            training.train(
                warm, train_set, cfg.loss, dataclasses.replace(cfg.train, steps=self.WARMUP_STEPS), run_dir=run_dir
            )
        self.cfg, self.train_set = cfg, train_set
        self.extra = {
            "vocab": list(cfg.task.vocab().tokens),
            "loss": dataclasses.asdict(cfg.loss),
            "task": dataclasses.asdict(cfg.task),
            "decode": dataclasses.asdict(cfg.decode),
        }

    def run_round(self) -> None:
        from insgen import training
        from insgen.model import InsertionModel

        cfg = self.cfg
        model = InsertionModel(cfg.resolved_model(), seed=cfg.train.seed)
        first_op = len(self.losses)
        first_err = len(self.timer.errors)
        with tempfile.TemporaryDirectory(prefix="run-", dir=common.OUT_DIR) as run_dir:
            start = time.perf_counter()
            passes_before = self.passes.calls
            try:
                training.train(model, self.train_set, cfg.loss, cfg.train, run_dir=run_dir, extra_meta=self.extra)
            except training.TrainingDiverged:
                pass  # the step's non-finite loss is counted as failed
            except Exception as e:  # the round stops; a raising step is already counted
                if len(self.timer.errors) == first_err:
                    self.failures.append(f"{type(e).__name__}: {e}")
            wall = time.perf_counter() - start
        losses = self.losses[first_op:]
        steps = len(losses)
        if steps:
            self.round_rates.append(steps * cfg.train.batch_size / wall)
            self.passes_per_op.append((self.passes.calls - passes_before) / steps)
        if self.first_round is None:
            self.first_round = losses

    def finish(self) -> None:
        """Nothing left to run: the loss figures come from the first round."""

    def ops(self) -> int:
        return len(self.timer.ms) + len(self.timer.errors) + len(self.failures)

    def failed(self) -> int:
        nonfinite = sum(not math.isfinite(x) for x in self.losses)
        return len(self.timer.errors) + len(self.failures) + nonfinite

    def iter_ms(self) -> list[float]:
        ppo = statistics.median(self.passes_per_op) if self.passes_per_op else 1.0
        return [ms / ppo for ms in self.timer.ms]

    def checks(self) -> list[str]:
        problems = []
        losses = self.first_round or []
        if not all(math.isfinite(x) for x in self.losses):
            problems.append("non-finite training loss")
        elif len(losses) < self.STEPS:
            problems.append(f"first round ran {len(losses)} of {self.STEPS} steps")
        else:
            first, last = self._windows()
            if not last < first:
                problems.append(f"loss did not fall: first steps {first:.4f}, last steps {last:.4f}")
        return problems

    def _windows(self) -> tuple[float, float]:
        losses = self.first_round
        return statistics.fmean(losses[: self.LOSS_WINDOW]), statistics.fmean(losses[-self.LOSS_WINDOW :])

    def error(self) -> tuple[float, list[tuple[str, float, str]]]:
        first, last = self._windows()
        return last, [("train_loss_first", first, "nats")]

    def iterations_per_op(self) -> float:
        return statistics.median(self.passes_per_op)


class EvalCopy:
    """`tasks.evaluate` on a seeded dev slice with the pinned checkpoint."""

    kind = "eval"
    op_name = "decoded sentence"
    PER_LENGTH = 8  # sentences of each length 1..32 in the dev slice
    PARTS = 4  # each round evaluates one part: 2 sentences of each length
    WARMUP_EVERY = 32  # warm-up decodes every 32nd sentence of the slice
    MIN_OPS = 2000  # the tail comes from half of them: 1000 sentences, 10 beyond p99
    TAIL_PCT = 99
    WINDOW = PER_LENGTH * common.MAX_LENGTH // PARTS  # one round: 64 sentences
    NAMES = {
        "op_ms.p50": "decode_sent_ms.p50",
        "op_ms.tail": "decode_sent_ms.tail",
        "items_per_s": "decode_sent_per_s",
        "iter_ms.p50": "decode_iter_ms.p50",
        "iterations_per_op": "eval_mean_iterations",
        "error": "eval_token_error_rate",
    }

    def __init__(self, seed: int, mode: str):
        from insgen import tasks
        from insgen.decoding import DecodeTrace

        self.seed = data_seed(seed)
        self.mode = mode
        self.meta = common.load_meta()
        with open(common.CKPT_PATH, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        if digest != self.meta["sha256"]:
            raise RuntimeError(f"{common.CKPT_PATH} does not match its recorded sha256")
        self.timer = OpTimer(
            tasks, "decode", on_result=self._decoded, on_error=lambda: ((), DecodeTrace(truncated=True))
        )
        self.iterations: list[int] = []
        self.truncated = 0
        self.problems: set[str] = set()
        self.round_rates: list[float] = []
        self.report = None

    def setup(self) -> None:
        from insgen import checkpoint, tasks

        model, extra = checkpoint.load(common.CKPT_PATH)
        pairs = common.dev_slice(self.seed, self.PER_LENGTH)
        cfg = common.decode_config(extra, self.mode, self.meta["beta"])
        tasks.evaluate(model, pairs[:: self.WARMUP_EVERY], cfg)
        self.model, self.pairs, self.cfg = model, pairs, cfg

    def run_round(self) -> None:
        from insgen import tasks

        part = self.pairs[len(self.round_rates) % self.PARTS :: self.PARTS]
        start = time.perf_counter()
        tasks.evaluate(self.model, part, self.cfg)
        self.round_rates.append(len(part) / (time.perf_counter() - start))

    def finish(self) -> None:
        """Untimed evaluation of the whole slice, for the quality figures."""
        from insgen import tasks

        self.report = tasks.evaluate(self.model, self.pairs, self.cfg)

    def _decoded(self, result) -> None:
        from insgen.decoding import iteration_lower_bound
        from insgen.vocab import NUM_RESERVED

        out, trace = result
        self.iterations.append(trace.iterations)
        self.truncated += trace.truncated
        if any(tok < NUM_RESERVED for tok in out):
            self.problems.add(f"reserved id in output {out}")
        if self.mode == "parallel" and out and not trace.truncated:
            if trace.insertion_iterations < iteration_lower_bound(len(out)):
                self.problems.add(
                    f"length-{len(out)} output in {trace.insertion_iterations} iterations, below floor(log2 n)+1"
                )

    def ops(self) -> int:
        return len(self.timer.ms) + len(self.timer.errors)

    def failed(self) -> int:
        return len(self.timer.errors) + self.truncated

    def iter_ms(self) -> list[float]:
        return [ms / max(1, n) for ms, n in zip(self.timer.ms, self.iterations)]

    def checks(self) -> list[str]:
        return sorted(self.problems)

    def error(self) -> tuple[float, list[tuple[str, float, str]]]:
        r = self.report
        ref_len = statistics.fmean(len(y) for _, y in self.pairs)
        return r.mean_edit_distance / ref_len, [
            ("eval_bleu", r.bleu, "BLEU"),
            ("eval_seq_acc", r.sequence_accuracy, "ratio"),
            ("eval_mean_iterations", r.mean_insertion_iterations, "count"),
            ("eval_mean_output_length", r.mean_output_length, "tokens"),
            ("eval_truncated", r.truncated, "count"),
        ]

    def iterations_per_op(self) -> float:
        return self.report.mean_insertion_iterations



WORKLOADS = {
    "train-copy": TrainCopy,
    "eval-parallel": lambda seed: EvalCopy(seed, "parallel"),
    "eval-greedy": lambda seed: EvalCopy(seed, "greedy"),
}


# -- measurement ---------------------------------------------------------------


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # older numpy without mode="dicts"
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def tail(values: list[float], pct: int) -> float:
    import numpy as np

    return float(np.percentile(values, pct))


def low_decile(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[0] if len(values) > 1 else values[0]


def high_decile(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def windows(values: list[float], size: int) -> list[list[float]]:
    return [values[i : i + size] for i in range(0, len(values) - size + 1, size)] or [values]


def fast_median(values: list[float], size: int) -> float:
    """Low decile of the medians of consecutive windows: the median op in the run's fast phases."""
    return low_decile([statistics.median(w) for w in windows(values, size)])


def fast_half(values: list[float], size: int) -> list[float]:
    """The ops of the faster half of the windows, ranked by window median."""
    ranked = sorted(windows(values, size), key=statistics.median)
    return [v for w in ranked[: max(1, len(ranked) // 2)] for v in w]


def measure(workload, seconds: float, min_ops: int, full=lambda: False) -> None:
    """Run whole rounds for about `seconds`, and until at least `min_ops` ops were attempted.

    A round starts only if it is expected to end before the deadline, so a
    run measures close to `seconds` whatever the round length. No round
    starts once `full()` is true.
    """
    start = time.perf_counter()
    ops_before = workload.ops()
    rounds = 0
    workload.timer.active = True
    while True:
        workload.run_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if workload.ops() - ops_before >= min_ops and (elapsed * (rounds + 1) / rounds > seconds or full()):
            break
    workload.timer.active = False


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        common.import_insgen()
    except (common.MissingProgram, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    from insgen import checkpoint, config, decoding, model, perf, tasks, training  # noqa: F401

    perf.limit_blas_threads(1)  # as `insgen` (cli.main) does
    import_s = time.perf_counter() - _START
    env = environment()
    os.makedirs(common.OUT_DIR, exist_ok=True)

    import tracer as tracing

    workload = WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    setup_s = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)

    lines = [
        f"workload {args.workload}  seed {args.seed}  data seed {workload.seed}  trace {args.trace}",
        "env " + "  ".join(f"{k}={v}" for k, v in env.items()),
    ]
    if tracer is None:
        measure(workload, args.seconds, workload.MIN_OPS)
    else:
        tracer.uninstall()
        measure(workload, args.seconds / 2, 1)
        untraced_ms = statistics.median(workload.timer.ms)
        first_traced = len(workload.timer.ms)
        tracer.install()
        tracer.start_measure()
        measure(workload, args.seconds / 2, 1, full=lambda: len(tracer.spans) >= SPAN_CAP)
        tracer.uninstall()
        traced_ms = statistics.median(workload.timer.ms[first_traced:])

    workload.finish()
    problems = workload.checks()
    attempted, failed = workload.ops(), workload.failed()
    ms = workload.timer.ms
    if not ms:
        problems.append("no op completed")
    error, error_lines = workload.error() if not problems else (0.0, [])

    if tracer is None:
        metrics = {
            "setup_s": import_s + statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "op_ms.p50": fast_median(ms, workload.WINDOW) if ms else 0.0,
            "op_ms.tail": tail(fast_half(ms, workload.WINDOW), workload.TAIL_PCT) if ms else 0.0,
            "items_per_s": high_decile(workload.round_rates) if workload.round_rates else 0.0,
            "iter_ms.p50": fast_median(workload.iter_ms(), workload.WINDOW) if ms else 0.0,
            "iterations_per_op": workload.iterations_per_op() if ms else 0.0,
            "error": error,
        }
        units = END_TO_END_UNITS
        for key, value in metrics.items():
            issue = workload.NAMES.get(key, key)
            note = (
                f"  (p{workload.TAIL_PCT} of the {len(fast_half(ms, workload.WINDOW))} {workload.op_name}s"
                f" in the faster half of {len(windows(ms, workload.WINDOW))} windows)"
                if key == "op_ms.tail" and ms
                else ""
            )
            lines.append(f"{key:<18} {issue:<36} {value:.6g} {units[key]}{note}")
        lines += [f"{'':<18} {name:<36} {value:.6g} {unit}" for name, value, unit in error_lines]
        lines.append(f"{'':<18} {'failed_frac':<36} {failed / max(1, attempted):.6g} ratio  ({failed} of {attempted})")
        lines.append(f"{'':<18} {'setup_s runs':<36} import {import_s:.3f} s + median of {[round(s, 3) for s in setup_s]}")
        result_units = units
    else:
        metrics = tracer.layer_metrics(max(1, len(ms) - first_traced), SETUP_REPS, workload.kind)
        metrics["trace.overhead_ms"] = traced_ms - untraced_ms
        metrics["trace.overhead_frac"] = (traced_ms - untraced_ms) / untraced_ms
        for key, value in metrics.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            lines.append(f"{key:<36} {shown} {per_layer_unit(key)}")
        lines.append(
            f"op ms untraced {untraced_ms:.3f}, traced {traced_ms:.3f} "
            f"(median per {workload.op_name}; {len(ms) - first_traced} traced ops, {len(tracer.spans)} spans)"
        )
        span_path = os.path.join(common.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(span_path, {"workload": args.workload, "seed": args.seed, "env": env})
        lines.append(f"spans written to {os.path.relpath(span_path, common.ROOT)}")
        metrics = {k: (0.0 if v is None else v) for k, v in metrics.items()}
        result_units = {k: per_layer_unit(k) for k in metrics}

    lines += [f"failed op: {msg}" for msg in (workload.timer.errors + getattr(workload, "failures", []))[:5]]
    for problem in problems:
        lines.append(f"CHECK FAILED: {problem}")
    print("\n".join(lines))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": result_units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
