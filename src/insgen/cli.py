"""Command-line interface: train, decode, eval, trace-render.

Exit codes: 0 success, 1 usage or config error, 2 runtime abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .canvas import TokenSeq
from .checkpoint import CheckpointError, load as load_checkpoint
from .config import ConfigError, build_section, load_config, write_effective_config
from .decoding import (
    DecodeConfig,
    TraceFormatError,
    beta_sweep_values,
    decode,
    read_trace,
    render_trace,
    write_trace,
)
from .model import InsertionModel
from .perf import limit_blas_threads
from .tasks import (
    CorpusFormatError,
    evaluate,
    generate_datasets,
    load_corpus,
    save_corpus,
)
from .training import TrainingDiverged, train
from .vocab import Vocab

USAGE_ERROR = 1
RUNTIME_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="insgen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write a run directory")
    p_train.add_argument("--config", help="JSON run config", default=None)
    p_train.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="SECTION.KEY=VALUE"
    )
    p_train.add_argument("--run-dir", required=True)

    p_dec = sub.add_parser("decode", help="decode inputs with a trained checkpoint")
    p_dec.add_argument("--checkpoint", required=True)
    src = p_dec.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="file with one whitespace-tokenized source per line")
    src.add_argument("--tokens", help="inline source tokens")
    p_dec.add_argument("--mode", choices=("greedy", "parallel"), default=None)
    p_dec.add_argument("--beta", type=float, default=None, help="terminal-token penalty")
    p_dec.add_argument("--max-output-length", type=int, default=None)
    p_dec.add_argument("--trace", help="write iteration-level trace file(s)")

    p_eval = sub.add_parser("eval", help="decode a dataset and report metrics")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", default=None, help="tab-separated corpus (default: the task's dev split)")
    p_eval.add_argument("--mode", choices=("greedy", "parallel"), default=None)
    p_eval.add_argument("--beta", type=float, default=None)
    p_eval.add_argument("--sweep-beta", default=None, metavar="START:STOP:STEP")
    p_eval.add_argument("--out-dir", default=None)
    p_eval.add_argument("--limit", type=int, default=None, help="evaluate only the first N pairs")

    p_tr = sub.add_parser("trace-render", help="render a trace file as an insertion diagram")
    p_tr.add_argument("trace_file")
    return parser


def _decode_config_from(model: InsertionModel, extra: dict, mode, beta, max_output_length) -> DecodeConfig:
    base = dict(extra.get("decode", {}))
    base.pop("max_iterations", None)  # stored by older checkpoints; the option is gone
    flags = {
        "mode": mode,
        "eos_penalty": beta,
        "max_output_length": max_output_length,
        "termination": extra.get("loss", {}).get("termination"),
    }
    base.update({key: value for key, value in flags.items() if value is not None})
    cfg = build_section("decode", DecodeConfig, base)
    # the decoder scores canvases of up to max_output_length tokens, plus two markers
    n, positions = cfg.max_output_length, model.config.max_positions
    if n + 2 > positions:
        raise ConfigError(f"max_output_length {n} needs {n + 2} decoder positions; the model has {positions}")
    return cfg


def cmd_train(args) -> int:
    config = load_config(args.config, args.overrides)
    os.makedirs(args.run_dir, exist_ok=True)
    write_effective_config(os.path.join(args.run_dir, "config.effective"), config)
    train_set, dev_set = generate_datasets(config.task)
    vocab = config.task.vocab()
    save_corpus(os.path.join(args.run_dir, "dev.tsv"), dev_set, vocab)
    model_config = config.resolved_model()
    if model_config.vocab_size < len(vocab):
        raise ConfigError(
            f"model vocab_size {model_config.vocab_size} smaller than task vocab {len(vocab)}"
        )
    model = InsertionModel(model_config, seed=config.train.seed)
    extra = {
        "vocab": list(vocab.tokens),
        "loss": dataclasses.asdict(config.loss),
        "task": dataclasses.asdict(config.task),
        "decode": dataclasses.asdict(config.decode),
    }
    train(
        model,
        train_set,
        config.loss,
        config.train,
        run_dir=args.run_dir,
        extra_meta=extra,
    )
    print(f"run complete: {args.run_dir} (final checkpoint ckpt-{config.train.steps}.insr)")
    return 0


def _load_model(path: str) -> tuple[InsertionModel, dict, Vocab]:
    model, extra = load_checkpoint(path)
    if "vocab" not in extra:
        raise CheckpointError(f"{path}: checkpoint carries no vocabulary")
    return model, extra, Vocab(tokens=tuple(extra["vocab"]))


def _read_sources(args, vocab: Vocab) -> list[TokenSeq]:
    if args.tokens is not None:
        lines = [args.tokens]
    else:
        with open(args.input, "r", encoding="utf-8") as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
    sources = []
    for num, line in enumerate(lines, start=1):
        try:
            sources.append(vocab.encode(line))
        except KeyError as e:
            raise CorpusFormatError(f"input line {num}: {e.args[0]}") from None
    return sources


def cmd_decode(args) -> int:
    model, extra, vocab = _load_model(args.checkpoint)
    config = _decode_config_from(model, extra, args.mode, args.beta, args.max_output_length)
    sources = _read_sources(args, vocab)
    for index, x in enumerate(sources):
        out, trace = decode(model, x, config)
        print(vocab.decode(out))
        if args.trace:
            path = args.trace
            if len(sources) > 1:
                stem, dot, ext = args.trace.rpartition(".")
                path = f"{stem}.{index}{dot}{ext}" if dot else f"{args.trace}.{index}"
            with open(path, "w", encoding="utf-8") as f:
                write_trace(f, trace, source=x, vocab_tokens=vocab.tokens)
    return 0


def _sweep_configs(raw: str, config: DecodeConfig) -> list[DecodeConfig]:
    try:
        start, stop, step = (float(v) for v in raw.split(":"))
    except ValueError:
        raise ConfigError(f"--sweep-beta expects START:STOP:STEP, got {raw!r}") from None
    try:
        return [dataclasses.replace(config, eos_penalty=beta) for beta in beta_sweep_values(start, stop, step)]
    except ValueError as e:
        raise ConfigError(f"--sweep-beta {raw}: {e}") from None


def cmd_eval(args) -> int:
    model, extra, vocab = _load_model(args.checkpoint)
    config = _decode_config_from(model, extra, args.mode, args.beta, None)
    sweep = _sweep_configs(args.sweep_beta, config) if args.sweep_beta else None
    if args.data is not None:
        dataset, _ = load_corpus(args.data, vocab)
    else:
        task_info = extra.get("task")
        if not task_info:
            raise ConfigError("checkpoint has no task info; pass --data")
        from .tasks import TaskSpec

        _, dataset = generate_datasets(TaskSpec(**task_info))
    if args.limit:
        dataset = dataset[: args.limit]
    out_dir = args.out_dir or os.path.join(os.path.dirname(os.path.abspath(args.checkpoint)), "eval")
    os.makedirs(out_dir, exist_ok=True)

    if sweep:
        rows = [(cfg.eos_penalty, evaluate(model, dataset, cfg)) for cfg in sweep]
        best = max(rows, key=lambda r: (r[1].bleu, -r[0]))
        lines = ["beta\tsequence_accuracy\tcorpus_bleu\tmean_output_length\tmean_insertion_iterations\tbest"]
        for beta, report in rows:
            mark = "*" if beta == best[0] else ""
            lines.append(
                f"{beta:g}\t{report.sequence_accuracy:.6f}\t{report.bleu:.4f}"
                f"\t{report.mean_output_length:.4f}\t{report.mean_insertion_iterations:.4f}\t{mark}"
            )
        table = "\n".join(lines) + "\n"
        with open(os.path.join(out_dir, "sweep.tsv"), "w", encoding="utf-8") as f:
            f.write(table)
        print(table, end="")
        return 0

    report = evaluate(model, dataset, config)
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as f:
        f.write(report.render())
    with open(os.path.join(out_dir, "iterations.tsv"), "w", encoding="utf-8") as f:
        f.write(report.iteration_table())
    print(report.render(), end="")
    return 0


def cmd_trace_render(args) -> int:
    with open(args.trace_file, "r", encoding="utf-8") as f:
        trace, meta = read_trace(f)
    print(render_trace(trace, meta), end="")
    return 0


def main(argv=None) -> int:
    limit_blas_threads(1)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse --help exits 0; usage errors exit 1
        return e.code if isinstance(e.code, int) else USAGE_ERROR
    handlers = {
        "train": cmd_train,
        "decode": cmd_decode,
        "eval": cmd_eval,
        "trace-render": cmd_trace_render,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, CorpusFormatError, CheckpointError, TraceFormatError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (TrainingDiverged, RuntimeError) as e:
        print(f"aborted: {e}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
