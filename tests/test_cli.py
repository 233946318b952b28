"""End-to-end CLI behavior on a tiny run."""

import json
import os
import re

import numpy as np
import pytest

from insgen import checkpoint
from insgen.cli import main
from insgen.config import ConfigError, load_config
from insgen.decoding import read_trace

TINY_OVERRIDES = [
    "model.d_model=16",
    "model.num_layers=1",
    "model.num_heads=2",
    "model.d_ff=32",
    "task.content_vocab_size=6",
    "task.max_length=5",
    "task.num_train=40",
    "task.num_dev=12",
    "train.steps=8",
    "train.batch_size=8",
    "train.checkpoint_interval=0",
    "decode.max_output_length=12",
]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    run_dir = str(tmp_path_factory.mktemp("run"))
    argv = ["train", "--run-dir", run_dir]
    for o in TINY_OVERRIDES:
        argv += ["--set", o]
    assert main(argv) == 0
    return run_dir


def test_train_writes_run_directory(tiny_run):
    names = set(os.listdir(tiny_run))
    assert {"config.effective", "metrics.log", "dev.tsv", "ckpt-8.insr"} <= names
    effective = json.load(open(os.path.join(tiny_run, "config.effective")))
    assert effective["model"]["d_model"] == 16
    lines = open(os.path.join(tiny_run, "metrics.log")).read().splitlines()
    assert len(lines) == 8
    assert lines[0].startswith("step=1\tloss=")


def test_config_round_trip_reruns_identically(tiny_run, tmp_path):
    run2 = str(tmp_path / "run2")
    assert main(["train", "--config", os.path.join(tiny_run, "config.effective"), "--run-dir", run2]) == 0
    losses1 = [l.split("\t")[1] for l in open(os.path.join(tiny_run, "metrics.log")).read().splitlines()]
    losses2 = [l.split("\t")[1] for l in open(os.path.join(run2, "metrics.log")).read().splitlines()]
    assert losses1 == losses2


def test_effective_config_records_the_loss_termination(tmp_path):
    # decode.termination is not set, so it follows loss.termination
    run_dir = tmp_path / "run"
    argv = ["train", "--run-dir", str(run_dir)]
    for o in TINY_OVERRIDES + ["train.steps=1", "loss.order=uniform", "loss.termination=sequence"]:
        argv += ["--set", o]
    assert main(argv) == 0
    effective = json.load(open(run_dir / "config.effective"))
    assert effective["decode"]["termination"] == effective["loss"]["termination"] == "sequence"


def test_override_applies():
    cfg = load_config(None, ["loss.temperature=2.0"])
    assert cfg.loss.temperature == 2.0
    assert load_config(None, ["loss.temperature=2"]).loss.temperature == 2  # an int is a float


@pytest.mark.parametrize(
    "overrides, message",
    [
        pytest.param(["task.min_length=66", "task.max_length=70"], "task.max_length 70 needs 72", id="task-max-length"),
        pytest.param(["decode.max_output_length=63"], "decode.max_output_length 63 needs 65", id="decode-length"),
        pytest.param(["model.vocab_size=7"], "model vocab_size 7 smaller than task vocab", id="vocab-too-small"),
        pytest.param(["task.num_train=0"], "task.num_train is 0", id="no-train-pairs"),
    ],
)
def test_load_config_rejects_a_run_its_model_cannot_hold(overrides, message):
    # library callers get the same run checks as `insgen train`
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(None, overrides)


def test_invalid_override_key_named():
    with pytest.raises(ConfigError, match="loss.tmperature"):
        load_config(None, ["loss.tmperature=1"])


def test_unknown_key_exit_code(tmp_path):
    assert main(["train", "--run-dir", str(tmp_path / "x"), "--set", "loss.tmperature=1"]) == 1


@pytest.mark.parametrize("override", ["train.samples_per_example=2", "train.micro_batch=16"])
def test_removed_train_knobs_are_unknown_keys(tmp_path, capsys, override):
    assert main(["train", "--run-dir", str(tmp_path / "x"), "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"unknown key {override.split('=')[0]!r}" in err, err


def test_decode_inline_tokens(tiny_run, capsys):
    ckpt = os.path.join(tiny_run, "ckpt-8.insr")
    assert main(["decode", "--checkpoint", ckpt, "--tokens", "w0 w1 w2", "--mode", "greedy"]) == 0
    out = capsys.readouterr().out.strip()
    vocab_tokens = {"<pad>", "<eos>", "<eoslot>", "<left>", "<right>", "<unk>"} | {f"w{i}" for i in range(6)}
    assert all(tok in vocab_tokens for tok in out.split())


def test_decode_vocab_mismatch_errors(tiny_run, capsys):
    ckpt = os.path.join(tiny_run, "ckpt-8.insr")
    assert main(["decode", "--checkpoint", ckpt, "--tokens", "w0 zebra"]) == 1
    assert "zebra" in capsys.readouterr().err


def test_decode_trace_round_trip(tiny_run, tmp_path, capsys):
    ckpt = os.path.join(tiny_run, "ckpt-8.insr")
    trace_path = str(tmp_path / "out.trace")
    assert main(["decode", "--checkpoint", ckpt, "--tokens", "w0 w1", "--trace", trace_path]) == 0
    capsys.readouterr()
    with open(trace_path) as f:
        trace, meta = read_trace(f)
    assert meta["source"] == [6, 7]
    assert main(["trace-render", trace_path]) == 0
    rendered = capsys.readouterr().out
    assert rendered.splitlines()[0].startswith("iterations=")
    # deterministic render
    main(["trace-render", trace_path])
    assert capsys.readouterr().out == rendered


def test_multi_source_traces_number_the_file_name_not_a_dotted_directory(tiny_run, tmp_path, capsys):
    ckpt = os.path.join(tiny_run, "ckpt-8.insr")
    sources = tmp_path / "sources.txt"
    sources.write_text("w0 w1\nw2 w3 w4\n")
    trace_dir = tmp_path / "v1.2"
    trace_dir.mkdir()
    assert main(["decode", "--checkpoint", ckpt, "--input", str(sources), "--trace", str(trace_dir / "t")]) == 0
    assert sorted(os.listdir(trace_dir)) == ["t.0", "t.1"]
    for index, source in enumerate([[6, 7], [8, 9, 10]]):
        with open(trace_dir / f"t.{index}") as f:
            assert read_trace(f)[1]["source"] == source
        assert main(["trace-render", str(trace_dir / f"t.{index}")]) == 0
    # an extension stays last
    assert main(["decode", "--checkpoint", ckpt, "--input", str(sources), "--trace", str(trace_dir / "out.trace")]) == 0
    assert {"out.0.trace", "out.1.trace"} <= set(os.listdir(trace_dir))


def test_decode_input_with_no_source_line_is_a_usage_error(tiny_run, tmp_path, capsys):
    blank = tmp_path / "blank.txt"
    blank.write_text("\n   \n\t\n")
    assert main(["decode", "--checkpoint", os.path.join(tiny_run, "ckpt-8.insr"), "--input", str(blank)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(blank) in captured.err, captured.err
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_eval_reports_no_iterations_when_every_decode_is_truncated(tiny_run, tmp_path, capsys):
    # a huge terminal penalty keeps every decode inserting up to the length cap
    ckpt = os.path.join(tiny_run, "ckpt-8.insr")
    out_dir = tmp_path / "eval"
    argv = ["eval", "--checkpoint", ckpt, "--limit", "3", "--out-dir", str(out_dir)]
    assert main(argv + ["--beta", "1e9"]) == 0
    report = (out_dir / "report.txt").read_text()
    assert "truncated\t3\n" in report and "mean_insertion_iterations\tn/a\n" in report, report
    assert "median_insertion_iterations\tn/a\n" in report
    assert main(argv + ["--sweep-beta", "1e9:1e9:1"]) == 0
    rows = (out_dir / "sweep.tsv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].split("\t")[4] == "n/a", rows


def test_eval_writes_report(tiny_run, tmp_path, capsys):
    ckpt = os.path.join(tiny_run, "ckpt-8.insr")
    out_dir = str(tmp_path / "eval")
    assert main([
        "eval", "--checkpoint", ckpt, "--data", os.path.join(tiny_run, "dev.tsv"),
        "--out-dir", out_dir, "--mode", "greedy",
    ]) == 0
    report = open(os.path.join(out_dir, "report.txt")).read()
    assert "sequence_accuracy" in report
    table = open(os.path.join(out_dir, "iterations.tsv")).read().splitlines()
    assert table[0] == "length\titerations\tlower_bound\tupper_bound"
    for line in table[1:]:
        n, iters, lo, hi = (int(v) for v in line.split("\t"))
        assert lo <= max(iters, lo) and lo == n.bit_length() and hi == n


def test_eval_sweep_row_count_and_best(tiny_run, tmp_path, capsys):
    ckpt = os.path.join(tiny_run, "ckpt-8.insr")
    out_dir = str(tmp_path / "sweep")
    assert main([
        "eval", "--checkpoint", ckpt, "--out-dir", out_dir,
        "--sweep-beta", "0:7:0.5", "--mode", "greedy", "--limit", "6",
    ]) == 0
    capsys.readouterr()
    rows = open(os.path.join(out_dir, "sweep.tsv")).read().splitlines()
    assert len(rows) == 16  # header + 15 betas
    data = [r.split("\t") for r in rows[1:]]
    assert [d[0] for d in data][:3] == ["0", "0.5", "1"]
    best_rows = [d for d in data if d[5] == "*"]
    assert len(best_rows) == 1
    # best-beta BLEU is at least the beta=0 BLEU (max over a set including 0)
    beta0 = next(d for d in data if d[0] == "0")
    assert float(best_rows[0][2]) >= float(beta0[2])


def test_trace_render_malformed_reports_offset(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text('{"type": "trace", "version": 1, "final": [], "truncated": false}\n{broken\n')
    assert main(["trace-render", str(bad)]) == 1
    assert "byte offset" in capsys.readouterr().err


GOOD_HEADER = b'{"type": "trace", "version": 1, "final": [6], "truncated": false}\n'


def _record(canvas, actions):
    return json.dumps({"canvas": canvas, "actions": actions, "terminal": None}).encode() + b"\n"


@pytest.mark.parametrize(
    "content, offset",
    [
        pytest.param(b'{"type": "trace", "version": 1, "truncated": false}\n', 0, id="header-without-final"),
        pytest.param(b'[{"type": "trace"}]\n', 0, id="header-is-a-list"),
        pytest.param(GOOD_HEADER + _record([], [[6, 3, -0.1]]), len(GOOD_HEADER), id="location-outside-canvas"),
        pytest.param(GOOD_HEADER + b'{"canvas": \xff\xfe}\n', len(GOOD_HEADER), id="not-utf8"),
        pytest.param(GOOD_HEADER + _record([6], [[6, 0, -0.1]]), len(GOOD_HEADER), id="canvas-not-the-replay"),
        pytest.param(GOOD_HEADER + _record([], [[7, 0, -0.1]]) + _record([7], []), 0, id="final-not-the-replay"),
    ],
)
def test_trace_render_corrupt_trace_is_a_usage_error(tmp_path, capsys, content, offset):
    bad = tmp_path / "bad.trace"
    bad.write_bytes(content)
    assert main(["trace-render", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and f"(byte offset {offset})" in captured.err, captured.err
    assert "Traceback" not in captured.err and len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_missing_file_exit_code(capsys):
    assert main(["trace-render", "/nonexistent/file.trace"]) == 1
    assert main(["train", "--config", "/nonexistent/cfg.json", "--run-dir", "/tmp/x"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["decode", "--checkpoint", "{run}", "--tokens", "w0"], id="checkpoint-is-a-directory"),
        pytest.param(["decode", "--checkpoint", "{ckpt}", "--input", "{dir}"], id="input-is-a-directory"),
        pytest.param(["train", "--run-dir", "{file}", "--set", "train.steps=1"], id="run-dir-is-a-file"),
        pytest.param(["eval", "--checkpoint", "{ckpt}", "--limit", "2", "--out-dir", "{file}"], id="out-dir-is-a-file"),
    ],
)
def test_unreadable_path_is_a_usage_error(tiny_run, tmp_path, capsys, argv):
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    paths = {"run": tiny_run, "ckpt": os.path.join(tiny_run, "ckpt-8.insr"), "dir": str(tmp_path), "file": str(a_file)}
    assert main([a.format(**paths) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err, captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["decode", "--checkpoint", "{ckpt}", "--input", "{bad}"], id="decode-input"),
        pytest.param(["eval", "--checkpoint", "{ckpt}", "--data", "{bad}", "--out-dir", "{out}"], id="eval-data"),
        pytest.param(["train", "--config", "{bad}", "--run-dir", "{out}"], id="train-config"),
    ],
)
def test_non_utf8_input_is_a_usage_error(tiny_run, tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"w0 w1\tw0 w1\nw0 \xff\n")
    paths = {"ckpt": os.path.join(tiny_run, "ckpt-8.insr"), "bad": str(bad), "out": str(tmp_path / "out")}
    assert main([a.format(**paths) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(bad) in captured.err and "UTF-8" in captured.err, captured.err
    assert "Traceback" not in captured.err and len(captured.err.splitlines()) == 1
    assert captured.out == "" and not os.path.exists(tmp_path / "out")


def test_usage_error_exit_code(capsys):
    assert main(["decode", "--checkpoint", "x"]) == 1  # missing input source
    assert main([]) == 1


def test_output_length_past_max_positions_is_rejected(tiny_run, tmp_path, capsys):
    # the tiny run's model has 64 positions: a full 62-token canvas plus two markers fits, 63 does not
    ckpt = os.path.join(tiny_run, "ckpt-8.insr")
    argv = ["decode", "--checkpoint", ckpt, "--tokens", "w0 w1", "--mode", "parallel"]
    for too_long in ("100", "63"):
        assert main(argv + ["--max-output-length", too_long]) == 1
        assert "error:" in capsys.readouterr().err
    assert main(argv + ["--max-output-length", "62"]) == 0
    # a limit stored in the checkpoint is held to the same bound by eval
    model, extra = checkpoint.load(ckpt)
    extra["decode"]["max_output_length"] = 100
    stored = str(tmp_path / "long.insr")
    checkpoint.save(stored, model, extra=extra)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", stored, "--limit", "2", "--out-dir", str(tmp_path / "eval")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["decode", "--tokens", "w0", "--beta", "-1"], id="decode-negative-beta"),
        pytest.param(["decode", "--tokens", "w0", "--beta", "nan"], id="decode-nan-beta"),
        pytest.param(["decode", "--tokens", "w0", "--beta", "inf"], id="decode-infinite-beta"),
        pytest.param(["eval", "--limit", "2", "--beta", "inf"], id="eval-infinite-beta"),
        pytest.param(["decode", "--tokens", "w0", "--max-output-length", "-3"], id="decode-negative-length"),
        pytest.param(["eval", "--limit", "2", "--sweep-beta=-2:1:1"], id="eval-negative-sweep"),
        pytest.param(["eval", "--limit", "2", "--sweep-beta=3:1:1"], id="eval-empty-sweep"),
        pytest.param(["eval", "--limit", "2", "--sweep-beta=0:inf:1"], id="eval-infinite-sweep-stop"),
        pytest.param(["eval", "--limit", "2", "--sweep-beta=0:1:inf"], id="eval-infinite-sweep-step"),
    ],
)
def test_bad_decode_flag_is_a_usage_error(tiny_run, tmp_path, capsys, argv):
    ckpt = os.path.join(tiny_run, "ckpt-8.insr")
    out_dir = ["--out-dir", str(tmp_path / "eval")] if argv[0] == "eval" else []
    assert main(argv[:1] + ["--checkpoint", ckpt] + argv[1:] + out_dir) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err, captured.err
    assert captured.out == ""


@pytest.mark.parametrize("limit", ["0", "-2"])
def test_eval_limit_below_one_is_a_usage_error(tiny_run, tmp_path, capsys, limit):
    ckpt = os.path.join(tiny_run, "ckpt-8.insr")
    assert main(["eval", "--checkpoint", ckpt, "--limit", limit, "--out-dir", str(tmp_path / "eval")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--limit" in captured.err, captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not os.path.exists(tmp_path / "eval")


def test_truncated_checkpoint_is_a_usage_error(tiny_run, tmp_path, capsys):
    raw = open(os.path.join(tiny_run, "ckpt-8.insr"), "rb").read()
    header_len = int.from_bytes(raw[8:12], "little")
    cuts = [0, 2, 6, 10, 12, 12 + header_len // 2, 14 + header_len, 16 + header_len + 10,
            len(raw) // 2, len(raw) - 1]
    for cut in cuts:
        path = tmp_path / f"cut{cut}.insr"
        path.write_bytes(raw[:cut])
        assert main(["decode", "--checkpoint", str(path), "--tokens", "w0"]) == 1, cut
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, (cut, err)


@pytest.mark.parametrize(
    "change",
    [
        pytest.param({"dropout": 0.1}, id="unknown-field"),
        pytest.param({"head_variant": "bogus"}, id="invalid-value"),
        pytest.param({"num_heads": 3}, id="inconsistent-values"),
        pytest.param({"d_model": "wide"}, id="wrong-type"),
    ],
)
def test_bad_model_config_in_checkpoint_is_a_usage_error(tiny_run, tmp_path, capsys, change):
    raw = open(os.path.join(tiny_run, "ckpt-8.insr"), "rb").read()
    header_len = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12 : 12 + header_len])
    header["config"].update(change)
    header_b = json.dumps(header).encode()
    path = tmp_path / "bad.insr"
    path.write_bytes(raw[:8] + len(header_b).to_bytes(4, "little") + header_b + raw[12 + header_len :])
    assert main(["eval", "--checkpoint", str(path), "--limit", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and "Traceback" not in err, err


LONG_SOURCE = " ".join(["w0"] * 70)  # the tiny run's model has 64 positions


@pytest.mark.parametrize(
    "source, where",
    [
        pytest.param("", "input line 1: empty source", id="decode-empty"),
        pytest.param(LONG_SOURCE, "input line 1: source length 70 exceeds", id="decode-too-long"),
        pytest.param("\tw0", "corpus.tsv:2: empty source", id="eval-data-empty"),
        pytest.param(f"{LONG_SOURCE}\tw0", "corpus.tsv:2: source length 70 exceeds", id="eval-data-too-long"),
    ],
)
def test_bad_source_length_is_a_usage_error(tiny_run, tmp_path, capsys, source, where):
    ckpt = os.path.join(tiny_run, "ckpt-8.insr")
    if where.startswith("input"):
        argv = ["decode", "--checkpoint", ckpt, "--tokens", source]
    else:
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text(f"w0 w1\tw0 w1\n{source}\n")
        argv = ["eval", "--checkpoint", ckpt, "--data", str(corpus), "--out-dir", str(tmp_path / "eval")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and where in captured.err, captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "overrides, message",
    [
        pytest.param(["task.min_length=66", "task.max_length=70"], "task.max_length 70 needs 72", id="task-max-length"),
        pytest.param(
            ["decode.max_output_length=63"], "decode.max_output_length 63 needs 65", id="decode-max-output-length"
        ),
    ],
)
def test_train_config_longer_than_max_positions_is_a_usage_error(tmp_path, capsys, overrides, message):
    # the default model has 64 positions; a run that could not train or
    # decode at its own limits is rejected before its run directory exists
    run_dir = tmp_path / "run"
    argv = ["train", "--run-dir", str(run_dir)]
    for o in overrides:
        argv += ["--set", o]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err, captured.err
    assert "Traceback" not in captured.err
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "override, message",
    [
        pytest.param("task.num_train=0", "task.num_train is 0", id="no-train-pairs"),
        pytest.param("task.content_vocab_size=0", "content_vocab_size must be >= 1", id="no-content-tokens"),
        pytest.param("train.batch_size=0", "batch_size must be >= 1", id="empty-batch"),
    ],
)
def test_train_data_size_contract_is_a_usage_error(tmp_path, capsys, override, message):
    run_dir = tmp_path / "run"
    argv = ["train", "--run-dir", str(run_dir)]
    for o in TINY_OVERRIDES + ["train.steps=1", override]:
        argv += ["--set", o]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err, captured.err
    assert "Traceback" not in captured.err
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "override, message",
    [
        pytest.param("train.steps=-1", "steps must be >= 0", id="negative-steps"),
        pytest.param("train.warmup_steps=-3", "warmup_steps must be >= 0", id="negative-warmup"),
        pytest.param("train.clip_norm=-1", "clip_norm must be >= 0", id="negative-clip-norm"),
        pytest.param("train.checkpoint_interval=-5", "checkpoint_interval must be >= 0", id="negative-interval"),
        pytest.param("model.num_layers=0", "num_layers must be >= 1", id="no-layers"),
        pytest.param("task.content_vocab_size=true", "task.content_vocab_size must be int, got bool", id="bool-int"),
        pytest.param("train.steps=abc", "train.steps must be int, got str", id="string-int"),
        pytest.param("model.d_model=-4", "d_model must be >= 1", id="negative-width"),
        pytest.param("model.num_heads=0", "num_heads must be >= 1", id="no-heads"),
        pytest.param("model.d_ff=0", "d_ff must be >= 1", id="no-ffn"),
        pytest.param("train.batch_size=2.5", "train.batch_size must be int, got float", id="float-int"),
        pytest.param("loss.temperature=abc", "loss.temperature must be float, got str", id="string-float"),
        pytest.param("model.use_contextual_bias=1", "model.use_contextual_bias must be bool, got int", id="int-bool"),
        pytest.param("decode.termination=bogus", "unknown termination 'bogus'", id="unknown-termination"),
        pytest.param(
            "decode.termination=sequence", "decode.termination 'sequence' must match loss.termination 'slot'",
            id="termination-mismatch",
        ),
        pytest.param("train.learning_rate=NaN", "learning_rate must be finite and > 0", id="nan-learning-rate"),
        pytest.param("decode.eos_penalty=Infinity", "eos_penalty must be finite and nonnegative", id="infinite-beta"),
        pytest.param("train.adam_beta2=1", "adam_beta2 must lie in (0, 1)", id="beta2-one"),
        pytest.param("train.adam_beta1=1.5", "adam_beta1 must lie in (0, 1)", id="beta1-above-one"),
        pytest.param("model.vocab_size=7", "model vocab_size 7 smaller than task vocab", id="vocab-too-small"),
    ],
)
def test_bad_config_value_is_a_usage_error(tmp_path, capsys, override, message):
    # every value is checked against its field's type and range before the
    # run directory exists; nothing is coerced
    run_dir = tmp_path / "run"
    argv = ["train", "--run-dir", str(run_dir)]
    for o in TINY_OVERRIDES + ["train.steps=1", override]:
        argv += ["--set", o]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err, captured.err
    assert "Traceback" not in captured.err and len(captured.err.splitlines()) == 1
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param({"num_dev": 0}, "dev split is empty", id="empty-dev-split"),
        pytest.param({"content_vocab_size": 0}, "content_vocab_size must be >= 1", id="no-content-tokens"),
        pytest.param({"min_length": 66, "max_length": 70}, "task.max_length 70 needs 72", id="task-past-positions"),
        pytest.param({"content_vocab_size": 20}, "smaller than task vocab", id="task-vocab-past-model"),
    ],
)
def test_eval_on_a_bad_task_checkpoint_is_a_usage_error(tiny_run, tmp_path, capsys, change, message):
    model, extra = checkpoint.load(os.path.join(tiny_run, "ckpt-8.insr"))
    extra["task"].update(change)
    path = str(tmp_path / "bad-task.insr")
    checkpoint.save(path, model, extra=extra)
    assert main(["eval", "--checkpoint", path, "--limit", "2", "--out-dir", str(tmp_path / "eval")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}:") and message in captured.err, captured.err
    assert "Traceback" not in captured.err and len(captured.err.splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param(lambda e: e["vocab"].extend(["x0", "x1"]), "recorded vocab has 14 tokens", id="vocab-past-model"),
        pytest.param(lambda e: e.pop("loss"), "checkpoint records no loss", id="no-loss"),
        pytest.param(lambda e: e.clear(), "checkpoint records no vocab, loss, task, decode", id="empty-record"),
        pytest.param(lambda e: e.update(decode=[]), "config section [decode] must be an object", id="decode-not-object"),
        pytest.param(lambda e: e.update(vocab=["w0"]), "bad recorded vocab", id="vocab-without-reserved"),
        pytest.param(
            lambda e: e["decode"].update(eos_penalty=float("inf")), "eos_penalty must be finite and nonnegative",
            id="infinite-beta",
        ),
    ],
)
def test_decode_on_a_bad_record_is_a_usage_error(tiny_run, tmp_path, capsys, change, message):
    # a checkpoint's record goes through the same checks as a train config
    model, extra = checkpoint.load(os.path.join(tiny_run, "ckpt-8.insr"))
    change(extra)
    path = str(tmp_path / "bad-record.insr")
    checkpoint.save(path, model, extra=extra)
    assert main(["decode", "--checkpoint", path, "--tokens", "w0 w1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}:") and message in captured.err, captured.err
    assert "Traceback" not in captured.err and len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_eval_on_the_pinned_legacy_checkpoint(tmp_path, capsys):
    # the pinned checkpoint stores decode.max_iterations, an option that is gone
    pinned = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "data", "copy-btree.insr")
    assert "max_iterations" in checkpoint.load(pinned)[1]["decode"]
    assert main(["eval", "--checkpoint", pinned, "--limit", "4", "--out-dir", str(tmp_path / "eval")]) == 0
    assert "items\t4" in capsys.readouterr().out


def test_stored_decode_termination_follows_the_loss(tiny_run, tmp_path, capsys):
    # older checkpoints may store a decode termination other than the loss's
    ckpt = os.path.join(tiny_run, "ckpt-8.insr")
    model, extra = checkpoint.load(ckpt)
    assert extra["loss"]["termination"] == "slot"
    extra["decode"]["termination"] = "sequence"
    stored = str(tmp_path / "termination.insr")
    checkpoint.save(stored, model, extra=extra)
    argv = ["--tokens", "w0 w1 w2", "--mode", "parallel"]
    assert main(["decode", "--checkpoint", ckpt] + argv) == 0
    expected = capsys.readouterr().out
    assert main(["decode", "--checkpoint", stored] + argv) == 0
    assert capsys.readouterr().out == expected


def test_eval_limit_builds_only_the_dev_pairs_it_reads(tiny_run, tmp_path, capsys, monkeypatch):
    from insgen import tasks

    built = []
    real = tasks.pair_at

    def spy(spec, index):
        built.append(index)
        return real(spec, index)

    monkeypatch.setattr(tasks, "pair_at", spy)
    ckpt = os.path.join(tiny_run, "ckpt-8.insr")
    assert main(["eval", "--checkpoint", ckpt, "--limit", "4", "--out-dir", str(tmp_path / "eval")]) == 0
    assert "items\t4" in capsys.readouterr().out
    assert built == [40, 41, 42, 43]  # the tiny task's dev split starts after its 40 train pairs
