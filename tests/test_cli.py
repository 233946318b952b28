"""End-to-end CLI behavior on a tiny run."""

import json
import os

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


def test_override_applies():
    cfg = load_config(None, ["loss.temperature=2.0"])
    assert cfg.loss.temperature == 2.0


def test_invalid_override_key_named():
    with pytest.raises(ConfigError, match="loss.tmperature"):
        load_config(None, ["loss.tmperature=1"])


def test_unknown_key_exit_code(tmp_path):
    assert main(["train", "--run-dir", str(tmp_path / "x"), "--set", "loss.tmperature=1"]) == 1


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


def test_missing_file_exit_code(capsys):
    assert main(["trace-render", "/nonexistent/file.trace"]) == 1
    assert main(["train", "--config", "/nonexistent/cfg.json", "--run-dir", "/tmp/x"]) == 1


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
        pytest.param(["decode", "--tokens", "w0", "--max-output-length", "-3"], id="decode-negative-length"),
        pytest.param(["eval", "--limit", "2", "--sweep-beta=-2:1:1"], id="eval-negative-sweep"),
        pytest.param(["eval", "--limit", "2", "--sweep-beta=3:1:1"], id="eval-empty-sweep"),
    ],
)
def test_bad_decode_flag_is_a_usage_error(tiny_run, tmp_path, capsys, argv):
    ckpt = os.path.join(tiny_run, "ckpt-8.insr")
    out_dir = ["--out-dir", str(tmp_path / "eval")] if argv[0] == "eval" else []
    assert main(argv[:1] + ["--checkpoint", ckpt] + argv[1:] + out_dir) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err, captured.err
    assert captured.out == ""


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
