"""The experiment driver, scripts/experiments.py: every row runs at toy size, and each runs what it names."""

import importlib.util
import json
import pathlib
import sys

import pytest

from insgen.config import load_config

DRIVER = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "experiments.py"
TOY = ["train.steps=1", "task.num_train=4", "task.num_dev=2", "task.max_length=4", "train.batch_size=4",
       "decode.max_output_length=6"]


# what each row's former script ran at its defaults: the train overrides (seed 0 was explicit),
# then each eval's flags and output directory under the run directory
FORMER_SCRIPTS = {
    "copy-btree": (
        ["task.kind=copy", "loss.order=binary_tree", "loss.temperature=1.0", "loss.termination=slot",
         "train.steps=5000", "train.seed=0"],
        [("ckpt-5000.insr", "eval", ["--mode", "parallel"])],
    ),
    "undertrained": (
        ["task.kind=copy", "task.max_length=16", "task.num_dev=200", "loss.order=uniform", "loss.termination=sequence",
         "train.steps=500", "train.seed=0"],
        [("ckpt-500.insr", "eval", ["--mode", "greedy", "--sweep-beta", "0:7:0.5"])],
    ),
    "toy-l2r": (
        ["task.kind=toy_translation", "train.steps=4000", "train.seed=0", "loss.order=left_to_right",
         "loss.termination=sequence"],
        [("ckpt-4000.insr", "eval", ["--mode", "greedy"])],
    ),
    "toy-uniform": (
        ["task.kind=toy_translation", "train.steps=4000", "train.seed=0", "loss.order=uniform",
         "loss.termination=slot"],
        [("ckpt-4000.insr", "eval", ["--mode", "greedy"]),
         ("ckpt-4000.insr", "eval-parallel", ["--mode", "parallel"])],
    ),
}


@pytest.fixture
def driver(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave scripts/ untouched
    spec = importlib.util.spec_from_file_location("experiments", DRIVER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_row_runs_at_toy_size(driver, tmp_path, capsys):
    argv = ["--out-root", str(tmp_path)]
    for s in TOY:
        argv += ["--set", s]
    assert driver.main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FORMER_SCRIPTS)
    for name, (former_sets, _) in FORMER_SCRIPTS.items():
        former = load_config(None, former_sets)
        effective = json.loads((tmp_path / name / "config.effective").read_text())
        task, loss = effective["task"], effective["loss"]
        assert (task["kind"], loss["order"], loss["termination"], loss["temperature"]) == (
            former.task.kind, former.loss.order, former.loss.termination, former.loss.temperature
        ), name
        # the toy --sets win over the row's own steps, lengths and dev size
        assert effective["train"]["steps"] == 1 and task["max_length"] == 4 and task["num_dev"] == 2, name
        assert (tmp_path / name / "ckpt-1.insr").exists()
    for report in ("copy-btree/eval", "toy-l2r/eval", "toy-uniform/eval", "toy-uniform/eval-parallel"):
        assert "items\t2\n" in (tmp_path / report / "report.txt").read_text(), report
    sweep = (tmp_path / "undertrained" / "eval" / "sweep.tsv").read_text().splitlines()
    assert len(sweep) == 16 and [row.split("\t")[0] for row in sweep[1:3]] == ["0", "0.5"]  # header + 15 betas


def test_an_unknown_experiment_exits_before_anything_trains(driver, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        driver.main(["copy-btree", "no-such-row", "--out-root", str(tmp_path / "runs")])
    assert exit_info.value.code != 0
    assert "no-such-row" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("name", sorted(FORMER_SCRIPTS))
def test_a_row_without_sets_runs_what_its_former_script_ran(driver, name):
    train, *evals = driver.commands(name, "runs", [])
    run_dir = f"runs/{name}"
    assert train[:3] == ["train", "--run-dir", run_dir]
    assert train[3::2] == ["--set"] * len(train[4::2])
    former_sets, former_evals = FORMER_SCRIPTS[name]
    assert load_config(None, train[4::2]).to_dict() == load_config(None, former_sets).to_dict()
    assert evals == [
        ["eval", "--checkpoint", f"{run_dir}/{ckpt}", "--out-dir", f"{run_dir}/{out}"] + flags
        for ckpt, out, flags in former_evals
    ]
