#!/usr/bin/env python3
"""Train and evaluate the desk-scale experiments, one row of EXPERIMENTS each.

A row holds the `--set` overrides of one `insgen train` run into
<out-root>/<name>, and an (out dir, eval flags) pair for each `insgen eval`
of the run's final checkpoint. A `--set` given here applies after the row's
own, so it wins. The rows write their measurements and check none of them.
"""

import argparse
import os
import sys

from insgen import config
from insgen.cli import main as cli

EXPERIMENTS = {
    # a binary-tree copy model: parallel-decoding iterations per output length (eval/iterations.tsv)
    "copy-btree": (
        ["task.kind=copy", "loss.order=binary_tree", "loss.temperature=1.0", "loss.termination=slot",
         "train.steps=5000"],
        [("eval", ["--mode", "parallel"])],
    ),
    # a uniform copy model stopped early: greedy metrics at each terminal-token penalty 0..7 by 0.5 (eval/sweep.tsv)
    "undertrained": (
        ["task.kind=copy", "task.max_length=16", "task.num_dev=200", "loss.order=uniform",
         "loss.termination=sequence", "train.steps=500"],
        [("eval", ["--mode", "greedy", "--sweep-beta", "0:7:0.5"])],
    ),
    # the left-to-right loss on toy translation, decoded greedily
    "toy-l2r": (
        ["task.kind=toy_translation", "loss.order=left_to_right", "loss.termination=sequence", "train.steps=4000"],
        [("eval", ["--mode", "greedy"])],
    ),
    # the uniform loss on the same task, decoded greedily and in parallel (which needs slot finalization)
    "toy-uniform": (
        ["task.kind=toy_translation", "loss.order=uniform", "loss.termination=slot", "train.steps=4000"],
        [("eval", ["--mode", "greedy"]), ("eval-parallel", ["--mode", "parallel"])],
    ),
}


def commands(name: str, out_root: str, overrides: list[str]):
    """One row's `insgen` argv lists: its train, then (built once the train has run) each eval."""
    row_sets, evals = EXPERIMENTS[name]
    sets = row_sets + overrides
    run_dir = os.path.join(out_root, name)
    yield ["train", "--run-dir", run_dir] + [arg for s in sets for arg in ("--set", s)]
    ckpt = os.path.join(run_dir, f"ckpt-{config.load_config(None, sets).train.steps}.insr")
    for out_dir, flags in evals:
        yield ["eval", "--checkpoint", ckpt, "--out-dir", os.path.join(run_dir, out_dir)] + flags


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("names", nargs="*", metavar="NAME", help=f"rows to run (default: all of {', '.join(EXPERIMENTS)})")
    ap.add_argument("--out-root", default="runs")
    ap.add_argument("--set", dest="overrides", action="append", default=[], metavar="SECTION.KEY=VALUE",
                    help="applied after each row's own overrides")
    args = ap.parse_intermixed_args(argv)
    unknown = [n for n in args.names if n not in EXPERIMENTS]
    if unknown:
        ap.error(f"unknown experiment(s): {', '.join(unknown)}")
    for name in args.names or EXPERIMENTS:
        for argv in commands(name, args.out_root, args.overrides):
            print("== insgen " + " ".join(argv), flush=True)
            rc = cli(argv)
            if rc != 0:
                return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
