"""Insertion decoding with trace capture: one loop for serial and parallel mode.

A policy has two calls: `encode(x)` returns a source handle, and
`log_probs(source, canvas)` scores a canvas against it. The loop encodes
once per sentence and hands the same handle to every iteration; the model's
handle is `(cross, src_mask)`, each decoder layer's cross-attention keys
and values plus their key mask, so the source side is computed once.

Each iteration scores the current canvas once and the mode picks the step.
Greedy (serial) mode takes the single best (content, location) action.
Parallel mode computes per-slot conditionals, takes each slot's best
content, drops slots whose best decision is a terminal token, and inserts
into all remaining slots simultaneously; a length-n output can finish in as
few as floor(log2 n) + 1 insertion iterations. A serial step is a parallel
step with one action. A step that would overrun max_output_length keeps only
its best-scoring insertions.

Decoding stops when a step has no action to apply. There is no iteration
cap: every iteration but the last inserts at least one token, so the loop
ends within max_output_length + 1 iterations. An output is `truncated` when the
policy still wanted to insert into a canvas already max_output_length
long; that last query leaves no trace step.

A terminal-token penalty (subtracted from terminal log-probs before any
argmax, never from reported likelihoods) counters premature stopping.

Decoding runs on plain values: a canvas is a token tuple and a step
proposes action records, `(content, location, logprob)` tuples. Reserved
ids other than the terminal tokens (padding, boundary markers, unknown) are
never inserted.

Traces record every iteration: the canvas before, the applied records, and
(greedy mode) the terminal decision's record. The stop check is a final
zero-insertion record, so "insertion iterations" (what iteration plots
count) excludes it.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .canvas import TokenSeq, apply_parallel_insertions
from .canvas import apply_insertion  # noqa: F401  unused here; perfbench/tracer.py wraps this name
from .losses import TERMINATIONS
from .model import conditional_log_probs
from .vocab import LEFT_MARK, PAD, RIGHT_MARK, TERMINAL_IDS, UNK

NEVER_INSERTED = (PAD, LEFT_MARK, RIGHT_MARK, UNK)  # reserved ids that are not terminal tokens

_TERMINAL_INDEX = np.array(TERMINAL_IDS)

MODES = ("greedy", "parallel")


@dataclass
class DecodeConfig:
    mode: str = "greedy"
    eos_penalty: float = 0.0
    max_output_length: int = 48
    termination: str = "slot"  # finalization regime the model was trained for

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown decode mode {self.mode!r}")
        if not 0 <= self.eos_penalty < math.inf:  # also rejects NaN
            raise ValueError(f"eos_penalty must be finite and nonnegative, got {self.eos_penalty}")
        if self.max_output_length < 1:
            raise ValueError(f"max_output_length must be at least 1, got {self.max_output_length}")
        if self.termination not in TERMINATIONS:
            raise ValueError(f"unknown termination {self.termination!r}")


ActionRecord = tuple[int, int, float]  # (content, location, logprob)


@dataclass(frozen=True)
class TraceStep:
    canvas_before: TokenSeq
    actions: tuple[ActionRecord, ...]
    terminal: ActionRecord | None = None


@dataclass
class DecodeTrace:
    steps: list[TraceStep] = field(default_factory=list)
    final: TokenSeq = ()
    truncated: bool = False

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def insertion_iterations(self) -> int:
        return sum(1 for s in self.steps if s.actions)


@lru_cache(maxsize=64)
def _score_row(vocab_size: int, beta: float, dtype: np.dtype) -> np.ndarray:
    """What `_decision_scores` adds to each slot's log-probs: -beta on the terminal ids, -inf on NEVER_INSERTED.

    Read-only, since every caller with these arguments shares it.
    """
    if beta < 0:
        raise ValueError("eos penalty must be nonnegative")
    row = np.zeros(vocab_size, dtype=dtype)
    row[_TERMINAL_INDEX] = -beta
    row[list(NEVER_INSERTED)] = -np.inf
    row.flags.writeable = False
    return row


def _decision_scores(logp: np.ndarray, beta: float) -> np.ndarray:
    """The scores both steps take their argmax of: beta subtracted from terminal log-probs, -inf on NEVER_INSERTED.

    Adding -beta has the bits of subtracting beta, and a score is only
    compared, never reported, so the +0.0 that -0.0 + 0.0 gives is harmless.
    """
    return logp + _score_row(logp.shape[-1], beta, logp.dtype)


def greedy_step(logp: np.ndarray, termination: str, beta: float = 0.0):
    """Best single action as (records, terminal).

    Sequence finalization stops when the global argmax is a terminal token;
    slot finalization restricts the argmax to slots whose own best decision
    is not terminal and stops when none remain. Ties break toward the
    lowest location, then the lowest token id. A stop returns no record and
    the terminal decision's record; otherwise `terminal` is None.
    """
    scores = _decision_scores(logp, beta)
    S1, V = scores.shape
    if termination == "sequence":
        flat = int(scores.argmax())  # first max: lowest location, then token id
        l, c = divmod(flat, V)
        if c in TERMINAL_IDS:
            return [], (c, l, float(logp[l, c]))
        return [(c, l, float(logp[l, c]))], None
    # slot finalization
    best_tok = scores.argmax(axis=-1)
    active = ~np.isin(best_tok, _TERMINAL_INDEX)
    if not active.any():
        c = int(best_tok[0])
        return [], (c, 0, float(logp[0, c]))
    masked = np.where(active[:, None], scores, -np.inf)
    masked[:, _TERMINAL_INDEX] = -np.inf
    flat = int(masked.argmax())
    l, c = divmod(flat, V)
    return [(c, l, float(logp[l, c]))], None


def parallel_step(conditionals: np.ndarray, beta: float = 0.0) -> list[ActionRecord]:
    """One record per slot whose penalty-adjusted best content is not terminal.

    `conditionals` holds per-slot log p(c | l); no records signals that
    every slot predicted a terminal token.
    """
    best = _decision_scores(conditionals, beta).argmax(axis=-1)
    best_logp = conditionals[np.arange(len(best)), best]
    return [
        (c, l, lp) for l, (c, lp) in enumerate(zip(best.tolist(), best_logp.tolist())) if c not in TERMINAL_IDS
    ]


def decode(policy, x: TokenSeq, config: DecodeConfig) -> tuple[TokenSeq, DecodeTrace]:
    """Decode from the empty canvas in `config.mode`; returns the output and its trace."""
    if config.mode == "parallel" and config.termination == "sequence":
        warnings.warn(
            "parallel decoding a sequence-finalization model: treating terminal "
            "predictions as per-slot stops",
            stacklevel=2,
        )
    source = policy.encode(x)
    canvas: TokenSeq = ()
    trace = DecodeTrace()
    while True:
        logp = policy.log_probs(source, canvas)
        if config.mode == "greedy":
            records, terminal = greedy_step(logp, config.termination, config.eos_penalty)
        else:
            records, terminal = parallel_step(conditional_log_probs(logp), config.eos_penalty), None
        room = config.max_output_length - len(canvas)
        if records and not room:
            trace.truncated = True
            break
        if len(records) > room:  # keep the best-scoring records, ties to the lowest location
            records = sorted(sorted(records, key=lambda r: (-r[2], r[1]))[:room], key=lambda r: r[1])
        trace.steps.append(TraceStep(canvas, tuple(records), terminal))
        if not records:
            break
        canvas = apply_parallel_insertions(canvas, [(c, l) for c, l, _ in records])
    trace.final = canvas
    return canvas, trace


def iteration_lower_bound(n: int) -> int:
    """floor(log2 n) + 1 via integer arithmetic."""
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    return n.bit_length()


MAX_SWEEP_VALUES = 1000  # each value is one full evaluation of the dataset


def beta_sweep_values(start: float = 0.0, stop: float = 7.0, step: float = 0.5) -> list[float]:
    """Inclusive penalty grid, by default [0, 7] in steps of 0.5."""
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"sweep {name} must be finite, got {value}")
    if step <= 0:
        raise ValueError("sweep step must be positive")
    if stop < start:
        raise ValueError("sweep stop must not be below its start")
    quotient = (stop - start) / step  # inf when it overflows
    count = int(round(quotient)) + 1 if math.isfinite(quotient) else math.inf
    if count > MAX_SWEEP_VALUES:
        raise ValueError(f"sweep would have {count} values, more than the cap of {MAX_SWEEP_VALUES}")
    return [start + i * step for i in range(count)]


# -- trace file format (one JSON object per line) ---------------------------


def write_trace(fh, trace: DecodeTrace, source: TokenSeq = (), vocab_tokens=None) -> None:
    header = {
        "type": "trace",
        "version": 1,
        "source": list(source),
        "final": list(trace.final),
        "truncated": trace.truncated,
    }
    if vocab_tokens is not None:
        header["vocab"] = list(vocab_tokens)
    fh.write(json.dumps(header) + "\n")
    for s in trace.steps:
        record = {"canvas": list(s.canvas_before), "actions": [list(a) for a in s.actions]}
        record["terminal"] = list(s.terminal) if s.terminal else None
        fh.write(json.dumps(record) + "\n")


class TraceFormatError(ValueError):
    """Raised for malformed trace files; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _token_ids(values) -> TokenSeq:
    """A trace's list of token ids as a tuple; each must be a JSON integer, not a bool or a float."""
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ValueError(f"expected a list of integer token ids, got {values!r}")
    return tuple(values)


def _action_record(c, l, lp) -> ActionRecord:
    if type(c) is not int or type(l) is not int or type(lp) not in (int, float):
        raise ValueError(f"an action needs integer content and location and a numeric logprob, got {[c, l, lp]!r}")
    return c, l, float(lp)


def read_trace(fh) -> tuple[DecodeTrace, dict]:
    """Read a `write_trace` file, replaying its actions from the empty canvas.

    The header's `version` must be 1. Token ids (an action's content and
    location, every entry of a record's `canvas` and of the header's
    `final`) must be JSON integers, not bools or floats, a logprob must be
    a JSON number, and a record's `terminal` is null or an action. Each
    record's canvas, then the header's `final`, must equal the replay;
    anything else raises TraceFormatError with the byte offset of the line
    at fault. Lines may be text or bytes; with bytes a non-UTF-8 line gets
    its own offset.
    """
    header, steps, canvas, offset = None, [], (), 0
    try:
        while line := fh.readline():
            rec = json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
            if not isinstance(rec, dict):
                raise ValueError("a line must hold a JSON object")
            if header is None:
                if rec.get("type") != "trace":
                    raise ValueError("missing trace header")
                version = rec.get("version")
                if type(version) is not int or version != 1:
                    raise ValueError(f"unsupported version {version!r}, expected 1")
                vocab = rec.get("vocab", [])
                if not isinstance(rec.get("final"), list) or not isinstance(rec.get("truncated"), bool):
                    raise ValueError("the header needs a list 'final' and a bool 'truncated'")
                _token_ids(rec["final"])
                if not isinstance(vocab, list) or not all(isinstance(t, str) for t in vocab):
                    raise ValueError("the header's 'vocab' must be a list of strings")
                header = rec
            else:
                terminal = rec.get("terminal")
                step = TraceStep(
                    _token_ids(rec["canvas"]),
                    tuple(_action_record(*a) for a in rec["actions"]),
                    None if terminal is None else _action_record(*terminal),
                )
                if step.canvas_before != canvas:
                    raise ValueError(f"canvas {list(step.canvas_before)} is not the replayed {list(canvas)}")
                canvas = apply_parallel_insertions(canvas, [(c, l) for c, l, _ in step.actions])
                steps.append(step)
            offset += len(line.encode() if isinstance(line, str) else line)
        if header is None:
            raise ValueError("empty file")
    except (ValueError, KeyError, TypeError) as e:
        raise TraceFormatError(f"bad trace {'header' if header is None else 'record'}: {e}", offset) from None
    if tuple(header["final"]) != canvas:
        raise TraceFormatError(f"bad trace header: final {header['final']} is not the replayed {list(canvas)}", 0)
    return DecodeTrace(steps=steps, final=canvas, truncated=header["truncated"]), header


def render_trace(trace: DecodeTrace, meta: dict | None = None) -> str:
    """Human-readable insertion diagram: one line per iteration, new tokens starred."""
    vocab_tokens = (meta or {}).get("vocab")

    def tok(i: int) -> str:
        if vocab_tokens and 0 <= i < len(vocab_tokens):
            return vocab_tokens[i]
        return str(i)

    lines = [
        f"iterations={trace.iterations} insertions={trace.insertion_iterations} "
        f"final_length={len(trace.final)} truncated={trace.truncated}"
    ]
    for t, step in enumerate(trace.steps):
        after = apply_parallel_insertions(step.canvas_before, [(c, l) for c, l, _ in step.actions])
        new_positions = set()
        for rank, (_, l, _) in enumerate(sorted(step.actions, key=lambda a: a[1])):
            new_positions.add(l + rank)
        shown = [
            f"*{tok(token)}*" if p in new_positions else tok(token)
            for p, token in enumerate(after)
        ]
        line = f"t={t}: " + (" ".join(shown) if shown else "(empty)")
        if step.terminal is not None:
            c, l, _ = step.terminal
            line += f"  => {tok(c)}@{l}"
        lines.append(line)
    return "\n".join(lines) + "\n"
