"""Serial and parallel insertion decoding with trace capture.

Greedy decoding picks the single best (content, location) action per
iteration. Parallel decoding computes per-slot conditionals, takes each
slot's best content, drops slots whose best decision is a terminal token,
and inserts into all remaining slots simultaneously; a length-n output can
finish in as few as floor(log2 n) + 1 insertion iterations. A step that
would overrun max_output_length keeps only its best-scoring insertions.

A terminal-token penalty (subtracted from terminal log-probs before any
argmax, never from reported likelihoods) counters premature stopping.

Traces record every iteration: the canvas before, the applied actions with
their log-probs, and the terminal decision. The all-stopped check is a
final zero-insertion record, so "insertion iterations" (what iteration
plots count) excludes it.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .canvas import Canvas, InsertionAction, TokenSeq, apply_parallel_insertions, apply_insertion
from .model import conditional_log_probs
from .vocab import TERMINAL_IDS

MODES = ("greedy", "parallel")


@dataclass
class DecodeConfig:
    mode: str = "greedy"
    eos_penalty: float = 0.0
    max_output_length: int = 48
    max_iterations: int | None = None
    termination: str = "slot"  # finalization regime the model was trained for

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown decode mode {self.mode!r}")
        if self.eos_penalty < 0:
            raise ValueError("eos_penalty must be nonnegative")
        if self.max_iterations is None:
            self.max_iterations = 2 * self.max_output_length + 8


ActionRecord = tuple[int, int, float]  # (content, location, logprob)


@dataclass(frozen=True)
class TraceStep:
    canvas_before: TokenSeq
    actions: tuple[ActionRecord, ...]
    terminal: ActionRecord | None = None


@dataclass
class DecodeTrace:
    steps: list[TraceStep] = field(default_factory=list)
    final: Canvas = Canvas()
    truncated: bool = False

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def insertion_iterations(self) -> int:
        return sum(1 for s in self.steps if s.actions)

    def canvases(self) -> list[Canvas]:
        seq = [Canvas(s.canvas_before) for s in self.steps]
        seq.append(self.final)
        return seq


class Finish:
    """Sentinel decision: decoding is complete."""

    def __init__(self, record: ActionRecord | None = None):
        self.record = record


def apply_eos_penalty(logp: np.ndarray, beta: float) -> np.ndarray:
    """Decision scores: log-probs with beta subtracted from terminal tokens."""
    if beta < 0:
        raise ValueError("eos penalty must be nonnegative")
    scores = logp.copy()
    scores[..., list(TERMINAL_IDS)] -= beta
    return scores


def greedy_step(logp: np.ndarray, termination: str, beta: float = 0.0):
    """Best single action, or Finish.

    Sequence finalization stops when the global argmax is a terminal token;
    slot finalization restricts the argmax to slots whose own best decision
    is not terminal and stops when none remain. Ties break toward the
    lowest location, then the lowest token id.
    """
    scores = apply_eos_penalty(logp, beta)
    S1, V = scores.shape
    if termination == "sequence":
        flat = int(scores.argmax())  # first max: lowest location, then token id
        l, c = divmod(flat, V)
        if c in TERMINAL_IDS:
            return Finish((c, l, float(logp[l, c])))
        return InsertionAction(content=c, location=l), float(logp[l, c])
    # slot finalization
    best_tok = scores.argmax(axis=-1)
    active = ~np.isin(best_tok, TERMINAL_IDS)
    if not active.any():
        l = 0
        c = int(best_tok[0])
        return Finish((c, l, float(logp[l, c])))
    masked = np.where(active[:, None], scores, -np.inf)
    masked[:, list(TERMINAL_IDS)] = -np.inf
    flat = int(masked.argmax())
    l, c = divmod(flat, V)
    return InsertionAction(content=c, location=l), float(logp[l, c])


def parallel_step(conditionals: np.ndarray, beta: float = 0.0):
    """One action per slot whose penalty-adjusted best content is not terminal.

    `conditionals` holds per-slot log p(c | l); an empty action list signals
    that every slot predicted a terminal token.
    """
    scores = apply_eos_penalty(conditionals, beta)
    best = scores.argmax(axis=-1)
    actions: list[InsertionAction] = []
    logps: list[float] = []
    for l, c in enumerate(best):
        if int(c) not in TERMINAL_IDS:
            actions.append(InsertionAction(content=int(c), location=l))
            logps.append(float(conditionals[l, c]))
    return actions, logps


def greedy_decode(policy, x: TokenSeq, config: DecodeConfig) -> tuple[TokenSeq, DecodeTrace]:
    """Serial decoding from the empty canvas: one insertion per iteration."""
    if config.mode != "greedy":
        raise ValueError("greedy_decode requires mode='greedy'")
    memory = policy.encode(x)
    canvas = Canvas()
    trace = DecodeTrace()
    for _ in range(config.max_iterations):
        if len(canvas) >= config.max_output_length:
            trace.truncated = True
            break
        logp = policy.log_probs(memory, canvas)
        decision = greedy_step(logp, config.termination, config.eos_penalty)
        if isinstance(decision, Finish):
            trace.steps.append(TraceStep(canvas.tokens, (), terminal=decision.record))
            break
        action, lp = decision
        trace.steps.append(TraceStep(canvas.tokens, ((action.content, action.location, lp),)))
        canvas = apply_insertion(canvas, action)
    else:
        trace.truncated = True
    trace.final = canvas
    return canvas.tokens, trace


def parallel_decode(policy, x: TokenSeq, config: DecodeConfig) -> tuple[TokenSeq, DecodeTrace]:
    """Partially autoregressive decoding: simultaneous insertions every iteration."""
    if config.mode != "parallel":
        raise ValueError("parallel_decode requires mode='parallel'")
    if config.termination == "sequence":
        warnings.warn(
            "parallel decoding a sequence-finalization model: treating terminal "
            "predictions as per-slot stops",
            stacklevel=2,
        )
    memory = policy.encode(x)
    canvas = Canvas()
    trace = DecodeTrace()
    for _ in range(config.max_iterations):
        if len(canvas) >= config.max_output_length:
            trace.truncated = True
            break
        joint = policy.log_probs(memory, canvas)
        conditionals = conditional_log_probs(joint)
        actions, logps = parallel_step(conditionals, config.eos_penalty)
        room = config.max_output_length - len(canvas)
        if len(actions) > room:  # keep the best-scoring actions, ties to the lowest location
            keep = sorted(sorted(range(len(actions)), key=lambda i: -logps[i])[:room])
            actions, logps = [actions[i] for i in keep], [logps[i] for i in keep]
        records = tuple((a.content, a.location, lp) for a, lp in zip(actions, logps))
        trace.steps.append(TraceStep(canvas.tokens, records))
        if not actions:
            break
        canvas = apply_parallel_insertions(canvas, actions)
    else:
        trace.truncated = True
    trace.final = canvas
    return canvas.tokens, trace


def decode(policy, x: TokenSeq, config: DecodeConfig) -> tuple[TokenSeq, DecodeTrace]:
    fn = greedy_decode if config.mode == "greedy" else parallel_decode
    return fn(policy, x, config)


def iteration_lower_bound(n: int) -> int:
    """floor(log2 n) + 1 via integer arithmetic."""
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    return n.bit_length()


def beta_sweep_values(start: float = 0.0, stop: float = 7.0, step: float = 0.5) -> list[float]:
    """Inclusive penalty grid, by default [0, 7] in steps of 0.5."""
    if step <= 0:
        raise ValueError("sweep step must be positive")
    count = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(count)]


# -- trace file format (one JSON object per line) ---------------------------


def write_trace(fh, trace: DecodeTrace, source: TokenSeq = (), vocab_tokens=None) -> None:
    header = {
        "type": "trace",
        "version": 1,
        "source": list(source),
        "final": list(trace.final.tokens),
        "truncated": trace.truncated,
    }
    if vocab_tokens is not None:
        header["vocab"] = list(vocab_tokens)
    fh.write(json.dumps(header) + "\n")
    for s in trace.steps:
        fh.write(
            json.dumps(
                {
                    "canvas": list(s.canvas_before),
                    "actions": [[c, l, lp] for c, l, lp in s.actions],
                    "terminal": list(s.terminal) if s.terminal else None,
                }
            )
            + "\n"
        )


class TraceFormatError(ValueError):
    """Raised for malformed trace files; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def read_trace(fh) -> tuple[DecodeTrace, dict]:
    offset = 0
    line = fh.readline()
    try:
        header = json.loads(line)
        if header.get("type") != "trace":
            raise ValueError("missing trace header")
    except ValueError as e:
        raise TraceFormatError(f"bad trace header: {e}", offset) from None
    offset += len(line.encode() if isinstance(line, str) else line)
    steps = []
    while True:
        line = fh.readline()
        if not line:
            break
        try:
            rec = json.loads(line)
            steps.append(
                TraceStep(
                    canvas_before=tuple(rec["canvas"]),
                    actions=tuple((int(c), int(l), float(lp)) for c, l, lp in rec["actions"]),
                    terminal=tuple(rec["terminal"]) if rec.get("terminal") else None,
                )
            )
        except (ValueError, KeyError, TypeError) as e:
            raise TraceFormatError(f"bad trace record: {e}", offset) from None
        offset += len(line.encode() if isinstance(line, str) else line)
    trace = DecodeTrace(
        steps=steps, final=Canvas(tuple(header["final"])), truncated=bool(header["truncated"])
    )
    return trace, header


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
        after = apply_parallel_insertions(
            Canvas(step.canvas_before),
            [InsertionAction(c, l) for c, l, _ in step.actions],
        )
        new_positions = set()
        for rank, (_, l, _) in enumerate(sorted(step.actions, key=lambda a: a[1])):
            new_positions.add(l + rank)
        shown = [
            f"*{tok(token)}*" if p in new_positions else tok(token)
            for p, token in enumerate(after.tokens)
        ]
        line = f"t={t}: " + (" ".join(shown) if shown else "(empty)")
        if step.terminal is not None:
            c, l, _ = step.terminal
            line += f"  => {tok(c)}@{l}"
        lines.append(line)
    return "\n".join(lines) + "\n"
