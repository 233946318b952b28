"""Decoding mechanics: penalties, greedy/parallel steps, the decode loop, traces, bounds."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insgen.canvas import Canvas, InsertionAction, apply_parallel_insertions
from insgen.decoding import (
    DecodeConfig,
    DecodeTrace,
    TraceFormatError,
    apply_eos_penalty,
    beta_sweep_values,
    decode,
    greedy_step,
    iteration_lower_bound,
    parallel_step,
    read_trace,
    render_trace,
    write_trace,
)
from insgen.vocab import EOS, EOSLOT, NUM_RESERVED
from oracles import BalancedTreePolicy, ScriptedPolicy, is_subsequence

V = NUM_RESERVED + 10
ATE, TOGETHER, FRIENDS, THREE, LUNCH = (NUM_RESERVED + i for i in range(5))
FIG1_TARGET = (THREE, FRIENDS, ATE, LUNCH, TOGETHER)


def uniform_logp(slots: int) -> np.ndarray:
    return np.full((slots, V), -math.log(slots * V))


def test_apply_eos_penalty_zero_is_identity():
    logp = uniform_logp(3)
    np.testing.assert_array_equal(apply_eos_penalty(logp, 0.0), logp)


def test_apply_eos_penalty_flips_decision():
    logp = np.full((1, V), -10.0)
    logp[0, EOS] = -1.0
    best_non_terminal = NUM_RESERVED
    logp[0, best_non_terminal] = -1.5
    assert greedy_step(logp, "sequence", beta=0.0) == ([], [], (EOS, 0, -1.0))
    actions, logps, terminal = greedy_step(logp, "sequence", beta=1.0)
    assert actions == [InsertionAction(best_non_terminal, 0)]
    assert logps == [-1.5]  # reported likelihood is unpenalized
    assert terminal is None


@given(st.integers(0, 2**31 - 1), st.floats(0.0, 10.0))
def test_penalty_never_changes_non_terminal_argmax(seed, beta):
    rng = np.random.default_rng(seed)
    logp = rng.normal(size=(4, V))
    scores = apply_eos_penalty(logp, beta)
    masked = logp.copy()
    masked[:, [EOS, EOSLOT]] = -np.inf
    masked_p = scores.copy()
    masked_p[:, [EOS, EOSLOT]] = -np.inf
    assert masked.argmax() == masked_p.argmax()


def test_greedy_step_picks_peak():
    logp = np.full((3, V), -20.0)
    logp[1, NUM_RESERVED + 2] = -0.1
    actions, _, _ = greedy_step(logp, "sequence")
    assert actions == [InsertionAction(NUM_RESERVED + 2, 1)]


def test_greedy_step_slot_mode_all_end_of_slot_finishes():
    logp = np.full((3, V), -20.0)
    logp[:, EOSLOT] = -0.1
    actions, _, terminal = greedy_step(logp, "slot")
    assert actions == []
    assert terminal[:2] == (EOSLOT, 0)


def test_greedy_step_slot_mode_ignores_finished_slots():
    logp = np.full((2, V), -20.0)
    logp[0, EOSLOT] = -0.05  # slot 0 wants to stop, with the global max score
    logp[1, NUM_RESERVED + 1] = -0.2
    actions, _, _ = greedy_step(logp, "slot")
    assert actions == [InsertionAction(NUM_RESERVED + 1, 1)]


def test_greedy_step_tie_breaks_lowest_location_then_token():
    logp = np.full((2, V), -20.0)
    logp[0, NUM_RESERVED + 3] = -0.1
    logp[0, NUM_RESERVED + 1] = -0.1
    logp[1, NUM_RESERVED] = -0.1
    actions, _, _ = greedy_step(logp, "sequence")
    assert actions == [InsertionAction(NUM_RESERVED + 1, 0)]


def fig1_serial_script() -> ScriptedPolicy:
    return ScriptedPolicy(
        {
            (): [(ATE, 0)],
            (ATE,): [(TOGETHER, 1)],
            (ATE, TOGETHER): [(FRIENDS, 0)],
            (FRIENDS, ATE, TOGETHER): [(THREE, 0)],
            (THREE, FRIENDS, ATE, TOGETHER): [(LUNCH, 3)],
        },
        vocab_size=V,
    )


def test_greedy_decode_reproduces_serial_worked_example():
    out, trace = decode(
        fig1_serial_script(), (0,), DecodeConfig(mode="greedy", termination="sequence")
    )
    assert out == FIG1_TARGET
    applied = [s.actions[0][:2] for s in trace.steps if s.actions]
    assert applied == [(ATE, 0), (TOGETHER, 1), (FRIENDS, 0), (THREE, 0), (LUNCH, 3)]
    assert trace.steps[-1].terminal[:2] == (EOS, 5)
    assert trace.iterations == 6
    assert trace.insertion_iterations == 5
    assert not trace.truncated


def test_greedy_decode_immediate_eos():
    policy = ScriptedPolicy({}, vocab_size=V)
    out, trace = decode(policy, (0,), DecodeConfig(mode="greedy", termination="sequence"))
    assert out == ()
    assert trace.iterations == 1
    assert trace.insertion_iterations == 0


def test_trace_canvases_form_subsequence_chain():
    _, trace = decode(
        fig1_serial_script(), (0,), DecodeConfig(mode="greedy", termination="sequence")
    )
    chain = trace.canvases()
    for a, b in zip(chain, chain[1:]):
        assert is_subsequence(a.tokens, b.tokens)


def test_parallel_step_inserts_every_active_slot():
    cond = np.full((2, V), -20.0)
    cond[0, FRIENDS] = -0.1
    cond[1, TOGETHER] = -0.2
    actions, logps = parallel_step(cond)
    assert actions == [InsertionAction(FRIENDS, 0), InsertionAction(TOGETHER, 1)]
    assert logps == [-0.1, -0.2]


def test_parallel_step_all_terminal_stops():
    cond = np.full((3, V), -20.0)
    cond[:, EOSLOT] = -0.1
    actions, _ = parallel_step(cond)
    assert actions == []


def test_parallel_step_single_active_slot_matches_greedy():
    cond = np.full((2, V), -20.0)
    cond[0, EOSLOT] = -0.1
    cond[1, LUNCH] = -0.3
    actions, _ = parallel_step(cond)
    assert actions == [InsertionAction(LUNCH, 1)]


def test_parallel_decode_fig1_schedule():
    policy = BalancedTreePolicy(FIG1_TARGET, vocab_size=V)
    out, trace = decode(policy, (0,), DecodeConfig(mode="parallel"))
    assert out == FIG1_TARGET
    batches = [tuple(a[:2] for a in s.actions) for s in trace.steps if s.actions]
    assert batches == [
        ((ATE, 0),),
        ((FRIENDS, 0), (TOGETHER, 1)),
        ((THREE, 0), (LUNCH, 2)),
    ]
    assert trace.steps[-1].actions == ()  # terminal all-stop record
    assert trace.insertion_iterations == 3
    assert trace.iterations == 4


def test_parallel_decode_balanced_tree_on_length7():
    target = tuple(range(NUM_RESERVED, NUM_RESERVED + 7))
    policy = BalancedTreePolicy(target, vocab_size=V)
    out, trace = decode(policy, (0,), DecodeConfig(mode="parallel"))
    assert out == target
    sizes = [len(s.actions) for s in trace.steps if s.actions]
    assert sizes == [1, 2, 4]
    assert trace.insertion_iterations == 3 == iteration_lower_bound(7)
    # the three canvases: [] -> [D] -> [B, D, F] -> full
    mids = trace.steps[1].canvas_before
    assert mids == (target[3],)
    assert trace.steps[2].canvas_before == (target[1], target[3], target[5])


def test_parallel_decode_length1_single_iteration():
    target = (NUM_RESERVED,)
    policy = BalancedTreePolicy(target, vocab_size=V)
    out, trace = decode(policy, (0,), DecodeConfig(mode="parallel"))
    assert out == target
    assert trace.insertion_iterations == 1 == iteration_lower_bound(1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40))
def test_parallel_tree_hits_lower_bound_for_any_length(n):
    target = tuple((NUM_RESERVED + i % 8) for i in range(n))
    policy = BalancedTreePolicy(target, vocab_size=V)
    out, trace = decode(
        policy, (0,), DecodeConfig(mode="parallel", max_output_length=64)
    )
    assert out == target
    assert trace.insertion_iterations == iteration_lower_bound(n)
    chain = trace.canvases()
    for a, b in zip(chain, chain[1:]):
        assert is_subsequence(a.tokens, b.tokens)
        assert len(b) - len(a) <= len(a) + 1  # at most one insertion per slot


def test_parallel_decode_holds_max_output_length():
    # the fifth balanced-tree step would grow 15 tokens to 31; it is capped at 20
    target = tuple((NUM_RESERVED + i % 8) for i in range(40))
    policy = BalancedTreePolicy(target, vocab_size=V)
    out, trace = decode(policy, (0,), DecodeConfig(mode="parallel", max_output_length=20))
    assert len(out) == 20
    assert trace.truncated
    assert is_subsequence(out, target)


class _TablePolicy:
    """Fixed per-canvas log-prob tables (rows are per-slot logits)."""

    def __init__(self, table):
        self.table = table

    def encode(self, x):
        return None

    def log_probs(self, memory, canvas):
        return self.table[canvas.tokens]


@pytest.mark.parametrize("right_score, expected", [(3.0, (7, 9)), (2.0, (8, 7))], ids=["best", "tie"])
def test_parallel_decode_cap_keeps_best_actions(right_score, expected):
    # one slot of room for two proposals: the higher score wins, a tie goes left
    first = np.zeros((1, V))
    first[0, 7] = 5.0
    second = np.zeros((2, V))
    second[0, 8] = 2.0
    second[1, 9] = right_score
    wants_more = np.zeros((3, V))  # on either full canvas the policy still inserts
    wants_more[:, 7] = 5.0
    policy = _TablePolicy({(): first, (7,): second, (7, 9): wants_more, (8, 7): wants_more})
    out, trace = decode(policy, (0,), DecodeConfig(mode="parallel", max_output_length=2))
    assert out == expected
    assert trace.truncated


def test_parallel_decode_warns_for_sequence_model():
    policy = BalancedTreePolicy((NUM_RESERVED,), vocab_size=V)
    with pytest.warns(UserWarning, match="sequence-finalization"):
        decode(policy, (0,), DecodeConfig(mode="parallel", termination="sequence"))


def test_iteration_lower_bound_values():
    assert iteration_lower_bound(7) == 3
    assert iteration_lower_bound(1) == 1
    assert iteration_lower_bound(5) == 3
    assert iteration_lower_bound(8) == 4
    with pytest.raises(ValueError):
        iteration_lower_bound(0)


@given(st.integers(1, 10_000))
def test_iteration_lower_bound_matches_power_table(n):
    # brute-force oracle: largest k with 2^k <= n, plus one
    k = 0
    while 2 ** (k + 1) <= n:
        k += 1
    assert iteration_lower_bound(n) == k + 1


@pytest.mark.parametrize("mode", ["greedy", "parallel"])
def test_truncation_flag_at_length_cap(mode):
    # a policy that never stops: always insert at slot 0, end every other slot
    class Gusher:
        def encode(self, x):
            return None

        def log_probs(self, memory, canvas):
            logp = np.full((len(canvas) + 1, V), -20.0)
            logp[0, NUM_RESERVED] = -0.1
            logp[1:, EOSLOT] = -0.1
            return logp

    out, trace = decode(Gusher(), (0,), DecodeConfig(mode=mode, max_output_length=5))
    assert trace.truncated
    assert len(out) == 5
    assert [len(s.canvas_before) for s in trace.steps] == [0, 1, 2, 3, 4]  # no step for the refused query


@pytest.mark.parametrize("mode", ["greedy", "parallel"])
def test_output_exactly_at_length_cap_is_complete(mode):
    target = tuple(range(NUM_RESERVED, NUM_RESERVED + 64))
    policy = BalancedTreePolicy(target, vocab_size=NUM_RESERVED + 64)
    out, trace = decode(policy, (0,), DecodeConfig(mode=mode, max_output_length=64))
    assert out == target
    assert not trace.truncated
    assert trace.steps[-1].actions == ()  # the full canvas was scored once, and the policy stopped


def replay_cases(mode):
    """(policy, target, termination) triples: fig. 1 serially, balanced trees of length 1-40 in parallel."""
    if mode == "greedy":
        return [(fig1_serial_script(), FIG1_TARGET, "sequence")]
    targets = [tuple(NUM_RESERVED + i % 8 for i in range(n)) for n in range(1, 41)]
    return [(BalancedTreePolicy(t, vocab_size=V), t, "slot") for t in targets]


@pytest.mark.parametrize("mode", ["greedy", "parallel"])
def test_trace_steps_replay_to_the_output(mode):
    for policy, target, termination in replay_cases(mode):
        out, trace = decode(policy, (0,), DecodeConfig(mode=mode, termination=termination, max_output_length=64))
        assert out == target and not trace.truncated
        after = [Canvas(s.canvas_before) for s in trace.steps[1:]] + [trace.final]
        for step, canvas_after in zip(trace.steps, after):
            actions = [InsertionAction(c, l) for c, l, _ in step.actions]
            assert apply_parallel_insertions(Canvas(step.canvas_before), actions) == canvas_after
        if mode == "greedy":
            assert all(len(s.actions) <= 1 for s in trace.steps)
            assert [s.terminal is not None for s in trace.steps] == [False] * (len(trace.steps) - 1) + [True]
        else:
            assert all(s.terminal is None for s in trace.steps)


def test_beta_sweep_grid():
    values = beta_sweep_values()
    assert len(values) == 15
    assert values[0] == 0.0 and values[-1] == 7.0


def test_single_step_beta_monotonicity():
    # raising beta never flips a non-terminal argmax to terminal
    rng = np.random.default_rng(5)
    for _ in range(200):
        logp = rng.normal(size=(3, V))
        for beta1, beta2 in [(0.0, 1.0), (1.0, 3.5), (3.5, 7.0)]:
            actions1, _, _ = greedy_step(logp, "sequence", beta1)
            actions2, _, _ = greedy_step(logp, "sequence", beta2)
            if actions1:
                assert actions2 == actions1


def test_trace_round_trip():
    _, trace = decode(
        fig1_serial_script(), (7,), DecodeConfig(mode="greedy", termination="sequence")
    )
    buf = io.StringIO()
    write_trace(buf, trace, source=(7,), vocab_tokens=[f"t{i}" for i in range(V)])
    buf.seek(0)
    loaded, meta = read_trace(buf)
    assert loaded.steps == trace.steps
    assert loaded.final == trace.final
    assert loaded.truncated == trace.truncated
    assert meta["source"] == [7]


def test_trace_reader_reports_byte_offset():
    buf = io.StringIO('{"type": "trace", "version": 1, "final": [], "truncated": false}\nnot json\n')
    with pytest.raises(TraceFormatError, match="byte offset 65"):
        read_trace(buf)


def test_render_trace_fig1_line_count():
    _, trace = decode(
        fig1_serial_script(), (0,), DecodeConfig(mode="greedy", termination="sequence")
    )
    text = render_trace(trace)
    lines = text.strip().split("\n")
    assert len(lines) == 7  # header + 6 iteration lines
    assert lines[-1].endswith(f"{EOS}@5")
    assert render_trace(trace) == text  # deterministic


def test_render_empty_trace_header_only():
    text = render_trace(DecodeTrace())
    assert text.strip().split("\n") == [
        "iterations=0 insertions=0 final_length=0 truncated=False"
    ]
