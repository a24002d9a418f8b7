"""Differential tests: the lowered `Subarray.execute` and `account()` against
command-by-command references."""

import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dramcam import (EnergyModel, StalePresetWarning, Subarray, TimingModel,
                     TraceFormatError, account, act, allocate_reserved_rows,
                     and3, cpy, or3, pre)
from dramcam.core import lower
from dramcam.errors import DramCamError
from dramcam.trace import Command, CommandKind

T = TimingModel()
LENIENT = TimingModel(strict=False)
E = EnergyModel()
ROWS, COLS = 16, 8
COMP, TEMPS = allocate_reserved_rows(ROWS)
# gaps on both sides of every threshold, plus the emitted ones
GAPS = sorted({0, T.multi_gap, T.t_multi_threshold, T.copy_gap,
               T.t_copy_threshold - 1, T.t_copy_threshold, T.t_rp - 1, T.t_rp,
               T.t_ras - 1, T.t_ras, T.t_ras + 5})


def warm_subarray(seed: int, prefix: list[Command], timing=T) -> Subarray:
    """Random cells, then a prefix applied through the reference."""
    rng = np.random.default_rng(seed)
    sub = Subarray(ROWS, COLS, timing)
    for r in range(ROWS):
        sub.write_row(r, rng.integers(0, 2, COLS, dtype=np.uint8))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StalePresetWarning)
        for cmd in prefix:
            try:
                sub.apply(cmd)
            except DramCamError:
                pass
    return sub


def run(sub: Subarray, trace: list[Command], fast: bool, filter_: str):
    """Drive `sub`; returns (fault type or None, warning categories)."""
    fault = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(filter_, StalePresetWarning)
        try:
            if fast:
                sub.execute(trace)
            else:
                for cmd in trace:
                    sub.apply(cmd)
        except (DramCamError, StalePresetWarning) as exc:
            fault = type(exc)
    return fault, [w.category for w in caught]


def state(sub: Subarray) -> dict:
    return {
        "cells": sub.cells.tolist(),
        "row_buffer": sub.row_buffer.tolist(),
        "clock": sub.clock,
        "stamps": sub.tracker.last_activation.tolist(),
        "phase": sub.phase,
        "open_rows": sub.open_rows,
        "readable": sub._readable,
        "recent": list(sub._recent),
        "written": sub._written_since_majority,
    }


def assert_same(seed, prefix, trace, filter_="always", timing=T):
    ref = warm_subarray(seed, prefix, timing)
    fast = copy.deepcopy(ref)
    expected = run(ref, trace, fast=False, filter_=filter_)
    got = run(fast, trace, fast=True, filter_=filter_)
    assert got == expected
    assert state(fast) == state(ref)


# -- strategies ------------------------------------------------------------------

rows_in_range = st.integers(0, ROWS - 1)
data_rows = st.integers(0, COMP.r3 - 1)  # below the reserved block

fragment = st.one_of(
    st.builds(lambda t, s: cpy(t, s, T) if t != s else cpy(t, (s + 1) % ROWS, T),
              rows_in_range, rows_in_range),
    st.just(and3(COMP, T)),
    st.just(or3(COMP, T)),
    st.builds(lambda r: [pre(T.t_rp), act(r, T.t_ras)], rows_in_range),
    # a legal majority program step: stage a row, preset r1, merge
    st.builds(lambda r, c: cpy(COMP.r3, r, T) + cpy(COMP.r1, c, T) + and3(COMP, T),
              data_rows, st.sampled_from([COMP.c0, COMP.c1])),
)
programs = st.lists(fragment, max_size=12).map(lambda fs: sum(fs, []))

any_command = st.one_of(
    st.builds(act, st.integers(-2, ROWS + 2), st.sampled_from(GAPS)),
    st.builds(pre, st.sampled_from(GAPS)),
)


def _insert(trace, index, cmds):
    i = index % (len(trace) + 1)
    return trace[:i] + cmds + trace[i:]


illegal = st.sampled_from([
    [pre(T.t_rp), act(ROWS, T.t_ras)],                  # row out of range
    [pre(T.t_rp), act(-1, T.t_ras)],
    [pre(T.t_rp), act(1, T.t_ras), act(2, T.t_ras)],    # ACT after ACT
    [pre(T.t_rp), act(1, T.t_ras), pre(8), act(2, T.t_ras)],   # undefined band
    [pre(T.t_rp), act(1, 10), pre(1), act(2, T.t_ras)],
    [pre(T.t_rp), act(1, 1), pre(1), act(6, T.t_ras)],  # pair across blocks
    [pre(T.t_rp), act(3, 1), pre(1), act(2, T.t_ras)],  # low bits 11
    [pre(T.t_rp), act(9, 1), pre(1), act(9, T.t_ras)],  # same row twice
    and3(COMP, T) + and3(COMP, T),                      # stale preset
])


# -- Subarray.execute against the apply loop -----------------------------------


@given(st.integers(0, 2**32 - 1), programs, programs)
@settings(max_examples=150, deadline=None)
def test_legal_programs_match_reference(seed, prefix, trace):
    assert_same(seed, [], trace)          # fresh recent window
    assert_same(seed, prefix, trace)      # warm: recent and written carried over


@given(st.integers(0, 2**32 - 1), programs, programs, illegal, st.integers(0, 10**6),
       st.sampled_from(["always", "error"]))
@settings(max_examples=150, deadline=None)
def test_illegal_programs_match_reference(seed, prefix, trace, bad, where, filter_):
    assert_same(seed, prefix, _insert(trace, where, bad), filter_)


@given(st.integers(0, 2**32 - 1), st.lists(any_command, max_size=8),
       st.lists(any_command, max_size=30), st.booleans())
@settings(max_examples=300, deadline=None)
def test_random_commands_match_reference(seed, prefix, trace, strict):
    assert_same(seed, prefix, trace, timing=T if strict else LENIENT)


def test_legal_program_takes_the_fast_path(monkeypatch):
    """A fresh subarray (partial recent window) and a warm one both avoid
    the replay; the fast path alone must produce the reference state."""
    sub = warm_subarray(1, [])
    ref = copy.deepcopy(sub)
    trace = (cpy(COMP.r2, COMP.c1, T) + cpy(COMP.r3, 2, T)
             + cpy(COMP.r1, COMP.c0, T) + and3(COMP, T)
             + [pre(T.t_rp), act(COMP.r2, T.t_ras)])
    for cmd in trace * 2:
        ref.apply(cmd)

    def no_replay(self, cmd):
        raise AssertionError("replayed through apply")
    monkeypatch.setattr(Subarray, "apply", no_replay)
    sub.execute(trace)
    sub.execute(trace)
    assert state(sub) == state(ref)


def test_lowering_reports_first_fault():
    trace = [pre(T.t_rp), act(1, T.t_ras), pre(T.t_rp), act(ROWS, T.t_ras),
             act(2, T.t_ras)]
    assert lower(trace, T, (), ROWS).fault_at == 3
    assert lower(trace[:3], T, (), ROWS).fault_at is None
    # the first command's window reaches back into the recent commands
    assert lower([act(2, T.t_ras)], T, [act(1, T.t_ras), pre(8)], ROWS).fault_at == 0
    assert lower([act(2, T.t_ras)], LENIENT, [act(1, T.t_ras), pre(8)],
                 ROWS).fault_at is None
    stale = and3(COMP, T)
    assert lower(stale, T, (), ROWS, written=set()).fault_at == 3
    assert lower(stale, T, (), ROWS, written={COMP.r1}).fault_at is None


def test_majority_triple_past_the_last_row_faults_like_reference():
    # rows 8 and 9 imply row 10, one past a 10-row subarray
    trace = [pre(T.t_rp), act(9, T.multi_gap), pre(T.multi_gap), act(8, T.t_ras)]
    outcomes = []
    for fast in (True, False):
        sub = Subarray(10, COLS, T)
        sub.write_row(9, [1] * COLS)  # not a stale preset
        outcomes.append((run(sub, trace, fast, "always"), state(sub)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0][0].code == "address-fault"


def test_huge_row_replays_to_the_reference_fault():
    for sub_fast in (True, False):
        sub = Subarray(ROWS, COLS, T)
        trace = [pre(T.t_rp), act(2**70, T.t_ras)]
        fault, _ = run(sub, trace, fast=sub_fast, filter_="always")
        assert fault is not None and fault.code == "address-fault"


# -- account() against a per-command tally -----------------------------------


def reference_report(trace, timing, energy):
    counts = dict.fromkeys(("ACT", "PRE", "truncated_act", "truncated_pre",
                            "row_copy", "multi_activate"), 0)
    latency = 0
    for i, cmd in enumerate(trace):
        if cmd.gap_after < 0:
            raise TraceFormatError("negative gap")
        latency += cmd.gap_after
        if cmd.kind is CommandKind.PRE:
            counts["PRE"] += 1
            counts["truncated_pre"] += cmd.gap_after < timing.t_copy_threshold
            continue
        counts["ACT"] += 1
        counts["truncated_act"] += cmd.gap_after < timing.t_multi_threshold
        if i < 2 or trace[i - 1].kind is not CommandKind.PRE \
                or trace[i - 2].kind is not CommandKind.ACT:
            continue
        a, gap_a = trace[i - 2].row, trace[i - 2].gap_after
        b, gap_p = cmd.row, trace[i - 1].gap_after
        if gap_a < timing.t_multi_threshold and gap_p < timing.t_multi_threshold:
            lows = {a & 3, b & 3}
            counts["multi_activate"] += (a != b and a >> 2 == b >> 2
                                         and lows <= {0, 1, 2})
        elif gap_a >= timing.t_ras and gap_p < timing.t_copy_threshold:
            counts["row_copy"] += 1
    micro_ops = counts["truncated_act"] + counts["truncated_pre"]
    latency_ns = latency * timing.clock_ns
    energy_pj = (counts["ACT"] * energy.act_pj + counts["PRE"] * energy.pre_pj
                 + micro_ops * energy.micro_op_pj
                 + energy.background_mw * latency_ns)
    return counts, latency, energy_pj


accounted_command = st.one_of(
    st.builds(act, st.integers(0, 40), st.sampled_from(GAPS + [-1])),
    st.builds(pre, st.sampled_from(GAPS + [-1])),
)


@given(st.lists(accounted_command, max_size=60), st.booleans())
@settings(max_examples=300, deadline=None)
def test_account_matches_per_command_tally(trace, strict):
    timing = T if strict else LENIENT
    try:
        expected = reference_report(trace, timing, E)
    except TraceFormatError:
        with pytest.raises(TraceFormatError):
            account(trace, timing, E)
        return
    report = account(trace, timing, E)
    assert (report.counts, report.latency_cycles, report.energy_pj) == expected


def test_account_counts_programs():
    trace = (cpy(COMP.r2, COMP.c1, T) + cpy(COMP.r3, 2, T) + and3(COMP, T)
             + or3(COMP, T))
    counts = account(trace, T, E).counts
    assert counts["row_copy"] == 2 and counts["multi_activate"] == 2
    with pytest.raises(TraceFormatError):
        account(trace + [Command(CommandKind.PRE, None, -3)], T, E)
