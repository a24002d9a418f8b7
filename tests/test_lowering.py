"""Differential tests: the lowered `Subarray.execute` and `account()`, and
the lowering a compiled trace brings from its template, against
command-by-command references."""

import copy
import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dramcam import (AddressFault, EnergyModel, StalePresetWarning, Subarray,
                     TimingModel, TraceFormatError, account, act,
                     allocate_reserved_rows, and3, cpy, ingest_text, or3, pre,
                     trace_cycles)
from dramcam import core
from dramcam.cam import compile_program
from dramcam.core import lower
from dramcam.genomics import compile_kmer_compare
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


def warm_subarray(seed: int, prefix: list[Command], timing=T,
                  writes=()) -> Subarray:
    """Random cells, then a prefix applied through the reference, then host
    writes of random bits to the rows `writes`."""
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
    for r in writes:
        sub.write_row(r, rng.integers(0, 2, COLS, dtype=np.uint8))
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
        "recent": list(sub._recent),
        "written": sub._written_since_majority,
    }


def assert_same(seed, prefix, trace, filter_="always", timing=T, writes=()):
    ref = warm_subarray(seed, prefix, timing, writes)
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
    # copy the row buffer latched by the previous ACT into r
    st.builds(lambda r: [pre(T.copy_gap), act(r, T.t_ras)], rows_in_range),
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


@given(st.integers(0, 2**32 - 1), programs, programs,
       st.lists(st.booleans(), min_size=ROWS, max_size=ROWS))
@settings(max_examples=150, deadline=None)
def test_legal_programs_match_reference(seed, prefix, trace, write_mask):
    assert_same(seed, [], trace)          # fresh recent window
    assert_same(seed, prefix, trace)      # warm: recent and written carried over
    # host writes between prefix and trace, each row with even odds
    writes = [r for r in range(ROWS) if write_mask[r]]
    assert_same(seed, prefix, trace, writes=writes)


def test_copy_from_carried_over_act_uses_the_latched_row():
    """A copy whose source ACT ended the previous trace copies the row
    buffer it latched, not the source row the host rewrote since."""
    sub = Subarray(ROWS, COLS, T)
    sub.write_row(1, [1, 0] * (COLS // 2))
    sub.execute([pre(T.t_rp), act(1, T.t_ras)])
    sub.write_row(1, [0] * COLS)
    ref = copy.deepcopy(sub)
    trace = [pre(T.copy_gap), act(5, T.t_ras)]
    assert run(ref, trace, fast=False, filter_="always") == (None, [])
    assert run(sub, trace, fast=True, filter_="always") == (None, [])
    assert ref.cells[5].tolist() == [1, 0] * (COLS // 2)
    assert state(sub) == state(ref)


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
    assert lower(trace, T, ROWS).fault_at == 3
    assert lower(trace[:3], T, ROWS).fault_at is None
    stale = and3(COMP, T)
    assert lower(stale, T, ROWS, written=set()).fault_at == 3
    assert lower(stale, T, ROWS, written={COMP.r1}).fault_at is None


# a previous trace's last commands, and a trace whose first ACT closes a
# window with them that is more than a plain read
JOINS = {
    "copy": ([act(1, T.t_ras), pre(T.copy_gap)], [act(5, T.t_ras)]),
    "majority": ([act(COMP.r1, T.multi_gap), pre(T.multi_gap)],
                 [act(COMP.r2, T.t_ras), pre(T.t_rp), act(3, T.t_ras)]),
    "undefined band": ([act(1, T.t_ras), pre(8)], [act(2, T.t_ras)]),
    "after an ACT": ([pre(T.t_rp), act(1, T.t_ras)], [act(2, T.t_ras)]),
    "copy closed by the second command": ([pre(T.t_rp), act(1, T.t_ras)],
                                          [pre(T.copy_gap), act(4, T.t_ras)]),
}


@pytest.mark.parametrize("join", sorted(JOINS))
@pytest.mark.parametrize("timing", [T, LENIENT], ids=["strict", "lenient"])
@pytest.mark.parametrize("filter_", ["always", "error"])
def test_trace_joining_as_more_than_a_read_matches_reference(join, timing,
                                                             filter_):
    """Such a trace is replayed through `apply`: it ends with the same
    cells, state, faults and warnings as the apply loop, also after host
    writes that make a carried-over latched row differ from its source."""
    last, trace = JOINS[join]
    for seed in range(3):
        assert_same(seed, last, trace, filter_, timing)
        assert_same(seed, last, trace, filter_, timing, writes=range(ROWS))


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


@given(st.lists(st.one_of(any_command, accounted_command), max_size=40),
       st.sampled_from([None, ROWS]), st.one_of(st.none(), st.sets(rows_in_range)))
@settings(max_examples=300, deadline=None)
def test_strictness_moves_only_the_fault(trace, row_count, written):
    """Strict and lenient lowerings of any commands agree in every field
    but `fault_at`, so account() needs no lenient copy of the timing."""
    strict, lenient = (fields(lower(trace, timing, row_count, written), tally=False)
                       for timing in (T, LENIENT))
    del strict["fault_at"], lenient["fault_at"]
    assert strict == lenient
    try:
        expected = account(trace, LENIENT, E)
    except TraceFormatError:
        with pytest.raises(TraceFormatError):
            account(trace, T, E)
        return
    assert account(trace, T, E) == expected


def test_account_counts_programs():
    trace = (cpy(COMP.r2, COMP.c1, T) + cpy(COMP.r3, 2, T) + and3(COMP, T)
             + or3(COMP, T))
    counts = account(trace, T, E).counts
    assert counts["row_copy"] == 2 and counts["multi_activate"] == 2
    with pytest.raises(TraceFormatError):
        account(trace + [Command(CommandKind.PRE, None, -3)], T, E)


# -- compiled traces: a template's lowering with the probe rows bound ---------

LAYOUT = SimpleNamespace(compute=COMP, temps=TEMPS)
KINDS = ("nand", "nor", "hd1")
# a longer nominal tRAS: the compiled copies fall in the undefined band
SLOW = TimingModel(t_ras=40)
probe_lists = st.lists(data_rows, max_size=6)


def fields(low, tally=True):
    """A lowering as plain values, field by field, with its tally."""
    out = {}
    for f in dataclasses.fields(low):
        value = getattr(low, f.name)
        if f.name == "counts":
            value = low.tally() if tally else None
        elif f.name == "flags":
            value = [flag.tolist() for flag in value]
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        out[f.name] = value
    return out


@given(st.sampled_from(KINDS), probe_lists,
       st.one_of(st.none(), st.sets(rows_in_range)))
@settings(max_examples=150, deadline=None)
def test_bound_lowering_equals_lowering_the_list(kind, probes, written):
    trace = compile_program(probes, LAYOUT, T, kind).trace
    assert isinstance(trace, list) and trace.program is not None
    for row_count in (None, ROWS):
        assert fields(lower(trace, T, row_count, written)) == fields(
            lower(list(trace), T, row_count, written))


@pytest.mark.parametrize("kind", ["exact", "hd1"])
def test_bound_kmer_lowering_equals_lowering_the_list(kind):
    rng = np.random.default_rng(3)
    db = ingest_text(">a\n" + "".join(rng.choice(list("ACGT"), 300)) + "\n", 8)
    for stratum in range(db.layout.strata):
        query = "".join(rng.choice(list("ACGT"), 8))
        trace = compile_kmer_compare(query, db.layout, db.device, stratum,
                                     kind).trace
        low = lower(trace, db.device.timing, None, set())
        assert fields(low) == fields(lower(list(trace), db.device.timing,
                                           None, set()))
        assert [int(low.rows[s]) for s in trace.program.slots] == [
            db.layout.hot_row(stratum, j, b) for j, b in enumerate(query)]


@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS), probe_lists,
       st.one_of(programs, st.lists(any_command, max_size=6)),
       st.lists(st.booleans(), min_size=ROWS, max_size=ROWS),
       st.sampled_from(["always", "error"]))
@settings(max_examples=150, deadline=None)
def test_bound_execute_matches_reference(seed, kind, probes, prefix, write_mask,
                                         filter_):
    trace = compile_program(probes, LAYOUT, T, kind).trace
    writes = [r for r in range(ROWS) if write_mask[r]]
    assert_same(seed, [], trace, filter_)
    assert_same(seed, prefix, trace, filter_)
    assert_same(seed, prefix, trace, filter_, writes=writes)
    for timing in (LENIENT, SLOW, dataclasses.replace(SLOW, strict=False)):
        assert_same(seed, prefix, trace, filter_, timing=timing)  # not its own
    assert trace.program is not None


def test_bound_execute_does_not_lower(monkeypatch):
    """A compiled trace runs and is accounted on the lowering it was bound
    with, on a fresh subarray and after another compiled trace: nothing
    lowers its commands again."""
    traces = [compile_program(p, LAYOUT, T, kind).trace
              for kind, p in [("hd1", [1, 2, 5]), ("nand", [0, 3]),
                              ("nor", [7, 6, 1])]]
    sub = warm_subarray(4, [])
    ref = copy.deepcopy(sub)
    for cmd in [c for t in traces for c in t]:
        ref.apply(cmd)

    reports = [account(list(trace), T, E) for trace in traces]

    def no_lowering(*args, **kwargs):
        raise AssertionError("lowered again")
    monkeypatch.setattr(core, "_lower_commands", no_lowering)
    for trace in traces:
        sub.execute(trace)
    assert state(sub) == state(ref)
    assert [account(trace, T, E) for trace in traces] == reports


def test_bound_execute_checks_the_subarray_rows():
    # the reserved block past the last row, then a probe row
    for probes, rows in (([1, 2], ROWS - 4), ([1, ROWS + 4], ROWS)):
        trace = compile_program(probes, LAYOUT, T, "nand").trace
        outcomes = []
        for fast in (True, False):
            sub = Subarray(rows, COLS, T)
            outcomes.append((run(sub, trace, fast, "always"), state(sub)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0][0] is AddressFault


@given(st.sampled_from(KINDS), probe_lists)
@settings(max_examples=50, deadline=None)
def test_template_report_equals_account_of_the_list(kind, probes):
    trace = compile_program(probes, LAYOUT, T, kind).trace
    for timing in (T, LENIENT, SLOW):
        assert account(trace, timing, E) == account(list(trace), timing, E)
    assert trace_cycles(trace) == trace_cycles(list(trace))


def test_account_hands_out_a_new_report_each_call():
    trace = compile_program([1, 2], LAYOUT, T, "hd1").trace
    first, second = account(trace, T, E), account(trace, T, E)
    assert first == second
    assert first is not second and first.counts is not second.counts
    first.counts["ACT"] = -1
    assert account(trace, T, E) == second


MUTATIONS = {
    "append": lambda t: t.append(pre(T.t_rp)),
    "extend": lambda t: t.extend(and3(COMP, T)),
    "iadd": lambda t: t.__iadd__(or3(COMP, T)),
    "imul": lambda t: t.__imul__(2),
    "setitem": lambda t: t.__setitem__(1, act(4, T.t_ras)),
    "setslice": lambda t: t.__setitem__(slice(0, 4), cpy(COMP.r1, 3, T)),
    "delitem": lambda t: t.__delitem__(0),
    "insert": lambda t: t.insert(2, pre(T.copy_gap)),
    "pop": lambda t: t.pop(),
    "remove": lambda t: t.remove(t[0]),
    "clear": lambda t: t.clear(),
    "reverse": lambda t: t.reverse(),
    "sort": lambda t: t.sort(key=lambda c: c.gap_after),
}


@pytest.mark.parametrize("how", sorted(MUTATIONS))
def test_changed_compiled_trace_is_a_plain_list(how):
    trace = compile_program([1, 2, 3], LAYOUT, T, "hd1").trace
    MUTATIONS[how](trace)
    assert trace.program is None
    assert trace_cycles(trace) == sum(c.gap_after for c in trace)
    assert account(trace, LENIENT, E) == account(list(trace), LENIENT, E)
    for seed in (1, 2):
        assert_same(seed, [], trace)


@given(st.integers(0, 2**32 - 1), st.lists(any_command, max_size=4),
       st.lists(any_command, max_size=8), st.booleans())
@settings(max_examples=150, deadline=None)
def test_any_template_executes_like_its_list(seed, prefix, commands, strict):
    """A template of any commands, with no probe slots, also ones that
    start with an ACT or close windows with the commands before them."""
    timing = T if strict else LENIENT
    try:
        template = core.Template(commands, [], timing)
    except TraceFormatError:
        return
    trace = template.bind([])
    assert fields(lower(trace, timing)) == fields(lower(commands, timing))
    assert_same(seed, prefix, trace, timing=timing)


def test_template_slot_must_be_only_a_copy_source():
    copy_ = cpy(COMP.r3, 1, T)
    assert core.Template(copy_, [1], T).slot_ops == [0]
    # a majority gap before the slot: its pair with row 1 faults here, but
    # another probe row could make it a majority
    after_majority_gaps = [act(5, T.multi_gap), pre(T.multi_gap)] + copy_[1:]
    for commands, slot in ((copy_, 3), (and3(COMP, T), 1), (and3(COMP, T), 3),
                           (after_majority_gaps, 2)):
        with pytest.raises(TraceFormatError):
            core.Template(commands, [slot], T)
