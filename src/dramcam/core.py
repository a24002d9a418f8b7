"""Behavioral model of one unmodified DRAM subarray driven by ACT/PRE traces.

Charge is binary and bitline levels are symbolic: an activation moves each
bitline to half +/- delta according to the opened cells and the sense
amplifiers resolve the sign to full or zero, restoring the open cells.
Opening a single row therefore reads it non-destructively; opening three
rows (via a minimum-gap ACT-PRE-ACT) resolves every column to the majority
of the three cells and writes that majority back to all of them. A
truncated precharge leaves the amplifiers driving, so the next activation
overwrites its row with the latched values (row copy).

Commands are applied strictly in trace order; simulation time advances
only by each command's ``gap_after``. `Subarray.apply` is the reference,
one command at a time. `Subarray.execute` lowers a whole trace once
(`lower`) and runs only the copies and majorities on the cell grid; a
trace the reference would fault or warn on is replayed through `apply`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Iterable, Sequence
import warnings

import numpy as np

from .config import DeviceConfig, TimingModel
from .errors import (AddressFault, ProtocolFault, StalePresetWarning,
                     TimingFault, TraceFormatError)
from .microops import majority_row_set
from .trace import Command, CommandKind


class BitlinePhase(Enum):
    PRECHARGED = "precharged"
    SHARING = "sharing"
    RESOLVED = "resolved"


class BitlineLevel(Enum):
    HALF = "half"
    HALF_PLUS_DELTA = "half+delta"
    HALF_MINUS_DELTA = "half-delta"
    ZERO = "zero"
    FULL = "full"


_PHASE_LEVELS = {
    BitlinePhase.PRECHARGED: {BitlineLevel.HALF},
    BitlinePhase.SHARING: {BitlineLevel.HALF_PLUS_DELTA, BitlineLevel.HALF_MINUS_DELTA},
    BitlinePhase.RESOLVED: {BitlineLevel.ZERO, BitlineLevel.FULL},
}


@dataclass(frozen=True)
class BitlineState:
    """Phase and symbolic voltage of one bitline; no numeric volts exist here."""

    phase: BitlinePhase
    level: BitlineLevel

    def __post_init__(self) -> None:
        if self.level not in _PHASE_LEVELS[self.phase]:
            raise ValueError(f"level {self.level} invalid for phase {self.phase}")


class MicroOp(Enum):
    NONE = "none"
    ROW_COPY = "row_copy"
    MULTI_ACTIVATE = "multi_activate"


@dataclass(frozen=True)
class MicroOpDecision:
    kind: MicroOp
    source: int | None = None
    target: int | None = None
    rows: tuple[int, int, int] | None = None


_NONE_DECISION = MicroOpDecision(MicroOp.NONE)


def gap_flags(gap, timing: TimingModel):
    """Compare gaps with the timing thresholds; no other code does.

    `gap` is one gap or an array of them. Returns four flags per gap: below
    the multi-activate threshold, below the row-copy threshold, at least
    nominal tRAS, at least nominal tRP.
    """
    return (gap < timing.t_multi_threshold, gap < timing.t_copy_threshold,
            gap >= timing.t_ras, gap >= timing.t_rp)


def window_kinds(act_flags, pre_flags):
    """Classify ACT-PRE-ACT windows as (nominal, copy, multi).

    Takes the `gap_flags` of each window's ACT gap and PRE gap. The three
    kinds are mutually exclusive; a window of none of them lies in the
    undefined band.
    """
    act_multi, _, act_ras, _ = act_flags
    pre_multi, pre_copy, _, pre_rp = pre_flags
    return act_ras & pre_rp, act_ras & pre_copy, act_multi & pre_multi


def detect_micro_op(window: Sequence[Command], timing: TimingModel) -> MicroOpDecision:
    """Classify the trailing command window ending at the ACT just issued.

    The window's last command is the current ACT; only an ACT-PRE-ACT shape
    can violate timing. Gaps at or above nominal are standard; a nominal
    activation followed by a truncated precharge is a row copy; both gaps
    at minimum is a triple-row activation. Anything else is the undefined
    band: a fault when ``timing.strict``, otherwise treated as standard.
    """
    if len(window) < 3:
        return _NONE_DECISION
    first, middle, last = window[-3], window[-2], window[-1]
    if not (first.kind is CommandKind.ACT and middle.kind is CommandKind.PRE
            and last.kind is CommandKind.ACT):
        return _NONE_DECISION
    act_gap, pre_gap = first.gap_after, middle.gap_after
    nominal, copy, multi = window_kinds(gap_flags(act_gap, timing),
                                        gap_flags(pre_gap, timing))
    if nominal:
        return _NONE_DECISION
    if multi:
        rows = majority_row_set(first.row, last.row)
        return MicroOpDecision(MicroOp.MULTI_ACTIVATE, rows=rows)
    if copy:
        return MicroOpDecision(MicroOp.ROW_COPY, source=first.row, target=last.row)
    if timing.strict:
        raise TimingFault(
            f"gaps ({act_gap}, {pre_gap}) fall between micro-op thresholds "
            f"and nominal timing (t_multi<{timing.t_multi_threshold}, "
            f"t_copy<{timing.t_copy_threshold}, nominal {timing.t_ras}/{timing.t_rp})")
    return _NONE_DECISION


@dataclass
class Lowering:
    """A trace as arrays, plus the micro-ops that change cells.

    Indices count commands of the trace itself, not of the `recent` window
    it was lowered behind. An ACT on row None carries row -1.
    """

    is_act: np.ndarray   # bool per command
    rows: np.ndarray     # int64 ACT row, -1 on a PRE
    gaps: np.ndarray     # int64 gap_after
    clocks: np.ndarray   # int64 issue clock, relative to the trace start
    duration: int        # sum of the gaps
    flags: tuple         # gap_flags(gaps)
    ops: list            # (ACT index, rows) in command order: (source,
                         # target) for a copy, the opened triple for a majority
    copies: int
    majorities: int
    written: set[int] | None  # rows rewritten since the last majority, at the end
    fault_at: int | None      # first command the reference faults or warns on


def lower(trace: Sequence[Command], timing: TimingModel,
          recent: Sequence[Command] = (), row_count: int | None = None,
          written: Iterable[int] | None = None) -> Lowering:
    """Lower a trace, issued right after the commands `recent`, in one pass.

    Every ACT-PRE-ACT window is classified by `window_kinds`. A copy writes
    the first ACT's row into the last; a majority writes the majority of
    its `majority_row_set` triple into all three rows; every other ACT only
    reads. `fault_at` is the first command at which `Subarray.apply` would
    fault or warn: an ACT row outside `row_count` rows (when given), an ACT
    right after an ACT, an undefined-band window under strict timing, a
    bad majority pair, or, when `written` (the rows rewritten since the
    last majority) is given, a stale preset. Rows or gaps that do not fit
    in 64 bits raise TraceFormatError.
    """
    cmds = [*recent[-2:], *trace]
    skip = len(cmds) - len(trace)
    act_kind = CommandKind.ACT
    gap_list = [c.gap_after for c in cmds]
    clock_list = list(accumulate(gap_list[skip:], initial=0))
    try:
        is_act = np.array([c.kind is act_kind for c in cmds], dtype=bool)
        row = np.array([-1 if c.row is None else c.row for c in cmds],
                       dtype=np.int64)
        gaps = np.array(gap_list, dtype=np.int64)
        clocks = np.array(clock_list[:-1], dtype=np.int64)
    except OverflowError:
        raise TraceFormatError("trace row or gap does not fit in 64 bits") from None
    flags = gap_flags(gaps, timing)
    faults = []

    acts = np.flatnonzero(is_act[skip:]) + skip
    if row_count is not None:
        faults.extend(acts[(row[acts] < 0) | (row[acts] >= row_count)][:1])
    faults.extend(acts[(acts > 0) & is_act[acts - 1]][:1])

    # a window ends at every ACT of the trace that follows ACT, PRE
    ends = acts[acts >= 2]
    ends = ends[~is_act[ends - 1] & is_act[ends - 2]]
    nominal, copy, multi = window_kinds(tuple(f[ends - 2] for f in flags),
                                        tuple(f[ends - 1] for f in flags))
    if timing.strict:
        faults.extend(ends[~(nominal | copy | multi)][:1])
    copies = ends[copy]
    ops = list(zip(copies.tolist(), zip(row[copies - 2].tolist(),
                                        row[copies].tolist())))
    majorities = 0
    for end in ends[multi].tolist():
        try:
            triple = majority_row_set(int(row[end - 2]), int(row[end]))
        except AddressFault:
            faults.append(end)
            continue
        if row_count is not None and (triple[0] < 0 or triple[2] >= row_count):
            faults.append(end)
            continue
        ops.append((end, triple))
        majorities += 1
    # cell-changing micro-ops in command order: (source, target) for a
    # copy, the opened triple for a majority
    ops.sort()

    if written is not None:
        written = set(written)
        for end, op_rows in ops:
            if len(op_rows) == 2:
                written.add(op_rows[1])
            elif written.isdisjoint(op_rows):
                faults.append(end)
                break
            else:
                written = set()

    return Lowering(
        is_act=is_act[skip:], rows=row[skip:], gaps=gaps[skip:], clocks=clocks,
        duration=clock_list[-1], flags=tuple(f[skip:] for f in flags),
        ops=[(end - skip, op_rows) for end, op_rows in ops],
        copies=len(copies), majorities=majorities, written=written,
        fault_at=int(min(faults)) - skip if faults else None)


@dataclass
class CoverageReport:
    """Which cells of the requested rows were activated inside a window."""

    rows: tuple[int, ...]
    covered: np.ndarray  # bool, shape (len(rows), cols)
    fraction: float


class RefreshTracker:
    """Per-row last-activation timestamps; -1 marks a never-touched row.

    Every activation and host write touches whole rows, so one stamp per
    row says everything a per-cell grid would.
    """

    def __init__(self, rows: int, cols: int, refresh_interval: int):
        self.refresh_interval = refresh_interval
        self.cols = cols
        self.last_activation = np.full(rows, -1, dtype=np.int64)

    def mark(self, rows: Iterable[int], clock: int) -> None:
        self.last_activation[list(rows)] = clock

    def coverage(self, rows: Sequence[int], t0: int, t1: int) -> CoverageReport:
        stamps = self.last_activation[list(rows)]
        hit = (stamps >= t0) & (stamps <= t1)
        covered = np.broadcast_to(hit[:, None], (len(hit), self.cols))
        return CoverageReport(tuple(rows), covered, float(covered.mean()))


def refresh_coverage(tracker: RefreshTracker, rows: Sequence[int],
                     window: tuple[int, int]) -> CoverageReport:
    return tracker.coverage(rows, window[0], window[1])


class Subarray:
    """One subarray: the cell grid, its sense amplifiers, and protocol state.

    All commands against a subarray must be applied sequentially; distinct
    subarrays share nothing and may be driven in parallel.
    """

    def __init__(self, rows: int, cols: int, timing: TimingModel | None = None):
        self.rows = rows
        self.cols = cols
        self.timing = timing or TimingModel()
        self.cells = np.zeros((rows, cols), dtype=np.uint8)
        self.row_buffer = np.zeros(cols, dtype=np.uint8)
        self.open_rows: set[int] = set()
        self.phase = BitlinePhase.PRECHARGED
        self.clock = 0
        self.tracker = RefreshTracker(rows, cols, self.timing.refresh_interval)
        self._readable = False
        self._recent: list[Command] = []  # last two commands, oldest first
        self._written_since_majority: set[int] = set()

    @classmethod
    def from_device(cls, device: DeviceConfig) -> "Subarray":
        return cls(device.rows_per_subarray, device.cols_per_subarray, device.timing)

    # -- host-side data path -------------------------------------------------

    def write_row(self, row: int, bits: Sequence[int] | np.ndarray) -> None:
        """Host load path: overwrite one row, bypassing the command protocol."""
        self._check_row(row)
        data = np.asarray(bits, dtype=np.uint8)
        if data.shape != (self.cols,):
            raise AddressFault(
                f"write of {data.shape} bits into a {self.cols}-column row")
        if data.size and data.max() > 1:
            raise AddressFault("row bits must be 0/1")
        self.cells[row] = data
        self.tracker.mark([row], self.clock)
        self._written_since_majority.add(row)

    def read_row_buffer(self) -> np.ndarray:
        """Latched sense-amplifier values; only valid while a row is open."""
        if not self._readable:
            raise ProtocolFault("row buffer read with no resolved open row")
        return self.row_buffer.copy()

    # -- command protocol ----------------------------------------------------

    def apply(self, cmd: Command) -> None:
        """Apply one command at the current clock, then advance by its gap."""
        if cmd.kind is CommandKind.PRE:
            self._apply_pre(cmd)
        else:
            self._apply_act(cmd)
        self.clock += cmd.gap_after
        self._recent.append(cmd)
        if len(self._recent) > 2:
            self._recent.pop(0)

    def execute(self, trace: Iterable[Command]) -> None:
        """Apply a whole trace; the end state equals an `apply` loop's.

        The trace is lowered once and only its copies and majorities touch
        the cell grid. If the reference would fault or warn anywhere in the
        trace, nothing is changed here and the trace is replayed through
        `apply`, which raises or warns at the same command.
        """
        trace = list(trace)
        if not trace:
            return
        try:
            low = lower(trace, self.timing, self._recent, self.rows,
                        self._written_since_majority)
        except TraceFormatError:
            low = None
        if low is None or low.fault_at is not None:
            for cmd in trace:
                self.apply(cmd)
            return

        cells = self.cells
        opened, opened_at = [], []
        for at, rows in low.ops:
            if len(rows) == 2:
                cells[rows[1]] = cells[rows[0]]
                continue
            a, b, c = cells[rows[0]], cells[rows[1]], cells[rows[2]]
            cells[list(rows)] = (a & b) | (c & (a | b))
            opened.extend(rows)
            opened_at.extend((at, at, at))
        # every row keeps the issue clock of the last command that opened it
        acts = np.flatnonzero(low.is_act)
        marked = np.concatenate((low.rows[acts], np.array(opened, np.int64)))
        marked_at = np.concatenate((acts, np.array(opened_at, np.int64)))
        last = np.full(self.rows, -1, dtype=np.int64)
        np.maximum.at(last, marked, marked_at)
        stamped = np.flatnonzero(last >= 0)
        self.tracker.last_activation[stamped] = self.clock + low.clocks[last[stamped]]

        self.clock += low.duration
        self._recent = (self._recent + trace[-2:])[-2:]
        self._written_since_majority = low.written
        settles = np.flatnonzero(low.is_act | low.flags[3])
        if len(settles):
            self.phase = (BitlinePhase.RESOLVED if low.is_act[settles[-1]]
                          else BitlinePhase.PRECHARGED)
        if len(acts):
            self.row_buffer = cells[low.rows[acts[-1]]].copy()
        self._readable = bool(low.is_act[-1])
        if not self._readable:
            self.open_rows = set()
        elif low.ops and low.ops[-1][0] == len(trace) - 1 and len(low.ops[-1][1]) == 3:
            self.open_rows = set(low.ops[-1][1])
        else:
            self.open_rows = {int(low.rows[-1])}

    def _apply_pre(self, cmd: Command) -> None:
        self.open_rows = set()
        self._readable = False
        if gap_flags(cmd.gap_after, self.timing)[3]:
            self.phase = BitlinePhase.PRECHARGED
        # A shorter gap interrupts the precharge: the amplifiers keep
        # driving whatever they last resolved.

    def _apply_act(self, cmd: Command) -> None:
        self._check_row(cmd.row)
        if self.open_rows and (not self._recent or
                               self._recent[-1].kind is not CommandKind.PRE):
            raise ProtocolFault(
                f"ACT {cmd.row} issued while rows {sorted(self.open_rows)} "
                "are open with no intervening PRE")
        decision = detect_micro_op([*self._recent, cmd], self.timing)
        if decision.kind is MicroOp.ROW_COPY:
            self._do_row_copy(decision.target)
        elif decision.kind is MicroOp.MULTI_ACTIVATE:
            for r in decision.rows:
                self._check_row(r)
            self._do_multi_activate(decision.rows)
        else:
            self._resolve((cmd.row,))

    def _do_row_copy(self, target: int) -> None:
        # The truncated PRE (below t_rp) kept the bitlines resolved; the
        # target cells latch the driven values.
        self.cells[target] = self.row_buffer
        self.open_rows = {target}
        self._readable = True
        self.tracker.mark([target], self.clock)
        self._written_since_majority.add(target)

    def _do_multi_activate(self, rows: tuple[int, int, int]) -> None:
        if not self._written_since_majority & set(rows):
            warnings.warn(
                f"majority on rows {rows} with no participant rewritten since "
                "the previous one; the preset is likely stale",
                StalePresetWarning, stacklevel=4)
        self._resolve(rows)
        self._written_since_majority = set()

    def _resolve(self, rows: tuple[int, ...]) -> None:
        cells = self.cells
        if len(rows) == 1:
            resolved = cells[rows[0]].copy()
        else:
            # Sign of the summed deviations (2c - 1) over the open cells,
            # i.e. the per-column majority; never a tie for an odd count.
            votes = cells[list(rows)].sum(axis=0, dtype=np.int16)
            resolved = (2 * votes > len(rows)).astype(np.uint8)
            cells[list(rows)] = resolved
        self.row_buffer = resolved
        self.open_rows = set(rows)
        self.phase = BitlinePhase.RESOLVED
        self._readable = True
        self.tracker.mark(rows, self.clock)

    # -- inspection ----------------------------------------------------------

    def bitline(self, col: int) -> BitlineState:
        """Resting state of one bitline (between commands)."""
        if self.phase is BitlinePhase.PRECHARGED:
            return BitlineState(BitlinePhase.PRECHARGED, BitlineLevel.HALF)
        level = BitlineLevel.FULL if self.row_buffer[col] else BitlineLevel.ZERO
        return BitlineState(BitlinePhase.RESOLVED, level)

    def sharing_levels(self, rows: Sequence[int]) -> list[BitlineState]:
        """Transient charge-sharing levels an activation of `rows` would make."""
        deviation = (2 * self.cells[list(rows)].astype(np.int16) - 1).sum(axis=0)
        return [
            BitlineState(
                BitlinePhase.SHARING,
                BitlineLevel.HALF_PLUS_DELTA if d > 0 else BitlineLevel.HALF_MINUS_DELTA,
            )
            for d in deviation
        ]

    def _check_row(self, row: int | None) -> None:
        if row is None or not 0 <= row < self.rows:
            raise AddressFault(f"row {row} outside 0..{self.rows - 1}")
