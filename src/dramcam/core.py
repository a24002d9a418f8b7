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
one command at a time. `Subarray.execute` checks the windows a trace's
first commands close with the commands before it (`_joins_as_read`),
lowers the trace on its own (`lower`) and runs only the copies and
majorities on the cell grid; a trace that joins as more than a read, or
that the reference would fault or warn on, is replayed through `apply`.
`lower` is also the one place that reads a compiled trace's template: a
`Template` lowers and tallies each program shape once, and `lower` binds
the probe rows of one query into that lowering.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from itertools import accumulate
from typing import Iterable, Sequence
import warnings

import numpy as np

from .config import DeviceConfig, TimingModel
from .errors import (AddressFault, DramCamError, ProtocolFault,
                     StalePresetWarning, TimingFault, TraceFormatError)
from .microops import majority_row_set
from .trace import Command, CommandKind, CompiledTrace


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

    Indices count commands of the trace. An ACT on row None carries row -1.
    """

    is_act: np.ndarray   # bool per command
    rows: np.ndarray     # int64 ACT row, -1 on a PRE
    gaps: np.ndarray     # int64 gap_after
    clocks: np.ndarray   # int64 issue clock, relative to the trace start
    duration: int        # sum of the gaps
    flags: tuple         # gap_flags(gaps)
    ops: list            # (ACT index, rows) in command order: (source,
                         # target) for a copy, the opened triple for a majority
    majorities: int
    written: set[int] | None  # rows rewritten since the last majority, at the end
    fault_at: int | None      # first command the reference faults or warns on
    counts: dict | None = None  # set by the first `tally()`

    def tally(self) -> dict[str, int]:
        """Command counts, tallied once: every lowering bound from one
        template shares them. A negative gap raises TraceFormatError."""
        if self.counts is None:
            negative = np.flatnonzero(self.gaps < 0)
            if len(negative):
                raise TraceFormatError(f"negative gap on command {negative[0]}")
            below_multi, below_copy, _, _ = self.flags
            acts = int(self.is_act.sum())
            self.counts = {
                "ACT": acts, "PRE": len(self.is_act) - acts,
                "truncated_act": int((self.is_act & below_multi).sum()),
                "truncated_pre": int((~self.is_act & below_copy).sum()),
                "row_copy": len(self.ops) - self.majorities,
                "multi_activate": self.majorities}
        return self.counts


def lower(trace: Sequence[Command], timing: TimingModel,
          row_count: int | None = None,
          written: Iterable[int] | None = None) -> Lowering:
    """Lower a trace on its own, in one pass.

    Every ACT-PRE-ACT window is classified by `window_kinds`. A copy writes
    the first ACT's row into the last; a majority writes the majority of
    its `majority_row_set` triple into all three rows; every other ACT only
    reads. `fault_at` is the first command at which `Subarray.apply` would
    fault or warn: an ACT row outside `row_count` rows (when given), an ACT
    right after an ACT, an undefined-band window under strict timing, a
    bad majority pair, or, when `written` (the rows rewritten since the
    last majority) is given, a stale preset. Rows or gaps that do not fit
    in 64 bits raise TraceFormatError.

    A compiled trace bound under `timing` whose rows fit `row_count` takes
    the lowering it was bound with, which its template proved fault-free.
    """
    template = getattr(trace, "program", None)
    if (template is not None and template.timing == timing
            and template.lowering.fault_at is None
            and (row_count is None or 0 <= trace.row_span[0]
                 and trace.row_span[1] < row_count)):
        low = trace.lowering
        if written is not None:  # a majority resets the set
            kept = () if low.majorities else written
            low = replace(low, written={*kept, *template.lowering.written})
        return low
    return _lower_commands(trace, timing, row_count, written)


def _lower_commands(trace: Sequence[Command], timing: TimingModel,
                    row_count: int | None,
                    written: Iterable[int] | None) -> Lowering:
    """`lower`, from the commands alone."""
    act_kind = CommandKind.ACT
    gap_list = [c.gap_after for c in trace]
    clock_list = list(accumulate(gap_list, initial=0))
    try:
        is_act = np.array([c.kind is act_kind for c in trace], dtype=bool)
        row = np.array([-1 if c.row is None else c.row for c in trace],
                       dtype=np.int64)
        gaps = np.array(gap_list, dtype=np.int64)
        clocks = np.array(clock_list[:-1], dtype=np.int64)
    except OverflowError:
        raise TraceFormatError("trace row or gap does not fit in 64 bits") from None
    flags = gap_flags(gaps, timing)
    faults = []

    acts = np.flatnonzero(is_act)
    if row_count is not None:
        faults.extend(acts[(row[acts] < 0) | (row[acts] >= row_count)][:1])
    faults.extend(acts[(acts > 0) & is_act[acts - 1]][:1])

    # a window ends at every ACT that follows ACT, PRE
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
        is_act=is_act, rows=row, gaps=gaps, clocks=clocks,
        duration=clock_list[-1], flags=flags, ops=ops,
        majorities=majorities, written=written,
        fault_at=int(min(faults)) if faults else None)


class Template:
    """A program lowered and tallied once, with its probe ACTs left open.

    `slots` index the probe ACTs of `commands`, whose rows are placeholders.
    Each probe ACT is the source of one row copy and closes no window, so
    binding rows to them changes only those ACT rows and copy sources. All
    else in the lowering holds for any probe rows, and so does the
    stale-preset check, which passes here from an empty written set.
    """

    def __init__(self, commands: Sequence[Command], slots: Sequence[int],
                 timing: TimingModel):
        self.commands = tuple(commands)
        self.slots = list(slots)
        self.timing = timing
        self.lowering = low = lower(self.commands, timing, written=set())
        low.tally()
        op_at = {at: i for i, (at, _) in enumerate(low.ops)}
        self.slot_ops = [op_at.get(slot + 2) for slot in self.slots]
        for slot, i in zip(self.slots, self.slot_ops):
            # a gap below the multi threshold before the slot could make a
            # majority whose rows depend on the probe row
            if (i is None or len(low.ops[i][1]) != 2 or slot in op_at
                    or (slot and low.flags[0][slot - 1])):
                raise TraceFormatError(f"probe ACT {slot} is not only a copy source")
        # placeholders included: a wider span only costs a plain lowering
        used = [*low.rows[low.is_act].tolist(),
                *(row for _, rows in low.ops if len(rows) == 3 for row in rows)]
        self.row_span = (min(used, default=0), max(used, default=0))

    def bind(self, probes: Sequence[Command]) -> CompiledTrace:
        """The trace with the ACT commands `probes` in its slots, carrying
        the template's lowering with their rows bound."""
        trace = CompiledTrace(self.commands)
        low = self.lowering
        rows, ops = low.rows.copy(), low.ops.copy()
        for slot, i, cmd in zip(self.slots, self.slot_ops, probes, strict=True):
            trace[slot] = cmd
            rows[slot] = cmd.row
            ops[i] = (ops[i][0], (cmd.row, ops[i][1][1]))
        trace.lowering = replace(low, rows=rows, ops=ops, written=None)
        probe_rows = [cmd.row for cmd in probes]
        trace.row_span = (min([self.row_span[0], *probe_rows]),
                          max([self.row_span[1], *probe_rows]))
        trace.program = self
        return trace


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

    def __init__(self, rows: int, cols: int):
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
        self.tracker = RefreshTracker(rows, cols)
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
        if not self.open_rows:
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

        The trace is lowered once, on its own, and only its copies and
        majorities touch the cell grid. If its first commands close any
        window but a plain read with the last commands before it, or the
        reference would fault or warn anywhere in the trace, nothing is
        changed here and the trace is replayed through `apply`, which
        raises or warns at the same command.
        """
        trace = trace if isinstance(trace, list) else list(trace)
        if not trace:
            return
        low = None
        if self._joins_as_read(trace):
            try:
                low = lower(trace, self.timing, self.rows,
                            self._written_since_majority)
            except TraceFormatError:
                pass
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
            cells[rows[0]] = cells[rows[1]] = cells[rows[2]] = (a & b) | (c & (a | b))
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
        if not low.is_act[-1]:
            self.open_rows = set()
        elif low.ops and low.ops[-1][0] == len(trace) - 1 and len(low.ops[-1][1]) == 3:
            self.open_rows = set(low.ops[-1][1])
        else:
            self.open_rows = {int(low.rows[-1])}

    def _joins_as_read(self, trace: list[Command]) -> bool:
        """Whether every window that the first commands of `trace` close
        with the last commands before it is a plain read, with no fault, so
        that the trace may be lowered on its own. No other code classifies
        a window across a trace boundary."""
        cmds = [*self._recent, *trace[:2]]
        for end in range(len(self._recent), len(cmds)):
            if cmds[end].kind is CommandKind.ACT:
                if end and cmds[end - 1].kind is CommandKind.ACT:
                    return False
                try:
                    if detect_micro_op(cmds[:end + 1], self.timing).kind is not MicroOp.NONE:
                        return False
                except DramCamError:
                    return False
        return True

    def _apply_pre(self, cmd: Command) -> None:
        self.open_rows = set()
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
