"""Timing-violation macro-operations: row copy and triple-row majority.

Both are expressed purely as ACT/PRE fragments with sub-nominal gaps.
`cpy` shortens only the precharge after the source activation, so the
sense amplifiers still drive the bitlines when the target row opens.
`and3`/`or3` shorten both intervals, which opens three rows at once and
leaves every column of all three rows at the majority value; AND and OR
fall out of presetting one row to all-zeros or all-ones beforehand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .config import TimingModel
from .errors import AddressFault, LayoutFault, NoOpFault
from .trace import Command, act, pre

# Low-order address bits the three majority rows must carry.
_R1_LOW, _R2_LOW, _R3_LOW = 0b01, 0b10, 0b00


@dataclass(frozen=True)
class ComputeRows:
    """Reserved rows: the majority triple r1/r2/r3 plus constants c0/c1.

    The triple must sit in one 4-aligned address block with low-order bits
    01, 10 and 00; the all-zeros and all-ones rows only ever serve as copy
    sources, so a single initialization keeps them valid.
    """

    r1: int
    r2: int
    r3: int
    c0: int
    c1: int

    def triple(self) -> tuple[int, int, int]:
        return (self.r1, self.r2, self.r3)

    def all_rows(self) -> tuple[int, ...]:
        return (self.r1, self.r2, self.r3, self.c0, self.c1)


def check_row_constraints(rows: ComputeRows) -> str | None:
    """Validate a ComputeRows assignment; returns a violation description or None."""
    if len(set(rows.all_rows())) != 5:
        return f"reserved rows must be pairwise distinct: {rows.all_rows()}"
    if min(rows.all_rows()) < 0:
        return f"negative row index in {rows.all_rows()}"
    expected = {_R1_LOW: rows.r1, _R2_LOW: rows.r2, _R3_LOW: rows.r3}
    for low, row in expected.items():
        if row & 0b11 != low:
            return f"row {row} must carry low-order bits {low:02b}"
    if not (rows.r1 >> 2 == rows.r2 >> 2 == rows.r3 >> 2):
        return (f"majority rows {rows.triple()} must share their "
                "high-order address bits")
    return None


def majority_row_set(row_a: int, row_b: int) -> tuple[int, int, int]:
    """The three rows a minimum-gap ACT-PRE-ACT on `row_a`, `row_b` opens.

    The pair must name two distinct members of one constrained triple; the
    third member is implied by the remaining low-order pattern.
    """
    if row_a == row_b:
        raise AddressFault(f"multi-activate needs two distinct rows, got {row_a}")
    if row_a >> 2 != row_b >> 2:
        raise AddressFault(
            f"multi-activate rows {row_a} and {row_b} differ in high-order bits")
    lows = {row_a & 0b11, row_b & 0b11}
    if not lows <= {_R1_LOW, _R2_LOW, _R3_LOW}:
        raise AddressFault(
            f"multi-activate rows {row_a}, {row_b} must carry low bits 00/01/10")
    base = row_a & ~0b11
    return (base + _R3_LOW, base + _R1_LOW, base + _R2_LOW)


@dataclass(frozen=True)
class TempRows:
    """Scratch rows for the distance-1 compare: per-bit result staging,

    exact running match, and the one-mismatch-tolerant running match."""

    xnor: int
    exact: int
    tolerant: int


def allocate_reserved_rows(rows_per_subarray: int) -> tuple[ComputeRows, TempRows]:
    """Reserve the top 4-aligned 8-row block for compute, constant and temp rows."""
    base = (rows_per_subarray - 8) & ~0b11
    if base < 0:
        raise LayoutFault(
            f"{rows_per_subarray} rows cannot host the reserved 8-row block")
    compute = ComputeRows(r1=base + _R1_LOW, r2=base + _R2_LOW, r3=base + _R3_LOW,
                          c0=base + 4, c1=base + 5)
    temps = TempRows(xnor=base + 3, exact=base + 6, tolerant=base + 7)
    return compute, temps


# Fragments depend only on frozen arguments, so each is built and checked
# once; the public builders hand out fresh lists that callers may extend.
# lru_cache stores no exceptions, so a bad fragment faults on every call.

@lru_cache(maxsize=4096)
def _copy_fragment(target: int, source: int,
                   timing: TimingModel) -> tuple[Command, ...]:
    if target == source:
        raise NoOpFault(f"copy of row {source} onto itself")
    if target < 0 or source < 0:
        raise AddressFault(f"negative row in copy {source} -> {target}")
    return (
        pre(timing.t_rp),
        act(source, timing.t_ras),
        pre(timing.copy_gap),
        act(target, timing.t_ras),
    )


def cpy(target: int, source: int, timing: TimingModel) -> list[Command]:
    """Row copy fragment: open source, truncate the precharge, open target."""
    return list(_copy_fragment(target, source, timing))


@lru_cache(maxsize=256)
def _majority(rows: ComputeRows, timing: TimingModel) -> tuple[Command, ...]:
    violation = check_row_constraints(rows)
    if violation:
        raise AddressFault(violation)
    return (
        pre(timing.t_rp),
        act(rows.r1, timing.multi_gap),
        pre(timing.multi_gap),
        act(rows.r2, timing.t_ras),
    )


def and3(rows: ComputeRows, timing: TimingModel) -> list[Command]:
    """Majority fragment used as AND: a participant row must hold all-zeros."""
    return list(_majority(rows, timing))


def or3(rows: ComputeRows, timing: TimingModel) -> list[Command]:
    """Majority fragment used as OR: a participant row must hold all-ones."""
    return list(_majority(rows, timing))
