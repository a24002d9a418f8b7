"""Search engine over a subarray: encoding, compare programs, readout.

Datawords live transposed, one word per column, two rows per bit (a bit
and its complement), so activating one row of each pair reads the per-bit
compare result of the whole database at once. Query bits select which row
of each pair opens; a truncated-precharge copy stages that result and a
majority accumulates it. NAND programs AND per-bit equalities (match
reads 1); NOR programs OR per-bit inequalities (match reads 0); the
distance-1 program keeps an exact and a one-mismatch-tolerant running
result in temp rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import TimingModel
from .core import Subarray
from .errors import EncodingFault, LayoutFault, TraceFormatError
from .microops import (ComputeRows, TempRows, allocate_reserved_rows, and3,
                       cpy, or3)
from .trace import Command, act, pre


class Mode(Enum):
    NAND = "nand"
    NOR = "nor"


class Polarity(Enum):
    MATCH_IS_1 = "match_is_1"
    MATCH_IS_0 = "match_is_0"


# bit -> (even cell, odd cell); don't-care differs per mode
_BIT_CELLS = {"0": (1, 0), "1": (0, 1)}
_DONT_CARE_CELLS = {Mode.NAND: (1, 1), Mode.NOR: (0, 0)}


@dataclass(frozen=True)
class LayoutMap:
    """Row-role assignment for one subarray holding m-bit words.

    Bit j of every word occupies the row pair (2j, 2j+1); the reserved
    compute/constant/temp block sits above all data pairs.
    """

    word_length: int
    column_capacity: int
    rows_per_subarray: int
    compute: ComputeRows
    temps: TempRows

    @classmethod
    def for_subarray(cls, rows: int, cols: int, word_length: int) -> "LayoutMap":
        if word_length < 1:
            raise LayoutFault("word length must be >= 1")
        compute, temps = allocate_reserved_rows(rows)
        reserved_base = min(compute.all_rows() + (temps.xnor, temps.exact,
                                                  temps.tolerant))
        if 2 * word_length > reserved_base:
            raise LayoutFault(
                f"{word_length}-bit words need {2 * word_length} data rows but "
                f"only {reserved_base} sit below the reserved block")
        return cls(word_length, cols, rows, compute, temps)

    def data_row(self, bit_index: int, bit: int) -> int:
        """Row opened to compare bit `bit_index` against query bit `bit`."""
        return 2 * bit_index + bit

    def data_rows(self) -> range:
        return range(2 * self.word_length)

    def is_data_row(self, row: int) -> bool:
        return row < 2 * self.word_length


def encode_word(word: str | Sequence[int], mode: Mode | None = None) -> np.ndarray:
    """Column cell image of one word; symbols 0, 1 and X (don't-care).

    Binary words encode identically in both modes; a don't-care requires
    the mode to be named, since its cell pair differs.
    """
    cells = []
    for i, sym in enumerate(_symbols(word)):
        if sym in _BIT_CELLS:
            cells.extend(_BIT_CELLS[sym])
        elif sym == "X":
            if mode is None:
                raise EncodingFault(
                    f"don't-care at position {i} needs an explicit mode")
            cells.extend(_DONT_CARE_CELLS[mode])
        else:
            raise EncodingFault(f"symbol {sym!r} at position {i} is not 0/1/X")
    return np.array(cells, dtype=np.uint8)


def decode_column(cells: np.ndarray | Sequence[int], mode: Mode = Mode.NAND) -> str:
    """Invert encode_word; faults on a pair the mode cannot produce."""
    cells = np.asarray(cells, dtype=np.uint8)
    if cells.ndim != 1 or len(cells) % 2:
        raise EncodingFault(f"cell image length {cells.shape} is not 2m")
    out = []
    for j in range(len(cells) // 2):
        pair = (int(cells[2 * j]), int(cells[2 * j + 1]))
        if pair == (1, 0):
            out.append("0")
        elif pair == (0, 1):
            out.append("1")
        elif pair == _DONT_CARE_CELLS[mode]:
            out.append("X")
        else:
            raise EncodingFault(f"cell pair {pair} at bit {j} invalid for {mode.value}")
    return "".join(out)


def store(sub: Subarray, layout: LayoutMap, columns: Sequence[np.ndarray]) -> None:
    """Write encoded columns into the data rows and initialize the constants.

    Unused columns are cleared; reserved rows other than c0/c1 are left
    untouched.
    """
    if len(columns) > layout.column_capacity:
        raise LayoutFault(
            f"{len(columns)} words exceed the {layout.column_capacity}-column capacity")
    grid = np.zeros((2 * layout.word_length, sub.cols), dtype=np.uint8)
    for c, col_cells in enumerate(columns):
        if col_cells.shape != (2 * layout.word_length,):
            raise EncodingFault(
                f"column {c} has {col_cells.shape} cells, expected {2 * layout.word_length}")
        grid[:, c] = col_cells
    for row in layout.data_rows():
        sub.write_row(row, grid[row])
    sub.write_row(layout.compute.c0, np.zeros(sub.cols, dtype=np.uint8))
    sub.write_row(layout.compute.c1, np.ones(sub.cols, dtype=np.uint8))


@dataclass(frozen=True)
class MatchVector:
    """Per-column verdict bits as read from the result row."""

    verdicts: np.ndarray
    polarity: Polarity

    def matches(self) -> np.ndarray:
        if self.polarity is Polarity.MATCH_IS_1:
            return self.verdicts == 1
        return self.verdicts == 0

    def to_line(self) -> str:
        return "".join(str(int(v)) for v in self.verdicts) + f" {self.polarity.value}"


@dataclass(frozen=True)
class CompiledCompare:
    """A compare program plus what its readout means."""

    trace: list[Command] = field(repr=False)
    polarity: Polarity
    result_row: int
    kind: str
    word_length: int


def _probe_rows(layout: LayoutMap, query: str, invert: bool,
                ignore_positions: Iterable[int] | None) -> list[int]:
    bits = _symbols(query)
    if len(bits) != layout.word_length:
        raise EncodingFault(
            f"query length {len(bits)} != word length {layout.word_length}")
    skip = set(ignore_positions or ())
    rows = []
    for j, sym in enumerate(bits):
        if j in skip:
            continue
        if sym not in "01":
            raise EncodingFault(f"query symbol {sym!r} at {j}: queries are binary")
        bit = int(sym) ^ int(invert)
        rows.append(layout.data_row(j, bit))
    return rows


def serial_accumulate(probe_rows: Sequence[int], compute: ComputeRows,
                      timing: TimingModel, fold_or: bool = False) -> list[Command]:
    """Probe each row in turn, folding the reads into r2 with AND (or OR).

    r2 is initialized from the fold identity; each step stages the probed
    row in r3, re-copies the preset into r1, and majority-merges.
    """
    init = compute.c0 if fold_or else compute.c1
    preset = compute.c1 if fold_or else compute.c0
    merge = or3 if fold_or else and3
    cmds = cpy(compute.r2, init, timing)
    # everything after the staging copy is the same for every probe
    step = (cpy(compute.r1, preset, timing) + merge(compute, timing)
            if probe_rows else [])
    for row in probe_rows:
        cmds += cpy(compute.r3, row, timing)
        cmds += step
    cmds += [pre(timing.t_rp), act(compute.r2, timing.t_ras)]
    return cmds


def serial_hd1(probe_rows: Sequence[int], compute: ComputeRows, temps: TempRows,
               timing: TimingModel) -> list[Command]:
    """Distance-1 tolerant accumulation over per-position match reads.

    Keeps two running rows: `exact` (all positions so far matched) and
    `tolerant` (at most one mismatch so far), updated per position as
        tolerant' = (tolerant AND x) OR exact
        exact'    = exact AND x
    with x staged in the xnor temp row. The final verdict is `tolerant`.
    """
    stage, exact, tolerant = temps.xnor, temps.exact, temps.tolerant
    cmds = cpy(exact, compute.c1, timing) + cpy(tolerant, compute.c1, timing)
    step = _hd1_step(compute, temps, timing) if probe_rows else []
    for row in probe_rows:
        cmds += cpy(stage, row, timing)
        cmds += step
    cmds += [pre(timing.t_rp), act(tolerant, timing.t_ras)]
    return cmds


def _hd1_step(compute: ComputeRows, temps: TempRows,
              timing: TimingModel) -> list[Command]:
    """One distance-1 position once its match read is staged in `xnor`.

    It is the same for every position, so it is built once per program.
    """
    stage, exact, tolerant = temps.xnor, temps.exact, temps.tolerant
    cmds = cpy(compute.r1, compute.c0, timing)
    cmds += cpy(compute.r2, tolerant, timing)
    cmds += cpy(compute.r3, stage, timing)
    cmds += and3(compute, timing)
    cmds += cpy(tolerant, compute.r2, timing)
    cmds += cpy(compute.r1, compute.c1, timing)
    cmds += cpy(compute.r2, tolerant, timing)
    cmds += cpy(compute.r3, exact, timing)
    cmds += or3(compute, timing)
    cmds += cpy(tolerant, compute.r2, timing)
    cmds += cpy(compute.r1, compute.c0, timing)
    cmds += cpy(compute.r2, exact, timing)
    cmds += cpy(compute.r3, stage, timing)
    cmds += and3(compute, timing)
    cmds += cpy(exact, compute.r2, timing)
    return cmds


def compile_nand_compare(query: str | Sequence[int], layout: LayoutMap,
                         timing: TimingModel,
                         ignore_positions: Iterable[int] | None = None,
                         ) -> CompiledCompare:
    """Exact-match program; verdict 1 marks columns equal to the query.

    `ignore_positions` skips those bit iterations, which leaves the running
    AND untouched — the query-side counterpart of a stored don't-care.
    """
    rows = _probe_rows(layout, query, invert=False,
                       ignore_positions=ignore_positions)
    trace = serial_accumulate(rows, layout.compute, timing, fold_or=False)
    return CompiledCompare(trace, Polarity.MATCH_IS_1, layout.compute.r2,
                           "nand", layout.word_length)


def compile_nor_compare(query: str | Sequence[int], layout: LayoutMap,
                        timing: TimingModel,
                        ignore_positions: Iterable[int] | None = None,
                        ) -> CompiledCompare:
    """Mismatch-accumulating program; a match column reads 0.

    Each query bit opens the row its complement would open in the exact
    program, so the read is the per-bit inequality, OR-folded into r2.
    """
    rows = _probe_rows(layout, query, invert=True,
                       ignore_positions=ignore_positions)
    trace = serial_accumulate(rows, layout.compute, timing, fold_or=True)
    return CompiledCompare(trace, Polarity.MATCH_IS_0, layout.compute.r2,
                           "nor", layout.word_length)


def compile_hd1_compare(query: str | Sequence[int], layout: LayoutMap,
                        timing: TimingModel) -> CompiledCompare:
    """Tolerant program; verdict 1 marks columns within one mismatching bit."""
    rows = _probe_rows(layout, query, invert=False, ignore_positions=None)
    trace = serial_hd1(rows, layout.compute, layout.temps, timing)
    return CompiledCompare(trace, Polarity.MATCH_IS_1, layout.temps.tolerant,
                           "hd1", layout.word_length)


def run_compare(sub: Subarray, compiled: CompiledCompare,
                columns: int | None = None) -> MatchVector:
    """Execute a compiled program and read the verdicts.

    Data rows come back bit-identical; compute and temp rows are clobbered.
    `columns` truncates the verdict to the stored word count (essential for
    match-is-0 programs, where an empty column reads as a match).
    """
    if not compiled.trace:
        raise TraceFormatError("empty compare trace")
    sub.execute(compiled.trace)
    buf = sub.read_row_buffer()
    if columns is not None:
        buf = buf[:columns]
    return MatchVector(buf, compiled.polarity)


def compile_fold_init(layout: LayoutMap, timing: TimingModel,
                      fold_or: bool = True) -> list[Command]:
    """Reset the accumulator row to the fold identity (0 for OR, 1 for AND)."""
    const = layout.compute.c0 if fold_or else layout.compute.c1
    return cpy(layout.temps.exact, const, timing)


def compile_fold(layout: LayoutMap, timing: TimingModel,
                 fold_or: bool = True) -> list[Command]:
    """Merge the fresh r2 verdict into the accumulator row, then re-read it.

    Applies after an exact or mismatch compare (result in r2). The
    accumulator reuses the `exact` temp row, so folding cannot be combined
    with the distance-1 program in one pass.
    """
    compute, acc = layout.compute, layout.temps.exact
    preset = compute.c1 if fold_or else compute.c0
    merge = or3 if fold_or else and3
    cmds = cpy(compute.r3, acc, timing)
    cmds += cpy(compute.r1, preset, timing)
    cmds += merge(compute, timing)
    cmds += cpy(acc, compute.r2, timing)
    cmds += [pre(timing.t_rp), act(acc, timing.t_ras)]
    return cmds


def _symbols(word: str | Sequence[int]) -> str:
    if isinstance(word, str):
        return word.strip().upper()
    return "".join(str(int(b)) for b in word)


# -- database images ---------------------------------------------------------

_MAGIC = b"DCDB1\n"


def write_image(path: str | Path, header: dict, payload: bytes) -> None:
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    Path(path).write_bytes(_MAGIC + body + b"\n" + payload)


def read_image(path: str | Path) -> tuple[dict, bytes]:
    raw = Path(path).read_bytes()
    if not raw.startswith(_MAGIC):
        raise EncodingFault(f"{path}: not a database image")
    header_line, _, payload = raw[len(_MAGIC):].partition(b"\n")
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise EncodingFault(f"{path}: bad image header: {exc}") from None
    return header, payload


def read_image_header(path: str | Path) -> dict:
    return read_image(path)[0]


@dataclass
class WordDb:
    """A stored-word database: encoded columns plus their mode."""

    word_length: int
    mode: Mode
    columns: list[np.ndarray]

    @property
    def count(self) -> int:
        return len(self.columns)


def save_word_db(path: str | Path, db: WordDb) -> None:
    header = {"kind": "words", "m": db.word_length, "count": db.count,
              "mode": db.mode.value}
    stride = -(-2 * db.word_length // 8)
    payload = bytearray()
    for col in db.columns:
        packed = np.packbits(col, bitorder="little").tobytes()
        payload += packed.ljust(stride, b"\x00")
    write_image(path, header, bytes(payload))


def load_word_db(path: str | Path) -> WordDb:
    header, payload = read_image(path)
    if header.get("kind") != "words":
        raise EncodingFault(f"{path}: image holds {header.get('kind')!r}, not words")
    m, count = header["m"], header["count"]
    stride = -(-2 * m // 8)
    if len(payload) != stride * count:
        raise EncodingFault(f"{path}: payload is {len(payload)} bytes, "
                            f"expected {stride * count}")
    columns = []
    for i in range(count):
        chunk = np.frombuffer(payload[i * stride:(i + 1) * stride], dtype=np.uint8)
        columns.append(np.unpackbits(chunk, bitorder="little", count=2 * m))
    return WordDb(m, Mode(header["mode"]), columns)
