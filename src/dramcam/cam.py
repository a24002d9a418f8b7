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
from dataclasses import dataclass, field, is_dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .config import TimingModel
from .core import Subarray, Template
from .errors import EncodingFault, LayoutFault, TraceFormatError
from .microops import (ComputeRows, TempRows, allocate_reserved_rows, and3,
                       cpy, or3, reserved_base)
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
        base = reserved_base(rows)
        if 2 * word_length > base:
            raise LayoutFault(
                f"{word_length}-bit words need {2 * word_length} data rows but "
                f"only {base} sit below the reserved block")
        return cls(word_length, cols, rows, *allocate_reserved_rows(rows))

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
    symbols = {pair: sym for sym, pair in _BIT_CELLS.items()}
    symbols[_DONT_CARE_CELLS[mode]] = "X"
    out = []
    for j in range(len(cells) // 2):
        pair = (int(cells[2 * j]), int(cells[2 * j + 1]))
        if pair not in symbols:
            raise EncodingFault(f"cell pair {pair} at bit {j} invalid for {mode.value}")
        out.append(symbols[pair])
    return "".join(out)


def store(sub: Subarray, layout: LayoutMap, columns: Sequence[np.ndarray]) -> None:
    """Write encoded columns into the data rows and initialize the constants.

    Unused columns are cleared; reserved rows other than c0/c1 are left
    untouched.
    """
    if len(columns) > layout.column_capacity:
        raise LayoutFault(
            f"{len(columns)} words exceed the {layout.column_capacity}-column capacity")
    grid = np.zeros((2 * layout.word_length, len(columns)), dtype=np.uint8)
    for c, col_cells in enumerate(columns):
        if col_cells.shape != (2 * layout.word_length,):
            raise EncodingFault(
                f"column {c} has {col_cells.shape} cells, expected {2 * layout.word_length}")
        grid[:, c] = col_cells
    store_grid(sub, grid, layout.compute)


def store_grid(sub: Subarray, grid: np.ndarray, compute: ComputeRows) -> None:
    """Write `grid` into rows 0.. of `sub`, zero-padded to the row width,
    then initialize the c0/c1 constant rows."""
    bits = np.zeros(sub.cols, dtype=np.uint8)  # write_row copies it
    for row, data in enumerate(grid):
        bits[:len(data)] = data
        sub.write_row(row, bits)
    sub.write_row(compute.c0, np.zeros(sub.cols, dtype=np.uint8))
    sub.write_row(compute.c1, np.ones(sub.cols, dtype=np.uint8))


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


def _probe_rows(layout: LayoutMap, query: str, invert: bool,
                ignore: Iterable[int] | None) -> list[int]:
    bits = _symbols(query)
    if len(bits) != layout.word_length:
        raise EncodingFault(
            f"query length {len(bits)} != word length {layout.word_length}")
    skip = set(ignore or ())
    rows = []
    for j, sym in enumerate(bits):
        if j in skip:
            continue
        if sym not in "01":
            raise EncodingFault(f"query symbol {sym!r} at {j}: queries are binary")
        bit = int(sym) ^ int(invert)
        rows.append(layout.data_row(j, bit))
    return rows


def _hd1_step(compute: ComputeRows, temps: TempRows,
              timing: TimingModel) -> list[Command]:
    """One distance-1 position once its match read is staged in `xnor`."""
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


def fold(kind: str, compute: ComputeRows, temps: TempRows, timing: TimingModel
         ) -> tuple[list[Command], int, list[Command], int]:
    """The parts of the bit-serial compare program of `kind`: its init, the
    staging row each probed row is copied into, the step that folds the
    staged row into the running result, and the row read at the end.

    nand and nor stage in r3 and fold into r2 through a majority with r1
    preset to c0 (AND, match reads 1) or c1 (OR, match reads 0). hd1 stages
    in `xnor` and keeps two running rows, `exact` (all positions so far
    matched) and `tolerant` (at most one mismatch so far), updated as
        tolerant' = (tolerant AND x) OR exact
        exact'    = exact AND x
    and reads `tolerant` (match reads 1).
    """
    if kind == "hd1":
        init = (cpy(temps.exact, compute.c1, timing)
                + cpy(temps.tolerant, compute.c1, timing))
        return init, temps.xnor, _hd1_step(compute, temps, timing), temps.tolerant
    if kind in ("nand", "nor"):
        # r2 starts at the fold identity; r1 gets the opposite constant
        init, preset, merge = ((compute.c0, compute.c1, or3) if kind == "nor"
                               else (compute.c1, compute.c0, and3))
        step = cpy(compute.r1, preset, timing) + merge(compute, timing)
        return cpy(compute.r2, init, timing), compute.r3, step, compute.r2
    raise EncodingFault(f"unknown compare kind {kind!r}")


def _program(probe_rows: Sequence[int], compute: ComputeRows, temps: TempRows,
             timing: TimingModel, kind: str) -> tuple[list[Command], list[int]]:
    """The commands of the `kind` program over rows probed in turn, and the
    index of each probe ACT among them. Each probed row is copied into the
    staging row, then folded in by a step that is the same for every
    probe."""
    cmds, stage, step, result = fold(kind, compute, temps, timing)
    slots = []
    for row in probe_rows:
        slots.append(len(cmds) + 1)
        cmds += cpy(stage, row, timing)
        cmds += step
    cmds += [pre(timing.t_rp), act(result, timing.t_ras)]
    return cmds, slots


def _polarity(kind: str) -> Polarity:
    return Polarity.MATCH_IS_0 if kind == "nor" else Polarity.MATCH_IS_1


def _compiled(probe_rows: Sequence[int], layout: LayoutMap, timing: TimingModel,
              kind: str) -> CompiledCompare:
    """A word compare as a plain trace, which `Subarray.execute` lowers."""
    cmds, _ = _program(probe_rows, layout.compute, layout.temps, timing, kind)
    return CompiledCompare(cmds, _polarity(kind))


@lru_cache(maxsize=256)
def _template(kind: str, probes: int, compute: ComputeRows, temps: TempRows,
              timing: TimingModel) -> tuple[Template, int]:
    """The template of one program shape, and its staging row."""
    # c0 holds each probe slot's place; binding replaces it
    cmds, slots = _program([compute.c0] * probes, compute, temps, timing, kind)
    return Template(cmds, slots, timing), fold(kind, compute, temps, timing)[1]


def compile_program(probe_rows: Sequence[int], layout, timing: TimingModel,
                    kind: str) -> CompiledCompare:
    """The `kind` program over rows probed in turn (see `fold`), bound
    into the template of its shape: the trace equals `_program`'s, and it
    carries the template's lowering for `Subarray.execute` and
    `metrics.account`. `layout` is any layout with `compute` and `temps`
    rows."""
    template, stage = _template(kind, len(probe_rows), layout.compute,
                                layout.temps, timing)
    # each probe row enters through a copy onto the staging row, which
    # checks it as `_program` does
    probes = [cpy(stage, row, timing)[1] for row in probe_rows]
    return CompiledCompare(template.bind(probes), _polarity(kind))


def compile_nand_compare(query: str | Sequence[int], layout: LayoutMap,
                         timing: TimingModel,
                         ignore_positions: Iterable[int] | None = None,
                         ) -> CompiledCompare:
    """Exact-match program; verdict 1 marks columns equal to the query.

    `ignore_positions` skips those bit iterations, which leaves the running
    AND untouched — the query-side counterpart of a stored don't-care.
    """
    rows = _probe_rows(layout, query, invert=False, ignore=ignore_positions)
    return _compiled(rows, layout, timing, "nand")


def compile_nor_compare(query: str | Sequence[int], layout: LayoutMap,
                        timing: TimingModel,
                        ignore_positions: Iterable[int] | None = None,
                        ) -> CompiledCompare:
    """Mismatch-accumulating program; a match column reads 0.

    Each query bit opens the row its complement would open in the exact
    program, so the read is the per-bit inequality, OR-folded into r2.
    """
    rows = _probe_rows(layout, query, invert=True, ignore=ignore_positions)
    return _compiled(rows, layout, timing, "nor")


def compile_hd1_compare(query: str | Sequence[int], layout: LayoutMap,
                        timing: TimingModel) -> CompiledCompare:
    """Tolerant program; verdict 1 marks columns within one mismatching bit."""
    rows = _probe_rows(layout, query, invert=False, ignore=None)
    return _compiled(rows, layout, timing, "hd1")


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


def _symbols(word: str | Sequence[int]) -> str:
    if isinstance(word, str):
        return word.strip().upper()
    return "".join(str(int(b)) for b in word)


# -- database images ---------------------------------------------------------

_MAGIC = b"DCDB1\n"


def write_image(path: str | Path, header, payload: bytes) -> None:
    """`header` is a header dataclass (see `read_image`) or a JSON object."""
    if is_dataclass(header):
        header = {"kind": header.kind, **vars(header)}
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    Path(path).write_bytes(_MAGIC + body + b"\n" + payload)


def read_image(path: str | Path, header_type=None):
    """Header and payload of an image. A `header_type` is the header
    dataclass of one image kind: the header must be of its `kind` and hold
    its fields, with their JSON types, and is returned as one."""
    raw = Path(path).read_bytes()
    if not raw.startswith(_MAGIC):
        raise EncodingFault(f"{path}: not a database image")
    header_line, _, payload = raw[len(_MAGIC):].partition(b"\n")
    try:
        header = json.loads(header_line)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8
        raise EncodingFault(f"{path}: bad image header: {exc}") from None
    if not isinstance(header, dict):
        raise EncodingFault(f"{path}: image header is not a JSON object")
    if header_type is None:
        return header, payload
    if header.get("kind") != header_type.kind:
        raise EncodingFault(f"{path}: image holds {header.get('kind')!r}, "
                            f"not {header_type.kind}")
    return from_json(header_type, header, f"{path}: image header"), payload


_type_hints = lru_cache(maxsize=None)(get_type_hints)  # one evaluation per class


def from_json(cls, obj, where: str):
    """Dataclass `cls` from the JSON object `obj`, which must hold each of
    its fields with a value of exactly the field's type (true is no int)."""
    if not isinstance(obj, dict):
        raise EncodingFault(f"{where} is not a JSON object")
    types = _type_hints(cls)  # the fields, in order
    for name, typ in types.items():
        if type(obj.get(name)) is not typ:
            got = type(obj[name]).__name__ if name in obj else "missing"
            raise EncodingFault(f"{where}: {name} must be {typ.__name__}, not {got}")
    return cls(**{name: obj[name] for name in types})


@dataclass
class WordDb:
    """A stored-word database: encoded columns plus their mode."""

    word_length: int
    mode: Mode
    columns: list[np.ndarray]

    @property
    def count(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class WordHeader:
    """The header fields of a word image."""

    kind = "words"
    m: int
    count: int
    mode: str


def save_word_db(path: str | Path, db: WordDb) -> None:
    cells = np.array(db.columns, dtype=np.uint8).reshape(db.count, 2 * db.word_length)
    payload = np.packbits(cells, axis=1, bitorder="little").tobytes()
    write_image(path, WordHeader(db.word_length, db.count, db.mode.value), payload)


def load_word_db(path: str | Path) -> WordDb:
    header, payload = read_image(path, WordHeader)
    m, count = header.m, header.count
    if header.mode not in {mode.value for mode in Mode}:
        raise EncodingFault(f"{path}: unknown encoding mode {header.mode!r}")
    if m < 1 or count < 0:
        raise EncodingFault(f"{path}: {count} words of {m} bits")
    stride = -(-2 * m // 8)
    if len(payload) != stride * count:
        raise EncodingFault(f"{path}: payload is {len(payload)} bytes, "
                            f"expected {stride * count}")
    packed = np.frombuffer(payload, dtype=np.uint8).reshape(count, stride)
    cells = np.unpackbits(packed, axis=1, bitorder="little", count=2 * m)
    return WordDb(m, Mode(header.mode), list(cells))
