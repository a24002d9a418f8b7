"""ACT/PRE command sequences and their line-oriented text form.

A trace is a plain list of :class:`Command`. Each command carries the time
gap (abstract units, one DRAM clock cycle each) between itself and the next
command; all timing-violation behavior is expressed through these gaps. A
compiled program's trace is a :class:`CompiledTrace`, a list that also
carries the template it was bound from.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import TraceFormatError


class CommandKind(Enum):
    ACT = "ACT"
    PRE = "PRE"


@dataclass(frozen=True)
class Command:
    """One DRAM command plus the idle gap that follows it."""

    kind: CommandKind
    row: int | None
    gap_after: int


class CompiledTrace(list):
    """The commands of a compiled program, plus `program`: the
    `core.Template` they were bound from, or None once the list changes.
    `core.Template.bind` also sets `lowering` (the template's, with this
    trace's probe rows) and `row_span` (a range holding every row it
    opens); only `core.lower` reads them, while `program` is set.

    Concatenating or copying one gives a plain list.
    """

    program = None


def _forgets_program(name: str):
    method = getattr(list, name)

    def changed(self, *args, **kwargs):
        self.program = None
        return method(self, *args, **kwargs)
    changed.__name__ = name
    return changed


for _name in ("__setitem__", "__delitem__", "__iadd__", "__imul__", "append",
              "extend", "insert", "pop", "remove", "clear", "sort", "reverse"):
    setattr(CompiledTrace, _name, _forgets_program(_name))


def act(row: int, gap: int) -> Command:
    return Command(CommandKind.ACT, row, gap)


def pre(gap: int) -> Command:
    return Command(CommandKind.PRE, None, gap)


def format_trace(trace: Iterable[Command]) -> str:
    """Render a trace in the canonical one-command-per-line text form."""
    lines = []
    for cmd in trace:
        if cmd.kind is CommandKind.ACT:
            lines.append(f"ACT {cmd.row} gap={cmd.gap_after}")
        else:
            lines.append(f"PRE gap={cmd.gap_after}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_trace(text: str) -> list[Command]:
    """Parse the text form back into a command list.

    Blank lines and `#` comments are permitted in hand-written files; the
    canonical emitter never produces them, so parse→emit is bit-exact on
    canonical text.
    """
    commands: list[Command] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "ACT":
                if len(parts) != 3:
                    raise ValueError("expected 'ACT <row> gap=<int>'")
                row = int(parts[1])
                gap = _parse_gap(parts[2])
                if row < 0:
                    raise ValueError("negative row")
                commands.append(act(row, gap))
            elif parts[0] == "PRE":
                if len(parts) != 2:
                    raise ValueError("expected 'PRE gap=<int>'")
                commands.append(pre(_parse_gap(parts[1])))
            else:
                raise ValueError(f"unknown command {parts[0]!r}")
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from None
    return commands


def _parse_gap(token: str) -> int:
    if not token.startswith("gap="):
        raise ValueError(f"expected gap=<int>, got {token!r}")
    gap = int(token[4:])
    if gap < 0:
        raise ValueError("negative gap")
    return gap


def trace_cycles(trace: Sequence[Command]) -> int:
    """Total simulated duration of a trace: the sum of its gaps, which a
    compiled trace's template holds."""
    template = getattr(trace, "program", None)
    if template is not None:
        return template.lowering.duration
    return sum(cmd.gap_after for cmd in trace)


def activated_rows(trace: Iterable[Command]) -> list[int]:
    """Rows opened by ACT commands, in issue order."""
    return [cmd.row for cmd in trace if cmd.kind is CommandKind.ACT]
