"""Device geometry, timing and energy parameters, and key = value config files.

Time inside the simulator is counted in abstract units of one DRAM clock
cycle; ``TimingModel.clock_ns`` converts to nanoseconds for reporting. The
defaults model a DDR3-1600 part (clock 1.25 ns, tRP = 11 cycles = 13.75 ns,
tRAS = 28 cycles = 35 ns).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError


@dataclass(frozen=True)
class TimingModel:
    """Nominal and violation timing, all gap values in clock cycles.

    ``t_copy_threshold`` / ``t_multi_threshold`` classify observed gaps;
    ``copy_gap`` / ``multi_gap`` are the gaps the trace generators emit.
    Gaps between a threshold and the nominal value fall in an undefined
    band: with ``strict`` they fault, otherwise they are treated as
    fully timed.
    """

    clock_ns: float = 1.25
    t_ras: int = 28
    t_rp: int = 11
    t_copy_threshold: int = 6
    t_multi_threshold: int = 2
    copy_gap: int = 2
    multi_gap: int = 1
    strict: bool = True

    def __post_init__(self) -> None:
        if not (0 < self.t_multi_threshold < self.t_copy_threshold < self.t_rp):
            raise ConfigError(
                "thresholds must satisfy 0 < t_multi < t_copy < t_rp, got "
                f"{self.t_multi_threshold}, {self.t_copy_threshold}, {self.t_rp}"
            )
        if not (0 < self.multi_gap < self.copy_gap < self.t_rp):
            raise ConfigError(
                "emitted gaps must satisfy 0 < multi_gap < copy_gap < t_rp, got "
                f"{self.multi_gap}, {self.copy_gap}, {self.t_rp}"
            )
        if self.multi_gap >= self.t_multi_threshold:
            raise ConfigError("multi_gap must classify below t_multi_threshold")
        if self.copy_gap >= self.t_copy_threshold:
            raise ConfigError("copy_gap must classify below t_copy_threshold")
        if self.t_ras < self.t_rp or not 0 < self.clock_ns < math.inf:
            raise ConfigError("t_ras must be >= t_rp and clock_ns positive and finite")

    def ns(self, cycles: int | float) -> float:
        return cycles * self.clock_ns

    @property
    def t_ras_ns(self) -> float:
        return self.ns(self.t_ras)

    @property
    def t_rp_ns(self) -> float:
        return self.ns(self.t_rp)


@dataclass(frozen=True)
class EnergyModel:
    """Per-command energy (pJ) and per-bank background power (mW).

    The defaults are rough per-subarray-row figures for a DDR3-class part,
    chosen for plausibility; they are reporting inputs, not measurements.
    """

    act_pj: float = 60.0
    pre_pj: float = 25.0
    micro_op_pj: float = 15.0  # surcharge per truncated-gap command
    background_mw: float = 1.0

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if not 0 <= getattr(self, f.name) < math.inf:
                raise ConfigError(f"{f.name} must be nonnegative and finite")


# one byte per cell: 256 MiB for one subarray's grid, e.g. 4096 x 65536
MAX_SUBARRAY_CELLS = 2**28


@dataclass(frozen=True)
class DeviceConfig:
    """Chip/bank/subarray geometry. Defaults: 16 chips, 8 banks/chip,

    one 128-row x 8192-column subarray per bank. ``GEOMETRY_NARROW``
    gives the alternative 128 x 64 reading of the same bank shape.
    """

    chips: int = 16
    banks_per_chip: int = 8
    subarrays_per_bank: int = 1
    rows_per_subarray: int = 128
    cols_per_subarray: int = 8192
    timing: TimingModel = field(default_factory=TimingModel)

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if f.name != "timing" and getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be >= 1")
        if self.rows_per_subarray % 2 != 0 or self.rows_per_subarray < 8:
            raise ConfigError("rows_per_subarray must be even and >= 8")
        if self.rows_per_subarray * self.cols_per_subarray > MAX_SUBARRAY_CELLS:
            raise ConfigError(
                f"a {self.rows_per_subarray} x {self.cols_per_subarray} "
                f"subarray holds more than {MAX_SUBARRAY_CELLS} cells")

    @property
    def total_columns(self) -> int:
        return (self.cols_per_subarray * self.subarrays_per_bank
                * self.banks_per_chip * self.chips)


GEOMETRY_NARROW = {"rows_per_subarray": 128, "cols_per_subarray": 64}


@dataclass(frozen=True)
class SystemConfig:
    """Everything a run needs: device geometry, timing, energy, host costs."""

    device: DeviceConfig = field(default_factory=DeviceConfig)
    energy: EnergyModel = field(default_factory=EnergyModel)
    host_assign_ns: float = 450.0  # per-query taxon lookup on the host CPU

    def __post_init__(self) -> None:
        if not 0 <= self.host_assign_ns < math.inf:
            raise ConfigError("host_assign_ns must be nonnegative and finite")


# config key of a field whose own name would not say which part it sets
_KEY_OF_FIELD = {"strict": "strict_timing"}


def _fields(cls) -> list[tuple[str, str, type]]:
    """(field name, config key, type) of each field of a config dataclass."""
    types = get_type_hints(cls)
    return [(f.name, _KEY_OF_FIELD.get(f.name, f.name), types[f.name])
            for f in dataclasses.fields(cls)]


def _leaves(obj):
    """(key, type, value) of every scalar field under config dataclass `obj`,
    in field order; nested config dataclasses are spelled out in place."""
    for name, key, typ in _fields(type(obj)):
        if dataclasses.is_dataclass(typ):
            yield from _leaves(getattr(obj, name))
        else:
            yield key, typ, getattr(obj, name)


def _build(cls, values: dict[str, object]):
    """`cls` with every scalar field under it taken from `values` by key."""
    return cls(**{name: _build(typ, values) if dataclasses.is_dataclass(typ)
                  else values[key] for name, key, typ in _fields(cls)})


# every settable key and its type, in the order dump_config writes them
_KEYS = {key: typ for key, typ, _ in _leaves(SystemConfig())}
_INT_KEYS = {key for key, typ in _KEYS.items() if typ is int}
_FLOAT_KEYS = {key for key, typ in _KEYS.items() if typ is float}
_BOOL_KEYS = {key for key, typ in _KEYS.items() if typ is bool}
_PARSE = {int: int, float: float,
          bool: lambda val: {"true": True, "false": False}[val.lower()]}


def parse_config_text(text: str) -> SystemConfig:
    """Build a SystemConfig from line-oriented `key = value` text."""
    values = {key: value for key, _, value in _leaves(SystemConfig())}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _PARSE[_KEYS[key]](val)
        except (ValueError, KeyError):
            raise ConfigError(f"line {lineno}: bad value {val!r} for {key}") from None
    return _build(SystemConfig, values)


def load_config(path: str | Path) -> SystemConfig:
    return parse_config_text(Path(path).read_text())


def dump_config(cfg: SystemConfig) -> str:
    """Emit the full `key = value` form of a SystemConfig (round-trips)."""
    return "".join(f"{key} = {str(value).lower() if typ is bool else value}\n"
                   for key, typ, value in _leaves(cfg))
