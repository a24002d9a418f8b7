"""Device geometry, timing and energy parameters, and key = value config files.

Time inside the simulator is counted in abstract units of one DRAM clock
cycle; ``TimingModel.clock_ns`` converts to nanoseconds for reporting. The
defaults model a DDR3-1600 part (clock 1.25 ns, tRP = tRCD = 11 cycles =
13.75 ns, tRAS = 28 cycles = 35 ns).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

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
    t_rcd: int = 11
    t_copy_threshold: int = 6
    t_multi_threshold: int = 2
    copy_gap: int = 2
    multi_gap: int = 1
    strict: bool = True
    refresh_interval: int = 51_200_000  # 64 ms at 1.25 ns/cycle

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
        if self.t_ras < self.t_rp or self.clock_ns <= 0 or self.refresh_interval <= 0:
            raise ConfigError("t_ras must be >= t_rp; clock and refresh interval positive")

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
        for name in ("act_pj", "pre_pj", "micro_op_pj", "background_mw"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")


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
        for name in ("chips", "banks_per_chip", "subarrays_per_bank",
                     "rows_per_subarray", "cols_per_subarray"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.rows_per_subarray % 2 != 0 or self.rows_per_subarray < 8:
            raise ConfigError("rows_per_subarray must be even and >= 8")

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
        if self.host_assign_ns < 0:
            raise ConfigError("host_assign_ns must be nonnegative")


_INT_KEYS = {
    "chips", "banks_per_chip", "subarrays_per_bank", "rows_per_subarray",
    "cols_per_subarray", "t_ras", "t_rp", "t_rcd", "t_copy_threshold",
    "t_multi_threshold", "copy_gap", "multi_gap", "refresh_interval",
}
_FLOAT_KEYS = {"clock_ns", "act_pj", "pre_pj", "micro_op_pj", "background_mw",
               "host_assign_ns"}
_BOOL_KEYS = {"strict_timing"}


def parse_config_text(text: str) -> SystemConfig:
    """Build a SystemConfig from line-oriented `key = value` text."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        try:
            if key in _INT_KEYS:
                values[key] = int(val)
            elif key in _FLOAT_KEYS:
                values[key] = float(val)
            elif key in _BOOL_KEYS:
                if val.lower() not in ("true", "false"):
                    raise ValueError("expected true/false")
                values[key] = val.lower() == "true"
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None

    timing_kwargs = {f.name: values.pop(f.name)
                     for f in dataclasses.fields(TimingModel)
                     if f.name in values}
    if "strict_timing" in values:
        timing_kwargs["strict"] = values.pop("strict_timing")
    energy_kwargs = {f.name: values.pop(f.name)
                     for f in dataclasses.fields(EnergyModel)
                     if f.name in values}
    device_kwargs = {f.name: values.pop(f.name)
                     for f in dataclasses.fields(DeviceConfig)
                     if f.name in values}
    system_kwargs = {}
    if "host_assign_ns" in values:
        system_kwargs["host_assign_ns"] = values.pop("host_assign_ns")

    device = DeviceConfig(timing=TimingModel(**timing_kwargs), **device_kwargs)
    return SystemConfig(device=device, energy=EnergyModel(**energy_kwargs),
                        **system_kwargs)


def load_config(path: str | Path) -> SystemConfig:
    return parse_config_text(Path(path).read_text())


def dump_config(cfg: SystemConfig) -> str:
    """Emit the full `key = value` form of a SystemConfig (round-trips)."""
    dev, t, e = cfg.device, cfg.device.timing, cfg.energy
    pairs = [
        ("chips", dev.chips),
        ("banks_per_chip", dev.banks_per_chip),
        ("subarrays_per_bank", dev.subarrays_per_bank),
        ("rows_per_subarray", dev.rows_per_subarray),
        ("cols_per_subarray", dev.cols_per_subarray),
        ("clock_ns", t.clock_ns),
        ("t_ras", t.t_ras),
        ("t_rp", t.t_rp),
        ("t_rcd", t.t_rcd),
        ("t_copy_threshold", t.t_copy_threshold),
        ("t_multi_threshold", t.t_multi_threshold),
        ("copy_gap", t.copy_gap),
        ("multi_gap", t.multi_gap),
        ("strict_timing", "true" if t.strict else "false"),
        ("refresh_interval", t.refresh_interval),
        ("act_pj", e.act_pj),
        ("pre_pj", e.pre_pj),
        ("micro_op_pj", e.micro_op_pj),
        ("background_mw", e.background_mw),
        ("host_assign_ns", cfg.host_assign_ns),
    ]
    return "".join(f"{k} = {v}\n" for k, v in pairs)
