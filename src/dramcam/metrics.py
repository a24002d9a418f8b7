"""Latency, energy and throughput accounting over command traces.

Latency is the sum of command gaps. Energy is per-command: every ACT and
PRE costs its configured pJ, every truncated-gap command (a PRE below the
copy threshold or an ACT below the multi threshold) adds the micro-op
surcharge, and background power accrues over the trace duration. All
terms are local to one command, so accounting a concatenation equals the
sum of accounting the parts.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .config import DeviceConfig, EnergyModel, TimingModel
from .core import lower
from .errors import AccountingFault, TraceFormatError
from .trace import Command


@dataclass
class Report:
    """Accounting result for one trace (a single subarray's command stream)."""

    counts: dict[str, int] = field(default_factory=dict)
    latency_cycles: int = 0
    latency_ns: float = 0.0
    energy_pj: float = 0.0
    search_ns: float = 0.0
    assign_ns: float = 0.0

    @property
    def total_ns(self) -> float:
        return self.search_ns + self.assign_ns

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


def account(trace: list[Command], timing: TimingModel,
            energy: EnergyModel) -> Report:
    """Tally command counts, simulated latency and energy for a trace.

    Counts come from the same lowering the simulator executes, on lenient
    timing: undefined-band windows count as standard, and a majority on
    rows outside one constrained triple counts nothing.
    """
    low = lower(trace, dataclasses.replace(timing, strict=False))
    negative = np.flatnonzero(low.gaps < 0)
    if len(negative):
        raise TraceFormatError(f"negative gap on {trace[negative[0]]}")
    below_multi, below_copy, _, _ = low.flags
    acts = int(low.is_act.sum())
    counts = {"ACT": acts, "PRE": len(trace) - acts,
              "truncated_act": int((low.is_act & below_multi).sum()),
              "truncated_pre": int((~low.is_act & below_copy).sum()),
              "row_copy": low.copies, "multi_activate": low.majorities}
    # Pattern counts are informational; the energy terms stay local to one
    # command so that accounting remains additive under concatenation.
    micro_ops = counts["truncated_act"] + counts["truncated_pre"]
    latency = low.duration
    latency_ns = timing.ns(latency)
    energy_pj = (counts["ACT"] * energy.act_pj + counts["PRE"] * energy.pre_pj
                 + micro_ops * energy.micro_op_pj
                 + energy.background_mw * latency_ns)
    return Report(counts=counts, latency_cycles=latency, latency_ns=latency_ns,
                  energy_pj=energy_pj, search_ns=latency_ns, assign_ns=0.0)


def add_host_assignment(report: Report, queries: int,
                        ns_per_query: float) -> Report:
    """Attach the host-side taxon-assignment cost to a search report."""
    return dataclasses.replace(report, assign_ns=queries * ns_per_query)


@dataclass
class ThroughputEstimate:
    kmers_per_sec: float
    assumptions: list[str]


def throughput_estimate(cfg: DeviceConfig, report: Report,
                        kmers_per_compare: int) -> ThroughputEstimate:
    """Scale one subarray compare across all chips and banks.

    Banks across all chips run the same compare concurrently; extra
    subarrays per bank add capacity, not parallelism.
    """
    if report.latency_ns <= 0:
        raise AccountingFault("throughput undefined for a zero-latency compare")
    if kmers_per_compare <= 0:
        raise AccountingFault("kmers_per_compare must be positive")
    parallel_units = cfg.chips * cfg.banks_per_chip
    rate = kmers_per_compare * parallel_units / (report.latency_ns * 1e-9)
    assumptions = [
        f"{kmers_per_compare} items compared per subarray pass",
        f"{cfg.chips} chips x {cfg.banks_per_chip} banks/chip run in lockstep "
        f"({parallel_units} parallel compares)",
        "no subarray-level parallelism "
        f"({cfg.subarrays_per_bank} subarrays/bank add capacity only)",
        f"per-compare latency {report.latency_ns:.1f} ns "
        f"({report.latency_cycles} cycles)",
        "host-side assignment overlaps with the next search",
    ]
    return ThroughputEstimate(rate, assumptions)


def format_report(report: Report, estimate: ThroughputEstimate | None = None,
                  ) -> str:
    """Human-readable table for one report plus an optional estimate."""
    lines = ["command counts:"]
    for key in sorted(report.counts):
        lines.append(f"  {key:>15} {report.counts[key]}")
    lines.append(f"latency        {report.latency_cycles} cycles"
                 f" = {report.latency_ns:.2f} ns")
    lines.append(f"energy         {report.energy_pj:.2f} pJ")
    total = report.total_ns
    if report.assign_ns and total:
        lines.append(f"search/assign  {report.search_ns:.1f} ns / "
                     f"{report.assign_ns:.1f} ns "
                     f"({report.search_ns / total:.1%} / "
                     f"{report.assign_ns / total:.1%})")
    if estimate is not None:
        lines.append(f"throughput     {estimate.kmers_per_sec:.3e} kmers/s "
                     f"({estimate.kmers_per_sec / 1e9:.1f} Gkmers/s)")
        lines.append("assumptions:")
        for a in estimate.assumptions:
            lines.append(f"  - {a}")
    return "\n".join(lines) + "\n"
