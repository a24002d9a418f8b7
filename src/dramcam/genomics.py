"""One-hot k-mer databases and taxon classification on top of the CAM engine.

Each DNA base occupies four vertically adjacent cells with exactly one set
(A=0001, G=0010, C=0100, T=1000, hot row offsets 0..3 low-to-high), so a
base compare needs a single activation: opening the query base's hot row
reads 1 exactly where the stored base agrees. K-mers stack one per column,
several strata deep when the row budget allows, and every taxon owns a
contiguous column group so a match's column address names its species.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .cam import (CompiledCompare, Polarity, read_image, run_compare,
                  serial_accumulate, serial_hd1, write_image)
from .config import DeviceConfig
from .core import Subarray
from .errors import EmptyDbFault, EncodingFault, LayoutFault
from .microops import ComputeRows, TempRows, allocate_reserved_rows
from .trace import trace_cycles

log = logging.getLogger(__name__)

BASES = "AGCT"  # index = hot-row offset within a base's 4-cell slice
_BASE_OFFSET = {b: i for i, b in enumerate(BASES)}
_VALID = frozenset("ACGT")


def encode_kmer_onehot(kmer: str) -> np.ndarray:
    """4k-cell column image of a k-mer, one hot cell per base."""
    kmer = kmer.strip().upper()
    cells = np.zeros(4 * len(kmer), dtype=np.uint8)
    for j, base in enumerate(kmer):
        if base not in _BASE_OFFSET:
            raise EncodingFault(f"base {base!r} at position {j} is not A/C/G/T")
    for j, base in enumerate(kmer):
        cells[4 * j + _BASE_OFFSET[base]] = 1
    return cells


def decode_kmer_onehot(cells: np.ndarray | Sequence[int]) -> str:
    cells = np.asarray(cells, dtype=np.uint8)
    if cells.ndim != 1 or len(cells) % 4:
        raise EncodingFault(f"cell image length {cells.shape} is not 4k")
    out = []
    for j in range(len(cells) // 4):
        chunk = cells[4 * j:4 * j + 4]
        hot = np.flatnonzero(chunk)
        if len(hot) != 1:
            raise EncodingFault(f"base slice {j} has {len(hot)} hot cells, not 1")
        out.append(BASES[int(hot[0])])
    return "".join(out)


def parse_reference_text(text: str) -> list[tuple[str, str]]:
    """Parse `>taxon ...` header records into (taxon, sequence) pairs."""
    records: list[tuple[str, str]] = []
    taxon: str | None = None
    chunks: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            if taxon is not None:
                records.append((taxon, "".join(chunks)))
            fields = line[1:].split()
            if not fields:
                raise EncodingFault("record header carries no taxon label")
            taxon, chunks = fields[0], []
        elif taxon is None:
            raise EncodingFault("sequence data before any '>' header")
        else:
            chunks.append(line.upper())
    if taxon is not None:
        records.append((taxon, "".join(chunks)))
    return records


def extract_kmers(sequence: str, k: int) -> list[str]:
    """All length-k windows over A/C/G/T; windows touching other symbols drop."""
    if k < 1:
        raise EncodingFault("k must be >= 1")
    seq = sequence.strip().upper()
    kmers, skipped = [], 0
    for i in range(len(seq) - k + 1):
        window = seq[i:i + k]
        if set(window) <= _VALID:
            kmers.append(window)
        else:
            skipped += 1
    if skipped:
        log.warning("skipped %d windows containing non-ACGT symbols", skipped)
    return kmers


@dataclass(frozen=True)
class TaxonGroup:
    """One taxon's contiguous column range."""

    taxon: str
    start: int
    columns: int
    kmers: int


@dataclass(frozen=True)
class GenomeLayout:
    """Row and column roles for a k-mer database.

    Stratum s of a column holds one k-mer in rows [s*4k, (s+1)*4k); the
    reserved compute block sits above all strata. K-mer i of a group lives
    at stratum i // columns, column start + i % columns.
    """

    k: int
    strata: int
    rows_per_subarray: int
    compute: ComputeRows
    temps: TempRows
    groups: tuple[TaxonGroup, ...]

    @property
    def total_columns(self) -> int:
        return sum(g.columns for g in self.groups)

    @property
    def data_rows(self) -> int:
        return 4 * self.k * self.strata

    def hot_row(self, stratum: int, position: int, base: str) -> int:
        return stratum * 4 * self.k + 4 * position + _BASE_OFFSET[base]

    @cached_property
    def _by_start(self) -> tuple[list[int], list[TaxonGroup]]:
        """Non-empty groups sorted by first column, and those first columns."""
        ordered = sorted((g for g in self.groups if g.columns > 0),
                         key=lambda g: g.start)
        return [g.start for g in ordered], ordered

    def group_of_column(self, column: int) -> TaxonGroup | None:
        starts, ordered = self._by_start
        i = bisect_right(starts, column) - 1
        if i >= 0 and column < ordered[i].start + ordered[i].columns:
            return ordered[i]
        return None

    def occupied(self, stratum: int, column: int) -> bool:
        g = self.group_of_column(column)
        if g is None:
            return False
        return stratum * g.columns + (column - g.start) < g.kmers


@dataclass
class KmerDatabase:
    """Ingested k-mer set: layout plus the full one-hot cell image."""

    k: int
    layout: GenomeLayout
    column_cells: np.ndarray  # (data_rows, total_columns) uint8
    device: DeviceConfig
    kmers_by_taxon: dict[str, list[str]] | None = None

    def build_shards(self) -> list["Shard"]:
        """One loaded subarray per cols_per_subarray-wide column chunk."""
        width = self.device.cols_per_subarray
        shards = []
        for start in range(0, self.layout.total_columns, width):
            chunk = self.column_cells[:, start:start + width]
            sub = Subarray.from_device(self.device)
            for row in range(self.layout.data_rows):
                bits = np.zeros(sub.cols, dtype=np.uint8)
                bits[:chunk.shape[1]] = chunk[row]
                sub.write_row(row, bits)
            sub.write_row(self.layout.compute.c0, np.zeros(sub.cols, dtype=np.uint8))
            sub.write_row(self.layout.compute.c1, np.ones(sub.cols, dtype=np.uint8))
            shards.append(Shard(sub, start, chunk.shape[1]))
        return shards


@dataclass
class Shard:
    """One subarray holding a slice of the database's column space."""

    subarray: Subarray
    column_start: int
    columns: int


def ingest(records: Iterable[tuple[str, str]], k: int,
           device: DeviceConfig | None = None) -> KmerDatabase:
    """Extract, deduplicate and lay out reference k-mers by taxon."""
    device = device or DeviceConfig()
    by_taxon: dict[str, dict[str, None]] = {}
    for taxon, seq in records:
        bucket = by_taxon.setdefault(taxon, {})
        for kmer in extract_kmers(seq, k):
            bucket[kmer] = None
    by_taxon = {t: kmers for t, kmers in by_taxon.items() if kmers}
    if not by_taxon:
        raise EmptyDbFault("no storable k-mers in the reference input")

    compute, temps = allocate_reserved_rows(device.rows_per_subarray)
    reserved_base = min(compute.all_rows() + (temps.xnor, temps.exact,
                                              temps.tolerant))
    strata = reserved_base // (4 * k)
    if strata < 1:
        raise LayoutFault(
            f"k={k} needs {4 * k} data rows per stratum but only "
            f"{reserved_base} sit below the reserved block")

    groups, start = [], 0
    for taxon, kmers in by_taxon.items():
        width = -(-len(kmers) // strata)
        groups.append(TaxonGroup(taxon, start, width, len(kmers)))
        start += width
    if start > device.total_columns:
        raise LayoutFault(f"database needs {start} columns but the device "
                          f"provides {device.total_columns}")

    layout = GenomeLayout(k, strata, device.rows_per_subarray, compute, temps,
                          tuple(groups))
    cells = np.zeros((layout.data_rows, start), dtype=np.uint8)
    for group in groups:
        for i, kmer in enumerate(by_taxon[group.taxon]):
            stratum, col = divmod(i, group.columns)
            base_row = stratum * 4 * k
            cells[base_row:base_row + 4 * k, group.start + col] = \
                encode_kmer_onehot(kmer)
    return KmerDatabase(k, layout, cells, device,
                        {t: list(kmers) for t, kmers in by_taxon.items()})


def ingest_text(text: str, k: int,
                device: DeviceConfig | None = None) -> KmerDatabase:
    return ingest(parse_reference_text(text), k, device)


# -- classification ----------------------------------------------------------

@dataclass(frozen=True)
class ClassificationResult:
    query: str
    kind: str  # "exact" | "hd1"
    columns: tuple[int, ...]
    taxa: tuple[str, ...]


@dataclass
class BatchSummary:
    queries: int
    matched: int
    match_rate: float
    per_taxon: dict[str, int]
    simulated_cycles: int
    simulated_ns: float
    queries_per_sec: float


def compile_kmer_compare(query: str, layout: GenomeLayout, device: DeviceConfig,
                         stratum: int, kind: str = "exact") -> CompiledCompare:
    """One-activation-per-base compare against one stratum."""
    query = query.strip().upper()
    if len(query) != layout.k:
        raise EncodingFault(f"query length {len(query)} != k={layout.k}")
    for j, base in enumerate(query):
        if base not in _BASE_OFFSET:
            raise EncodingFault(f"base {base!r} at position {j} is not A/C/G/T")
    rows = [layout.hot_row(stratum, j, base) for j, base in enumerate(query)]
    timing = device.timing
    if kind == "exact":
        trace = serial_accumulate(rows, layout.compute, timing, fold_or=False)
        return CompiledCompare(trace, Polarity.MATCH_IS_1, layout.compute.r2,
                               "kmer-exact", layout.k)
    if kind == "hd1":
        trace = serial_hd1(rows, layout.compute, layout.temps, timing)
        return CompiledCompare(trace, Polarity.MATCH_IS_1, layout.temps.tolerant,
                               "kmer-hd1", layout.k)
    raise EncodingFault(f"unknown compare kind {kind!r}")


def classify(db: KmerDatabase, shards: Sequence[Shard], query: str,
             kind: str = "exact") -> tuple[ClassificationResult, int]:
    """Search every stratum of every shard; returns the result and the

    simulated cycle cost (strata run back to back; shards run in parallel,
    so one stratum pass costs a single trace)."""
    columns: set[int] = set()
    cycles = 0
    for stratum in range(db.layout.strata):
        compiled = compile_kmer_compare(query, db.layout, db.device, stratum, kind)
        cycles += trace_cycles(compiled.trace)
        for shard in shards:
            vec = run_compare(shard.subarray, compiled, columns=shard.columns)
            for local in np.flatnonzero(vec.matches()):
                col = shard.column_start + int(local)
                if db.layout.occupied(stratum, col):
                    columns.add(col)
    taxa = sorted({db.layout.group_of_column(c).taxon for c in columns})
    result = ClassificationResult(query, kind, tuple(sorted(columns)),
                                  tuple(taxa))
    return result, cycles


def classify_batch(db: KmerDatabase, queries: Sequence[str], kind: str = "exact",
                   parallel: int = 1) -> tuple[list[ClassificationResult],
                                               BatchSummary]:
    """Classify a query batch; results are ordered by query index."""
    queries = [q.strip().upper() for q in queries]
    for q in queries:
        if len(q) != db.k:
            raise EncodingFault(
                f"query {q!r} has length {len(q)}, batch requires k={db.k}")

    if parallel > 1 and len(queries) > 1:
        chunk = -(-len(queries) // parallel)
        jobs = [(db, queries[i:i + chunk], kind)
                for i in range(0, len(queries), chunk)]
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            chunks = list(pool.map(_classify_chunk, jobs))
        pairs = [pair for part in chunks for pair in part]
    else:
        pairs = _classify_chunk((db, queries, kind))

    results = [r for r, _ in pairs]
    cycles = sum(c for _, c in pairs)
    ns = db.device.timing.ns(cycles)
    matched = sum(1 for r in results if r.taxa)
    per_taxon = Counter(t for r in results for t in r.taxa)
    summary = BatchSummary(
        queries=len(results),
        matched=matched,
        match_rate=matched / len(results) if results else 0.0,
        per_taxon=dict(per_taxon),
        simulated_cycles=cycles,
        simulated_ns=ns,
        queries_per_sec=len(results) / (ns * 1e-9) if ns else 0.0,
    )
    return results, summary


def _classify_chunk(job: tuple[KmerDatabase, list[str], str]
                    ) -> list[tuple[ClassificationResult, int]]:
    db, queries, kind = job
    shards = db.build_shards()
    return [classify(db, shards, q, kind) for q in queries]


def format_results(results: Sequence[ClassificationResult],
                   summary: BatchSummary) -> str:
    """Delimited result lines plus a '#'-prefixed summary block."""
    lines = ["query,kind,columns,taxa"]
    for r in results:
        cols = ";".join(str(c) for c in r.columns)
        taxa = ";".join(r.taxa)
        lines.append(f"{r.query},{r.kind},{cols},{taxa}")
    lines.append(f"# queries = {summary.queries}")
    lines.append(f"# matched = {summary.matched} ({summary.match_rate:.1%})")
    for taxon in sorted(summary.per_taxon):
        lines.append(f"# taxon {taxon} = {summary.per_taxon[taxon]}")
    lines.append(f"# simulated_ns = {summary.simulated_ns:.1f}")
    lines.append(f"# queries_per_sec_simulated = {summary.queries_per_sec:.3e}")
    return "\n".join(lines) + "\n"


# -- database image ----------------------------------------------------------

def save_kmer_db(path: str | Path, db: KmerDatabase) -> None:
    header = {
        "kind": "kmers",
        "k": db.k,
        "strata": db.layout.strata,
        "rows_per_subarray": db.layout.rows_per_subarray,
        "columns": db.layout.total_columns,
        "groups": [{"taxon": g.taxon, "start": g.start, "columns": g.columns,
                    "kmers": g.kmers} for g in db.layout.groups],
    }
    payload = np.packbits(db.column_cells, axis=0, bitorder="little").tobytes()
    write_image(path, header, payload)


def load_kmer_db(path: str | Path, device: DeviceConfig | None = None
                 ) -> KmerDatabase:
    device = device or DeviceConfig()
    header, payload = read_image(path)
    if header.get("kind") != "kmers":
        raise EncodingFault(f"{path}: image holds {header.get('kind')!r}, not kmers")
    k, strata = header["k"], header["strata"]
    rows = header["rows_per_subarray"]
    if rows != device.rows_per_subarray:
        device = DeviceConfig(
            chips=device.chips, banks_per_chip=device.banks_per_chip,
            subarrays_per_bank=device.subarrays_per_bank,
            rows_per_subarray=rows, cols_per_subarray=device.cols_per_subarray,
            timing=device.timing)
    compute, temps = allocate_reserved_rows(rows)
    groups = tuple(TaxonGroup(g["taxon"], g["start"], g["columns"], g["kmers"])
                   for g in header["groups"])
    layout = GenomeLayout(k, strata, rows, compute, temps, groups)
    n_cols = header["columns"]
    data_rows = layout.data_rows
    packed = np.frombuffer(payload, dtype=np.uint8)
    packed = packed.reshape(-(-data_rows // 8), n_cols)
    cells = np.unpackbits(packed, axis=0, bitorder="little", count=data_rows)
    return KmerDatabase(k, layout, cells.astype(np.uint8), device)


def manifest_dict(db: KmerDatabase) -> dict:
    """Layout manifest for the CLI: geometry, groups, capacity stats."""
    return {
        "k": db.k,
        "strata": db.layout.strata,
        "columns": db.layout.total_columns,
        "rows_per_subarray": db.layout.rows_per_subarray,
        "data_rows": db.layout.data_rows,
        "subarrays": -(-db.layout.total_columns // db.device.cols_per_subarray),
        "groups": [{"taxon": g.taxon, "start": g.start, "columns": g.columns,
                    "kmers": g.kmers} for g in db.layout.groups],
    }
