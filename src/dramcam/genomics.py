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
import os
from bisect import bisect_right
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .cam import (CompiledCompare, compile_program, from_json, read_image,
                  run_compare, store_grid, write_image)
from .config import DeviceConfig
from .core import Subarray
from .errors import EmptyDbFault, EncodingFault, LayoutFault
from .microops import (ComputeRows, TempRows, allocate_reserved_rows,
                       reserved_base)
from .trace import Command, trace_cycles

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

    def __post_init__(self) -> None:
        """Fault unless the strata fit below the reserved block, the groups
        tile the columns from 0 in order of start, each group's k-mers fit
        its columns, and some group holds a k-mer."""
        base = reserved_base(self.rows_per_subarray)
        if self.k < 1 or self.strata < 1 or self.data_rows > base:
            raise LayoutFault(f"{self.strata} strata of k={self.k} need {self.data_rows}"
                              f" data rows but only {base} sit below the reserved block")
        end = 0
        for g in sorted(self.groups, key=lambda g: (g.start, g.columns)):
            if g.start != end or not 0 <= g.kmers <= g.columns * self.strata:
                raise LayoutFault(f"taxon {g.taxon!r}: {g.kmers} k-mers in columns "
                                  f"{g.start}+{g.columns} after column {end}")
            end += g.columns
        if not any(g.kmers for g in self.groups):
            raise EmptyDbFault("the layout holds no k-mers")

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
            store_grid(sub, chunk, self.layout.compute)
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

    # at least one stratum, so that GenomeLayout faults on a k too large
    strata = max(1, reserved_base(device.rows_per_subarray) // (4 * k))
    groups, start = [], 0
    for taxon, kmers in by_taxon.items():
        width = -(-len(kmers) // strata)
        groups.append(TaxonGroup(taxon, start, width, len(kmers)))
        start += width
    layout = GenomeLayout(k, strata, device.rows_per_subarray,
                          *allocate_reserved_rows(device.rows_per_subarray),
                          tuple(groups))
    if start > device.total_columns:
        raise LayoutFault(f"database needs {start} columns but the device "
                          f"provides {device.total_columns}")

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
    """One-activation-per-base compare against one stratum.

    `kind` "exact" runs the nand program, "hd1" the distance-1 one.
    """
    query = query.strip().upper()
    if len(query) != layout.k:
        raise EncodingFault(f"query length {len(query)} != k={layout.k}")
    for j, base in enumerate(query):
        if base not in _BASE_OFFSET:
            raise EncodingFault(f"base {base!r} at position {j} is not A/C/G/T")
    if kind not in ("exact", "hd1"):
        raise EncodingFault(f"unknown compare kind {kind!r}")
    rows = [layout.hot_row(stratum, j, base) for j, base in enumerate(query)]
    return compile_program(rows, layout, device.timing,
                           "nand" if kind == "exact" else kind)


def classify(db: KmerDatabase, shards: Sequence[Shard], query: str,
             kind: str = "exact"
             ) -> tuple[ClassificationResult, list[list[Command]]]:
    """Search every stratum of every shard; returns the result and the trace

    each stratum pass ran (strata run back to back; shards run in parallel,
    so one stratum pass costs a single trace)."""
    columns: set[int] = set()
    traces = []
    for stratum in range(db.layout.strata):
        compiled = compile_kmer_compare(query, db.layout, db.device, stratum, kind)
        traces.append(compiled.trace)
        for shard in shards:
            vec = run_compare(shard.subarray, compiled, columns=shard.columns)
            for local in np.flatnonzero(vec.matches()):
                col = shard.column_start + int(local)
                if db.layout.occupied(stratum, col):
                    columns.add(col)
    taxa = sorted({db.layout.group_of_column(c).taxon for c in columns})
    result = ClassificationResult(query, kind, tuple(sorted(columns)),
                                  tuple(taxa))
    return result, traces


def classify_batch(db: KmerDatabase, queries: Sequence[str], kind: str = "exact",
                   parallel: int = 1) -> tuple[list[ClassificationResult],
                                               BatchSummary]:
    """Classify a query batch; results are ordered by query index."""
    queries = [q.strip().upper() for q in queries]
    for q in queries:
        if len(q) != db.k:
            raise EncodingFault(
                f"query {q!r} has length {len(q)}, batch requires k={db.k}")

    # the pool starts all its workers at once, so start no more than can run
    workers = min(parallel, len(queries), os.cpu_count() or 1)
    if workers > 1:
        chunk = -(-len(queries) // workers)
        jobs = [(db, queries[i:i + chunk], kind)
                for i in range(0, len(queries), chunk)]
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
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
    pairs = []
    for q in queries:
        result, traces = classify(db, shards, q, kind)
        pairs.append((result, sum(map(trace_cycles, traces))))
    return pairs


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

@dataclass(frozen=True)
class KmerHeader:
    """The header fields of a k-mer image; `groups` holds TaxonGroup entries."""

    kind = "kmers"
    k: int
    strata: int
    rows_per_subarray: int
    columns: int
    groups: list


def _header(db: KmerDatabase) -> KmerHeader:
    layout = db.layout
    return KmerHeader(db.k, layout.strata, layout.rows_per_subarray,
                      layout.total_columns, [dict(vars(g)) for g in layout.groups])


def save_kmer_db(path: str | Path, db: KmerDatabase) -> None:
    payload = np.packbits(db.column_cells, axis=0, bitorder="little").tobytes()
    write_image(path, _header(db), payload)


def load_kmer_db(path: str | Path, device: DeviceConfig | None = None
                 ) -> KmerDatabase:
    device = device or DeviceConfig()
    header, payload = read_image(path, KmerHeader)
    rows = header.rows_per_subarray
    if rows % 2 or rows < 8:
        raise LayoutFault(f"{path}: rows_per_subarray {rows} is not an even "
                          "count of at least 8")
    groups = tuple(from_json(TaxonGroup, g, f"{path}: group {i}")
                   for i, g in enumerate(header.groups))
    layout = GenomeLayout(header.k, header.strata, rows,
                          *allocate_reserved_rows(rows), groups)
    # ingest stacks as many strata as fit, so one more must not fit; this
    # also bounds the grid that each shard allocates
    if reserved_base(rows) >= layout.data_rows + 4 * layout.k:
        raise LayoutFault(f"{path}: rows_per_subarray {rows} holds more than "
                          f"the header's {layout.strata} strata of k={layout.k}")
    if rows != device.rows_per_subarray:
        log.info("%s: the image's rows_per_subarray %d replaces the "
                 "configured %d", path, rows, device.rows_per_subarray)
        device = replace(device, rows_per_subarray=rows)
    n_cols = layout.total_columns
    if header.columns != n_cols:
        raise LayoutFault(f"{path}: {header.columns} columns, but the groups "
                          f"span {n_cols}")
    stride = -(-layout.data_rows // 8)
    if len(payload) != stride * n_cols:
        raise EncodingFault(f"{path}: payload is {len(payload)} bytes, "
                            f"expected {stride * n_cols}")
    packed = np.frombuffer(payload, dtype=np.uint8).reshape(stride, n_cols)
    cells = np.unpackbits(packed, axis=0, bitorder="little",
                          count=layout.data_rows)
    return KmerDatabase(header.k, layout, cells, device)


def manifest_dict(db: KmerDatabase) -> dict:
    """Layout manifest for the CLI: the image header's fields, data rows
    and subarrays."""
    return {**vars(_header(db)), "data_rows": db.layout.data_rows,
            "subarrays": -(-db.layout.total_columns // db.device.cols_per_subarray)}
