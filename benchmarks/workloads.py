"""Seeded workloads of the dramcam benchmark, each with an independent oracle.

A workload turns a seed into inputs, builds the program's state from them
(`setup`, the timed set-up), serves one request at a time (`request`, the
timed call the closed-loop client waits on) and checks each outcome
against an oracle that shares no code with the simulator (`check`). Every
call into the simulator goes through a module attribute (`genomics.x`,
`cam.x`, `metrics.x`) so that the traced run can wrap it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from dramcam import cam, config, genomics, metrics
from dramcam.core import Subarray

BASES = "ACGT"


@dataclass
class Outcome:
    """What one request returned, kept for the oracle and the self-check."""

    answers: list  # one entry per query: taxa tuple (k-mers) or match bools (words)
    cycles: int = 0  # BatchSummary.simulated_cycles (k-mer workloads)
    commands: int = 0  # commands executed by the request, over all shard passes


class KmerWorkload:
    """Short reads classified by `genomics.classify_batch`, one read per request.

    Even requests are reads cut from the reference (with one substituted
    base in distance-1 mode), odd ones are random, so about half the k-mers
    match. Two requests in every LONG_EVERY carry reads LONG_FACTOR times
    as long, one of each kind, so the tail latency measures long reads
    rather than only the machine's noise. The oracle is a dict (exact) or
    a numpy Hamming scan (hd1) over the generated reference, never the
    simulator's own layout.
    """

    LONG_EVERY = 8
    LONG_FACTOR = 4

    def __init__(self, name: str, why: str, seed: int, *, k: int, kind: str,
                 taxa: int, kmers_per_taxon: int, read_kmers: int):
        self.name, self.why, self.k, self.kind = name, why, k, kind
        self.read_kmers = read_kmers
        self.system = config.SystemConfig(
            device=config.DeviceConfig(rows_per_subarray=160))
        self.rng = random.Random(seed)
        glen = kmers_per_taxon + k - 1
        self.genomes = {f"t{i:03d}": self._random_seq(glen) for i in range(taxa)}
        self.taxa = sorted(self.genomes)
        self.reference_text = "".join(f">{t} generated\n{s}\n"
                                      for t, s in self.genomes.items())
        owners: dict[str, set[str]] = {}
        for taxon, seq in self.genomes.items():
            for i in range(len(seq) - k + 1):
                owners.setdefault(seq[i:i + k], set()).add(taxon)
        self.owners = {km: tuple(sorted(t)) for km, t in owners.items()}
        if kind == "hd1":
            pairs = [(km, t) for km, ts in self.owners.items() for t in ts]
            self.ref_codes = np.array([[BASES.index(b) for b in km]
                                       for km, _ in pairs], dtype=np.uint8)
            self.ref_taxa = np.array([t for _, t in pairs])
        self.db = None

    def _random_seq(self, n: int) -> str:
        return "".join(self.rng.choice(BASES) for _ in range(n))

    # -- set-up --------------------------------------------------------------

    def setup(self, workdir: Path) -> None:
        """Reference text -> ingest -> image save -> image load."""
        image = workdir / f"{self.name}.img"
        built = genomics.ingest_text(self.reference_text, self.k,
                                     self.system.device)
        genomics.save_kmer_db(image, built)
        self.image_bytes = image.stat().st_size
        self.db = genomics.load_kmer_db(image, self.system.device)

    @property
    def shards(self) -> int:
        return -(-self.db.layout.total_columns // self.db.device.cols_per_subarray)

    @property
    def items_per_subarray(self) -> float:
        return sum(g.kmers for g in self.db.layout.groups) / self.shards

    # -- requests ------------------------------------------------------------

    def next_request(self, index: int) -> list[str]:
        kmers = self.read_kmers
        if index % self.LONG_EVERY >= self.LONG_EVERY - 2:
            kmers *= self.LONG_FACTOR
        length = kmers + self.k - 1
        if index % 2:
            read = self._random_seq(length)
        else:
            seq = self.genomes[self.rng.choice(self.taxa)]
            start = self.rng.randrange(len(seq) - length + 1)
            read = seq[start:start + length]
            if self.kind == "hd1":
                pos = self.rng.randrange(length)
                sub = self.rng.choice([b for b in BASES if b != read[pos]])
                read = read[:pos] + sub + read[pos + 1:]
        return [read[i:i + self.k] for i in range(kmers)]

    @staticmethod
    def split(kmers: list[str]) -> list[str]:
        """The request's queries, each a valid `query_traces` argument."""
        return kmers

    def request(self, kmers: list[str]) -> Outcome:
        results, summary = genomics.classify_batch(self.db, kmers, self.kind)
        return Outcome([r.taxa for r in results], cycles=summary.simulated_cycles)

    def query_traces(self, kmer: str) -> list:
        """The compiled traces one k-mer query runs, one per stratum."""
        return [genomics.compile_kmer_compare(kmer, self.db.layout, self.db.device,
                                              s, self.kind).trace
                for s in range(self.db.layout.strata)]

    def rotation(self) -> list[list]:
        """One query's traces over all strata, for the simulated metrics."""
        return [sum(self.query_traces(self.genomes[self.taxa[0]][:self.k]), [])]

    # -- oracle --------------------------------------------------------------

    def expected(self, kmer: str) -> tuple[str, ...]:
        if self.kind == "exact":
            return self.owners.get(kmer, ())
        q = np.array([BASES.index(b) for b in kmer], dtype=np.uint8)
        near = (self.ref_codes != q).sum(axis=1) <= 1
        return tuple(sorted(set(self.ref_taxa[near].tolist())))

    def check(self, kmers: list[str], out: Outcome) -> int:
        """Wrong queries in one request; also fills `out.commands`.

        The BatchSummary cycle count must equal the sum of `account()`
        latencies over the same compiled traces, or every query of the
        request counts as wrong.
        """
        traces = [t for km in kmers for t in self.query_traces(km)]
        out.commands = sum(len(t) for t in traces) * self.shards
        timing, energy = self.system.device.timing, self.system.energy
        accounted = sum(metrics.account(t, timing, energy).latency_cycles
                        for t in traces)
        if accounted != out.cycles or len(out.answers) != len(kmers):
            return len(kmers)
        return sum(got != self.expected(km) for km, got in zip(kmers, out.answers))

    @staticmethod
    def flip(out: Outcome) -> Outcome:
        taxa = out.answers[0]
        flipped = () if taxa else ("t-none",)
        return replace(out, answers=[flipped] + out.answers[1:])

    def describe(self) -> dict:
        return {"k": self.k, "mode": self.kind, "taxa": len(self.taxa),
                "reference_kmers": len(self.owners),
                "kmers_per_read": self.read_kmers,
                "long_reads": f"2 in every {self.LONG_EVERY}, "
                              f"{self.LONG_FACTOR}x the k-mers",
                "strata": self.db.layout.strata, "shards": self.shards,
                "config": config.dump_config(self.system)}


class WordCamWorkload:
    """16-bit words on one 128x8192 subarray per encoding, with updates.

    Requests rotate nand, tcam (query-side masked nand) and hd1 against the
    nand-coded store and nor against a nor-coded store; every
    UPDATE_EVERY-th request first rewrites UPDATE_SHARE of one store's
    words, alternating stores, through `cam.store`. A whole-store rewrite
    costs more than any query, so the tail latency measures the writes
    rather than the machine's noise. The oracle is masked equality or
    masked Hamming distance over a symbol array it updates itself.
    """

    M = 16
    WORDS = 8192
    X_SHARE = 1 / 16
    KINDS = ("nand", "tcam", "hd1", "nor")
    TCAM_IGNORED = 4
    UPDATE_EVERY = 128
    UPDATE_SHARE = 1

    def __init__(self, name: str, why: str, seed: int):
        self.name, self.why = name, why
        self.system = config.SystemConfig()
        self.rng = random.Random(seed)
        self.initial = {mode: [self._random_word() for _ in range(self.WORDS)]
                        for mode in (cam.Mode.NAND, cam.Mode.NOR)}
        # oracle symbols: 0, 1, or 2 for a stored don't-care
        self.initial_symbols = {
            mode: np.array([[2 if s == "X" else int(s) for s in w] for w in words],
                           dtype=np.uint8)
            for mode, words in self.initial.items()}

    def _random_word(self) -> str:
        return "".join("X" if self.rng.random() < self.X_SHARE
                       else self.rng.choice("01") for _ in range(self.M))

    # -- set-up --------------------------------------------------------------

    def setup(self, workdir: Path) -> None:
        """Words -> encode_word -> image save -> image load -> store."""
        device = self.system.device
        self.symbols = {m: a.copy() for m, a in self.initial_symbols.items()}
        self.layout = cam.LayoutMap.for_subarray(
            device.rows_per_subarray, device.cols_per_subarray, self.M)
        self.stores = {}
        for mode, words in self.initial.items():
            image = workdir / f"{self.name}-{mode.value}.img"
            columns = [cam.encode_word(w, mode) for w in words]
            cam.save_word_db(image, cam.WordDb(self.M, mode, columns))
            loaded = cam.load_word_db(image)
            sub = Subarray.from_device(device)
            cam.store(sub, self.layout, loaded.columns)
            self.stores[mode] = (sub, loaded)

    items_per_subarray = WORDS
    shards = 1

    # -- requests ------------------------------------------------------------

    def next_request(self, index: int) -> dict:
        kind = self.KINDS[index % len(self.KINDS)]
        mode = cam.Mode.NOR if kind == "nor" else cam.Mode.NAND
        req = {"kind": kind, "mode": mode, "update": None, "ignore": ()}
        if index % self.UPDATE_EVERY == self.UPDATE_EVERY - 1:
            target = (cam.Mode.NAND, cam.Mode.NOR)[(index // self.UPDATE_EVERY) % 2]
            slots = self.rng.sample(range(self.WORDS),
                                    int(self.WORDS * self.UPDATE_SHARE))
            req["update"] = (target, [(c, self._random_word()) for c in slots])
        if (index // len(self.KINDS)) % 2 == 0:
            # a stored word with its don't-cares filled in: at least one match
            word = self.symbols[mode][self.rng.randrange(self.WORDS)]
            req["query"] = "".join(self.rng.choice("01") if s == 2 else str(s)
                                   for s in word.tolist())
        else:
            req["query"] = "".join(self.rng.choice("01") for _ in range(self.M))
        if kind == "tcam":
            req["ignore"] = tuple(sorted(self.rng.sample(range(self.M),
                                                         self.TCAM_IGNORED)))
        return req

    def _compile(self, req: dict):
        timing, kind = self.system.device.timing, req["kind"]
        if kind == "hd1":
            return cam.compile_hd1_compare(req["query"], self.layout, timing)
        if kind == "nor":
            return cam.compile_nor_compare(req["query"], self.layout, timing)
        return cam.compile_nand_compare(req["query"], self.layout, timing,
                                        ignore_positions=req["ignore"])

    @staticmethod
    def split(req: dict) -> list[dict]:
        return [req]

    def request(self, req: dict) -> Outcome:
        if req["update"] is not None:
            mode, changes = req["update"]
            sub, db = self.stores[mode]
            for col, word in changes:
                db.columns[col] = cam.encode_word(word, mode)
            cam.store(sub, self.layout, db.columns)
        sub, db = self.stores[req["mode"]]
        compiled = self._compile(req)
        vec = cam.run_compare(sub, compiled, columns=db.count)
        return Outcome([vec.matches()], commands=len(compiled.trace))

    def query_traces(self, req: dict) -> list:
        return [self._compile(req).trace]

    def rotation(self) -> list[list]:
        """One trace per query kind, for the simulated metrics."""
        ignore = tuple(range(self.TCAM_IGNORED))
        return [self._compile({"kind": kind, "query": "0" * self.M,
                               "ignore": ignore if kind == "tcam" else ()}).trace
                for kind in self.KINDS]

    # -- oracle --------------------------------------------------------------

    def check(self, req: dict, out: Outcome) -> int:
        """1 if the request's verdict vector differs from the oracle's."""
        if req["update"] is not None:
            mode, changes = req["update"]
            for col, word in changes:
                self.symbols[mode][col] = [2 if s == "X" else int(s) for s in word]
        stored = self.symbols[req["mode"]]
        query = np.array([int(b) for b in req["query"]], dtype=np.uint8)
        mismatch = (stored != 2) & (stored != query)
        mismatch[:, list(req["ignore"])] = False
        limit = 1 if req["kind"] == "hd1" else 0
        expected = mismatch.sum(axis=1) <= limit
        return int(not np.array_equal(out.answers[0], expected))

    @staticmethod
    def flip(out: Outcome) -> Outcome:
        verdicts = out.answers[0].copy()
        verdicts[0] = not verdicts[0]
        return replace(out, answers=[verdicts])

    def describe(self) -> dict:
        return {"m": self.M, "words_per_store": self.WORDS,
                "x_share": self.X_SHARE, "kinds": list(self.KINDS),
                "tcam_ignored_positions": self.TCAM_IGNORED,
                "update_every": self.UPDATE_EVERY,
                "update_share": self.UPDATE_SHARE,
                "config": config.dump_config(self.system)}


WHY = {
    "kmer-exact": "k=32 exact reads on 4 shards x 8192 columns, 256 taxa: "
                  "core execution on wide rows, build_shards per batch, "
                  "refresh stamps and taxon assignment over many groups",
    "kmer-hd1": "k=16 distance-1 reads, 256 taxa, 2 strata on one shard: long "
                "programs, so compile, micro-ops, account and per-command "
                "overhead dominate, plus assignment over many taxa",
    "word-cam-update": "16-bit nand/tcam/hd1/nor word compares with periodic "
                       "cam.store rewrites: no genomics layer, writes beside "
                       "reads",
}


def make(name: str, seed: int):
    if name == "kmer-exact":
        return KmerWorkload(name, WHY[name], seed, k=32, kind="exact",
                            taxa=256, kmers_per_taxon=120, read_kmers=9)
    if name == "kmer-hd1":
        return KmerWorkload(name, WHY[name], seed, k=16, kind="hd1",
                            taxa=256, kmers_per_taxon=64, read_kmers=9)
    if name == "word-cam-update":
        return WordCamWorkload(name, WHY[name], seed)
    raise ValueError(f"unknown workload {name!r}")
