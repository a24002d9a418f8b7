"""Command-line entry point: build databases, search, classify, benchmark."""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from pathlib import Path

import numpy as np

from . import cam, genomics, metrics
from .config import DeviceConfig, SystemConfig, load_config
from .core import Subarray
from .errors import ConfigError, DramCamError, EncodingFault, IOFault
from .trace import format_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dramcam",
        description="Command-level DRAM subarray CAM simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-db", help="build a database image")
    p.add_argument("--reference", help="'>taxon' sequence text to k-merize")
    p.add_argument("--k", type=int, help="k-mer length (with --reference)")
    p.add_argument("--words", help="one word per line (0/1/X) to encode")
    p.add_argument("--mode", choices=["nand", "nor"], default="nand",
                   help="encoding mode for --words")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", help="layout manifest path (k-mer builds)")
    p.set_defaults(func=cmd_build_db)

    p = sub.add_parser("search", help="per-query match vectors")
    p.add_argument("--db", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--mode", choices=["nand", "nor", "tcam", "hd1"],
                   default="nand")
    p.add_argument("--config")
    p.add_argument("--out", default="-")
    p.add_argument("--emit-trace", dest="emit_trace")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("classify", help="assign taxa to k-mer queries")
    p.add_argument("--db", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--mode", choices=["nand", "hd1"], default="nand")
    p.add_argument("--config")
    p.add_argument("--out", default="-")
    p.add_argument("--parallel", type=int, default=1)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bench", help="latency/energy/throughput report")
    p.add_argument("--db", required=True)
    p.add_argument("--queries", help="optional query file; sampled if absent")
    p.add_argument("--mode", choices=["nand", "hd1"], default="nand")
    p.add_argument("--config")
    p.add_argument("--report", help="write the report as JSON here")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DramCamError as exc:
        fault = exc
    except OSError as exc:
        fault = IOFault(str(exc))
    print(f"error: {fault.code}: {fault}", file=sys.stderr)
    return 1


def _system(args) -> SystemConfig:
    return load_config(args.config) if args.config else SystemConfig()


def _write_out(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# -- build-db ------------------------------------------------------------------

def cmd_build_db(args) -> int:
    cfg = _system(args)
    if bool(args.reference) == bool(args.words):
        raise ConfigError("build-db needs exactly one of --reference / --words")
    if args.reference:
        if not args.k:
            raise ConfigError("--reference requires --k")
        db = genomics.ingest_text(Path(args.reference).read_text(), args.k,
                                  cfg.device)
        genomics.save_kmer_db(args.out, db)
        manifest = genomics.manifest_dict(db)
        manifest_path = args.manifest or args.out + ".manifest.json"
        Path(manifest_path).write_text(json.dumps(manifest, indent=2,
                                                  sort_keys=True) + "\n")
        total = sum(g["kmers"] for g in manifest["groups"])
        print(f"stored {total} k-mers (k={db.k}) for {len(manifest['groups'])} "
              f"taxa in {manifest['columns']} columns x {manifest['strata']} "
              f"strata over {manifest['subarrays']} subarray(s)")
        print(f"image: {args.out}")
        print(f"manifest: {manifest_path}")
    else:
        mode = cam.Mode(args.mode)
        words = _read_lines(args.words)
        if not words:
            raise EncodingFault(f"{args.words}: no words to store")
        lengths = {len(w) for w in words}
        if len(lengths) != 1:
            raise EncodingFault(f"mixed word lengths {sorted(lengths)}")
        columns = [cam.encode_word(w, mode) for w in words]
        cam.save_word_db(args.out, cam.WordDb(lengths.pop(), mode, columns))
        print(f"stored {len(words)} words of {len(words[0])} bits "
              f"({mode.value} encoding)")
        print(f"image: {args.out}")
    return 0


# -- search --------------------------------------------------------------------

def cmd_search(args) -> int:
    image = _open_image(args.db, _system(args))
    image.check_mode(args.mode)
    lines, traces = _compare_loop(image, image.read_queries(args.queries),
                                  args.mode)
    _write_out(args.out, "".join(line + "\n" for line in lines))
    if args.emit_trace:
        Path(args.emit_trace).write_text(
            format_trace(cmd for trace in traces for cmd in trace))
    return 0


# -- classify --------------------------------------------------------------------

def cmd_classify(args) -> int:
    cfg = _system(args)
    db = genomics.load_kmer_db(args.db, cfg.device)
    queries = _kmer_queries(args.queries, db.k)
    results, summary = genomics.classify_batch(
        db, queries, _KMER_KINDS[args.mode], parallel=args.parallel)
    _write_out(args.out, genomics.format_results(results, summary))
    return 0


# -- bench ---------------------------------------------------------------------

def cmd_bench(args) -> int:
    cfg = _system(args)
    image = _open_image(args.db, cfg)
    queries = (image.read_queries(args.queries) if args.queries
               else image.sample(random.Random(args.seed), 64))
    _, traces = _compare_loop(image, queries, args.mode)

    timing, energy = cfg.device.timing, cfg.energy
    per_compare = metrics.account(traces[0], timing, energy)
    batch = metrics.account([cmd for trace in traces for cmd in trace],
                            timing, energy)
    batch = metrics.add_host_assignment(batch, len(queries), cfg.host_assign_ns)
    estimate = metrics.throughput_estimate(cfg.device, per_compare, image.items)

    print(f"benchmarked {len(queries)} queries ({args.mode} mode)")
    print(f"per-compare: {per_compare.latency_cycles} cycles = "
          f"{per_compare.latency_ns:.1f} ns, {per_compare.energy_pj:.1f} pJ")
    print(metrics.format_report(batch, estimate), end="")
    if args.report:
        payload = {
            "mode": args.mode,
            "queries": len(queries),
            "per_compare": dataclasses.asdict(per_compare),
            "batch": dataclasses.asdict(batch),
            "throughput_kmers_per_sec": estimate.kmers_per_sec,
            "assumptions": estimate.assumptions,
        }
        Path(args.report).write_text(json.dumps(payload, indent=2,
                                                sort_keys=True) + "\n")
    return 0


# -- the compare loop search and bench share -----------------------------------

# word --mode -> (encoding the image must hold, compare program)
_WORD_MODES = {"nand": (cam.Mode.NAND, cam.compile_nand_compare),
               "tcam": (cam.Mode.NAND, cam.compile_nand_compare),
               "hd1": (cam.Mode.NAND, cam.compile_hd1_compare),
               "nor": (cam.Mode.NOR, cam.compile_nor_compare)}
# k-mer --mode -> classify kind
_KMER_KINDS = {"nand": "exact", "hd1": "hd1"}


def _open_image(path: str, cfg: SystemConfig):
    """Load a database image into subarrays, ready for `_compare_loop`."""
    kind = cam.read_image(path)[0].get("kind")
    if kind == "words":
        return _WordImage(path, cfg.device)
    if kind == "kmers":
        return _KmerImage(path, cfg.device)
    raise EncodingFault(f"{path}: unknown database kind {kind!r}")


def _compare_loop(image, queries: list[str], mode: str):
    """Each query's verdict line and the commands it ran, in query order."""
    if not queries:
        raise EncodingFault("no queries to compare")
    lines, traces = [], []
    for q in queries:
        line, trace = image.compare(q, mode)
        lines.append(line)
        traces.append(trace)
    return lines, traces


class _WordImage:
    """A word image stored in one subarray."""

    def __init__(self, path: str, device: DeviceConfig):
        self.path = path
        self.db = cam.load_word_db(path)
        self.layout = cam.LayoutMap.for_subarray(device.rows_per_subarray,
                                                 device.cols_per_subarray,
                                                 self.db.word_length)
        self.sub = Subarray.from_device(device)
        cam.store(self.sub, self.layout, self.db.columns)
        self.timing = device.timing
        self.items = self.db.count  # words one compare pass covers

    def check_mode(self, mode: str) -> None:
        need = _WORD_MODES[mode][0]
        if self.db.mode is not need:
            raise EncodingFault(
                f"mode {mode} needs a {need.value}-encoded database, "
                f"but {self.path} is encoded for {self.db.mode.value}")

    def read_queries(self, path: str) -> list[str]:
        return _read_lines(path)

    def sample(self, rng: random.Random, count: int) -> list[str]:
        picks = [rng.randrange(self.db.count) for _ in range(count)]
        return [cam.decode_column(self.db.columns[i], self.db.mode).replace("X", "0")
                for i in picks]

    def compare(self, query: str, mode: str):
        compiled = _WORD_MODES[mode][1](query, self.layout, self.timing)
        vec = cam.run_compare(self.sub, compiled, columns=self.db.count)
        return vec.to_line(), compiled.trace


class _KmerImage:
    """A k-mer image stored across its shards."""

    def __init__(self, path: str, device: DeviceConfig):
        self.db = genomics.load_kmer_db(path, device)
        self.shards = self.db.build_shards()

    @property
    def items(self) -> int:
        # shards run the compare side by side, so one pass covers one
        # subarray's share of the k-mers, not the whole database
        return round(sum(g.kmers for g in self.db.layout.groups) / len(self.shards))

    def check_mode(self, mode: str) -> None:
        if mode not in _KMER_KINDS:
            raise EncodingFault(f"mode {mode} is not defined for k-mer databases")

    def read_queries(self, path: str) -> list[str]:
        return _kmer_queries(path, self.db.k)

    def sample(self, rng: random.Random, count: int) -> list[str]:
        layout = self.db.layout
        slots = [(s, c) for g in layout.groups
                 for s in range(layout.strata)
                 for c in range(g.start, g.start + g.columns)
                 if layout.occupied(s, c)]
        picks = [slots[rng.randrange(len(slots))] for _ in range(count)]
        span = 4 * self.db.k
        return [genomics.decode_kmer_onehot(
            self.db.column_cells[s * span:(s + 1) * span, c]) for s, c in picks]

    def compare(self, query: str, mode: str):
        result, traces = genomics.classify(self.db, self.shards, query,
                                           _KMER_KINDS[mode])
        verdicts = np.zeros(self.db.layout.total_columns, dtype=np.uint8)
        verdicts[list(result.columns)] = 1
        line = cam.MatchVector(verdicts, cam.Polarity.MATCH_IS_1).to_line()
        return line, [cmd for trace in traces for cmd in trace]


# -- input helpers ---------------------------------------------------------------

def _read_lines(path: str) -> list[str]:
    lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
    return [ln for ln in lines if ln and not ln.startswith("#")]


def _kmer_queries(path: str, k: int) -> list[str]:
    """One k-mer per line, or '>' records that get k-merized."""
    text = Path(path).read_text()
    stripped = [ln for ln in text.splitlines() if ln.strip()]
    if stripped and stripped[0].lstrip().startswith(">"):
        queries = []
        for _, seq in genomics.parse_reference_text(text):
            queries.extend(genomics.extract_kmers(seq, k))
        return queries
    return _read_lines(path)


if __name__ == "__main__":
    sys.exit(main())
