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
from .config import SystemConfig, load_config
from .core import Subarray
from .errors import ConfigError, DramCamError, EncodingFault
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
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
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
        words = [w.strip() for w in Path(args.words).read_text().splitlines()
                 if w.strip() and not w.startswith("#")]
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

_WORD_MODE_NEEDS = {"nand": cam.Mode.NAND, "tcam": cam.Mode.NAND,
                    "hd1": cam.Mode.NAND, "nor": cam.Mode.NOR}


def cmd_search(args) -> int:
    cfg = _system(args)
    kind = cam.read_image_header(args.db).get("kind")
    if kind == "words":
        lines, traces = _search_words(args, cfg)
    elif kind == "kmers":
        lines, traces = _search_kmers(args, cfg)
    else:
        raise EncodingFault(f"{args.db}: unknown database kind {kind!r}")
    _write_out(args.out, "".join(line + "\n" for line in lines))
    if args.emit_trace:
        Path(args.emit_trace).write_text(format_trace(traces))
    return 0


def _search_words(args, cfg: SystemConfig):
    db = cam.load_word_db(args.db)
    need = _WORD_MODE_NEEDS[args.mode]
    if db.mode is not need:
        raise EncodingFault(
            f"mode {args.mode} needs a {need.value}-encoded database, "
            f"but {args.db} is encoded for {db.mode.value}")
    device = cfg.device
    layout = cam.LayoutMap.for_subarray(device.rows_per_subarray,
                                        device.cols_per_subarray,
                                        db.word_length)
    sub = Subarray.from_device(device)
    cam.store(sub, layout, db.columns)
    queries = _read_lines(args.queries)
    lines, traces = [], []
    for q in queries:
        if args.mode == "nor":
            compiled = cam.compile_nor_compare(q, layout, device.timing)
        elif args.mode == "hd1":
            compiled = cam.compile_hd1_compare(q, layout, device.timing)
        else:
            compiled = cam.compile_nand_compare(q, layout, device.timing)
        vec = cam.run_compare(sub, compiled, columns=db.count)
        lines.append(vec.to_line())
        traces.extend(compiled.trace)
    return lines, traces


def _search_kmers(args, cfg: SystemConfig):
    if args.mode in ("nor", "tcam"):
        raise EncodingFault(f"mode {args.mode} is not defined for k-mer databases")
    db = genomics.load_kmer_db(args.db, cfg.device)
    queries = _kmer_queries(args.queries, db.k)
    shards = db.build_shards()
    compare_kind = "hd1" if args.mode == "hd1" else "exact"
    lines, traces = [], []
    for q in queries:
        result, _ = genomics.classify(db, shards, q, compare_kind)
        verdicts = np.zeros(db.layout.total_columns, dtype=np.uint8)
        verdicts[list(result.columns)] = 1
        lines.append(cam.MatchVector(verdicts, cam.Polarity.MATCH_IS_1).to_line())
        for stratum in range(db.layout.strata):
            traces.extend(genomics.compile_kmer_compare(
                q, db.layout, db.device, stratum, compare_kind).trace)
    return lines, traces


# -- classify --------------------------------------------------------------------

def cmd_classify(args) -> int:
    cfg = _system(args)
    if cam.read_image_header(args.db).get("kind") != "kmers":
        raise EncodingFault("classification needs a k-mer database image")
    db = genomics.load_kmer_db(args.db, cfg.device)
    queries = _kmer_queries(args.queries, db.k)
    kind = "hd1" if args.mode == "hd1" else "exact"
    results, summary = genomics.classify_batch(db, queries, kind,
                                               parallel=args.parallel)
    _write_out(args.out, genomics.format_results(results, summary))
    return 0


# -- bench ---------------------------------------------------------------------

def cmd_bench(args) -> int:
    cfg = _system(args)
    header = cam.read_image_header(args.db)
    rng = random.Random(args.seed)
    if header.get("kind") == "kmers":
        db = genomics.load_kmer_db(args.db, cfg.device)
        queries = (_kmer_queries(args.queries, db.k) if args.queries
                   else _sample_kmers(db, rng, 64))
        kind = "hd1" if args.mode == "hd1" else "exact"
        shards = db.build_shards()
        all_cmds, first_cmds = [], None
        for q in queries:
            per_query = []
            for stratum in range(db.layout.strata):
                compiled = genomics.compile_kmer_compare(q, db.layout,
                                                         db.device, stratum, kind)
                for shard in shards:
                    cam.run_compare(shard.subarray, compiled,
                                    columns=shard.columns)
                per_query.extend(compiled.trace)
            all_cmds.extend(per_query)
            first_cmds = first_cmds or per_query
        # shards run the compare side by side, so one pass covers one
        # subarray's share of the k-mers, not the whole database
        items = round(sum(g.kmers for g in db.layout.groups) / len(shards))
    else:
        wdb = cam.load_word_db(args.db)
        device = cfg.device
        layout = cam.LayoutMap.for_subarray(device.rows_per_subarray,
                                            device.cols_per_subarray,
                                            wdb.word_length)
        sub = Subarray.from_device(device)
        cam.store(sub, layout, wdb.columns)
        if args.queries:
            queries = _read_lines(args.queries)
        else:
            picks = [rng.randrange(wdb.count) for _ in range(64)]
            queries = [cam.decode_column(wdb.columns[i], wdb.mode).replace("X", "0")
                       for i in picks]
        compile_fn = (cam.compile_hd1_compare if args.mode == "hd1"
                      else cam.compile_nand_compare)
        all_cmds, first_cmds = [], None
        for q in queries:
            compiled = compile_fn(q, layout, device.timing)
            cam.run_compare(sub, compiled, columns=wdb.count)
            all_cmds.extend(compiled.trace)
            first_cmds = first_cmds or compiled.trace
        items = wdb.count

    timing, energy = cfg.device.timing, cfg.energy
    per_compare = metrics.account(first_cmds, timing, energy)
    batch = metrics.account(all_cmds, timing, energy)
    batch = metrics.add_host_assignment(batch, len(queries), cfg.host_assign_ns)
    estimate = metrics.throughput_estimate(cfg.device, per_compare, items)

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


def _sample_kmers(db: genomics.KmerDatabase, rng: random.Random,
                  count: int) -> list[str]:
    slots = [(s, c) for g in db.layout.groups
             for s in range(db.layout.strata)
             for c in range(g.start, g.start + g.columns)
             if db.layout.occupied(s, c)]
    if not slots:
        raise EncodingFault("database holds no k-mers to sample")
    picks = [slots[rng.randrange(len(slots))] for _ in range(count)]
    span = 4 * db.k
    return [genomics.decode_kmer_onehot(
        db.column_cells[s * span:(s + 1) * span, c]) for s, c in picks]


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
