#!/usr/bin/env python3
"""dramcam benchmark: one seeded workload, host and simulated metrics.

    python3 benchmarks/run.py --workload kmer-hd1 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the simulator is imported from its
`src/` directory and nowhere else. One closed-loop client in this process
sends a request, waits for it, checks its answers against the workload's
oracle (untimed) and sends the next, until `--seconds` of request time have
been measured.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs half the time
untraced and half with every public call wrapped in a span, and prints the
per-layer metrics, self time per layer and the tracing overhead. Either way
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`, and a record with the
machine, the workload's configuration and every metric goes to
`.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SCHEMA_VERSION = 1
# BENCHMARK.json lists the measured ones; kmer-exact stays runnable for the
# self-test's closed-form check and for comparisons by hand.
WORKLOADS = ("kmer-exact", "kmer-hd1", "word-cam-update")
ROUNDS = 10
SLICES = 5  # report sampling points per round
REPORT_SHARE = 0.1  # report samples take up to this share of request time
WARMUP_REQUESTS = 2
REPORT_QUERIES = 64

# name -> (unit, better, kind, what); kept equal to BENCHMARK.json
END_TO_END = {
    "query_rate": ("queries/s", "higher", "host",
                   "k-mers or words answered per second of request time"),
    "request_p50_ms": ("ms", "lower", "host",
                       "median latency over every request of the run"),
    "request_tail_ms": ("ms", "lower", "host",
                        "latency with exactly 10 requests beyond it"),
    "commands_per_s": ("cmd/s", "higher", "host",
                       "ACT/PRE commands executed per second of request "
                       "time, over all shard passes"),
    "setup_s": ("s", "lower", "host",
                "median of one set-up per round: inputs -> ingest/encode "
                "-> image save -> image load (-> store)"),
    "peak_rss_mb": ("MB", "lower", "host",
                    "ru_maxrss of this process at the end of serving"),
    "report_s": ("s", "lower", "host",
                 f"mean metrics.account time over the concatenated traces "
                 f"of the run's first {REPORT_QUERIES} queries, sampled "
                 f"across the run"),
    "sim_ns_per_query": ("sim-ns", "lower", "simulated",
                         "simulated latency of one query's trace, all strata"),
    "sim_pj_per_query": ("pJ", "lower", "simulated",
                         "account() energy of one query's trace"),
    "sim_gitems_s": ("Gitems/s", "higher", "simulated",
                     "throughput_estimate with the items held per subarray"),
    "commands_per_query": ("count", "lower", "simulated",
                           "trace length of one query, all strata"),
}
# Reported and folded into `failed`/`correct`, but not an end-to-end metric
# of BENCHMARK.json, whose metrics must never read 0.
ERROR_RATE = ("error_rate", "fraction", "lower", "both",
              "queries whose verdict or taxa differ from the oracle, or "
              "that raised, over queries attempted")


def import_program():
    """Import dramcam from this checkout's src/ and nowhere else."""
    if not (SRC / "dramcam" / "__init__.py").is_file():
        sys.exit(f"error: no dramcam sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dramcam
    if Path(dramcam.__file__).resolve().parent != (SRC / "dramcam").resolve():
        sys.exit(f"error: dramcam imported from {dramcam.__file__}, not {SRC}")
    return dramcam


class Tally:
    """What the closed-loop client saw over one serving phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.stale = 0
        self.commands = 0
        self.report_inputs: list = []
        self.last = None  # (request, outcome) of the last answered request


def serve(wl, tally: Tally, index: int, *, seconds: float = 0.0,
          requests: int = 0, tracer=None) -> int:
    """Send requests until `seconds` of request time or `requests` requests."""
    from dramcam.errors import DramCamError, StalePresetWarning

    while tally.busy < seconds or len(tally.latencies) < requests:
        req = wl.next_request(index)
        queries = wl.split(req)
        if tracer is not None:
            tracer.request, tracer.phase = index, "request"
        index += 1
        t0 = time.perf_counter()
        try:
            out = wl.request(req)
        except (DramCamError, StalePresetWarning) as exc:
            out = None
            tally.stale += isinstance(exc, StalePresetWarning)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.phase = "check"
        tally.latencies.append(dt)
        tally.busy += dt
        tally.attempted += len(queries)
        wrong = len(queries)
        if out is not None:
            try:
                wrong = wl.check(req, out)
            except (DramCamError, StalePresetWarning):
                pass
            else:
                tally.commands += out.commands
                tally.last = (req, out)
        tally.failed += wrong
        if len(tally.report_inputs) < REPORT_QUERIES:
            tally.report_inputs.extend(queries)
    return index


def merge(into: Tally, other: Tally) -> None:
    """Fold another phase's attempts and failures into `into`."""
    into.attempted += other.attempted
    into.failed += other.failed
    into.stale += other.stale


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with >= 10 samples beyond it: (value, pct, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def report_trace(wl, tally: Tally) -> list:
    inputs = tally.report_inputs
    picked = [inputs[i % len(inputs)] for i in range(REPORT_QUERIES)]
    return [cmd for q in picked for t in wl.query_traces(q) for cmd in t]


def simulated(wl) -> tuple[dict, list]:
    """Simulated metrics over one query of each kind; deterministic."""
    from dramcam import metrics

    timing, energy = wl.system.device.timing, wl.system.energy
    traces = wl.rotation()
    reports = [metrics.account(t, timing, energy) for t in traces]
    whole = metrics.account([c for t in traces for c in t], timing, energy)
    estimate = metrics.throughput_estimate(
        wl.system.device, whole, round(wl.items_per_subarray * len(traces)))
    n = len(traces)
    return {
        "sim_ns_per_query": sum(r.latency_ns for r in reports) / n,
        "sim_pj_per_query": sum(r.energy_pj for r in reports) / n,
        "sim_gitems_s": estimate.kmers_per_sec / 1e9,
        "commands_per_query": sum(len(t) for t in traces) / n,
    }, reports


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "machine": platform.machine()}


def timed_run(wl, seconds: float, workdir: Path) -> tuple[dict, dict, Tally]:
    """End-to-end metrics over ROUNDS rounds of set-up, serving and report.

    The machine switches between a fast and a slow mode, up to 1.8x
    apart, for a few hundred milliseconds to a minute at a time.
    So every timing is sampled across the whole run: set-up once per
    round, reported as the median; the request latency as the median
    over all requests; the report between slices of serving, whenever
    reports have taken less than REPORT_SHARE of the request time so far,
    reported as the mean, which follows the share of time spent in each
    mode where a median jumps between the modes. A fastest sample, or the
    median of the fastest round alone, rests on a few samples and spread
    further across runs (26-28% against 7-19% over ten seeds).
    """
    from dramcam import metrics

    timing, energy = wl.system.device.timing, wl.system.energy
    setups, reports, trace = [], [], None
    warm, tally = Tally(), Tally()
    index = 0
    for round_ in range(ROUNDS):
        t0 = time.perf_counter()
        wl.setup(workdir)
        setups.append(time.perf_counter() - t0)
        if round_ == 0:
            index = serve(wl, warm, index, requests=WARMUP_REQUESTS)
        for slice_ in range(SLICES):
            done = (round_ * SLICES + slice_ + 1) / (ROUNDS * SLICES)
            index = serve(wl, tally, index, seconds=seconds * done)
            trace = trace or report_trace(wl, tally)
            if not reports or sum(reports) < REPORT_SHARE * tally.busy:
                t0 = time.perf_counter()
                metrics.account(trace, timing, energy)
                reports.append(time.perf_counter() - t0)
    query_rate = tally.attempted / tally.busy
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    merge(tally, warm)

    tail_s, tail_pct, beyond = tail(tally.latencies)
    values = {
        "query_rate": query_rate,
        "request_p50_ms": statistics.median(tally.latencies) * 1e3,
        "request_tail_ms": tail_s * 1e3,
        "commands_per_s": tally.commands / tally.busy,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "report_s": statistics.fmean(reports),
    }
    values.update(simulated(wl)[0])
    extra = {"request_tail_percentile": tail_pct,
             "request_tail_beyond": beyond,
             "requests": len(tally.latencies),
             "setup_runs_s": setups, "report_runs_s": reports,
             "report_commands": len(trace),
             "latencies_ms": [round(x * 1e3, 4) for x in tally.latencies]}
    return values, extra, tally


def traced_run(wl, seconds: float, workdir: Path, seed: int
               ) -> tuple[dict, dict, Tally]:
    from dramcam import metrics
    from tracing import LAYERS, Tracer, layer_of

    wl.setup(workdir)
    warm = Tally()
    index = serve(wl, warm, 0, requests=WARMUP_REQUESTS)
    plain = Tally()
    index = serve(wl, plain, index, seconds=seconds / 2)

    tracer = Tracer()
    traced = Tally()
    tracer.install()
    try:
        wl.setup(workdir)
        serve(wl, traced, index, seconds=seconds / 2, tracer=tracer)
        tracer.phase = "report"
        timing, energy = wl.system.device.timing, wl.system.energy
        metrics.account(report_trace(wl, traced), timing, energy)
        sims = simulated(wl)[1]
    finally:
        tracer.restore()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"{wl.name}-s{seed}-spans.json")

    n_queries, plain_queries = traced.attempted, plain.attempted
    merge(traced, warm)
    merge(traced, plain)
    spans, selfs = tracer.spans, tracer.self_times()
    in_request = [i for i, s in enumerate(spans) if s[5] == "request"]

    def med(names, phase=None):
        xs = [d for n in names for d in tracer.durations(n, phase)]
        return statistics.median(xs) if xs else 0.0

    def total(names, phase=None):
        return sum(d for n in names for d in tracer.durations(n, phase))

    def per_query(x):
        return x / n_queries

    counts = tracer.counts
    cam_compiles = ("cam.compile_nand_compare", "cam.compile_nor_compare",
                    "cam.compile_hd1_compare")
    fragments = ("microops.cpy", "microops.and3", "microops.or3")
    assign = [selfs[i] for i in in_request if spans[i][0] == "genomics.classify"]
    executed = counts[("request", "core.commands")]
    accounted = sum(v for (_, k), v in counts.items() if k == "metrics.commands")
    values = {
        "genomics.ingest_s": med(["genomics.ingest_text"]),
        "genomics.image_save_s": med(["genomics.save_kmer_db"]),
        "genomics.image_load_s": med(["genomics.load_kmer_db"]),
        "genomics.image_bytes": getattr(wl, "image_bytes", 0),
        "genomics.build_shards_s": med(["genomics.KmerDatabase.build_shards"],
                                       "request"),
        "genomics.shards": (counts[("request", "genomics.shards")]
                            / max(1, len(tracer.durations(
                                "genomics.KmerDatabase.build_shards", "request")))),
        "genomics.compile_us": med(["genomics.compile_kmer_compare"],
                                   "request") * 1e6,
        "genomics.assign_us": (statistics.median(assign) if assign else 0.0) * 1e6,
        "genomics.strata_passes": per_query(len(tracer.durations(
            "genomics.compile_kmer_compare", "request"))),
        "cam.compile_us": med(cam_compiles, "request") * 1e6,
        "cam.run_compare_us": med(["cam.run_compare"], "request") * 1e6,
        "cam.run_compare_calls": per_query(len(tracer.durations(
            "cam.run_compare", "request"))),
        "cam.store_s": med(["cam.store"]),
        "cam.image_save_s": med(["cam.save_word_db"]),
        "cam.image_load_s": med(["cam.load_word_db"]),
        "core.execute_us_per_command": (
            total(["core.Subarray.execute"], "request") / executed * 1e6
            if executed else 0.0),
        "core.commands": per_query(executed),
        "core.write_rows": per_query(counts[("request", "core.write_rows")]),
        "core.cells_bytes": tracer.cells_bytes,
        "core.refresh_stamp_bytes": tracer.refresh_stamp_bytes,
        "core.stale_preset_warnings": traced.stale,
        "metrics.account_us_per_command": (
            total(["metrics.account"]) / accounted * 1e6 if accounted else 0.0),
        "microops.fragment_us": per_query(total(fragments, "request")) * 1e6,
    }
    for key, name in (("acts", "ACT"), ("pres", "PRE"),
                      ("row_copies", "row_copy"), ("majorities", "multi_activate"),
                      ("truncated_acts", "truncated_act"),
                      ("truncated_pres", "truncated_pre")):
        values[f"metrics.{key}"] = sum(r.counts[name] for r in sims) / len(sims)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i in in_request:
        layer_self[layer_of(spans[i][0])] += selfs[i]
    roots = sum(spans[i][2] - spans[i][1] for i in in_request if spans[i][3] < 0)
    for layer, t in layer_self.items():
        values[f"{layer}.self_pct"] = 100.0 * t / traced.busy
    values["bench.self_pct"] = 100.0 * (traced.busy - roots) / traced.busy
    plain_rate = plain_queries / plain.busy
    traced_rate = n_queries / traced.busy
    values["trace.overhead_pct"] = 100.0 * (plain_rate / traced_rate - 1.0)
    values["trace.spans_per_query"] = per_query(len(in_request))
    extra = {"untraced_query_rate": plain_rate, "traced_query_rate": traced_rate,
             "spans": len(spans)}
    return values, extra, traced


# name -> (unit, what); kept equal to BENCHMARK.json. Layer metrics that a
# workload does not exercise read 0.
PER_LAYER = {
    "genomics.ingest_s": ("s", "ingest_text of the generated reference"),
    "genomics.image_save_s": ("s", "save_kmer_db"),
    "genomics.image_load_s": ("s", "load_kmer_db"),
    "genomics.image_bytes": ("bytes", "k-mer image size"),
    "genomics.build_shards_s": ("s", "median build_shards call"),
    "genomics.shards": ("count", "shards per build_shards call"),
    "genomics.compile_us": ("us", "median compile_kmer_compare call"),
    "genomics.assign_us": ("us", "median classify self time, without its "
                                 "compile and run_compare children"),
    "genomics.strata_passes": ("count/query", "compile_kmer_compare calls "
                                              "per query"),
    "cam.compile_us": ("us", "median compile_nand/nor/hd1_compare call"),
    "cam.run_compare_us": ("us", "median run_compare call"),
    "cam.run_compare_calls": ("count/query", "run_compare calls per query"),
    "cam.store_s": ("s", "median cam.store call, set-up and updates"),
    "cam.image_save_s": ("s", "save_word_db"),
    "cam.image_load_s": ("s", "load_word_db"),
    "core.execute_us_per_command": ("us", "Subarray.execute time per command"),
    "core.commands": ("count/query", "commands executed per query, all "
                                     "shard passes"),
    "core.write_rows": ("count/query", "Subarray.write_row calls per query"),
    "core.cells_bytes": ("bytes", "cell grid of one subarray"),
    "core.refresh_stamp_bytes": ("bytes", "refresh stamps of one subarray"),
    "core.stale_preset_warnings": ("count", "StalePresetWarning raised"),
    "metrics.account_us_per_command": ("us", "account() time per command"),
    "metrics.acts": ("count/query", "ACT commands per query"),
    "metrics.pres": ("count/query", "PRE commands per query"),
    "metrics.row_copies": ("count/query", "row copies per query"),
    "metrics.majorities": ("count/query", "triple-row activations per query"),
    "metrics.truncated_acts": ("count/query", "truncated-gap ACTs per query"),
    "metrics.truncated_pres": ("count/query", "truncated-gap PREs per query"),
    "microops.fragment_us": ("us/query", "time inside cpy/and3/or3 per query"),
    "genomics.self_pct": ("%", "genomics self time, share of request time"),
    "cam.self_pct": ("%", "cam self time, share of request time"),
    "core.self_pct": ("%", "core self time, share of request time"),
    "metrics.self_pct": ("%", "metrics self time, share of request time"),
    "microops.self_pct": ("%", "microops self time, share of request time"),
    "bench.self_pct": ("%", "client time inside requests outside any span"),
    "trace.overhead_pct": ("%", "untraced over traced query rate, minus 1"),
    "trace.spans_per_query": ("count/query", "spans recorded per query"),
}


def flip_detected(wl, tally: Tally) -> bool:
    """Self-check: one flipped verdict in a recorded result must be caught."""
    if tally.last is None:
        return False
    req, out = tally.last
    return wl.check(req, wl.flip(out)) > 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="request time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads
    from dramcam.errors import StalePresetWarning

    # a stale preset is a wrong answer, never a warning line
    warnings.simplefilter("error", StalePresetWarning)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"{args.workload}-s{args.seed}-work"
    workdir.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed)
    if args.trace:
        values, extra, tally = traced_run(wl, args.seconds, workdir, args.seed)
        spec = {n: (u, "") for n, (u, _) in PER_LAYER.items()}
    else:
        values, extra, tally = timed_run(wl, args.seconds, workdir)
        spec = {n: (u, kind) for n, (u, _, kind, _) in END_TO_END.items()}
    flip_ok = flip_detected(wl, tally)
    error_rate = tally.failed / tally.attempted
    correct = tally.failed == 0 and flip_ok

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, (unit, kind) in spec.items():
        print(f"  {name:<32} {values[name]:>16.6g} {unit:<12} {kind}")
    if not args.trace:
        print(f"  {'(request_tail_ms is p':>32}"
              f"{extra['request_tail_percentile']:.2f}: "
              f"{extra['request_tail_beyond']} of {extra['requests']} "
              f"requests beyond it)")
    print(f"  {ERROR_RATE[0]:<32} {error_rate:>16.6g} {ERROR_RATE[1]:<12} "
          f"{ERROR_RATE[3]}  ({tally.failed} of {tally.attempted} queries)")
    print(f"  flipped verdict detected: {flip_ok}")

    record = {
        "schema_version": SCHEMA_VERSION,
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "workload_config": wl.describe(),
        "metrics": {n: {"value": values[n], "unit": spec[n][0]} for n in spec},
        "error_rate": error_rate, "attempted": tally.attempted,
        "failed": tally.failed, "flip_detected": flip_ok, "extra": extra,
    }
    path = OUT_DIR / f"{wl.name}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": spec[n][0]} for n in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
