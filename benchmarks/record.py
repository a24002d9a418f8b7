#!/usr/bin/env python3
"""Run every workload over several seeds and summarise the spread.

    python3 benchmarks/record.py --seeds 1-10 [--workloads kmer-hd1,...]
                                 [--seconds 35] [--trace 0]
                                 [--label <commit>]

Each run is `run.py` in a fresh process, one at a time, so every workload's
peak memory is its own. For every metric the table gives the median, the
quartiles (`statistics.quantiles(n=4)`) and the spread, the distance
between the quartiles as a share of the median, beside the bound from
BENCHMARK.json. `--label` writes the summary into BENCH_trajectory.json
together with what makes the numbers readable on their own: schema
version, machine, each workload's configuration, metric units and
directions, and the span-to-layer mapping of the traced run.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import types
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
TRAJECTORY = HERE / "BENCH_trajectory.json"
NOTES = [
    "BENCHMARK.json holds only the keys the benchmark contract allows; the "
    "rest of the description lives here.",
    "sim_gitems_s passes throughput_estimate the items held per subarray "
    "(k-mers / shards). `dramcam bench` (cli.cmd_bench) passes the whole "
    "database's k-mer count, which overstates a multi-shard database by "
    "its shard count (4x on kmer-exact, 1x on the measured workloads); "
    "fixing the CLI is left to a later change.",
    "error_rate is printed by every run and drives `failed` and `correct`, "
    "but is not an end_to_end metric of BENCHMARK.json, whose metrics must "
    "never read 0.",
    "report_s accounts a fixed number of queries, not the whole run, so "
    "that a faster simulator does not read as a slower report.",
    "Each of this machine's 2 vCPUs switches between a fast and a slow "
    "mode, up to 1.8x apart, for a few hundred milliseconds to a minute "
    "at a time; CPU time follows wall time, so it is not steal. Every "
    "timing is therefore sampled across the whole run: setup_s is the "
    "median of one set-up per round, request_p50_ms the median over all "
    "requests, report_s the mean of report samples taken between slices "
    "of serving (a median of bimodal samples jumps between the modes). "
    "Fastest-sample estimators spread 26-28% across runs; these 7-19%.",
    "kmer-exact (k=32, 4 shards, 256 taxa) stays runnable and in the "
    "self-test, but is not in BENCHMARK.json: the run-to-run spread falls "
    "only slowly with run length (about 15% at 25 s, 11-13% at 45 s), and "
    "the contract's time limit allows 35 s runs for two workloads, not "
    "three. kmer-hd1 took over its 256 taxa.",
    "Two of every eight k-mer requests carry 4x longer reads, and every "
    "128th word request first rewrites a whole store, so that "
    "request_tail_ms measures those requests rather than the machine's "
    "noise.",
    "Simulated metrics are deterministic and repeat exactly; they change "
    "only when a program or the accounting model changes. Their unit for "
    "simulated time is sim-ns, to keep it apart from host time.",
    "The word-cam-update simulated metrics average one query of each kind "
    "(nand, tcam with 4 masked positions, hd1, nor).",
    "Per-layer metrics a workload does not exercise read 0.",
]


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((run.OUT_DIR / f"{workload}-s{seed}-t{trace}.json")
                        .read_text())
    return {"result": result, "record": record}


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def _qualified(owner) -> str:
    if isinstance(owner, types.ModuleType):
        return owner.__name__
    return f"{owner.__module__}.{owner.__qualname__}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", help="record the summary under this label")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary, configs, machine, steady = {}, {}, None, True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, args.trace) for s in seeds]
        bad = [r for r in runs if not r["result"]["correct"]]
        print(f"{workload}: {len(runs)} runs, {len(bad)} not correct")
        steady &= not bad
        configs[workload] = runs[0]["record"]["workload_config"]
        machine = runs[0]["record"]["machine"]
        summary[workload] = {}
        for name in runs[0]["result"]["metrics"]:
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            summary[workload][name] = stats
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None:
                flag = "ok" if stats["spread"] < bound / 3 else "WIDE"
                steady &= flag == "ok" or name == "setup_s"
            print(f"  {name:<32} median {stats['median']:<14.6g} "
                  f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                  f"spread {100 * stats['spread']:6.2f}%"
                  + (f"  bound {100 * bound:5.1f}% {flag}" if bound else ""))
    print("steady" if steady else "NOT steady (a spread is at or above a "
          "third of its bound, or a run was not correct)")

    if args.label:
        run.import_program()
        import tracing
        import workloads

        doc = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else {}

        doc.update({
            "schema_version": run.SCHEMA_VERSION,
            "command": "python3 benchmarks/run.py --workload <name> "
                       "--seed <n> --seconds <s> --trace <0|1>",
            "seed_argument": "--seed <int>: every input of the workload is a "
                             "pure function of it",
            "client": "one process, one closed-loop client, no threads; "
                      "each workload in a fresh process",
            "machine": machine,
            "workloads": {w: {"why": workloads.WHY[w], "config": c}
                          for w, c in configs.items()},
            "end_to_end": {n: {"unit": u, "better": b, "kind": k, "what": w,
                               "bound": bounds.get(n)}
                           for n, (u, b, k, w) in run.END_TO_END.items()},
            "error_rate": dict(zip(("name", "unit", "better", "kind", "what"),
                                   run.ERROR_RATE)),
            "per_layer": {n: {"unit": u, "better": "lower", "what": w}
                          for n, (u, w) in run.PER_LAYER.items()},
            "span_layers": {name: tracing.layer_of(name)
                            for name, _, _, _ in tracing.TARGETS},
            "wrapped": [f"{_qualified(owner)}.{attr} -> {name}"
                        for name, owner, attr, _ in tracing.TARGETS],
            "self_time": "span duration minus its direct children's "
                         "durations, summed per layer over request spans, "
                         "as a share of request time",
            "notes": NOTES,
        })
        doc.setdefault("trajectory", [])
        doc["trajectory"] = [t for t in doc["trajectory"]
                             if not (t["label"] == args.label
                                     and t["trace"] == args.trace)]
        doc["trajectory"].append({
            "label": args.label, "date": datetime.date.today().isoformat(),
            "trace": args.trace, "seconds": args.seconds, "seeds": seeds,
            "machine": machine, "steady": steady, "workloads": summary})
        TRAJECTORY.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {TRAJECTORY.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
