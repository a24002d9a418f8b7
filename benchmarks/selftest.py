#!/usr/bin/env python3
"""Self-test of the benchmark itself; exits 0 when every check holds.

    python3 benchmarks/selftest.py

Checks that
- one flipped verdict in a recorded result makes error_rate > 0, on every
  workload;
- commands_per_query matches the programs' closed forms: 12k+6 for an exact
  k-mer compare (390 at k=32) and strata * (64k+10) for distance-1
  (2 * (64*16+10) = 2068 on kmer-hd1);
- the traced run puts every wrapped function back;
- BENCHMARK.json lists workloads of run.py, and the same metrics, with the
  same units and directions, as run.py reports.
"""

from __future__ import annotations

import json
import sys

import run


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def main() -> int:
    run.import_program()
    import tracing
    import workloads

    failures: list[str] = []
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = run.OUT_DIR / "selftest-work"
    workdir.mkdir(exist_ok=True)
    closed_form = {"kmer-exact": 12 * 32 + 6, "kmer-hd1": 2 * (64 * 16 + 10)}
    for name in run.WORKLOADS:
        wl = workloads.make(name, seed=7)
        wl.setup(workdir)
        tally = run.Tally()
        run.serve(wl, tally, 0, requests=2)
        check(tally.failed == 0, f"{name}: recorded answers match the oracle",
              failures)
        req, out = tally.last
        wrong = wl.check(req, wl.flip(out))
        check((tally.failed + wrong) / tally.attempted > 0,
              f"{name}: a flipped verdict makes error_rate > 0", failures)
        if name in closed_form:
            got = run.simulated(wl)[0]["commands_per_query"]
            check(got == closed_form[name],
                  f"{name}: commands_per_query {got:g} == {closed_form[name]}",
                  failures)

    tracer = tracing.Tracer()
    before = [vars(owner)[attr] for _, owner, attr, _ in tracing.TARGETS]
    tracer.install()
    tracer.restore()
    after = [vars(owner)[attr] for _, owner, attr, _ in tracing.TARGETS]
    check(all(a is b for a, b in zip(before, after)),
          "every wrapped function is restored", failures)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(all(w["name"] in run.WORKLOADS
              and w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"]),
          "BENCHMARK.json workloads are run.py workloads, with their why",
          failures)
    check({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
          == {n: (u, b) for n, (u, b, _, _) in run.END_TO_END.items()},
          "BENCHMARK.json end_to_end matches run.py", failures)
    check({m["name"]: m["unit"] for m in spec["per_layer"]}
          == {n: u for n, (u, _) in run.PER_LAYER.items()},
          "BENCHMARK.json per_layer matches run.py", failures)
    print("self-test", "FAILED: " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
