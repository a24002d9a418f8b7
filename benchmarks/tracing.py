"""Span tracing for the benchmark's traced run.

The benchmark wraps public functions of the simulator's modules from the
outside (no span code lives in the program). Each wrapped call records a
span: name, start, end, parent span, request id and phase. Spans stay in
memory until the run ends. `Tracer.restore` puts every original back.

A span's layer is the part of its name before the first dot; self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from dramcam import cam, core, genomics, metrics


def _shard_bytes(tracer: "Tracer", args, result) -> None:
    tracer.count("genomics.shards", len(result))
    if result:
        tracer.memory(result[0].subarray)


def _stored_into(tracer: "Tracer", args, result) -> None:
    tracer.memory(args[0])


def _commands(key: str, trace_index: int = 0):
    def hook(tracer: "Tracer", args, result) -> None:
        tracer.count(key, len(args[trace_index]))
    return hook


def _one(key: str):
    def hook(tracer: "Tracer", args, result) -> None:
        tracer.count(key, 1)
    return hook


# (span name, owner, attribute, counter hook). The span name's first part is
# the layer; a function imported into a second module is wrapped there too,
# under the same name, because callers in that module bind it directly.
TARGETS = [
    ("genomics.ingest_text", genomics, "ingest_text", None),
    ("genomics.save_kmer_db", genomics, "save_kmer_db", None),
    ("genomics.load_kmer_db", genomics, "load_kmer_db", None),
    ("genomics.classify_batch", genomics, "classify_batch", None),
    ("genomics.classify", genomics, "classify", None),
    ("genomics.compile_kmer_compare", genomics, "compile_kmer_compare", None),
    ("genomics.KmerDatabase.build_shards", genomics.KmerDatabase,
     "build_shards", _shard_bytes),
    ("cam.run_compare", genomics, "run_compare", None),
    ("cam.run_compare", cam, "run_compare", None),
    ("cam.compile_nand_compare", cam, "compile_nand_compare", None),
    ("cam.compile_nor_compare", cam, "compile_nor_compare", None),
    ("cam.compile_hd1_compare", cam, "compile_hd1_compare", None),
    ("cam.encode_word", cam, "encode_word", None),
    ("cam.store", cam, "store", _stored_into),
    ("cam.save_word_db", cam, "save_word_db", None),
    ("cam.load_word_db", cam, "load_word_db", None),
    ("core.Subarray.execute", core.Subarray, "execute",
     _commands("core.commands", 1)),
    ("core.Subarray.write_row", core.Subarray, "write_row",
     _one("core.write_rows")),
    ("metrics.account", metrics, "account", _commands("metrics.commands")),
    ("microops.cpy", cam, "cpy", None),
    ("microops.and3", cam, "and3", None),
    ("microops.or3", cam, "or3", None),
]

LAYERS = ("genomics", "cam", "core", "metrics", "microops")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; `request` and `phase` tag new spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request, phase]
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.cells_bytes = 0
        self.refresh_stamp_bytes = 0
        self.request = -1
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int) -> None:
        self.counts[(self.phase, key)] += n

    def memory(self, sub) -> None:
        """Bytes of one subarray's cell grid and refresh-stamp arrays."""
        self.cells_bytes = getattr(getattr(sub, "cells", None), "nbytes", 0)
        tracker = getattr(sub, "tracker", None)
        self.refresh_stamp_bytes = sum(
            getattr(v, "nbytes", 0) for v in vars(tracker).values()
        ) if tracker is not None else 0

    def install(self) -> None:
        for name, owner, attr, hook in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else -1, self.request, self.phase]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, index-aligned with `spans`."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]

    def durations(self, name: str, phase: str | None = None) -> list[float]:
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and (phase is None or s[5] == phase)]

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t_base = self.spans[0][1] if self.spans else 0.0
        rows = [[index[s[0]], round((s[1] - t_base) * 1e9),
                 round((s[2] - t_base) * 1e9), s[3], s[4], s[5]]
                for s in self.spans]
        path.write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "request", "phase"],
            "names": names, "spans": rows}, separators=(",", ":")))
