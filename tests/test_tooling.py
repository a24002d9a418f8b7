"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

import dramcam


def test_package_has_no_assert_statements():
    """`python -O` strips asserts, so no invariant may rest on one."""
    package = Path(dramcam.__file__).parent
    asserts = [f"{path.name}:{node.lineno}"
               for path in sorted(package.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Assert)]
    assert asserts == []


def _tracing_targets():
    """(span name, owner expression, attribute) of each entry of TARGETS in
    benchmarks/tracing.py, read from its source."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS":
            return [(entry.elts[0].value, ast.unparse(entry.elts[1]),
                     entry.elts[2].value) for entry in node.value.elts]
    raise LookupError("no TARGETS in benchmarks/tracing.py")


def test_benchmark_tracing_targets_resolve():
    """The traced benchmark run and its self-test wrap these names through
    `vars(owner)[attr]`; a refactor that moves one breaks them."""
    targets = _tracing_targets()
    assert len(targets) > 20
    for name, owner_expr, attr in targets:
        module, *path = owner_expr.split(".")
        owner = importlib.import_module(f"dramcam.{module}")
        for part in path:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), (name, owner_expr, attr)


def test_build_shards_returns_subarrays_for_the_tracing_hook():
    db = dramcam.ingest_text(">a\nACGTACGTTT\n", 4)
    shards = db.build_shards()
    assert shards and all(isinstance(s.subarray, dramcam.Subarray)
                          for s in shards)


def _program_reads(tree):
    """Lines that read a `program` attribute, directly or via getattr."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "program"
                and isinstance(node.ctx, ast.Load)):
            yield node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value == "program"):
            yield node.lineno


def test_only_core_and_trace_read_a_compiled_program():
    """Whether a trace runs on its template's lowering is decided in
    `core.lower` (and `trace_cycles` reads the duration); every other
    module treats a compiled trace as a plain list."""
    package = Path(dramcam.__file__).parent
    readers = {path.name for path in package.rglob("*.py")
               if any(_program_reads(ast.parse(path.read_text())))}
    assert readers <= {"core.py", "trace.py"}
    assert "core.py" in readers
