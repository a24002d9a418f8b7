import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dramcam import (AddressFault, ComputeRows, LayoutFault, NoOpFault,
                     StalePresetWarning, Subarray, TimingModel,
                     allocate_reserved_rows, and3, check_row_constraints, cpy,
                     majority_row_set, or3)
from dramcam.core import MicroOp, detect_micro_op
from dramcam.microops import reserved_base

T = TimingModel()


def loaded(rows=16, cols=8):
    sub = Subarray(rows, cols, T)
    comp, temps = allocate_reserved_rows(rows)
    return sub, comp, temps


# -- reserved-row allocation -----------------------------------------------------


def test_allocation_satisfies_constraints():
    for n in (8, 16, 64, 128, 160):
        comp, temps = allocate_reserved_rows(n)
        assert check_row_constraints(comp) is None
        rows = set(comp.all_rows()) | {temps.xnor, temps.exact, temps.tolerant}
        assert len(rows) == 8
        assert max(rows) < n


def test_reserved_base_is_lowest_reserved_row():
    for n in (8, 10, 16, 64, 128, 130, 160):
        comp, temps = allocate_reserved_rows(n)
        rows = comp.all_rows() + (temps.xnor, temps.exact, temps.tolerant)
        assert reserved_base(n) == min(rows)
    with pytest.raises(LayoutFault):
        reserved_base(4)


def test_allocation_rejects_tiny_subarray():
    with pytest.raises(LayoutFault):
        allocate_reserved_rows(4)


@pytest.mark.parametrize("rows,why", [
    (ComputeRows(r1=1, r2=1, r3=0, c0=4, c1=5), "distinct"),
    (ComputeRows(r1=1, r2=2, r3=4, c0=8, c1=9), "low-order"),       # r3 low bits 00 but wrong block
    (ComputeRows(r1=5, r2=2, r3=0, c0=8, c1=9), "high-order"),      # different blocks
    (ComputeRows(r1=2, r2=1, r3=0, c0=4, c1=5), "low-order"),       # r1/r2 swapped
])
def test_bad_compute_rows_described(rows, why):
    assert check_row_constraints(rows) is not None


def test_good_compute_rows_ok():
    assert check_row_constraints(ComputeRows(r1=9, r2=10, r3=8, c0=12, c1=13)) is None


# -- the implied third row --------------------------------------------------------


def test_majority_row_set_completes_triple():
    assert majority_row_set(9, 10) == (8, 9, 10)
    assert majority_row_set(10, 8) == (8, 9, 10)
    assert majority_row_set(8, 9) == (8, 9, 10)


@pytest.mark.parametrize("a,b", [(3, 3), (1, 5), (3, 1), (0, 11)])
def test_majority_row_set_rejects_bad_pairs(a, b):
    with pytest.raises(AddressFault):
        majority_row_set(a, b)


# -- row copy ----------------------------------------------------------------------


def test_cpy_rejects_self_copy():
    with pytest.raises(NoOpFault):
        cpy(3, 3, T)


def test_fragments_are_fresh_lists():
    """Callers extend what they get back; that must not reach later calls."""
    comp, _ = allocate_reserved_rows(16)
    for build in (lambda: cpy(2, 5, T), lambda: and3(comp, T),
                  lambda: or3(comp, T)):
        first = build()
        first += first
        assert len(build()) == 4 and build() is not build()


def test_cpy_from_constant_row_gives_all_ones():
    sub, comp, _ = loaded()
    sub.write_row(comp.c1, np.ones(8, dtype=np.uint8))
    sub.execute(cpy(comp.r2, comp.c1, T))
    assert sub.cells[comp.r2].all()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_cpy_copies_and_preserves_source(seed):
    rng = np.random.default_rng(seed)
    sub = Subarray(16, 8, T)
    data = rng.integers(0, 2, size=8, dtype=np.uint8)
    src, dst = rng.choice(16, size=2, replace=False)
    sub.write_row(src, data)
    sub.execute(cpy(int(dst), int(src), T))
    assert (sub.cells[dst] == data).all()
    assert (sub.cells[src] == data).all()


def test_cpy_chain_is_faithful():
    sub, comp, temps = loaded()
    original = np.array([1, 0, 0, 1, 1, 1, 0, 1], dtype=np.uint8)
    sub.write_row(0, original)
    sub.execute(cpy(temps.xnor, 0, T))
    sub.execute(cpy(4, temps.xnor, T))
    assert (sub.cells[4] == original).all()


# -- majority semantics -------------------------------------------------------------


def test_majority_all_eight_combinations():
    """Each per-column bit combination lands on the majority in all rows."""
    sub, comp, _ = loaded()
    combos = list(itertools.product((0, 1), repeat=3))
    col = lambda i: np.array([c[i] for c in combos], dtype=np.uint8)
    sub.write_row(comp.r1, col(0))
    sub.write_row(comp.r2, col(1))
    sub.write_row(comp.r3, col(2))
    sub.execute(and3(comp, T))
    expect = np.array([1 if sum(c) >= 2 else 0 for c in combos], dtype=np.uint8)
    for r in comp.triple():
        assert (sub.cells[r] == expect).all()


@pytest.mark.parametrize("preset,op", [(0, "and"), (1, "or")])
def test_majority_with_preset_is_and_or(preset, op):
    sub, comp, _ = loaded()
    pairs = list(itertools.product((0, 1), repeat=2))
    xs = np.array([p[0] for p in pairs] * 2, dtype=np.uint8)
    ys = np.array([p[1] for p in pairs] * 2, dtype=np.uint8)
    sub.write_row(comp.r1, np.full(8, preset, dtype=np.uint8))
    sub.write_row(comp.r2, xs)
    sub.write_row(comp.r3, ys)
    frag = and3(comp, T) if preset == 0 else or3(comp, T)
    sub.execute(frag)
    expect = (xs & ys) if op == "and" else (xs | ys)
    assert (sub.cells[comp.r2] == expect).all()


def test_majority_requires_constrained_rows():
    bad = ComputeRows(r1=1, r2=6, r3=0, c0=8, c1=9)
    with pytest.raises(AddressFault):
        and3(bad, T)


def test_back_to_back_majority_warns_stale_preset():
    sub, comp, _ = loaded()
    for r in comp.triple():
        sub.write_row(r, np.zeros(8, dtype=np.uint8))
    sub.execute(and3(comp, T))
    with pytest.warns(StalePresetWarning):
        sub.execute(and3(comp, T))


def test_majority_after_recopy_does_not_warn(recwarn):
    sub, comp, _ = loaded()
    for r in comp.all_rows():
        sub.write_row(r, np.zeros(8, dtype=np.uint8))
    sub.execute(and3(comp, T))
    sub.execute(cpy(comp.r1, comp.c0, T))
    sub.execute(and3(comp, T))
    assert not [w for w in recwarn if issubclass(w.category, StalePresetWarning)]


# -- emitted fragments classify cleanly ----------------------------------------------


def test_fragments_classify_unambiguously():
    comp, _ = allocate_reserved_rows(16)
    for frag, expected in [
        (cpy(2, 5, T), MicroOp.ROW_COPY),
        (and3(comp, T), MicroOp.MULTI_ACTIVATE),
        (or3(comp, T), MicroOp.MULTI_ACTIVATE),
    ]:
        # every trailing window inside the fragment must classify without fault
        kinds = []
        for i in range(len(frag)):
            kinds.append(detect_micro_op(frag[max(0, i - 2):i + 1], T).kind)
        assert kinds[-1] is expected
        assert all(k is MicroOp.NONE for k in kinds[:-1])
