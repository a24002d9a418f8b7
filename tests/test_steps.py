"""Each compare program is an init, one step per probed row and a readout
(`cam.fold`). Columns never interact, so one subarray with a column for
every assignment of the rows a step reads proves the step for every word
length and every stored word."""

import itertools

import numpy as np
import pytest

from dramcam import Subarray, TimingModel, allocate_reserved_rows, cpy
from dramcam.cam import fold

T = TimingModel()
ROWS = 16
COMP, TEMPS = allocate_reserved_rows(ROWS)
X = 0  # the probed data row
READ = (X, COMP.r1, COMP.r2, COMP.r3, TEMPS.xnor, TEMPS.exact, TEMPS.tolerant)


def _hd1(v):
    return {TEMPS.exact: v[TEMPS.exact] & v[X],
            TEMPS.tolerant: (v[TEMPS.tolerant] & v[X]) | v[TEMPS.exact]}


# kind -> (rows after one step as a function of the rows before, the columns
# whose rows before meet the step's precondition)
STEPS = {
    "nand": (lambda v: {COMP.r2: v[COMP.r2] & v[X]}, lambda v: True),
    "nor": (lambda v: {COMP.r2: v[COMP.r2] | v[X]}, lambda v: True),
    # exact => tolerant holds from the init on
    "hd1": (_hd1, lambda v: v[TEMPS.exact] <= v[TEMPS.tolerant]),
}


def run_step(kind, step=None):
    """Rows before and after `cpy(stage, x)` plus the step of `kind`, one
    column per assignment of the rows the step reads."""
    _, stage, own_step, _ = fold(kind, COMP, TEMPS, T)
    columns = list(itertools.product((0, 1), repeat=len(READ)))
    sub = Subarray(ROWS, len(columns), T)
    for i, row in enumerate(READ):
        sub.write_row(row, [c[i] for c in columns])
    sub.write_row(COMP.c0, [0] * len(columns))
    sub.write_row(COMP.c1, [1] * len(columns))
    before = sub.cells.copy()
    sub.execute(cpy(stage, X, T) + (own_step if step is None else step))
    return before, sub.cells


def step_errors(kind, before, after):
    """Columns where a result row, or a row the step must keep, is wrong."""
    function, precondition = STEPS[kind]
    wrong = []
    for col in range(before.shape[1]):
        v = {row: int(before[row, col]) for row in range(ROWS)}
        w = {row: int(after[row, col]) for row in range(ROWS)}
        if any(w[row] != v[row] for row in (X, COMP.c0, COMP.c1)):
            wrong.append(col)
        elif precondition(v) and (any(w[row] != value for row, value
                                      in function(v).items())
                                  or not precondition(w)):
            wrong.append(col)
    return wrong


@pytest.mark.parametrize("kind", sorted(STEPS))
def test_step_computes_its_function_for_every_column(kind):
    before, after = run_step(kind)
    assert step_errors(kind, before, after) == []


def test_check_catches_an_hd1_step_without_its_last_copy():
    _, _, step, _ = fold("hd1", COMP, TEMPS, T)
    assert step[-4:] == cpy(TEMPS.exact, COMP.r2, T)
    before, after = run_step("hd1", step[:-4])
    assert step_errors("hd1", before, after) != []


def test_every_assignment_has_its_column():
    before, _ = run_step("nand")
    assert len({tuple(before[list(READ), c]) for c in range(before.shape[1])}) \
        == 2 ** len(READ)
    assert np.all(before[COMP.c1] == 1) and np.all(before[COMP.c0] == 0)
