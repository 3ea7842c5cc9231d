"""Both dynamics engines, pinned cell by cell.

Every (graph, cost model, schedule, responder, engine) cell of
``make_dynamics_pins.GRID`` is run and compared with its record in
``dynamics_pins.json``: ``converged``, ``cycle_detected``, ``steps``,
``activations``, the applied moves, both traces and the final edge set.
This is the only check that pins the oracle's ``activations`` on the
round-robin and random schedules and every ``first``-responder trajectory;
``test_oracles.py`` compares the engines with each other, not with a
fixed record.  The grid keeps n ≤ 10 so the whole file stays near 30 s.

A change that moves a cell on purpose regenerates the fixture with
``make_dynamics_pins.py`` and names the moved cells in CHANGES.md.
"""

import pytest

from .make_dynamics_pins import GRID, cell_key, load_pins, run_cell

PINS = load_pins()


def test_fixture_covers_exactly_the_grid():
    assert sorted(PINS) == sorted(cell_key(cell) for cell in GRID)


@pytest.mark.parametrize("cell", GRID, ids=cell_key)
def test_run_matches_its_pin(cell):
    assert run_cell(cell) == PINS[cell_key(cell)]
