"""The planner agrees with its measured table.

``results/BENCH_planner.json`` (``python -m repro.bench planner``)
times every plan the planner can pick over the Section 6 grid.  Given a
cell's recorded statistics and the grid host's worker count, the
planner must pick a plan within :data:`MAX_REGRET` of that cell's
fastest plan, in every cell.  A rule edited without re-measuring fails
here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.planner import (
    GRID_AGGREGATES,
    GRID_SIZES,
    LONG_LIVED_PERCENTS,
    ORDERS,
    PLANS,
    replay,
)

TABLE = Path(__file__).resolve().parents[2] / "results" / "BENCH_planner.json"

#: The picked plan's median time over the cell's fastest plan's.
MAX_REGRET = 1.25


@pytest.fixture(scope="module")
def grid():
    return json.loads(TABLE.read_text())


def test_table_records_its_host_and_the_full_grid(grid):
    assert {"cpu_count", "available_workers", "python", "git_sha"} <= set(
        grid["host"]
    )
    assert grid["sizes"] == list(GRID_SIZES)
    assert grid["plans"] == list(PLANS)
    crossed = {
        (cell["aggregate"], cell["order"], cell["long_lived_percent"], cell["tuples"])
        for cell in grid["cells"]
    }
    assert len(crossed) == len(GRID_AGGREGATES) * len(ORDERS) * len(
        LONG_LIVED_PERCENTS
    ) * len(GRID_SIZES)


def test_planner_pick_is_within_the_regret_bound_in_every_cell(grid, monkeypatch):
    workers = grid["host"]["available_workers"]
    monkeypatch.setattr("repro.core.planner.available_workers", lambda: workers)
    over = []
    for cell in grid["cells"]:
        chosen, regret = replay(cell)
        if regret is None or regret > MAX_REGRET:
            over.append(
                f"{cell['aggregate']} {cell['order']} "
                f"{cell['long_lived_percent']}% n={cell['tuples']}: "
                f"{chosen} regret {regret}"
            )
    assert not over, "\n".join(over)
