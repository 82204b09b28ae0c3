"""The benchmark's own tests: the checker rejects every fault kind, and a
toy-size run of each workload passes its checks in both modes.

Run from the root of a checkout: ``python3 -m pytest flexbench -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from workloads import SMOKE  # noqa: E402

CHIP = check.Chip(num_rows=5, num_sites=20, site_width=0.1, row_height=1.0)


def cell(index, x, y, width=2.0, height=1, *, gp=None, fixed=False, legalized=True):
    gp_x, gp_y = gp if gp is not None else (x, y)
    return check.CellState(index, width, height, gp_x, gp_y, x, y, fixed, legalized)


def legal_cells():
    return [
        cell(0, 0.0, 0.0, height=1),
        cell(1, 2.0, 0.0, height=2),  # even height on an even row
        cell(2, 4.0, 1.0, height=3),
        cell(3, 0.0, 4.0, width=20.0),
    ]


def test_legal_placement_passes():
    assert check.legality_faults(CHIP, legal_cells()) == []


@pytest.mark.parametrize(
    "fault, replacement",
    [
        ("overlap", cell(0, 1.0, 0.0)),  # runs into cell 1 on row 0
        ("not on a site", cell(0, 0.5, 0.0)),
        ("not on a row", cell(0, 0.0, 0.25)),
        ("odd row", cell(1, 2.0, 1.0, height=2)),
        ("outside the chip", cell(2, 19.0, 1.0, height=3)),
        ("unplaced", cell(0, 0.0, 0.0, legalized=False)),
    ],
)
def test_checker_rejects_each_fault(fault, replacement):
    cells = legal_cells()
    cells[replacement.index] = replacement
    faults = check.legality_faults(CHIP, cells)
    assert faults and fault in " ".join(faults)


def test_known_unplaced_cell_can_be_allowed():
    cells = legal_cells()
    cells[0] = cell(0, 0.0, 0.0, legalized=False)
    assert check.legality_faults(CHIP, cells, allow_unplaced=[0]) == []


def test_tombstones_occupy_nothing():
    cells = legal_cells() + [cell(4, 0.0, 0.0, width=0.0, fixed=True, legalized=False)]
    assert check.legality_faults(CHIP, cells) == []


def test_avedis_is_the_mean_of_per_height_means():
    cells = [
        cell(0, 0.0, 0.0, gp=(10.0, 0.0)),  # h=1: 10 sites = 1.0 row
        cell(1, 4.0, 0.0, gp=(4.0, 2.0)),  # h=1: 2 rows
        cell(2, 8.0, 0.0, height=2, gp=(8.0, 0.0)),  # h=2: 0
    ]
    # (mean(1.0, 2.0) + 0.0) / 2 heights
    assert check.average_displacement(CHIP, cells) == pytest.approx(0.75)


@pytest.mark.parametrize("workload", ["flex_dense", "flex_sparse", "eco_served"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    # The tall-cell repro is the only failing operation: one per round.
    if workload == "flex_dense":
        assert result["failed"] * (SMOKE.dense_designs + 1) == result["attempted"]
    else:
        assert result["failed"] == 0
    section = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
