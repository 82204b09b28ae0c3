"""Independent output checks for the benchmark.

Nothing here imports :mod:`repro.legality`: the benchmark re-derives the
properties of a legal mixed-cell-height placement and the Eq. 2 quality
metric from the raw cell positions, so a fault in the program's own
checker or metric code cannot hide a fault in its placements.

A placement is described by a :class:`Chip` plus plain per-cell tuples,
so the checks run on a live ``Layout`` and on the JSON layout a served
session returns alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple

#: Positions are integral site/row indices; allow float round-off only.
_GRID_TOL = 1e-9
#: Recomputed AveDis must equal the program's value up to summation order.
_AVEDIS_REL_TOL = 1e-9


@dataclass(frozen=True)
class Chip:
    num_rows: int
    num_sites: int
    site_width: float
    row_height: float


class CellState(NamedTuple):
    index: int
    width: float
    height: int
    gp_x: float
    gp_y: float
    x: float
    y: float
    fixed: bool
    legalized: bool


def from_layout(layout) -> tuple:
    """``(chip, cells)`` of a live ``repro`` layout object."""
    chip = Chip(layout.num_rows, layout.num_sites, layout.site_width, layout.row_height)
    cells = [
        CellState(c.index, c.width, c.height, c.gp_x, c.gp_y, c.x, c.y, c.fixed, c.legalized)
        for c in layout.cells
    ]
    return chip, cells


def from_dict(data: Dict) -> tuple:
    """``(chip, cells)`` of a layout in the service's JSON spelling."""
    chip = Chip(
        int(data["num_rows"]),
        int(data["num_sites"]),
        float(data["site_width"]),
        float(data["row_height"]),
    )
    cells = [
        CellState(
            i, float(c["width"]), int(c["height"]), float(c["gp_x"]), float(c["gp_y"]),
            float(c["x"]), float(c["y"]), bool(c["fixed"]), bool(c["legalized"]),
        )
        for i, c in enumerate(data["cells"])
    ]
    return chip, cells


def _on_grid(value: float) -> bool:
    return math.isfinite(value) and abs(value - round(value)) <= _GRID_TOL


def is_tombstone(cell: CellState) -> bool:
    """A deleted ECO cell: a zero-width fixed marker that occupies nothing."""
    return cell.fixed and cell.width == 0.0


def movable(cells: Iterable[CellState]) -> List[CellState]:
    return [c for c in cells if not c.fixed]


def legality_faults(chip: Chip, cells: List[CellState], *, allow_unplaced=()) -> List[str]:
    """Every violated placement rule, one message each (empty when legal).

    Rules: movable cells are placed (except indices in
    ``allow_unplaced``); placed cells sit on a site and on a row, lie
    inside the chip and keep even-height cells on even (VSS-bottom) rows;
    no two occupying cells overlap in any row.
    """
    faults: List[str] = []
    allowed = set(allow_unplaced)
    rows: Dict[int, List[tuple]] = {}
    for c in cells:
        if is_tombstone(c):
            continue
        if not c.fixed:
            if not c.legalized:
                if c.index not in allowed:
                    faults.append(f"cell {c.index}: movable cell left unplaced")
                continue
            if not _on_grid(c.x):
                faults.append(f"cell {c.index}: x={c.x!r} is not on a site")
                continue
            if not _on_grid(c.y):
                faults.append(f"cell {c.index}: y={c.y!r} is not on a row")
                continue
            if c.height % 2 == 0 and int(round(c.y)) % 2 != 0:
                faults.append(
                    f"cell {c.index}: even-height cell (h={c.height}) on odd row {c.y:g}"
                )
        if (
            c.x < -_GRID_TOL
            or c.x + c.width > chip.num_sites + _GRID_TOL
            or c.y < -_GRID_TOL
            or c.y + c.height > chip.num_rows + _GRID_TOL
        ):
            faults.append(f"cell {c.index}: ({c.x:g}, {c.y:g}) w={c.width:g} h={c.height} "
                          "lies outside the chip")
            continue
        bottom = int(math.floor(c.y + _GRID_TOL))
        top = int(math.ceil(c.y + c.height - _GRID_TOL))
        for row in range(bottom, top):
            rows.setdefault(row, []).append((c.x, c.x + c.width, c.index))
    for row, spans in rows.items():
        spans.sort()
        for (_, right, left_index), (x, _, index) in zip(spans, spans[1:]):
            if right > x + _GRID_TOL:
                faults.append(f"row {row}: cells {left_index} and {index} overlap")
    return faults


def average_displacement(chip: Chip, cells: Iterable[CellState]) -> float:
    """S_am of Eq. 2: the mean over present heights of per-height mean displacement.

    Displacement is Manhattan (Eq. 1) in row heights: horizontal site
    offsets are scaled by the site width, vertical row offsets by the
    row height.
    """
    per_height: Dict[int, List[float]] = {}
    for c in movable(cells):
        disp = abs(c.x - c.gp_x) * chip.site_width + abs(c.y - c.gp_y) * chip.row_height
        per_height.setdefault(c.height, []).append(disp)
    if not per_height:
        return 0.0
    means = [math.fsum(v) / len(v) for _, v in sorted(per_height.items())]
    return math.fsum(means) / len(means)


def avedis_matches(recomputed: float, reported: float) -> bool:
    return math.isclose(recomputed, reported, rel_tol=_AVEDIS_REL_TOL, abs_tol=1e-12)
