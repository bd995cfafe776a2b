"""Guillotine-cut heuristic for the open partition problem.

Recursively splits the fault set along the widest fault-free axis gap:
if some band of ``min_separation - 1`` or more consecutive columns (or
rows) inside the fault bounding box contains no fault, the faults on
either side can be covered by separate polygons whose bounding boxes —
and hence the polygons themselves — stay at least ``min_separation``
apart.  Leaves are covered by their minimal connected orthoconvex
polygon.

Guillotine cuts are the natural dual of the paper's Figure 1 (c)/(d)
remark that some disabled regions "can be further partitioned": a
region with an internal fault-free band is exactly such a case.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import PartitionError
from repro.geometry.cells import CellSet
from repro.geometry.staircase import connect_orthoconvex
from repro.partition.evaluate import FaultCover

__all__ = ["guillotine_cover"]


def _best_gap(mask: np.ndarray, axis: int, need: int) -> tuple[int, int] | None:
    """Widest internal run of fault-free lines along ``axis``.

    Returns ``(start, length)`` of the run (in occupied-bounding-box
    coordinates) or None if no run of length >= ``need`` exists.
    """
    occupied = mask.any(axis=1 - axis)
    idx = np.flatnonzero(occupied)
    lo, hi = int(idx[0]), int(idx[-1])
    best: tuple[int, int] | None = None
    run_start = None
    for pos in range(lo + 1, hi + 1):
        if not occupied[pos]:
            if run_start is None:
                run_start = pos
        else:
            if run_start is not None:
                length = pos - run_start
                if length >= need and (best is None or length > best[1]):
                    best = (run_start, length)
                run_start = None
    return best


def _split(cells: CellSet, min_separation: int) -> List[CellSet]:
    """Recursive guillotine decomposition of a fault set."""
    need = max(1, min_separation - 1)
    mask = cells.mask
    for axis in (0, 1):
        gap = _best_gap(mask, axis, need)
        if gap is None:
            continue
        start, length = gap
        low = mask.copy()
        high = mask.copy()
        if axis == 0:
            low[start:, :] = False
            high[: start + length, :] = False
        else:
            low[:, start:] = False
            high[:, : start + length] = False
        return _split(CellSet(low), min_separation) + _split(
            CellSet(high), min_separation
        )
    return [cells]


def guillotine_cover(faults: CellSet, min_separation: int = 2) -> FaultCover:
    """Cover a fault set via recursive fault-free-band splitting.

    Raises
    ------
    PartitionError
        If ``faults`` is empty.
    """
    if not faults:
        raise PartitionError("no faults to cover")
    parts = _split(faults, min_separation)
    polygons = [connect_orthoconvex(p) for p in parts]
    return FaultCover.build(faults, polygons)
