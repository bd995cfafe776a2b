"""Rectilinear boundary tracing of cell regions.

Regions are unions of closed unit squares: cell ``(x, y)`` occupies the
square ``[x, x+1] x [y, y+1]`` of the plane.  This module extracts the
region's boundary as closed rectilinear loops of lattice vertices —
used for SVG export, for the corner analysis of Definition 4, and by the
OCP boundary router which walks a polygon's rim.

Orientation convention: loops are traced with the region's **interior on
the left**, so outer boundaries run counterclockwise.  At *pinch*
vertices (two cells touching only at a corner, which the paper's region
semantics allows inside one disabled region) four boundary edges meet;
the tracer resolves the ambiguity by always taking the **rightmost
turn**, which merges the pinched lobes into a single loop — matching the
interpretation of a corner-touching pair as one polygon.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.cells import CellSet, member_coords
from repro.types import Coord

__all__ = ["boundary_loops", "perimeter", "corner_cells"]

# Headings as unit vectors; order encodes "rightness": for an incoming
# heading h, candidate outgoing headings ranked right-turn first.
_RIGHT_OF = {
    (1, 0): ((0, -1), (1, 0), (0, 1)),   # east  -> south, east, north
    (-1, 0): ((0, 1), (-1, 0), (0, -1)),  # west  -> north, west, south
    (0, 1): ((1, 0), (0, 1), (-1, 0)),   # north -> east, north, west
    (0, -1): ((-1, 0), (0, -1), (1, 0)),  # south -> west, south, east
}


def _directed_edges(cells: CellSet) -> Dict[Coord, List[Coord]]:
    """All boundary edges as ``start_vertex -> [end_vertex, ...]``.

    Each edge is directed so the owning cell (the interior) lies on its
    left.  Cell ``(x, y)`` contributes its south/east/north/west side
    whenever the neighbour across that side is absent.  Runs on the
    set's bounding box: a neighbour beyond the box is absent.
    """
    x0, y0, mask = cells.box_mask()
    w, h = mask.shape
    edges: Dict[Coord, List[Coord]] = {}

    def add(a: Coord, b: Coord) -> None:
        edges.setdefault(a, []).append(b)

    xs, ys = member_coords(mask)
    for lx, ly in zip(xs.tolist(), ys.tolist()):
        south = ly > 0 and mask[lx, ly - 1]
        north = ly < h - 1 and mask[lx, ly + 1]
        west = lx > 0 and mask[lx - 1, ly]
        east = lx < w - 1 and mask[lx + 1, ly]
        x, y = lx + x0, ly + y0
        if not south:
            add((x, y), (x + 1, y))          # east-bound, cell above on left
        if not east:
            add((x + 1, y), (x + 1, y + 1))  # north-bound, cell west on left
        if not north:
            add((x + 1, y + 1), (x, y + 1))  # west-bound, cell below on left
        if not west:
            add((x, y + 1), (x, y))          # south-bound, cell east on left
    return edges


def boundary_loops(cells: CellSet) -> List[List[Coord]]:
    """Trace the boundary of a region into closed vertex loops.

    Returns a list of loops; each loop is a list of lattice vertices
    ``(x, y)`` with the closing edge back to the first vertex implied.
    An orthoconvex region yields exactly one loop (holes are impossible);
    general regions yield one loop per boundary curve.

    Raises
    ------
    GeometryError
        If ``cells`` is empty.
    """
    if not cells:
        raise GeometryError("cannot trace the boundary of an empty region")
    edges = _directed_edges(cells)
    used: set[Tuple[Coord, Coord]] = set()
    loops: List[List[Coord]] = []

    # Deterministic start order: iterate start vertices sorted.
    for start in sorted(edges):
        for first_end in edges[start]:
            if (start, first_end) in used:
                continue
            loop = [start]
            prev, cur = start, first_end
            used.add((start, first_end))
            while cur != start:
                loop.append(cur)
                heading = (cur[0] - prev[0], cur[1] - prev[1])
                nxt = None
                candidates = edges.get(cur, ())
                if len(candidates) == 1:
                    nxt = candidates[0]
                else:
                    # Pinch vertex: rightmost available turn.
                    for want in _RIGHT_OF[heading]:
                        target = (cur[0] + want[0], cur[1] + want[1])
                        if target in candidates and (cur, target) not in used:
                            nxt = target
                            break
                if nxt is None or (cur, nxt) in used:
                    raise GeometryError("boundary tracing reached a dead end")
                used.add((cur, nxt))
                prev, cur = cur, nxt
            loops.append(_merge_collinear(loop))
    return loops


def _merge_collinear(loop: List[Coord]) -> List[Coord]:
    """Drop interior vertices of straight boundary runs (keep true corners)."""
    n = len(loop)
    out: List[Coord] = []
    for i, v in enumerate(loop):
        a = loop[i - 1]
        b = loop[(i + 1) % n]
        # v is a corner unless a, v, b are collinear along one axis.
        if not ((a[0] == v[0] == b[0]) or (a[1] == v[1] == b[1])):
            out.append(v)
    return out


def perimeter(cells: CellSet) -> int:
    """Total boundary length (number of unit boundary edges).

    Counted as occupancy transitions along each axis of the bounding
    box padded with one empty cell per side — a box-wide reduction, no
    per-cell edge walk.
    """
    if not cells:
        return 0
    mask = _padded(cells.box_mask()[2])
    vertical = int(np.count_nonzero(mask[1:, :] != mask[:-1, :]))
    horizontal = int(np.count_nonzero(mask[:, 1:] != mask[:, :-1]))
    return vertical + horizontal


def corner_cells(cells: CellSet) -> CellSet:
    """Corner nodes of a region per Definition 4 of the paper.

    A corner node has, along *each* dimension, at least one neighbour
    outside the region.  Grid-boundary sides count as outside: the node
    beyond the edge is a ghost node, which is never part of a fault
    region.  Lemma 1 states every corner node of a disabled region is
    faulty; :mod:`repro.core.theorems` checks that via this function.
    Computed on the bounding box padded with one empty cell per side,
    which stands for both the rest of the grid and the ghost nodes.
    """
    if not cells:
        return cells
    x0, y0, mask = cells.box_mask()
    p = _padded(mask)
    out_x = ~p[2:, 1:-1] | ~p[:-2, 1:-1]  # some X-neighbour outside
    out_y = ~p[1:-1, 2:] | ~p[1:-1, :-2]
    return CellSet._from_box(cells.shape, (x0, y0), mask & out_x & out_y)


def _padded(mask: np.ndarray) -> np.ndarray:
    """``mask`` framed by one empty cell on every side."""
    out = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    out[1:-1, 1:-1] = mask
    return out
