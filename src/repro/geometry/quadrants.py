"""Quadrant decomposition around a node (Lemmas 2 and 3).

Lemma 2 of the paper divides the plane around a node ``u`` into four
closed quadrants (each including its half-axes and the origin) and shows
every quadrant of a disabled-region node contains a corner node of the
region.  Lemma 3 shows that for a node *outside* an orthoconvex region,
some quadrant contains no region node at all.  These are the geometric
steps behind Theorem 2's minimality proof; this module provides the
primitives and :mod:`repro.core.theorems` runs the checks.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.geometry.cells import CellSet
from repro.mesh.coords import Quadrant
from repro.types import BoolGrid, Coord

__all__ = [
    "quadrant_mask",
    "quadrant_extreme_corner",
    "quadrants_with_members",
]


def quadrant_mask(shape: Tuple[int, int], origin: Coord, quadrant: Quadrant) -> BoolGrid:
    """Boolean mask of the closed quadrant around ``origin``.

    The quadrant includes both bounding half-axes and the origin itself,
    matching Lemma 2's overlapping-quadrant convention.
    """
    w, h = shape
    xs = np.arange(w)[:, None]
    ys = np.arange(h)[None, :]
    sx, sy = quadrant.value
    return ((xs - origin[0]) * sx >= 0) & ((ys - origin[1]) * sy >= 0)


def quadrant_extreme_corner(
    cells: CellSet, origin: Coord, quadrant: Quadrant
) -> Coord | None:
    """The Lemma-2 witness corner of a quadrant, or None if the quadrant
    holds no region cell.

    Follows the constructive proof: among region cells in the quadrant,
    take those with the extreme ``y`` (farthest from the origin in the
    quadrant's ``y`` sign), then the one with the extreme ``x``.  For a
    node of the region as origin, this cell is guaranteed to be a corner
    node of the region.
    """
    xs, ys = _in_quadrant(*cells.members(), origin, quadrant)
    if not xs.size:
        return None
    sx, sy = quadrant.value
    # Extreme y first (max signed y), then extreme x among those.
    signed_y = ys * sy
    keep = signed_y == signed_y.max()
    xs, ys = xs[keep], ys[keep]
    signed_x = xs * sx
    i = int(np.argmax(signed_x))
    return (int(xs[i]), int(ys[i]))


def quadrants_with_members(cells: CellSet, origin: Coord) -> Dict[Quadrant, bool]:
    """Which closed quadrants around ``origin`` contain at least one cell.

    Lemma 3: if ``origin`` is outside an orthoconvex region, at least one
    quadrant must come back False.
    """
    xs, ys = cells.members()
    return {q: bool(_in_quadrant(xs, ys, origin, q)[0].size) for q in Quadrant}


def _in_quadrant(
    xs: np.ndarray, ys: np.ndarray, origin: Coord, quadrant: Quadrant
) -> Tuple[np.ndarray, np.ndarray]:
    """The cells of a member scan inside the closed quadrant, in scan
    order — :func:`quadrant_mask` applied to members, so the cost is the
    set's size, not the grid's."""
    sx, sy = quadrant.value
    sel = ((xs - origin[0]) * sx >= 0) & ((ys - origin[1]) * sy >= 0)
    return xs[sel], ys[sel]
