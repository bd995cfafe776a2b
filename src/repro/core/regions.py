"""Disabled regions: the orthogonal convex polygons of phase 2.

A *disabled region* (DR) consists of adjacent disabled nodes — faulty
nodes plus the nonfaulty nodes phase 2 could not activate.  Adjacency is
**king-move (8-connectivity)**: the paper's worked example groups the
diagonally touching faults ``(2,1)`` and ``(3,2)`` into one region,
because as closed unit squares they share a corner point and form one
pinched polygon.

Theorem 1 guarantees every DR is an orthogonal convex polygon and
Theorem 2 that it is the smallest one covering its faults.  Those are
*checked*, not assumed, by :mod:`repro.core.theorems`; this module only
extracts the regions and computes their bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.cells import CellSet, member_coords
from repro.geometry.components import (
    _check_backend,
    _label_coords,
    _split_members,
    connected_components,
)
from repro.types import BoolGrid

__all__ = ["DisabledRegion", "extract_regions"]


@dataclass(frozen=True)
class DisabledRegion:
    """One disabled region (orthogonal convex polygon of disabled nodes)."""

    cells: CellSet
    faults: CellSet

    @property
    def num_faults(self) -> int:
        """Number of faulty nodes covered by the region."""
        return len(self.faults)

    @property
    def num_nonfaulty(self) -> int:
        """Number of nonfaulty nodes still kept disabled — the quantity
        Theorem 2 proves is minimal for an orthoconvex cover."""
        return len(self.cells) - len(self.faults)

    @property
    def diameter(self) -> int:
        """Manhattan diameter of the region."""
        return self.cells.diameter()


def extract_regions(
    disabled: BoolGrid, faulty: BoolGrid, backend: str = "vectorized"
) -> List[DisabledRegion]:
    """Decompose a disabled mask into disabled regions.

    Parameters
    ----------
    disabled:
        Phase-2 ``unsafe & ~enabled`` mask (must contain every fault).
    faulty:
        Ground-truth fault mask.
    backend:
        ``"vectorized"`` (default) — one union-find label pass plus
        ``bincount`` group splits — or the ``"reference"`` per-component
        oracle; identical output either way.

    Returns
    -------
    Regions ordered by their smallest row-major cell.

    Raises
    ------
    GeometryError
        If a fault is not disabled, or a region contains no fault at
        all (phase 2 can never strand a fault-free region: its nodes
        would have been enabled; hitting this means corrupt labels).
    """
    _check_backend(backend)
    if disabled.shape != faulty.shape:
        raise GeometryError(
            f"label shapes disagree: disabled {disabled.shape} vs faulty {faulty.shape}"
        )
    if backend == "reference":
        if np.any(faulty & ~disabled):
            raise GeometryError(
                "a faulty node is missing from the disabled mask"
            )
        regions: List[DisabledRegion] = []
        for comp in connected_components(
            CellSet(disabled), connectivity=8, backend="reference"
        ):
            faults_in = CellSet(comp.mask & faulty)
            if not faults_in:
                raise GeometryError(
                    f"disabled region {comp!r} contains no fault — "
                    "phase-2 labels corrupt"
                )
            regions.append(DisabledRegion(cells=comp, faults=faults_in))
        return regions

    return _regions_from_members(
        disabled.shape, *member_coords(disabled), *member_coords(faulty)
    )


def _regions_from_members(
    shape: Tuple[int, int],
    xs: np.ndarray,
    ys: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
) -> List[DisabledRegion]:
    """The vectorized core of :func:`extract_regions`, on member lists.

    ``(xs, ys)`` are the disabled cells and ``(fx, fy)`` the faults,
    each in row-major order (what :func:`member_coords` returns), so
    every step costs time in proportion to the members, never the grid.
    Same output and the same :class:`GeometryError` checks as the
    public function.
    """
    # Fault containment and fault->region mapping in one binary search.
    lin = xs * shape[1] + ys
    flin = fx * shape[1] + fy
    fpos = np.minimum(np.searchsorted(lin, flin), max(lin.size - 1, 0))
    if flin.size and (lin.size == 0 or not np.array_equal(lin[fpos], flin)):
        raise GeometryError("a faulty node is missing from the disabled mask")
    comp_of, count = _label_coords(xs, ys, shape, connectivity=8)
    if count == 0:
        return []
    fcomp = comp_of[fpos]
    fcounts = np.bincount(fcomp, minlength=count)
    empty = np.flatnonzero(fcounts == 0)
    if empty.size:
        members = comp_of == empty[0]
        culprit = CellSet._from_members(shape, xs[members], ys[members])
        raise GeometryError(
            f"disabled region {culprit!r} contains no fault — "
            "phase-2 labels corrupt"
        )
    forder = np.argsort(fcomp, kind="stable")
    fx, fy = fx[forder], fy[forder]
    fbounds = np.concatenate(([0], np.cumsum(fcounts)))
    regions = []
    for k, cells in enumerate(_split_members(shape, xs, ys, comp_of, count)):
        fmembers = slice(fbounds[k], fbounds[k + 1])
        faults = CellSet._from_members(
            shape, fx[fmembers], fy[fmembers], cells.bounding_box(), int(fcounts[k])
        )
        regions.append(DisabledRegion(cells=cells, faults=faults))
    return regions
