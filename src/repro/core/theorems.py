"""Mechanical checkers for the paper's analytic claims.

Every theorem, lemma and corollary of Section 4 — plus the separation
properties quoted in Section 3 — has a checker here that takes a
:class:`~repro.core.pipeline.LabelingResult` (or a single region) and
returns a :class:`CheckOutcome` with a verdict and, on failure, the
witness that violates the claim.  The property-based test suite runs
them over thousands of random fault patterns; the checkers are also
exported so downstream users can audit their own runs.

Checked claims:

* **Rectangularity** — faulty blocks are disjoint full rectangles.
* **Separation** — block-block distance >= 3 (Def 2a) / >= 2 (Def 2b);
  region-region distance >= 2.
* **Theorem 1** — every disabled region is an orthogonal convex polygon.
* **Lemma 1** — every corner node of a disabled region is faulty.
* **Lemma 2** — for every node of a region, all four closed quadrants
  around it contain a corner node of the region.
* **Lemma 3** — for every node outside an orthoconvex region, some
  quadrant contains no region node.
* **Theorem 2** — each region equals the orthoconvex closure of the
  faults it covers (hence is the smallest orthoconvex polygon covering
  them).
* **Corollary** — nonfaulty nodes covered by the regions of one block
  do not exceed those of the smallest single orthoconvex polygon
  containing all the block's faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.pipeline import LabelingResult
from repro.core.regions import DisabledRegion
from repro.core.status import SafetyDefinition
from repro.geometry.boundary import corner_cells
from repro.geometry.components import set_distance
from repro.geometry.orthoconvex import is_orthoconvex, orthoconvex_closure
from repro.geometry.quadrants import quadrant_extreme_corner, quadrants_with_members
from repro.geometry.rectangles import Rect, bounding_rect, is_rectangle
from repro.geometry.staircase import connect_orthoconvex
from repro.mesh.coords import Quadrant

__all__ = [
    "CheckOutcome",
    "check_blocks_rectangular",
    "check_block_separation",
    "check_region_separation",
    "check_theorem1",
    "check_lemma1",
    "check_lemma2",
    "check_lemma3",
    "check_theorem2",
    "check_corollary",
    "check_all",
]


@dataclass(frozen=True)
class CheckOutcome:
    """Verdict of one claim checker."""

    claim: str
    holds: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds


def _ok(claim: str) -> CheckOutcome:
    return CheckOutcome(claim, True)


def _fail(claim: str, detail: str) -> CheckOutcome:
    return CheckOutcome(claim, False, detail)


def check_blocks_rectangular(result: LabelingResult) -> CheckOutcome:
    """Faulty blocks are full rectangles (Section 3)."""
    claim = "faulty blocks are rectangles"
    for b in result.blocks:
        if not is_rectangle(b.cells):
            return _fail(claim, f"block at {b.rect} is not a full rectangle")
    return _ok(claim)


def _near_pairs(rects: List[Rect], need: int) -> List[Tuple[int, int]]:
    """Index pairs ``(i, j)``, ``i < j``, of rectangles closer than
    ``need``, in lexicographic order.

    A sweep over the rectangles sorted by ``x0``: only those starting
    within ``need`` columns of a rectangle's right edge can be that
    close, so clustered layouts cost about linear time, not quadratic.
    """
    if len(rects) < 2:
        return []
    box = np.array([(r.x0, r.y0, r.x1, r.y1) for r in rects], dtype=np.int64)
    order = np.argsort(box[:, 0], kind="stable")
    sx0 = box[order, 0]
    ends = np.searchsorted(sx0, box[order, 2] + need, side="left")
    pairs: List[Tuple[int, int]] = []
    for k in range(len(rects)):
        cand = order[k + 1 : ends[k]]
        if not cand.size:
            continue
        i = int(order[k])
        lo = np.maximum(box[i, :2], box[cand, :2])
        hi = np.minimum(box[i, 2:], box[cand, 2:])
        gap = np.maximum(0, lo - hi).sum(axis=1)
        pairs.extend((min(i, j), max(i, j)) for j in cand[gap < need].tolist())
    return sorted(pairs)


def check_block_separation(result: LabelingResult) -> CheckOutcome:
    """Distance between faulty blocks >= 3 (Def 2a) / >= 2 (Def 2b)."""
    need = result.definition.min_block_separation
    claim = f"block separation >= {need}"
    blocks = result.blocks
    near = _near_pairs([b.rect for b in blocks], need)
    if near:
        a, b = blocks[near[0][0]].rect, blocks[near[0][1]].rect
        return _fail(claim, f"blocks {a} and {b} at distance {a.distance(b)}")
    return _ok(claim)


def check_region_separation(result: LabelingResult) -> CheckOutcome:
    """Distance between disabled regions >= 2 (Section 3).

    Two sets are at least as far apart as their bounding boxes, so only
    regions whose boxes are closer than 2 need the member-wise distance.
    """
    claim = "region separation >= 2"
    regions = result.regions
    boxes = [bounding_rect(r.cells) for r in regions]
    for i, j in _near_pairs(boxes, 2):
        d = set_distance(regions[i].cells, regions[j].cells)
        if d < 2:
            return _fail(claim, f"regions {i} and {j} at distance {d}")
    return _ok(claim)


def check_theorem1(result: LabelingResult) -> CheckOutcome:
    """Theorem 1: every disabled region is an orthogonal convex polygon."""
    claim = "theorem 1 (regions are orthogonal convex polygons)"
    for k, r in enumerate(result.regions):
        if not is_orthoconvex(r.cells, require_connected=True):
            return _fail(claim, f"region {k} ({r.cells!r}) is not orthoconvex")
    return _ok(claim)


def check_lemma1(result: LabelingResult) -> CheckOutcome:
    """Lemma 1: every corner node of a disabled region is faulty."""
    claim = "lemma 1 (corner nodes are faulty)"
    for k, r in enumerate(result.regions):
        corners = corner_cells(r.cells)
        if not corners.issubset(r.faults):
            bad = corners.difference(r.faults).coords()[:3]
            return _fail(claim, f"region {k} has nonfaulty corners at {bad}")
    return _ok(claim)


def check_lemma2(region: DisabledRegion) -> CheckOutcome:
    """Lemma 2: all four closed quadrants around every region node contain a
    corner node of the region (and the constructive extreme is a corner)."""
    claim = "lemma 2 (every quadrant holds a corner node)"
    corners = corner_cells(region.cells)
    for u in region.cells:
        for q in Quadrant:
            w = quadrant_extreme_corner(region.cells, u, q)
            if w is None:
                return _fail(claim, f"quadrant {q} around {u} holds no region node")
            if w not in corners:
                return _fail(
                    claim, f"extreme {w} of quadrant {q} around {u} is not a corner"
                )
    return _ok(claim)


def check_lemma3(region: DisabledRegion, samples: int = 64) -> CheckOutcome:
    """Lemma 3: for nodes outside the (orthoconvex) region, some quadrant is
    empty of region nodes.  Checks every outside node of the region's
    bounding box neighbourhood, capped at ``samples`` per region."""
    claim = "lemma 3 (outside nodes have an empty quadrant)"
    cells = region.cells
    w, h = cells.shape
    x0, y0, x1, y1 = cells.bounding_box()
    checked = 0
    for x in range(max(0, x0 - 1), min(w, x1 + 2)):
        for y in range(max(0, y0 - 1), min(h, y1 + 2)):
            if (x, y) in cells:
                continue
            occupancy = quadrants_with_members(cells, (x, y))
            if all(occupancy.values()):
                return _fail(claim, f"outside node ({x},{y}) sees all 4 quadrants")
            checked += 1
            if checked >= samples:
                return _ok(claim)
    return _ok(claim)


def check_theorem2(result: LabelingResult) -> CheckOutcome:
    """Theorem 2: each region is the smallest orthoconvex polygon covering
    its faults — mechanically, the region equals the orthoconvex closure
    of its fault set."""
    claim = "theorem 2 (region == orthoconvex closure of its faults)"
    for k, r in enumerate(result.regions):
        closure = orthoconvex_closure(r.faults)
        if closure != r.cells:
            extra = r.cells.difference(closure)
            missing = closure.difference(r.cells)
            return _fail(
                claim,
                f"region {k}: closure mismatch "
                f"(+{len(extra)} region-only, -{len(missing)} closure-only cells)",
            )
    return _ok(claim)


def check_corollary(result: LabelingResult) -> CheckOutcome:
    """Corollary: per faulty block, nonfaulty nodes covered by its regions
    <= nonfaulty nodes in the smallest orthoconvex polygon containing all
    the block's faults (computed as closure + minimal staircase joins)."""
    claim = "corollary (regions cover <= smallest single-OCP nonfaulty nodes)"
    faulty = result.labels.faulty
    disabled = result.labels.disabled
    for b in result.blocks:
        if not b.faults:
            continue
        r = b.rect
        box = np.s_[r.x0 : r.x1 + 1, r.y0 : r.y1 + 1]
        in_regions = int(np.count_nonzero(disabled[box] & ~faulty[box]))
        if not in_regions:
            continue  # no nonfaulty node kept disabled: the bound holds
        x0, y0, ocp = connect_orthoconvex(b.faults).box_mask()
        ocp_faulty = faulty[x0 : x0 + ocp.shape[0], y0 : y0 + ocp.shape[1]]
        in_ocp = int(np.count_nonzero(ocp & ~ocp_faulty))
        if in_regions > in_ocp:
            return _fail(
                claim,
                f"block {b.rect}: regions keep {in_regions} nonfaulty disabled, "
                f"single OCP would keep {in_ocp}",
            )
    return _ok(claim)


#: The whole-result checkers run by :func:`check_all`, keyed by claim id.
RESULT_CHECKS: Dict[str, Callable[[LabelingResult], CheckOutcome]] = {
    "rectangular": check_blocks_rectangular,
    "block_separation": check_block_separation,
    "region_separation": check_region_separation,
    "theorem1": check_theorem1,
    "lemma1": check_lemma1,
    "theorem2": check_theorem2,
    "corollary": check_corollary,
}


def check_all(
    result: LabelingResult, include_quadrant_lemmas: bool = False
) -> List[CheckOutcome]:
    """Run every checker; optionally also the per-region quadrant lemmas
    (quadratic in region size, so off by default for large sweeps)."""
    outcomes = [chk(result) for chk in RESULT_CHECKS.values()]
    if include_quadrant_lemmas:
        for r in result.regions:
            outcomes.append(check_lemma2(r))
            outcomes.append(check_lemma3(r))
    return outcomes
