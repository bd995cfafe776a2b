"""Unit tests for the theorem checkers (Section 4 claims)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import SafetyDefinition, label_mesh
from repro.core.theorems import (
    RESULT_CHECKS,
    _near_pairs,
    check_all,
    check_blocks_rectangular,
    check_corollary,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_region_separation,
    check_theorem1,
    check_theorem2,
)
from repro.faults import FaultSet, clustered, uniform_random
from repro.geometry import Rect
from repro.mesh import Mesh2D


def label(coords, shape=(10, 10), definition=SafetyDefinition.DEF_2B):
    return label_mesh(
        Mesh2D(*shape), FaultSet.from_coords(shape, coords), definition
    )


class TestCheckersOnPaperExample:
    def test_all_claims_hold(self):
        r = label([(1, 3), (2, 1), (3, 2)], shape=(6, 6))
        outcomes = check_all(r, include_quadrant_lemmas=True)
        assert all(o.holds for o in outcomes), [o for o in outcomes if not o]

    def test_outcome_truthiness(self):
        r = label([(2, 2)])
        ok = check_theorem1(r)
        assert ok and ok.holds and ok.detail == ""


class TestCheckersOnStructuredPatterns:
    def test_figure2b_block_stays_one_region(self):
        # Center-gap block: the region is the whole rectangle (closure
        # of the ring of faults fills the gap) — Theorem 2's tightest case.
        coords = [
            (x, y)
            for x in range(1, 5)
            for y in range(1, 4)
            if not (y == 3 and 2 <= x < 4)
        ]
        r = label(coords, shape=(7, 6))
        assert len(r.regions) == 1
        assert len(r.regions[0].cells) == 12
        assert check_theorem1(r).holds
        assert check_theorem2(r).holds
        assert check_lemma1(r).holds

    def test_figure2a_block_sheds_corner(self):
        # Corner-gap block: the region is an L (rectangle minus corner).
        coords = [
            (x, y)
            for x in range(1, 5)
            for y in range(1, 4)
            if not (y == 3 and 3 <= x < 5)
        ]
        r = label(coords, shape=(7, 6))
        assert len(r.regions) == 1
        assert len(r.regions[0].cells) == 10
        for chk in RESULT_CHECKS.values():
            assert chk(r).holds

    @pytest.mark.parametrize("definition", list(SafetyDefinition))
    def test_random_patterns_pass_everything(self, definition):
        rng = np.random.default_rng(31)
        for _ in range(6):
            faults = uniform_random((20, 20), 30, rng)
            r = label_mesh(Mesh2D(20, 20), faults, definition)
            for name, chk in RESULT_CHECKS.items():
                out = chk(r)
                assert out.holds, (name, out.detail)

    def test_clustered_patterns_pass_everything(self):
        rng = np.random.default_rng(32)
        for _ in range(4):
            faults = clustered((20, 20), 30, rng, clusters=2, spread=1.5)
            r = label_mesh(Mesh2D(20, 20), faults)
            outcomes = check_all(r, include_quadrant_lemmas=True)
            assert all(o.holds for o in outcomes), [o for o in outcomes if not o]


class TestCheckersDetectViolations:
    """The checkers must actually *fail* on corrupted results."""

    def _tamper(self, result, **label_overrides):
        # Rebuild a result with hand-corrupted labels, bypassing the
        # pipeline's extraction validation.
        import dataclasses

        from repro.core.regions import DisabledRegion
        from repro.geometry import CellSet

        regions = label_overrides.pop("regions")
        return dataclasses.replace(result, regions=regions)

    def test_theorem1_fails_on_concave_region(self):
        from repro.core.regions import DisabledRegion
        from repro.geometry import CellSet, shapes

        r = label([(2, 2)])
        u = shapes.u_shape((10, 10), (4, 4), 5, 4, 1)
        fake = DisabledRegion(cells=u, faults=CellSet.from_coords((10, 10), [(4, 4)]))
        tampered = self._tamper(r, regions=[fake])
        assert not check_theorem1(tampered).holds

    def test_lemma1_fails_on_nonfaulty_corner(self):
        from repro.core.regions import DisabledRegion
        from repro.geometry import CellSet, shapes

        r = label([(2, 2)])
        rect = shapes.rectangle((10, 10), (4, 4), 2, 2)
        fake = DisabledRegion(
            cells=rect, faults=CellSet.from_coords((10, 10), [(4, 4)])
        )
        tampered = self._tamper(r, regions=[fake])
        assert not check_lemma1(tampered).holds

    def test_theorem2_fails_on_inflated_region(self):
        from repro.core.regions import DisabledRegion
        from repro.geometry import CellSet, shapes

        r = label([(2, 2)])
        rect = shapes.rectangle((10, 10), (2, 2), 3, 1)
        fake = DisabledRegion(
            cells=rect, faults=CellSet.from_coords((10, 10), [(2, 2)])
        )
        tampered = self._tamper(r, regions=[fake])
        assert not check_theorem2(tampered).holds


    def test_region_separation_fails_on_adjacent_regions(self):
        from repro.core.regions import DisabledRegion
        from repro.geometry import CellSet

        r = label([(2, 2)])
        a = CellSet.from_coords((10, 10), [(2, 2)])
        b = CellSet.from_coords((10, 10), [(2, 3)])
        tampered = self._tamper(
            r, regions=[DisabledRegion(a, a), DisabledRegion(b, b)]
        )
        outcome = check_region_separation(tampered)
        assert not outcome.holds and "distance 1" in outcome.detail

    def test_region_separation_looks_past_overlapping_boxes(self):
        # B sits inside A's bounding box yet 4 steps from A's cells.
        from repro.core.regions import DisabledRegion
        from repro.geometry import CellSet

        r = label([(2, 2)])
        ell = [(0, y) for y in range(6)] + [(x, 0) for x in range(1, 6)]
        a = CellSet.from_coords((10, 10), ell)
        b = CellSet.from_coords((10, 10), [(4, 4)])
        tampered = self._tamper(
            r, regions=[DisabledRegion(a, a), DisabledRegion(b, b)]
        )
        assert check_region_separation(tampered).holds


class TestNearPairs:
    @given(st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30),
                  st.integers(0, 4), st.integers(0, 4)),
        max_size=25,
    ), st.integers(1, 3))
    def test_matches_all_pairs(self, specs, need):
        rects = [Rect(x, y, x + dx, y + dy) for x, y, dx, dy in specs]
        brute = [
            (i, j)
            for i in range(len(rects))
            for j in range(i + 1, len(rects))
            if rects[i].distance(rects[j]) < need
        ]
        assert _near_pairs(rects, need) == brute


class TestQuadrantLemmas:
    def test_lemma2_on_pipeline_regions(self):
        r = label([(2, 2), (3, 3), (2, 4), (4, 2)])
        for region in r.regions:
            assert check_lemma2(region).holds

    def test_lemma3_on_pipeline_regions(self):
        r = label([(2, 2), (3, 3), (4, 4)])
        for region in r.regions:
            assert check_lemma3(region).holds

    def test_lemma2_holds_even_on_concave_regions(self):
        # Lemma 2's proof is constructive and never uses convexity: the
        # (extreme-y, then extreme-x) node of a quadrant is always a
        # corner.  So the lemma holds for arbitrary regions — including
        # a U — and the checker must agree.
        from repro.core.regions import DisabledRegion
        from repro.geometry import CellSet, shapes

        u = shapes.u_shape((10, 10), (1, 1), 5, 4, 1)
        fake = DisabledRegion(
            cells=u, faults=CellSet.from_coords((10, 10), [(1, 1)])
        )
        assert check_lemma2(fake).holds


class TestCorollary:
    def test_corollary_on_sparse_block(self):
        r = label([(1, 3), (2, 1), (3, 2)], shape=(6, 6))
        assert check_corollary(r).holds

    @pytest.mark.parametrize("seed", range(3))
    def test_corollary_on_random(self, seed):
        rng = np.random.default_rng(seed + 50)
        faults = clustered((16, 16), 18, rng, clusters=2, spread=1.2)
        r = label_mesh(Mesh2D(16, 16), faults)
        assert check_corollary(r).holds

    def test_corollary_fails_when_regions_keep_extra_nodes(self):
        # Faults (2,2) and (3,3) form one 2x2 block whose single OCP is
        # the diagonal pair; keeping (2,3) disabled breaks the bound.
        import dataclasses

        from repro.core.status import LabelGrid

        r = label([(2, 2), (3, 3)])
        assert check_corollary(r).holds
        enabled = r.labels.enabled.copy()
        enabled[2, 3] = False
        labels = LabelGrid(r.labels.faulty, r.labels.unsafe, enabled)
        tampered = dataclasses.replace(r, labels=labels)
        outcome = check_corollary(tampered)
        assert not outcome.holds and "keep 1 nonfaulty" in outcome.detail
