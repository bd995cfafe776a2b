"""The member-fed assembly of the default ``label_mesh`` path.

The default vectorized pipeline hands member lists (fault members plus
the cells each frontier kernel flipped) from the kernels to extraction
instead of re-scanning whole planes.  These tests pin that path:

* it equals the ``method="dense"`` and ``geometry_backend="reference"``
  oracles field by field, including the corner cases listed as
  explicit examples;
* the result counts derived from the components equal the plane sums;
* the label-plane checks in :class:`LabelGrid` stay exact on every
  memory layout, wherever the violating cell sits;
* a default call allocates no grid-sized temporary (a count of planes
  under ``tracemalloc``, not a timing).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core import LabelGrid, SafetyDefinition, label_mesh
from repro.errors import GeometryError
from repro.faults import FaultSet
from repro.faults.generators import clustered
from repro.mesh import Mesh2D, Torus2D

W = H = 11
MESH, TORUS = Mesh2D(W, H), Torus2D(W, H)
DEF_2A, DEF_2B = SafetyDefinition.DEF_2A, SafetyDefinition.DEF_2B

definitions = st.sampled_from(list(SafetyDefinition))
topologies = st.sampled_from([MESH, TORUS])


@st.composite
def fault_sets(draw, max_faults=14):
    coords = draw(
        st.lists(
            st.tuples(st.integers(0, W - 1), st.integers(0, H - 1)),
            max_size=max_faults,
            unique=True,
        )
    )
    return FaultSet.from_coords((W, H), coords)


def _faults(*coords):
    return FaultSet.from_coords((W, H), coords)


def _label(topology, faults, definition, **kwargs):
    """``label_mesh``, or ``None`` when a torus fault pattern wraps all
    the way around and has no planar unwrap frame (outside the paper's
    sparse-fault regime; every path must reject it alike)."""
    try:
        return label_mesh(topology, faults, definition, **kwargs)
    except ValueError as exc:
        assert "unwrap" in str(exc)
        return None


def assert_same_result(a, b):
    for plane in ("faulty", "unsafe", "enabled"):
        assert np.array_equal(getattr(a.labels, plane), getattr(b.labels, plane))
    assert [(x.cells, x.rect, x.faults) for x in a.blocks] == [
        (y.cells, y.rect, y.faults) for y in b.blocks
    ]
    assert [(x.cells, x.faults) for x in a.regions] == [
        (y.cells, y.faults) for y in b.regions
    ]
    assert a.rounds_phase1 == b.rounds_phase1
    assert a.rounds_phase2 == b.rounds_phase2
    assert a.unwrap_shift == b.unwrap_shift
    assert a.faults == b.faults


class TestMemberFedAssembly:
    @given(fault_sets(), topologies, definitions)
    @settings(max_examples=80, deadline=None)
    # No faults.
    @example(_faults(), MESH, DEF_2B)
    @example(_faults(), TORUS, DEF_2A)
    # A fault in a mesh corner and one on an edge.
    @example(_faults((0, 0), (W - 1, 5), (4, H - 1)), MESH, DEF_2A)
    @example(_faults((0, 0), (W - 1, 5), (4, H - 1)), MESH, DEF_2B)
    # A torus cluster that crosses both seams before unwrapping.
    @example(_faults((W - 1, 5), (0, 6), (5, H - 1), (6, 0)), TORUS, DEF_2A)
    @example(_faults((W - 1, H - 1), (0, 0), (W - 1, 1), (1, H - 1)), TORUS, DEF_2B)
    # One block holding several regions (both rules).
    @example(_faults((0, 4), (0, 6)), MESH, DEF_2A)
    @example(_faults((1, 2), (2, 0), (3, 1)), MESH, DEF_2B)
    # A block with no nonfaulty node.
    @example(_faults((5, 5), (5, 6), (6, 5), (6, 6)), MESH, DEF_2B)
    @example(_faults((3, 3)), TORUS, DEF_2A)
    def test_default_path_equals_oracles(self, faults, topology, definition):
        fast = _label(topology, faults, definition)
        dense = _label(topology, faults, definition, method="dense")
        reference = _label(topology, faults, definition, geometry_backend="reference")
        if fast is None:
            assert dense is None and reference is None
            return
        assert_same_result(fast, dense)
        assert_same_result(fast, reference)

    def test_examples_cover_their_cases(self):
        several = label_mesh(MESH, _faults((0, 4), (0, 6)), DEF_2A)
        assert len(several.blocks) == 1 and len(several.regions) == 2
        several = label_mesh(MESH, _faults((1, 2), (2, 0), (3, 1)), DEF_2B)
        assert len(several.blocks) == 1 and len(several.regions) >= 2
        full = label_mesh(MESH, _faults((5, 5), (5, 6), (6, 5), (6, 6)), DEF_2B)
        assert [b.num_nonfaulty for b in full.blocks] == [0]
        seam = label_mesh(TORUS, _faults((W - 1, 5), (0, 6)), DEF_2A)
        assert seam.unwrap_shift != (0, 0) and len(seam.blocks) == 1


class TestCountsFromComponents:
    @given(fault_sets(), topologies, definitions)
    @settings(max_examples=80, deadline=None)
    def test_counts_equal_plane_sums(self, faults, topology, definition):
        r = _label(topology, faults, definition)
        assume(r is not None)
        unsafe_nonfaulty = int(r.labels.unsafe_nonfaulty.sum())
        activated = int(r.labels.activated.sum())
        assert r.num_unsafe_nonfaulty == unsafe_nonfaulty
        assert r.num_activated == activated
        expected = 1.0 if unsafe_nonfaulty == 0 else activated / unsafe_nonfaulty
        assert r.enabled_ratio == expected
        summary = r.summary()
        assert summary["unsafe_nonfaulty"] == unsafe_nonfaulty
        assert summary["activated"] == activated
        assert summary["enabled_ratio"] == expected


#: Large enough that the chunked safe-cell pass runs over several chunks
#: (the last one partial), so the cells below land in different chunks.
BIG = (520, 521)


def _valid_planes():
    faults = FaultSet.from_coords(BIG, [(1, 1), (2, 2), (260, 300), (519, 519)])
    labels = label_mesh(Mesh2D(*BIG), faults).labels
    return labels.faulty.copy(), labels.unsafe.copy(), labels.enabled.copy()


def _c_order(planes):
    return [np.ascontiguousarray(p) for p in planes]


def _fortran_order(planes):
    return [np.asfortranarray(p) for p in planes]


def _torus_rolled(planes):
    # A rolled torus frame as a strided window of the 2x2 tiled plane:
    # view[x, y] == plane[(x + 3) % w, (y + 5) % h], no copy.
    w, h = BIG
    return [np.tile(p, (2, 2))[3 : 3 + w, 5 : 5 + h] for p in planes]


LAYOUTS = {"C": _c_order, "F": _fortran_order, "rolled": _torus_rolled}
POSITIONS = {"first": 0, "middle": BIG[0] * BIG[1] // 2, "last": BIG[0] * BIG[1] - 1}
#: (faulty, unsafe, enabled) at the violating cell, and the check that
#: must catch it (checks run in this order, so the first failing one
#: names the cell's violation).
VIOLATIONS = {
    "faulty_not_unsafe": ((True, False, True), "not unsafe"),
    "faulty_enabled": ((True, True, True), "faulty node is enabled"),
    "safe_disabled": ((False, False, False), "safe node is disabled"),
}


class TestLabelGridChecksStayExact:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_valid_planes_pass(self, layout):
        LabelGrid(*LAYOUTS[layout](_valid_planes()))

    @pytest.mark.parametrize("violation", VIOLATIONS)
    @pytest.mark.parametrize("position", POSITIONS)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_single_violating_cell_raises(self, layout, position, violation):
        planes = LAYOUTS[layout](_valid_planes())
        x, y = np.unravel_index(POSITIONS[position], BIG)
        values, message = VIOLATIONS[violation]
        for plane, value in zip(planes, values):
            plane[x, y] = value
        with pytest.raises(GeometryError, match=message):
            LabelGrid(*planes)


def _traced_planes(topology, faults):
    label_mesh(topology, faults)  # warm imports and caches
    tracemalloc.start()
    try:
        result = label_mesh(topology, faults)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.blocks
    return peak / topology.num_nodes


class TestAllocationBudget:
    """Peak traced allocation of one default call, in planes of
    ``width * height`` bytes.  The two output planes (unsafe, enabled)
    are retained, so a mesh call may allocate at most one more plane's
    worth of temporaries."""

    @staticmethod
    def _faults(shape):
        return clustered(shape, 100, np.random.default_rng(7), clusters=4, spread=2.0)

    def test_mesh_peak_at_most_three_planes(self):
        topology = Mesh2D(2000, 2000)
        assert _traced_planes(topology, self._faults(topology.shape)) <= 3.0

    def test_torus_peak_at_most_eight_planes(self):
        # The torus roll copies the three planes into the unwrap frame.
        topology = Torus2D(2000, 2000)
        assert _traced_planes(topology, self._faults(topology.shape)) <= 8.0
