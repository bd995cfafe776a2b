"""Vectorized vs reference geometry backends must agree bit-for-bit.

The ``"vectorized"`` backend (union-find labeling, searchsorted fault
mapping, run-length contiguity) is the default; the ``"reference"``
backend keeps the original per-cell BFS / per-component code as an
oracle.  These properties pin the fast path to the oracle: component
decomposition (both connectivities), connectedness, block and region
extraction through the full pipeline on mesh and torus under both
safety definitions and both fault generators, and the orthoconvexity
predicates.

The vectorized path scans members with flat row-major scans and stores
each component at its bounding box, so these properties also feed it
Fortran-order planes, transposed views and torus-rolled planes, and pin
the box-local storage to the full-grid one: equal sets compare and hash
equal whatever box they are stored at, the set algebra matches the
mask algebra, and ``.mask`` is always a read-only full-grid copy of
exactly the member cells.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import extract_blocks
from repro.core.pipeline import label_mesh
from repro.core.regions import extract_regions
from repro.core.status import SafetyDefinition
from repro.errors import GeometryError
from repro.faults import FaultSet
from repro.faults.generators import clustered, uniform_random
from repro.geometry import (
    CellSet,
    connected_components,
    is_connected,
    is_orthoconvex,
    label_components,
    member_coords,
    row_runs,
    column_runs,
)
from repro.mesh import Mesh2D, Torus2D

GRID = (10, 10)


@st.composite
def cell_sets(draw, min_cells=0, max_cells=18):
    n = draw(st.integers(min_cells, max_cells))
    coords = draw(
        st.lists(
            st.tuples(st.integers(0, GRID[0] - 1), st.integers(0, GRID[1] - 1)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return CellSet.from_coords(GRID, coords)


class TestComponentBackendAgreement:
    @given(cell_sets(), st.sampled_from([4, 8]))
    def test_connected_components_match(self, s, conn):
        fast = connected_components(s, connectivity=conn, backend="vectorized")
        slow = connected_components(s, connectivity=conn, backend="reference")
        assert fast == slow  # same components, same order

    @given(cell_sets(), st.sampled_from([4, 8]))
    def test_is_connected_matches(self, s, conn):
        assert is_connected(s, conn, backend="vectorized") == is_connected(
            s, conn, backend="reference"
        )

    @given(cell_sets(), st.sampled_from([4, 8]))
    def test_label_grid_matches_reference_order(self, s, conn):
        # label_components numbers components by smallest row-major
        # member — exactly the order the BFS oracle discovers them in.
        labels, count = label_components(s.mask, connectivity=conn)
        oracle = connected_components(s, connectivity=conn, backend="reference")
        assert count == len(oracle)
        expected = np.full(GRID, -1, dtype=np.int32)
        for k, comp in enumerate(oracle):
            expected[comp.mask] = k
        assert np.array_equal(labels, expected)

    @given(cell_sets())
    def test_partition_invariants(self, s):
        comps = connected_components(s, connectivity=4)
        union = np.zeros(GRID, dtype=bool)
        total = 0
        for c in comps:
            assert not np.any(union & c.mask)  # disjoint
            union |= c.mask
            total += len(c)
        assert np.array_equal(union, s.mask)
        assert total == len(s)


def _make_faults(topo, generator, count, seed):
    rng = np.random.default_rng(seed)
    if generator == "uniform":
        return uniform_random(topo.shape, count, rng)
    return clustered(topo.shape, count, rng, clusters=2)


@pytest.mark.parametrize("topo_cls", [Mesh2D, Torus2D])
@pytest.mark.parametrize(
    "definition", [SafetyDefinition.DEF_2A, SafetyDefinition.DEF_2B]
)
@pytest.mark.parametrize("generator", ["uniform", "clustered"])
class TestPipelineBackendAgreement:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), count=st.integers(0, 20))
    def test_label_mesh_cross_backend(self, topo_cls, definition, generator,
                                      seed, count):
        topo = topo_cls(12, 12)
        faults = _make_faults(topo, generator, count, seed)
        try:
            fast = label_mesh(topo, faults, definition=definition)
        except ValueError:
            # Dense torus workloads can make the unsafe set wrap every
            # column/row, which the unwrap step rejects before geometry
            # runs.  The backends must agree on that rejection too.
            with pytest.raises(ValueError):
                label_mesh(
                    topo, faults, definition=definition,
                    geometry_backend="reference",
                )
            return
        slow = label_mesh(
            topo, faults, definition=definition, geometry_backend="reference"
        )
        assert np.array_equal(fast.labels.unsafe, slow.labels.unsafe)
        assert np.array_equal(fast.labels.enabled, slow.labels.enabled)
        assert np.array_equal(fast.labels.disabled, slow.labels.disabled)
        assert fast.blocks == slow.blocks
        assert fast.regions == slow.regions


class TestOrthoconvexityBackendAgreement:
    @given(cell_sets())
    def test_is_orthoconvex_matches(self, s):
        assert is_orthoconvex(s, backend="vectorized") == is_orthoconvex(
            s, backend="reference"
        )

    @given(cell_sets())
    def test_row_runs_match_per_line_oracle(self, s):
        self._check_runs(s, row_runs, line_axis=1)

    @given(cell_sets())
    def test_column_runs_match_per_line_oracle(self, s):
        self._check_runs(s, column_runs, line_axis=0)

    @staticmethod
    def _check_runs(s, runs_fn, line_axis):
        # Naive oracle: walk each grid line with plain Python.
        mask = s.mask if line_axis == 1 else s.mask.T
        expected = []
        contiguous = True
        for line in range(mask.shape[1]):
            members = [i for i in range(mask.shape[0]) if mask[i, line]]
            if not members:
                continue
            lo, hi = members[0], members[-1]
            if len(members) != hi - lo + 1:
                contiguous = False
                break
            expected.append((line, lo, hi))
        if contiguous:
            assert runs_fn(s) == expected
        else:
            with pytest.raises(GeometryError):
                runs_fn(s)


# -- memory layouts and box-local storage -------------------------------------


def _layouts(mask, shift):
    """A plane in the memory layouts the flat scans must handle: C and
    Fortran order, a strided view, the transposed view (the mirrored
    plane, as a non-contiguous view) and a torus roll (the pipeline's
    unwrap frame)."""
    dx, dy = shift
    return {
        "c": np.ascontiguousarray(mask),
        "fortran": np.asfortranarray(mask),
        "strided_view": np.repeat(np.repeat(mask, 2, axis=0), 2, axis=1)[::2, ::2],
        "transposed_view": mask.T,
        "torus_rolled": np.roll(np.roll(mask, dx, axis=0), dy, axis=1),
    }


@st.composite
def planes(draw):
    w = draw(st.integers(1, 12))
    h = draw(st.integers(1, 12))
    bits = draw(st.lists(st.booleans(), min_size=w * h, max_size=w * h))
    return np.array(bits, dtype=bool).reshape(w, h)


def _assert_mask_contract(cells):
    mask = cells.mask
    assert mask.shape == cells.shape
    assert mask.dtype == bool
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 0] = not mask[0, 0]
    assert int(mask.sum()) == len(cells)
    xs, ys = np.nonzero(mask)
    assert list(zip(xs.tolist(), ys.tolist())) == cells.coords()


def _assert_same_as_full_grid(cells):
    full = CellSet(np.array(cells.mask))
    assert cells == full and full == cells
    assert hash(cells) == hash(full)
    _assert_mask_contract(cells)


class TestMemoryLayouts:
    @given(planes(), st.tuples(st.integers(0, 11), st.integers(0, 11)))
    def test_member_scan_matches_nonzero(self, mask, shift):
        for name, plane in _layouts(mask, shift).items():
            xs, ys = member_coords(plane)
            ex, ey = np.nonzero(plane)
            assert np.array_equal(xs, ex) and np.array_equal(ys, ey), name
            assert xs.dtype == ex.dtype and ys.dtype == ey.dtype, name

    @given(planes(), st.tuples(st.integers(0, 11), st.integers(0, 11)),
           st.sampled_from([4, 8]))
    def test_components_of_any_layout(self, mask, shift, conn):
        for name, plane in _layouts(mask, shift).items():
            oracle = connected_components(
                CellSet(np.ascontiguousarray(plane)), conn, backend="reference"
            )
            fast = connected_components(CellSet(plane), conn)
            assert fast == oracle, name
            labels, count = label_components(plane, connectivity=conn)
            assert count == len(oracle), name
            for k, comp in enumerate(oracle):
                assert np.array_equal(labels == k, comp.mask), name

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), count=st.integers(0, 20),
           shift=st.tuples(st.integers(0, 13), st.integers(0, 13)),
           torus=st.booleans())
    def test_extraction_of_any_layout(self, seed, count, shift, torus):
        topo = (Torus2D if torus else Mesh2D)(14, 14)
        faults = _make_faults(topo, "clustered", count, seed)
        try:
            labels = label_mesh(topo, faults).labels
        except ValueError:
            return  # the unsafe set wraps the torus; no planar frame
        cases = {"faulty": labels.faulty, "unsafe": labels.unsafe,
                 "disabled": labels.disabled}
        layouts = {k: _layouts(v, shift) for k, v in cases.items()}
        for name in layouts["faulty"]:
            faulty = layouts["faulty"][name]
            c_faulty = np.ascontiguousarray(faulty)
            for extract, plane in ((extract_blocks, "unsafe"),
                                   (extract_regions, "disabled")):
                grid = layouts[plane][name]
                try:
                    oracle = extract(np.ascontiguousarray(grid), c_faulty,
                                     backend="reference")
                except GeometryError:
                    # Rolling a mesh labeling can join or cut components
                    # at the seam; both backends must then refuse it.
                    with pytest.raises(GeometryError):
                        extract(grid, faulty)
                    continue
                assert extract(grid, faulty) == oracle, (name, plane)


class TestBoxLocalStorage:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), count=st.integers(1, 20))
    def test_extracted_parts_equal_full_grid_sets(self, seed, count):
        topo = Mesh2D(12, 12)
        result = label_mesh(topo, _make_faults(topo, "uniform", count, seed))
        for part in list(result.blocks) + list(result.regions):
            _assert_same_as_full_grid(part.cells)
            _assert_same_as_full_grid(part.faults)

    @given(cell_sets(), st.sampled_from([4, 8]))
    def test_components_equal_full_grid_sets(self, s, conn):
        for comp in connected_components(s, connectivity=conn):
            _assert_same_as_full_grid(comp)

    @given(cell_sets(), cell_sets())
    def test_algebra_matches_mask_algebra(self, a, b):
        # ``a`` is stored at its bounding box, ``fb`` at the whole grid.
        fb = CellSet(b.mask)
        for x, y in ((a, fb), (fb, a), (a, b)):
            assert (x | y) == CellSet(x.mask | y.mask)
            assert (x & y) == CellSet(x.mask & y.mask)
            assert (x - y) == CellSet(x.mask & ~y.mask)
            assert x.issubset(y) == bool(np.all(~x.mask | y.mask))
            assert x.isdisjoint(y) == (not np.any(x.mask & y.mask))
            for result in (x | y, x & y, x - y):
                _assert_mask_contract(result)

    @given(cell_sets(min_cells=1), st.integers(-3, 3), st.integers(-3, 3))
    def test_translation_matches_mask_shift(self, s, dx, dy):
        xs, ys = np.nonzero(s.mask)
        fits = (
            xs.min() + dx >= 0 and ys.min() + dy >= 0
            and xs.max() + dx < GRID[0] and ys.max() + dy < GRID[1]
        )
        if not fits:
            with pytest.raises(GeometryError):
                s.translated(dx, dy)
            return
        expected = np.zeros(GRID, dtype=bool)
        expected[xs + dx, ys + dy] = True
        moved = s.translated(dx, dy)
        assert moved == CellSet(expected)
        _assert_mask_contract(moved)
