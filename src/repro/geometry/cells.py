"""Cell sets: finite sets of grid cells with set semantics.

Almost everything the paper manipulates — fault sets, faulty blocks,
disabled regions, polygons — is a finite set of grid cells.
:class:`CellSet` stores a set as a boolean mask over a box of its
``(width, height)`` grid plus the box's origin, and offers the set
algebra, geometry accessors and NumPy views the rest of the library is
built on.  The public constructor keeps the whole grid it is given;
extraction builds components directly at their bounding box, so a
component costs memory and time in proportion to its box, not to the
mesh.  Stored masks are never mutated, so ``CellSet`` values can be
shared freely and used as dict keys.

:func:`member_coords` is the row-major member scan every module uses
in place of a 2-D ``np.nonzero``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.types import BoolGrid, Coord

__all__ = ["CellSet", "member_coords"]


def member_coords(mask: BoolGrid) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(xs, ys)`` of a 2-D grid's nonzero cells, in row-major order.

    Equal to ``np.nonzero(mask)`` in values, order and dtype, but an
    order of magnitude faster on sparse planes: one flat scan of the
    logical (C-order) ravel, then a divmod of the flat indices by the height
    (``np.unravel_index``, which does that divmod in one C loop).
    Fortran-order planes and transposed or rolled views scan in the
    same logical order; they only pay for the ravel copy.
    """
    return np.unravel_index(np.flatnonzero(mask), mask.shape)


def _empty_local() -> np.ndarray:
    local = np.zeros((0, 0), dtype=bool)
    local.setflags(write=False)
    return local


class CellSet:
    """An immutable set of cells on a fixed ``(width, height)`` grid.

    Internally the members live in a read-only local mask placed at an
    origin inside the grid; every cell outside that box is a non-member.
    Equality, hashing and every accessor depend only on the member
    cells and the grid shape, never on the box a set happens to store.
    """

    __slots__ = ("_shape", "_x0", "_y0", "_local", "_count", "_bbox", "_hash")

    def __init__(self, mask: BoolGrid):
        m = np.array(mask, dtype=bool, order="C", copy=True)
        if m.ndim != 2:
            raise GeometryError(f"cell mask must be 2-D, got ndim={m.ndim}")
        m.setflags(write=False)
        self._shape = (int(m.shape[0]), int(m.shape[1]))
        self._x0 = self._y0 = 0
        self._local = m
        self._count = int(np.count_nonzero(m))
        self._bbox: Tuple[int, int, int, int] | None = None
        self._hash: int | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, shape: Tuple[int, int]) -> "CellSet":
        """The empty set on a grid of the given shape."""
        return cls._from_box(shape, (0, 0), _empty_local(), 0)

    @classmethod
    def full(cls, shape: Tuple[int, int]) -> "CellSet":
        """The set of all cells of a grid of the given shape."""
        return cls(np.ones(shape, dtype=bool))

    @classmethod
    def _from_box(
        cls,
        shape: Tuple[int, int],
        origin: Tuple[int, int],
        local: np.ndarray,
        count: int | None = None,
        bbox: Tuple[int, int, int, int] | None = None,
    ) -> "CellSet":
        """Zero-copy internal constructor: takes ownership of ``local``.

        ``local`` is the member mask of the grid box whose lowest cell
        is ``origin``; the box must lie inside the grid.  No caller may
        mutate ``local`` afterwards.  ``count`` and ``bbox`` (if given)
        must equal the member count and the members' bounding box.
        """
        local.setflags(write=False)
        obj = cls.__new__(cls)
        obj._shape = (int(shape[0]), int(shape[1]))
        obj._x0, obj._y0 = int(origin[0]), int(origin[1])
        obj._local = local
        obj._count = int(np.count_nonzero(local)) if count is None else int(count)
        obj._bbox = bbox
        obj._hash = None
        return obj

    @classmethod
    def _from_members(
        cls,
        shape: Tuple[int, int],
        xs: np.ndarray,
        ys: np.ndarray,
        box: Tuple[int, int, int, int] | None = None,
        count: int | None = None,
    ) -> "CellSet":
        """Internal constructor from in-grid member coordinates.

        The set is stored at ``box`` (inclusive ``(x0, y0, x1, y1)``,
        which must hold every member) or, by default, at the members'
        own bounding box.  ``count`` (if given) must equal the number
        of distinct members.
        """
        tight = None
        if box is None:
            if not len(xs):
                return cls.empty(shape)
            box = tight = (
                int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())
            )
        x0, y0, x1, y1 = box
        local = np.zeros((x1 - x0 + 1, y1 - y0 + 1), dtype=bool)
        local[xs - x0, ys - y0] = True
        return cls._from_box(shape, (x0, y0), local, count, tight)

    @classmethod
    def from_coords(cls, shape: Tuple[int, int], coords: Iterable[Coord]) -> "CellSet":
        """A set containing exactly the given ``(x, y)`` cells.

        Raises
        ------
        GeometryError
            If any coordinate is outside the grid.
        """
        w, h = shape
        pts = list(coords)
        for x, y in pts:
            if not (0 <= x < w and 0 <= y < h):
                raise GeometryError(f"cell ({x}, {y}) outside grid {shape}")
        xy = np.array(pts, dtype=np.intp).reshape(-1, 2)
        return cls._from_members(shape, xy[:, 0], xy[:, 1])

    # -- core accessors --------------------------------------------------------

    @property
    def mask(self) -> BoolGrid:
        """A read-only ``(width, height)`` boolean grid, indexed ``[x, y]``.

        A set that stores its whole grid returns that grid; any other
        set builds a fresh grid on every access (nothing is cached), so
        hot paths should use :meth:`box_mask` or :meth:`members`.
        """
        if self._local.shape == self._shape:
            return self._local
        out = np.zeros(self._shape, dtype=bool)
        lw, lh = self._local.shape
        out[self._x0 : self._x0 + lw, self._y0 : self._y0 + lh] = self._local
        out.setflags(write=False)
        return out

    def box_mask(self) -> Tuple[int, int, np.ndarray]:
        """``(x0, y0, local)``: the read-only member mask over the tight
        bounding box, whose lowest cell is ``(x0, y0)``.

        Every cell outside the box is a non-member, so predicates that
        are invariant under translation (span contiguity, connectivity,
        corners, perimeter) can run on ``local`` alone.  The empty set
        gives ``(0, 0)`` and a ``(0, 0)`` mask.
        """
        if not self._count:
            return 0, 0, _empty_local()
        x0, y0, x1, y1 = self.bounding_box()
        lx, ly = x0 - self._x0, y0 - self._y0
        return x0, y0, self._local[lx : lx + x1 - x0 + 1, ly : ly + y1 - y0 + 1]

    def members(self) -> Tuple[np.ndarray, np.ndarray]:
        """Member coordinates ``(xs, ys)`` in row-major order — what
        ``np.nonzero(self.mask)`` returns, at the cost of the box only."""
        xs, ys = member_coords(self._local)
        return xs + self._x0, ys + self._y0

    @property
    def shape(self) -> Tuple[int, int]:
        """Grid shape ``(width, height)``."""
        return self._shape

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __contains__(self, c: object) -> bool:
        if not (isinstance(c, tuple) and len(c) == 2):
            return False
        x, y = c[0] - self._x0, c[1] - self._y0
        lw, lh = self._local.shape
        return 0 <= x < lw and 0 <= y < lh and bool(self._local[x, y])

    def __iter__(self) -> Iterator[Coord]:
        xs, ys = self.members()
        for x, y in zip(xs.tolist(), ys.tolist()):
            yield (x, y)

    def coords(self) -> List[Coord]:
        """All member cells in row-major order."""
        return list(self)

    # -- set algebra -----------------------------------------------------------

    def _check_same_grid(self, other: "CellSet") -> None:
        if self._shape != other._shape:
            raise GeometryError(
                f"cell sets live on different grids: {self._shape} vs {other._shape}"
            )

    def _stored_box(self) -> Tuple[int, int, int, int]:
        """Half-open ``(xa, ya, xb, yb)`` box of the stored local mask."""
        lw, lh = self._local.shape
        return self._x0, self._y0, self._x0 + lw, self._y0 + lh

    def _window(self, xa: int, ya: int, xb: int, yb: int) -> np.ndarray:
        """Members over the half-open box ``[xa, xb) x [ya, yb)``.

        A view when the box lies inside the stored one, else a fresh
        zero-padded copy; callers must not write to the result.
        """
        sa, sb, sc, sd = self._stored_box()
        if sa <= xa and sb <= ya and xb <= sc and yb <= sd:
            return self._local[xa - sa : xb - sa, ya - sb : yb - sb]
        out = np.zeros((max(xb - xa, 0), max(yb - ya, 0)), dtype=bool)
        ox0, oy0 = max(xa, sa), max(ya, sb)
        ox1, oy1 = min(xb, sc), min(yb, sd)
        if ox0 < ox1 and oy0 < oy1:
            out[ox0 - xa : ox1 - xa, oy0 - ya : oy1 - ya] = self._local[
                ox0 - sa : ox1 - sa, oy0 - sb : oy1 - sb
            ]
        return out

    def union(self, other: "CellSet") -> "CellSet":
        """Set union; both operands must share a grid."""
        self._check_same_grid(other)
        if not other._count:
            return self
        if not self._count:
            return other
        a, b = self._stored_box(), other._stored_box()
        box = (min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]))
        local = self._window(*box) | other._window(*box)
        return CellSet._from_box(self._shape, box[:2], local)

    def intersection(self, other: "CellSet") -> "CellSet":
        """Set intersection; both operands must share a grid."""
        self._check_same_grid(other)
        a, b = self._stored_box(), other._stored_box()
        box = (max(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), min(a[3], b[3]))
        if box[0] >= box[2] or box[1] >= box[3]:
            return CellSet.empty(self._shape)
        local = self._window(*box) & other._window(*box)
        return CellSet._from_box(self._shape, box[:2], local)

    def difference(self, other: "CellSet") -> "CellSet":
        """Set difference ``self - other``; both operands must share a grid."""
        self._check_same_grid(other)
        local = self._local & ~other._window(*self._stored_box())
        return CellSet._from_box(self._shape, (self._x0, self._y0), local)

    def issubset(self, other: "CellSet") -> bool:
        """Whether every cell of ``self`` is in ``other``."""
        self._check_same_grid(other)
        return not bool(np.any(self._local & ~other._window(*self._stored_box())))

    def isdisjoint(self, other: "CellSet") -> bool:
        """Whether the two sets share no cell."""
        return not self.intersection(other)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __le__(self, other: "CellSet") -> bool:
        return self.issubset(other)

    # -- geometry ---------------------------------------------------------------

    def bounding_box(self) -> Tuple[int, int, int, int]:
        """Inclusive bounding box ``(x_min, y_min, x_max, y_max)``.

        Raises
        ------
        GeometryError
            If the set is empty.
        """
        if not self._count:
            raise GeometryError("bounding box of an empty cell set")
        if self._bbox is None and self._count == self._local.size:
            xa, ya, xb, yb = self._stored_box()
            self._bbox = (xa, ya, xb - 1, yb - 1)
        elif self._bbox is None:
            cols = np.flatnonzero(self._local.any(axis=1))
            rows = np.flatnonzero(self._local.any(axis=0))
            self._bbox = (
                self._x0 + int(cols[0]),
                self._y0 + int(rows[0]),
                self._x0 + int(cols[-1]),
                self._y0 + int(rows[-1]),
            )
        return self._bbox

    def diameter(self) -> int:
        """Manhattan diameter: max ``d(u, v)`` over member pairs.

        For the rectilinear sets this library manipulates, the Manhattan
        diameter equals the bounding-box semi-perimeter, which is what the
        paper's round bound ``max{d(B)}`` refers to.  Empty sets have
        diameter 0.
        """
        if not self._count:
            return 0
        x0, y0, x1, y1 = self.bounding_box()
        return (x1 - x0) + (y1 - y0)

    def translated(self, dx: int, dy: int) -> "CellSet":
        """The set shifted by ``(dx, dy)``.

        Raises
        ------
        GeometryError
            If any cell would leave the grid.
        """
        if not self._count:
            return self
        w, h = self._shape
        x0, y0, x1, y1 = self.bounding_box()
        if x0 + dx < 0 or y0 + dy < 0 or x1 + dx >= w or y1 + dy >= h:
            raise GeometryError(
                f"translation by ({dx}, {dy}) leaves grid {self._shape}"
            )
        _, _, local = self.box_mask()
        return CellSet._from_box(
            self._shape, (x0 + dx, y0 + dy), local.copy(), self._count
        )

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellSet):
            return NotImplemented
        if self._shape != other._shape or self._count != other._count:
            return False
        if not self._count:
            return True
        if self.bounding_box() != other.bounding_box():
            return False
        return bool(np.array_equal(self.box_mask()[2], other.box_mask()[2]))

    def __hash__(self) -> int:
        if self._hash is None:
            box = self.bounding_box() if self._count else None
            self._hash = hash((self._shape, box, self.box_mask()[2].tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"CellSet(shape={self._shape}, count={self._count})"
