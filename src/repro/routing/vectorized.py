"""Array-form routing step kernels for the batched traffic engine.

:mod:`repro.routing.fring` routes one packet at a time with Python
recursion; a million-packet traffic campaign cannot afford a Python
call per packet per cycle.  This module re-expresses the hop decision
as *vectorized step kernels*: given parallel numpy columns of packet
positions, destinations and detour state, one :meth:`TrafficKernel.decide`
call produces next-hop proposals for the whole in-flight batch.

Two kernels are provided:

* :class:`XYKernel` — strict dimension-order routing (the array form of
  :class:`~repro.routing.xy.XYRouter`): X first, then Y, drop on the
  first disabled hop.
* :class:`DetourKernel` — the rectangle f-ring detour (the array form
  of :class:`~repro.routing.fring.FRingRouter`): FRing's slide/run
  state machine becomes integer columns ``(on, axis, face, run, rect)``
  and ``_plan``/``_detour_step`` become ``np.where`` selections over
  packet batches.  Obstacles are taken as *bounding rectangles* of the
  view's fault regions, so the kernel works on both the faulty-block
  view and the refined region view (region rims lie outside every
  bounding rectangle, hence on enabled cells).

Determinism contract
--------------------
Every kernel also implements ``decide_one`` — the same decision as pure
scalar Python over one packet.  Both paths share the exact branch order
and tie-breaks (preferred X hop before Y hop; the *low* face wins a
distance tie; first-match rectangle lookup), and both replace FRing's
unbounded recursion by the same bounded replan loop, so the batched
engine and the scalar reference engine in
:mod:`repro.network.batched` agree bit-for-bit.

A decision is a *lane-wise pure function*: row *i* of every output
depends only on row *i* of the inputs, so the engine may pass any
subset of its lanes, in any order.  State changes take effect *on
movement only*: ``decide`` never writes ``state``; it returns a sparse
change-set of detour columns that a packet's decisions may see only
after it has moved.  A stalled packet's inputs are therefore
unchanged, and the engine reuses the decision it cached instead of
recomputing it: only newly admitted packets and the last cycle's
movers are decided.  Since a packet is decided again only after it
moves, the engine writes each change-set back as soon as it gets it.
Rows whose state did not transition are absent from the change-set, so
the commit cost scales with detour activity, not with the in-flight
batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.geometry.rectangles import bounding_rect
from repro.routing.base import FaultModelView

__all__ = [
    "DetourKernel",
    "DetourState",
    "KERNELS",
    "TrafficKernel",
    "XYKernel",
    "make_kernel",
]

_BIG = np.int64(1 << 40)

# Scalar detour state tuple layout: (on, axis, face, run, rect_id).
_IDLE = (False, 0, 0, 0, -1)

#: The sparse state update ``decide`` hands back: subset row indices
#: plus the new (on, axis, face, run, rect) values for those rows.
ChangeSet = Tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray
]


def _step(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``+1`` where ``b > a``, else ``-1``, as int8 (so ``a + step``
    keeps ``a``'s integer width)."""
    return ((b > a).view(np.int8) << 1) - 1


@dataclass
class DetourState:
    """Detour columns for *all* packets of a run (length ``n``)."""

    on: np.ndarray  # bool — detour active?
    axis: np.ndarray  # int8 — blocked travel dimension (0 = x, 1 = y)
    face: np.ndarray  # int32 — cross coordinate of the rim being used
    run: np.ndarray  # int32 — run target along ``axis``
    rect: np.ndarray  # int32 — id of the rectangle being rounded (-1 idle)

    @classmethod
    def idle(cls, n: int) -> "DetourState":
        return cls(
            on=np.zeros(n, dtype=bool),
            axis=np.zeros(n, dtype=np.int8),
            face=np.zeros(n, dtype=np.int32),
            run=np.zeros(n, dtype=np.int32),
            rect=np.full(n, -1, dtype=np.int32),
        )

    def select(self, idx: np.ndarray) -> "DetourState":
        """Lanes reordered/filtered by an index array."""
        return DetourState(
            on=self.on.take(idx),
            axis=self.axis.take(idx),
            face=self.face.take(idx),
            run=self.run.take(idx),
            rect=self.rect.take(idx),
        )

    def put(self, rows: np.ndarray, values) -> None:
        """Write ``(on, axis, face, run, rect)`` values into ``rows``
        (the tail of a :data:`ChangeSet`)."""
        for col, value in zip(
            (self.on, self.axis, self.face, self.run, self.rect), values
        ):
            col[rows] = value

    def append_idle(self, k: int) -> "DetourState":
        """These lanes plus ``k`` fresh idle lanes."""
        tail = DetourState.idle(k)
        return DetourState(
            on=np.concatenate((self.on, tail.on)),
            axis=np.concatenate((self.axis, tail.axis)),
            face=np.concatenate((self.face, tail.face)),
            run=np.concatenate((self.run, tail.run)),
            rect=np.concatenate((self.rect, tail.rect)),
        )


class TrafficKernel:
    """Shared precomputation: enabled grid, rectangle ids, intersections."""

    name = "kernel"
    stateful = False

    def __init__(self, view: FaultModelView):
        self.view = view
        self.width, self.height = view.topology.shape
        self.enabled = np.ascontiguousarray(view.enabled, dtype=bool)
        rects = [bounding_rect(obs) for obs in view.obstacles if len(obs)]
        self.num_rects = len(rects)
        self._x0 = np.array([r.x0 for r in rects], dtype=np.int32)
        self._x1 = np.array([r.x1 for r in rects], dtype=np.int32)
        self._y0 = np.array([r.y0 for r in rects], dtype=np.int32)
        self._y1 = np.array([r.y1 for r in rects], dtype=np.int32)
        # First-match rectangle id per cell (mirrors FRing._rect_containing):
        # paint in reverse order so earlier obstacles win overlaps.
        self.rect_grid = np.full((self.width, self.height), -1, dtype=np.int32)
        for i in range(self.num_rects - 1, -1, -1):
            self.rect_grid[
                self._x0[i] : self._x1[i] + 1, self._y0[i] : self._y1[i] + 1
            ] = i
        # Flat copies for the hot path: ``take(ix * h + iy, mode="clip")``
        # never faults on the masked-out rows that sit at the mesh edge
        # (their flat index is clamped; the gathered value is unused).
        self._en_flat = self.enabled.ravel()
        self._rg_flat = np.ascontiguousarray(self.rect_grid).ravel()
        if self.num_rects:
            no_x = (self._x1[:, None] < self._x0[None, :]) | (
                self._x1[None, :] < self._x0[:, None]
            )
            no_y = (self._y1[:, None] < self._y0[None, :]) | (
                self._y1[None, :] < self._y0[:, None]
            )
            self.isect = ~(no_x | no_y)
        else:
            self.isect = np.zeros((0, 0), dtype=bool)
        # Bounded replacement for FRing's recursion: one iteration per
        # replan (greedy -> plan, nested plan, detour-complete -> greedy);
        # a chain can visit each rectangle at most once per decision.
        self.max_replans = self.num_rects + 4

    # -- state management ----------------------------------------------------

    def new_state(self, n: int) -> Optional[DetourState]:
        """Per-run detour columns; ``None`` for stateless kernels."""
        return None

    def initial_state_one(self):
        """Scalar twin of :meth:`new_state` (one packet's tuple)."""
        return None

    # -- decision API --------------------------------------------------------

    def decide(
        self,
        px: np.ndarray,
        py: np.ndarray,
        dx: np.ndarray,
        dy: np.ndarray,
        state: Optional[DetourState],
    ):
        """Vector decision for one batch of in-flight lanes.

        ``px/py/dx/dy`` and the ``state`` lanes are parallel columns of
        equal length; ``state`` is read-only here.  Returns
        ``(nx, ny, blocked, changes)``: proposed next cells (valid
        where ``~blocked``), lanes that must drop with ``BLOCKED``, and
        the sparse :data:`ChangeSet` of detour-state transitions to
        commit for lanes that move (``None`` when no state changed).
        Lanes already at their destination come out ``blocked``.

        Row *i* of every output depends only on row *i* of the inputs,
        so a caller may pass any subset of its lanes (the engine passes
        just the lanes whose inputs changed) and gets the rows it would
        have got from the whole batch.
        """
        raise NotImplementedError

    def decide_one(self, x: int, y: int, dx: int, dy: int, st):
        """Scalar twin of :meth:`decide` for one packet.

        Returns ``((nx, ny) | None, new_state)``; ``None`` means the
        packet drops with ``BLOCKED``.
        """
        raise NotImplementedError


class XYKernel(TrafficKernel):
    """Dimension-order step: X toward dest, then Y; block on disabled."""

    name = "xy"
    stateful = False

    def decide(self, px, py, dx, dy, state):
        need_x = px != dx
        step_x = _step(px, dx)
        step_y = _step(py, dy)
        nx = np.where(need_x, px + step_x, px)
        ny = np.where(need_x, py, py + step_y)
        ok = self._en_flat.take(nx * self.height + ny, mode="clip")
        # A lane already at its destination "proposes" staying put; the
        # self-link it claims is unique, so it never contends, and the
        # engine retires or ignores it.
        at_dest = ~need_x & (py == dy)
        return nx, ny, ~ok | at_dest, None

    def decide_one(self, x, y, dx, dy, st):
        if x != dx:
            nxt = (x + (1 if dx > x else -1), y)
        else:
            nxt = (x, y + (1 if dy > y else -1))
        if self.enabled[nxt]:
            return nxt, None
        return None, None


class DetourKernel(TrafficKernel):
    """Rectangle f-ring detour step over packet batches."""

    name = "detour"
    stateful = True

    def new_state(self, n: int) -> DetourState:
        return DetourState.idle(n)

    def initial_state_one(self):
        return _IDLE

    # -- vector path ---------------------------------------------------------

    def _plan_vec(self, ax, ay, bx, by, hx, hy, rid):
        """Vectorized ``FRing._plan``: returns ``(ok, axis, face, run)``.

        ``hx/hy`` is the blocked hop cell, ``rid`` the rectangle that
        contains it (all ``>= 0``).
        """
        x0, x1 = self._x0[rid], self._x1[rid]
        y0, y1 = self._y0[rid], self._y1[rid]
        axis = np.where(hy == ay, 0, 1).astype(np.int8)
        # axis == 0: run along x, faces are rows above/below the rect.
        run0 = np.where(
            (x0 <= bx) & (bx <= x1), bx, np.where(bx > ax, x1 + 1, x0 - 1)
        )
        run1 = np.where(
            (y0 <= by) & (by <= y1), by, np.where(by > ay, y1 + 1, y0 - 1)
        )
        run = np.where(axis == 0, run0, run1).astype(np.int32)
        run_limit = np.where(axis == 0, self.width, self.height)
        ok_run = (run >= 0) & (run < run_limit)
        face_lo = np.where(axis == 0, y0 - 1, x0 - 1)
        face_hi = np.where(axis == 0, y1 + 1, x1 + 1)
        face_limit = np.where(axis == 0, self.height, self.width)
        dest_cross = np.where(axis == 0, by, bx)
        ok_lo = (face_lo >= 0) & (face_lo < face_limit)
        ok_hi = (face_hi >= 0) & (face_hi < face_limit)
        d_lo = np.where(ok_lo, np.abs(dest_cross - face_lo), _BIG)
        d_hi = np.where(ok_hi, np.abs(dest_cross - face_hi), _BIG)
        # Tie -> low face, matching ``min(faces, key=...)`` list order.
        face = np.where(d_lo <= d_hi, face_lo, face_hi).astype(np.int32)
        ok = ok_run & (ok_lo | ok_hi)
        return ok, axis, face, run

    def decide(self, px, py, dx, dy, state: DetourState):
        hgt = self.height

        # Fast path, full width and gather-free: the preferred greedy
        # hop for every packet at once (garbage on detour rows, masked
        # out below).  This settles the vast majority of the batch; the
        # index-based replan loop below only sees the leftovers, so its
        # per-pass fancy indexing runs over small subsets.
        step_x = _step(px, dx)
        step_y = _step(py, dy)
        hx0 = px + step_x
        hy0 = py + step_y
        ix0 = hx0 * hgt + py  # flat index of the preferred X hop
        iy0 = px * hgt + hy0
        need_x0 = px != dx
        need_y0 = py != dy
        en_x0 = need_x0 & self._en_flat.take(ix0, mode="clip")
        en_y0 = need_y0 & self._en_flat.take(iy0, mode="clip")
        off = ~state.on
        take_x0 = en_x0 & off
        take_y0 = en_y0 & ~en_x0 & off
        nx = np.where(take_x0, hx0, px)
        ny = np.where(take_y0, hy0, py)
        blocked = np.zeros(px.shape[0], dtype=bool)

        lanes = np.flatnonzero(~(take_x0 | take_y0))
        if lanes.size == 0:
            return nx, ny, blocked, None
        # The leftovers replan over local copies of just their rows
        # (commit-on-move: the caller's ``state`` stays untouched).
        # Positions are fixed for the whole decision, so the fast path's
        # hop candidates and enables stay valid — gather, don't recompute.
        ax, ay = px[lanes], py[lanes]
        bx, by = dx[lanes], dy[lanes]
        need_x, need_y = need_x0[lanes], need_y0[lanes]
        hx, hy = hx0[lanes], hy0[lanes]
        ix, iy = ix0[lanes], iy0[lanes]
        en_x, en_y = en_x0[lanes], en_y0[lanes]
        on_l = state.on[lanes]
        axis_l = state.axis[lanes]
        face_l = state.face[lanes]
        run_l = state.run[lanes]
        rect_l = state.rect[lanes]
        lnx, lny = ax.copy(), ay.copy()
        lblocked = np.zeros(lanes.size, dtype=bool)
        changed = np.zeros(lanes.size, dtype=bool)

        work = np.arange(lanes.size)
        for _ in range(self.max_replans):
            if work.size == 0:
                break
            w_on = on_l[work]
            stay: List[np.ndarray] = []

            greedy = work[~w_on]
            if greedy.size:
                take_x = en_x[greedy]
                take_y = en_y[greedy] & ~take_x
                moved = take_x | take_y
                rows = greedy[moved]
                lnx[rows] = np.where(take_x[moved], hx[rows], ax[rows])
                lny[rows] = np.where(take_x[moved], ay[rows], hy[rows])

                rest = greedy[~moved]
                if rest.size:
                    rx = np.where(
                        need_x[rest], self._rg_flat.take(ix[rest], mode="clip"), -1
                    )
                    ry = np.where(
                        need_y[rest], self._rg_flat.take(iy[rest], mode="clip"), -1
                    )
                    use_x = rx >= 0
                    use_y = (ry >= 0) & ~use_x
                    hit = use_x | use_y
                    lblocked[rest[~hit]] = True
                    if hit.any():
                        h = rest[hit]
                        ux = use_x[hit]
                        rid = np.where(ux, rx[hit], ry[hit])
                        ok, axis, face, run = self._plan_vec(
                            ax[h],
                            ay[h],
                            bx[h],
                            by[h],
                            np.where(ux, hx[h], ax[h]),
                            np.where(ux, ay[h], hy[h]),
                            rid,
                        )
                        lblocked[h[~ok]] = True
                        planned = h[ok]
                        on_l[planned] = True
                        axis_l[planned] = axis[ok]
                        face_l[planned] = face[ok]
                        run_l[planned] = run[ok]
                        rect_l[planned] = rid[ok]
                        changed[planned] = True
                        stay.append(planned)

            detour = work[w_on]
            if detour.size:
                cx, cy = ax[detour], ay[detour]
                d_axis = axis_l[detour]
                d_face = face_l[detour]
                d_run = run_l[detour]
                d_rect = rect_l[detour]
                cross = np.where(d_axis == 0, cy, cx)
                sliding = cross != d_face
                sdir = np.where(d_face > cross, 1, -1).astype(np.int32)
                sx = np.where(d_axis == 0, cx, cx + sdir)
                sy = np.where(d_axis == 0, cy + sdir, cy)
                slide_en = self._en_flat.take(sx * hgt + sy, mode="clip")
                slide_ok = sliding & slide_en
                rows = detour[slide_ok]
                lnx[rows] = sx[slide_ok]
                lny[rows] = sy[slide_ok]
                lblocked[detour[sliding & ~slide_en]] = True

                running = ~sliding
                along = np.where(d_axis == 0, cx, cy)
                done = running & (along == d_run)
                done_rows = detour[done]
                on_l[done_rows] = False
                changed[done_rows] = True
                stay.append(done_rows)  # greedy resumes next pass

                go = running & ~done
                if go.any():
                    rdir = np.where(d_run > along, 1, -1).astype(np.int32)
                    gx = np.where(d_axis == 0, cx + rdir, cx)
                    gy = np.where(d_axis == 0, cy, cy + rdir)
                    run_ok = go & self._en_flat.take(gx * hgt + gy, mode="clip")
                    rows = detour[run_ok]
                    lnx[rows] = gx[run_ok]
                    lny[rows] = gy[run_ok]

                    collide = go & ~run_ok
                    if collide.any():
                        other = self._rg_flat.take(gx * hgt + gy, mode="clip")
                        o_safe = np.where(other >= 0, other, 0)
                        r_safe = np.where(d_rect >= 0, d_rect, 0)
                        chain = (
                            collide
                            & (other >= 0)
                            & ~self.isect[o_safe, r_safe]
                        )
                        lblocked[detour[collide & ~chain]] = True
                        if chain.any():
                            c = detour[chain]
                            ok, axis, face, run = self._plan_vec(
                                ax[c],
                                ay[c],
                                bx[c],
                                by[c],
                                gx[chain],
                                gy[chain],
                                other[chain],
                            )
                            lblocked[c[~ok]] = True
                            nested = c[ok]
                            axis_l[nested] = axis[ok]
                            face_l[nested] = face[ok]
                            run_l[nested] = run[ok]
                            rect_l[nested] = other[chain][ok]
                            changed[nested] = True
                            stay.append(nested)

            work = (
                np.concatenate(stay) if stay else np.empty(0, dtype=np.int64)
            )
        # Replan budget exhausted without a move proposal: honest drop.
        lblocked[work] = True

        nx[lanes] = lnx
        ny[lanes] = lny
        blocked[lanes] = lblocked
        rows = np.flatnonzero(changed)
        changes = None
        if rows.size:
            changes = (
                lanes[rows],
                on_l[rows],
                axis_l[rows],
                face_l[rows],
                run_l[rows],
                rect_l[rows],
            )
        return nx, ny, blocked, changes

    # -- scalar twin ---------------------------------------------------------

    def _plan_one(self, ax, ay, bx, by, hx, hy, rid):
        x0, x1 = int(self._x0[rid]), int(self._x1[rid])
        y0, y1 = int(self._y0[rid]), int(self._y1[rid])
        axis = 0 if hy == ay else 1
        if axis == 0:
            run = bx if x0 <= bx <= x1 else (x1 + 1 if bx > ax else x0 - 1)
            if not (0 <= run < self.width):
                return None
            faces = [f for f in (y0 - 1, y1 + 1) if 0 <= f < self.height]
            dest_cross = by
        else:
            run = by if y0 <= by <= y1 else (y1 + 1 if by > ay else y0 - 1)
            if not (0 <= run < self.height):
                return None
            faces = [f for f in (x0 - 1, x1 + 1) if 0 <= f < self.width]
            dest_cross = bx
        if not faces:
            return None
        face = min(faces, key=lambda f: abs(dest_cross - f))
        return (True, axis, face, run, int(rid))

    def decide_one(self, x, y, dx, dy, st):
        on, axis, face, run, rect = st
        for _ in range(self.max_replans):
            if not on:
                hops = []
                if x != dx:
                    hops.append((x + (1 if dx > x else -1), y))
                if y != dy:
                    hops.append((x, y + (1 if dy > y else -1)))
                blocked_hop = None
                for hop in hops:
                    if self.enabled[hop]:
                        return hop, _IDLE
                    rid = int(self.rect_grid[hop])
                    if rid >= 0 and blocked_hop is None:
                        blocked_hop = (hop, rid)
                if blocked_hop is None:
                    return None, st
                hop, rid = blocked_hop
                plan = self._plan_one(x, y, dx, dy, hop[0], hop[1], rid)
                if plan is None:
                    return None, st
                on, axis, face, run, rect = plan
                continue
            cross = y if axis == 0 else x
            if cross != face:
                sdir = 1 if face > cross else -1
                nxt = (x, y + sdir) if axis == 0 else (x + sdir, y)
                if not self.enabled[nxt]:
                    return None, st
                return nxt, (on, axis, face, run, rect)
            along = x if axis == 0 else y
            if along == run:
                on, axis, face, run, rect = _IDLE
                continue
            rdir = 1 if run > along else -1
            nxt = (x + rdir, y) if axis == 0 else (x, y + rdir)
            if self.enabled[nxt]:
                return nxt, (on, axis, face, run, rect)
            other = int(self.rect_grid[nxt])
            if other >= 0 and not self.isect[other, rect]:
                plan = self._plan_one(x, y, dx, dy, nxt[0], nxt[1], other)
                if plan is not None:
                    on, axis, face, run, rect = plan
                    continue
            return None, st
        return None, st


KERNELS = {"xy": XYKernel, "detour": DetourKernel}


def make_kernel(name_or_kernel, view: FaultModelView) -> TrafficKernel:
    """Resolve ``"xy"``/``"detour"`` or pass a kernel instance through."""
    if isinstance(name_or_kernel, TrafficKernel):
        return name_or_kernel
    try:
        cls = KERNELS[name_or_kernel]
    except KeyError:
        raise RoutingError(
            f"unknown kernel {name_or_kernel!r}; expected one of {sorted(KERNELS)}"
        ) from None
    return cls(view)
