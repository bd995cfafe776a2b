"""Batched store-and-forward traffic engine over numpy packet columns.

The scalar :class:`~repro.network.simulator.WormholeNetwork` walks every
flit of every worm in Python each cycle — fine for deadlock demos, far
too slow for million-packet saturation campaigns.  This engine models
the simpler *store-and-forward* discipline the paper's payoff argument
actually needs (one packet = one unit, one hop per cycle, per-link
capacity one) and keeps **every in-flight packet in parallel numpy
arrays**: position, destination, detour state, inject/start/finish
cycle and hop counter.  One simulated cycle is a few fused array
passes:

1. **admit** packets whose inject cycle arrived (bad endpoints drop
   with ``BAD_ENDPOINT``; source == dest delivers locally with zero
   latency),
2. **budget-check** (``hops >= max_hops`` drops with ``BUDGET``),
3. **route**: decide next hops through a vectorized routing kernel
   (:mod:`repro.routing.vectorized`) for the *stale* lanes only — new
   admissions and the last cycle's movers.  Every other packet stalled
   last cycle with unchanged position and detour state, and a decision
   is a lane-wise pure function of those, so it keeps the proposal
   cached when it was last decided: next cell and directed link id.
   Detour-state changes are written back at once, since a packet's
   state is read only by its next decide, which follows its next move.
   Kernel-blocked packets drop with ``BLOCKED``,
4. **arbitrate**: each directed link carries one packet per cycle.
   The winner is the *oldest* packet (lowest packet id — ids are
   assigned in inject order).  Scattering lane indices over the cached
   link column in *reverse* id order leaves the lowest (= oldest) index
   in place, which is exactly that age priority; losers stall and keep
   their cache,
5. **commit** winners: the cached next cell becomes the position,
   arrivals retire (``finish = cycle + 1``) and the rest go stale.

A packet's stall count is derived when it retires: it contends once
per cycle from admission until it retires and loses exactly the rounds
it did not move in, so it stalled for its contention rounds minus its
hops.

Determinism
-----------
The active array is kept sorted by packet id, decisions are pure
functions of committed state, and contention is resolved by first
occurrence in id order — so a run is a deterministic function of
``(view, kernel, traffic, max_cycles)``, independent of batch size or
chunking.  ``engine="reference"`` replays the identical schedule with
scalar Python loops that decide every packet every cycle (the oracle,
following the ``geometry_backend="reference"`` convention); property
tests pin the two bit-for-bit.

With a :class:`~repro.obs.telemetry.Telemetry` that has a span recorder,
each cycle records ``traffic_route``, ``traffic_arbitrate`` and
``traffic_commit`` spans, nested under the caller's span.

Idle gaps with nothing in flight are skipped by fast-forwarding the
clock to the next injection, so low injection rates cost nothing.
Node buffering is unbounded (a store-and-forward simplification: only
links contend, packets never drop for queue space).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import RoutingError
from repro.routing.base import FaultModelView
from repro.routing.packet import DropReason
from repro.routing.vectorized import TrafficKernel, make_kernel

__all__ = [
    "BatchedNetwork",
    "BatchedResult",
    "STATUS_NAMES",
    "nearest_rank",
]

# Packet status codes (result column ``status``).
_PENDING = np.int8(0)
_ACTIVE = np.int8(1)
_DELIVERED = np.int8(2)
_DROPPED = np.int8(3)
_STUCK = np.int8(4)

STATUS_NAMES = ("pending", "active", "delivered", "dropped", "stuck")

# Drop reason codes (result column ``reason``) — index into _REASONS.
_R_NONE = np.int8(0)
_R_BLOCKED = np.int8(1)
_R_BUDGET = np.int8(2)
_R_BAD_ENDPOINT = np.int8(3)
_REASONS = (
    DropReason.NONE,
    DropReason.BLOCKED,
    DropReason.BUDGET,
    DropReason.BAD_ENDPOINT,
)

_NO_SPAN = nullcontext()


def _no_span(name: str):
    """The span hook of an untraced run: a shared no-op context."""
    return _NO_SPAN


def nearest_rank(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile of a 1-D array; ``nan`` when empty.

    Matches the convention of
    :func:`repro.obs.summarize.latency_percentiles` so engine results
    and trace summaries report identical numbers.
    """
    if values.size == 0:
        return float("nan")
    s = np.sort(values)
    idx = max(0, int(np.ceil(q / 100.0 * s.size)) - 1)
    return float(s[idx])


@dataclass
class BatchedResult:
    """Per-packet outcome columns of one traffic run (id-indexed)."""

    sx: np.ndarray
    sy: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    inject: np.ndarray
    start: np.ndarray  # admission cycle, -1 if never admitted
    finish: np.ndarray  # delivery cycle, -1 if not delivered
    hops: np.ndarray
    stalls: np.ndarray
    status: np.ndarray  # STATUS_NAMES codes
    reason: np.ndarray  # DropReason codes (see _REASONS)
    cycles: int
    engine: str
    kernel: str

    # -- counts --------------------------------------------------------------

    @property
    def num_packets(self) -> int:
        return int(self.status.size)

    @property
    def delivered_mask(self) -> np.ndarray:
        return self.status == _DELIVERED

    @property
    def num_delivered(self) -> int:
        return int(self.delivered_mask.sum())

    @property
    def num_dropped(self) -> int:
        return int((self.status == _DROPPED).sum())

    @property
    def num_stuck(self) -> int:
        """Packets still pending/in flight when the cycle horizon hit."""
        return int((self.status == _STUCK).sum())

    def drop_counts(self) -> Dict[str, int]:
        """Dropped-packet counts keyed by :class:`DropReason` name."""
        out: Dict[str, int] = {}
        dropped = self.reason[self.status == _DROPPED]
        for code, count in zip(*np.unique(dropped, return_counts=True)):
            out[_REASONS[int(code)].name] = int(count)
        return out

    # -- rates and latency ---------------------------------------------------

    @property
    def delivery_rate(self) -> float:
        """Delivered fraction; an empty run is vacuously ``1.0``.

        The convention matches
        :class:`~repro.network.simulator.NetworkResult`: with no offered
        packets nothing was lost, so the rate reports success.
        """
        n = self.num_packets
        return self.num_delivered / n if n else 1.0

    @property
    def throughput(self) -> float:
        """Delivered packets per simulated cycle (0.0 for idle runs)."""
        return self.num_delivered / self.cycles if self.cycles else 0.0

    @property
    def latencies(self) -> np.ndarray:
        """Delivered-packet latency vector (``finish - inject``), cycles."""
        m = self.delivered_mask
        return (self.finish[m] - self.inject[m]).astype(np.int64)

    @property
    def mean_latency(self) -> float:
        """Mean delivered latency; ``nan`` when nothing was delivered."""
        lat = self.latencies
        return float(lat.mean()) if lat.size else float("nan")

    @property
    def p50_latency(self) -> float:
        return nearest_rank(self.latencies, 50)

    @property
    def p95_latency(self) -> float:
        return nearest_rank(self.latencies, 95)

    @property
    def p99_latency(self) -> float:
        return nearest_rank(self.latencies, 99)

    # -- comparison ----------------------------------------------------------

    def equals(self, other: "BatchedResult") -> bool:
        """Bit-for-bit outcome equality (used to pin engines)."""
        return (
            self.cycles == other.cycles
            and bool(np.array_equal(self.status, other.status))
            and bool(np.array_equal(self.reason, other.reason))
            and bool(np.array_equal(self.start, other.start))
            and bool(np.array_equal(self.finish, other.finish))
            and bool(np.array_equal(self.hops, other.hops))
            and bool(np.array_equal(self.stalls, other.stalls))
        )

    def diff_summary(self, other: "BatchedResult") -> str:
        """Human-readable first divergence, for test failure messages."""
        for name in ("status", "reason", "start", "finish", "hops", "stalls"):
            a, b = getattr(self, name), getattr(other, name)
            if not np.array_equal(a, b):
                bad = int(np.flatnonzero(a != b)[0])
                return (
                    f"column {name!r} first differs at packet {bad}: "
                    f"{a[bad]!r} != {b[bad]!r}"
                )
        if self.cycles != other.cycles:
            return f"cycles differ: {self.cycles} != {other.cycles}"
        return "results equal"


class _Lanes:
    """In-flight packets of one batched run as parallel lane columns.

    Lanes are ascending by packet id (``pid``), so lane order is age
    order.  ``x, y`` is a stale lane's position and, once the lane is
    decided, the next cell it proposes — which becomes its position the
    cycle it wins the link.  ``link`` is the directed link of that
    cached proposal (the engine's shared dead link once the lane
    retires) and ``arrives`` whether the proposal reaches the
    destination.  ``state`` holds the kernel's detour columns.
    """

    __slots__ = ("pid", "x", "y", "dx", "dy", "hops", "link", "arrives", "state")

    @classmethod
    def empty(cls, kern: TrafficKernel) -> "_Lanes":
        lanes = cls()
        lanes.pid = np.empty(0, dtype=np.intp)
        for name in ("x", "y", "dx", "dy", "hops"):
            setattr(lanes, name, np.empty(0, dtype=np.int32))
        lanes.link = np.empty(0, dtype=np.intp)
        lanes.arrives = np.empty(0, dtype=bool)
        lanes.state = kern.new_state(0)
        return lanes

    @property
    def size(self) -> int:
        return self.pid.size

    def extend(self, pid, x, y, dx, dy) -> None:
        """Append fresh lanes (zero hops, idle detour state)."""
        k = pid.size
        cat = np.concatenate
        self.pid = cat((self.pid, pid))
        self.x = cat((self.x, x))
        self.y = cat((self.y, y))
        self.dx = cat((self.dx, dx))
        self.dy = cat((self.dy, dy))
        self.hops = cat((self.hops, np.zeros(k, dtype=np.int32)))
        self.link = cat((self.link, np.zeros(k, dtype=np.intp)))
        self.arrives = cat((self.arrives, np.zeros(k, dtype=bool)))
        if self.state is not None:
            self.state = self.state.append_idle(k)

    def keep(self, idx: np.ndarray) -> None:
        """Reorder or filter every column by a lane index array."""
        for name in self.__slots__[:-1]:  # every array column
            setattr(self, name, getattr(self, name).take(idx))
        if self.state is not None:
            self.state = self.state.select(idx)


class BatchedNetwork:
    """Store-and-forward traffic simulator with batched numpy advancement.

    Parameters
    ----------
    view:
        The fault-model view packets route over.
    kernel:
        ``"xy"``, ``"detour"``, or a :class:`TrafficKernel` instance.
    engine:
        ``"batched"`` (numpy columns, the default) or ``"reference"``
        (scalar Python oracle with identical semantics).
    max_hops:
        Per-packet hop budget; defaults to the :class:`Router` budget
        ``4 * (diameter + 1) + 16``.
    """

    def __init__(
        self,
        view: FaultModelView,
        kernel="detour",
        engine: str = "batched",
        max_hops: Optional[int] = None,
    ):
        if engine not in ("batched", "reference"):
            raise RoutingError(f"unknown engine {engine!r}")
        self.view = view
        self.kernel: TrafficKernel = make_kernel(kernel, view)
        self.engine = engine
        self.max_hops = (
            max_hops
            if max_hops is not None
            else 4 * (view.topology.diameter + 1) + 16
        )

    def run(self, traffic, max_cycles: int = 1_000_000, telemetry=None) -> BatchedResult:
        """Simulate ``traffic`` to completion or the ``max_cycles`` horizon.

        ``traffic`` is any object with int array attributes
        ``sx, sy, dx, dy, inject`` (see
        :class:`~repro.network.traffic.BatchedTraffic`).  Packets alive
        at the horizon are reported as ``stuck``.
        """
        if self.engine == "reference":
            return self._run_reference(traffic, max_cycles)
        return self._run_batched(traffic, max_cycles, telemetry)

    # -- shared setup --------------------------------------------------------

    def _columns(self, traffic):
        sx = np.asarray(traffic.sx, dtype=np.int32)
        sy = np.asarray(traffic.sy, dtype=np.int32)
        dx = np.asarray(traffic.dx, dtype=np.int32)
        dy = np.asarray(traffic.dy, dtype=np.int32)
        inject = np.asarray(traffic.inject, dtype=np.int64)
        if not (sx.shape == sy.shape == dx.shape == dy.shape == inject.shape):
            raise RoutingError("traffic columns must share one shape")
        return sx, sy, dx, dy, inject

    def _result(self, cols, start, finish, hops, stalls, status, reason, cycle):
        sx, sy, dx, dy, inject = cols
        status = status.copy()
        status[(status == _PENDING) | (status == _ACTIVE)] = _STUCK
        return BatchedResult(
            sx=sx,
            sy=sy,
            dx=dx,
            dy=dy,
            inject=inject,
            start=start,
            finish=finish,
            hops=hops,
            stalls=stalls,
            status=status,
            reason=reason,
            cycles=int(cycle),
            engine=self.engine,
            kernel=self.kernel.name,
        )

    # -- batched numpy engine ------------------------------------------------

    # Compact dead lanes away once they exceed this fraction of lanes.
    _COMPACT_FRAC = 8

    def _run_batched(self, traffic, max_cycles: int, telemetry) -> BatchedResult:
        cols = self._columns(traffic)
        sx, sy, dx, dy, inject = cols
        n = sx.size
        kern = self.kernel
        enabled = kern.enabled
        height = kern.height
        max_hops = self.max_hops
        # A hop's directed link id is ``5 * source cell + dx + 2 * dy + 2``
        # with ``source cell = x * height + y``: the four unit hops take
        # codes 0, 1, 3 and 4 (2 would stay put, which no live lane
        # proposes).  The one id past them is the shared link of every
        # dead lane.
        dead = kern.width * height * 5
        if dead >= np.iinfo(np.int32).max:
            raise RoutingError("mesh too large for int32 link ids")

        status = np.full(n, _PENDING, dtype=np.int8)
        reason = np.full(n, _R_NONE, dtype=np.int8)
        start = np.full(n, -1, dtype=np.int64)
        finish = np.full(n, -1, dtype=np.int64)
        hops = np.zeros(n, dtype=np.int64)
        stalls = np.zeros(n, dtype=np.int64)
        admitted = np.zeros(n, dtype=np.int64)  # cycle each packet got a lane

        order = np.argsort(inject, kind="stable")
        inj_sorted = inject[order]
        ptr = 0
        cycle = 0
        budget_floor = float("inf")

        # Retired lanes ride along on the dead link, out of contention,
        # until they exceed 1/_COMPACT_FRAC of the lanes and one
        # compaction sweeps them out.
        lanes = _Lanes.empty(kern)
        ndead = 0
        # Live lanes whose decision inputs changed since their last
        # decide: new admissions and the last cycle's winners.
        stale = np.empty(0, dtype=np.intp)

        hist_occ = hist_lat = None
        span = _no_span
        if telemetry is not None:
            hist_occ = telemetry.histogram("link_occupancy")
            hist_lat = telemetry.histogram("packet_latency_cycles")
            span = telemetry.span

        # Contention scratch: ``winner[link]`` holds the lowest lane
        # proposing that link this cycle.  Writing lane indices in
        # *reverse* order makes the last (= lowest-lane) write win, with
        # no sort and no per-cycle reset — every link read back was
        # freshly written this cycle.
        winner = np.zeros(dead + 1, dtype=np.int32)
        iota = np.empty(0, dtype=np.int32)

        def retire(idx, end, code, why=_R_NONE):
            """Write retiring lanes back by packet id and kill the lanes.

            A lane contends once per cycle from admission until ``end``
            and loses exactly the rounds it did not move in, so its
            stall count is its contention rounds minus its hops.
            """
            rows = lanes.pid.take(idx)
            moved = lanes.hops.take(idx)
            hops[rows] = moved
            stalls[rows] = end - admitted[rows] - moved
            status[rows] = code
            reason[rows] = why
            lanes.link[idx] = dead
            return rows

        while cycle < max_cycles:
            # 1. admit
            if ptr < n:
                k = int(np.searchsorted(inj_sorted, cycle, side="right"))
                if k > ptr:
                    new = order[ptr:k]
                    ptr = k
                    ok_ep = enabled[sx[new], sy[new]] & enabled[dx[new], dy[new]]
                    bad = new[~ok_ep]
                    status[bad] = _DROPPED
                    reason[bad] = _R_BAD_ENDPOINT
                    good = new[ok_ep]
                    start[good] = inject[good]
                    local = (sx[good] == dx[good]) & (sy[good] == dy[good])
                    loc = good[local]
                    status[loc] = _DELIVERED
                    finish[loc] = inject[loc]
                    live = good[~local]
                    status[live] = _ACTIVE
                    if live.size:
                        # A lane gains at most one hop per cycle, so no
                        # budget drop can fire before this floor.
                        budget_floor = min(budget_floor, cycle + max_hops)
                        admitted[live] = cycle
                        m = lanes.size
                        lanes.extend(live, sx[live], sy[live], dx[live], dy[live])
                        stale = np.concatenate(
                            (stale, np.arange(m, lanes.size, dtype=np.intp))
                        )
                        if np.any(np.diff(lanes.pid[max(m - 1, 0) :]) < 0):
                            # Custom traffic may inject out of id order;
                            # contention needs lanes ascending by id.
                            o = np.argsort(lanes.pid, kind="stable")
                            lanes.keep(o)
                            inv = np.empty_like(o)
                            inv[o] = np.arange(o.size)
                            stale = inv[stale]
                        if iota.size < lanes.size:
                            iota = np.arange(lanes.size, dtype=np.int32)
            if lanes.size == ndead:
                if lanes.size:
                    # Everything in flight retired: drop the lanes.
                    lanes = _Lanes.empty(kern)
                    ndead = 0
                if ptr >= n:
                    break
                cycle = int(inj_sorted[ptr])
                continue

            # 2. hop budget: only a lane that just moved can have reached it.
            if cycle >= budget_floor:
                over = lanes.hops.take(stale) >= max_hops
                if over.any():
                    gone = stale[over]
                    retire(gone, cycle, _DROPPED, _R_BUDGET)
                    ndead += gone.size
                    stale = stale[~over]
                    if lanes.size == ndead:
                        continue

            # 3. route: decide the stale lanes and cache their proposals.
            # Every other live lane stalled last cycle with unchanged
            # inputs, so its cached proposal is exactly what a fresh
            # decide would return.
            if stale.size:
                with span("traffic_route"):
                    px = lanes.x.take(stale)
                    py = lanes.y.take(stale)
                    tx = lanes.dx.take(stale)
                    ty = lanes.dy.take(stale)
                    state = lanes.state
                    nx, ny, blocked, changes = kern.decide(
                        px, py, tx, ty, None if state is None else state.select(stale)
                    )
                    if changes is not None:
                        # Only the lane's next decide reads its state,
                        # and that follows its next move, so writing the
                        # change now is the same as writing it on the move.
                        state.put(stale[changes[0]], changes[1:])
                    lanes.link[stale] = (
                        (px * height + py) * 5 + (nx - px) + 2 * (ny - py) + 2
                    )
                    lanes.x[stale] = nx
                    lanes.y[stale] = ny
                    lanes.arrives[stale] = (nx == tx) & (ny == ty)
                    if blocked.any():
                        gone = stale[blocked]
                        retire(gone, cycle, _DROPPED, _R_BLOCKED)
                        ndead += gone.size
                        stale = stale[~blocked]
                if lanes.size == ndead:
                    cycle += 1
                    continue

            # 4. arbitrate: one packet per directed link, oldest id wins.
            # Lanes are ascending by id, so lane order is age order; the
            # reverse-write trick keeps the lowest lane per link.
            with span("traffic_arbitrate"):
                link = lanes.link
                idx = iota[: link.size]
                winner[link[::-1]] = idx[::-1]
                winner[dead] = -1  # dead lanes never win
                won = np.flatnonzero(winner.take(link) == idx)
                if hist_occ is not None:
                    _, counts = np.unique(link[link != dead], return_counts=True)
                    hist_occ.observe_many(counts)

            # 5. commit: a winner's cached next cell is already its lane
            # position; count the hop, retire arrivals, and mark the
            # rest stale for next cycle.
            with span("traffic_commit"):
                lanes.hops[won] += 1
                arrived = lanes.arrives.take(won)
                if arrived.any():
                    done = won[arrived]
                    rows = retire(done, cycle + 1, _DELIVERED)
                    finish[rows] = cycle + 1
                    ndead += done.size
                    stale = won[~arrived]
                else:
                    stale = won

                if ndead * self._COMPACT_FRAC > lanes.size:
                    keep = np.flatnonzero(lanes.link != dead)
                    stale = np.searchsorted(keep, stale)
                    lanes.keep(keep)
                    ndead = 0

            cycle += 1
            if lanes.size == ndead and ptr >= n:
                break

        live = np.flatnonzero(lanes.link != dead)
        if live.size:
            retire(live, cycle, _ACTIVE)  # stuck at the horizon: partial progress
        result = self._result(cols, start, finish, hops, stalls, status, reason, cycle)
        if hist_lat is not None:
            hist_lat.observe_many(result.latencies)
        return result

    # -- scalar reference oracle ---------------------------------------------

    def _run_reference(self, traffic, max_cycles: int) -> BatchedResult:
        cols = self._columns(traffic)
        sx, sy, dx, dy, inject = cols
        n = sx.size
        kern = self.kernel
        enabled = kern.enabled

        px = sx.astype(int).tolist()
        py = sy.astype(int).tolist()
        tdx = dx.astype(int).tolist()
        tdy = dy.astype(int).tolist()
        status = np.full(n, _PENDING, dtype=np.int8)
        reason = np.full(n, _R_NONE, dtype=np.int8)
        start = np.full(n, -1, dtype=np.int64)
        finish = np.full(n, -1, dtype=np.int64)
        hops = np.zeros(n, dtype=np.int64)
        stalls = np.zeros(n, dtype=np.int64)
        st = [kern.initial_state_one() for _ in range(n)]

        order = np.argsort(inject, kind="stable")
        order_list = order.astype(int).tolist()
        inj_sorted = inject[order].astype(int).tolist()
        ptr = 0
        act: list = []
        cycle = 0

        while cycle < max_cycles:
            admitted = False
            while ptr < n and inj_sorted[ptr] <= cycle:
                i = order_list[ptr]
                ptr += 1
                if not (
                    enabled[sx[i], sy[i]] and enabled[tdx[i], tdy[i]]
                ):
                    status[i] = _DROPPED
                    reason[i] = _R_BAD_ENDPOINT
                    continue
                start[i] = inject[i]
                if px[i] == tdx[i] and py[i] == tdy[i]:
                    status[i] = _DELIVERED
                    finish[i] = inject[i]
                    continue
                status[i] = _ACTIVE
                act.append(i)
                admitted = True
            if admitted:
                act.sort()
            if not act:
                if ptr >= n:
                    break
                cycle = inj_sorted[ptr]
                continue

            survivors = []
            for i in act:
                if hops[i] >= self.max_hops:
                    status[i] = _DROPPED
                    reason[i] = _R_BUDGET
                else:
                    survivors.append(i)
            act = survivors
            if not act:
                continue

            proposals = []
            for i in act:
                nxt, new_st = kern.decide_one(px[i], py[i], tdx[i], tdy[i], st[i])
                if nxt is None:
                    status[i] = _DROPPED
                    reason[i] = _R_BLOCKED
                else:
                    proposals.append((i, nxt, new_st))

            taken = set()
            new_act = []
            for i, (nx_, ny_), new_st in proposals:
                if nx_ > px[i]:
                    dirc = 0
                elif nx_ < px[i]:
                    dirc = 1
                elif ny_ > py[i]:
                    dirc = 2
                else:
                    dirc = 3
                link = (px[i] * kern.height + py[i]) * 4 + dirc
                if link in taken:
                    stalls[i] += 1
                    new_act.append(i)
                    continue
                taken.add(link)
                px[i] = nx_
                py[i] = ny_
                hops[i] += 1
                st[i] = new_st
                if nx_ == tdx[i] and ny_ == tdy[i]:
                    status[i] = _DELIVERED
                    finish[i] = cycle + 1
                else:
                    new_act.append(i)
            act = new_act
            cycle += 1
            if not act and ptr >= n:
                break

        return self._result(cols, start, finish, hops, stalls, status, reason, cycle)
