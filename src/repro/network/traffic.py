"""Traffic generation for the network simulators.

Two families live here:

* **Worm lists** for the scalar :class:`WormholeNetwork`
  (:func:`uniform_traffic`, :func:`source_routed_traffic`) — one
  :class:`WormPacket` object per packet.
* **Batched columns** for :class:`~repro.network.batched.BatchedNetwork`
  (:class:`BatchedTraffic`, :func:`synthetic_traffic`) — the standard
  synthetic patterns (uniform / transpose / hotspot / bit-complement)
  as parallel numpy endpoint arrays with a Poisson injection process,
  sized for million-packet campaigns.

Endpoints are always drawn from the *enabled* set of a fault-model
view — faulty and disabled nodes host no traffic, per the paper's rule
that only enabled nodes participate in routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.geometry.cells import member_coords
from repro.network.flits import WormPacket
from repro.routing.base import FaultModelView, Router
from repro.types import Coord

__all__ = [
    "BatchedTraffic",
    "TRAFFIC_PATTERNS",
    "source_routed_traffic",
    "synthetic_traffic",
    "uniform_traffic",
]


def uniform_traffic(
    view: FaultModelView,
    num_packets: int,
    rng: np.random.Generator,
    packet_length: int = 4,
    injection_rate: float = 0.1,
) -> List[WormPacket]:
    """Uniform random source/destination worms with Bernoulli injection.

    Parameters
    ----------
    view:
        Supplies the enabled endpoints.
    num_packets:
        Total packets to generate.
    rng:
        Seeded generator.
    packet_length:
        Flits per packet.
    injection_rate:
        Expected packets injected per cycle (across the whole machine);
        inter-arrival gaps are geometric with this rate.

    Raises
    ------
    RoutingError
        On a non-positive injection rate or packet length.
    """
    if packet_length < 1:
        raise RoutingError(f"packet length must be >= 1, got {packet_length}")
    if not 0 < injection_rate:
        raise RoutingError(f"injection rate must be positive, got {injection_rate}")
    packets: List[WormPacket] = []
    cycle = 0
    for pid in range(num_packets):
        source, dest = view.random_enabled_pair(rng)
        packets.append(
            WormPacket(
                packet_id=pid,
                source=source,
                dest=dest,
                length=packet_length,
                inject_cycle=cycle,
            )
        )
        cycle += int(rng.geometric(min(1.0, injection_rate)))
    return packets


def source_routed_traffic(
    router: Router,
    pairs: Sequence[Tuple[Coord, Coord]],
    rng: np.random.Generator,
    packet_length: int = 4,
    injection_rate: float = 0.1,
) -> Tuple[List[WormPacket], int]:
    """Worms carrying full source routes computed by a path router.

    Each pair is routed up front with ``router``; delivered routes
    become source-routed worms (the head flit "carries" the path, a
    standard wormhole option), undeliverable pairs are counted and
    skipped.  This is how the benchmarks drive the wormhole network
    with the f-ring and wall-following detour routers, whose paths are
    stateful and therefore cannot be expressed as memoryless hop
    functions.

    Returns
    -------
    (packets, unroutable):
        The worms, plus how many pairs the router could not serve.
    """
    if packet_length < 1:
        raise RoutingError(f"packet length must be >= 1, got {packet_length}")
    if not 0 < injection_rate:
        raise RoutingError(f"injection rate must be positive, got {injection_rate}")
    packets: List[WormPacket] = []
    unroutable = 0
    cycle = 0
    pid = 0
    for source, dest in pairs:
        result = router.route(source, dest)
        if not result.delivered:
            unroutable += 1
            continue
        packets.append(
            WormPacket(
                packet_id=pid,
                source=source,
                dest=dest,
                length=packet_length,
                inject_cycle=cycle,
                path=tuple(result.path),
            )
        )
        pid += 1
        cycle += int(rng.geometric(min(1.0, injection_rate)))
    return packets, unroutable


# ---------------------------------------------------------------------------
# Batched traffic columns for the numpy store-and-forward engine.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchedTraffic:
    """Packet endpoints and injection cycles as parallel numpy columns.

    Packet id is the array index; ids are assigned in nondecreasing
    injection order, which is what gives the batched engine its
    oldest-packet-first contention priority.
    """

    sx: np.ndarray
    sy: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    inject: np.ndarray
    pattern: str = "custom"

    def __len__(self) -> int:
        return int(self.sx.size)

    @property
    def num_packets(self) -> int:
        return len(self)

    @classmethod
    def from_pairs(
        cls,
        pairs: Sequence[Tuple[Coord, Coord]],
        inject: Optional[Sequence[int]] = None,
    ) -> "BatchedTraffic":
        """Explicit endpoint list (tests and small demos)."""
        sx = np.array([p[0][0] for p in pairs], dtype=np.int32)
        sy = np.array([p[0][1] for p in pairs], dtype=np.int32)
        dx = np.array([p[1][0] for p in pairs], dtype=np.int32)
        dy = np.array([p[1][1] for p in pairs], dtype=np.int32)
        if inject is None:
            cycles = np.zeros(len(pairs), dtype=np.int64)
        else:
            cycles = np.asarray(inject, dtype=np.int64)
        return cls(sx=sx, sy=sy, dx=dx, dy=dy, inject=cycles)


TRAFFIC_PATTERNS = ("uniform", "transpose", "hotspot", "bit_complement")


def _resample_collisions(
    di: np.ndarray, si: np.ndarray, pool: int, rng: np.random.Generator
) -> np.ndarray:
    """Redraw destination indices until none equals its source index."""
    for _ in range(256):
        clash = np.flatnonzero(di == si)
        if clash.size == 0:
            return di
        di[clash] = rng.integers(0, pool, clash.size)
    raise RoutingError("could not draw distinct endpoints (enabled set too small)")


def synthetic_traffic(
    view: FaultModelView,
    num_packets: int,
    rng: np.random.Generator,
    pattern: str = "uniform",
    injection_rate: float = 1.0,
    hotspot_fraction: float = 0.25,
    num_hotspots: int = 4,
) -> BatchedTraffic:
    """Batched synthetic workload over the enabled nodes of ``view``.

    Patterns
    --------
    ``uniform``
        Source and destination uniform over enabled nodes, distinct.
    ``transpose``
        Destination of ``(x, y)`` is ``(y, x)``; sources are drawn from
        the off-diagonal enabled cells whose transpose is also enabled.
    ``bit_complement``
        Destination of ``(x, y)`` is ``(W-1-x, H-1-y)``; sources come
        from enabled cells whose complement is enabled and distinct.
    ``hotspot``
        Uniform, except a ``hotspot_fraction`` of packets aim at one of
        ``num_hotspots`` fixed enabled nodes.

    Injection is a Poisson process with ``injection_rate`` expected
    packets per cycle across the whole machine (rates above one packet
    per cycle model many concurrent sources).

    Raises
    ------
    RoutingError
        On an unknown pattern, a non-positive rate, or when the view
        has no valid endpoint pair for the pattern.
    """
    if pattern not in TRAFFIC_PATTERNS:
        raise RoutingError(
            f"unknown traffic pattern {pattern!r}; expected one of {TRAFFIC_PATTERNS}"
        )
    if not 0 < injection_rate:
        raise RoutingError(f"injection rate must be positive, got {injection_rate}")
    if num_packets < 0:
        raise RoutingError(f"num_packets must be >= 0, got {num_packets}")

    width, height = view.topology.shape
    ex, ey = member_coords(view.enabled)
    ex = ex.astype(np.int32)
    ey = ey.astype(np.int32)
    if ex.size < 2:
        raise RoutingError("fewer than two enabled nodes")

    if pattern in ("uniform", "hotspot"):
        si = rng.integers(0, ex.size, num_packets)
        di = _resample_collisions(
            rng.integers(0, ex.size, num_packets), si, ex.size, rng
        )
        sx, sy = ex[si], ey[si]
        dx, dy = ex[di], ey[di]
        if pattern == "hotspot":
            spots = rng.choice(ex.size, size=min(num_hotspots, ex.size), replace=False)
            hot = rng.random(num_packets) < hotspot_fraction
            pick = spots[rng.integers(0, spots.size, num_packets)]
            dx = np.where(hot, ex[pick], dx)
            dy = np.where(hot, ey[pick], dy)
            clash = (dx == sx) & (dy == sy)
            for _ in range(256):
                idx = np.flatnonzero(clash)
                if idx.size == 0:
                    break
                redraw = rng.integers(0, ex.size, idx.size)
                dx[idx] = ex[redraw]
                dy[idx] = ey[redraw]
                clash[idx] = (dx[idx] == sx[idx]) & (dy[idx] == sy[idx])
            else:
                raise RoutingError("could not separate hotspot endpoints")
    elif pattern == "transpose":
        ok = (
            (ex != ey)
            & (ey < width)
            & (ex < height)
            & view.enabled[np.minimum(ey, width - 1), np.minimum(ex, height - 1)]
        )
        vx, vy = ex[ok], ey[ok]
        if vx.size == 0:
            raise RoutingError("transpose pattern has no valid enabled pair")
        si = rng.integers(0, vx.size, num_packets)
        sx, sy = vx[si], vy[si]
        dx, dy = sy.copy(), sx.copy()
    else:  # bit_complement
        cx = (width - 1 - ex).astype(np.int32)
        cy = (height - 1 - ey).astype(np.int32)
        ok = view.enabled[cx, cy] & ((cx != ex) | (cy != ey))
        vx, vy = ex[ok], ey[ok]
        if vx.size == 0:
            raise RoutingError("bit_complement pattern has no valid enabled pair")
        si = rng.integers(0, vx.size, num_packets)
        sx, sy = vx[si], vy[si]
        dx = (width - 1 - sx).astype(np.int32)
        dy = (height - 1 - sy).astype(np.int32)

    gaps = rng.exponential(1.0 / injection_rate, num_packets)
    inject = np.floor(np.cumsum(gaps)).astype(np.int64)
    return BatchedTraffic(
        sx=np.ascontiguousarray(sx, dtype=np.int32),
        sy=np.ascontiguousarray(sy, dtype=np.int32),
        dx=np.ascontiguousarray(dx, dtype=np.int32),
        dy=np.ascontiguousarray(dy, dtype=np.int32),
        inject=inject,
        pattern=pattern,
    )
