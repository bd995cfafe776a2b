"""``traffic-campaign``: batched store-and-forward traffic over region views.

Closed loop, one caller.  Each op is one
``BatchedNetwork(view, kernel="detour").run(traffic)``: 100k uniform
packets at injection rate 400 (above the knee, so contention is steady)
over the Definition-2b region view of a 128x128 mesh with 200 faults in
20 clusters.  Labeling runs only in set-up.  Checks per op: every packet is
delivered, dropped or stuck; no delivered packet beat its Manhattan
distance; a repeated run of an instance equals its first run exactly.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.pipeline import label_mesh
from repro.faults.generators import clustered
from repro.mesh.topology import Mesh2D
from repro.network.batched import BatchedNetwork, BatchedResult
from repro.network.traffic import synthetic_traffic
from repro.routing.base import FaultModelView
from repro.routing.vectorized import DetourKernel

from harness import Tracer, Window, Workload, run_passes


def traffic_errors(traffic, result: BatchedResult) -> List[str]:
    """Conservation and distance checks of one run's outcome columns."""
    errors = []
    n = len(traffic)
    counted = result.num_delivered + result.num_dropped + result.num_stuck
    if result.num_packets != n or counted != n:
        errors.append(
            f"{n} packets offered, {result.num_packets} reported, "
            f"{counted} delivered+dropped+stuck"
        )
    m = result.delivered_mask
    if m.size == n:
        manhattan = np.abs(traffic.sx - traffic.dx) + np.abs(traffic.sy - traffic.dy)
        latency = result.finish[m] - traffic.inject[m]
        if np.any(latency < manhattan[m]):
            errors.append("a delivered packet beat its Manhattan distance")
    return errors


class TimedDetourKernel(DetourKernel):
    """The detour kernel with every ``decide`` call recorded as a span."""

    def __init__(self, view: FaultModelView, tracer: Tracer):
        super().__init__(view)
        self._spans = tracer.spans

    def decide(self, px, py, dx, dy, state):
        with self._spans.span("bench.decide"):
            return super().decide(px, py, dx, dy, state)


class TrafficCampaign(Workload):
    name = "traffic-campaign"
    # Only ~9-12 ops fit a 30 s window, so no percentile leaves ten samples
    # beyond it; p90 is the slowest op or the one below it.
    tail_pct = 90.0
    work_unit = "simulated packets per wall-second"
    parents = {"bench.batched_run": None, "bench.decide": "bench.batched_run"}

    size = 128
    faults = 200
    packets = 100_000
    rate = 400.0
    instances = 3
    clusters = 20
    #: Times each instance is built in set-up (the last build is kept).
    #: One build takes ~15 ms, so one sample per instance is mostly noise.
    setup_rounds = 5

    def setup(self) -> List[float]:
        topology = Mesh2D(self.size, self.size)
        self.items = []
        self._first: Dict[int, BatchedResult] = {}
        times = []
        for i in range(self.instances):
            for _ in range(self.setup_rounds):
                t0 = time.perf_counter()
                rng = np.random.default_rng([self.seed, i])
                faults = clustered(
                    topology.shape,
                    self.faults,
                    rng,
                    clusters=self.clusters,
                    spread=2.0,
                )
                view = FaultModelView.from_regions(label_mesh(topology, faults))
                traffic = synthetic_traffic(
                    view, self.packets, rng, injection_rate=self.rate
                )
                times.append(time.perf_counter() - t0)
            self.items.append((i, view, traffic))
        return times

    def _op(self, item, tracer: Optional[Tracer]) -> Tuple[float, float]:
        index, view, traffic = item
        t0 = time.perf_counter()
        if tracer is None:
            result = BatchedNetwork(view, kernel="detour").run(traffic)
        else:
            net = BatchedNetwork(view, kernel=TimedDetourKernel(view, tracer))
            with tracer.spans.span("bench.batched_run"):
                result = net.run(traffic)
        ms = 1000.0 * (time.perf_counter() - t0)
        if tracer is not None:
            tracer.add("network.cycles", result.cycles)
            tracer.add("network.delivered", result.num_delivered)
            tracer.add("network.stuck", result.num_stuck)
            tracer.add("network.mean_latency_cycles", result.mean_latency)
        errors = traffic_errors(traffic, result)
        first = self._first.setdefault(index, result)
        if not first.equals(result):
            errors.append(f"rerun differs: {first.diff_summary(result)}")
        self.check(not errors, f"{self.name} instance {index}: {'; '.join(errors)}")
        return ms, float(len(traffic))

    def window(self, seconds: float, tracer: Optional[Tracer]) -> Window:
        # Two passes at least, so every instance is rerun and compared.
        return run_passes(self, self.items, self._op, seconds, tracer, min_passes=2)
