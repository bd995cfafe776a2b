"""Property: the batched traffic engine IS the scalar oracle.

The numpy engine in :mod:`repro.network.batched` advances every
in-flight packet per cycle with fused array passes, tombstoned lanes
and reverse-write link arbitration.  None of that machinery may be
observable: on any view (blocks or regions, mesh or torus), any fault
workload (uniform or clustered), and either routing kernel, the result
columns must equal the scalar reference engine's bit for bit.

A second family pins the kernels to the path routers they vectorize:
single-packet XY traffic agrees with :class:`XYRouter`, and the
rectangle-detour kernel agrees with :class:`FRingRouter` on delivery
and hop count (the kernel drops by hop budget where the router's
seen-set detects a cycle, so drop *reasons* are pinned to the
blocked/budget pair rather than equated).
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import SafetyDefinition, label_mesh
from repro.faults import FaultSet, clustered
from repro.mesh import Mesh2D, Torus2D
from repro.network import BatchedNetwork, BatchedTraffic, synthetic_traffic
from repro.routing import DropReason, FaultModelView, FRingRouter, XYRouter

W = H = 8


@st.composite
def fault_sets(draw, max_faults=10):
    if draw(st.booleans()):  # clustered workload
        n = draw(st.integers(0, max_faults))
        seed = draw(st.integers(0, 2**31 - 1))
        return clustered((W, H), n, np.random.default_rng(seed), clusters=2)
    n = draw(st.integers(0, max_faults))
    coords = draw(
        st.lists(
            st.tuples(st.integers(0, W - 1), st.integers(0, H - 1)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return FaultSet.from_coords((W, H), coords)


def make_view(topo_kind, faults, view_kind, definition=SafetyDefinition.DEF_2B):
    topo = Mesh2D(W, H) if topo_kind == "mesh" else Torus2D(W, H)
    try:
        result = label_mesh(topo, faults, definition)
    except ValueError:
        # Torus unwrap needs one all-safe column and row; dense draws
        # that wrap unsafe nodes all the way around have no planar view
        # (outside the paper's sparse-fault regime) — discard them.
        assume(False)
    if view_kind == "blocks":
        return FaultModelView.from_blocks(result)
    return FaultModelView.from_regions(result)


def custom_traffic(seed, n=250):
    """Hand-built traffic: endpoints anywhere on the grid (disabled ones
    drop with ``BAD_ENDPOINT``, equal ones deliver locally) and inject
    cycles out of id order, a few of them negative."""
    rng = np.random.default_rng(seed)
    sx, sy, dx, dy = (rng.integers(0, W, n).astype(np.int32) for _ in range(4))
    inject = rng.integers(-2, 40, n).astype(np.int64)
    return BatchedTraffic(sx=sx, sy=sy, dx=dx, dy=dy, inject=inject)


class TestEngineEquality:
    # Besides views, kernels and load, the draws reach every way a lane
    # can die: a small hop budget (budget drops under contention), a
    # short horizon (lanes stuck mid-flight, as ``injection_sweep``'s
    # ``drain_factor`` produces) and custom traffic admitted out of id
    # order.
    @given(
        fault_sets(),
        st.sampled_from(["mesh", "torus"]),
        st.sampled_from(["blocks", "regions"]),
        st.sampled_from(["xy", "detour"]),
        st.sampled_from(list(SafetyDefinition)),
        st.integers(0, 2**31 - 1),
        st.floats(0.25, 8.0),
        st.one_of(st.none(), st.integers(0, 16)),
        st.one_of(st.just(1_000_000), st.integers(0, 150)),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_reference(
        self,
        faults,
        topo_kind,
        view_kind,
        kernel,
        definition,
        seed,
        rate,
        max_hops,
        max_cycles,
        custom,
    ):
        view = make_view(topo_kind, faults, view_kind, definition)
        assume(view.num_enabled >= 2)
        if custom:
            traffic = custom_traffic(seed)
        else:
            traffic = synthetic_traffic(
                view, 250, np.random.default_rng(seed), injection_rate=rate
            )
        fast = BatchedNetwork(view, kernel=kernel, max_hops=max_hops).run(
            traffic, max_cycles
        )
        slow = BatchedNetwork(
            view, kernel=kernel, engine="reference", max_hops=max_hops
        ).run(traffic, max_cycles)
        assert fast.equals(slow), fast.diff_summary(slow)

    @given(fault_sets(), st.integers(0, 2**31 - 1), st.integers(1, 12))
    @settings(max_examples=15, deadline=None)
    def test_compaction_invariance(self, faults, seed, frac):
        view = make_view("mesh", faults, "regions")
        assume(view.num_enabled >= 2)
        traffic = synthetic_traffic(
            view, 250, np.random.default_rng(seed), injection_rate=4.0
        )
        baseline = BatchedNetwork(view).run(traffic)
        tweaked = BatchedNetwork(view)
        tweaked._COMPACT_FRAC = frac
        assert tweaked.run(traffic).equals(baseline)


class TestKernelPins:
    @given(fault_sets(), st.sampled_from(["blocks", "regions"]), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_xy_kernel_matches_xy_router(self, faults, view_kind, seed):
        view = make_view("mesh", faults, view_kind)
        assume(view.num_enabled >= 2)
        rng = np.random.default_rng(seed)
        source, dest = view.random_enabled_pair(rng)
        oracle = XYRouter(view).route(source, dest)
        res = BatchedNetwork(view, kernel="xy").run(
            BatchedTraffic.from_pairs([(source, dest)])
        )
        assert bool(res.delivered_mask[0]) == oracle.delivered
        if oracle.delivered:
            assert int(res.hops[0]) == oracle.hops == oracle.manhattan
            assert int(res.latencies[0]) == oracle.hops  # lone packet
        else:
            assert res.drop_counts() == {"BLOCKED": 1}

    # FRingRouter insists on rectangular obstacles, so the pin runs on
    # the blocks view; regions coverage comes from the engine-equality
    # property above.
    @given(fault_sets(), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_detour_kernel_matches_fring_router(self, faults, seed):
        view = make_view("mesh", faults, "blocks")
        assume(view.num_enabled >= 2)
        rng = np.random.default_rng(seed)
        source, dest = view.random_enabled_pair(rng)
        oracle = FRingRouter(view).route(source, dest)
        res = BatchedNetwork(view, kernel="detour").run(
            BatchedTraffic.from_pairs([(source, dest)])
        )
        if oracle.delivered and bool(res.delivered_mask[0]):
            assert int(res.hops[0]) == oracle.hops
        if not bool(res.delivered_mask[0]):
            # The kernel has no seen-set; livelock is cut by the hop
            # budget instead of cycle detection.
            reason = DropReason[next(iter(res.drop_counts()))]
            assert reason in (DropReason.BLOCKED, DropReason.BUDGET)

    @given(fault_sets(), st.sampled_from(["xy", "detour"]), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_latency_bounded_below_by_distance(self, faults, kernel, seed):
        view = make_view("mesh", faults, "regions")
        assume(view.num_enabled >= 2)
        traffic = synthetic_traffic(
            view, 120, np.random.default_rng(seed), injection_rate=2.0
        )
        res = BatchedNetwork(view, kernel=kernel).run(traffic)
        manhattan = np.abs(traffic.sx - traffic.dx) + np.abs(
            traffic.sy - traffic.dy
        )
        mask = res.delivered_mask
        assert (res.hops[mask] >= manhattan[mask]).all()
        lat = res.finish[mask] - res.inject[mask]
        assert (lat >= manhattan[mask]).all()
