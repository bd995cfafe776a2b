"""The two labeling workloads: one large machine, and the paper's sweep.

``label-sparse-4k``
    Closed loop, one caller.  Each op is one default ``label_mesh`` call
    (Definition 2b, frontier/auto kernels, vectorized geometry) on a
    4000x4000 mesh with 400 faults in 8 clusters, one per 40k cells.  The
    instances are generated in set-up and labeled in turn; each op's
    label planes and block/region boxes must match the digest of the
    ``method="dense"`` result computed in set-up.

``fig5-sweep``
    Closed loop, one caller.  Each op is one ``run_fig5`` panel (100x100
    mesh, f = 0..100 step 10, 20 trials, ``jobs=1``), Definition 2a and
    2b in turn.  Each panel must equal the set-up sweep run with
    ``method="dense"`` and ``geometry_backend="reference"``.
"""

from __future__ import annotations

import hashlib
import time
from typing import List, Optional, Tuple

import numpy as np

import repro.analysis.fig5 as fig5_module
from repro.analysis.fig5 import DEFAULT_F_VALUES, run_fig5
from repro.core.pipeline import LabelingResult, label_mesh
from repro.core.status import SafetyDefinition
from repro.faults.generators import clustered
from repro.mesh.topology import Mesh2D

from harness import (
    LABEL_CHILDREN,
    Tracer,
    Window,
    Workload,
    record_labeling,
    run_passes,
)


def component_box(cells) -> Tuple[int, int, int, int]:
    """Inclusive bounding box of one component's cells, as
    ``CellSet.bounding_box`` gives it, from the mask's row and column
    projections (a full-grid ``nonzero`` per component would cost more
    than the labeling being checked)."""
    mask = cells.mask
    xs = np.flatnonzero(mask.any(axis=1))
    ys = np.flatnonzero(mask.any(axis=0))
    return (int(xs[0]), int(ys[0]), int(xs[-1]), int(ys[-1]))


def labeling_digest(result: LabelingResult) -> str:
    """sha256 over the three label planes and every block/region box."""
    h = hashlib.sha256()
    labels = result.labels
    for plane in (labels.faulty, labels.unsafe, labels.enabled):
        h.update(np.packbits(np.ascontiguousarray(plane, dtype=bool)).tobytes())
    for kind, parts in (("blocks", result.blocks), ("regions", result.regions)):
        boxes = sorted(
            (component_box(p.cells), len(p.cells), len(p.faults)) for p in parts
        )
        h.update(f"{kind}:{boxes!r}".encode())
    h.update(f"rounds:{result.rounds_phase1},{result.rounds_phase2}".encode())
    return h.hexdigest()


def panel_digest(curve) -> str:
    """Every aggregate of a Figure-5 panel, NaN-safe (``repr`` of floats)."""
    rows = [
        (p.f, p.rounds_fb, p.rounds_dr, p.enabled_ratio, p.num_blocks, p.num_regions)
        for p in curve.points
    ]
    return hashlib.sha256(repr((curve.as_table(), rows)).encode()).hexdigest()


_LABEL_PARENTS = {
    "bench.label_mesh": None,
    **{span: "bench.label_mesh" for span in LABEL_CHILDREN},
}


class LabelSparse4k(Workload):
    name = "label-sparse-4k"
    tail_pct = 75.0
    work_unit = "labeled fault sets/s"
    parents = _LABEL_PARENTS

    size = 4000
    faults = 400
    clusters = 8  # of ~50 faults each, spread 2: the sharding workload family
    instances = 4

    def setup(self) -> List[float]:
        self.topology = Mesh2D(self.size, self.size)
        self.items: List[Tuple[object, str]] = []
        times = []
        for i in range(self.instances):
            t0 = time.perf_counter()
            rng = np.random.default_rng([self.seed, i])
            faults = clustered(
                self.topology.shape,
                self.faults,
                rng,
                clusters=self.clusters,
                spread=2.0,
            )
            oracle = labeling_digest(
                label_mesh(self.topology, faults, method="dense")
            )
            times.append(time.perf_counter() - t0)
            self.items.append((faults, oracle))
        return times

    def _op(self, item, tracer: Optional[Tracer]) -> Tuple[float, float]:
        faults, oracle = item
        if tracer is None:
            t0 = time.perf_counter()
            result = label_mesh(self.topology, faults)
            ms = 1000.0 * (time.perf_counter() - t0)
        else:
            t0 = time.perf_counter()
            with tracer.spans.span("bench.label_mesh"):
                result = label_mesh(
                    self.topology, faults, telemetry=tracer.telemetry
                )
            ms = 1000.0 * (time.perf_counter() - t0)
            record_labeling(tracer, result)
        self.check(
            labeling_digest(result) == oracle,
            f"{self.name}: labels/blocks/regions differ from the dense oracle",
        )
        return ms, 1.0

    def window(self, seconds: float, tracer: Optional[Tracer]) -> Window:
        return run_passes(self, self.items, self._op, seconds, tracer)


class Fig5Sweep(Workload):
    name = "fig5-sweep"
    tail_pct = 60.0
    work_unit = "labeled fault sets/s"
    parents = {
        "bench.run_fig5": None,
        "bench.uniform_random": "bench.run_fig5",
        "bench.label_mesh": "bench.run_fig5",
        **{span: "bench.label_mesh" for span in LABEL_CHILDREN},
    }

    size = 100
    f_values = DEFAULT_F_VALUES
    trials = 20
    definitions = (SafetyDefinition.DEF_2A, SafetyDefinition.DEF_2B)

    def _sweep(self, definition: SafetyDefinition, **kwargs):
        return run_fig5(
            definition,
            topology=Mesh2D(self.size, self.size),
            f_values=self.f_values,
            trials=self.trials,
            seed=self.seed,
            **kwargs,
        )

    def setup(self) -> List[float]:
        self.items: List[Tuple[SafetyDefinition, str]] = []
        times = []
        for definition in self.definitions:
            t0 = time.perf_counter()
            oracle = panel_digest(
                self._sweep(definition, method="dense", geometry_backend="reference")
            )
            times.append(time.perf_counter() - t0)
            self.items.append((definition, oracle))
        return times

    def _op(self, item, tracer: Optional[Tracer]) -> Tuple[float, float]:
        definition, oracle = item
        results: List[LabelingResult] = []
        t0 = time.perf_counter()
        if tracer is None:
            curve = self._sweep(definition)
        else:
            with tracer.patched(
                fig5_module,
                "label_mesh",
                "bench.label_mesh",
                on_result=results.append,
                telemetry=tracer.telemetry,
            ), tracer.patched(fig5_module, "uniform_random", "bench.uniform_random"):
                with tracer.spans.span("bench.run_fig5"):
                    curve = self._sweep(definition)
        ms = 1000.0 * (time.perf_counter() - t0)
        for result in results:
            record_labeling(tracer, result)
        self.check(
            panel_digest(curve) == oracle,
            f"{self.name}: Definition {definition.value} panel differs from "
            "the dense/reference sweep",
        )
        return ms, float(len(self.f_values) * self.trials)

    def window(self, seconds: float, tracer: Optional[Tracer]) -> Window:
        return run_passes(self, self.items, self._op, seconds, tracer)
