"""Self-tests of the benchmark at tiny sizes.

Run from the repository root: ``PYTHONPATH=src python -m pytest -q perfbench``.
They check that every workload reports exactly the metrics
``BENCHMARK.json`` declares, with their units, that corrupted outputs
trip the output checks, and that the command refuses to run without the
program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from harness import OUT_DIR, median, nearest_rank, run_workload  # noqa: E402
from label_workloads import (  # noqa: E402
    Fig5Sweep,
    LabelSparse4k,
    labeling_digest,
    panel_digest,
)
from run import declared_metrics  # noqa: E402
from serve_workload import ServeMixed, snapshot_errors  # noqa: E402
from traffic_workload import TrafficCampaign, traffic_errors  # noqa: E402

from repro.analysis.fig5 import run_fig5  # noqa: E402
from repro.core.pipeline import label_mesh  # noqa: E402
from repro.core.status import SafetyDefinition  # noqa: E402
from repro.faults.generators import clustered, uniform_random  # noqa: E402
from repro.mesh.topology import Mesh2D  # noqa: E402
from repro.network.batched import BatchedNetwork  # noqa: E402
from repro.network.traffic import synthetic_traffic  # noqa: E402
from repro.routing.base import FaultModelView  # noqa: E402


class TinyLabel(LabelSparse4k):
    size, faults, instances = 48, 12, 2


class TinyFig5(Fig5Sweep):
    size, f_values, trials = 16, (0, 4), 2


class TinyServe(ServeMixed):
    size, initial_faults, regions_every, setups = 32, 6, 3, 2
    cells_per_connection = 64


class TinyTraffic(TrafficCampaign):
    size, faults, packets, rate, instances = 24, 10, 400, 20.0, 2


TINY = [TinyLabel, TinyFig5, TinyServe, TinyTraffic]


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_spec_names_every_workload_but_the_sweep():
    # fig5-sweep stays runnable for its layer table but is not declared:
    # its op time is too unsteady on the reference host to bound.
    names = {w["name"] for w in _spec()["workloads"]}
    assert names == {cls.name for cls in TINY} - {Fig5Sweep.name}


@pytest.mark.parametrize("traced", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("cls", TINY, ids=[c.name for c in TINY])
def test_every_declared_metric_is_printed_with_its_unit(cls, traced, capsys):
    declared = declared_metrics(traced)
    line = run_workload(cls(seed=3, traced=traced), 0.3, declared)
    out = capsys.readouterr().out
    assert line["correct"], out
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    for name, metric in line["metrics"].items():
        assert np.isfinite(metric["value"]), name
    if traced:
        assert "self time per op" in out
    else:
        # Wall times, tails and throughput are printed beside the
        # declared metrics.
        for name in [
            *declared,
            "op_ms_p50",
            "ref_ms_p50",
            "op_ms_tail",
            "throughput_per_s",
        ]:
            assert name in out
        for metric in line["metrics"].values():
            assert metric["value"] > 0


def test_op_ref_pairs_each_op_with_the_reference_before_it(capsys):
    line = run_workload(TinyLabel(seed=5, traced=False), 0.3, declared_metrics(False))
    path = os.path.join(OUT_DIR, f"{TinyLabel.name}-seed5-e2e.json")
    with open(path, encoding="utf-8") as fh:
        samples = json.load(fh)["samples"]
    assert len(samples["op_ms"]) == len(samples["ref_ms"]) == line["attempted"]
    ratios = [o / r for o, r in zip(samples["op_ms"], samples["ref_ms"])]
    assert line["metrics"]["op_ref_p50"]["value"] == pytest.approx(median(ratios))


def test_traced_label_run_reaches_its_layers(capsys):
    line = run_workload(TinyLabel(seed=4, traced=True), 0.3, declared_metrics(True))
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert m["core.phase_unsafe_ms"] > 0 and m["geometry.extract_regions_ms"] > 0
    assert m["geometry.components"] > 0 and m["core.rounds_phase1"] > 0
    assert m["routing.decide_ms"] == 0 and m["service.rtt_ms"] == 0


def test_flipped_label_bit_changes_the_digest():
    topo = Mesh2D(32, 32)
    faults = clustered(topo.shape, 10, np.random.default_rng(1), clusters=2)
    result = label_mesh(topo, faults)
    digest = labeling_digest(result)
    # Flip the enabled bit of an unsafe nonfaulty node: a single-bit
    # error the label-plane invariants cannot catch on their own.
    x, y = np.argwhere(result.labels.unsafe & ~result.labels.faulty)[0]
    enabled = result.labels.enabled.copy()
    enabled[x, y] = ~enabled[x, y]
    corrupted = dataclasses.replace(
        result, labels=dataclasses.replace(result.labels, enabled=enabled)
    )
    assert labeling_digest(corrupted) != digest
    assert labeling_digest(label_mesh(topo, faults, method="dense")) == digest


class WrongOracle(TinyLabel):
    def setup(self):
        times = super().setup()
        faults, _ = self.items[0]
        self.items[0] = (faults, "0" * 64)
        return times


def test_label_workload_counts_a_wrong_output(capsys):
    line = run_workload(WrongOracle(seed=5, traced=False), 0.1, declared_metrics(False))
    assert not line["correct"] and line["failed"] >= 1
    assert "FAILED CHECK" in capsys.readouterr().out


def test_panel_digest_sees_one_changed_point():
    topo = Mesh2D(16, 16)
    curve = run_fig5(SafetyDefinition.DEF_2B, topology=topo, f_values=(0, 4), trials=2)
    changed = dataclasses.replace(
        curve,
        points=(dataclasses.replace(curve.points[0], f=99),) + curve.points[1:],
    )
    assert panel_digest(changed) != panel_digest(curve)


def _campaign():
    topo = Mesh2D(24, 24)
    rng = np.random.default_rng(2)
    faults = clustered(topo.shape, 10, rng, clusters=2)
    view = FaultModelView.from_regions(label_mesh(topo, faults))
    traffic = synthetic_traffic(view, 300, rng, injection_rate=20.0)
    return traffic, BatchedNetwork(view, kernel="detour").run(traffic)


def test_dropped_packet_trips_conservation_check():
    traffic, result = _campaign()
    assert traffic_errors(traffic, result) == []
    lost = int(np.flatnonzero(result.delivered_mask)[0])
    dropped = dataclasses.replace(
        result,
        **{
            name: np.delete(getattr(result, name), lost)
            for name in ("status", "reason", "start", "finish", "hops", "stalls")
        },
    )
    assert traffic_errors(traffic, dropped)


def test_too_fast_packet_trips_distance_check():
    traffic, result = _campaign()
    finish = result.finish.copy()
    first = int(np.flatnonzero(result.delivered_mask)[0])
    finish[first] = traffic.inject[first]
    assert traffic_errors(traffic, dataclasses.replace(result, finish=finish))


def test_snapshot_check_sees_a_wrong_region():
    topo = Mesh2D(32, 32)
    faults = uniform_random(topo.shape, 12, np.random.default_rng(3))
    result = label_mesh(topo, faults)
    response = {
        "summary": result.summary(),
        "blocks": [
            {
                "origin": list(b.cells.bounding_box()[:2]),
                "cells": len(b.cells),
                "faults": len(b.faults),
            }
            for b in result.blocks
        ],
        "regions": [
            {
                "cells": len(r.cells),
                "faults": r.num_faults,
                "nonfaulty": r.num_nonfaulty,
                "diameter": r.diameter,
            }
            for r in result.regions
        ],
    }
    definition = SafetyDefinition.DEF_2B
    assert snapshot_errors(response, topo, faults, definition) == []
    response["regions"][0]["cells"] += 1
    assert snapshot_errors(response, topo, faults, definition)


def test_nearest_rank_counts_samples_beyond():
    values = list(range(1, 101))
    assert nearest_rank(values, 90) == (90.0, 10)
    assert nearest_rank(values, 50) == (50.0, 50)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
