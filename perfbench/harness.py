"""Shared machinery of the repository benchmark.

A workload object owns its inputs (built from ``--seed`` in
:meth:`setup`), runs a timed *window* of operations against the
program's public entry points, and checks every output it gets back.
This module turns one workload run into the printed report:

* :func:`run_workload` — set-up, the timed window, the final checks,
  and the end-to-end metrics (``--trace 0``) or the per-layer table
  (``--trace 1``);
* :class:`Tracer` — the traced run's instrument: timing wrappers around
  calls into each layer, recorded as spans on the same
  :class:`~repro.obs.spans.SpanRecorder` the program's own spans
  (``phase_unsafe``, ``extract_regions``, ``service_request``, ...)
  land on, so one Chrome trace holds both;
* provenance (commit or source digest, ``nproc``, host, versions).

Every timing uses :func:`time.perf_counter`.  The end-to-end numbers
come from untraced runs only; a traced run times an untraced half and a
traced half of its window and reports their ratio as
``obs.tracing_overhead``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import socket
import statistics
import subprocess
import threading
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.spans import SpanRecorder
from repro.obs.telemetry import Telemetry

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Records, Chrome traces and service write-ahead logs go here (ignored by git).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Seed reserved for confirming a later performance claim: tune on
#: other seeds, then show the claim still holds on this one.
HELDOUT_SEED = 9_040_517


# -- statistics ---------------------------------------------------------------


def nearest_rank(values: Sequence[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, int(np.ceil(pct / 100.0 * len(ordered))))
    return float(ordered[rank - 1]), len(ordered) - rank


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


_REF_GRID = np.random.default_rng(0).random((256, 256)) < 0.3


def reference_ms() -> float:
    """Milliseconds a fixed reference task takes right now.

    The shared host's speed drifts by up to 2x over minutes, and not by
    the same factor for every kind of code.  The task therefore mixes
    the kinds of work the workloads do: a pure-Python loop, 30
    Game-of-Life steps on a 256x256 grid in numpy, and 2000 fresh
    100x100 masks (the size of a Figure-5 component mask) allocated and
    probed — about 20 ms on the reference host.  Nothing it allocates
    lasts, so peak RSS stays the program's.  An op time divided by the
    reference time measured beside it is the op's cost in units of
    host speed, which a change to the program moves and the host
    barely does.
    """
    t0 = time.perf_counter()
    x = 0
    for k in range(100_000):
        x += k * k
    grid = _REF_GRID
    for _ in range(30):
        n = np.zeros((258, 258), dtype=np.int8)
        for dx in range(3):
            for dy in range(3):
                if dx or dy:
                    n[dx : dx + 256, dy : dy + 256] += grid
        inner = n[1:257, 1:257]
        grid = (inner == 3) | (grid & (inner == 2))
    for _ in range(2000):
        mask = np.zeros((100, 100), dtype=bool)
        mask[50, 50] = True
        mask.any()
    return 1000.0 * (time.perf_counter() - t0)


# -- tracing --------------------------------------------------------------------


class Tracer:
    """Times calls into the program's layers and records them as spans.

    Wrapper spans are named ``bench.<function>``; the program's own spans
    keep their names.  :meth:`table` folds every span of the recorder
    into per-name totals and self times, using the workload's declared
    parent of each span (spans from concurrent threads overlap, so
    nesting is declared rather than inferred from timestamps).
    """

    def __init__(self, name: str):
        self.spans = SpanRecorder(name)
        self.telemetry = Telemetry(spans=self.spans)
        self._lock = threading.Lock()
        self.values: Dict[str, float] = defaultdict(float)

    def add(self, key: str, amount: float) -> None:
        """Accumulate a count read from a layer's return value."""
        with self._lock:
            self.values[key] += amount

    def wrap(
        self,
        span: str,
        fn: Callable,
        on_result: Optional[Callable] = None,
        **extra: object,
    ):
        """``fn`` timed under ``span``; ``extra`` keyword arguments are
        added to every call and ``on_result`` sees every return value."""
        spans = self.spans

        def timed(*args, **kwargs):
            with spans.span(span):
                out = fn(*args, **kwargs, **extra)
            if on_result is not None:
                on_result(out)
            return out

        return timed

    @contextmanager
    def patched(
        self,
        owner: object,
        attr: str,
        span: str,
        on_result: Optional[Callable] = None,
        **extra: object,
    ) -> Iterator[None]:
        """Route ``owner.attr`` (a module function or a class method)
        through a timing wrapper for the duration of the block."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(span, original, on_result, **extra))
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def totals(self) -> Dict[str, Tuple[float, int]]:
        """Span name -> (total ms, calls)."""
        out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for ev in self.spans.to_chrome_trace()["traceEvents"]:
            if ev.get("ph") != "X":
                continue
            acc = out[ev["name"]]
            acc[0] += ev["dur"] / 1000.0
            acc[1] += 1
        return {k: (v[0], int(v[1])) for k, v in out.items()}

    def table(self, parents: Dict[str, Optional[str]]) -> List[dict]:
        """Rows ``{span, parent, calls, total_ms, self_ms}`` for every
        span the workload declares (absent spans read zero)."""
        totals = self.totals()
        rows = []
        for span, parent in parents.items():
            total, calls = totals.get(span, (0.0, 0))
            children = sum(
                totals.get(child, (0.0, 0))[0]
                for child, p in parents.items()
                if p == span
            )
            rows.append(
                {
                    "span": span,
                    "parent": parent,
                    "calls": calls,
                    "total_ms": total,
                    "self_ms": total - children,
                }
            )
        return rows


# -- workload protocol -----------------------------------------------------------


@dataclass
class Window:
    """What one timed window measured."""

    op_ms: List[float] = field(default_factory=list)
    work: float = 0.0  # units of work completed (see Workload.work_unit)
    #: Seconds the program was busy with the window's ops: the summed op
    #: times for one caller (output checks excluded), the wall time for
    #: concurrent callers.
    busy_s: float = 0.0
    by_kind: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    #: Reference-task milliseconds taken beside the ops (never inside
    #: one): per op for a single caller, raw samples for concurrent ones.
    ref_ms: List[float] = field(default_factory=list)
    #: Each op's time over the reference time taken beside it.
    op_ref: List[float] = field(default_factory=list)


class Workload:
    """Base class; subclasses fill in the four hooks."""

    name = "?"
    #: Fixed tail percentile: the highest one the window's expected
    #: sample count leaves at least ten samples beyond.
    tail_pct = 99.0
    work_unit = "ops"
    #: Span -> declared parent span, for the traced self-time table.
    parents: Dict[str, Optional[str]] = {}

    def __init__(self, seed: int, traced: bool):
        self.seed = seed
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, ok: bool, message: str) -> None:
        """The output check of an op already counted as attempted."""
        if not ok:
            self.fail(message)

    def final_check(self, ok: bool, message: str) -> None:
        """An end-of-run check: one more attempt, failed if false."""
        self.attempted += 1
        self.check(ok, message)

    def setup(self) -> List[float]:
        """Build inputs and oracles; return each set-up repetition's seconds."""
        raise NotImplementedError

    def window(self, seconds: float, tracer: Optional[Tracer]) -> Window:
        raise NotImplementedError

    def close(self) -> None:
        """Tear down and run the end-of-run checks."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(
    workload: Workload,
    items: Sequence[object],
    op: Callable[[object, Optional[Tracer]], Tuple[float, float]],
    seconds: float,
    tracer: Optional[Tracer],
    min_passes: int = 1,
) -> Window:
    """Closed loop with one caller: run ``op`` over every item in turn,
    in whole passes, until ``seconds`` have elapsed.

    Whole passes keep each item's share of the samples equal, so the
    median does not depend on where the window happened to end.  ``op``
    times its own call into the program (output checks stay outside
    the timing) and returns ``(ms, work units)``; an exception counts
    as a failed op.  Every op is paired with the median of the
    :func:`reference_ms` samples taken right before it: one, or as many
    as fill a twentieth of the previous op's time, so that a single
    noisy sample cannot skew the ratio of a long op.
    """
    win = Window()
    t_start = time.perf_counter()
    passes = 0
    pass_s = 0.0
    last_ms = 0.0
    # Start another pass only if at least half of it fits the window.
    while passes < min_passes or time.perf_counter() - t_start + pass_s / 2 < seconds:
        t_pass = time.perf_counter()
        for item in items:
            workload.attempted += 1
            refs = [reference_ms()]
            while sum(refs) < last_ms / 20.0:
                refs.append(reference_ms())
            ref = median(refs)
            win.ref_ms.append(ref)
            try:
                ms, work = op(item, tracer)
            except Exception:  # noqa: BLE001 - an op failure is a result
                workload.fail(traceback.format_exc(limit=3))
                continue
            last_ms = ms
            win.op_ms.append(ms)
            win.op_ref.append(ms / ref)
            win.work += work
        passes += 1
        pass_s = time.perf_counter() - t_pass
    win.busy_s = sum(win.op_ms) / 1000.0
    return win


# -- per-layer metrics ------------------------------------------------------------

#: Label-pipeline spans recorded inside one ``label_mesh`` call.
LABEL_CHILDREN = ("phase_unsafe", "phase_enable", "extract_blocks", "extract_regions")


def record_labeling(tracer: Tracer, result) -> None:
    """Exact counts of one :class:`~repro.core.pipeline.LabelingResult`."""
    parts = list(result.blocks) + list(result.regions)
    tracer.add("core.rounds_phase1", result.rounds_phase1)
    tracer.add("core.rounds_phase2", result.rounds_phase2)
    tracer.add("geometry.components", len(parts))
    tracer.add(
        "geometry.mask_mb", sum(p.cells.mask.nbytes for p in parts) / 2**20
    )


def layer_metrics(tracer: Tracer, ops: int) -> Dict[str, float]:
    """Every per-layer metric, from the traced half of a window.

    ``*_ms`` values are mean milliseconds per call of the timed
    function or span; counts are means per op (whole passes make them
    exact); a layer the workload does not reach reads zero.
    """
    totals = tracer.totals()

    def total(span: str) -> float:
        return totals.get(span, (0.0, 0))[0]

    def calls(span: str) -> int:
        return totals.get(span, (0.0, 0))[1]

    def mean(span: str) -> float:
        return total(span) / calls(span) if calls(span) else 0.0

    def self_mean(span: str, children: Sequence[str]) -> float:
        if not calls(span):
            return 0.0
        return (total(span) - sum(total(c) for c in children)) / calls(span)

    def per_op(key: str) -> float:
        return tracer.values.get(key, 0.0) / ops if ops else 0.0

    def per_call(key: str, span: str) -> float:
        return tracer.values.get(key, 0.0) / calls(span) if calls(span) else 0.0

    rtt, dispatch = mean("bench.request"), mean("bench.dispatch")
    return {
        "core.phase_unsafe_ms": mean("phase_unsafe"),
        "core.phase_enable_ms": mean("phase_enable"),
        "core.label_other_ms": self_mean("bench.label_mesh", LABEL_CHILDREN),
        "core.rounds_phase1": per_op("core.rounds_phase1"),
        "core.rounds_phase2": per_op("core.rounds_phase2"),
        "geometry.extract_blocks_ms": mean("extract_blocks"),
        "geometry.extract_regions_ms": mean("extract_regions"),
        "geometry.components": per_op("geometry.components"),
        "geometry.mask_mb": per_op("geometry.mask_mb"),
        "faults.uniform_random_ms": mean("bench.uniform_random"),
        "analysis.sweep_other_ms": self_mean(
            "bench.run_fig5", ("bench.label_mesh", "bench.uniform_random")
        ),
        "service.rtt_ms": rtt,
        "service.dispatch_ms": dispatch,
        "service.wire_ms": rtt - dispatch if calls("bench.dispatch") else 0.0,
        "core.incremental_apply_ms": mean("bench.incremental_apply"),
        "core.incremental_rounds": per_call(
            "core.incremental_rounds", "bench.incremental_apply"
        ),
        "service.wal_append_ms": mean("bench.wal_append"),
        "service.wal_bytes_per_update": per_call(
            "service.wal_bytes", "bench.wal_append"
        ),
        "service.snapshot_write_ms": mean("bench.snapshot_write"),
        "service.snapshots": float(calls("bench.snapshot_write")),
        "service.snapshot_ms": mean("bench.snapshot"),
        "routing.decide_ms": mean("bench.decide"),
        "routing.decide_calls": calls("bench.decide") / ops if ops else 0.0,
        "network.engine_self_ms": self_mean("bench.batched_run", ("bench.decide",)),
        "network.cycles": per_op("network.cycles"),
        "network.delivered": per_op("network.delivered"),
        "network.stuck": per_op("network.stuck"),
        "network.mean_latency_cycles": per_op("network.mean_latency_cycles"),
    }


# -- provenance -----------------------------------------------------------------


def _commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over ``src/**/*.py`` — identifies the code even in a
    checkout that is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    return {
        "commit": _commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "heldout_seed": HELDOUT_SEED,
    }


# -- one run ----------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def run_workload(
    workload: Workload, seconds: float, declared: Dict[str, str]
) -> dict:
    """Run one workload end to end and return the result line.

    ``declared`` maps each metric name this mode must report in the
    result line to its unit (from ``BENCHMARK.json``); missing one is an
    error in the benchmark itself.  Every measured value, declared or
    not, goes into the record.
    """
    prov = provenance(workload.seed)
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    record: dict = {"workload": workload.name, "provenance": prov}
    try:
        setups = workload.setup()
        if workload.traced:
            half = seconds / 2.0
            base = workload.window(half, None)
            tracer = Tracer(workload.name)
            traced = workload.window(half, tracer)
            # Fold the trace now: the end-of-run checks in close() are
            # not part of the window.
            values = layer_metrics(tracer, len(traced.op_ms))
            values["obs.tracing_overhead"] = (
                median(traced.op_ms) / median(base.op_ms)
                if traced.op_ms and base.op_ms
                else float("nan")
            )
            _print_layer_table(workload, tracer, traced)
            os.makedirs(OUT_DIR, exist_ok=True)
            trace_path = os.path.join(
                OUT_DIR, f"{workload.name}-seed{workload.seed}-trace.json"
            )
            tracer.spans.write(trace_path)
            print(f"chrome trace: {os.path.relpath(trace_path, ROOT)}")
            record["self_time"] = tracer.table(workload.parents)
            record["traced_ops"] = len(traced.op_ms)
        else:
            main = workload.window(seconds, None)
    finally:
        workload.close()
    if not workload.traced:
        # After close(): a served workload's peak RSS is read when its
        # server process exits.
        values = end_to_end(workload, main, setups)
        _print_end_to_end(workload, main, setups, values)
        record["percentiles_ms"] = {
            kind: {f"p{p:g}": nearest_rank(samples, p) for p in (50, 90, 99, 99.9)}
            for kind, samples in [("op", main.op_ms), *sorted(main.by_kind.items())]
            if samples
        }
        record["setup_s"] = setups
        if len(main.op_ms) <= 1000:
            record["samples"] = {"op_ms": main.op_ms, "ref_ms": main.ref_ms}

    missing = set(declared) - set(values)
    if missing:
        raise RuntimeError(f"workload {workload.name} did not measure {sorted(missing)}")
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in declared.items()
    }
    record["measured"] = values

    attempted = max(1, workload.attempted)
    print(
        f"error_rate = {workload.failed / attempted:.6g} failed or wrong / attempted "
        f"({workload.failed} of {attempted})"
    )
    for err in workload.errors:
        print(f"FAILED CHECK: {err}")
    line = {
        "correct": workload.failed == 0,
        "attempted": attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    record["result"] = line
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR,
        f"{workload.name}-seed{workload.seed}-"
        f"{'traced' if workload.traced else 'e2e'}.json",
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return line


def end_to_end(workload: Workload, win: Window, setups: List[float]) -> Dict[str, float]:
    if not win.op_ms:
        raise RuntimeError(f"{workload.name}: no operation completed")
    if not win.op_ref:
        raise RuntimeError(f"{workload.name}: no reference-task sample")
    tail, _ = nearest_rank(win.op_ms, workload.tail_pct)
    return {
        "setup_s": median(setups),
        "op_ref_p50": median(win.op_ref),
        "op_ms_p50": median(win.op_ms),
        "ref_ms_p50": median(win.ref_ms),
        "op_ms_tail": tail,
        "throughput_per_s": win.work / win.busy_s,
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def _print_end_to_end(
    workload: Workload, win: Window, setups: List[float], values: Dict[str, float]
) -> None:
    n = len(win.op_ms)
    _, beyond = nearest_rank(win.op_ms, workload.tail_pct)
    print(f"== {workload.name}: end-to-end (untraced) ==")
    print(f"setup_s          = {_fmt(values['setup_s'])} s (median of {len(setups)} set-ups)")
    print(
        f"op_ref_p50       = {_fmt(values['op_ref_p50'])} ref "
        f"(op time / reference time beside it, n={len(win.op_ref)})"
    )
    print(f"op_ms_p50        = {_fmt(values['op_ms_p50'])} ms (n={n})")
    print(
        f"ref_ms_p50       = {_fmt(values['ref_ms_p50'])} ms "
        f"(reference task, n={len(win.ref_ms)})"
    )
    print(
        f"op_ms_tail       = {_fmt(values['op_ms_tail'])} ms "
        f"(p{workload.tail_pct:g}, n={n}, {beyond} beyond)"
    )
    print(
        f"throughput_per_s = {_fmt(values['throughput_per_s'])} 1/s "
        f"({workload.work_unit}; {_fmt(win.work)} in {_fmt(win.busy_s)} busy s)"
    )
    print(f"peak_rss_mb      = {_fmt(values['peak_rss_mb'])} MB")
    for kind, samples in sorted(win.by_kind.items()):
        if not samples:
            continue
        p50 = median(samples)
        pct = 99.0 if len(samples) >= 1000 else 50.0
        t, b = nearest_rank(samples, pct)
        print(
            f"{kind + '_ms_p50':<16} = {_fmt(p50)} ms (n={len(samples)}); "
            f"p{pct:g} {_fmt(t)} ms ({b} beyond)"
        )


def _print_layer_table(workload: Workload, tracer: Tracer, traced: Window) -> None:
    ops = len(traced.op_ms)
    op_total = sum(traced.op_ms)
    print(f"== {workload.name}: self time per op (traced half, {ops} ops) ==")
    print(f"{'span':<28}{'calls/op':>10}{'total ms/op':>13}{'self ms/op':>12}{'share':>8}")
    for row in tracer.table(workload.parents):
        if not ops:
            break
        share = row["self_ms"] / op_total if op_total else 0.0
        print(
            f"{row['span']:<28}{row['calls'] / ops:>10.4g}"
            f"{row['total_ms'] / ops:>13.4g}{row['self_ms'] / ops:>12.4g}"
            f"{100.0 * share:>7.1f}%"
        )
    print(f"{'(op, as the caller saw it)':<28}{1:>10}{op_total / max(ops, 1):>13.4g}")
