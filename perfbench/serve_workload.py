"""``serve-mixed``: writes beside reads on one durable labeling service.

``repro serve`` runs in its own process on a 1000x1000 Definition-2b
mesh, durable (``--wal-dir`` under the benchmark's output directory,
default snapshot/fsync settings).  Set-up starts it, sends 100 uniform
initial faults as one update, and is repeated; the last server takes
the load.  The load is a closed loop over two TCP loopback connections,
each on its own thread.  A connection cycles through::

    update inject [c]  ->  query 8 nodes  ->  update repair [c]  ->  query 8 nodes

with a fresh cell ``c`` each cycle (so every injected cell is repaired
and the two connections never touch the same cell).  Connection 0 also
sends one ``query regions`` every ``regions_every`` cycles, which
re-extracts the geometry of the current version; the final ``snapshot``
goes over the same connection.  Keeping the large geometry allocations
on one server thread keeps the server's peak RSS from depending on
which threads' malloc arenas they landed in.

Checks: every response is ``ok`` and echoes its update's ``seq`` and
cell; update versions rise on each connection and never repeat across
connections; after the load the ``snapshot`` equals scratch
``label_mesh`` of the final fault set; after ``shutdown`` the process
exits promptly and ``recover_state(wal_dir).verified`` holds.

A traced run hosts ``LabelingServer`` in-process instead, so the timing
wrappers reach the server-side layers.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.service.server as server_module
from repro.core.incremental import IncrementalLabeling
from repro.core.pipeline import label_mesh
from repro.core.status import SafetyDefinition
from repro.errors import ReproError
from repro.faults.faultset import FaultSet
from repro.faults.generators import uniform_random
from repro.mesh.topology import Mesh2D
from repro.service import (
    LabelingServer,
    LabelingService,
    ServiceClient,
    SnapshotStore,
    WriteAheadLog,
    recover_state,
)

from harness import OUT_DIR, ROOT, Tracer, Window, Workload, median, reference_ms

#: Longest a stopped server may take to exit: well under the server's
#: 10 s drain and 60 s connection timeouts, so waiting one out fails.
EXIT_BUDGET_S = 3.0


def region_rows(regions) -> List[Tuple[int, int, int, int]]:
    return sorted((len(r.cells), r.num_faults, r.num_nonfaulty, r.diameter) for r in regions)


def snapshot_errors(response: dict, topology, faults: FaultSet, definition) -> List[str]:
    """Compare a ``snapshot`` response with scratch labeling of ``faults``."""
    scratch = label_mesh(topology, faults, definition)
    errors = []
    summary = response.get("summary", {})
    want = scratch.summary()
    for key in ("f", "num_blocks", "num_regions", "unsafe_nonfaulty", "activated", "enabled_ratio"):
        if summary.get(key) != want[key]:
            errors.append(f"snapshot {key}={summary.get(key)!r}, scratch {want[key]!r}")
    got_regions = sorted(
        (r["cells"], r["faults"], r["nonfaulty"], r["diameter"])
        for r in response.get("regions", [])
    )
    if got_regions != region_rows(scratch.regions):
        errors.append("snapshot regions differ from scratch")
    got_blocks = sorted(
        (tuple(b["origin"]), b["cells"], b["faults"]) for b in response.get("blocks", [])
    )
    want_blocks = sorted(
        (b.cells.bounding_box()[:2], len(b.cells), len(b.faults)) for b in scratch.blocks
    )
    if got_blocks != want_blocks:
        errors.append("snapshot blocks differ from scratch")
    return errors


class _Server:
    """One running server, in its own process or hosted in-process."""

    def __init__(self, workload: "ServeMixed", wal_dir: str, tracer: Optional[Tracer]):
        self.wal_dir = wal_dir
        self.proc: Optional[subprocess.Popen] = None
        self.rss_mb = 0.0
        size = workload.size
        if workload.traced:
            telemetry = tracer.telemetry if tracer is not None else None
            # The CLI's defaults: checkpoint every 1024 deltas, no periodic fsync.
            self.service = LabelingService(
                Mesh2D(size, size),
                SafetyDefinition.DEF_2B,
                telemetry=telemetry,
                wal_dir=wal_dir,
                snapshot_every=1024,
            )
            self.server = LabelingServer(self.service, telemetry=telemetry)
            self.thread = self.server.serve_in_thread()
            self.host, self.port = self.server.address
            return
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.log_path = wal_dir + ".log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--size", str(size), "--definition", "2b",
                "--host", "127.0.0.1", "--port", "0",
                "--wal-dir", wal_dir,
            ],
            cwd=ROOT,
            env=env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.host, self.port = self._await_listening(timeout=60.0)

    def _await_listening(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path, "r", encoding="utf-8", errors="replace") as fh:
                for line in fh:
                    if line.startswith("listening on "):
                        host, port = line.split()[-1].rsplit(":", 1)
                        return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.kill()
        with open(self.log_path, "r", encoding="utf-8", errors="replace") as fh:
            raise RuntimeError(f"repro serve did not start:\n{fh.read()}")

    def connect(self) -> ServiceClient:
        return ServiceClient.connect_tcp(self.host, self.port, timeout=60.0, retries=0)

    def stop(self) -> Optional[float]:
        """Send ``shutdown``; return seconds until the server exited
        (``None`` if it overstayed :data:`EXIT_BUDGET_S` and was killed)."""
        with self.connect() as client:
            t0 = time.monotonic()
            client.shutdown()
        if self.proc is None:
            self.thread.join(EXIT_BUDGET_S)
            exited = not self.thread.is_alive()
            waited = time.monotonic() - t0
            self.server.drain(timeout=EXIT_BUDGET_S)
            self.server.close()
            return waited if exited else None
        deadline = t0 + EXIT_BUDGET_S
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rss_mb = usage.ru_maxrss / 1024.0
                self._log.close()
                return time.monotonic() - t0
            if time.monotonic() > deadline:
                self.kill()
                return None
            time.sleep(0.005)

    def kill(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
            self._log.close()
        elif self.proc is None and self.thread.is_alive():
            self.server.shutdown()
            self.thread.join(30)
            self.server.close()


class ServeMixed(Workload):
    name = "serve-mixed"
    # p99.9 (~60 samples beyond) catches the checkpoint and region-query
    # stalls; p99 moves with host noise alone.
    tail_pct = 99.9
    work_unit = "responses/s"
    parents = {
        "bench.request": None,
        "bench.dispatch": "bench.request",
        "service_request": "bench.dispatch",
        "service_update": "service_request",
        "bench.incremental_apply": "service_update",
        "bench.wal_append": "service_request",
        "bench.snapshot_write": "service_request",
        "bench.snapshot": "service_request",
        "extract_blocks": "bench.snapshot",
        "extract_regions": "bench.snapshot",
    }

    size = 1000
    initial_faults = 100
    connections = 2
    query_coords = 8
    regions_every = 500  # connection-0 cycles between region queries
    ref_samples = 25  # reference-task samples before and after the load
    setups = 5
    cells_per_connection = 4096

    def __init__(self, seed: int, traced: bool):
        super().__init__(seed, traced)
        self.topology = Mesh2D(self.size, self.size)
        self.definition = SafetyDefinition.DEF_2B
        self.workdir = os.path.join(OUT_DIR, f"serve-{os.getpid()}")
        self.server: Optional[_Server] = None
        self._kept: Optional[ServiceClient] = None
        self._servers = 0
        self._versions: List[int] = []
        self._lock = threading.Lock()

    # -- inputs and server lifecycle ------------------------------------------

    def _inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.initial = uniform_random(self.topology.shape, self.initial_faults, rng)
        free = np.flatnonzero(~self.initial.mask.ravel())
        picks = rng.choice(free, size=self.connections * self.cells_per_connection, replace=False)
        h = self.size
        self.cells = [
            [(int(i // h), int(i % h)) for i in chunk]
            for chunk in np.split(picks, self.connections)
        ]
        flat = rng.integers(0, self.size, size=(self.connections, 512, self.query_coords, 2))
        self.queries = [
            [[[int(x), int(y)] for x, y in q] for q in conn] for conn in flat
        ]

    def _start(self, tracer: Optional[Tracer]) -> None:
        self._servers += 1
        wal_dir = os.path.join(self.workdir, f"wal-{self._servers}")
        self.server = _Server(self, wal_dir, tracer)
        with self.server.connect() as client:
            response = client.request(
                {
                    "op": "update",
                    "inject": [list(c) for c in sorted(self.initial)],
                    "client": "setup",
                    "seq": 1,
                }
            )
        self.final_check(
            bool(response.get("ok"))
            and len(response.get("delta", {}).get("injected", [])) == self.initial_faults,
            f"{self.name}: initial update failed: {response}",
        )

    def _stop(self) -> None:
        """Final checks of the current server, then stop it."""
        server, self.server = self.server, None
        client, self._kept = self._kept, None
        try:
            # The final snapshot goes over the connection that sent the
            # region queries, so it is served by the same server thread.
            with client if client is not None else server.connect() as conn:
                snap = conn.request({"op": "snapshot"})
            errors = [] if snap.get("ok") else [f"snapshot failed: {snap}"]
            errors += snapshot_errors(snap, self.topology, self.initial, self.definition)
            self.final_check(not errors, f"{self.name}: {'; '.join(errors)}")
            waited = server.stop()
            self.final_check(
                waited is not None,
                f"{self.name}: server still running {EXIT_BUDGET_S} s after shutdown",
            )
            try:
                recovered = recover_state(
                    server.wal_dir, topology=self.topology, definition=self.definition
                )
                problem = None
                if not recovered.verified or recovered.engine.faults != self.initial:
                    problem = "recovered state is not the final state"
            except ReproError as exc:
                problem = f"{type(exc).__name__}: {exc}"
            self.final_check(problem is None, f"{self.name}: recover_state: {problem}")
            if server.proc is not None:
                self.rss_mb = server.rss_mb
        finally:
            server.kill()

    def setup(self) -> List[float]:
        os.makedirs(self.workdir, exist_ok=True)
        self._inputs()
        times = []
        for k in range(self.setups):
            if self.server is not None:
                self._stop()
            t0 = time.perf_counter()
            self._start(None)
            times.append(time.perf_counter() - t0)
        return times

    def close(self) -> None:
        try:
            if self.server is not None:
                self._stop()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def peak_rss_mb(self) -> float:
        if self.traced:
            return super().peak_rss_mb()
        return self.rss_mb

    # -- load -------------------------------------------------------------------

    def _connection(
        self, index: int, client: ServiceClient, deadline: float, win: Window
    ) -> None:
        """One closed-loop caller; merges its samples and verdicts at the end."""
        samples: Dict[str, List[float]] = {"update": [], "query": [], "regions": []}
        versions: List[int] = []
        failures: List[str] = []
        cells = self.cells[index]
        queries = self.queries[index]
        cid = f"load-{index}"
        seq = 0
        cycle = 0

        def timed(kind: str, payload: dict) -> dict:
            t0 = time.perf_counter()
            response = client.request(payload)
            samples[kind].append(1000.0 * (time.perf_counter() - t0))
            return response

        try:
            while time.perf_counter() < deadline:
                cell = [*cells[cycle % len(cells)]]
                for field, key in (("inject", "injected"), ("repair", "repaired")):
                    seq += 1
                    resp = timed(
                        "update",
                        {"op": "update", field: [cell], "client": cid, "seq": seq},
                    )
                    version = resp.get("version", -1)
                    if not (
                        resp.get("ok") is True
                        and resp.get("seq") == seq
                        and resp.get("delta", {}).get(key) == [cell]
                        and (not versions or version > versions[-1])
                    ):
                        failures.append(f"bad update response {resp}")
                    versions.append(version)
                    coords = queries[(2 * cycle + (field == "repair")) % len(queries)]
                    resp = timed("query", {"op": "query", "coords": coords})
                    if not (
                        resp.get("ok") is True
                        and [n.get("coord") for n in resp.get("nodes", [])] == coords
                    ):
                        failures.append(f"bad query response {resp}")
                cycle += 1
                if index == 0 and cycle % self.regions_every == 0:
                    resp = timed("regions", {"op": "query", "what": "regions"})
                    if not (resp.get("ok") is True and resp.get("regions")):
                        failures.append(f"bad regions response {resp}")
        except Exception as exc:  # noqa: BLE001 - a dead connection is a result
            failures.append(f"connection {index}: {type(exc).__name__}: {exc}")
        with self._lock:
            for kind, values in samples.items():
                win.by_kind[kind].extend(values)
                win.op_ms.extend(values)
            self._versions.extend(versions)
            self.attempted += sum(len(v) for v in samples.values())
            for message in failures:
                self.fail(f"{self.name}: {message}")

    def window(self, seconds: float, tracer: Optional[Tracer]) -> Window:
        if tracer is not None:
            # The traced half needs a server built with the tracer's telemetry.
            self._stop()
            self._start(tracer)
        win = Window()
        self._versions = []
        clients = [self.server.connect() for _ in range(self.connections)]
        if tracer is not None:
            for client in clients:
                client.request = tracer.wrap("bench.request", client.request)
        # Reference samples bracket the load rather than interleave with
        # it (on a connection thread the task would hold the GIL the other
        # connection needs); every request is paired with their median.
        win.ref_ms.extend(reference_ms() for _ in range(self.ref_samples))
        deadline = time.perf_counter() + seconds
        threads = [
            threading.Thread(target=self._connection, args=(i, c, deadline, win))
            for i, c in enumerate(clients)
        ]
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                for owner, attr, span, on_result in (
                    (server_module, "handle_request", "bench.dispatch", None),
                    (
                        IncrementalLabeling,
                        "apply",
                        "bench.incremental_apply",
                        lambda r: tracer.add(
                            "core.incremental_rounds", r.rounds_phase1 + r.rounds_phase2
                        ),
                    ),
                    (
                        WriteAheadLog,
                        "append",
                        "bench.wal_append",
                        lambda n: tracer.add("service.wal_bytes", n),
                    ),
                    (SnapshotStore, "write", "bench.snapshot_write", None),
                    (LabelingService, "snapshot", "bench.snapshot", None),
                ):
                    stack.enter_context(tracer.patched(owner, attr, span, on_result))
            t_start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            win.busy_s = time.perf_counter() - t_start
            win.ref_ms.extend(reference_ms() for _ in range(self.ref_samples))
        ref = median(win.ref_ms)
        win.op_ref = [ms / ref for ms in win.op_ms]
        for client in clients[1:]:
            client.close()
        self._kept = clients[0]
        win.work = float(len(win.op_ms))
        self.final_check(
            len(set(self._versions)) == len(self._versions),
            f"{self.name}: two updates were acknowledged with the same version",
        )
        return win
