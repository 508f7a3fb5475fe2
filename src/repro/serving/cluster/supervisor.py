"""The cluster supervisor: one object that owns the whole serving tier.

:class:`Cluster` creates the tier's public listening socket, hands it to a
:class:`WorkerPool` spawning generations of workers that accept on it
themselves, keeps the :class:`WorkerTable` of the active generation, and
runs a monitor thread and a private admin server.  It stays out of the
data path: no query, batch or mine passes through this process.  It owns
the tier-wide views a worker hands to it — ``/healthz``, ``/metrics`` and
``/admin/reload`` — and the three lifecycle stories the tier promises:

**Crash recovery.**  The monitor waits on every live worker's process
sentinel, so a ``kill -9``'d worker is respawned the moment it dies, and
checks liveness a second way with a rate-limited HTTP ``/healthz`` probe
on the worker's private port (catches a wedged-but-running worker after
``heartbeat_misses`` consecutive failures).  The crash itself costs a
client nothing it cannot recover: every endpoint is an idempotent read, a
kept-alive connection the dead worker held fails before any response and
the client re-sends the request on a fresh connection, which a surviving
worker accepts.  Connections arriving while no worker is alive wait in the
listener's backlog, which this process owns, until a respawned worker
accepts them.

**Hot reload.**  ``reload()`` resolves the store's current versions; when
they differ from the served generation it spawns a *complete new
generation* (all-ready or the reload fails and the old generation keeps
serving).  The new workers accept on the same socket as soon as they are
ready; the table then swaps to them and the old workers drain: they stop
accepting, answer the last request of each connection they hold with
``Connection: close`` and exit, so every client's next connection reaches
the new generation.  A request arriving after a worker's drain ended is
refused by closing its connection unanswered, and the client re-sends it
on a fresh connection.  Nothing is dropped, and no response mixes
versions.

**Graceful shutdown.**  ``stop()`` drains the workers (each answers what
it is handling), then closes the listener and the admin server.  SIGTERM
on ``serve_forever`` triggers exactly this path via the same
:func:`~repro.serving.server.install_graceful_shutdown` hook as the
single-process server.

**Exact tier counters.**  Every worker counts its ``/healthz`` traffic
into an array in memory it shares with this process, and the tier's
``/healthz`` sums the arrays of the workers still counted plus one row
folded from those that exited — so the counters only go up and advance by
exactly the traffic sent, across respawns and reloads, with one exception:
a worker counts a request when it starts on it, so a request in flight
when its worker is ``kill -9``'d and re-sent by the client is counted
twice.  Each member of ``/healthz`` ``workers.members`` carries the same
counters for that worker alone.  ``/metrics`` scrapes every live worker's
registry and merges it with this process's ``dpsc_tier_*`` series
(:func:`repro.obs.merge_snapshots`: counters sum, histograms bucket-merge,
gauges stay per-worker).
"""

from __future__ import annotations

import json
import http.client
import socket
import threading
import time
from multiprocessing.connection import wait as wait_for_exit
from pathlib import Path
from typing import Sequence

from repro.exceptions import ReleaseNotFoundError, ReproError
from repro.obs import MetricsRegistry, merge_snapshots
from repro.serving.cluster.workers import WorkerHandle, WorkerPool, WorkerTable
from repro.serving.server import (
    DEFAULT_MAX_INFLIGHT,
    TRAFFIC_FIELDS,
    ServingHTTPError,
    create_server,
    install_graceful_shutdown,
)
from repro.serving.store import ReleaseStore

__all__ = ["Cluster"]

#: queued connections the public listener holds while every worker is busy
#: or none is alive (socketserver's default of 5 would refuse bursts).
LISTEN_BACKLOG = 1024

#: seconds one worker's ``/metrics`` scrape may take before it counts as failed.
SCRAPE_TIMEOUT = 5.0


def _traffic_dict(values) -> dict[str, int]:
    return {field: int(value) for field, value in zip(TRAFFIC_FIELDS, values)}


class Cluster:
    """A multi-process serving tier: N workers accepting on one listener."""

    def __init__(
        self,
        store: ReleaseStore | str | Path,
        names: Sequence[str] | None = None,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        mmap: bool = True,
        heartbeat_interval: float = 0.25,
        http_heartbeat_interval: float = 2.0,
        heartbeat_misses: int = 3,
        heartbeat_timeout: float = 5.0,
        spawn_timeout: float = 60.0,
        max_inflight: int | None = DEFAULT_MAX_INFLIGHT,
        shed_retry_after: float = 0.25,
        verbose: bool = False,
    ) -> None:
        if workers < 1:
            raise ReproError("a cluster needs at least one worker")
        self.store = store if isinstance(store, ReleaseStore) else ReleaseStore(store)
        self.names = list(names) if names else None
        self.num_workers = workers
        self.host = host
        self.requested_port = port
        self.verbose = verbose
        self.heartbeat_interval = heartbeat_interval
        self.http_heartbeat_interval = http_heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self.heartbeat_timeout = heartbeat_timeout
        self._pool = WorkerPool(
            self.store.root,
            mmap=mmap,
            max_inflight=max_inflight,
            shed_retry_after=shed_retry_after,
            spawn_timeout=spawn_timeout,
        )
        self.table = WorkerTable()
        self.started_at = time.time()
        self.metrics = MetricsRegistry()
        self._scrape_failures = self.metrics.counter(
            "dpsc_tier_scrape_failures_total",
            "Worker /metrics scrapes that failed during aggregation.",
        )
        self.metrics.gauge(
            "dpsc_tier_workers_alive", "Live workers in the active generation."
        ).set_function(lambda: float(len(self.table.live())))
        self.metrics.gauge(
            "dpsc_tier_generation", "Active worker generation number."
        ).set_function(lambda: float(self.table.generation))
        self.metrics.gauge(
            "dpsc_tier_worker_respawns", "Workers respawned after crashes."
        ).set_function(lambda: float(self._respawns))
        self._listener: socket.socket | None = None
        self._admin = None
        #: the workers whose traffic arrays the tier's counts still read,
        #: and the folded counts of the ones that exited since.
        self._counted: list[WorkerHandle] = []
        self._exited_traffic = [0.0] * len(TRAFFIC_FIELDS)
        self._traffic_lock = threading.Lock()
        self._monitor_thread: threading.Thread | None = None
        #: drains of generations retired by ``/admin/reload`` (see ``serve``)
        self._drains: list[threading.Thread] = []
        self._reload_lock = threading.Lock()
        self._stopping = threading.Event()
        self._stop_requested = threading.Event()
        self._respawns = 0
        self._last_probe: dict[str, float] = {}
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _resolve_versions(self) -> dict[str, int]:
        names = self.names if self.names else self.store.names()
        if not names:
            raise ReleaseNotFoundError(
                f"store {self.store.root} holds no releases"
            )
        return {name: self.store.resolve_version(name) for name in names}

    def _count(self, handles: list[WorkerHandle]) -> list[WorkerHandle]:
        with self._traffic_lock:
            self._counted.extend(handles)
        return handles

    def _fold_exited(self, handles: list[WorkerHandle]) -> None:
        """Fold the traffic arrays of the ``handles`` that exited into one
        totals row and drop them, so the tier's counts read only live
        workers' arrays however many respawns and reloads it sees."""
        with self._traffic_lock:
            for handle in handles:
                if handle in self._counted and not handle.is_alive():
                    self._counted.remove(handle)
                    for index, value in enumerate(handle.traffic):
                        self._exited_traffic[index] += value

    def start(self) -> "Cluster":
        if self._started:
            return self
        versions = self._resolve_versions()
        self._listener = socket.create_server(
            (self.host, self.requested_port), backlog=LISTEN_BACKLOG
        )
        self._admin = create_server(self, "127.0.0.1", 0, max_inflight=None)
        self._pool.listener = self._listener
        self._pool.admin_port = self._admin.server_address[1]
        threading.Thread(
            target=self._admin.serve_forever, name="repro-cluster-admin", daemon=True
        ).start()
        try:
            self.table.swap(
                self._count(self._pool.spawn_generation(versions, 1, self.num_workers)),
                1,
                versions,
            )
        except BaseException:
            self._close_sockets()
            raise
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="repro-cluster-monitor", daemon=True
        )
        self._monitor_thread.start()
        self._started = True
        return self

    @property
    def port(self) -> int:
        if self._listener is None:
            raise ReproError("cluster is not started")
        return int(self._listener.getsockname()[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def generation(self) -> int:
        return self.table.generation

    @property
    def respawns(self) -> int:
        return self._respawns

    def workers(self) -> list[WorkerHandle]:
        return self.table.workers()

    # ------------------------------------------------------------------
    # Monitoring / crash recovery
    # ------------------------------------------------------------------
    def _monitor(self) -> None:
        while not self._stopping.is_set():
            # returns the moment a live worker's process exits
            wait_for_exit(
                [worker.process.sentinel for worker in self.table.live()],
                timeout=self.heartbeat_interval,
            )
            if self._stopping.is_set():
                return
            try:
                self._check_workers()
            except Exception:  # noqa: BLE001 - the monitor must survive
                if self.verbose:  # pragma: no cover
                    import traceback

                    traceback.print_exc()

    def _check_workers(self) -> None:
        now = time.monotonic()
        for worker in self.table.workers():
            if worker.generation != self.table.generation:
                continue  # an old generation draining; not ours to police
            if not worker.is_alive():
                self._respawn(worker)
                continue
            last = self._last_probe.get(worker.worker_id, 0.0)
            if now - last < self.http_heartbeat_interval:
                continue
            self._last_probe[worker.worker_id] = now
            if worker.heartbeat(timeout=self.heartbeat_timeout):
                worker.missed_heartbeats = 0
            else:
                worker.missed_heartbeats += 1
                if worker.missed_heartbeats >= self.heartbeat_misses:
                    # alive but wedged: reclaim the slot the hard way
                    worker.kill()
                    self._respawn(worker)

    def _respawn(self, dead: WorkerHandle) -> None:
        try:
            replacement = self._count([self._pool.respawn(dead, self.table.versions)])[0]
        except ReproError:
            # store vanished or resources exhausted; the next monitor pass
            # retries, and the backlog holds new connections meanwhile.
            return
        if self.table.replace(dead, replacement):
            self._respawns += 1
            self._last_probe.pop(dead.worker_id, None)
        else:  # a generation swap won the race; the newcomer is surplus
            replacement.stop(timeout=5.0)
        try:
            dead.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        dead.process.join(timeout=0)
        self._fold_exited([dead, replacement])

    # ------------------------------------------------------------------
    # Hot reload
    # ------------------------------------------------------------------
    def reload(self) -> dict:
        """Serve the store's *current* versions, atomically and losslessly.

        Returns a summary dict (also the ``/admin/reload`` response body)
        once the old generation has drained.  No-op when the resolved
        versions already match the active generation.
        """
        summary, retired = self._swap_generation()
        self._drain_workers(retired)
        return summary

    def _swap_generation(self) -> tuple[dict, list[WorkerHandle]]:
        """Spawn a generation for the store's current versions and swap it
        in; the summary and the workers it retired (still to drain)."""
        with self._reload_lock:
            versions = self._resolve_versions()
            if versions == self.table.versions:
                summary = {"reloaded": False, "generation": self.table.generation}
                return {**summary, "versions": versions}, []
            generation = self.table.generation + 1
            handles = self._pool.spawn_generation(versions, generation, self.num_workers)
            retired = self.table.swap(self._count(handles), generation, versions)
            return {"reloaded": True, "generation": generation, "versions": versions}, retired

    def _drain_workers(self, workers: list[WorkerHandle], timeout: float = 30.0) -> None:
        threads = [
            threading.Thread(target=worker.stop, kwargs={"timeout": timeout})
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout + 5.0)
        self._fold_exited(workers)

    # ------------------------------------------------------------------
    # The admin backend (create_server over this object; workers hand
    # /healthz, /metrics and /admin/reload here)
    # ------------------------------------------------------------------
    @property
    def default_release(self) -> str | None:
        versions = self.table.versions
        return sorted(versions)[0] if versions else None

    def traffic(self) -> dict[str, int]:
        """The tier's ``/healthz`` traffic counters: the sum over every
        worker ever spawned, the dead and the retired included."""
        with self._traffic_lock:
            totals = list(self._exited_traffic)
            for handle in self._counted:
                for index, value in enumerate(handle.traffic):
                    totals[index] += value
        return _traffic_dict(totals)

    def health(self) -> dict:
        """The tier's ``/healthz`` payload: liveness of the active
        generation and exact tier-wide traffic counters, under the same
        keys as the single-process server's."""
        workers = self.table.workers()
        alive = [worker.is_alive() for worker in workers]
        return {
            "status": "ok" if workers and all(alive) else "degraded",
            "role": "tier",
            "uptime_seconds": time.time() - self.started_at,
            "releases": sorted(self.table.versions),
            "default_release": self.default_release,
            **self.traffic(),
            "workers": {
                "total": len(workers),
                "alive": sum(alive),
                "generation": self.table.generation,
                "respawns": self._respawns,
                "versions": dict(self.table.versions),
                "members": [
                    {
                        "id": worker.worker_id,
                        "generation": worker.generation,
                        "port": worker.port,
                        "pid": worker.pid,
                        "alive": is_alive,
                        **_traffic_dict(worker.traffic),
                    }
                    for worker, is_alive in zip(workers, alive)
                ],
            },
        }

    def metrics_snapshot(self) -> dict:
        """This process's registry + every live worker's, merged tier-wide."""
        sources = [("supervisor", self.metrics.snapshot())]
        for worker in self.table.live():
            try:
                sources.append(
                    (worker.worker_id, worker.get_json("/metrics?format=json", SCRAPE_TIMEOUT))
                )
            except (OSError, http.client.HTTPException, ValueError):
                self._scrape_failures.inc()
        return merge_snapshots(sources, label="worker")

    def serve(self, endpoint, args, request, deadline=None) -> tuple[int, bytes, str]:
        """``/admin/reload``; the supervisor answers no data request."""
        if endpoint != "reload":
            raise ServingHTTPError(404, f"the tier supervisor does not serve {endpoint!r}")
        try:
            summary, retired = self._swap_generation()
        except ReproError as error:  # the old generation keeps serving
            raise ServingHTTPError(500, f"reload failed: {error}") from error
        # The request came through a worker that may be among the retired,
        # and its drain waits for this reply: drain after replying.
        drain = threading.Thread(
            target=self._drain_workers, args=(retired,), name="repro-cluster-drain"
        )
        self._drains = [thread for thread in self._drains if thread.is_alive()] + [drain]
        drain.start()
        return 200, json.dumps(summary).encode("utf-8"), "application/json"

    def note_deadline_exceeded(self) -> None:
        """Nothing to count: the workers count the tier's expired deadlines."""

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def _close_sockets(self) -> None:
        if self._admin is not None:
            self._admin.shutdown()
            self._admin.server_close()
        if self._listener is not None:
            self._listener.close()

    def stop(self) -> None:
        """Graceful drain; idempotent."""
        if self._stopped or not self._started:
            self._stopped = True
            return
        self._stopped = True
        self._stopping.set()
        for thread in [self._monitor_thread, *self._drains]:
            thread.join(timeout=40.0)
        # Workers drain first (they still hand /healthz to the admin port).
        self._drain_workers(self.table.swap([], self.table.generation, {}))
        self._close_sockets()

    def _request_stop(self) -> None:
        self._stop_requested.set()

    def serve_forever(self) -> None:  # pragma: no cover - CLI entry point
        """Block until SIGTERM/SIGINT (or KeyboardInterrupt), then drain."""
        if not self._started:
            self.start()
        restore = install_graceful_shutdown(self._request_stop)
        try:
            while not self._stop_requested.wait(timeout=0.5):
                pass
        except KeyboardInterrupt:
            pass
        finally:
            restore()
            self.stop()

    # ------------------------------------------------------------------
    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
