"""Pre-forked query workers: spawn, liveness, respawn, drain.

One worker is one OS process running the plain HTTP front-end
(:func:`repro.serving.server.create_server` over a
:class:`~repro.serving.server.QueryService`) twice over the same service:

* on the tier's **public listener** — one listening socket the supervisor
  created and every worker of every generation inherits.  Each worker
  accepts client connections on it directly (non-blocking, so the workers
  that lose an accept race go back to waiting), and the kernel queues
  connections in the supervisor-owned backlog while no worker is alive.
  There is no relay hop: the worker that accepts a connection answers
  every data request on it.  The tier-wide views — ``/healthz``,
  ``/metrics`` and ``/admin/reload`` — belong to the supervisor, so the
  worker fetches them from the supervisor's private admin port;
* on a **private port** (ephemeral, localhost) for the supervisor's
  heartbeats and ``/metrics`` scrapes, which must reach *this* worker.

Every worker of a generation opens the *same* pinned release versions with
``mmap=True``, so N workers cost ~one resident copy of the release: the
``.dpsb`` pages live once in the page cache and every process maps them
read-only.

Process discipline (all of it load-bearing for the cluster tests):

* **spawn, not fork** — workers start through the ``spawn`` start method,
  so they never inherit the supervisor's locks or numpy state
  mid-operation; everything a worker needs travels as a picklable config
  dict, the listening socket, its shared traffic array, its slot in the
  generation's shared connection counts and one duplex control pipe.
* **readiness handshake** — the child builds its service and both servers
  and reports ``("ready", private_port)`` (or ``("error", message)``)
  before the supervisor counts it as a member; a worker that cannot load
  the release never accepts a connection.
* **even spread** — each worker publishes how many client connections it
  holds in an integer array shared by its generation, and defers an
  accept while a live sibling holds fewer (``_Server.balance``), so
  kept-alive clients spread over the workers.  A respawned worker takes
  over its predecessor's slot.
* **exact tier counters** — the worker's ``/healthz`` traffic counts also
  land in a float array in memory shared with the supervisor
  (:data:`~repro.serving.server.TRAFFIC_FIELDS`), so the tier's totals
  survive the worker, ``kill -9`` included.
* **orphan prevention** — a daemon thread in the worker blocks on the
  control pipe.  If the supervisor dies — even ``kill -9``, where no
  cleanup runs — the OS closes the pipe, the read raises ``EOFError`` and
  the worker ``os._exit``\\ s.  Supervisors crash; workers must not linger.
* **graceful drain** — a ``"stop"`` control message (or SIGTERM directly
  to the worker) stops accepting, answers requests on the connections the
  worker holds (each with ``Connection: close``, so the client's next
  connection reaches a live worker) until none is being handled, and
  flushes the micro-batcher before the process exits.  A request arriving
  after that is refused by closing its connection unanswered: the client
  re-sends it on a fresh connection.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import multiprocessing
import os
import threading
import time
from multiprocessing.connection import wait as wait_for_exit
from typing import Mapping

from repro import faults
from repro.exceptions import ReproError
from repro.serving.server import (
    DEFAULT_MAX_INFLIGHT,
    NOT_ACCEPTING,
    TRAFFIC_FIELDS,
    ServingHTTPError,
)
from repro.serving.transport import ConnectionPool

__all__ = ["WorkerHandle", "WorkerPool", "WorkerTable", "worker_main"]

#: Workers are spawned, never forked: a forked child would inherit the
#: supervisor's lock and thread state at an arbitrary instant.
SPAWN = multiprocessing.get_context("spawn")

#: how long a draining worker waits for the requests it is handling.
DRAIN_TIMEOUT = 10.0

#: chaos-drill injection site: a ``drop`` closes the client's connection
#: unanswered, as a worker dying mid-request would.
_FP_DROP = faults.failpoint(
    "worker.drop",
    "Entry of every request a worker answers from the tier's public listener.",
)


def _watch_control(conn, stop) -> None:
    """Worker-side control loop: ``stop()`` on ``"stop"``, die with the parent.

    Runs on a daemon thread so a blocked ``recv`` never holds the worker
    open.  EOF/OSError means the supervisor process is gone (closed pipe —
    including ``kill -9``, where nothing else would tell us): exit
    immediately rather than serve as an orphan nobody supervises.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            os._exit(3)
        if message == "stop":
            stop()  # the main thread then drains
            return


class _WorkerFront:
    """The backend of a worker's server on the tier's public listener.

    Data requests are answered by the worker's own service; ``/healthz``,
    ``/metrics`` and ``/admin/reload`` are the supervisor's and are fetched
    from its private admin port.
    """

    def __init__(self, service, admin_port: int) -> None:
        self.service = service
        self.metrics = service.metrics
        self._admin = ("http", "127.0.0.1", admin_port)
        self._pool = ConnectionPool()

    def _supervisor(
        self, method: str, path: str, body: bytes | None = None, timeout: float = 10.0
    ) -> tuple[int, bytes, str]:
        try:
            response = self._pool.request(
                self._admin, method, path, body, timeout=timeout, reopen_stale=True
            )
        except (OSError, http.client.HTTPException) as error:
            raise ServingHTTPError(503, f"tier supervisor unavailable: {error}") from None
        content_type = response.headers.get("Content-Type", "application/json")
        return response.status, response.body, content_type

    def _supervisor_json(self, path: str) -> dict:
        status, body, _ = self._supervisor("GET", path)
        if status != 200:
            raise ServingHTTPError(503, f"tier supervisor answered HTTP {status}")
        return json.loads(body.decode("utf-8"))

    def serve(self, endpoint, args, request, deadline=None) -> tuple[int, bytes, str]:
        if endpoint == "reload":
            # a reload spawns a whole generation: allow it the spawn time
            return self._supervisor("POST", "/admin/reload", request[2], timeout=300.0)
        _FP_DROP.hit()
        return self.service.serve(endpoint, args, request, deadline)

    def health(self) -> dict:
        return self._supervisor_json("/healthz")

    def metrics_snapshot(self) -> dict:
        return self._supervisor_json("/metrics?format=json")

    def note_deadline_exceeded(self) -> None:
        self.service.note_deadline_exceeded()

    def note_shed(self) -> None:
        self.service.note_shed()


def worker_main(config: dict, conn, listener, traffic, connections, slot: int) -> None:
    """Entry point of one spawned worker process.

    ``config`` is a plain picklable dict: ``store_root``, ``versions``
    (name -> pinned version), ``mmap``, ``micro_batch``, ``admin_port``,
    ``max_inflight`` and ``shed_retry_after``.  ``conn`` is the child end of
    the control pipe, ``listener`` the tier's listening socket,
    ``traffic`` this worker's shared traffic array, and ``connections`` the
    generation's shared connection counts, of which ``slot`` is this
    worker's (see ``_Server.balance``).
    """
    # Imports happen in the child (spawn re-imports the world anyway); kept
    # inside the function so importing this module stays cheap.
    from repro.serving.server import QueryService, create_server, install_graceful_shutdown
    from repro.serving.store import ReleaseStore

    try:
        # Chaos schedules travel by environment (spawn inherits os.environ):
        # DPSC_FAULTS / _SEED / _SCOPE / _LOG arm this worker's failpoints
        # before any release is loaded, so every site is in scope.
        faults.arm_from_env()
        store = ReleaseStore(config["store_root"])
        service = QueryService.from_store(
            store,
            versions={name: int(v) for name, v in config["versions"].items()},
            mmap=bool(config["mmap"]),
            micro_batch=bool(config["micro_batch"]),
            traffic=traffic,
        )
        for name in config["versions"]:
            # build the batch views now: the first request after a spawn,
            # respawn or reload should not pay for them
            service.release(name).batch_query([""])
        private = create_server(service, "127.0.0.1", 0, max_inflight=None)
        public = create_server(
            _WorkerFront(service, config["admin_port"]),
            listener=listener,
            max_inflight=config["max_inflight"],
            shed_retry_after=config["shed_retry_after"],
        )
        public.balance(connections, slot)
    except Exception as error:  # noqa: BLE001 - reported to the supervisor
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except (OSError, ValueError):
            pass
        os._exit(1)
    threading.Thread(
        target=private.serve_forever, name="repro-worker-private", daemon=True
    ).start()
    threading.Thread(
        target=_watch_control, args=(conn, public.shutdown), name="repro-worker-control",
        daemon=True,
    ).start()
    restore = install_graceful_shutdown(public.shutdown)
    conn.send(("ready", int(private.server_address[1])))
    try:
        public.serve_forever()
    finally:
        restore()
        public.drain(DRAIN_TIMEOUT)  # answers what is already inside
        private.shutdown()
        public.server_close()  # closes this process's copy of the listener
        private.server_close()
        service.close()  # flushes queued micro-batches
        try:
            conn.send(("stopped",))
        except (OSError, ValueError):
            pass


class WorkerHandle:
    """Supervisor-side view of one worker process."""

    def __init__(
        self,
        worker_id: str,
        generation: int,
        process,
        conn,
        port: int,
        traffic,
        connections,
        slot: int,
    ) -> None:
        self.worker_id = worker_id
        self.generation = generation
        self.process = process
        self.conn = conn
        #: the worker's private port (heartbeats and scrapes).
        self.port = port
        #: the worker's shared traffic array (indexed like TRAFFIC_FIELDS).
        self.traffic = traffic
        #: the generation's shared connection counts and this worker's slot.
        self.connections = connections
        self.slot = slot
        self.started_at = time.time()
        #: consecutive failed heartbeats (reset on success); the monitor
        #: respawns a worker that misses several in a row even while its
        #: process object still reports alive (wedged, not dead).
        self.missed_heartbeats = 0

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def is_alive(self) -> bool:
        # The exit sentinel, not Process.is_alive(): that one reaps with
        # waitpid, so while another thread is reaping the same child it
        # reports a dead worker alive.
        return not wait_for_exit([self.process.sentinel], 0)

    def get_json(self, path: str, timeout: float) -> dict:
        """``GET path`` on the worker's private port, parsed; raises
        ``OSError``, :class:`http.client.HTTPException` or ``ValueError``."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise ValueError(f"{path} answered HTTP {response.status}")
        return json.loads(body.decode("utf-8"))

    def heartbeat(self, timeout: float = 2.0) -> bool:
        """One HTTP liveness probe (``/healthz`` answers and parses)."""
        try:
            return self.get_json("/healthz", timeout).get("status") == "ok"
        except (OSError, http.client.HTTPException, ValueError):
            return False

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful drain, escalating to terminate/kill on a deadline."""
        if self.process.is_alive():
            try:
                self.conn.send("stop")
            except (OSError, ValueError):
                pass
            self.process.join(timeout)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(2.0)
            if self.process.is_alive():  # pragma: no cover - last resort
                self.process.kill()
                self.process.join(2.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def kill(self) -> None:
        """SIGKILL, no drain — the crash the respawn path exists for."""
        if self.process.is_alive():
            self.process.kill()
            self.process.join(2.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.is_alive() else "dead"
        return (
            f"WorkerHandle({self.worker_id}, gen={self.generation}, "
            f"port={self.port}, pid={self.pid}, {state})"
        )


class WorkerPool:
    """Spawns workers over one release store and one public listener."""

    def __init__(
        self,
        store_root,
        *,
        mmap: bool = True,
        micro_batch: bool = True,
        max_inflight: int | None = DEFAULT_MAX_INFLIGHT,
        shed_retry_after: float = 0.25,
        spawn_timeout: float = 60.0,
    ) -> None:
        self.store_root = str(store_root)
        #: the tier's listening socket and the supervisor's admin port,
        #: which the cluster sets when it starts
        self.listener = None
        self.admin_port = 0
        self.mmap = mmap
        self.micro_batch = micro_batch
        self.max_inflight = max_inflight
        self.shed_retry_after = shed_retry_after
        self.spawn_timeout = spawn_timeout
        self._sequence = 0
        self._lock = threading.Lock()

    def _next_id(self) -> str:
        with self._lock:
            worker_id = f"w{self._sequence}"
            self._sequence += 1
            return worker_id

    def _config(self, versions: Mapping[str, int]) -> dict:
        return {
            "store_root": self.store_root,
            "versions": {name: int(v) for name, v in versions.items()},
            "mmap": self.mmap,
            "micro_batch": self.micro_batch,
            "admin_port": self.admin_port,
            "max_inflight": self.max_inflight,
            "shed_retry_after": self.shed_retry_after,
        }

    def spawn_generation(
        self, versions: Mapping[str, int], generation: int, count: int
    ) -> list[WorkerHandle]:
        """``count`` ready workers serving the same pinned ``versions``,
        sharing a fresh connection-count array."""
        connections = SPAWN.RawArray(ctypes.c_int, [NOT_ACCEPTING] * count)
        return self._spawn(versions, generation, connections, range(count))

    def respawn(self, dead: WorkerHandle, versions: Mapping[str, int]) -> WorkerHandle:
        """A ready worker taking over ``dead``'s generation and slot."""
        dead.connections[dead.slot] = NOT_ACCEPTING  # siblings stop deferring to it
        return self._spawn(versions, dead.generation, dead.connections, [dead.slot])[0]

    def _spawn(
        self, versions: Mapping[str, int], generation: int, connections, slots
    ) -> list[WorkerHandle]:
        """Ready workers for ``slots`` of ``connections``.

        All processes start before any readiness is awaited, so a
        generation of N costs one interpreter cold-start, not N in series.
        On any failure every already-started member is torn down — a
        generation is all-ready or absent, never half-alive.
        """
        config = self._config(versions)
        started: list[tuple[str, int, object, object, object]] = []
        try:
            for slot in slots:
                worker_id = self._next_id()
                traffic = SPAWN.RawArray(ctypes.c_double, len(TRAFFIC_FIELDS))
                parent_conn, child_conn = SPAWN.Pipe(duplex=True)
                process = SPAWN.Process(
                    target=worker_main,
                    args=(config, child_conn, self.listener, traffic, connections, slot),
                    name=f"repro-cluster-{worker_id}",
                    daemon=True,
                )
                process.start()
                child_conn.close()  # parent copy; EOF detection needs it gone
                started.append((worker_id, slot, process, parent_conn, traffic))
            handles = []
            deadline = time.monotonic() + self.spawn_timeout
            for worker_id, slot, process, parent_conn, traffic in started:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not parent_conn.poll(remaining):
                    raise ReproError(
                        f"worker {worker_id} did not become ready within "
                        f"{self.spawn_timeout:.0f}s"
                    )
                message = parent_conn.recv()
                if message[0] != "ready":
                    raise ReproError(
                        f"worker {worker_id} failed to start: {message[1]}"
                    )
                handles.append(
                    WorkerHandle(
                        worker_id, generation, process, parent_conn, int(message[1]),
                        traffic, connections, slot,
                    )
                )
            return handles
        except BaseException:
            for _, _, process, parent_conn, _ in started:
                if process.is_alive():
                    process.terminate()
                    process.join(2.0)
                try:
                    parent_conn.close()
                except OSError:  # pragma: no cover
                    pass
            raise


class WorkerTable:
    """The supervisor's atomic view of the active worker generation.

    One lock, one list: ``swap`` replaces the whole generation (hot
    reload), ``replace`` swaps a single respawned member in.  Readers only
    ever take a snapshot (``workers()`` / ``live()``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._workers: list[WorkerHandle] = []
        self.generation = 0
        self.versions: dict[str, int] = {}

    def swap(
        self,
        workers: list[WorkerHandle],
        generation: int,
        versions: Mapping[str, int],
    ) -> list[WorkerHandle]:
        with self._lock:
            old = self._workers
            self._workers = list(workers)
            self.generation = generation
            self.versions = dict(versions)
            return old

    def replace(self, old: WorkerHandle, new: WorkerHandle) -> bool:
        with self._lock:
            try:
                index = self._workers.index(old)
            except ValueError:
                return False  # superseded by a generation swap meanwhile
            self._workers[index] = new
            return True

    def workers(self) -> list[WorkerHandle]:
        with self._lock:
            return list(self._workers)

    def live(self) -> list[WorkerHandle]:
        return [worker for worker in self.workers() if worker.is_alive()]
