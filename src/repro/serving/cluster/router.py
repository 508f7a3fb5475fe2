"""The router of the sharded serving tier: the backend that relays.

It owns no release data at all: every count comes from a worker.  The
public port runs the one HTTP front-end of :mod:`repro.serving.server`
(:func:`~repro.serving.server.create_server` over a :class:`Router`), so
validation, deadline refusal and error bodies are the same code as on the
single-process server.  A validated request then takes one of two paths:

* **relay** — ``/batch``, ``/mine``, ``/releases`` and (with micro-batching
  off) ``/query`` are forwarded as the original method, path and raw
  bytes to one worker, chosen round-robin, and the worker's response bytes
  and ``Content-Type`` are relayed verbatim.  A ``/batch`` whose client
  accepts binary counts (:func:`~repro.serving.server.accepts_f64`) asks
  the worker for them too, so its raw float64 body is relayed undecoded.
  Workers run the same handler over a
  :class:`~repro.serving.server.QueryService`, so relayed replies are
  byte-identical to the single-process server by construction.
* **micro-batch** — concurrent single ``/query`` requests coalesce in the
  shared :class:`~repro.serving.server.MicroBatcher` and ride one worker
  ``/batch`` call instead of N worker round-trips; that call asks for
  binary counts, so no JSON is encoded or parsed on the way.

The tier's parallelism is across concurrent requests: each worker answers
whole requests, and no request is split across workers.

Failure policy: every endpoint is an idempotent read (queries are
post-processing; the only server-side state is counters), so a connection
failure mid-request is retried on another live worker until
``retry_timeout`` — a ``kill -9`` mid-batch costs latency, never a lost or
wrong answer.  Failures also wake the supervisor immediately
(:meth:`WorkerTable.note_failure`) so the respawn races the retry deadline.

Observability: the router keeps its own registry under ``dpsc_router_*``
names (so tier-wide merges never double-count worker ``dpsc_*`` series) and
``/metrics`` scrapes every live worker's JSON snapshot, merging via
:func:`repro.obs.merge_snapshots` — counters sum, histograms bucket-merge,
gauges stay per-worker.  ``/healthz`` reports router-edge traffic counters
under the same keys as the single-process server, which keeps the load
test's exact counter-delta checks meaningful for the whole tier.
"""

from __future__ import annotations

import contextlib
import http.client
import itertools
import json
import threading
import time

import numpy as np

from repro import faults
from repro.exceptions import ReproError
from repro.obs import MetricsRegistry, merge_snapshots
from repro.serving.cluster.workers import WorkerHandle, WorkerTable
from repro.serving.resilience import (
    DEADLINE_HEADER,
    AdmissionGate,
    CircuitBreaker,
    Deadline,
)
from repro.serving.server import MicroBatcher, ServingHTTPError
from repro.serving.transport import F64_MEDIA_TYPE, ConnectionPool

__all__ = ["Router"]

_ENDPOINTS = ("query", "batch", "mine", "healthz")
#: connection-level failures worth retrying on another worker; an HTTP
#: *error response* is not among them — that is the worker answering.
_RETRYABLE = (OSError, http.client.HTTPException)

#: what :meth:`Router.forward_any` retries: the connection-level failures
#: plus injected faults from the ``router.relay`` failpoint (whatever their
#: configured exception kind, they model a failed relay, not a bad request).
_RELAY_RETRYABLE = (*_RETRYABLE, faults.FaultInjected, faults.FaultDropConnection)

#: chaos-drill injection site: fires before each router -> worker HTTP
#: round-trip, so injected connection errors exercise the exact retry /
#: circuit-breaker path a crashed worker would.
_FP_RELAY = faults.failpoint(
    "router.relay", "Entry of every router -> worker HTTP round-trip."
)


def _origin(worker: WorkerHandle) -> tuple[str, str, int]:
    """The pool key of a worker (workers listen on localhost only)."""
    return ("http", "127.0.0.1", worker.port)


def _error_message(body: bytes, status: int) -> str:
    """The worker's JSON error text, or a fallback for unparseable bodies."""
    try:
        message = json.loads(body.decode("utf-8")).get("error")
    except (ValueError, UnicodeDecodeError, AttributeError):
        message = None
    return message if isinstance(message, str) else f"upstream error (HTTP {status})"


class Router:
    """Relays tier traffic over a :class:`WorkerTable`; owns no releases."""

    def __init__(
        self,
        table: WorkerTable,
        *,
        micro_batch: bool = True,
        max_batch: int = 256,
        max_wait: float = 0.002,
        worker_timeout: float = 60.0,
        retry_timeout: float = 15.0,
        retry_wait: float = 0.05,
        scrape_timeout: float = 5.0,
        max_inflight: int | None = 256,
        shed_retry_after: float = 0.25,
        breaker_threshold: int = 5,
        breaker_recovery: float = 1.0,
        breaker_probes: int = 1,
    ) -> None:
        self.table = table
        self.worker_timeout = worker_timeout
        self.retry_timeout = retry_timeout
        self.retry_wait = retry_wait
        self.scrape_timeout = scrape_timeout
        self.shed_retry_after = shed_retry_after
        self.breaker_threshold = breaker_threshold
        self.breaker_recovery = breaker_recovery
        self.breaker_probes = breaker_probes
        self.started_at = time.time()
        #: set by the supervisor once it exists; ``/admin/reload`` is a 503
        #: until then (a bare router has nothing to reload).
        self.reload_fn = None
        self.respawns_fn = lambda: 0
        self.metrics = MetricsRegistry()
        self._requests = {
            endpoint: self.metrics.counter(
                "dpsc_router_requests_total",
                "Requests accepted at the router, by endpoint.",
                {"endpoint": endpoint},
            )
            for endpoint in _ENDPOINTS
        }
        self._latency = {
            endpoint: self.metrics.histogram(
                "dpsc_router_request_seconds",
                "Router end-to-end request latency in seconds, by endpoint.",
                {"endpoint": endpoint},
            )
            for endpoint in _ENDPOINTS
        }
        self._batch_patterns = self.metrics.counter(
            "dpsc_router_batch_patterns_total",
            "Patterns accepted across all router /batch requests.",
        )
        self._retries = self.metrics.counter(
            "dpsc_router_retries_total",
            "Forward attempts that failed at the connection level and were retried.",
        )
        self._scrape_failures = self.metrics.counter(
            "dpsc_router_scrape_failures_total",
            "Worker /metrics scrapes that failed during aggregation.",
        )
        self._shed = self.metrics.counter(
            "dpsc_router_shed_total",
            "Requests refused with 503 + Retry-After by admission control.",
        )
        self._deadline_exceeded = self.metrics.counter(
            "dpsc_router_deadline_exceeded_total",
            "Requests refused or abandoned because their deadline expired.",
        )
        self._breaker_transitions = {
            state: self.metrics.counter(
                "dpsc_router_breaker_transitions_total",
                "Per-worker circuit-breaker state transitions, by new state.",
                {"to": state},
            )
            for state in (
                CircuitBreaker.CLOSED,
                CircuitBreaker.OPEN,
                CircuitBreaker.HALF_OPEN,
            )
        }
        #: one breaker per worker *port* (ports are unique per spawn, so a
        #: respawned worker always starts with a fresh closed breaker).
        self._breakers: dict[int, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._gate = AdmissionGate(max_inflight) if max_inflight else None
        if self._gate is not None:
            gate = self._gate
            self.metrics.gauge(
                "dpsc_router_inflight",
                "Requests currently admitted and in flight at the router.",
            ).set_function(lambda: float(gate.inflight))
        self.metrics.gauge(
            "dpsc_router_uptime_seconds", "Seconds since the router started."
        ).set_function(lambda: time.time() - self.started_at)
        self.metrics.gauge(
            "dpsc_router_workers_alive", "Live workers in the active generation."
        ).set_function(lambda: float(len(self.table.live())))
        self.metrics.gauge(
            "dpsc_router_generation", "Active worker generation number."
        ).set_function(lambda: float(self.table.generation))
        self.metrics.gauge(
            "dpsc_router_worker_respawns", "Workers respawned after crashes."
        ).set_function(lambda: float(self.respawns_fn()))
        self._rr = itertools.count()
        #: one keep-alive pool for every handler and the micro-batcher, so
        #: worker connections outlive the short-lived client connections
        #: whose handler threads use them.
        self._pool = ConnectionPool(
            on_connect=self.metrics.counter(
                "dpsc_router_worker_connects_total",
                "TCP connections the router opened to workers.",
            ).inc
        )
        self._batcher = (
            MicroBatcher(
                self._flush,
                self.metrics,
                prefix="dpsc_router",
                max_batch=max_batch,
                max_wait=max_wait,
            )
            if micro_batch
            else None
        )

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    @property
    def default_release(self) -> str | None:
        versions = self.table.versions
        return sorted(versions)[0] if versions else None

    def forward(
        self,
        worker: WorkerHandle,
        method: str,
        path: str,
        body: bytes | None = None,
        *,
        timeout: float | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes, str]:
        """One HTTP round-trip to one worker: its status, body and content
        type.  Raises on connection failure.

        The connection comes from the router's shared keep-alive pool
        (workers speak HTTP/1.1).  A failed reused connection is *not*
        silently reopened: every connection failure reaches the caller's
        breaker and retry accounting, because to the router a worker that
        dropped a connection may be a worker that died.  ``timeout``
        defaults to ``worker_timeout`` (scrapes pass their shorter one);
        ``headers`` rides on top of the defaults (deadline propagation uses
        it).
        """
        _FP_RELAY.hit()
        send_headers = {"Content-Type": "application/json"} if body is not None else {}
        if headers:
            send_headers.update(headers)
        response = self._pool.request(
            _origin(worker),
            method,
            path,
            body,
            send_headers,
            timeout=timeout or self.worker_timeout,
        )
        content_type = response.headers.get("Content-Type", "application/json")
        return response.status, response.body, content_type

    def retire(self, workers: list[WorkerHandle]) -> None:
        """Close the idle connections to workers that left the table."""
        for worker in workers:
            self._pool.discard(_origin(worker))

    def _breaker(self, worker: WorkerHandle) -> CircuitBreaker:
        """The circuit breaker guarding one worker (keyed by port, so a
        respawned worker always starts with a fresh closed breaker)."""
        with self._breaker_lock:
            breaker = self._breakers.get(worker.port)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.breaker_threshold,
                    recovery_time=self.breaker_recovery,
                    half_open_max_probes=self.breaker_probes,
                    on_transition=lambda old, new: (
                        self._breaker_transitions[new].inc()
                    ),
                )
                self._breakers[worker.port] = breaker
                self.metrics.gauge(
                    "dpsc_router_breaker_state",
                    "Per-worker breaker state (0 closed, 1 half-open, 2 open).",
                    {"worker": worker.worker_id},
                ).set_function(lambda b=breaker: b.state_code)
            return breaker

    @contextlib.contextmanager
    def admission(self):
        """Admission control around one client request (load shedding).

        When more than ``max_inflight`` requests are already inside, the
        request is shed immediately with ``503 + Retry-After`` instead of
        queueing behind work the tier cannot absorb.
        """
        gate = self._gate
        if gate is None:
            yield
            return
        if not gate.try_enter():
            self._shed.inc()
            raise ServingHTTPError(
                503,
                f"router at capacity ({gate.limit} requests in flight)",
                retry_after=self.shed_retry_after,
            )
        try:
            yield
        finally:
            gate.leave()

    def forward_any(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        *,
        deadline: Deadline | None = None,
        accept: str | None = None,
    ) -> tuple[int, bytes, str]:
        """Forward to some admitted live worker, retrying on failure.

        Safe because every endpoint is an idempotent read: re-executing a
        query on a second worker after the first died mid-response returns
        the same deterministic counts.  Candidates pass through their
        per-worker circuit breaker (an open breaker skips a worker that has
        recently failed repeatedly, instead of burning a timeout on it);
        worker 5xx responses count as breaker failures and are retried
        elsewhere, with the freshest 5xx relayed if retries run out.
        Blocks (bounded by ``retry_timeout``) while no worker is admitted,
        which is exactly the crash-respawn window — the supervisor races
        this deadline.  An expired request ``deadline`` stops the loop
        early with 504: nobody is waiting for the answer any more; a live
        ``deadline`` also travels to the worker as its ``X-DPSC-Deadline``,
        and ``accept`` as its ``Accept``.
        """
        retry_deadline = time.monotonic() + self.retry_timeout
        tried: set[int] = set()
        last_error: tuple[int, bytes, str] | None = None
        headers = {} if deadline is None else {DEADLINE_HEADER: deadline.header_value()}
        if accept is not None:
            headers["Accept"] = accept
        while True:
            if deadline is not None and deadline.expired():
                self._deadline_exceeded.inc()
                raise ServingHTTPError(
                    504, f"deadline expired while forwarding {method} {path}"
                )
            worker = None
            breaker = None
            workers = self.table.live()
            pool = [w for w in workers if w.port not in tried] or workers
            start = next(self._rr)
            for offset in range(len(pool)):
                candidate = pool[(start + offset) % len(pool)]
                candidate_breaker = self._breaker(candidate)
                if candidate_breaker.try_acquire():
                    worker, breaker = candidate, candidate_breaker
                    break
            if worker is None:
                # nothing live, or every live worker's breaker is open
                if time.monotonic() >= retry_deadline:
                    if last_error is not None:
                        return last_error
                    raise ServingHTTPError(503, "no live workers to forward to")
                time.sleep(self.retry_wait)
                continue
            try:
                status, data, content_type = self.forward(
                    worker, method, path, body, headers=headers
                )
            except _RELAY_RETRYABLE:
                breaker.record_failure()
                tried.add(worker.port)
                self._retries.inc()
                self.table.note_failure(worker)
                if time.monotonic() >= retry_deadline:
                    if last_error is not None:
                        return last_error
                    raise ServingHTTPError(
                        503,
                        f"workers unavailable after retries on {method} {path}",
                    ) from None
                time.sleep(self.retry_wait)
                continue
            if status >= 500:
                # the worker answered, but with a server-side failure on an
                # idempotent read — count it against the breaker and retry
                # elsewhere; keep the freshest body in case retries run out.
                breaker.record_failure()
                last_error = (status, data, content_type)
                tried.add(worker.port)
                self._retries.inc()
                if time.monotonic() >= retry_deadline:
                    return last_error
                time.sleep(self.retry_wait)
                continue
            breaker.record_success()
            return status, data, content_type

    # ------------------------------------------------------------------
    # The HTTP backend (see repro.serving.server.create_server)
    # ------------------------------------------------------------------
    def _flush(self, release: str | None, patterns: list[str]) -> np.ndarray:
        """One micro-batch group's counts: a single binary worker ``/batch``."""
        payload: dict = {"patterns": patterns}
        if release is not None:
            payload["release"] = release
        status, body, content_type = self.forward_any(
            "POST", "/batch", json.dumps(payload).encode("utf-8"), accept=F64_MEDIA_TYPE
        )
        if status != 200:
            raise ServingHTTPError(status, _error_message(body, status))
        if content_type != F64_MEDIA_TYPE or len(body) != 8 * len(patterns):
            raise ServingHTTPError(
                502, f"worker answered {len(patterns)} patterns with {len(body)} "
                f"bytes of {content_type}"
            )
        return np.frombuffer(body, dtype="<f8")

    def note_deadline_exceeded(self) -> None:
        self._deadline_exceeded.inc()

    def serve(
        self,
        endpoint: str,
        args: dict,
        request: tuple[str, str, bytes],
        deadline: Deadline | None = None,
    ) -> tuple[int, bytes, str]:
        """Answer one validated request: micro-batch a ``/query``, relay
        anything else as its original bytes to one worker, or reload."""
        method, path, raw = request
        if endpoint == "reload":
            if self.reload_fn is None:
                raise ServingHTTPError(503, "reload is not available")
            try:
                return 200, json.dumps(self.reload_fn()).encode("utf-8"), "application/json"
            except ReproError as error:  # the old generation keeps serving
                raise ServingHTTPError(500, f"reload failed: {error}") from error
        if endpoint == "releases":
            return self.forward_any(method, path, deadline=deadline)
        with self.admission():
            self._requests[endpoint].inc()
            if endpoint == "batch":
                self._batch_patterns.inc(len(args["patterns"]))
            with self._latency[endpoint].time():
                if endpoint == "query" and self._batcher is not None:
                    # coalesced queries share a flush; the flush carries no
                    # single request's deadline (workers answer micro-batches
                    # in well under any sane per-request budget).
                    count = self._batcher.submit(args["pattern"], args["release"])
                    release = args["release"] or self.default_release
                    payload = {"pattern": args["pattern"], "release": release, "count": count}
                    return 200, json.dumps(payload).encode("utf-8"), "application/json"
                accept = F64_MEDIA_TYPE if args.get("f64") else None
                return self.forward_any(
                    method, path, raw or None, deadline=deadline, accept=accept
                )

    def health(self) -> dict:
        self._requests["healthz"].inc()
        with self._latency["healthz"].time():
            workers = self.table.workers()
            live = [worker for worker in workers if worker.is_alive()]
            payload = {
                "status": "ok" if workers and len(live) == len(workers) else "degraded",
                "role": "router",
                "uptime_seconds": time.time() - self.started_at,
                "releases": sorted(self.table.versions),
                "default_release": self.default_release,
                # Router-edge traffic counters under the single-process
                # keys: the load test's exact delta checks stay valid for
                # the tier even across worker crashes and reloads (worker
                # counters die with the worker; these do not).
                "queries": int(self._requests["query"].value),
                "batches": int(self._requests["batch"].value),
                "batch_patterns": int(self._batch_patterns.value),
                "mines": int(self._requests["mine"].value),
                "retries": int(self._retries.value),
                "sheds": int(self._shed.value),
                "deadline_exceeded": int(self._deadline_exceeded.value),
                "workers": {
                    "total": len(workers),
                    "alive": len(live),
                    "generation": self.table.generation,
                    "respawns": int(self.respawns_fn()),
                    "versions": dict(self.table.versions),
                    "members": [
                        {
                            "id": worker.worker_id,
                            "generation": worker.generation,
                            "port": worker.port,
                            "pid": worker.pid,
                            "alive": worker.is_alive(),
                        }
                        for worker in workers
                    ],
                },
            }
            if self._batcher is not None:
                payload["micro_batches_flushed"] = self._batcher.batches_flushed
                payload["micro_batched_requests"] = self._batcher.requests_batched
            return payload

    def metrics_snapshot(self) -> dict:
        """Router registry + every live worker's, merged tier-wide."""
        sources = [("router", self.metrics.snapshot())]
        for worker in self.table.live():
            try:
                status, body, _ = self.forward(
                    worker, "GET", "/metrics?format=json", timeout=self.scrape_timeout
                )
                if status != 200:
                    raise ValueError(f"scrape returned HTTP {status}")
                sources.append((worker.worker_id, json.loads(body.decode("utf-8"))))
            except (*_RETRYABLE, ValueError, UnicodeDecodeError):
                self._scrape_failures.inc()
        return merge_snapshots(sources, label="worker")

    def close(self) -> None:
        if self._batcher is not None:
            self._batcher.close()
            self._batcher = None
        self._pool.close()
