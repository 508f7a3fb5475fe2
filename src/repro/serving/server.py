"""The one HTTP front-end of the serving stack, and its local backend.

Because every query against a released structure is post-processing, the
server can answer arbitrary traffic — any number of clients, any patterns,
any mining thresholds — with zero privacy accounting.  The implementation is
stdlib-only (:mod:`http.server` with :class:`ThreadingHTTPServer`):

* ``GET  /healthz``          liveness, uptime, request counters, cache stats
* ``GET  /metrics``          Prometheus text exposition (``?format=json`` for
  the raw registry snapshot) — see docs/OBSERVABILITY.md
* ``GET  /releases``         the served releases and their public metadata
* ``POST /query``            ``{"pattern": ..., "release": ...}`` -> count
* ``POST /batch``            ``{"patterns": [...]}`` -> vectorized counts
  (JSON, or raw little-endian float64 with
  ``Accept: application/x-dpsc-f64`` — see :func:`accepts_f64`)
* ``POST /mine``             ``{"threshold": ..., ...}`` -> frequent patterns

One handler serves both topologies.  It owns body reading, validation,
deadline refusal, admission control (``503 + Retry-After`` once
``max_inflight`` requests are inside), error shaping and ``/metrics``
rendering, and hands each validated request to a *backend*.  On the single
server that backend is a :class:`QueryService`; in the cluster tier every
worker runs this same handler on the tier's shared public listener over its
own :class:`QueryService`, so error bodies are the same bytes whichever
topology answers.

Every operational number lives in the backend's
:class:`repro.obs.MetricsRegistry` (request counters, per-endpoint latency
histograms, per-release cache statistics);
``/healthz`` and ``/metrics`` are two views of that one registry.

Every release is compiled to a :class:`~repro.serving.compiled.CompiledTrie`
at load time (benchmarked in ``benchmarks/bench_serving.py``): ``/batch``
requests hit its vectorized numpy path, and each ``/query`` runs its
LRU-cached single-pattern walk on the handler thread that read the request.
"""

from __future__ import annotations

import json
import re
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Mapping, MutableSequence, Sequence
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro import faults
from repro.core.private_trie import PrivateCountingTrie
from repro.exceptions import ReleaseNotFoundError, ReproError
from repro.obs import MetricsRegistry, render_snapshot
from repro.serving.compiled import CompiledTrie
from repro.serving.resilience import DEADLINE_HEADER, AdmissionGate, Deadline
from repro.serving.store import ReleaseStore
from repro.serving.transport import F64_MEDIA_TYPE

__all__ = [
    "QueryService",
    "ServingHTTPError",
    "create_server",
    "serve_forever",
    "install_graceful_shutdown",
    "accepts_f64",
    "TRAFFIC_FIELDS",
]

#: endpoints that carry request counters and latency histograms.
_ENDPOINTS = ("query", "batch", "mine", "healthz")

#: the ``/healthz`` traffic counters, in the order of a ``traffic`` array
#: (see :class:`QueryService`): the cluster tier sums its workers' arrays.
TRAFFIC_FIELDS = ("queries", "batches", "batch_patterns", "mines", "sheds", "deadline_exceeded")
_QUERIES, _BATCHES, _BATCH_PATTERNS, _MINES, _SHEDS, _DEADLINE_EXCEEDED = range(
    len(TRAFFIC_FIELDS)
)

#: a server's slot in a shared connection-count array (see
#: ``_Server.balance``) while it is not accepting: not yet started,
#: draining, or dead.
NOT_ACCEPTING = -1

#: endpoints that admission control may shed: the work, not the probes.
_SHEDDABLE = frozenset({"query", "batch", "mine"})

#: the default cap on requests in flight per server before it sheds.
DEFAULT_MAX_INFLIGHT = 256

#: chaos-drill injection site at the entry of every ``/query``, ``/batch``
#: and ``/mine`` (health probes and metric scrapes stay clean, so
#: supervision and scraping remain deterministic under chaos).
_FP_HANDLE = faults.failpoint(
    "worker.handle", "Entry of every /query, /batch and /mine HTTP handler."
)


class ServingHTTPError(ReproError):
    """An error answered as a JSON ``{"error": ...}`` body with ``status``.

    ``retry_after`` (fractional seconds) becomes a ``Retry-After`` response
    header — the hint to a resilient client about when a shed request is
    worth re-sending.
    """

    def __init__(
        self, status: int, message: str, *, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


class QueryService:
    """Routes queries to named compiled releases; the HTTP front-end (as its
    local backend) and the CLI both delegate here, so the logic is testable
    without sockets.

    ``traffic``, when given, is a writable float array indexed like
    :data:`TRAFFIC_FIELDS` that receives every ``/healthz`` traffic count
    this service makes, next to its own registry.  A cluster worker's array
    lives in memory its supervisor shares, so the tier's counts outlive the
    worker.
    """

    def __init__(
        self,
        releases: Mapping[str, CompiledTrie | PrivateCountingTrie],
        *,
        default_release: str | None = None,
        traffic: MutableSequence[float] | None = None,
    ) -> None:
        if not releases:
            raise ReproError("a query service needs at least one release")
        self._releases: dict[str, CompiledTrie] = {
            name: (
                release
                if isinstance(release, CompiledTrie)
                else CompiledTrie.from_structure(release)
            )
            for name, release in releases.items()
        }
        if default_release is None:
            default_release = sorted(self._releases)[0]
        if default_release not in self._releases:
            raise ReleaseNotFoundError(
                f"default release {default_release!r} is not served"
            )
        self.default_release = default_release
        self.started_at = time.time()
        #: single source of truth for every operational number; ``/healthz``
        #: and ``/metrics`` both read from here.  Counters and gauges update
        #: even when telemetry is globally disabled, so the health payload
        #: keeps its semantics either way.
        self.metrics = MetricsRegistry()
        self._requests = {
            endpoint: self.metrics.counter(
                "dpsc_requests_total",
                "Requests served, by endpoint.",
                {"endpoint": endpoint},
            )
            for endpoint in _ENDPOINTS
        }
        self._latency = {
            endpoint: self.metrics.histogram(
                "dpsc_request_seconds",
                "Request latency in seconds, by endpoint.",
                {"endpoint": endpoint},
            )
            for endpoint in _ENDPOINTS
        }
        self._batch_patterns = self.metrics.counter(
            "dpsc_batch_patterns_total",
            "Patterns answered across all /batch requests.",
        )
        self._deadline_exceeded = self.metrics.counter(
            "dpsc_deadline_exceeded_total",
            "Requests refused with 504 because their X-DPSC-Deadline had "
            "already expired on arrival.",
        )
        self._shed = self.metrics.counter(
            "dpsc_shed_total",
            "Requests refused with 503 + Retry-After by admission control.",
        )
        self._traffic = traffic
        self._traffic_lock = threading.Lock()
        self.metrics.gauge(
            "dpsc_uptime_seconds", "Seconds since the service started."
        ).set_function(lambda: time.time() - self.started_at)
        for name, compiled in sorted(self._releases.items()):
            for field_name in ("hits", "misses", "size"):
                self.metrics.gauge(
                    "dpsc_compiled_cache_" + field_name,
                    f"CompiledTrie single-query LRU cache {field_name}.",
                    {"release": name},
                ).set_function(
                    lambda c=compiled, f=field_name: getattr(c.cache_info(), f)
                )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def release(self, name: str | None = None) -> CompiledTrie:
        resolved = name or self.default_release
        try:
            return self._releases[resolved]
        except KeyError:
            raise ReleaseNotFoundError(
                f"release {resolved!r} is not served "
                f"(serving: {sorted(self._releases)})"
            ) from None

    def _tally(self, field: int, amount: int = 1) -> None:
        """Add to the shared ``traffic`` array, if this service has one."""
        if self._traffic is not None:
            with self._traffic_lock:
                self._traffic[field] += amount

    def query(self, pattern: str, release: str | None = None) -> float:
        """One pattern's noisy count: the compiled trie's LRU-cached walk,
        run on the calling (handler) thread."""
        self._requests["query"].inc()
        self._tally(_QUERIES)
        with self._latency["query"].time():
            return self.release(release).query(pattern)

    def batch(self, patterns: Sequence[str], release: str | None = None) -> list[float]:
        """Vectorized noisy counts for many patterns at once."""
        return self.batch_array(patterns, release).tolist()

    def batch_array(self, patterns: Sequence[str], release: str | None = None) -> np.ndarray:
        """:meth:`batch` as the kernel's float64 array (the binary reply
        packs it without building a Python float per count)."""
        self._requests["batch"].inc()
        self._batch_patterns.inc(len(patterns))
        self._tally(_BATCHES)
        self._tally(_BATCH_PATTERNS, len(patterns))
        with self._latency["batch"].time():
            return self.release(release).batch_query(patterns)

    def mine(
        self,
        threshold: float,
        release: str | None = None,
        *,
        min_length: int = 1,
        max_length: int | None = None,
        exact_length: int | None = None,
    ) -> list[tuple[str, float]]:
        self._requests["mine"].inc()
        self._tally(_MINES)
        with self._latency["mine"].time():
            return self.release(release).mine(
                threshold,
                min_length=min_length,
                max_length=max_length,
                exact_length=exact_length,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def releases_info(self) -> list[dict]:
        infos = []
        for name in sorted(self._releases):
            compiled = self._releases[name]
            metadata = compiled.metadata
            infos.append(
                {
                    "name": name,
                    "default": name == self.default_release,
                    "epsilon": metadata.epsilon,
                    "delta": metadata.delta,
                    "error_bound": metadata.error_bound,
                    "construction": metadata.construction,
                    "num_nodes": compiled.num_nodes,
                    "num_patterns": compiled.num_stored_patterns,
                    "compiled_bytes": compiled.nbytes,
                }
            )
        return infos

    # ------------------------------------------------------------------
    # Counter views (kept as attributes-in-spirit for tests and loadtest)
    # ------------------------------------------------------------------
    @property
    def num_queries(self) -> int:
        return int(self._requests["query"].value)

    @property
    def num_batches(self) -> int:
        return int(self._requests["batch"].value)

    @property
    def num_batch_patterns(self) -> int:
        return int(self._batch_patterns.value)

    @property
    def num_mines(self) -> int:
        return int(self._requests["mine"].value)

    @property
    def num_deadline_exceeded(self) -> int:
        return int(self._deadline_exceeded.value)

    @property
    def num_sheds(self) -> int:
        return int(self._shed.value)

    def note_deadline_exceeded(self) -> None:
        self._deadline_exceeded.inc()
        self._tally(_DEADLINE_EXCEEDED)

    def note_shed(self) -> None:
        self._shed.inc()
        self._tally(_SHEDS)

    def health(self) -> dict:
        self._requests["healthz"].inc()
        with self._latency["healthz"].time():
            cache = {
                name: compiled.cache_info().__dict__
                for name, compiled in self._releases.items()
            }
            # Each counter is individually exact (per-metric locks); the
            # payload is no longer one atomic cross-counter snapshot, which
            # is fine for the consumers we have — the load test checks the
            # deltas at quiescence, and monitoring tolerates a batch
            # observed a beat before its patterns.
            return {
                "status": "ok",
                "uptime_seconds": time.time() - self.started_at,
                "releases": sorted(self._releases),
                "default_release": self.default_release,
                "queries": self.num_queries,
                "batches": self.num_batches,
                "batch_patterns": self.num_batch_patterns,
                "mines": self.num_mines,
                "sheds": self.num_sheds,
                "deadline_exceeded": self.num_deadline_exceeded,
                "cache": cache,
            }

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot()

    def serve(
        self,
        endpoint: str,
        args: dict,
        request: tuple[str, str, bytes],
        deadline: Deadline | None = None,
    ) -> tuple[int, bytes, str]:
        """The HTTP backend entry: one validated request's status, body and
        content type.  ``request`` (method, path, body) and ``deadline`` are
        part of the backend interface but unused here: the handler already
        refused an expired deadline."""
        if endpoint == "releases":
            return _ok({"releases": self.releases_info()})
        if endpoint == "reload":
            raise ServingHTTPError(404, "unknown path '/admin/reload'")
        _FP_HANDLE.hit()
        release = args["release"]
        name = release or self.default_release
        if endpoint == "query":
            count = self.query(args["pattern"], release)
            return _ok({"pattern": args["pattern"], "release": name, "count": count})
        if endpoint == "batch":
            counts = self.batch_array(args["patterns"], release)
            if args["f64"]:
                return 200, np.asarray(counts, dtype="<f8").tobytes(), F64_MEDIA_TYPE
            return _ok({"release": name, "counts": counts.tolist()})
        patterns = self.mine(
            args["threshold"],
            release,
            min_length=args["min_length"],
            max_length=args["max_length"],
            exact_length=args["exact_length"],
        )
        return _ok(
            {
                "release": name,
                "threshold": args["threshold"],
                "patterns": [[p, c] for p, c in patterns],
            }
        )

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_store(
        cls,
        store: ReleaseStore,
        names: Sequence[str] | None = None,
        *,
        mmap: bool = True,
        versions: Mapping[str, int] | None = None,
        **kwargs,
    ) -> "QueryService":
        """Serve the pinned-or-latest version of each named release (all
        releases in the store when ``names`` is omitted).

        Loads go through :meth:`ReleaseStore.load_compiled`: binary
        (``.dpsb``) versions are mapped zero-copy — cold start is O(header)
        and concurrent server processes share one page-cache copy — while
        JSON versions are parsed and compiled as before.  ``mmap=False``
        forces private in-memory copies of binary payloads.  ``versions``
        pins an explicit version per name — how the cluster tier makes
        every worker of one generation serve the *same* snapshot even
        while a curator publishes new versions underneath.
        """
        selected = list(names) if names else sorted(versions) if versions else store.names()
        if not selected:
            raise ReleaseNotFoundError(f"store {store.root} holds no releases")
        releases = {
            name: store.load_compiled(
                name, versions.get(name) if versions else None, mmap=mmap
            )
            for name in selected
        }
        return cls(releases, **kwargs)


def _ok(payload: dict) -> tuple[int, bytes, str]:
    return 200, json.dumps(payload).encode("utf-8"), "application/json"


#: longest ``Accept`` value that is parsed; a longer one counts as absent.
_MAX_ACCEPT = 1024

#: RFC 9110 ``Accept`` grammar: comma-separated (possibly empty) elements,
#: each a ``type/subtype`` media range with ``;name=value`` parameters.
_OWS = r"[ \t]*"
_TOKEN = r"[!#$%&'*+.^_`|~0-9A-Za-z-]+"
_PARAMETER = rf'{_OWS};{_OWS}({_TOKEN})=({_TOKEN}|"(?:[^"\\]|\\.)*")'
_ACCEPT_ELEMENT = re.compile(
    rf"{_OWS}(?:({_TOKEN})/({_TOKEN})((?:{_PARAMETER})*))?{_OWS}(?:,|\Z)"
)
_ACCEPT_PARAMETER = re.compile(_PARAMETER)
_QVALUE = re.compile(r"0(?:\.[0-9]{0,3})?|1(?:\.0{0,3})?")


def accepts_f64(accept: str | None) -> bool:
    """Whether an ``Accept`` header asks for raw float64 ``/batch`` counts.

    Media ranges are matched case-insensitively with their parameters
    allowed, as RFC 9110 specifies; ``q=0`` refuses a type.  Binary counts
    are an explicit opt-in: only a range naming ``application/x-dpsc-f64``
    itself selects them (``*/*`` keeps JSON), and only when its weight is
    above zero and at least that of JSON (``application/json``, else
    ``application/*``, else ``*/*``).  A value that does not parse, or is
    longer than :data:`_MAX_ACCEPT`, counts as absent: JSON.
    """
    if not accept or len(accept) > _MAX_ACCEPT:
        return False
    weights: dict[str, float] = {}
    position = 0
    while position < len(accept):
        element = _ACCEPT_ELEMENT.match(accept, position)
        if element is None:
            return False
        position = element.end()
        kind, subtype, parameters = element.group(1, 2, 3)
        if kind is None:
            continue  # an empty list element
        weight = 1.0
        for name, value in _ACCEPT_PARAMETER.findall(parameters):
            if name.lower() == "q":
                if not _QVALUE.fullmatch(value):
                    return False
                weight = float(value)
        weights.setdefault(f"{kind}/{subtype}".lower(), weight)
    f64 = weights.get(F64_MEDIA_TYPE, 0.0)
    json_weight = next(
        (
            weights[media_range]
            for media_range in ("application/json", "application/*", "*/*")
            if media_range in weights
        ),
        0.0,
    )
    return f64 > 0 and f64 >= json_weight


def _is_int(value: object) -> bool:
    """True for JSON integers only (bool is an int subclass in Python —
    ``true`` is not a length)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _post_args(endpoint: str | None, payload: object) -> dict:
    """The validated arguments of one POST body (a JSON 400 on any bad field)."""
    if not isinstance(payload, dict):
        # Valid JSON but not an object (e.g. a bare list or string) must be
        # a JSON 400 too, not an unhandled AttributeError.
        raise ServingHTTPError(400, "request body must be a JSON object")
    release = payload.get("release")
    if release is not None and not isinstance(release, str):
        raise ServingHTTPError(400, "'release' must be a string or null")
    if endpoint == "query":
        pattern = payload.get("pattern")
        if not isinstance(pattern, str):
            raise ServingHTTPError(400, "'pattern' must be a string")
        return {"pattern": pattern, "release": release}
    if endpoint == "batch":
        patterns = payload.get("patterns")
        if not isinstance(patterns, list) or not all(
            isinstance(p, str) for p in patterns
        ):
            raise ServingHTTPError(400, "'patterns' must be a list of strings")
        return {"patterns": patterns, "release": release}
    if endpoint == "mine":
        threshold = payload.get("threshold")
        if not isinstance(threshold, (int, float)) or isinstance(threshold, bool):
            raise ServingHTTPError(400, "'threshold' must be a number")
        min_length = payload.get("min_length", 1)
        if not _is_int(min_length):
            raise ServingHTTPError(400, "'min_length' must be an integer")
        args = {"threshold": float(threshold), "release": release, "min_length": min_length}
        for key in ("max_length", "exact_length"):
            value = payload.get(key)
            if value is not None and not _is_int(value):
                raise ServingHTTPError(400, f"'{key}' must be an integer or null")
            args[key] = value
        return args
    return {}


#: POST paths and the endpoint each one names; anything else is a 404.
_POST_ENDPOINTS = {
    "/query": "query",
    "/batch": "batch",
    "/mine": "mine",
    "/admin/reload": "reload",
}


class _Handler(BaseHTTPRequestHandler):
    """The one HTTP front-end over ``server.backend``.

    Body reading, validation, deadline refusal, admission control, error
    shaping and ``/metrics`` rendering live here once; the backend's
    ``serve`` sees only validated, admitted requests and returns the status
    and body to send.
    """

    protocol_version = "HTTP/1.1"
    server_version = "repro-dpsc"
    #: headers and body go out as separate writes; on a keep-alive
    #: connection Nagle holds the second until the peer's delayed ACK
    #: (~40ms), which would dwarf every sub-ms query.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - BaseHTTPRequestHandler API
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        retry_after: float | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:g}")
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self, message: str, status: int, retry_after: float | None = None
    ) -> None:
        body = json.dumps({"error": message}).encode("utf-8")
        self._send(status, body, retry_after=retry_after)

    def _read_body(self, needed: bool) -> bytes:
        """The request body.  A missing-but-needed, negative or non-integer
        ``Content-Length`` is a JSON 400 that also closes the connection:
        where the next request starts is unknowable."""
        header = self.headers.get("Content-Length")
        if header is None and not needed:
            return b""
        if header is None or not (header.isascii() and header.strip().isdigit()):
            self.close_connection = True
            raise ServingHTTPError(
                400,
                "Content-Length header required"
                if header is None
                else f"invalid Content-Length {header!r}",
            )
        return self.rfile.read(int(header))

    def _deadline(self) -> Deadline | None:
        """The request's deadline; a 504 when it already expired — nobody
        is waiting for the answer anymore, so no backend time is spent (the
        client's retry, if any budget remains, carries a fresh deadline)."""
        deadline = Deadline.from_header(self.headers.get(DEADLINE_HEADER))
        if deadline is not None and deadline.expired():
            self.server.backend.note_deadline_exceeded()  # type: ignore[attr-defined]
            raise ServingHTTPError(504, "deadline expired before handling began")
        return deadline

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._handle("POST")

    def _handle(self, method: str) -> None:
        if not self.server.enter():  # type: ignore[attr-defined]
            # the drain is over, too late to answer: close unanswered, and
            # the client re-sends on a fresh connection a sibling accepts
            self.close_connection = True
            return
        try:
            self._answer(method)
        finally:
            self.server.leave()  # type: ignore[attr-defined]

    def _answer(self, method: str) -> None:
        try:
            if self.server.draining:  # type: ignore[attr-defined]
                # shutdown began: this is the connection's last request.  A
                # lone server refuses it, as its closed listener would; on a
                # shared listener it is answered, and the client's next
                # connection reaches a live sibling.
                self.close_connection = True
                if not self.server.shared_listener:  # type: ignore[attr-defined]
                    raise ServingHTTPError(503, "server is shutting down")
            self._route(method)
        except ServingHTTPError as error:
            self._error(error.message, error.status, error.retry_after)
        except ReleaseNotFoundError as error:
            self._error(str(error), 404)
        except ReproError as error:
            self._error(str(error), 400)
        except faults.FaultDropConnection:
            # no response at all: the peer sees the socket close mid-request
            self.close_connection = True
        except faults.FaultInjected as fault:
            self._error(str(fault), 500)
        except Exception as error:  # noqa: BLE001 - JSON 500, not a raw traceback
            self._error(f"internal error: {error}", 500)

    def _route(self, method: str) -> None:
        backend = self.server.backend  # type: ignore[attr-defined]
        raw = b""
        if method == "GET":
            parsed = urlparse(self.path)
            path, query = parsed.path, parse_qs(parsed.query)
            if path == "/healthz":
                self._send(*_ok(backend.health()))
                return
            if path == "/metrics":
                # Scrape traffic is not request traffic: /metrics reads the
                # registry without touching the request counters.
                snapshot = backend.metrics_snapshot()
                if query.get("format", [""])[0] == "json":
                    self._send(*_ok(snapshot))
                else:
                    body = render_snapshot(snapshot).encode("utf-8")
                    self._send(200, body, "text/plain; version=0.0.4; charset=utf-8")
                return
            endpoint = {"/query": "query", "/releases": "releases"}.get(path)
            args = {
                "pattern": query.get("pattern", [""])[0],
                "release": query.get("release", [None])[0],
            }
        else:
            path = self.path
            endpoint = _POST_ENDPOINTS.get(path)
            raw = self._read_body(needed=endpoint != "reload")
            try:
                payload = json.loads(raw.decode("utf-8")) if raw else {}
            except (ValueError, UnicodeDecodeError):
                raise ServingHTTPError(400, "request body is not valid JSON") from None
            args = _post_args(endpoint, payload)
            if endpoint == "batch":
                args["f64"] = accepts_f64(", ".join(self.headers.get_all("Accept", ())))
        if endpoint is None:
            raise ServingHTTPError(404, f"unknown path {path!r}")
        deadline = self._deadline()
        # Admission control: past max_inflight requests in flight, work is
        # shed with 503 + Retry-After instead of queueing behind work the
        # server cannot absorb.  Probes and scrapes are never shed.
        gate = self.server.gate if endpoint in _SHEDDABLE else None  # type: ignore[attr-defined]
        if gate is not None and not gate.try_enter():
            backend.note_shed()
            raise ServingHTTPError(
                503,
                f"server at capacity ({gate.limit} requests in flight)",
                retry_after=self.server.shed_retry_after,  # type: ignore[attr-defined]
            )
        try:
            self._send(*backend.serve(endpoint, args, (method, self.path, raw), deadline))
        finally:
            if gate is not None:
                gate.leave()


class _Server(ThreadingHTTPServer):
    """One handler thread per connection.  The threads are daemons, so
    ``server_close`` does not join them: a keep-alive client may hold an
    idle connection (and its thread) open for as long as it likes, and
    shutdown must not wait for it.  :meth:`drain` waits for the requests
    being handled instead."""

    daemon_threads = True
    #: set when :meth:`shutdown` begins: each connection's next request is
    #: its last (refused with 503 unless the listener is shared).
    draining = False
    #: other processes accept on the same listening socket (the cluster
    #: tier's workers): a draining server answers the last request of each
    #: connection instead of refusing it.
    shared_listener = False
    #: admission control (``None``: never shed) and the shed reply's hint.
    gate: AdmissionGate | None = None
    shed_retry_after = 0.25
    #: on a shared listener, how long an accept waits while a sibling
    #: process holds fewer client connections (see :meth:`balance`).
    accept_defer = 0.002

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._lock = threading.Lock()
        self._handling = 0
        self._drained = False
        self._connections = 0
        #: (shared connection counts, this server's slot), set by balance()
        self._siblings: tuple[MutableSequence[int], int] | None = None

    def balance(self, counts: MutableSequence[int], slot: int) -> None:
        """Spread client connections evenly over the processes accepting on
        one shared listener.  ``counts`` is an integer array in shared
        memory with one slot per process (``slot`` is this server's), where
        each publishes the client connections it holds, or
        :data:`NOT_ACCEPTING`.  While some sibling holds fewer, an accept
        waits up to ``accept_defer``, so that sibling wins the race when it
        is free to; the wait ends as soon as no sibling holds fewer, and
        with no sibling, or none less loaded, accepts never wait.  With
        keep-alive, balance is per connection."""
        self._siblings = (counts, slot)
        self._publish()

    def _publish(self) -> None:
        if self._siblings is not None:
            counts, slot = self._siblings
            counts[slot] = NOT_ACCEPTING if self.draining else self._connections

    def _behind_a_sibling(self) -> bool:
        counts, slot = self._siblings
        return any(
            0 <= count < self._connections
            for index, count in enumerate(counts)
            if index != slot
        )

    def get_request(self):
        if self._siblings is not None:
            # Re-checked every slice: a sibling that accepts meanwhile (or
            # sheds a connection) ends the wait at once.
            deadline = time.monotonic() + self.accept_defer
            while self._behind_a_sibling() and time.monotonic() < deadline:
                time.sleep(self.accept_defer / 8)
        request = super().get_request()  # BlockingIOError: a sibling won
        with self._lock:
            self._connections += 1
            self._publish()
        return request

    def shutdown_request(self, request) -> None:
        with self._lock:
            self._connections -= 1
            self._publish()
        super().shutdown_request(request)

    def enter(self) -> bool:
        """Count one request as being handled (what :meth:`drain` waits
        for); ``False`` once the drain is over.  Pair with :meth:`leave`."""
        with self._lock:
            if self._drained:
                return False
            self._handling += 1
            return True

    def leave(self) -> None:
        with self._lock:
            self._handling -= 1

    def shutdown(self) -> None:
        self.draining = True
        with self._lock:
            self._publish()
        super().shutdown()

    def drain(self, timeout: float) -> bool:
        """Stop accepting, then wait up to ``timeout`` seconds until no
        request is being handled; whether none was left.  Requests arriving
        after that are refused by closing their connection."""
        self.shutdown()
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                if not self._handling or time.monotonic() >= deadline:
                    self._drained = True
                    return not self._handling
            time.sleep(0.005)


def create_server(
    backend,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
    listener: socket.socket | None = None,
    max_inflight: int | None = DEFAULT_MAX_INFLIGHT,
    shed_retry_after: float = 0.25,
) -> ThreadingHTTPServer:
    """A ready-to-run threading HTTP server over ``backend`` (a
    :class:`QueryService`, or any object with its ``serve`` / ``health`` /
    ``metrics_snapshot`` / ``note_*`` interface), bound to ``host:port``
    (port 0 picks a free port; read it back from ``server.server_address``).

    ``listener`` serves an already listening socket instead of binding one:
    the cluster tier's workers all accept on the one socket their supervisor
    created.  It is switched to non-blocking, so a server that loses the
    accept race to a sibling process gets ``BlockingIOError`` and goes back
    to waiting (a blocking ``accept`` would hang :meth:`shutdown`).
    ``max_inflight`` caps the queries, batches and mines in flight before
    the server sheds (``None``: never); a shed reply carries
    ``Retry-After: shed_retry_after``.
    """
    if listener is None:
        server = _Server((host, port), _Handler)
    else:
        server = _Server(listener.getsockname()[:2], _Handler, bind_and_activate=False)
        server.socket.close()  # the unbound socket TCPServer made for itself
        listener.setblocking(False)
        server.socket = listener
        server.server_address = listener.getsockname()
        server.shared_listener = True
    server.backend = backend  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.shed_retry_after = shed_retry_after
    if max_inflight:
        gate = server.gate = AdmissionGate(max_inflight)
        backend.metrics.gauge(
            "dpsc_inflight", "Queries, batches and mines currently in flight."
        ).set_function(lambda: float(gate.inflight))
    return server


def install_graceful_shutdown(
    drain: Callable[[], None],
    signals: Sequence[int] = (signal.SIGTERM, signal.SIGINT),
) -> Callable[[], None]:
    """Install SIGTERM/SIGINT handlers that call ``drain`` exactly once.

    ``drain`` must be fast and signal-safe — the convention here is to hand
    the actual draining to a daemon thread (``server.shutdown()`` blocks
    until ``serve_forever`` exits, which must not happen inside the signal
    handler running on the serving thread).  Returns a restore function
    that reinstates the previous handlers; a no-op pair outside the main
    thread, where CPython refuses ``signal.signal`` (tests, embedded use).
    """
    if threading.current_thread() is not threading.main_thread():
        return lambda: None
    fired = threading.Event()

    def handler(signum, frame):  # noqa: ARG001 - signal API
        if not fired.is_set():  # repeated signals must not re-drain
            fired.set()
            threading.Thread(
                target=drain, name="repro-graceful-drain", daemon=True
            ).start()

    previous = [(number, signal.getsignal(number)) for number in signals]
    for number in signals:
        signal.signal(number, handler)

    def restore() -> None:
        for number, old in previous:
            signal.signal(number, old)

    return restore


def serve_forever(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    verbose: bool = True,
) -> None:  # pragma: no cover - blocking entry point exercised via the CLI
    """Serve until SIGTERM/SIGINT (or KeyboardInterrupt), then drain.

    The drain order is the graceful-shutdown contract the cluster tier
    reuses: stop accepting (``shutdown``; from then on a request arriving
    on a kept-alive connection is answered 503 and the connection closed),
    then close the listener (``server_close``).  ``server_close`` does not
    join handler threads — they are daemons, so idle keep-alive
    connections cannot hold shutdown up.  A request still in flight when
    the process exits is cut off; a retrying client may re-send it, which
    every endpoint, being an idempotent read, allows.
    """
    server = create_server(service, host, port, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    print(f"dpsc serving {sorted(service.releases_info(), key=lambda r: r['name'])}")
    print(f"listening on http://{bound_host}:{bound_port}")
    restore = install_graceful_shutdown(server.shutdown)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        restore()
        server.shutdown()
        server.server_close()
