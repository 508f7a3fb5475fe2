"""A resilient stdlib HTTP client for the ``dpsc`` query server.

Analysts talk to a running server (``dpsc serve``) through this class or
plain ``curl``; the wire format is the JSON API documented in
:mod:`repro.serving.server`, except that :meth:`ServingClient.batch` asks
for binary ``application/x-dpsc-f64`` counts (and still reads the JSON
reply of a server that does not offer them).  Requests travel over
keep-alive HTTP/1.1 connections from the stdlib-only
:class:`~repro.serving.transport.ConnectionPool`, so a client pays one
TCP connect per concurrent caller, not one per call.  One client is safe
to share across threads (each call checks out its own connection);
:meth:`ServingClient.close` — or leaving a ``with ServingClient(...)``
block — closes the idle connections, and a garbage-collected client
closes them too.  Proxy environment variables
(``HTTP_PROXY`` and friends) are not consulted.

Resilience (docs/RESILIENCE.md):

* **Per-request deadline.**  ``timeout`` is the *total* budget for one API
  call, retries included — per-endpoint defaults
  (:data:`DEFAULT_ENDPOINT_TIMEOUTS`: ``/healthz`` short, ``/mine`` long)
  unless a flat ``timeout`` overrides them.  The deadline is stamped on the
  wire as ``X-DPSC-Deadline`` so servers can refuse work nobody
  is waiting for, and each attempt's socket timeout is the time remaining.
* **Retries with seeded backoff.**  Connection-level failures and HTTP 5xx
  responses are retried (every endpoint is an idempotent read) up to
  ``retries`` times within the deadline, sleeping decorrelated-jitter
  delays from a seeded :class:`~repro.serving.resilience.BackoffPolicy` —
  deterministic per ``(seed, request sequence)``.  A ``Retry-After`` header
  on 503 (a server's load-shedding answer) overrides
  the backoff delay.  HTTP 4xx is never retried.
* **Stale keep-alive connections.**  A *reused* connection that the server
  closed while it sat idle (``RemoteDisconnected``, ``ConnectionResetError``
  or ``BrokenPipeError`` before any response) is reopened once, at once,
  and does not count as a retry: a server closing an idle connection says
  nothing about whether it can answer.
* **Surfaced error payloads.**  :class:`ServingClientError` carries the
  server's JSON error payload, the endpoint, the HTTP status and the
  attempt count instead of swallowing the response body.
"""

from __future__ import annotations

import http.client
import itertools
import json
import sys
import time
import urllib.parse
import weakref
from array import array
from typing import Mapping, Sequence

from repro.exceptions import ReproError
from repro.obs import MetricsRegistry
from repro.serving.resilience import DEADLINE_HEADER, BackoffPolicy, Deadline
from repro.serving.transport import F64_MEDIA_TYPE, ConnectionPool, Response

__all__ = [
    "ServingClient",
    "ServingClientError",
    "DEFAULT_ENDPOINT_TIMEOUTS",
    "DEFAULT_TIMEOUT",
]

#: total per-call budgets by endpoint: liveness probes must fail fast,
#: server-side mining walks the whole released structure.
DEFAULT_ENDPOINT_TIMEOUTS: Mapping[str, float] = {
    "/healthz": 5.0,
    "/metrics": 10.0,
    "/releases": 10.0,
    "/query": 30.0,
    "/batch": 60.0,
    "/mine": 120.0,
}

#: budget for endpoints not in :data:`DEFAULT_ENDPOINT_TIMEOUTS`.
DEFAULT_TIMEOUT = 30.0

#: default ports of the URL schemes the client speaks.
_DEFAULT_PORTS = {"http": 80, "https": 443}

#: HTTP statuses worth retrying: every 5xx is either an upstream failure
#: (502/503/504) or an injected/unexpected server error on
#: an idempotent read.  4xx means the request itself is wrong — never retry.
_RETRYABLE_STATUSES = range(500, 600)

#: what :meth:`ServingClient.batch` accepts: binary counts, else JSON.
_BATCH_ACCEPT = f"{F64_MEDIA_TYPE}, application/json;q=0.5"


def _parse_retry_after(value: str | None) -> float | None:
    """``Retry-After`` as delta-seconds (our servers send fractional
    seconds; the RFC's HTTP-date form is not used by this stack)."""
    if value is None:
        return None
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if seconds >= 0 else None


class ServingClientError(ReproError):
    """The request failed; carries everything the server said.

    ``status`` is the HTTP status (0 for connection-level failures and
    exhausted deadlines), ``endpoint`` the API path, ``payload`` the
    server's parsed JSON error body (``None`` when unreachable), and
    ``attempts`` how many tries the client made before giving up.
    """

    def __init__(
        self,
        message: str,
        status: int = 0,
        *,
        endpoint: str | None = None,
        payload: dict | None = None,
        attempts: int = 1,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.endpoint = endpoint
        self.payload = payload
        self.attempts = attempts


class ServingClient:
    """Query, batch-query and mine against a running ``dpsc serve``.

    ``timeout`` is the flat total budget per call; ``None`` (the default)
    uses :data:`DEFAULT_ENDPOINT_TIMEOUTS` per endpoint.  ``retries`` caps
    re-attempts on connection failures and 5xx responses; ``seed`` makes
    the backoff delays replayable.  ``base_url`` is ``http://`` or
    ``https://``; connections to it are kept alive between calls until
    :meth:`close`.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float | None = None,
        *,
        retries: int = 4,
        backoff: BackoffPolicy | None = None,
        seed: int = 0,
        endpoint_timeouts: Mapping[str, float] | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme not in _DEFAULT_PORTS or not parts.hostname:
            raise ServingClientError(
                f"base URL {base_url!r} is not an http:// or https:// URL"
            )
        self._origin = (
            parts.scheme,
            parts.hostname,
            parts.port or _DEFAULT_PORTS[parts.scheme],
        )
        self._prefix = parts.path
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff = backoff if backoff is not None else BackoffPolicy(cap=1.0)
        self.seed = seed
        self.endpoint_timeouts = dict(
            DEFAULT_ENDPOINT_TIMEOUTS if endpoint_timeouts is None else endpoint_timeouts
        )
        #: per-instance registry (``metrics`` stays the server-scrape method
        #: for backwards compatibility, so the client's own counters live
        #: under ``telemetry``).
        self.telemetry = MetricsRegistry()
        self._retries_total = self.telemetry.counter(
            "dpsc_client_retries_total",
            "Attempts retried after a connection failure or 5xx response.",
        )
        self._deadline_exceeded = self.telemetry.counter(
            "dpsc_client_deadline_exceeded_total",
            "API calls abandoned because their total deadline ran out.",
        )
        self._connects = self.telemetry.counter(
            "dpsc_client_connects_total",
            "TCP connections opened (keep-alive reuses them across calls).",
        )
        #: per-request sequence feeding the backoff seed, so concurrent
        #: requests draw independent (but replayable) delay schedules.
        self._sequence = itertools.count()
        self._pool = ConnectionPool(on_connect=self._connects.inc)
        #: a client dropped without close() still closes its sockets.
        self._finalizer = weakref.finalize(self, self._pool.close)

    def close(self) -> None:
        """Close the idle keep-alive connections.  Calls made afterwards
        still work, on a connection each that is closed after the call."""
        self._finalizer()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def timeout_for(self, endpoint: str) -> float:
        """The total budget for one call to ``endpoint``."""
        if self.timeout is not None:
            return self.timeout
        return self.endpoint_timeouts.get(endpoint, DEFAULT_TIMEOUT)

    @property
    def num_retries(self) -> int:
        return int(self._retries_total.value)

    def _request(
        self,
        path: str,
        payload: dict | None = None,
        *,
        timeout: float | None = None,
        accept: str = "application/json",
    ) -> Response:
        """One API call's successful response, after retries; raises
        :class:`ServingClientError` on anything else."""
        endpoint = path.split("?", 1)[0]
        budget = timeout if timeout is not None else self.timeout_for(endpoint)
        deadline = Deadline.after(budget)
        url = f"{self.base_url}{path}"
        method, data = "GET", None
        headers = {"Accept": accept, DEADLINE_HEADER: deadline.header_value()}
        if payload is not None:
            method, data = "POST", json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        delays = self.backoff.iter_delays(f"{self.seed}:{next(self._sequence)}")
        attempts = 0
        last_failure = "no attempt was made"
        last_status = 0
        last_payload: dict | None = None
        while True:
            remaining = deadline.remaining()
            if remaining <= 0:
                self._deadline_exceeded.inc()
                raise ServingClientError(
                    f"deadline of {budget:g}s exceeded for {endpoint} after "
                    f"{attempts} attempt(s); last failure: {last_failure}",
                    last_status,
                    endpoint=endpoint,
                    payload=last_payload,
                    attempts=attempts,
                ) from None
            attempts += 1
            retry_after = None
            try:
                response = self._pool.request(
                    self._origin,
                    method,
                    self._prefix + path,
                    data,
                    headers,
                    timeout=remaining,
                    reopen_stale=True,
                )
            except (OSError, http.client.HTTPException) as error:
                # refused/reset/timed-out sockets and malformed responses
                last_status = 0
                last_payload = None
                last_failure = f"cannot reach {url}: {error}"
            else:
                if 200 <= response.status < 300:
                    return response
                try:
                    parsed = json.loads(response.body.decode("utf-8"))
                    last_payload = parsed if isinstance(parsed, dict) else None
                except (ValueError, UnicodeDecodeError):
                    last_payload = None
                last_status = response.status
                message = (last_payload or {}).get("error") or (
                    f"server returned HTTP {response.status}"
                )
                if response.status not in _RETRYABLE_STATUSES:
                    raise ServingClientError(
                        message,
                        response.status,
                        endpoint=endpoint,
                        payload=last_payload,
                        attempts=attempts,
                    )
                last_failure = f"HTTP {response.status}: {message}"
                retry_after = _parse_retry_after(response.headers.get("Retry-After"))
            if attempts > self.retries:
                raise ServingClientError(
                    f"{endpoint} failed after {attempts} attempt(s); "
                    f"last failure: {last_failure}",
                    last_status,
                    endpoint=endpoint,
                    payload=last_payload,
                    attempts=attempts,
                ) from None
            self._retries_total.inc()
            delay = next(delays) if retry_after is None else retry_after
            time.sleep(max(0.0, min(delay, deadline.remaining())))

    def _json(self, path: str, payload: dict | None = None, *, timeout: float | None = None):
        body = self._request(path, payload, timeout=timeout).body
        return json.loads(body.decode("utf-8"))

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def query(
        self, pattern: str, release: str | None = None, *, timeout: float | None = None
    ) -> float:
        """Noisy count of one pattern."""
        payload: dict = {"pattern": pattern}
        if release is not None:
            payload["release"] = release
        return float(self._json("/query", payload, timeout=timeout)["count"])

    def batch(
        self,
        patterns: Sequence[str],
        release: str | None = None,
        *,
        timeout: float | None = None,
    ) -> list[float]:
        """Noisy counts of many patterns in one round trip.

        The server is asked for binary float64 counts; a JSON reply (from a
        server that does not offer them) is read as well.
        """
        payload: dict = {"patterns": list(patterns)}
        if release is not None:
            payload["release"] = release
        response = self._request("/batch", payload, timeout=timeout, accept=_BATCH_ACCEPT)
        content_type = response.headers.get("Content-Type", "")
        if content_type.split(";", 1)[0].strip().lower() != F64_MEDIA_TYPE:
            return [float(c) for c in json.loads(response.body.decode("utf-8"))["counts"]]
        expected = len(payload["patterns"])
        if len(response.body) != 8 * expected:
            raise ServingClientError(
                f"/batch answered {expected} patterns with "
                f"{len(response.body)} bytes of {F64_MEDIA_TYPE}",
                response.status,
                endpoint="/batch",
            )
        counts = array("d", response.body)
        if sys.byteorder == "big":
            counts.byteswap()  # the wire is little-endian
        return counts.tolist()

    def mine(
        self,
        threshold: float,
        release: str | None = None,
        *,
        min_length: int = 1,
        max_length: int | None = None,
        exact_length: int | None = None,
        timeout: float | None = None,
    ) -> list[tuple[str, float]]:
        """Frequent stored patterns at ``threshold`` (server-side mining)."""
        payload: dict = {"threshold": threshold, "min_length": min_length}
        if release is not None:
            payload["release"] = release
        if max_length is not None:
            payload["max_length"] = max_length
        if exact_length is not None:
            payload["exact_length"] = exact_length
        return [
            (pattern, float(count))
            for pattern, count in self._json("/mine", payload, timeout=timeout)["patterns"]
        ]

    def releases(self) -> list[dict]:
        """Metadata of every served release."""
        return self._json("/releases")["releases"]

    def healthz(self) -> dict:
        """Liveness and serving statistics."""
        return self._json("/healthz")

    def metrics(self) -> str:
        """The server's metrics in Prometheus text exposition format."""
        return self._request("/metrics", accept="text/plain").body.decode("utf-8")

    def metrics_snapshot(self) -> dict:
        """The server's raw metrics registry snapshot (``/metrics?format=json``)."""
        return self._json("/metrics?format=json")
