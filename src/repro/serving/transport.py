"""The keep-alive HTTP/1.1 transport of the serving stack.

:class:`~repro.serving.client.ServingClient` sends every request through a
:class:`ConnectionPool` (so does a cluster worker handing ``/healthz`` to
its supervisor): one thread-safe, LIFO list of idle :mod:`http.client`
connections per origin, so a request pays for a TCP connect only when no
idle connection to its origin is left.  Queries are post-processing of a
released structure and cost well under a millisecond; connection set-up,
not the count lookup, is the cost that keep-alive removes.

A connection serves one request at a time.  It goes back to the pool only
after its whole response was read and the server did not ask to close;
any exception closes it instead, so a reply arriving late for a timed-out
request can never be read as the next request's answer.
"""

from __future__ import annotations

import http.client
import socket
import threading
from dataclasses import dataclass
from typing import Callable, Mapping

__all__ = ["ConnectionPool", "Response", "F64_MEDIA_TYPE"]

#: the media type of a binary ``/batch`` reply: the counts as raw
#: little-endian float64, in request order (docs/SERVING.md, "Wire format").
F64_MEDIA_TYPE = "application/x-dpsc-f64"

#: ``(scheme, host, port)`` — the key connections are pooled under.
Origin = tuple[str, str, int]

#: how a reused keep-alive connection fails when the server closed it while
#: it sat idle: no status line at all, a reset, or a write into a socket the
#: peer already shut.
STALE_ERRORS = (
    http.client.RemoteDisconnected,
    ConnectionResetError,
    BrokenPipeError,
)


@dataclass(frozen=True)
class Response:
    """One complete HTTP response: status, headers and the whole body."""

    status: int
    headers: http.client.HTTPMessage
    body: bytes


class ConnectionPool:
    """Idle keep-alive connections per origin, shared by every thread.

    ``on_connect`` is called once per new TCP connection (the callers count
    them in their metrics registries).  :meth:`close` closes every idle
    connection and makes the pool close, instead of keep, connections
    returned later, so a closed pool still serves requests but holds no
    socket between them.
    """

    def __init__(self, *, on_connect: Callable[[], None] | None = None) -> None:
        self._on_connect = on_connect
        self._idle: dict[Origin, list[http.client.HTTPConnection]] = {}
        self._lock = threading.Lock()
        self._closed = False

    def request(
        self,
        origin: Origin,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: Mapping[str, str] | None = None,
        *,
        timeout: float,
        reopen_stale: bool = False,
    ) -> Response:
        """One request/response on a pooled connection to ``origin``.

        ``timeout`` bounds the connect and every socket operation of this
        request.  Connection failures and timeouts raise (``OSError`` or
        :class:`http.client.HTTPException`).  With ``reopen_stale``, a
        *reused* connection that fails with one of :data:`STALE_ERRORS`
        before any response arrived is replaced by a new connection and the
        request is sent once more — the server closed an idle connection,
        which says nothing about whether it can answer.
        """
        conn, reused = self._checkout(origin, timeout)
        while True:
            try:
                conn.request(method, path, body=body, headers=headers or {})
                response = conn.getresponse()
                break
            except STALE_ERRORS:
                conn.close()
                if not (reused and reopen_stale):
                    raise
            except BaseException:
                conn.close()
                raise
            conn, reused = self._connect(origin, timeout), False
        try:
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            self._checkin(origin, conn)
        return Response(response.status, response.headers, data)

    def discard(self, origin: Origin) -> None:
        """Close and forget every idle connection to ``origin`` (its server
        is gone; the pool would otherwise hold the sockets forever)."""
        with self._lock:
            conns = self._idle.pop(origin, [])
        for conn in conns:
            conn.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            conns = [conn for idle in self._idle.values() for conn in idle]
            self._idle.clear()
        for conn in conns:
            conn.close()

    # ------------------------------------------------------------------
    def _checkout(
        self, origin: Origin, timeout: float
    ) -> tuple[http.client.HTTPConnection, bool]:
        with self._lock:
            idle = self._idle.get(origin)
            conn = idle.pop() if idle else None
        if conn is None:
            return self._connect(origin, timeout), False
        conn.sock.settimeout(timeout)
        return conn, True

    def _checkin(self, origin: Origin, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if not self._closed:
                self._idle.setdefault(origin, []).append(conn)
                return
        conn.close()

    def _connect(self, origin: Origin, timeout: float) -> http.client.HTTPConnection:
        scheme, host, port = origin
        factory = (
            http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
        )
        conn = factory(host, port, timeout=timeout)
        try:
            conn.connect()
            # Nagle + the peer's delayed ACK costs ~40ms per request on a
            # reused connection; queries are sub-millisecond.
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except BaseException:
            conn.close()
            raise
        if self._on_connect is not None:
            self._on_connect()
        return conn
