"""Tests for the resilience primitives and the resilient client.

:mod:`repro.serving.resilience` is deliberately four small, independently
testable machines — seeded decorrelated-jitter backoff, the circuit
breaker, wall-clock deadlines, the admission gate — plus the retry loop
that composes them.  The properties proven here (delays bounded by
``[base, cap]`` and replayable from the seed; the breaker's exact
closed → open → half-open transitions with probe accounting; deadline
headers round-tripping bit-exactly) are what the chaos drill (E29)
assumes when it verifies whole-cluster runs.  The client tests drive a
scripted stub HTTP server so every retry decision — 5xx retried, 4xx
surfaced immediately with the server's payload, ``Retry-After``
overriding backoff, the total deadline cutting off retries — is observed
on the wire, and so is its keep-alive transport: one connection for
sequential calls, an uncounted reopen of a connection the server closed
while idle, and never a late reply read as the next call's answer.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.client import DEFAULT_TIMEOUT, ServingClient, ServingClientError
from repro.serving.resilience import (
    DEADLINE_HEADER,
    AdmissionGate,
    BackoffPolicy,
    CircuitBreaker,
    Deadline,
    call_with_retries,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# BackoffPolicy
# ----------------------------------------------------------------------
class TestBackoffPolicy:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        base=st.floats(0.001, 1.0),
        cap_factor=st.floats(1.0, 10.0),
        multiplier=st.floats(1.0, 4.0),
    )
    def test_delays_are_bounded_and_replayable(self, seed, base, cap_factor, multiplier):
        policy = BackoffPolicy(base=base, cap=base * cap_factor, multiplier=multiplier)
        delays = policy.schedule(seed, 12)
        assert delays == policy.schedule(seed, 12)
        previous = policy.base
        for delay in delays:
            assert policy.base <= delay <= policy.cap + 1e-12
            # decorrelated jitter: each draw is capped by the previous
            # delay times the multiplier (and by the hard cap)
            assert delay <= min(policy.cap, previous * policy.multiplier) + 1e-9
            previous = delay

    def test_different_seeds_decorrelate(self):
        policy = BackoffPolicy()
        schedules = {tuple(policy.schedule(seed, 6)) for seed in range(20)}
        assert len(schedules) == 20

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=0.0)
        with pytest.raises(ValueError):
            BackoffPolicy(base=1.0, cap=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=0.9)


class TestCallWithRetries:
    def test_succeeds_after_transient_failures_with_seeded_sleeps(self):
        policy = BackoffPolicy(base=0.01, cap=0.05)
        failures = iter([OSError("a"), OSError("b")])
        calls = []

        def flaky():
            calls.append(1)
            for error in failures:
                raise error
            return "ok"

        slept: list[float] = []
        retried: list[BaseException] = []
        result = call_with_retries(
            flaky,
            retries=4,
            transient=(OSError,),
            backoff=policy,
            seed="unit",
            on_retry=retried.append,
            sleep=slept.append,
        )
        assert result == "ok"
        assert len(calls) == 3
        assert [str(error) for error in retried] == ["a", "b"]
        assert slept == policy.schedule("unit", 2)

    def test_non_transient_errors_propagate_immediately(self):
        calls = []

        def wrong():
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            call_with_retries(
                wrong, retries=5, transient=(OSError,), sleep=lambda _d: None
            )
        assert len(calls) == 1

    def test_exhausted_retries_reraise_the_last_error(self):
        def always():
            raise OSError("still down")

        with pytest.raises(OSError, match="still down"):
            call_with_retries(
                always, retries=2, transient=(OSError,), sleep=lambda _d: None
            )

    def test_expired_deadline_stops_retrying(self):
        calls = []

        def always():
            calls.append(1)
            raise OSError("down")

        with pytest.raises(OSError):
            call_with_retries(
                always,
                retries=10,
                transient=(OSError,),
                deadline=Deadline(time.time() - 1.0),
                sleep=lambda _d: None,
            )
        assert len(calls) == 1  # attempts remain, but the budget is gone


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        transitions: list[tuple[str, str]] = []
        breaker = CircuitBreaker(
            failure_threshold=kwargs.pop("failure_threshold", 3),
            recovery_time=kwargs.pop("recovery_time", 10.0),
            clock=clock,
            on_transition=lambda old, new: transitions.append((old, new)),
            **kwargs,
        )
        return breaker, clock, transitions

    def test_stays_closed_below_the_failure_threshold(self):
        breaker, _clock, transitions = self.make()
        for _ in range(2):
            assert breaker.try_acquire()
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert transitions == []

    def test_success_resets_the_consecutive_failure_count(self):
        breaker, _clock, _ = self.make()
        for _ in range(2):
            assert breaker.try_acquire()
            breaker.record_failure()
        assert breaker.try_acquire()
        breaker.record_success()
        # two more failures: the earlier pair must not count toward the
        # threshold of three any more
        for _ in range(2):
            assert breaker.try_acquire()
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_threshold_failures_trip_it_open(self):
        breaker, clock, transitions = self.make()
        for _ in range(3):
            assert breaker.try_acquire()
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert transitions == [("closed", "open")]
        assert not breaker.try_acquire()
        assert not breaker.would_allow()
        clock.advance(9.9)  # just inside the recovery window
        assert not breaker.try_acquire()

    def test_recovery_admits_one_probe_whose_success_recloses(self):
        breaker, clock, transitions = self.make()
        for _ in range(3):
            breaker.try_acquire()
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.would_allow()
        assert breaker.try_acquire()  # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.try_acquire()  # probe slot taken (max_probes=1)
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert transitions == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]
        assert breaker.try_acquire()

    def test_probe_failure_reopens_with_a_fresh_recovery_window(self):
        breaker, clock, transitions = self.make()
        for _ in range(3):
            breaker.try_acquire()
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.try_acquire()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert transitions[-1] == ("half_open", "open")
        assert not breaker.try_acquire()  # window restarted at the failure
        clock.advance(10.0)
        assert breaker.try_acquire()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_slots_are_accounted(self):
        breaker, clock, _ = self.make(half_open_max_probes=2)
        for _ in range(3):
            breaker.try_acquire()
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.try_acquire()
        assert breaker.try_acquire()
        assert not breaker.try_acquire()  # both slots outstanding
        assert not breaker.would_allow()
        breaker.record_success()  # one probe back -> recloses
        assert breaker.state == CircuitBreaker.CLOSED

    def test_state_codes_match_the_gauge_encoding(self):
        breaker, clock, _ = self.make(failure_threshold=1)
        assert breaker.state_code == 0.0
        breaker.try_acquire()
        breaker.record_failure()
        assert breaker.state_code == 2.0
        clock.advance(10.0)
        breaker.try_acquire()
        assert breaker.state_code == 1.0

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(recovery_time=-1.0)
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_max_probes=0)


# ----------------------------------------------------------------------
# Deadline & AdmissionGate
# ----------------------------------------------------------------------
class TestDeadline:
    @settings(max_examples=50, deadline=None)
    @given(at=st.floats(allow_nan=False, allow_infinity=False))
    def test_header_round_trips_bit_exactly(self, at):
        parsed = Deadline.from_header(Deadline(at).header_value())
        assert parsed is not None
        assert parsed.at == float(at)

    @pytest.mark.parametrize("value", [None, "", "soon", "nan", "inf", "-inf"])
    def test_garbage_headers_parse_to_none(self, value):
        assert Deadline.from_header(value) is None

    def test_remaining_and_expiry_track_the_clock(self):
        clock = FakeClock(now=100.0)
        deadline = Deadline.after(5.0, clock=clock)
        assert deadline.remaining(clock=clock) == 5.0
        assert not deadline.expired(clock=clock)
        clock.advance(5.0)
        assert deadline.expired(clock=clock)


class TestAdmissionGate:
    def test_sheds_above_the_limit_and_recovers(self):
        gate = AdmissionGate(2)
        assert gate.try_enter()
        assert gate.try_enter()
        assert not gate.try_enter()
        assert gate.inflight == 2
        gate.leave()
        assert gate.try_enter()

    def test_leave_never_goes_negative(self):
        gate = AdmissionGate(1)
        gate.leave()
        assert gate.inflight == 0
        assert gate.try_enter()

    def test_invalid_limit_is_rejected(self):
        with pytest.raises(ValueError):
            AdmissionGate(0)


# ----------------------------------------------------------------------
# ServingClient against a scripted stub server
# ----------------------------------------------------------------------
class _ScriptedHandler(BaseHTTPRequestHandler):
    """Plays back ``server.script`` one step per request (last step repeats)
    and records everything the client sent."""

    def _serve(self) -> None:
        server = self.server
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        with server.lock:
            index = len(server.requests)
            server.requests.append(
                {
                    "path": self.path,
                    "headers": dict(self.headers),
                    # HTTPMessage lookups are case-insensitive; the dict above
                    # keeps whatever casing the transport normalised to
                    "deadline": self.headers.get(DEADLINE_HEADER),
                    "body": body,
                    "client": self.client_address,
                }
            )
            step = server.script[min(index, len(server.script) - 1)]
        if step.get("sleep"):
            time.sleep(step["sleep"])
        payload = json.dumps(step.get("body", {})).encode("utf-8")
        self.send_response(step.get("status", 200))
        for name, value in step.get("headers", {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    do_GET = _serve
    do_POST = _serve

    def log_message(self, *_args) -> None:  # silence test output
        pass


class _KeepAliveHandler(_ScriptedHandler):
    """The scripted stub over HTTP/1.1: connections stay open between
    requests, as on the real servers."""

    protocol_version = "HTTP/1.1"
    #: headers and body are two writes; Nagle would hold the second ~40ms
    disable_nagle_algorithm = True


class _StaleHandler(_KeepAliveHandler):
    """Closes the connection after every response *without* sending
    ``Connection: close`` — the client only finds out on its next request."""

    def _serve(self) -> None:
        super()._serve()
        self.close_connection = True

    do_GET = _serve
    do_POST = _serve


@pytest.fixture
def scripted_server():
    servers = []

    def start(script, handler=_ScriptedHandler):
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        # keep-alive handler threads must not hold up server_close
        server.daemon_threads = True
        server.script = script
        server.requests = []
        server.lock = threading.Lock()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        return server, f"http://127.0.0.1:{server.server_address[1]}"

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


FAST = BackoffPolicy(base=0.005, cap=0.01)


class TestServingClient:
    def test_retries_5xx_until_success_and_counts_them(self, scripted_server):
        server, url = scripted_server(
            [
                {"status": 500, "body": {"error": "injected"}},
                {"status": 502, "body": {"error": "bad gateway"}},
                {"status": 200, "body": {"count": 7.0}},
            ]
        )
        client = ServingClient(url, retries=4, backoff=FAST, seed=1)
        assert client.query("ab") == 7.0
        assert client.num_retries == 2
        assert len(server.requests) == 3

    def test_every_attempt_carries_the_deadline_header(self, scripted_server):
        server, url = scripted_server(
            [{"status": 500, "body": {}}, {"status": 200, "body": {"count": 1.0}}]
        )
        client = ServingClient(url, retries=2, backoff=FAST)
        before = time.time()
        client.query("ab")
        budget = client.timeout_for("/query")
        stamps = [float(request["deadline"]) for request in server.requests]
        assert len(stamps) == 2
        # one absolute deadline for the whole call, identical across retries
        assert stamps[0] == stamps[1]
        assert before + budget <= stamps[0] <= time.time() + budget

    def test_4xx_surfaces_the_server_payload_without_retrying(self, scripted_server):
        server, url = scripted_server(
            [
                {
                    "status": 404,
                    "body": {"error": "release 'v9' is not served", "release": "v9"},
                }
            ]
        )
        client = ServingClient(url, retries=4, backoff=FAST)
        with pytest.raises(ServingClientError, match="not served") as excinfo:
            client.query("ab", release="v9")
        error = excinfo.value
        assert error.status == 404
        assert error.attempts == 1
        assert error.endpoint == "/query"
        assert error.payload == {"error": "release 'v9' is not served", "release": "v9"}
        assert len(server.requests) == 1
        assert client.num_retries == 0

    def test_retry_after_overrides_the_backoff_delay(self, scripted_server):
        server, url = scripted_server(
            [
                {
                    "status": 503,
                    "body": {"error": "at capacity"},
                    "headers": {"Retry-After": "0.05"},
                },
                {"status": 200, "body": {"count": 2.0}},
            ]
        )
        # the backoff alone would sleep >= 2s; Retry-After must win
        client = ServingClient(
            url, retries=2, backoff=BackoffPolicy(base=2.0, cap=3.0)
        )
        started = time.monotonic()
        assert client.query("ab") == 2.0
        assert time.monotonic() - started < 1.0
        assert len(server.requests) == 2

    def test_exhausted_retries_raise_with_the_last_5xx(self, scripted_server):
        server, url = scripted_server([{"status": 500, "body": {"error": "down"}}])
        client = ServingClient(url, retries=1, backoff=FAST)
        with pytest.raises(ServingClientError, match="down") as excinfo:
            client.query("ab")
        assert excinfo.value.status == 500
        assert excinfo.value.attempts == 2
        assert len(server.requests) == 2

    def test_total_deadline_cuts_off_slow_servers(self, scripted_server):
        _server, url = scripted_server(
            [{"status": 200, "body": {"count": 1.0}, "sleep": 0.5}]
        )
        client = ServingClient(url, timeout=0.1, retries=10, backoff=FAST)
        with pytest.raises(ServingClientError, match="deadline") as excinfo:
            client.query("ab")
        assert excinfo.value.status == 0
        assert client._deadline_exceeded.value >= 1

    def test_connection_failures_are_retried_then_surfaced(self):
        # nothing listens on this port (bound-then-closed to reserve it)
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServingClient(f"http://127.0.0.1:{port}", retries=2, backoff=FAST)
        with pytest.raises(ServingClientError, match="cannot reach") as excinfo:
            client.healthz()
        assert excinfo.value.status == 0
        assert excinfo.value.attempts == 3

    def test_sequential_calls_share_one_connection(self, scripted_server):
        server, url = scripted_server(
            [{"status": 200, "body": {"count": 1.0}}], _KeepAliveHandler
        )
        with ServingClient(url) as client:
            for _ in range(50):
                assert client.query("ab") == 1.0
            assert client.telemetry.get("dpsc_client_connects_total").value == 1
        assert len({request["client"] for request in server.requests}) == 1

    def test_stale_connection_is_reopened_without_a_retry(self, scripted_server):
        server, url = scripted_server(
            [{"status": 200, "body": {"count": 3.0}}], _StaleHandler
        )
        with ServingClient(url, retries=0) as client:
            for _ in range(20):
                assert client.query("ab") == 3.0
            assert client.num_retries == 0
            assert client.telemetry.get("dpsc_client_connects_total").value == 20
        assert len(server.requests) == 20

    def test_late_reply_is_never_read_as_the_next_answer(self, scripted_server):
        server, url = scripted_server(
            [
                {"status": 200, "body": {"count": 1.0}, "sleep": 0.3},
                {"status": 200, "body": {"count": 2.0}},
            ],
            _KeepAliveHandler,
        )
        with ServingClient(url, retries=0, backoff=FAST) as client:
            with pytest.raises(ServingClientError):
                client.query("ab", timeout=0.1)
            time.sleep(0.5)  # the late reply to the first call has been sent
            assert client.query("ab", timeout=5.0) == 2.0
        assert len(server.requests) == 2

    def test_one_client_shared_by_threads_is_bit_identical(self):
        from repro.serving import (
            QueryService,
            create_server,
            execute_operation,
            generate_workload,
            run_load_test,
        )
        from tests.serving.test_release_format import make_structure

        service = QueryService(
            {
                "one": make_structure({"ab": 5.0, "ba": 3.0, "abb": 1.5}),
                "two": make_structure({"ab": 2.0, "bb": 7.25, "bab": 4.0}),
            }
        )
        server = create_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        workload = generate_workload(service, 240, seed=7)
        expected = [execute_operation(service, operation) for operation in workload]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads' pool use finely
        try:
            with ServingClient(f"http://127.0.0.1:{server.server_address[1]}") as client:
                result = run_load_test(
                    client, workload, threads=8, expected=expected, check=True
                )
                connects = client.telemetry.get("dpsc_client_connects_total").value
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()
        assert not thread.is_alive()
        assert result.bit_identical and result.counters_consistent
        assert result.errors == []
        assert 1 <= connects <= 8  # at most one connection per thread

    @pytest.mark.parametrize("base_url", ["ftp://127.0.0.1:1", "127.0.0.1:8080"])
    def test_non_http_base_urls_are_rejected(self, base_url):
        with pytest.raises(ServingClientError, match="http"):
            ServingClient(base_url)

    def test_https_base_urls_use_tls(self):
        # a plain-HTTP stub cannot complete a TLS handshake: the call fails
        # at the connection level, which proves the client spoke TLS
        from repro.serving import QueryService, create_server
        from tests.serving.test_release_format import make_structure

        service = QueryService({"demo": make_structure({"ab": 5.0})}, micro_batch=False)
        server = create_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server.server_address[1]
        try:
            with ServingClient(f"https://127.0.0.1:{port}", retries=0) as client:
                with pytest.raises(ServingClientError, match="cannot reach"):
                    client.healthz()
            with ServingClient(f"http://127.0.0.1:{port}") as client:
                assert client.healthz()["status"] == "ok"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()

    def test_per_endpoint_timeout_defaults_and_flat_override(self):
        client = ServingClient("http://127.0.0.1:1")
        assert client.timeout_for("/healthz") == 5.0
        assert client.timeout_for("/mine") == 120.0
        assert client.timeout_for("/unknown") == DEFAULT_TIMEOUT
        flat = ServingClient("http://127.0.0.1:1", timeout=3.0)
        assert flat.timeout_for("/mine") == 3.0
        assert flat.timeout_for("/healthz") == 3.0


# ----------------------------------------------------------------------
# The real server refuses expired work with 504
# ----------------------------------------------------------------------
class TestServerDeadlineRefusal:
    def test_expired_deadline_header_answers_504(self):
        from repro.serving import QueryService, create_server
        from tests.serving.test_release_format import make_structure

        service = QueryService(
            {"demo": make_structure({"ab": 5.0, "ba": 3.0})}, micro_batch=False
        )
        server = create_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}/query"
            body = json.dumps({"pattern": "ab"}).encode("utf-8")

            def post(deadline_at):
                request = urllib.request.Request(
                    url,
                    data=body,
                    headers={
                        "Content-Type": "application/json",
                        DEADLINE_HEADER: repr(deadline_at),
                    },
                )
                with urllib.request.urlopen(request, timeout=5) as response:
                    return response.status, json.loads(response.read())

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(time.time() - 5.0)
            assert excinfo.value.code == 504
            payload = json.loads(excinfo.value.read())
            assert "deadline" in payload["error"]
            assert service.num_deadline_exceeded == 1

            status, answer = post(time.time() + 30.0)
            assert status == 200
            assert answer["count"] == 5.0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            service.close()
