"""Tests for the query service, micro-batcher, HTTP server and client."""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.core.construction import build_private_counting_structure
from repro.core.params import ConstructionParams
from repro.exceptions import ReleaseNotFoundError, ReproError
from repro.serving import (
    CompiledTrie,
    QueryService,
    ReleaseStore,
    ServingClient,
    ServingClientError,
    accepts_f64,
    create_server,
)


@pytest.fixture(scope="module")
def structures():
    """Two small released structures acting as distinct releases."""
    from repro.core.database import StringDatabase

    rng = np.random.default_rng(3)
    params = ConstructionParams.pure(2.0, beta=0.1, noiseless=True, threshold=1.0)
    first = build_private_counting_structure(
        StringDatabase(["abab", "abba", "baba", "bbbb", "aabb"]), params, rng=rng
    )
    second = build_private_counting_structure(
        StringDatabase(["aaaa", "abe", "absab", "babe", "bee", "bees"]), params, rng=rng
    )
    return {"first": first, "second": second}


@pytest.fixture
def service(structures):
    service = QueryService(structures, default_release="first", micro_batch=False)
    yield service
    service.close()


class TestQueryService:
    def test_query_routes_to_default_release(self, service, structures):
        assert service.query("ab") == structures["first"].query("ab")

    def test_per_release_routing(self, service, structures):
        assert service.query("bee", release="second") == structures["second"].query(
            "bee"
        )
        assert service.query("bee", release="first") == structures["first"].query(
            "bee"
        )

    def test_batch_matches_structure(self, service, structures):
        probes = ["ab", "ba", "bb", "zz", "", "abab"]
        counts = service.batch(probes, release="first")
        assert counts == [structures["first"].query(p) for p in probes]

    def test_mine_matches_structure(self, service, structures):
        assert service.mine(1.0, release="second") == structures["second"].mine(1.0)

    def test_unknown_release_raises(self, service):
        with pytest.raises(ReleaseNotFoundError):
            service.query("ab", release="nope")

    def test_empty_service_rejected(self):
        with pytest.raises(ReproError):
            QueryService({})

    def test_unknown_default_rejected(self, structures):
        with pytest.raises(ReleaseNotFoundError):
            QueryService(structures, default_release="nope")

    def test_health_counters(self, service):
        before = service.health()["queries"]
        service.query("ab")
        service.batch(["ab", "ba"])
        service.mine(1.0)
        health = service.health()
        assert health["status"] == "ok"
        assert health["queries"] == before + 1
        assert health["batches"] >= 1
        assert health["batch_patterns"] >= 2
        assert health["mines"] >= 1
        assert set(health["releases"]) == {"first", "second"}

    def test_releases_info(self, service):
        infos = service.releases_info()
        assert [info["name"] for info in infos] == ["first", "second"]
        assert infos[0]["default"] is True
        assert all(info["num_patterns"] > 0 for info in infos)

    def test_accepts_precompiled_releases(self, structures):
        compiled = CompiledTrie.from_structure(structures["first"])
        service = QueryService({"first": compiled}, micro_batch=False)
        assert service.query("ab") == structures["first"].query("ab")
        service.close()


class TestMicroBatcher:
    def test_concurrent_queries_answer_correctly(self, structures):
        service = QueryService(structures, micro_batch=True, max_wait=0.001)
        try:
            probes = ["ab", "ba", "bb", "zz", "abab", "bee"] * 8
            results: dict[int, float] = {}

            def worker(index: int, pattern: str) -> None:
                results[index] = service.query(pattern)

            threads = [
                threading.Thread(target=worker, args=(i, p))
                for i, p in enumerate(probes)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            expected = {
                i: structures["first"].query(p) for i, p in enumerate(probes)
            }
            assert results == expected
            health = service.health()
            assert health["micro_batched_requests"] == len(probes)
            assert 1 <= health["micro_batches_flushed"] <= len(probes)
        finally:
            service.close()

    def test_sequential_queries_hit_the_lru_cache(self, structures):
        # Singleton flushes take the cached single-query path, so hot
        # patterns benefit from the LRU even with micro-batching enabled.
        service = QueryService(structures, micro_batch=True)
        try:
            expected = structures["first"].query("ab")
            for _ in range(5):
                assert service.query("ab") == expected
            assert service.release("first").cache_info().hits > 0
        finally:
            service.close()

    def test_submit_after_close_raises(self, structures):
        service = QueryService(structures, micro_batch=True)
        batcher = service._batcher
        service.close()
        with pytest.raises(ReproError):
            batcher.submit("ab", "first")

    def test_flushes_do_not_count_as_batch_traffic(self, structures):
        # A micro-batched flush of coalesced single queries must not bump
        # num_batches/num_batch_patterns: /healthz would misreport single
        # -query traffic as /batch traffic.
        service = QueryService(structures, micro_batch=True, max_wait=0.001)
        try:
            probes = ["ab", "ba", "bb", "zz", "abab", "bee"] * 8
            threads = [
                threading.Thread(target=service.query, args=(p,)) for p in probes
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            health = service.health()
            assert health["queries"] == len(probes)
            assert health["batches"] == 0
            assert health["batch_patterns"] == 0
            assert health["micro_batched_requests"] == len(probes)
            # An actual /batch request still counts as one.
            service.batch(["ab", "ba"])
            health = service.health()
            assert health["batches"] == 1
            assert health["batch_patterns"] == 2
        finally:
            service.close()


@pytest.fixture(scope="module")
def http_client(structures):
    service = QueryService(structures, default_release="first", max_wait=0.001)
    server = create_server(service, port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    with ServingClient(f"http://{host}:{port}") as client:
        yield client, structures
    server.shutdown()
    server.server_close()
    service.close()


class TestHTTPEndToEnd:
    def test_query(self, http_client):
        client, structures = http_client
        assert client.query("ab") == structures["first"].query("ab")
        assert client.query("bee", release="second") == structures["second"].query(
            "bee"
        )

    def test_batch_parity(self, http_client):
        client, structures = http_client
        probes = ["ab", "ba", "zz", "", "abab", "a?b"]
        assert client.batch(probes) == [structures["first"].query(p) for p in probes]

    def test_mine_parity(self, http_client):
        client, structures = http_client
        assert client.mine(1.0, release="second") == structures["second"].mine(1.0)
        assert client.mine(1.0, exact_length=2) == structures["first"].mine(
            1.0, exact_length=2
        )

    def test_releases_and_health(self, http_client):
        client, _ = http_client
        names = [info["name"] for info in client.releases()]
        assert names == ["first", "second"]
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0

    def test_unknown_release_is_404(self, http_client):
        client, _ = http_client
        with pytest.raises(ServingClientError) as excinfo:
            client.query("ab", release="nope")
        assert excinfo.value.status == 404

    def test_unknown_path_is_404(self, http_client):
        client, _ = http_client
        with pytest.raises(ServingClientError) as excinfo:
            client._request("/nope", {})
        assert excinfo.value.status == 404
        with pytest.raises(ServingClientError):
            client._request("/nope")

    def test_malformed_requests_are_400(self, http_client):
        client, _ = http_client
        with pytest.raises(ServingClientError) as excinfo:
            client._request("/query", {"pattern": 7})
        assert excinfo.value.status == 400
        with pytest.raises(ServingClientError):
            client._request("/batch", {"patterns": "not-a-list"})
        with pytest.raises(ServingClientError):
            client._request("/mine", {"threshold": "high"})

    def test_non_object_json_bodies_are_json_400(self, http_client):
        # Valid JSON that is not an object must be a JSON 400, not an
        # unhandled AttributeError that drops the connection.
        client, _ = http_client
        for body in ([1, 2, 3], "abc", 42, True):
            with pytest.raises(ServingClientError) as excinfo:
                client._request("/query", body)
            assert excinfo.value.status == 400, body

    def test_malformed_mine_lengths_are_json_400(self, http_client):
        # A string max_length (or any non-integer length field) must come
        # back as a JSON 400, not escape as a raw 500.
        client, _ = http_client
        for payload in (
            {"threshold": 1.0, "max_length": "three"},
            {"threshold": 1.0, "min_length": "2"},
            {"threshold": 1.0, "min_length": 1.5},
            {"threshold": 1.0, "exact_length": [2]},
            {"threshold": 1.0, "exact_length": True},
            {"threshold": True},
        ):
            with pytest.raises(ServingClientError) as excinfo:
                client._request("/mine", payload)
            assert excinfo.value.status == 400, payload
            assert excinfo.value.args[0], payload  # JSON error message

    def test_mine_accepts_integral_fields(self, http_client):
        client, structures = http_client
        assert client.mine(
            1.0, release="first", min_length=1, max_length=3
        ) == structures["first"].mine(1.0, min_length=1, max_length=3)

    def test_get_query_with_params(self, http_client):
        client, structures = http_client
        import json
        import urllib.request

        url = f"{client.base_url}/query?pattern=ab&release=first"
        with urllib.request.urlopen(url, timeout=10) as response:
            payload = json.loads(response.read().decode("utf-8"))
        assert payload["count"] == structures["first"].query("ab")

    def test_unreachable_server_raises(self):
        client = ServingClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ServingClientError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0


class TestShutdown:
    def test_idle_keep_alive_connection_does_not_hold_up_shutdown(self, structures):
        service = QueryService(structures, default_release="first")
        server = create_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with ServingClient(
            f"http://127.0.0.1:{server.server_address[1]}", retries=1
        ) as client:
            assert client.query("ab") == structures["first"].query("ab")
            # the client now holds an idle connection, and the server a
            # handler thread blocked reading its next request
            started = time.monotonic()
            server.shutdown()
            server.server_close()
            assert time.monotonic() - started < 2.0
            thread.join(timeout=5)
            assert not thread.is_alive()
            # the kept-alive connection is refused service (503, closed),
            # and the retry finds no listener: a prompt error, no answer
            with pytest.raises(ServingClientError) as excinfo:
                client.query("ab")
            assert excinfo.value.attempts == 2
            assert time.monotonic() - started < 5.0
        service.close()


class TestFromStore:
    def test_serves_store_releases(self, tmp_path, structures):
        store = ReleaseStore(tmp_path / "store")
        store.save("first", structures["first"])
        store.save("second", structures["second"])
        service = QueryService.from_store(store, micro_batch=False)
        try:
            assert service.query("ab", release="first") == structures["first"].query(
                "ab"
            )
            assert set(info["name"] for info in service.releases_info()) == {
                "first",
                "second",
            }
        finally:
            service.close()

    def test_serves_pinned_version(self, tmp_path, structures):
        store = ReleaseStore(tmp_path / "store")
        store.save("demo", structures["first"])
        store.save("demo", structures["second"])
        store.pin("demo", 1)
        service = QueryService.from_store(store, micro_batch=False)
        try:
            assert service.query("abab") == structures["first"].query("abab")
        finally:
            service.close()

    def test_empty_store_rejected(self, tmp_path):
        store = ReleaseStore(tmp_path / "store")
        with pytest.raises(ReleaseNotFoundError):
            QueryService.from_store(store)


# ----------------------------------------------------------------------
# Binary /batch counts (Accept: application/x-dpsc-f64)
# ----------------------------------------------------------------------
F64 = "application/x-dpsc-f64"

#: hits, misses (0.0), an astral-plane and a NUL-containing pattern, and
#: mixed lengths (the empty pattern included).
WIRE_PATTERNS = ["ab", "ba", "bb", "zz", "", "abab", "a\U0001f600b", "a\x00b", "b", "abba"]


def _raw_batch(client, patterns, accept=None):
    """One raw ``POST /batch``: status, Content-Type and body."""
    import json
    import urllib.request

    headers = {"Content-Type": "application/json"}
    if accept is not None:
        headers["Accept"] = accept
    request = urllib.request.Request(
        f"{client.base_url}/batch",
        data=json.dumps({"patterns": patterns}).encode("utf-8"),
        headers=headers,
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, response.headers["Content-Type"], response.read()


class _StubHandler(BaseHTTPRequestHandler):
    """Answers every POST with the server's canned reply."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - BaseHTTPRequestHandler API
        pass

    def do_POST(self):  # noqa: N802 - BaseHTTPRequestHandler API
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.accepts.append(self.headers.get("Accept"))
        content_type, body = self.server.reply
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def stub_server():
    """A server that answers every ``/batch`` with ``server.reply``."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.daemon_threads = True
    server.accepts = []
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield server
    server.shutdown()
    server.server_close()


class TestAcceptNegotiation:
    @pytest.mark.parametrize(
        "accept",
        [
            F64,
            "Application/X-DPSC-F64",
            f"{F64}, application/json;q=0.5",
            f"application/json, {F64}",
            f"{F64};Q=0.5, */*;q=0.4",
            f'{F64};note="a;b,c", text/plain',
            f",, {F64} ,",
            f"{F64}; q=1.000",
            f"text/html;q=0.9, {F64};q=0.9, application/*;q=0.9",
        ],
    )
    def test_selects_f64(self, accept):
        assert accepts_f64(accept)

    @pytest.mark.parametrize(
        "accept",
        [
            None,
            "",
            "*/*",
            "application/*",
            "application/json",
            f"{F64};q=0",
            f"application/json;q=1, {F64};q=0.1",
            f"{F64};q=0.0001",
            f"{F64};q=2",
            f"{F64};q=",
            f"{F64}, application",
            f"{F64}; garbage",
            "\x00\xff",
            f"{F64}, " + "a/b, " * 300,
        ],
    )
    def test_keeps_json(self, accept):
        assert not accepts_f64(accept)


class TestBinaryBatch:
    def test_f64_body_is_the_kernels_le_bytes(self, http_client):
        client, structures = http_client
        compiled = CompiledTrie.from_structure(structures["first"])
        status, content_type, body = _raw_batch(client, WIRE_PATTERNS, F64)
        assert (status, content_type) == (200, F64)
        assert body == compiled.batch_query(WIRE_PATTERNS).astype("<f8").tobytes()

    def test_json_reply_is_unchanged(self, http_client):
        import json

        client, structures = http_client
        compiled = CompiledTrie.from_structure(structures["first"])
        expected = json.dumps(
            {"release": "first", "counts": [float(c) for c in compiled.batch_query(WIRE_PATTERNS)]}
        ).encode("utf-8")
        for accept in (None, "application/json", "*/*"):
            assert _raw_batch(client, WIRE_PATTERNS, accept) == (
                200, "application/json", expected
            ), accept

    def test_client_batch_equals_the_json_floats_bit_for_bit(self, http_client):
        import json

        client, _ = http_client
        _, _, body = _raw_batch(client, WIRE_PATTERNS)
        decoded = np.asarray(json.loads(body)["counts"], dtype=np.float64)
        got = client.batch(WIRE_PATTERNS)
        assert all(isinstance(count, float) for count in got)
        assert np.asarray(got, dtype=np.float64).tobytes() == decoded.tobytes()

    def test_empty_batch(self, http_client):
        client, _ = http_client
        assert client.batch([]) == []
        assert _raw_batch(client, [], F64) == (200, F64, b"")

    def test_f64_reply_keeps_the_counters(self, http_client):
        client, _ = http_client
        before = client.healthz()
        histogram = _batch_latency_count(client)
        _raw_batch(client, WIRE_PATTERNS, F64)
        after = client.healthz()
        assert after["batches"] - before["batches"] == 1
        assert after["batch_patterns"] - before["batch_patterns"] == len(WIRE_PATTERNS)
        assert _batch_latency_count(client) == histogram + 1

    def test_other_endpoints_ignore_the_f64_accept(self, http_client):
        import json
        import urllib.request

        client, structures = http_client
        for path, payload in (("/query", {"pattern": "ab"}), ("/mine", {"threshold": 1.0})):
            request = urllib.request.Request(
                f"{client.base_url}{path}",
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json", "Accept": F64},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.headers["Content-Type"] == "application/json"
                json.loads(response.read())

    def test_cli_batch_output_is_unchanged(self, http_client, capsys):
        import json

        from repro.cli import main

        client, _ = http_client
        patterns = ["ab", "ba", "zz", "abab"]
        _, _, body = _raw_batch(client, patterns)
        expected = "".join(
            f"{pattern:16s} {count:12.1f}\n"
            for pattern, count in zip(patterns, json.loads(body)["counts"])
        )
        assert main(["query", *patterns, "--url", client.base_url]) == 0
        assert capsys.readouterr().out == expected


def _batch_latency_count(client) -> float:
    series = client.metrics_snapshot()["dpsc_request_seconds"]["series"]
    return next(s["value"]["count"] for s in series if s["labels"]["endpoint"] == "batch")


class TestClientDecoding:
    def test_client_asks_for_f64_then_json(self, stub_server):
        stub_server.reply = (F64, np.array([1.5, -2.0], dtype="<f8").tobytes())
        with ServingClient(f"http://127.0.0.1:{stub_server.server_address[1]}") as client:
            assert client.batch(["a", "b"]) == [1.5, -2.0]
        assert stub_server.accepts == [f"{F64}, application/json;q=0.5"]

    @pytest.mark.parametrize("size", [0, 8, 15, 17, 24])
    def test_wrong_f64_length_raises(self, stub_server, size):
        stub_server.reply = (F64, bytes(size))
        with ServingClient(f"http://127.0.0.1:{stub_server.server_address[1]}") as client:
            with pytest.raises(ServingClientError, match="2 patterns with"):
                client.batch(["a", "b"])

    def test_json_only_server(self, stub_server):
        stub_server.reply = ("application/json", b'{"release": "x", "counts": [3.0, 0.0, 0.25]}')
        with ServingClient(f"http://127.0.0.1:{stub_server.server_address[1]}") as client:
            assert client.batch(["a", "b", "c"]) == [3.0, 0.0, 0.25]
