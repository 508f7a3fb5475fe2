"""Tests for the sharded multi-process serving tier (repro.serving.cluster).

Everything here spawns real worker processes, so this module runs in its
own CI job with a hard timeout (like ``test_concurrency.py``) instead of
inside the tier-1 matrix.  The properties under test are the tier's
acceptance contract:

* every endpoint answers **bit-identically** to the single-process server,
  and every malformed request gets the same status and error body from
  both, because both run the one HTTP front-end;
* a binary ``/batch`` (``Accept: application/x-dpsc-f64``) is the kernel's
  little-endian float64 bytes on both, and any ``Accept`` value gets the
  same status, ``Content-Type`` and body from both;
* the tier's ``/healthz`` counters advance by exactly the traffic sent,
  and its merged ``/metrics`` passes the exposition validator with gauges
  per-worker-labelled (never summed);
* every worker accepts client connections on the one public listener, and
  a request sent while no worker is alive waits in its backlog;
* a worker ``kill -9``'d mid-batch costs nothing: the client re-sends on
  a live sibling and the supervisor respawns the dead one;
* killing the supervisor process leaves **no orphan workers**;
* hot reload swaps worker generations without dropping a request, and
  kept-alive client connections to the retired generation recover.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.construction import build_private_counting_structure
from repro.core.params import ConstructionParams
from repro.obs import validate_exposition
from repro.serving import (
    Cluster,
    QueryService,
    ReleaseStore,
    ServingClient,
    create_server,
    generate_workload,
    run_load_test,
)
from repro.serving.cluster import WorkerHandle
from repro.serving.cluster.workers import DRAIN_TIMEOUT, SPAWN
from repro.serving.server import NOT_ACCEPTING

F64 = "application/x-dpsc-f64"
UNIFORM = ["ab", "ba", "bb", "aa", "ba"] * 4  # one pattern length
MIXED = ["ab", "aba", "b", "abab", "", "zz"]  # mixed lengths


@pytest.fixture(scope="module")
def structure():
    from repro.core.database import StringDatabase

    rng = np.random.default_rng(3)
    params = ConstructionParams.pure(2.0, beta=0.1, noiseless=True, threshold=1.0)
    return build_private_counting_structure(
        StringDatabase(["abab", "abba", "baba", "bbbb", "aabb"]), params, rng=rng
    )


@pytest.fixture(scope="module")
def store(structure, tmp_path_factory):
    store = ReleaseStore(tmp_path_factory.mktemp("cluster-store"))
    store.save("demo", structure)
    return store


@pytest.fixture(scope="module")
def reference(store):
    """Serial single-process answers every cluster response must equal."""
    return QueryService.from_store(store)


@pytest.fixture(scope="module")
def cluster(store):
    with Cluster(store, workers=2) as cluster:
        yield cluster


@pytest.fixture(scope="module")
def client(cluster):
    return ServingClient(cluster.url)


@pytest.fixture(scope="module")
def single_url(store):
    """The single-process server over the same store, for raw comparisons."""
    service = QueryService.from_store(store)
    server = create_server(service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def _exchange(url: str, request: bytes) -> tuple[int, bytes, http.client.HTTPResponse]:
    """Send raw request bytes on a fresh socket and read one response.  The
    socket timeout turns a server that waits for more bytes into a failure
    instead of a hung test."""
    host, port = url.removeprefix("http://").rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(request)
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response.status, response.read(), response


def _post(path: str, body: bytes, *headers: str) -> bytes:
    lines = [f"POST {path} HTTP/1.1", "Host: localhost", *headers]
    if not any(header.lower().startswith("content-length") for header in headers):
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


#: malformed requests every front must refuse with the same status and body.
BAD_REQUESTS = {
    "bad JSON": _post("/query", b"{not json"),
    "non-object JSON": _post("/batch", b"[1, 2]"),
    "non-string pattern": _post("/query", b'{"pattern": 5}'),
    "non-list patterns": _post("/batch", b'{"patterns": "ab"}'),
    "bool min_length": _post("/mine", b'{"threshold": 1, "min_length": true}'),
    "non-string release": _post("/batch", b'{"patterns": ["ab"], "release": ["x"]}'),
    "unknown POST path": _post("/nope", b"{}"),
    "unknown GET path": b"GET /nope HTTP/1.1\r\nHost: localhost\r\n\r\n",
    "expired deadline": _post("/query", b'{"pattern": "ab"}', "X-DPSC-Deadline: 1.0"),
    "non-integer Content-Length": _post("/batch", b"", "Content-Length: abc"),
    "negative Content-Length": _post("/batch", b"", "Content-Length: -1"),
    "missing Content-Length": _post("/query", b"", "Content-Type: application/json"),
}


class TestParity:
    def test_query(self, client, reference):
        for pattern in ("ab", "ba", "zz", "", "abab"):
            assert client.query(pattern) == reference.query(pattern)

    def test_uniform_batch_bit_identical(self, client, reference):
        assert client.batch(UNIFORM) == reference.batch(UNIFORM)

    def test_passthrough_batch_bit_identical(self, client, reference):
        assert client.batch(MIXED) == reference.batch(MIXED)

    def test_mine(self, client, reference):
        assert client.mine(1.0) == reference.mine(1.0)

    def test_releases(self, client, reference):
        via_tier = client.releases()
        serial = reference.releases_info()
        # compiled_bytes counts the result cache too, so it tracks each
        # process's traffic history — compare everything else exactly.
        for info in via_tier + serial:
            assert info.pop("compiled_bytes") > 0
        assert via_tier == serial

    def test_raw_response_bytes_identical(self, cluster, single_url):
        body = json.dumps({"patterns": ["ab", "ba", "bb", "aa"] * 256}).encode("utf-8")

        def raw(url):
            request = urllib.request.Request(
                f"{url}/batch",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.read()

        assert raw(cluster.url) == raw(single_url)

    @pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
    def test_error_parity(self, cluster, single_url, case):
        status, body, _ = _exchange(single_url, BAD_REQUESTS[case])
        assert 400 <= status < 600 and isinstance(json.loads(body)["error"], str)
        assert _exchange(cluster.url, BAD_REQUESTS[case])[:2] == (status, body)

    @pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
    def test_error_parity_with_f64_accept(self, cluster, single_url, case):
        request = _with_header(BAD_REQUESTS[case], f"Accept: {F64}")
        status, body, response = _exchange(single_url, request)
        assert response.getheader("Content-Type") == "application/json"
        assert 400 <= status < 600 and isinstance(json.loads(body)["error"], str)
        assert _exchange(cluster.url, request)[:2] == (status, body)
        # the same refusal as without the header
        assert _exchange(single_url, BAD_REQUESTS[case])[:2] == (status, body)

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_bad_content_length_answers_400_and_closes(self, cluster, single_url, length):
        request = _post("/batch", b'{"patterns": []}', f"Content-Length: {length}")
        for url in (single_url, cluster.url):
            status, body, response = _exchange(url, request)
            assert status == 400
            assert json.loads(body) == {"error": f"invalid Content-Length '{length}'"}
            assert response.will_close  # the request's framing is unknown


#: hits, misses (0.0), an astral-plane and a NUL-containing pattern, and
#: mixed lengths (the empty pattern included).
WIRE_PATTERNS = ["ab", "ba", "bb", "zz", "", "abab", "a\U0001f600b", "a\x00b", "b", "abba"]

#: ``Accept`` values built from the pieces the negotiation looks at.
_ACCEPT_RANGES = st.sampled_from(
    [F64, F64, F64.upper(), "application/json", "application/*", "*/*", "text/plain"]
)
_ACCEPT_PARAMETERS = st.sampled_from(
    ["", "", ";q=0", ";q=0.5", ";Q=1", " ; q=1.000", ";q=0.001", ';v="a,;b"', ";q=2", ";v"]
)
ACCEPT_VALUES = st.one_of(
    st.lists(st.tuples(_ACCEPT_RANGES, _ACCEPT_PARAMETERS).map("".join), max_size=3).map(
        ", ".join
    ),
    # anything a header line can carry (no CR or LF), as latin-1
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0xFF), max_size=60),
    st.integers(1000, 3000).map(lambda size: f"{F64}, " + "x" * size),
)


def _with_header(request: bytes, header: str) -> bytes:
    """``request`` with one more header line after its request line."""
    line, rest = request.split(b"\r\n", 1)
    return line + b"\r\n" + header.encode("latin-1") + b"\r\n" + rest


class TestBinaryCounts:
    def _batch(self, url, patterns, accept):
        request = _post("/batch", json.dumps({"patterns": patterns}).encode("utf-8"))
        status, body, response = _exchange(url, _with_header(request, f"Accept: {accept}"))
        return status, response.getheader("Content-Type"), body

    @pytest.mark.parametrize("patterns", [WIRE_PATTERNS, UNIFORM, []])
    def test_f64_body_is_the_kernels_le_bytes(self, cluster, single_url, reference, patterns):
        expected = reference.release().batch_query(patterns).astype("<f8").tobytes()
        for url in (single_url, cluster.url):
            assert self._batch(url, patterns, F64) == (200, F64, expected)

    def test_client_batch_equals_the_json_floats_bit_for_bit(self, client, cluster):
        status, _, body = self._batch(cluster.url, WIRE_PATTERNS, "application/json")
        assert status == 200
        decoded = np.asarray(json.loads(body)["counts"], dtype=np.float64)
        got = np.asarray(client.batch(WIRE_PATTERNS), dtype=np.float64)
        assert got.tobytes() == decoded.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(accept=ACCEPT_VALUES, valid=st.booleans())
    def test_any_accept_gets_the_same_reply_from_both_topologies(
        self, cluster, single_url, reference, accept, valid
    ):
        body = json.dumps({"patterns": WIRE_PATTERNS}).encode("utf-8") if valid else b"{no"
        request = _with_header(_post("/batch", body), f"Accept: {accept}")
        status, payload, response = _exchange(single_url, request)
        content_type = response.getheader("Content-Type")
        if status == 200 and content_type == F64:
            counts = reference.release().batch_query(WIRE_PATTERNS)
            assert payload == counts.astype("<f8").tobytes()
        else:
            assert content_type == "application/json"
            assert status == 200 or 400 <= status < 500
            json.loads(payload)
        status_tier, payload_tier, response_tier = _exchange(cluster.url, request)
        assert (status_tier, response_tier.getheader("Content-Type"), payload_tier) == (
            status, content_type, payload
        )


class TestHealthAndMetrics:
    def test_healthz_shape(self, client, cluster):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["role"] == "tier"
        workers = health["workers"]
        assert workers["alive"] == 2
        assert workers["generation"] == cluster.generation
        assert len(workers["members"]) == 2

    def test_router_edge_counter_deltas(self, client):
        before = client.healthz()
        for pattern in ("ab", "ba", "bb"):
            client.query(pattern)
        client.batch(MIXED)
        client.mine(1.0)
        after = client.healthz()
        assert after["queries"] - before["queries"] == 3
        assert after["batches"] - before["batches"] == 1
        assert after["batch_patterns"] - before["batch_patterns"] == len(MIXED)
        assert after["mines"] - before["mines"] == 1

    def test_admin_reload_over_http(self, cluster, single_url):
        request = _post("/admin/reload", b"")
        status, body, _ = _exchange(cluster.url, request)
        assert status == 200
        assert json.loads(body) == {
            "reloaded": False,
            "generation": cluster.generation,
            "versions": cluster.table.versions,
        }
        assert _exchange(single_url, request)[0] == 404  # nothing to reload

    def test_shed_at_capacity_is_503_with_retry_after(self, store):
        # The gate lives in the one handler every server runs — the single
        # process and each tier worker alike; here it is held in-process.
        service = QueryService.from_store(store)
        server = create_server(service, max_inflight=2)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        gate = server.gate
        held = 0
        while gate.try_enter():  # hold every admission slot
            held += 1
        try:
            assert held == 2
            before = service.health()["sheds"]
            status, body, response = _exchange(url, _post("/batch", b'{"patterns": ["ab"]}'))
            assert status == 503
            assert "at capacity" in json.loads(body)["error"]
            assert float(response.getheader("Retry-After")) > 0
            assert service.health()["sheds"] == before + 1
            assert _exchange(url, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")[0] == 200
        finally:
            for _ in range(held):
                gate.leave()
        with ServingClient(url) as client:
            assert client.batch(["ab"]) == [client.query("ab")]
        server.shutdown()
        server.server_close()

    def test_merged_metrics_validate(self, client):
        client.query("ab")  # ensure worker traffic
        text = client.metrics()
        assert validate_exposition(text) > 0
        assert "dpsc_requests_total" in text
        assert "dpsc_tier_workers_alive" in text

    def test_gauges_per_worker_never_summed(self, client):
        snapshot = client.metrics_snapshot()
        uptime = snapshot["dpsc_uptime_seconds"]
        assert uptime["kind"] == "gauge"
        workers = {entry["labels"].get("worker") for entry in uptime["series"]}
        assert len(workers) == 2 and None not in workers


def _worker_shares(client) -> dict[str, float]:
    """Requests each worker answered, read from the tier's ``/healthz``
    ``workers.members``."""
    return {
        member["id"]: float(member["queries"] + member["batches"] + member["mines"])
        for member in client.healthz()["workers"]["members"]
    }


def _gained(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {worker: after[worker] - before.get(worker, 0.0) for worker in after}


class TestSharedListener:
    def test_both_workers_answer_fresh_connections(self, cluster, client):
        before = _worker_shares(client)
        body = json.dumps({"patterns": UNIFORM}).encode("utf-8")
        connections = [
            http.client.HTTPConnection("127.0.0.1", cluster.port, timeout=30)
            for _ in range(8)
        ]
        try:
            for connection in connections:  # eight fresh connections, all open
                connection.connect()
            for connection in connections:
                connection.request("POST", "/batch", body, {"Content-Type": "application/json"})
                response = connection.getresponse()
                assert response.status == 200 and response.read()
        finally:
            for connection in connections:
                connection.close()
        gained = _gained(before, _worker_shares(client))
        assert sum(gained.values()) == 8
        assert sorted(gained) == sorted(worker.worker_id for worker in cluster.workers())
        assert all(count > 0 for count in gained.values()), gained

    def test_request_waits_in_backlog_while_every_worker_is_dead(self, store, reference):
        with Cluster(store, workers=2) as cluster:
            for worker in cluster.workers():
                worker.kill()
            assert cluster.table.live() == []
            # no retry: the connection waits in the supervisor-owned backlog
            # until a respawned worker accepts it
            with ServingClient(cluster.url, timeout=60, retries=0) as client:
                assert client.batch(UNIFORM) == reference.batch(UNIFORM)
            assert cluster.respawns >= 1


    def test_connection_counts_steer_accepts_to_the_less_loaded(self, store):
        # In-process: one server on a shared listener with a sibling slot.
        service = QueryService.from_store(store)
        listener = socket.create_server(("127.0.0.1", 0))
        server = create_server(service, listener=listener)
        counts = [NOT_ACCEPTING, NOT_ACCEPTING]
        server.balance(counts, 0)
        assert counts[0] == 0
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{listener.getsockname()[1]}"
        try:
            with ServingClient(url) as client:
                client.query("ab")  # one kept-alive connection
                assert counts[0] == 1
                # no sibling accepting, or none holding fewer: never wait
                assert not server._behind_a_sibling()
                counts[1] = 1
                assert not server._behind_a_sibling()
                counts[1] = 0
                assert server._behind_a_sibling()
            deadline = time.monotonic() + 10
            while counts[0] != 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert counts[0] == 0  # the closed connection is no longer held
        finally:
            server.shutdown()
            server.server_close()
        assert counts[0] == NOT_ACCEPTING  # a draining server is not deferred to

    def test_one_worker_never_defers(self, store):
        with Cluster(store, workers=1) as cluster:
            (worker,) = cluster.workers()
            assert list(worker.connections) == [0]
            with ServingClient(cluster.url) as client:
                client.query("ab")
                assert list(worker.connections) == [1]


class TestWorkerCrash:
    def test_kill9_mid_batch_is_invisible_and_respawned(self, store, reference):
        expected = reference.batch(UNIFORM)
        with Cluster(store, workers=2, heartbeat_interval=0.1) as cluster:
            client = ServingClient(cluster.url, timeout=60)
            mismatches: list[int] = []
            errors: list[str] = []

            def hammer():
                for round_index in range(40):
                    try:
                        if client.batch(UNIFORM) != expected:
                            mismatches.append(round_index)
                    except Exception as error:  # noqa: BLE001
                        errors.append(repr(error))

            thread = threading.Thread(target=hammer)
            thread.start()
            time.sleep(0.05)
            cluster.workers()[0].kill()  # SIGKILL mid-stream
            thread.join(timeout=120)
            assert not thread.is_alive()
            assert errors == []
            assert mismatches == []
            deadline = time.monotonic() + 30
            while cluster.respawns < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert cluster.respawns >= 1
            deadline = time.monotonic() + 30
            while len(cluster.table.live()) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert len(cluster.table.live()) == 2
            # The tier still answers bit-identically after the respawn.
            assert client.batch(UNIFORM) == expected


    def test_a_worker_reaped_by_another_thread_reads_dead(self):
        # Process.is_alive() reaps with waitpid: once another thread has
        # reaped the child (the monitor, or a join), it can report a dead
        # worker alive.  The handle reads the exit sentinel instead.
        process = SPAWN.Process(target=time.sleep, args=(60,), daemon=True)
        process.start()
        handle = WorkerHandle("w0", 1, process, None, 0, None, None, 0)
        assert handle.is_alive()
        os.kill(process.pid, signal.SIGKILL)
        os.waitpid(process.pid, 0)  # reaped behind the Process object's back
        try:
            assert not handle.is_alive()
        finally:
            process._popen.returncode = -signal.SIGKILL  # what the reaper records

    def test_counters_exact_across_kill_and_reload(self, structure, tmp_path):
        # Nothing in flight at the kill, so nothing is counted twice.  The
        # arrays of the exited workers are folded into one totals row.
        store = ReleaseStore(tmp_path / "store")
        store.save("demo", structure)
        with Cluster(store, workers=2, heartbeat_interval=0.1) as cluster, ServingClient(
            cluster.url, timeout=60
        ) as client:
            before = client.healthz()
            for _ in range(5):
                client.batch(UNIFORM)
            killed = cluster.workers()[0]
            killed.kill()
            deadline = time.monotonic() + 30
            while len(cluster.table.live()) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert cluster.respawns == 1
            assert killed.connections[killed.slot] == 0  # the replacement's slot
            for pattern in ("ab", "ba", "bb"):
                client.query(pattern)
            store.save("demo", structure)
            assert cluster.reload()["reloaded"] is True
            client.batch(MIXED)
            client.batch(MIXED)
            after = client.healthz()
            assert after["queries"] - before["queries"] == 3
            assert after["batches"] - before["batches"] == 7
            assert after["batch_patterns"] - before["batch_patterns"] == (
                5 * len(UNIFORM) + 2 * len(MIXED)
            )
            members = after["workers"]["members"]
            assert sum(member["batches"] for member in members) == 2
            assert sum(member["queries"] for member in members) == 0
            assert sorted(cluster._counted, key=id) == sorted(cluster.workers(), key=id)


_HOST_SCRIPT = """\
import json, sys, time
from repro.serving import Cluster, ReleaseStore

# The __main__ guard is load-bearing: spawn workers re-import this module.
if __name__ == "__main__":
    cluster = Cluster(ReleaseStore(sys.argv[1]), workers=2)
    cluster.start()
    print(json.dumps([worker.pid for worker in cluster.workers()]), flush=True)
    while True:
        time.sleep(1)
"""


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover
        return True
    return True


class TestOrphanPrevention:
    def test_sigkilled_supervisor_leaves_no_orphan_workers(self, store, tmp_path):
        script = tmp_path / "host_cluster.py"
        script.write_text(_HOST_SCRIPT)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        process = subprocess.Popen(
            [sys.executable, str(script), str(store.root)],
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            line = process.stdout.readline()
            pids = json.loads(line)
            assert len(pids) == 2 and all(_pid_alive(pid) for pid in pids)
            os.kill(process.pid, signal.SIGKILL)  # no chance to clean up
            process.wait(timeout=10)
            deadline = time.monotonic() + 15
            while any(_pid_alive(pid) for pid in pids):
                assert time.monotonic() < deadline, f"orphans: {pids}"
                time.sleep(0.1)
        finally:
            if process.poll() is None:  # pragma: no cover - drill failed
                process.kill()
            process.stdout.close()


class TestHotReload:
    def test_reload_swaps_generation_without_dropping_requests(
        self, structure, tmp_path
    ):
        store = ReleaseStore(tmp_path / "store")
        store.save("demo", structure)
        with Cluster(store, workers=2) as cluster:
            client = ServingClient(cluster.url, timeout=60)
            expected = client.batch(UNIFORM)
            stop = threading.Event()
            errors: list[str] = []
            mismatches = 0

            def hammer():
                nonlocal mismatches
                while not stop.is_set():
                    try:
                        if client.batch(UNIFORM) != expected:
                            mismatches += 1
                    except Exception as error:  # noqa: BLE001
                        errors.append(repr(error))

            thread = threading.Thread(target=hammer)
            thread.start()
            try:
                # Same payload saved again -> new version, identical answers,
                # so bit-checks stay valid across the swap.
                store.save("demo", structure)
                summary = cluster.reload()
            finally:
                stop.set()
                thread.join(timeout=60)
            assert summary["reloaded"] is True
            assert summary["generation"] == 2
            assert errors == []
            assert mismatches == 0
            assert cluster.generation == 2
            assert client.healthz()["workers"]["generation"] == 2

    def test_kept_alive_connections_recover_across_reload(self, structure, reference, tmp_path):
        store = ReleaseStore(tmp_path / "store")
        store.save("demo", structure)
        expected = reference.batch(UNIFORM)
        with Cluster(store, workers=2) as cluster, ServingClient(
            cluster.url, timeout=60, retries=0
        ) as client:

            def burst() -> list:
                """Four concurrent calls: four kept-alive connections."""
                results: list = [None] * 4

                def call(index: int) -> None:
                    try:
                        results[index] = client.batch(UNIFORM)
                    except Exception as error:  # noqa: BLE001
                        results[index] = repr(error)

                threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                return results

            assert burst() == [expected] * 4
            retired = cluster.workers()
            store.save("demo", structure)
            assert cluster.reload()["reloaded"] is True
            assert not any(worker.is_alive() for worker in retired)
            # every idle connection now points at an exited worker: each
            # call is re-sent once on a fresh connection, with no retry
            assert burst() == [expected] * 4
            assert client.num_retries == 0
            assert {m["generation"] for m in client.healthz()["workers"]["members"]} == {2}

    def test_admin_reload_through_a_retiring_worker(self, structure, reference, tmp_path):
        store = ReleaseStore(tmp_path / "store")
        store.save("demo", structure)
        with Cluster(store, workers=2) as cluster, ServingClient(
            cluster.url, timeout=60, retries=0
        ) as client:
            retired = cluster.workers()
            store.save("demo", structure)
            started = time.monotonic()
            # a worker of the generation being retired relays this request
            status, body, _ = _exchange(cluster.url, _post("/admin/reload", b""))
            assert status == 200
            assert json.loads(body)["reloaded"] is True
            assert json.loads(body)["generation"] == 2
            assert time.monotonic() - started < DRAIN_TIMEOUT  # no drain waited on it
            deadline = time.monotonic() + 30
            while any(worker.is_alive() for worker in retired):
                assert time.monotonic() < deadline, "retired workers never exited"
                time.sleep(0.05)
            assert client.batch(UNIFORM) == reference.batch(UNIFORM)

    def test_reload_is_noop_when_versions_unchanged(self, cluster):
        summary = cluster.reload()
        assert summary["reloaded"] is False
        assert summary["generation"] == cluster.generation


def _connected_ports() -> list[int]:
    """Remote ports of this process's TCP sockets (Linux ``/proc``)."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # closed since the listing
            continue
        if target.startswith("socket:["):
            inodes.add(target[len("socket:[") : -1])
    ports = []
    with open("/proc/self/net/tcp") as table:
        next(table)  # header
        for line in table:
            fields = line.split()
            if fields[9] in inodes:
                ports.append(int(fields[2].rsplit(":", 1)[1], 16))
    return ports


class TestConnectionReuse:
    def test_kept_alive_connection_stays_on_one_worker(self, cluster, client):
        before = _worker_shares(client)
        with ServingClient(cluster.url) as caller:
            for _ in range(50):
                caller.batch(UNIFORM)
            assert caller.telemetry.get("dpsc_client_connects_total").value == 1
        gained = _gained(before, _worker_shares(client))
        assert sorted(gained.values()) == [0.0, 50.0]

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/net/tcp"), reason="needs Linux /proc"
    )
    def test_reloads_leave_no_connection_to_retired_workers(self, structure, tmp_path):
        store = ReleaseStore(tmp_path / "store")
        store.save("demo", structure)
        with Cluster(store, workers=2) as cluster, ServingClient(
            cluster.url, timeout=60
        ) as client:
            retired: list[WorkerHandle] = []
            for _ in range(3):
                for pattern in ("ab", "ba", "bb"):
                    client.query(pattern)
                client.batch(UNIFORM)
                client.healthz()  # the supervisor's side of the tier, too
                retired += cluster.workers()
                store.save("demo", structure)
                assert cluster.reload()["reloaded"] is True
            client.batch(UNIFORM)
            # retired workers have exited, so the kernel closed every
            # socket they held, and nothing here still points at them
            assert not any(_pid_alive(worker.pid) for worker in retired)
            assert {worker.port for worker in retired}.isdisjoint(_connected_ports())
            assert client.num_retries == 0


class TestShutdown:
    def test_stop_kills_workers_and_is_idempotent(self, store):
        cluster = Cluster(store, workers=2)
        cluster.start()
        pids = [worker.pid for worker in cluster.workers()]
        cluster.stop()
        deadline = time.monotonic() + 15
        while any(_pid_alive(pid) for pid in pids):
            assert time.monotonic() < deadline, "workers survived stop()"
            time.sleep(0.05)
        cluster.stop()  # second stop must be a no-op


class TestProcessLoadtest:
    def test_multi_process_clients_bit_identical_with_counters(
        self, cluster, reference
    ):
        workload = generate_workload(reference, 60, seed=11)
        with ServingClient(cluster.url) as target:
            result = run_load_test(
                target, workload, processes=2, check=True, verify_counters=True
            )
        assert result.bit_identical
        assert result.counters_consistent
        assert result.processes == 2
        assert result.operations == 60

    def test_bench_load_cli_drives_a_cluster_from_a_client_process(
        self, store, tmp_path
    ):
        output = tmp_path / "rows.json"
        argv = ["bench-load", "--store", str(store.root), "--workers", "2"]
        argv += ["--processes", "1", "--threads", "1", "--ops", "60"]
        argv += ["--json", str(output)]
        assert main(argv) == 0
        rows = json.loads(output.read_text())["results"]
        assert [(row["threads"], row["processes"]) for row in rows] == [(1, 0), (0, 1)]
        assert all(row["bit_identical"] for row in rows)
        assert all(row["counters_consistent"] for row in rows)
