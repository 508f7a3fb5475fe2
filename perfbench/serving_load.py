"""Serving workloads: ``dpsc serve`` as a child process, driven closed-loop.

The load generator is this process: ``clients`` threads, each with its own
public :class:`~repro.serving.ServingClient`, send the next request only
after the previous reply, so a slower server receives less load.  Every
count served is compared bit for bit with what
:meth:`~repro.serving.CompiledTrie.batch_query` returns on the same ``.dpsb``
mapped into this process.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (
    ROOT, SpanLog, cpu_ticks, draw_patterns, median, percentile_ms, tree_cpu_seconds,
    tree_pss_mb,
)
from repro.analysis.experiments import _synthetic_release
from repro.serving import ReleaseStore, ServingClient, ServingClientError

RELEASE = "bench"

#: largest share of the machine's CPU time stolen in a window that still
#: counts as quiet (see :func:`window_metrics`).
QUIET_STEAL = 0.03

#: endpoints that carry workload traffic (not probes or scrapes).
_SERVED = ("query", "batch")


class BenchError(RuntimeError):
    """The benchmark could not run the workload at all."""


@dataclass(frozen=True)
class ServingWorkload:
    #: worker processes behind the router; 1 runs the single-process server.
    workers: int
    #: ``"batch"`` (1024-pattern ``/batch``) or ``"query"`` (one ``/query``).
    endpoint: str
    release_nodes: int = 86_000
    batch_size: int = 1024
    batch_length: int = 4
    query_lengths: tuple[int, int] = (1, 6)
    #: distinct requests drawn per run; clients cycle through them.
    pool: int = 32
    clients: int = 2
    setups: int = 3
    warmup_s: float = 1.0
    #: the measured run is cut into this many equal windows; the quiet ones
    #: are measured (see :func:`window_metrics`).
    windows: int = 20
    call_timeout_s: float = 10.0


# ----------------------------------------------------------------------
# The server child
# ----------------------------------------------------------------------
class ServerChild:
    """One ``python -m repro.cli serve --port 0`` child: launch, drain, stop.

    Both pipes are drained by threads for the child's whole life: the
    single-process server writes one access-log line per request to stderr
    (``serve_forever`` runs with ``verbose=True``; tier workers do not), and
    an undrained pipe would stall it once the pipe buffer fills.
    """

    def __init__(self, store: Path, workers: int) -> None:
        command = [sys.executable, "-u", "-m", "repro.cli", "serve",
                   "--store", str(store), "--port", "0"]
        if workers > 1:
            command += ["--workers", str(workers)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self.url: str | None = None
        self.lines = {"stdout": 0, "stderr": 0}
        self._announced = threading.Event()
        self._drains = [
            threading.Thread(target=self._drain, args=(self.proc.stdout, "stdout"), daemon=True),
            threading.Thread(target=self._drain, args=(self.proc.stderr, "stderr"), daemon=True),
        ]
        for drain in self._drains:
            drain.start()

    def _drain(self, stream, name: str) -> None:
        for line in stream:
            self.lines[name] += 1
            if name == "stdout" and self.url is None and "listening on http://" in line:
                self.url = line.split("listening on ", 1)[1].strip()
                self._announced.set()
        self._announced.set()  # EOF: the child exited before announcing

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from spawning the child to its first 200 on ``/healthz``."""
        deadline = time.monotonic() + timeout
        if not self._announced.wait(timeout) or self.url is None:
            raise BenchError(f"dpsc serve exited with {self.proc.poll()} before listening")
        host, port = self.url.removeprefix("http://").rsplit(":", 1)
        while time.monotonic() < deadline:
            connection = http.client.HTTPConnection(host, int(port), timeout=5)
            try:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.002)
        raise BenchError(f"{self.url}/healthz never answered 200")

    def stop(self) -> None:
        """SIGTERM the child's process group (router and workers), escalate
        to SIGKILL, and wait until every member has ended."""
        group = self.proc.pid
        _signal_group(group, signal.SIGTERM)
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            _signal_group(group, signal.SIGKILL)
            self.proc.wait(timeout=15)
        deadline = time.monotonic() + 10
        while _group_members(group):
            if time.monotonic() > deadline:
                _signal_group(group, signal.SIGKILL)
                deadline = time.monotonic() + 10
            time.sleep(0.02)
        for drain in self._drains:
            drain.join(timeout=5)


def _signal_group(group: int, signum: int) -> None:
    try:
        os.killpg(group, signum)
    except ProcessLookupError:
        pass


def _group_members(group: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``group``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == group and fields[0] != "Z":
            members.append(int(entry.name))
    return members


# ----------------------------------------------------------------------
# Requests and the closed loop
# ----------------------------------------------------------------------
def make_requests(workload: ServingWorkload, symbols: list[str], seed: int) -> list:
    """The run's request pool: pattern lists for ``/batch``, single
    patterns for ``/query``, drawn from ``seed`` only."""
    rng = np.random.default_rng(seed)
    if workload.endpoint == "batch":
        return [draw_patterns(rng, symbols, [workload.batch_length] * workload.batch_size)
                for _ in range(workload.pool)]
    low, high = workload.query_lengths
    return draw_patterns(rng, symbols, rng.integers(low, high + 1, size=workload.pool))


def _as_batch(workload: ServingWorkload, request) -> list[str]:
    return request if workload.endpoint == "batch" else [request]


@dataclass
class LoadOutcome:
    #: ``(end time, latency, patterns answered)`` of every correct call.
    calls: list[tuple[float, float, int]]
    attempted: int
    failures: list[str]
    seconds: float
    retries: int
    #: ``(time, server-tree CPU seconds, machine steal and total jiffies)``
    #: at every window boundary.
    probes: list[tuple[float, float, int, int]]

    @property
    def latencies(self) -> list[float]:
        return [latency for _, latency, _ in self.calls]


def drive(url, workload, requests, expected, seconds, seed, *, spans=None,
          server_pid=None) -> LoadOutcome:
    """Closed loop: ``workload.clients`` threads for ``seconds``.  With
    ``server_pid``, the server tree's CPU and the machine's steal are read
    at the boundaries of ``workload.windows`` equal windows."""
    lock = threading.Lock()
    calls: list[tuple[float, float, int]] = []
    failures: list[str] = []
    counters = {"attempted": 0, "retries": 0}
    barrier = threading.Barrier(workload.clients + 1)
    start = [0.0]

    def client_loop(thread: int) -> None:
        client = ServingClient(url, timeout=workload.call_timeout_s, seed=seed * 100 + thread)
        call = client.batch if workload.endpoint == "batch" else client.query
        root = spans.thread_root(thread) if spans is not None else None
        mine, bad, attempted = [], [], 0
        index = thread
        barrier.wait()
        deadline = start[0] + seconds
        while time.perf_counter() < deadline:
            slot = index % len(requests)
            index += workload.clients
            attempted += 1
            began = time.perf_counter()
            try:
                got = call(requests[slot])
            except ServingClientError as error:
                got, failure = None, f"client error: {error}"
            ended = time.perf_counter()
            if got is not None:
                failure = (
                    None
                    if np.asarray(got, dtype=np.float64).tobytes() == expected[slot]
                    else f"wrong counts for request {slot}"
                )
            if root is not None:
                spans.record(root, f"client.{workload.endpoint}", began, ended, request=slot)
            if failure is None:
                mine.append((ended, ended - began, len(_as_batch(workload, requests[slot]))))
            else:
                bad.append(failure)
        with lock:
            calls.extend(mine)
            failures.extend(bad)
            counters["attempted"] += attempted
            counters["retries"] += client.num_retries

    threads = [
        threading.Thread(target=client_loop, args=(thread,), name=f"perfbench-client-{thread}")
        for thread in range(workload.clients)
    ]
    for thread in threads:
        thread.start()

    def probe() -> tuple[float, float, int, int]:
        return (time.perf_counter(), tree_cpu_seconds(server_pid), *cpu_ticks())

    probes = [] if server_pid is None else [probe()]
    start[0] = probes[0][0] if probes else time.perf_counter()
    barrier.wait()
    if server_pid is not None:
        for window in range(1, workload.windows + 1):
            time.sleep(max(0.0, start[0] + seconds * window / workload.windows
                           - time.perf_counter()))
            probes.append(probe())
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start[0]
    return LoadOutcome(calls, counters["attempted"], failures, elapsed, counters["retries"],
                       probes)


def window_metrics(outcome: LoadOutcome) -> dict:
    """Throughput, latency and server CPU per pattern over the run's quiet
    windows.

    On a shared host, other tenants take this machine's CPUs for seconds at
    a time (``steal`` in ``/proc/stat``), and every wall-clock figure of the
    windows they hit moves with them, whatever the program does.  A window
    is quiet when at most :data:`QUIET_STEAL` of the machine's CPU time was
    stolen in it; when fewer than a quarter of the windows are quiet, the
    least-stolen quarter is used.  The steal of all and of the kept windows
    is reported with the result.
    """
    ends = np.array([end for end, _, _ in outcome.calls])
    latencies = np.array([latency for _, latency, _ in outcome.calls])
    patterns = np.array([count for _, _, count in outcome.calls])
    windows = [
        {"start": t0, "end": t1, "cpu_s": cpu1 - cpu0,
         "steal": (steal1 - steal0) / max(total1 - total0, 1)}
        for (t0, cpu0, steal0, total0), (t1, cpu1, steal1, total1)
        in zip(outcome.probes, outcome.probes[1:])
    ]
    ranked = sorted(windows, key=lambda window: window["steal"])
    least = max(1, len(ranked) // 4)
    kept = [window for window in ranked if window["steal"] <= QUIET_STEAL]
    if len(kept) < least:
        kept = ranked[:least]
    inside = np.zeros(len(ends), dtype=bool)
    for window in kept:
        inside |= (ends >= window["start"]) & (ends < window["end"])
    answered = int(patterns[inside].sum())
    cpu_s = sum(window["cpu_s"] for window in kept)
    return {
        "patterns_per_s": answered / sum(w["end"] - w["start"] for w in kept),
        "latency_p50_ms": percentile_ms(latencies[inside], 50),
        "latency_p99_ms": percentile_ms(latencies[inside], 99),
        "cpu_ms_per_kpattern": cpu_s * 1e3 / (answered / 1e3) if answered else 0.0,
        "samples": int(inside.sum()),
        "windows": len(kept),
        "steal": {"all_windows": float(np.mean([w["steal"] for w in windows])),
                  "kept_windows": float(np.mean([w["steal"] for w in kept]))},
    }


# ----------------------------------------------------------------------
# Server-published counters (/metrics?format=json)
# ----------------------------------------------------------------------
def _series(snapshot: dict, name: str) -> list[dict]:
    return snapshot.get(name, {}).get("series", [])


def counter_total(snapshot: dict, name: str, endpoints=None) -> float:
    return sum(
        float(series["value"])
        for series in _series(snapshot, name)
        if endpoints is None or series["labels"].get("endpoint") in endpoints
    )


def histogram_total(snapshot: dict, name: str) -> tuple[float, float]:
    """``(count, sum)`` of a latency histogram over ``/query`` and ``/batch``."""
    count = total = 0.0
    for series in _series(snapshot, name):
        if series["labels"].get("endpoint") in _SERVED:
            count += series["value"]["count"]
            total += series["value"]["sum"]
    return count, total


def _mean_ms(before: dict, after: dict, name: str) -> float:
    count0, sum0 = histogram_total(before, name)
    count1, sum1 = histogram_total(after, name)
    return (sum1 - sum0) / (count1 - count0) * 1e3 if count1 > count0 else 0.0


def _delta(before: dict, after: dict, name: str, endpoints=None) -> float:
    return counter_total(after, name, endpoints) - counter_total(before, name, endpoints)


def layer_metrics(workload, before, after, outcome, wire, kernel_ms) -> dict:
    """Per-layer numbers of one traced run (README.md maps each one to the
    end-to-end metric it should move)."""
    layers = {
        "client.call_ms": float(np.mean(outcome.latencies)) * 1e3,
        "client.retries": outcome.retries,
        "wire.request_bytes_per_pattern": wire["request_bytes"] / wire["patterns"],
        "wire.response_bytes_per_pattern": wire["response_bytes"] / wire["patterns"],
        "server.service_ms": _mean_ms(before, after, "dpsc_request_seconds"),
        "compiled.batch_query_ms": kernel_ms,
    }
    if workload.workers > 1:
        requests = _delta(before, after, "dpsc_router_requests_total", _SERVED)
        flushes = _delta(before, after, "dpsc_router_microbatch_flushes_total")
        subrequests = _delta(before, after, "dpsc_router_split_subrequests_total") + flushes
        layers.update({
            "router.request_ms": _mean_ms(before, after, "dpsc_router_request_seconds"),
            "router.subrequests_per_request": subrequests / requests if requests else 0.0,
            "router.microbatch_flush_size_mean": (
                _delta(before, after, "dpsc_router_microbatch_requests_total") / flushes
                if flushes else 0.0
            ),
            "router.retries": _delta(before, after, "dpsc_router_retries_total"),
            "router.shed": _delta(before, after, "dpsc_router_shed_total"),
        })
        inner = layers["router.request_ms"]
    else:
        inner = layers["server.service_ms"]
    layers["http.unattributed_ms"] = layers["client.call_ms"] - inner
    return layers


def wire_replay(url: str, workload: ServingWorkload, request, expected: bytes) -> dict:
    """One raw ``http.client`` replay of a workload request: body sizes."""
    host, port = url.removeprefix("http://").rsplit(":", 1)
    key = "patterns" if workload.endpoint == "batch" else "pattern"
    body = json.dumps({key: request}).encode("utf-8")
    connection = http.client.HTTPConnection(host, int(port), timeout=workload.call_timeout_s)
    try:
        connection.request("POST", f"/{workload.endpoint}", body,
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = response.read()
    finally:
        connection.close()
    decoded = json.loads(payload)
    counts = decoded.get("counts", [decoded.get("count")])
    correct = response.status == 200 and np.asarray(counts, dtype=np.float64).tobytes() == expected
    return {
        "request_bytes": len(body),
        "response_bytes": len(payload),
        "patterns": len(_as_batch(workload, request)),
        "correct": bool(correct),
    }


def kernel_ms(compiled, workload: ServingWorkload, requests, rounds: int = 5) -> float:
    """Mean wall time of the public kernel on the run's own requests."""
    batches = [_as_batch(workload, request) for request in requests]
    began = time.perf_counter()
    for _ in range(rounds):
        for batch in batches:
            compiled.batch_query(batch)
    return (time.perf_counter() - began) / (rounds * len(batches)) * 1e3


# ----------------------------------------------------------------------
# One pass of a serving workload
# ----------------------------------------------------------------------
def run_serving(workload: ServingWorkload, seed: int, seconds: float, workdir: Path,
                traced: bool) -> dict:
    store = ReleaseStore(workdir / "store")
    synthetic = _synthetic_release(workload.release_nodes, seed=seed)
    began = time.perf_counter()
    record = store.save(RELEASE, synthetic, format="binary")
    save_s = time.perf_counter() - began
    began = time.perf_counter()
    mapped = store.load_compiled(RELEASE, mmap=True)
    load_s = time.perf_counter() - began

    symbols = [pattern for pattern, _ in mapped.mine(-math.inf, exact_length=1)]
    requests = make_requests(workload, symbols, seed)
    began = time.perf_counter()
    first = mapped.batch_query(_as_batch(workload, requests[0]))
    first_batch_s = time.perf_counter() - began
    expected = [first.tobytes()] + [
        mapped.batch_query(_as_batch(workload, request)).tobytes() for request in requests[1:]
    ]

    setups, server = [], None
    try:
        for attempt in range(workload.setups):
            server = ServerChild(store.root, workload.workers)
            setups.append(server.wait_ready())
            if attempt + 1 < workload.setups:
                server.stop()
                server = None
        warm = drive(server.url, workload, requests, expected, workload.warmup_s, seed)
        probe = ServingClient(server.url, timeout=workload.call_timeout_s) if traced else None
        before = probe.metrics_snapshot() if traced else None
        spans = SpanLog(f"serve:{workload.endpoint}:{workload.workers}") if traced else None
        outcome = drive(server.url, workload, requests, expected, seconds, seed, spans=spans,
                        server_pid=server.proc.pid)
        pss_mb = tree_pss_mb(server.proc.pid)
        layers, trace, failures = None, None, warm.failures + outcome.failures
        if traced:
            after = probe.metrics_snapshot()
            wire = wire_replay(server.url, workload, requests[0], expected[0])
            if not wire["correct"]:
                failures.append("raw wire replay returned wrong counts")
            layers = layer_metrics(workload, before, after, outcome, wire,
                                   kernel_ms(mapped, workload, requests))
            trace = spans.chrome_trace()
    finally:
        if server is not None:
            server.stop()

    if layers is not None:
        layers.update({
            "store.save_s": save_s,
            "store.payload_bytes": Path(record.path).stat().st_size,
            "store.load_compiled_s": load_s,
            "compiled.first_batch_s": first_batch_s,
        })
    measured = window_metrics(outcome)
    return {
        "attempted": warm.attempted + outcome.attempted,
        "failures": failures,
        "metrics": {
            "setup_s": median(setups),
            **{name: measured[name] for name in (
                "patterns_per_s", "latency_p50_ms", "latency_p99_ms", "cpu_ms_per_kpattern")},
            "memory_mb": pss_mb,
        },
        "samples": {
            "setup_s": len(setups),
            "latency": measured["samples"],
            "windows": f"{measured['windows']} of {workload.windows}",
            "measured_s": outcome.seconds,
        },
        "layers": layers,
        "trace": trace,
        "notes": {
            "server_log_lines": server.lines["stderr"] if server else 0,
            "access_log": "single-process dpsc serve logs one stderr line per "
                          "request; tier workers run with verbose=False",
            "release_nodes": mapped.num_nodes,
            "steal_all_windows": round(measured["steal"]["all_windows"], 4),
            "steal_kept_windows": round(measured["steal"]["kept_windows"], 4),
        },
    }
