"""A deterministic load-test harness for the query-serving stack.

The serving layer's concurrency claim — any number of clients may hammer a
released structure and every answer is still exact post-processing — is
only as good as the harness that can falsify it.  This module generates a
*seeded* mixed workload (``query`` / ``batch`` / ``mine`` / ``healthz``
operations), replays it once serially to fix the expected answers, then
replays it again from ``N`` simultaneously released client lanes and
checks three properties:

1. **bit-identical results** — every concurrent answer equals the serial
   replay's, float-for-float (queries are deterministic post-processing,
   so any divergence is a concurrency bug, e.g. the pre-fix unlocked LRU);
2. **no errors** — no operation may raise (a corrupted ``OrderedDict``
   typically surfaces as ``KeyError``/``RuntimeError`` under load);
3. **consistent counters** — the service's ``/healthz`` counters advance by
   exactly the workload's operation totals (exact, not best-effort).

:func:`run_load_test` is the one bounded load driver.  Its lanes are
threads sharing a :class:`~repro.serving.server.QueryService` (in-process,
what ``tests/serving/test_concurrency.py`` and E23 use) or a
:class:`~repro.serving.client.ServingClient` pointed at a live HTTP server
(``dpsc bench-load --url``), or spawned client processes against a
``ServingClient``'s server (``dpsc bench-load --processes``, the E27
scaling runs).  A ``mid_run`` hook runs once the lanes are released: the
E27 crash drill and the E29 chaos drill kill a worker from it.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ReproError
from repro.obs import Histogram
from repro.serving.client import ServingClient

__all__ = [
    "Operation",
    "LoadTestError",
    "LoadTestResult",
    "generate_workload",
    "expected_counter_deltas",
    "execute_operation",
    "run_load_test",
]

#: client processes are spawned (same rationale as the serving workers: no
#: inherited locks, and identical behaviour across platforms).
_SPAWN = multiprocessing.get_context("spawn")

#: seconds a spawned client may take to start up and report ready, and
#: then to report its results once released.
SPAWN_TIMEOUT = 120.0
RUN_TIMEOUT = 600.0

#: default traffic mix: (query, batch, mine, healthz) probabilities.
DEFAULT_MIX = (0.62, 0.25, 0.03, 0.10)


class LoadTestError(ReproError):
    """The concurrent replay diverged from the serial replay."""


@dataclass(frozen=True)
class Operation:
    """One operation of a load-test workload (hashable, replayable)."""

    kind: str  # "query" | "batch" | "mine" | "healthz"
    release: str | None = None
    pattern: str = ""
    patterns: tuple[str, ...] = ()
    threshold: float = 0.0
    min_length: int = 1


@dataclass
class LoadTestResult:
    """Outcome of one concurrent replay (see :func:`run_load_test`)."""

    threads: int
    operations: int
    seconds: float
    num_queries: int
    num_batches: int
    num_batch_patterns: int
    num_mines: int
    num_healthz: int
    mismatches: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    counters_consistent: bool = True
    #: client *processes* driving the replay (0 for thread lanes, whose
    #: count is ``threads``; ``threads`` is 0 for process lanes).
    processes: int = 0
    #: per-operation-kind latency percentiles observed *during the
    #: concurrent replay*, e.g. ``{"query": {"p50": ..., "p95": ...,
    #: "p99": ...}}`` (seconds; kinds with no operations are absent).
    percentiles: dict = field(default_factory=dict)

    @property
    def ops_per_second(self) -> float:
        return self.operations / self.seconds if self.seconds else float("inf")

    @property
    def queries_per_second(self) -> float:
        """Throughput in *pattern lookups* (batch patterns each count)."""
        total = self.num_queries + self.num_batch_patterns
        return total / self.seconds if self.seconds else float("inf")

    @property
    def bit_identical(self) -> bool:
        return not self.mismatches and not self.errors

    def row(self) -> dict:
        """A flat JSON-friendly summary (experiment/benchmark rows)."""
        row = {
            "threads": self.threads,
            "processes": self.processes,
            "operations": self.operations,
            "seconds": self.seconds,
            "ops_per_second": self.ops_per_second,
            "queries_per_second": self.queries_per_second,
            "bit_identical": self.bit_identical,
            "counters_consistent": self.counters_consistent,
            "errors": len(self.errors),
        }
        for kind in sorted(self.percentiles):
            for quantile, value in self.percentiles[kind].items():
                row[f"{kind}_{quantile}_seconds"] = value
        return row


# ----------------------------------------------------------------------
# Workload generation
# ----------------------------------------------------------------------
def generate_workload(
    service,
    num_operations: int,
    *,
    seed: int = 0,
    mix: Sequence[float] = DEFAULT_MIX,
    max_batch: int = 64,
    releases: Sequence[str] | None = None,
) -> list[Operation]:
    """A seeded list of mixed operations against ``service``'s releases.

    Patterns are drawn from each release's stored patterns (the traffic
    analysts actually send), their prefixes/extensions, and misses, so both
    the LRU cache and the dead-state paths get exercised.  The same
    ``(service releases, num_operations, seed, mix)`` always produce the
    same workload — the determinism the bit-identical check rests on.
    """
    rng = np.random.default_rng(seed)
    names = sorted(releases) if releases else _release_names(service)
    pools: dict[str, list[str]] = {}
    for name in names:
        stored = _stored_patterns(service, name)
        pool = list(stored) or [""]
        pool += [p[:-1] for p in stored if len(p) > 1]
        pool += [p + p[0] for p in stored[:64]]
        pool += ["", "\x00", "zzz-miss", "…"]
        pools[name] = pool
    probabilities = np.asarray(mix, dtype=float)
    probabilities = probabilities / probabilities.sum()
    kinds = ("query", "batch", "mine", "healthz")
    operations: list[Operation] = []
    for _ in range(num_operations):
        kind = kinds[int(rng.choice(4, p=probabilities))]
        name = names[int(rng.integers(len(names)))]
        pool = pools[name]
        if kind == "query":
            operations.append(
                Operation(
                    kind="query",
                    release=name,
                    pattern=pool[int(rng.integers(len(pool)))],
                )
            )
        elif kind == "batch":
            size = int(rng.integers(1, max_batch + 1))
            patterns = tuple(
                pool[int(index)] for index in rng.integers(len(pool), size=size)
            )
            operations.append(Operation(kind="batch", release=name, patterns=patterns))
        elif kind == "mine":
            operations.append(
                Operation(
                    kind="mine",
                    release=name,
                    threshold=float(rng.uniform(0.0, 10.0)),
                    min_length=int(rng.integers(1, 4)),
                )
            )
        else:
            operations.append(Operation(kind="healthz"))
    return operations


def expected_counter_deltas(workload: Sequence[Operation]) -> dict[str, int]:
    """How much each ``/healthz`` counter must advance after one replay."""
    deltas = {"queries": 0, "batches": 0, "batch_patterns": 0, "mines": 0}
    for operation in workload:
        if operation.kind == "query":
            deltas["queries"] += 1
        elif operation.kind == "batch":
            deltas["batches"] += 1
            deltas["batch_patterns"] += len(operation.patterns)
        elif operation.kind == "mine":
            deltas["mines"] += 1
    return deltas


def _release_names(target) -> list[str]:
    # QueryService spells it releases_info(); ServingClient releases().
    info = getattr(target, "releases_info", None) or target.releases
    return sorted(entry["name"] for entry in info())


def _stored_patterns(target, name: str) -> list[str]:
    release = getattr(target, "release", None)
    if release is not None:  # in-process QueryService
        return sorted(pattern for pattern, _ in release(name).items())
    # Over HTTP: a bottomless mine threshold lists every stored pattern.
    return sorted(pattern for pattern, _ in target.mine(-1e18, name))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _health(target) -> dict:
    # QueryService spells it health(); ServingClient spells it healthz().
    probe = getattr(target, "health", None)
    if probe is None:
        probe = target.healthz
    return probe()


def execute_operation(target, operation: Operation):
    """Run one operation; the return value is what gets compared."""
    if operation.kind == "query":
        return float(target.query(operation.pattern, operation.release))
    if operation.kind == "batch":
        return [float(c) for c in target.batch(list(operation.patterns), operation.release)]
    if operation.kind == "mine":
        return target.mine(
            operation.threshold,
            operation.release,
            min_length=operation.min_length,
        )
    if operation.kind == "healthz":
        # Counters move during the run; only liveness is comparable.
        return _health(target)["status"]
    raise ReproError(f"unknown load-test operation kind {operation.kind!r}")


def run_load_test(
    target,
    workload: Sequence[Operation],
    *,
    threads: int | None = None,
    processes: int | None = None,
    expected: Sequence[object] | None = None,
    check: bool = False,
    verify_counters: bool = True,
    mid_run: Callable[[], object] | None = None,
) -> LoadTestResult:
    """Replay ``workload`` from released client lanes and compare every
    answer against a serial replay.

    ``target`` is a :class:`QueryService` or a :class:`ServingClient`.  The
    lanes are either ``threads`` threads that share ``target`` (8 when
    neither count is given), or ``processes`` spawned client processes,
    each with its own :class:`ServingClient` built from ``target``'s
    settings (``timeout``, ``retries``, ``endpoint_timeouts``, ``backoff``,
    and ``seed`` offset by the lane number) against ``target.base_url`` —
    a single client process is GIL-bound and cannot saturate the sharded
    tier.  Lane ``k`` of ``L`` executes operations ``k, k + L, k + 2L,
    ...``: a deterministic round-robin partition, so the same workload and
    lane count replay identically (modulo scheduling, which must not
    matter: that is the property under test).

    ``expected`` lets the caller reuse one serial replay across several
    lane counts; otherwise it is computed here (serially, before any lane
    starts).  With ``check=True`` a divergence raises
    :class:`LoadTestError` instead of only being recorded in the result.
    ``verify_counters`` snapshots the target's health counters around the
    concurrent replay and requires them to advance by exactly the
    workload's totals (turn it off when other traffic shares the target).
    ``mid_run``, if given, is called in the caller's thread once every
    lane is released — the hook crash drills use to kill a worker while
    requests are in flight.
    """
    if threads is not None and processes is not None:
        raise ReproError("run_load_test takes threads or processes, not both")
    kind = "threads" if processes is None else "processes"
    lanes = processes if processes is not None else (8 if threads is None else threads)
    if lanes < 1:
        raise ReproError(f"run_load_test needs at least one client, got {kind}={lanes}")
    if processes is not None and not isinstance(target, ServingClient):
        raise ReproError("client processes need an HTTP target: pass a ServingClient")
    workload = list(workload)
    if expected is None:
        expected = [execute_operation(target, operation) for operation in workload]
    expected = list(expected)
    if len(expected) != len(workload):
        raise ReproError("expected results and workload differ in length")

    slices = [
        [(index, workload[index]) for index in range(offset, len(workload), lanes)]
        for offset in range(lanes)
    ]
    run = _run_threads if processes is None else _run_processes
    before = _health(target) if verify_counters else None
    reports, seconds = run(target, slices, mid_run)
    after = _health(target) if verify_counters else None

    results: list[object] = [None] * len(workload)
    errors: list[str] = []
    # ungated histograms: the load test *is* the measurement, so it records
    # regardless of the global telemetry switch.
    histograms: dict[str, Histogram] = {}
    for indices, outcomes, samples, lane_errors in reports:
        for index, outcome in zip(indices, outcomes):
            results[index] = outcome
        errors.extend(lane_errors)
        for operation_kind, latency in samples:
            histogram = histograms.get(operation_kind)
            if histogram is None:
                histogram = histograms[operation_kind] = Histogram(gated=False)
            histogram.observe(latency)
    mismatches = [
        index
        for index in range(len(workload))
        if workload[index].kind != "healthz" and results[index] != expected[index]
    ]
    deltas = expected_counter_deltas(workload)
    counters_consistent = True
    if verify_counters:
        counters_consistent = all(
            after[key] - before[key] == deltas[key] for key in deltas
        )
    result = LoadTestResult(
        threads=lanes if processes is None else 0,
        processes=0 if processes is None else lanes,
        operations=len(workload),
        seconds=seconds,
        num_queries=deltas["queries"],
        num_batches=deltas["batches"],
        num_batch_patterns=deltas["batch_patterns"],
        num_mines=deltas["mines"],
        num_healthz=sum(1 for op in workload if op.kind == "healthz"),
        mismatches=mismatches,
        errors=errors,
        counters_consistent=counters_consistent,
        percentiles={
            name: histogram.percentiles() for name, histogram in histograms.items()
        },
    )
    if check and not (result.bit_identical and result.counters_consistent):
        detail = "; ".join(errors[:3]) or (
            f"ops {mismatches[:10]} diverged"
            if mismatches
            else "health counters drifted from the workload totals"
        )
        raise LoadTestError(
            f"concurrent replay from {lanes} {kind} diverged from the "
            f"serial replay ({len(mismatches)} mismatches, "
            f"{len(errors)} errors): {detail}"
        )
    return result


# ----------------------------------------------------------------------
# Lanes
# ----------------------------------------------------------------------
def _replay(client, tasks, go) -> tuple[list[int], list, list, list[str]]:
    """One lane: wait for ``go``, then run ``tasks`` (``(index, Operation)``
    pairs) against ``client``.  Returns ``(indices, results, samples,
    errors)``; latency samples are kept per lane (merged after the run, so
    no shared state is contended while the clock is running)."""
    go.wait()
    indices: list[int] = []
    results: list[object] = []
    samples: list[tuple[str, float]] = []
    errors: list[str] = []
    for index, operation in tasks:
        began = time.perf_counter()
        try:
            outcome = execute_operation(client, operation)
        except Exception as error:  # noqa: BLE001 - recorded and compared
            errors.append(f"op {index} ({operation.kind}): {error!r}")
        else:
            indices.append(index)
            results.append(outcome)
            samples.append((operation.kind, time.perf_counter() - began))
    return indices, results, samples, errors


def _run_threads(target, slices, mid_run):
    """Run one thread per slice, all sharing ``target``."""
    go = threading.Event()
    reports: list[tuple] = [()] * len(slices)

    def lane(offset: int) -> None:
        reports[offset] = _replay(target, slices[offset], go)

    pool = [
        threading.Thread(target=lane, args=(offset,), name=f"loadtest-{offset}")
        for offset in range(len(slices))
    ]
    for thread in pool:
        thread.start()
    go.set()  # every lane released at once
    started = time.perf_counter()
    try:
        if mid_run is not None:
            mid_run()
    finally:
        for thread in pool:
            thread.join()
    return reports, time.perf_counter() - started


def _process_lane(settings: dict, tasks, go, conn) -> None:
    """A spawned client process: report ready, block on the shared ``go``
    event (the cross-process analogue of a barrier), replay, report."""
    with ServingClient(**settings) as client:
        conn.send("ready")
        conn.send(_replay(client, tasks, go))
    conn.close()


def _receive(offset: int, process, conn, timeout: float, what: str):
    if not conn.poll(timeout):
        raise LoadTestError(
            f"client process {offset} sent no {what} within {timeout:.0f}s"
        )
    try:
        return conn.recv()
    except EOFError:
        process.join(timeout=5.0)
        raise LoadTestError(
            f"client process {offset} died before sending its {what} "
            f"(exit code {process.exitcode})"
        ) from None


def _run_processes(target: ServingClient, slices, mid_run):
    """Run one spawned client process per slice against ``target.base_url``."""
    go = _SPAWN.Event()
    members = []
    finished = False
    try:
        for offset, tasks in enumerate(slices):
            settings = {
                "base_url": target.base_url,
                "timeout": target.timeout,
                "retries": target.retries,
                "backoff": target.backoff,
                "seed": target.seed + offset,
                "endpoint_timeouts": target.endpoint_timeouts,
            }
            parent_conn, child_conn = _SPAWN.Pipe(duplex=False)
            process = _SPAWN.Process(
                target=_process_lane,
                args=(settings, tasks, go, child_conn),
                name=f"loadtest-client-{offset}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            members.append((process, parent_conn))
        for offset, (process, conn) in enumerate(members):
            _receive(offset, process, conn, SPAWN_TIMEOUT, "ready signal")
        go.set()
        started = time.perf_counter()
        if mid_run is not None:
            mid_run()
        reports = [
            _receive(offset, process, conn, RUN_TIMEOUT, "results")
            for offset, (process, conn) in enumerate(members)
        ]
        seconds = time.perf_counter() - started
        finished = True
    finally:
        # After a failure nothing waits for the other clients' results.
        for process, conn in members:
            if finished:
                process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            conn.close()
    return reports, seconds
