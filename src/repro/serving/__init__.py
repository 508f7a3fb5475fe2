"""Query serving: compiled tries, release store, budget ledger, HTTP server.

The paper's structures are *release once, query forever*: construction spends
privacy budget, every query afterwards is free post-processing.  This package
is the production path from a built :class:`~repro.core.private_trie.
PrivateCountingTrie` to serving millions of pattern queries:

``compiled``
    :class:`CompiledTrie` — the structure flattened into contiguous numpy
    arrays with vectorized batch queries and an LRU result cache.
``store``
    :class:`ReleaseStore` — versioned, digest-checked on-disk persistence of
    releases (save / load / list / pin / migrate) in either payload format.
``binfmt``
    the ``vNNNN.dpsb`` binary columnar release format: the compiled trie's
    flat arrays as raw aligned buffers behind a self-describing header, so
    :meth:`ReleaseStore.load_compiled` can map a release read-only —
    O(header) cold start, one shared page-cache copy across N processes.
``ledger``
    :class:`BudgetLedger` and :func:`build_release` — cumulative privacy
    accounting across releases of the same database, refusing builds that
    would exceed a global ``(epsilon, delta)`` cap.
``schedule``
    :class:`EpochScheduler` — the continual-release loop: watch an
    append-only :class:`~repro.api.CorpusStream`, build every epoch's
    release under the ``O(log T)`` dyadic-tree budget schedule
    (:class:`~repro.dp.ContinualAccountant`), charge the ledger, publish
    the next store version and hot-reload the serving tier
    (``dpsc epochs run/status``; see ``docs/CONTINUAL.md``).
``server`` / ``client``
    A stdlib ``ThreadingHTTPServer`` JSON API (``/query``, ``/batch``,
    ``/mine``, ``/releases``, ``/healthz``) with per-release routing — one
    front-end for the single process and the tier; ``/batch`` also answers raw little-endian float64 counts
    (:data:`F64_MEDIA_TYPE`) to a client whose ``Accept`` asks for them
    (:func:`accepts_f64`) — plus a client that asks for them, and that
    one can share across threads: its calls
    ride keep-alive connections, a reused connection the server closed
    while idle is reopened once without counting a retry, and ``close()``
    releases the idle ones.
``transport``
    :class:`~repro.serving.transport.ConnectionPool`, the thread-safe pool
    of keep-alive HTTP/1.1 connections the client sends through.
``loadtest``
    A deterministic concurrency harness: :func:`run_load_test`, the one
    bounded load driver, replays seeded workloads from simultaneously
    released threads or spawned client *processes*, checked bit-identical
    against a serial replay, with a ``mid_run`` hook for crash drills
    (``dpsc bench-load``, E23, E27, E29).
``cluster``
    The multi-process serving tier: N workers mmap-sharing one release
    copy accept client connections on one inherited listening socket (no
    relay hop), under a supervisor that owns the listener's backlog, crash
    respawn, all-ready hot reload and the tier-wide ``/healthz`` and
    ``/metrics`` (``dpsc serve --workers N``, E27).
``resilience``
    The failure-handling primitives the tier composes end to end: seeded
    decorrelated-jitter :class:`BackoffPolicy`, a :class:`CircuitBreaker`,
    propagated per-request :class:`Deadline` (:data:`DEADLINE_HEADER`),
    :class:`AdmissionGate` load shedding (every server's handler) and
    :func:`call_with_retries` — exercised under seeded fault injection
    (:mod:`repro.faults`) by the chaos drill (E29; ``docs/RESILIENCE.md``).

Everything above is safe under the concurrency it advertises: compiled
tries are immutable snapshots with lock-protected caches, and the ledger
and store write their JSON state atomically under advisory file locks —
see the "Concurrency & durability" section of ``docs/SERVING.md`` and
``dpsc serve`` / ``dpsc query`` / ``dpsc releases`` / ``dpsc bench-load``
for the command-line entry points.
"""

from repro.serving.binfmt import read_binary, write_binary
from repro.serving.cluster import Cluster
from repro.serving.compiled import CacheInfo, CompiledTrie
from repro.serving.client import (
    DEFAULT_ENDPOINT_TIMEOUTS,
    ServingClient,
    ServingClientError,
)
from repro.serving.ledger import BudgetLedger, build_release
from repro.serving.resilience import (
    DEADLINE_HEADER,
    AdmissionGate,
    BackoffPolicy,
    CircuitBreaker,
    Deadline,
    call_with_retries,
)
from repro.serving.loadtest import (
    LoadTestError,
    LoadTestResult,
    Operation,
    execute_operation,
    generate_workload,
    run_load_test,
)
from repro.serving.schedule import EpochRelease, EpochScheduler
from repro.serving.server import (
    QueryService,
    ServingHTTPError,
    create_server,
    accepts_f64,
    install_graceful_shutdown,
    serve_forever,
)
from repro.serving.store import ReleaseRecord, ReleaseStore
from repro.serving.transport import F64_MEDIA_TYPE

__all__ = [
    "Cluster",
    "CacheInfo",
    "CompiledTrie",
    "EpochRelease",
    "EpochScheduler",
    "ServingClient",
    "ServingClientError",
    "DEFAULT_ENDPOINT_TIMEOUTS",
    "DEADLINE_HEADER",
    "F64_MEDIA_TYPE",
    "AdmissionGate",
    "BackoffPolicy",
    "CircuitBreaker",
    "Deadline",
    "call_with_retries",
    "BudgetLedger",
    "build_release",
    "LoadTestError",
    "LoadTestResult",
    "Operation",
    "execute_operation",
    "generate_workload",
    "run_load_test",
    "QueryService",
    "ServingHTTPError",
    "accepts_f64",
    "create_server",
    "install_graceful_shutdown",
    "serve_forever",
    "ReleaseRecord",
    "ReleaseStore",
    "read_binary",
    "write_binary",
]
