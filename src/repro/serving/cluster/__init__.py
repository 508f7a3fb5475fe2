"""``repro.serving.cluster`` — the multi-process serving tier.

A router on the public port in front of N worker processes, each an
ordinary :class:`~repro.serving.server.QueryService` over the same mmap'd
``.dpsb`` release (~one resident copy regardless of worker count).  The
router and the workers run the same HTTP front-end
(:func:`~repro.serving.server.create_server`); only its backend differs.
The tier parallelises across concurrent requests: each request is answered
whole by one worker.

* :mod:`repro.serving.cluster.workers` — spawn-safe worker processes,
  readiness handshake, orphan prevention, the pool and the router's
  worker table;
* :mod:`repro.serving.cluster.router` — :class:`Router`, the relaying
  backend: raw-bytes forwarding, straggler micro-batching, retry-on-crash,
  tier-wide ``/metrics`` and ``/healthz``;
* :mod:`repro.serving.cluster.supervisor` — :class:`Cluster`: lifecycle,
  heartbeat monitoring, crash respawn, atomic hot reload, graceful drain.

Entry points: ``Cluster(store, workers=N).start()`` in-process, or
``dpsc serve --store ... --workers N`` from the command line.
"""

from repro.serving.cluster.router import Router
from repro.serving.cluster.supervisor import Cluster
from repro.serving.cluster.workers import (
    WorkerHandle,
    WorkerPool,
    WorkerTable,
    worker_main,
)

__all__ = [
    "Cluster",
    "Router",
    "WorkerHandle",
    "WorkerPool",
    "WorkerTable",
    "worker_main",
]
