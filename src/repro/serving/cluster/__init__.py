"""``repro.serving.cluster`` — the multi-process serving tier.

N worker processes accept client connections on one public listening
socket, which the supervisor creates and every worker generation inherits.
Each worker is an ordinary :class:`~repro.serving.server.QueryService`
behind the one HTTP front-end (:func:`~repro.serving.server.create_server`)
over the same mmap'd ``.dpsb`` release (~one resident copy regardless of
worker count), and answers every request on the connections it accepted:
no process relays data.  The tier parallelises across connections: the
kernel hands each new connection to whichever worker accepts it first,
and a kept-alive connection stays with its worker.

* :mod:`repro.serving.cluster.workers` — spawn-safe worker processes on
  the shared listener, readiness handshake, orphan prevention, shared
  traffic counters, the pool and the worker table;
* :mod:`repro.serving.cluster.supervisor` — :class:`Cluster`: the
  listener and its backlog, lifecycle, heartbeat monitoring, crash
  respawn, all-ready hot reload, graceful drain, and the tier-wide
  ``/healthz``, ``/metrics`` and ``/admin/reload`` that workers hand to it.

Entry points: ``Cluster(store, workers=N).start()`` in-process, or
``dpsc serve --store ... --workers N`` from the command line.
"""

from repro.serving.cluster.supervisor import Cluster
from repro.serving.cluster.workers import (
    WorkerHandle,
    WorkerPool,
    WorkerTable,
    worker_main,
)

__all__ = [
    "Cluster",
    "WorkerHandle",
    "WorkerPool",
    "WorkerTable",
    "worker_main",
]
