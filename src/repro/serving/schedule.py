"""The epoch scheduler: stream -> build -> ledger -> store -> hot reload.

:class:`EpochScheduler` owns the serving side of the continual-release
pipeline.  It watches an append-only :class:`~repro.api.CorpusStream` and,
for every epoch the stream has grown past the last release:

1. pre-checks the epoch's *marginal* budget (the dyadic-tree schedule of
   :class:`~repro.dp.ContinualAccountant`: the full epoch budget at
   power-of-two epochs, zero otherwise) against the
   :class:`~repro.serving.BudgetLedger` cap — a refused epoch never touches
   the documents;
2. builds the epoch's combined release through the structure registry
   (``heavy-path-continual`` by default), reusing cached per-interval
   structures so only the one newly-completed interval is constructed;
3. charges the marginal via :meth:`BudgetLedger.charge_epoch` (durable,
   audited) and publishes the structure as the next store version, tagged
   with the epoch and its parent version;
4. triggers :meth:`Cluster.reload` — the atomic generation swap of the
   sharded tier, under which no request is dropped and no client observes a
   version mix — or hands single-process callers a fresh pinned
   :class:`~repro.serving.QueryService` via :meth:`current_service`.

Version pinning: every published version records its epoch, so
:meth:`version_for_epoch` lets an in-flight client keep querying its epoch's
snapshot (``QueryService.from_store(..., versions=...)``) while the tier
moves on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro import faults
from repro.core.params import ConstructionParams
from repro.dp.composition import ContinualAccountant, PrivacyBudget
from repro.exceptions import ReleaseNotFoundError, ReproError
from repro.obs import MetricsRegistry
from repro.serving.ledger import BudgetLedger
from repro.serving.resilience import BackoffPolicy, call_with_retries
from repro.serving.store import ReleaseStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.stream import CorpusStream
    from repro.serving.cluster import Cluster
    from repro.serving.server import QueryService

__all__ = ["EpochScheduler", "EpochRelease"]

#: default schedule horizon: ample for any realistic stream, and irrelevant
#: to the marginal charges (which depend only on the epoch number).
DEFAULT_HORIZON = 1 << 20

#: chaos-drill injection site: fires at the top of each epoch build attempt,
#: inside the scheduler's retry loop (transient build failures are retried
#: with backoff; the privacy ledger is only charged after a build succeeds).
_FP_EPOCH_BUILD = faults.failpoint(
    "schedule.epoch_build", "Entry of every epoch release build attempt."
)

#: exceptions worth a build retry: environmental/injected trouble.  Privacy
#: refusals (``BudgetExceededError``) and schedule misuse (``ReproError``)
#: must always propagate — a refused charge is not a transient fault.
_BUILD_TRANSIENT = (OSError, faults.FaultInjected)


@dataclass(frozen=True)
class EpochRelease:
    """What one scheduler step produced."""

    epoch: int
    version: int
    digest: str
    #: marginal budget this epoch charged (zero off the power-of-two grid).
    epsilon: float
    delta: float
    #: cumulative ledger spend after the charge.
    spent_epsilon: float
    spent_delta: float
    num_patterns: int
    #: whether a cluster generation swap was performed for this release.
    reloaded: bool


class EpochScheduler:
    """Builds, accounts and publishes one release per stream epoch.

    Parameters
    ----------
    stream / store / ledger:
        The corpus stream watched, the release store published into, and
        the budget ledger charged (cap enforcement + audit trail).
    params:
        Per-epoch construction parameters; ``params.budget`` is the *epoch
        budget* of the tree schedule, so a ledger cap of
        ``levels * epoch_budget`` funds the whole horizon.
    release_name / database_id:
        Store release name and ledger database id (default: the stream's
        name for both).
    seed:
        Base seed of the per-interval RNGs — replaying the same stream with
        the same seed reproduces every release digest exactly.
    kind:
        Registry kind built per epoch (default ``heavy-path-continual``).
    cluster:
        Optional :class:`~repro.serving.Cluster` to hot-reload after every
        publish.  Single-process servers instead swap in
        :meth:`current_service` output.
    horizon:
        Schedule horizon ``T`` (bounds the worst-case total budget at
        ``(floor(log2 T) + 1) * epoch_budget``).

    A restarted scheduler resumes where the *ledger* says the schedule
    stopped (:meth:`BudgetLedger.next_epoch`): epochs already charged are
    replayed into the in-memory accountant, never re-charged.
    """

    def __init__(
        self,
        stream: "CorpusStream",
        store: ReleaseStore,
        ledger: BudgetLedger,
        *,
        params: ConstructionParams,
        release_name: str | None = None,
        database_id: str | None = None,
        seed: int = 0,
        kind: str = "heavy-path-continual",
        label: str = "epoch",
        release_format: str | None = None,
        registry=None,
        cluster: "Cluster | None" = None,
        on_release: Callable[[EpochRelease], None] | None = None,
        horizon: int = DEFAULT_HORIZON,
        build_retries: int = 3,
        retry_backoff: BackoffPolicy | None = None,
        **build_kwargs,
    ) -> None:
        self.stream = stream
        self.store = store
        self.ledger = ledger
        self.params = params
        self.release_name = release_name or stream.name
        self.database_id = database_id or stream.name
        self.seed = int(seed)
        self.kind = kind
        self.label = label
        self.release_format = release_format
        if registry is None:
            from repro.api.registry import default_registry

            registry = default_registry()
        self.registry = registry
        self.cluster = cluster
        self.on_release = on_release
        self.build_retries = int(build_retries)
        self.retry_backoff = (
            retry_backoff
            if retry_backoff is not None
            else BackoffPolicy(base=0.02, cap=0.5)
        )
        self.build_kwargs = dict(build_kwargs)
        self.metrics = MetricsRegistry()
        self._build_retries_total = self.metrics.counter(
            "dpsc_scheduler_retries_total",
            "Epoch pipeline attempts retried after a transient failure, by stage.",
            {"stage": "build"},
        )
        self._reload_retries_total = self.metrics.counter(
            "dpsc_scheduler_retries_total",
            "Epoch pipeline attempts retried after a transient failure, by stage.",
            {"stage": "reload"},
        )
        self._reload_failures = self.metrics.counter(
            "dpsc_scheduler_reload_failures_total",
            "Hot reloads abandoned after retries (the release stays "
            "published; the next epoch's swap serves it).",
        )
        self.continual = ContinualAccountant(params.budget, horizon=horizon)
        #: per-interval structure cache: one fresh build per epoch.
        self._cache: dict[tuple[int, int], object] = {}
        self._lock = threading.Lock()
        self.releases: list[EpochRelease] = []
        # Resume a persisted schedule: epochs the ledger already booked are
        # replayed into the in-memory accountant (never re-charged).
        for epoch in range(1, self.ledger.next_epoch(self.database_id)):
            self.continual.charge_epoch(epoch)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def released_epochs(self) -> int:
        """Epochs released so far (schedule position, ledger-durable)."""
        return self.continual.current_epoch

    def pending_epochs(self) -> list[int]:
        """Stream epochs that arrived but have not been released yet."""
        return list(range(self.released_epochs + 1, self.stream.num_epochs + 1))

    def version_for_epoch(self, epoch: int) -> int:
        """The store version serving ``epoch``'s snapshot — what a pinned
        client passes to ``QueryService.from_store(versions=...)``."""
        for record in self.store.list_releases():
            if record.name == self.release_name and record.epoch == epoch:
                return record.version
        raise ReleaseNotFoundError(
            f"release {self.release_name!r} has no version for epoch {epoch}"
        )

    def status(self) -> dict:
        """JSON-friendly schedule state (``dpsc epochs status``)."""
        spent = (
            self.ledger.spent(self.database_id).epsilon
            if self.database_id in self.ledger.database_ids()
            else 0.0
        )
        epochs = self.ledger.epoch_entries(self.database_id)
        released = len(epochs)
        tree_epsilon, tree_delta = self.continual.spent_through(max(released, 1))
        return {
            "release": self.release_name,
            "database_id": self.database_id,
            "stream_epochs": self.stream.num_epochs,
            "released_epochs": released,
            "pending_epochs": self.pending_epochs(),
            "spent_epsilon": spent,
            "cap_epsilon": self.ledger.cap.epsilon,
            "cap_delta": self.ledger.cap.delta,
            "tree_bound_epsilon": tree_epsilon if released else 0.0,
            "tree_bound_delta": tree_delta if released else 0.0,
            "naive_epsilon": released * self.params.budget.epsilon,
            "epoch_budget_epsilon": self.params.budget.epsilon,
            "epoch_budget_delta": self.params.budget.delta,
            "epochs": epochs,
        }

    # ------------------------------------------------------------------
    # The step: one epoch end to end
    # ------------------------------------------------------------------
    def run_epoch(self, epoch: int | None = None) -> EpochRelease:
        """Release the next pending epoch (``epoch`` must match it when
        given) and return the publication record."""
        with self._lock:
            expected = self.released_epochs + 1
            if epoch is None:
                epoch = expected
            if epoch != expected:
                raise ReproError(
                    f"epochs release in order: expected {expected}, got {epoch}"
                )
            if epoch > self.stream.num_epochs:
                raise ReproError(
                    f"epoch {epoch} has not arrived in stream "
                    f"{self.stream.name!r} ({self.stream.num_epochs} epoch(s))"
                )
            # Refuse-before-build: when this epoch carries a real marginal
            # charge, an unaffordable schedule must not touch the documents.
            epsilon, delta = self.continual.marginal(epoch)
            if (epsilon > 0 or delta > 0) and not self.ledger.can_afford(
                self.database_id, PrivacyBudget(epsilon, delta)
            ):
                # charge_epoch raises the detailed BudgetExceededError and
                # audits the refusal; nothing is recorded.
                self.ledger.charge_epoch(
                    self.database_id, epoch, epsilon, delta, label=self.label
                )
            # The builder contract's database positional is unused by the
            # continual kind (the stream is the data source).  Transient
            # build failures (I/O trouble, injected faults) are retried with
            # seeded backoff — safe before any charge: a failed attempt has
            # touched no ledger state and published nothing.
            def _build():
                _FP_EPOCH_BUILD.hit()
                return self.registry.build(
                    self.kind,
                    None,
                    self.params,
                    stream=self.stream,
                    epoch=epoch,
                    seed=self.seed,
                    cache=self._cache,
                    **self.build_kwargs,
                )

            structure = call_with_retries(
                _build,
                retries=self.build_retries,
                transient=_BUILD_TRANSIENT,
                backoff=self.retry_backoff,
                seed=f"{self.seed}:build:{epoch}",
                on_retry=lambda _error: self._build_retries_total.inc(),
            )
            # Durable accounting first (audited, crash-safe), then the
            # artifact: a crash in between leaves a charge whose release
            # never published — visible in the trail, re-publishable free
            # of charge (combination is post-processing).
            self.continual.charge_epoch(epoch)
            try:
                self.ledger.charge_epoch(
                    self.database_id, epoch, epsilon, delta, label=self.label
                )
            except Exception:
                # Keep the in-memory schedule aligned with the ledger.
                self.continual.charges.pop()
                self.continual.accountant.records.pop()
                raise
            record = self.store.save(
                self.release_name,
                structure,
                format=self.release_format,
                epoch=epoch,
            )
            self.ledger.record_release(
                self.database_id,
                version=record.version,
                digest=record.digest,
                label=f"{self.label}-{epoch}",
                format=record.format,
            )
            reloaded = self._trigger_reload()
            release = EpochRelease(
                epoch=epoch,
                version=record.version,
                digest=record.digest,
                epsilon=epsilon,
                delta=delta,
                spent_epsilon=self.ledger.spent(self.database_id).epsilon,
                spent_delta=self.ledger.spent(self.database_id).delta,
                num_patterns=record.num_patterns,
                reloaded=reloaded,
            )
            self.releases.append(release)
        if self.on_release is not None:
            self.on_release(release)
        return release

    def run_pending(self) -> list[EpochRelease]:
        """Release every epoch the stream holds but the store does not."""
        return [self.run_epoch() for _ in list(self.pending_epochs())]

    def watch(
        self,
        *,
        poll_interval: float = 0.5,
        stop: threading.Event | None = None,
        max_epochs: int | None = None,
    ) -> list[EpochRelease]:
        """Poll the stream and release epochs as they arrive, until ``stop``
        is set (or ``max_epochs`` epochs have been released)."""
        stop = stop or threading.Event()
        released: list[EpochRelease] = []
        while not stop.is_set():
            for _ in list(self.pending_epochs()):
                released.append(self.run_epoch())
                if max_epochs is not None and len(released) >= max_epochs:
                    return released
            stop.wait(timeout=poll_interval)
        return released

    # ------------------------------------------------------------------
    # Serving integration
    # ------------------------------------------------------------------
    def _trigger_reload(self) -> bool:
        if self.cluster is None:
            return False
        try:
            summary = call_with_retries(
                self.cluster.reload,
                retries=self.build_retries,
                transient=(ReproError, OSError),
                backoff=self.retry_backoff,
                seed=f"{self.seed}:reload",
                on_retry=lambda _error: self._reload_retries_total.inc(),
            )
        except (ReproError, OSError):
            # The release is already published and accounted; a failed swap
            # only delays serving it — the next epoch's reload (or a manual
            # /admin/reload) picks it up.  Swallowing is safe, losing the
            # already-charged release would not be.
            self._reload_failures.inc()
            return False
        return bool(summary.get("reloaded"))

    def current_service(self, **kwargs) -> "QueryService":
        """A fresh single-process :class:`QueryService` pinned to the latest
        published version — the swap path for non-cluster servers (build the
        new service and exchange the handle)."""
        from repro.serving.server import QueryService

        version = self.store.resolve_version(self.release_name)
        return QueryService.from_store(
            self.store,
            [self.release_name],
            versions={self.release_name: version},
            **kwargs,
        )
