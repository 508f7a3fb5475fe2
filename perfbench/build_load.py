"""The curator's workload: build, publish and first-serve a release.

Each release runs the public chain ``build_release`` (ledger-guarded,
``kind="heavy-path"``) -> ``ReleaseStore.save(format="binary")`` ->
``BudgetLedger.record_release`` -> ``ReleaseStore.load_compiled(mmap=True)``
-> one ``CompiledTrie.batch_query``.  A pass runs in a fresh child process
so its peak RSS is the build's own.  The child is a plain ``subprocess``
(not ``multiprocessing``, whose resource-tracker helper would outlive the
benchmark) that reads its job from and writes its result to pickle files.
"""

from __future__ import annotations

import contextlib
import math
import pickle
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

from common import SpanLog, draw_patterns, median, percentile_ms  # noqa: E402
from repro import obs  # noqa: E402
from repro.core.params import ConstructionParams  # noqa: E402
from repro.dp.composition import PrivacyBudget  # noqa: E402
from repro.exceptions import ReproError  # noqa: E402
from repro.serving import BudgetLedger, ReleaseStore, build_release  # noqa: E402
from repro.workloads.genome import genome_with_motifs  # noqa: E402

RELEASE = "genome"

#: the construction's top-level stages, in pipeline order.
STAGES = ("candidates", "trie_build", "annotate", "decomposition", "noise", "prune",
          "materialize")


@dataclass(frozen=True)
class BuildWorkload:
    documents: int = 2000
    length: int = 16
    epsilon: float = 60.0
    threshold: float = 30.0
    batch_size: int = 1024
    batch_length: int = 4
    #: corpora per run, each drawn from ``(seed, index)``: the candidate
    #: trie's size varies by ~10% between seeds, and a run over several
    #: corpora varies less than one over a single corpus.
    corpora: int = 4
    #: rounds over every corpus made even when ``seconds`` runs out first;
    #: two, so every corpus is built twice and its repeat is checked.
    min_rounds: int = 2


def run_build(workload: BuildWorkload, seed: int, seconds: float, workdir: Path,
              traced: bool) -> dict:
    """One pass in a fresh child process (its peak RSS is the build's); the
    child is waited for on every way out, a SIGTERM included."""
    workdir.mkdir(parents=True, exist_ok=True)
    job, result = workdir / "job.pickle", workdir / "result.pickle"
    job.write_bytes(pickle.dumps((workload, seed, seconds, workdir, traced)))
    child = subprocess.Popen([sys.executable, str(HERE / "build_load.py"), str(job)],
                             stdin=subprocess.DEVNULL)
    try:
        code = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0:
        raise RuntimeError(f"the build pass exited with code {code}")
    return pickle.loads(result.read_bytes())


class _Curator:
    """The curator's state across one pass: store, ledger and checks."""

    def __init__(self, workload: BuildWorkload, seed: int, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.workload = workload
        self.seed = seed
        self.store = ReleaseStore(workdir / "store")
        self.ledger = BudgetLedger(PrivacyBudget(workload.epsilon * 1e6, 0.0),
                                   path=workdir / "ledger.json")
        self.params = ConstructionParams(
            budget=PrivacyBudget(workload.epsilon, 0.0),
            beta=0.1,
            max_length=workload.length,
            threshold=workload.threshold,
        )
        self.failures: list[str] = []
        #: corpus index -> (digest, candidate-trie nodes, stored nodes) seen.
        self.shapes: dict[int, set[tuple]] = {}
        self.patterns: list[str] | None = None

    def release(self, corpus: int, traced: bool) -> dict | None:
        """Corpus, then one release through the public chain; its timings,
        or ``None`` when the build aborted."""
        workload = self.workload
        began = time.perf_counter()
        rng = np.random.default_rng([self.seed, corpus])
        database = genome_with_motifs(workload.documents, workload.length, rng)
        corpus_s = time.perf_counter() - began
        if self.patterns is None:
            self.patterns = draw_patterns(np.random.default_rng(self.seed),
                                          database.alphabet.symbols,
                                          [workload.batch_length] * workload.batch_size)
        spent_before = self.ledger.spent(RELEASE).epsilon

        cpu_began = time.process_time()
        with obs.trace("release") if traced else contextlib.nullcontext() as root:
            began = time.perf_counter()
            try:
                with obs.span("build_release"):
                    structure = build_release(
                        database, self.params, ledger=self.ledger, database_id=RELEASE,
                        label="perfbench", rng=rng, kind="heavy-path",
                    )
            except ReproError as error:
                self.failures.append(f"build aborted: {type(error).__name__}: {error}")
                return None
            built = time.perf_counter()
            with obs.span("store.save"):
                record = self.store.save(RELEASE, structure, format="binary")
            saved = time.perf_counter()
            with obs.span("ledger.record_release"):
                self.ledger.record_release(RELEASE, version=record.version,
                                           digest=record.digest, label="perfbench",
                                           format=record.format)
            recorded = time.perf_counter()
            with obs.span("store.load_compiled"):
                mapped = self.store.load_compiled(RELEASE, version=record.version, mmap=True)
            loaded = time.perf_counter()
            with obs.span("compiled.first_batch"):
                counts = mapped.batch_query(self.patterns)
            answered = time.perf_counter()
        cpu_s = time.process_time() - cpu_began
        warm = time.perf_counter()
        mapped.batch_query(self.patterns)
        batch_query_ms = (time.perf_counter() - warm) * 1e3

        shape = self.shapes.setdefault(corpus, set())
        shape.add((record.digest, structure.report["trie_nodes_before_pruning"],
                   mapped.num_nodes))
        if len(shape) > 1:
            self.failures.append("release digest or node counts changed for the same seed")
        if not math.isclose(self.ledger.spent(RELEASE).epsilon - spent_before,
                            workload.epsilon, abs_tol=1e-9):
            self.failures.append("ledger spend differs from epsilon for one build")
        if counts.tobytes() != structure.query_many(self.patterns).tobytes():
            self.failures.append("mapped release answers differ from the built structure")

        profile = structure.profile
        stages = profile.stages()
        layers = {f"build.{stage}_s": stages.get(stage, 0.0) for stage in STAGES}
        layers.update({
            "ledger.charge_s": (built - began - profile.total_seconds) + (recorded - saved),
            "store.save_s": saved - built,
            "store.load_compiled_s": loaded - recorded,
            "compiled.first_batch_s": answered - loaded,
            "compiled.batch_query_ms": batch_query_ms,
            "store.payload_bytes": Path(record.path).stat().st_size,
        })
        return {"corpus_s": corpus_s, "release_s": answered - began, "cpu_s": cpu_s,
                "layers": layers, "span": root}


def _build_pass(workload: BuildWorkload, seed: int, seconds: float, workdir: Path,
                traced: bool) -> dict:
    curator = _Curator(workload, seed, workdir)
    # The first release of a process pays lazy imports and cold caches; it
    # is checked but not measured.
    curator.release(0, traced=False)
    attempted = 1
    spans = SpanLog("build-release") if traced else None
    releases, rounds = [], 0
    deadline = time.perf_counter() + seconds
    while rounds < workload.min_rounds or time.perf_counter() < deadline:
        rounds += 1
        for corpus in range(workload.corpora):
            attempted += 1
            release = curator.release(corpus, traced)
            if release is not None:
                releases.append(release)
                if spans is not None:
                    spans.root.children.append(release["span"])

    latencies = [r["release_s"] for r in releases]
    answered = workload.batch_size * len(releases)
    shapes = {corpus: min(shape) for corpus, shape in sorted(curator.shapes.items())}
    layers = None
    if traced and releases:
        layers = {name: float(np.mean([r["layers"][name] for r in releases]))
                  for name in releases[0]["layers"]}
        layers.update({
            "build.candidate_trie_nodes": float(np.mean([s[1] for s in shapes.values()])),
            "build.stored_nodes": float(np.mean([s[2] for s in shapes.values()])),
        })
    return {
        "attempted": attempted,
        "failures": curator.failures,
        "metrics": {
            "setup_s": median([r["corpus_s"] for r in releases]),
            "patterns_per_s": answered / sum(latencies) if latencies else 0.0,
            "latency_p50_ms": percentile_ms(latencies, 50),
            "latency_p99_ms": percentile_ms(latencies, 99),
            "cpu_ms_per_kpattern": (sum(r["cpu_s"] for r in releases) * 1e3 / (answered / 1e3)
                                    if answered else 0.0),
            "memory_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "samples": {"setup_s": len(releases), "latency": len(latencies),
                    "corpora": workload.corpora, "rounds": rounds},
        "layers": layers,
        "trace": spans.chrome_trace() if spans is not None else None,
        "notes": {f"corpus_{corpus}": {"digest": shape[0][:16], "candidate_trie_nodes": shape[1],
                                       "stored_nodes": shape[2]}
                  for corpus, shape in shapes.items()},
    }


if __name__ == "__main__":
    job_path = Path(sys.argv[1])
    workload, seed, seconds, workdir, traced = pickle.loads(job_path.read_bytes())
    outcome = _build_pass(workload, seed, seconds, workdir, traced)
    (job_path.parent / "result.pickle").write_bytes(pickle.dumps(outcome))
