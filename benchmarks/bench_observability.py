"""E25 — Observability smoke: exposition validity and telemetry overhead.

The telemetry layer's contract is that it is *free when off and cheap when
on*: counters and spans must not tax the serving hot path, and whatever
``/metrics`` emits must be syntactically valid Prometheus text exposition
(the validator lives next to the renderer in :mod:`repro.obs.export`, so a
rendering bug cannot certify itself).  This script is the CI gate for both:

1. build a small noiseless release and drive a short mixed load test
   through a real HTTP server (``create_server``), recording per-endpoint
   latency percentiles;
2. scrape ``GET /metrics`` and run :func:`repro.obs.validate_exposition`
   over the bytes on the wire — the build fails on any grammar violation,
   non-cumulative bucket, or ``+Inf``/``_count`` disagreement — and check
   the request counters and latency histograms actually populated;
3. measure the batch-query hot path with telemetry enabled vs disabled
   (best-of-``reps`` each, interleaved) and fail if the enabled path costs
   more than ``OVERHEAD_FLOOR`` (5%) over the disabled path.

Run with::

    PYTHONPATH=src python benchmarks/bench_observability.py --smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import threading
import time
import urllib.request

import numpy as np

from repro import obs
from repro.core.construction import build_private_counting_structure
from repro.core.params import ConstructionParams
from repro.serving import QueryService, create_server, generate_workload, run_load_test
from repro.workloads import genome_with_motifs

TITLE = "Observability: exposition validity and telemetry overhead"

#: enabled/disabled best-of ratio the batch hot path must stay under.
OVERHEAD_FLOOR = 1.05

#: absolute slack (seconds) below which the ratio check is vacuous — on a
#: tiny workload a single scheduler tick dwarfs any real overhead.
NOISE_FLOOR_SECONDS = 2e-3


def _build_service(n: int, ell: int, seed: int) -> QueryService:
    rng = np.random.default_rng(seed)
    database = genome_with_motifs(n, ell, rng, motifs=("ACGTAC", "GGCC"))
    params = ConstructionParams.pure(2.0, beta=0.1, noiseless=True, threshold=1.0)
    structure = build_private_counting_structure(database, params, rng=rng)
    return QueryService({"genome": structure})


def _scrape(url: str) -> str:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read().decode("utf-8")


def _best_of(callable_, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def measure_overhead(
    service: QueryService, *, batches: int = 50, size: int = 64, reps: int = 7
) -> dict:
    """Best-of batch-query wall time with telemetry enabled vs disabled."""
    release = service.release("genome")
    rng = np.random.default_rng(7)
    pool = sorted(pattern for pattern, _ in release.items()) or [""]
    patterns = [pool[int(i)] for i in rng.integers(len(pool), size=size)]

    def run_batches() -> None:
        for _ in range(batches):
            service.batch(patterns)

    run_batches()  # warm the caches once, outside the timed region
    previous = obs.set_enabled(True)
    try:
        # Interleaved A/B: take each mode's best over `reps` passes so one
        # scheduler stall cannot decide the comparison.
        enabled_best = disabled_best = float("inf")
        for _ in range(reps):
            obs.set_enabled(True)
            enabled_best = min(enabled_best, _best_of(run_batches, 1))
            obs.set_enabled(False)
            disabled_best = min(disabled_best, _best_of(run_batches, 1))
    finally:
        obs.set_enabled(previous)
    ratio = enabled_best / disabled_best if disabled_best else 1.0
    return {
        "batches": batches,
        "batch_size": size,
        "enabled_seconds": enabled_best,
        "disabled_seconds": disabled_best,
        "overhead_ratio": ratio,
        "overhead_seconds": enabled_best - disabled_best,
    }


def run_observability_smoke(
    *, n: int = 300, ell: int = 10, ops: int = 400, threads: int = 8, seed: int = 0
) -> dict:
    service = _build_service(n, ell, seed)
    server = create_server(service, port=0)
    worker = threading.Thread(target=server.serve_forever, daemon=True)
    worker.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    failures: list[str] = []
    try:
        workload = generate_workload(service, ops, seed=seed)
        result = run_load_test(service, workload, threads=threads)
        if not result.bit_identical:
            failures.append(
                f"load test diverged: {len(result.mismatches)} mismatches, "
                f"{len(result.errors)} errors"
            )
        if not result.counters_consistent:
            failures.append("health counters drifted from the workload totals")

        text = _scrape(f"{base}/metrics")
        try:
            samples = obs.validate_exposition(text)
        except ValueError as error:
            failures.append(f"invalid exposition: {error}")
            samples = 0
        snapshot = json.loads(_scrape(f"{base}/metrics?format=json"))
        latency = {
            entry["labels"]["endpoint"]: entry["value"]
            for entry in snapshot.get("dpsc_request_seconds", {}).get("series", [])
        }
        for endpoint in ("query", "batch", "mine", "healthz"):
            if latency.get(endpoint, {}).get("count", 0) <= 0:
                failures.append(f"no latency observations for /{endpoint}")

        overhead = measure_overhead(service)
        if (
            overhead["overhead_ratio"] > OVERHEAD_FLOOR
            and overhead["overhead_seconds"] > NOISE_FLOOR_SECONDS
        ):
            failures.append(
                f"telemetry overhead {overhead['overhead_ratio']:.3f}x exceeds "
                f"the {OVERHEAD_FLOOR}x floor "
                f"(+{overhead['overhead_seconds'] * 1e3:.2f}ms)"
            )
    finally:
        server.shutdown()
        server.server_close()
    return {
        "experiment": "E25",
        "title": TITLE,
        "operations": result.operations,
        "threads": result.threads,
        "loadtest": result.row(),
        "exposition_samples": samples,
        "overhead": overhead,
        "failures": failures,
        "ok": not failures,
    }


def _main() -> int:
    parser = argparse.ArgumentParser(description=TITLE)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-sized CI run (smaller corpus and workload)",
    )
    parser.add_argument("--ops", type=int, default=0, help="override operation count")
    parser.add_argument(
        "--output",
        default="BENCH_observability.json",
        help="where to write the JSON payload",
    )
    args = parser.parse_args()
    if args.smoke:
        kwargs = {"n": 200, "ell": 8, "ops": args.ops or 300, "threads": 4}
    else:
        kwargs = {"n": 800, "ell": 12, "ops": args.ops or 2000, "threads": 8}
    payload = run_observability_smoke(**kwargs)
    pathlib.Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    row = payload["loadtest"]
    print(
        f"loadtest: {row['operations']} ops x {payload['threads']} threads, "
        f"{row['ops_per_second']:.0f} ops/s, "
        f"query_p95={row.get('query_p95_seconds', float('nan')) * 1e3:.3f}ms"
    )
    print(f"exposition: {payload['exposition_samples']} valid samples")
    overhead = payload["overhead"]
    print(
        f"overhead: enabled {overhead['enabled_seconds'] * 1e3:.2f}ms vs "
        f"disabled {overhead['disabled_seconds'] * 1e3:.2f}ms "
        f"({overhead['overhead_ratio']:.3f}x)"
    )
    if payload["failures"]:
        print(
            "\n".join(f"FAIL: {line}" for line in payload["failures"]),
            file=sys.stderr,
        )
        return 1
    print(f"ok — payload written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
