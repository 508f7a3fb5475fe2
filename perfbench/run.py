"""The build -> release -> serve benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch-single --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced then traced, prints the per-layer table and the
tracing overhead (traced minus untraced, per end-to-end metric), and writes
the traced spans as Chrome trace-event JSON.  Every run checks every answer;
the last line of standard output is one JSON object, and the exit code is 1
when any operation failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    print(f"perfbench: the program is not in this checkout ({ROOT / 'src' / 'repro'})",
          file=sys.stderr)
    raise SystemExit(2)

from build_load import BuildWorkload, run_build  # noqa: E402
from common import become_subreaper, cpu_ticks, environment, reap_descendants  # noqa: E402
from serving_load import ServingWorkload, run_serving  # noqa: E402

#: the workloads and why each exists (BENCHMARK.json repeats the reasons).
WORKLOADS = {
    "batch-single": ServingWorkload(workers=1, endpoint="batch"),
    "batch-tier": ServingWorkload(workers=2, endpoint="batch"),
    "query-tier": ServingWorkload(workers=2, endpoint="query", pool=4096),
    "build-release": BuildWorkload(),
}

#: end-to-end metrics in BENCHMARK.json, with their units; every workload
#: reports all of them.
END_TO_END = {
    "setup_s": "s",
    "cpu_ms_per_kpattern": "ms",
    "memory_mb": "MB",
}

#: end-to-end metrics every workload also measures, prints and records, but
#: which BENCHMARK.json does not gate: on a shared host their spread across
#: seeded runs reached 0.3-0.9 of the median in periods when other tenants
#: took the CPUs, wider than any regression bound the benchmark may set.
REPORTED = {
    "patterns_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}

#: per-layer metrics: unit, and the end-to-end metric (on which workloads)
#: each one should move.  A traced run reports all of them; a layer the
#: workload does not run reports 0.
PER_LAYER = {
    "client.call_ms": ("ms", "latency_p50_ms, patterns_per_s on every serving workload"),
    "client.retries": ("count", "failed operations and latency_p99_ms"),
    "wire.request_bytes_per_pattern": ("B", "cpu_ms_per_kpattern, patterns_per_s on batch-*"),
    "wire.response_bytes_per_pattern": ("B", "cpu_ms_per_kpattern, patterns_per_s on batch-*"),
    "router.request_ms": ("ms", "latency_p50_ms on batch-tier and query-tier"),
    "router.subrequests_per_request": ("count", "cpu_ms_per_kpattern on batch-tier"),
    "router.microbatch_flush_size_mean": ("count", "patterns_per_s on query-tier"),
    "router.retries": ("count", "failed operations on the tier workloads"),
    "router.shed": ("count", "failed operations on the tier workloads"),
    "server.service_ms": ("ms", "latency_p50_ms on every serving workload"),
    "compiled.batch_query_ms": ("ms", "bounds the kernel's share of latency_p50_ms"),
    "http.unattributed_ms": ("ms", "latency_p50_ms on every serving workload"),
    "build.candidates_s": ("s", "latency_p50_ms, cpu_ms_per_kpattern on build-release"),
    "build.trie_build_s": ("s", "latency_p50_ms, cpu_ms_per_kpattern on build-release"),
    "build.annotate_s": ("s", "latency_p50_ms, cpu_ms_per_kpattern on build-release"),
    "build.decomposition_s": ("s", "latency_p50_ms, cpu_ms_per_kpattern on build-release"),
    "build.noise_s": ("s", "latency_p50_ms, cpu_ms_per_kpattern on build-release"),
    "build.prune_s": ("s", "latency_p50_ms, cpu_ms_per_kpattern on build-release"),
    "build.materialize_s": ("s", "latency_p50_ms, cpu_ms_per_kpattern on build-release"),
    "build.candidate_trie_nodes": ("count", "cpu_ms_per_kpattern, memory_mb on build-release"),
    "build.stored_nodes": ("count", "cpu_ms_per_kpattern on build-release"),
    "ledger.charge_s": ("s", "latency_p50_ms, cpu_ms_per_kpattern on build-release"),
    "store.save_s": ("s", "latency_p50_ms, cpu_ms_per_kpattern on build-release"),
    "store.payload_bytes": ("B", "latency_p50_ms on build-release"),
    "store.load_compiled_s": ("s", "latency_p50_ms on build-release; setup_s on serving"),
    "compiled.first_batch_s": ("s", "latency_p50_ms on build-release"),
}


def run_workload(workload, seed: int, seconds: float, workdir: Path, traced: bool) -> dict:
    """One pass: a dict with ``attempted``, ``failures``, ``metrics``,
    ``samples``, ``layers`` (traced only), ``trace`` and ``notes``."""
    runner = run_build if isinstance(workload, BuildWorkload) else run_serving
    steal0, total0 = cpu_ticks()
    result = runner(workload, seed, seconds, workdir, traced)
    steal1, total1 = cpu_ticks()
    result["notes"]["cpu_steal_frac"] = round((steal1 - steal0) / max(total1 - total0, 1), 4)
    if traced:
        result["layers"] = {name: result["layers"].get(name, 0.0) for name in PER_LAYER}
    return result


def benchmark(name: str, workload, seed: int, seconds: float, trace: bool,
              out_dir: Path) -> dict:
    """Run one workload, print its report, write its result files, and
    return the final JSON line's object."""
    work = out_dir / f"work-{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plain = run_workload(workload, seed, seconds, work / "plain", traced=False)
        traced = (run_workload(workload, seed, seconds, work / "traced", traced=True)
                  if trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = [plain] + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    stem = out_dir / f"{name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": name,
        "environment": environment(seed),
        "seconds": seconds,
        "untraced": {k: v for k, v in plain.items() if k != "trace"},
        "failures": failures,
    }
    _print_end_to_end(name, plain, attempted, failures)
    if traced is not None:
        overhead = {m: traced["metrics"][m] - plain["metrics"][m]
                    for m in {**END_TO_END, **REPORTED}}
        record["traced"] = {k: v for k, v in traced.items() if k != "trace"}
        record["tracing_overhead"] = overhead
        _print_layers(name, traced["layers"], overhead)
        trace_path = stem.with_suffix(".trace.json")
        trace_path.write_text(json.dumps(traced["trace"]))
        print(f"chrome trace: {trace_path}")
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2))
    print(f"env: {json.dumps(record['environment'])}")

    if trace:
        metrics = {m: {"value": traced["layers"][m], "unit": PER_LAYER[m][0]} for m in PER_LAYER}
    else:
        metrics = {m: {"value": plain["metrics"][m], "unit": END_TO_END[m]} for m in END_TO_END}
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def _print_end_to_end(name: str, result: dict, attempted: int, failures: list) -> None:
    samples = result["samples"]
    windows = samples.get("windows")
    counts = {"setup_s": f"n={samples['setup_s']} set-ups",
              "latency_p50_ms": f"n={samples['latency']}",
              "latency_p99_ms": f"n={samples['latency']}"}
    if windows:
        for metric in ("patterns_per_s", "latency_p50_ms", "latency_p99_ms",
                       "cpu_ms_per_kpattern"):
            counts[metric] = ", ".join(filter(None, [counts.get(metric), f"{windows} windows"]))
    print(f"== {name}: end-to-end (untraced) ==")
    for metric, unit in {**END_TO_END, **REPORTED}.items():
        notes = [counts.get(metric)] + (["reported, not gated"] if metric in REPORTED else [])
        suffix = "  ({})".format(", ".join(filter(None, notes))) if any(notes) else ""
        print(f"  {metric:<22s} {result['metrics'][metric]:14.4f} {unit}{suffix}")
    print(f"  failed_frac            {len(failures) / max(attempted, 1):14.4f}"
          f"  ({len(failures)} of {attempted} operations, all passes)")
    for failure in failures[:10]:
        print(f"  FAILED: {failure}")
    for key, value in result["notes"].items():
        print(f"  note {key}: {value}")


def _print_layers(name: str, layers: dict, overhead: dict) -> None:
    print(f"== {name}: per layer (traced) ==")
    for metric, (unit, moves) in PER_LAYER.items():
        print(f"  {metric:<34s} {layers[metric]:14.4f} {unit:<5s} -> {moves}")
    print(f"== {name}: tracing overhead (traced - untraced) ==")
    units = {**END_TO_END, **REPORTED}
    for metric, delta in overhead.items():
        print(f"  {metric:<22s} {delta:+14.4f} {units[metric]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A SIGTERM unwinds through the finally blocks that stop server children;
    # orphaned grandchildren are re-parented here and reaped before exit.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    become_subreaper()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    try:
        result = benchmark(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), out_dir)
    finally:
        reap_descendants()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
