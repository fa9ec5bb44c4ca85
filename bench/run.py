"""Run the repository benchmark.

    python3 bench/run.py                         # every workload, each in a fresh process
    python3 bench/run.py --workload chat_fleet --seed 3 --seconds 15
    python3 bench/run.py --trace                 # per-layer spans instead of end-to-end metrics

One workload run: set-up timing, a small warm-up, then timed repeats until
``--seconds`` have passed.  Repeats cycle through the seed's independent
input sets ("parts", see ``workloads.py``), each built afresh and checked,
and run at least until part 0 has run twice.  ``run_s`` is the median over
parts of each part's median repeat time; modeled metrics pool the parts'
records.  With ``--trace 1`` one more
repeat of part 0 runs with every layer boundary patched (see ``trace.py``)
and the per-layer metrics are reported instead.  The last line of standard
output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``;
the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()

# One BLAS thread: on a small shared host, threaded BLAS made the kernel
# workload no faster and its timing noisier.  Must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _import_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        sys.exit(f"bench: cannot import the repro package from {ROOT / 'src'}: {exc}")
    return workloads


def _finite(x: float) -> float:
    return 0.0 if x is None or math.isnan(x) else float(x)


def _percentile_note(n: int, q: int) -> str:
    return f"p{q} of {n} finished ({n - math.ceil(n * q / 100)} beyond)"


def layer_metrics(recorder, result, overhead: float) -> dict:
    """Per-layer metrics of the traced repeat: span counts and self times
    from the recorder, layer outcomes from the run's own metrics."""
    summary = recorder.summary()

    def calls(prefix: str) -> int:
        return sum(v["calls"] for k, v in summary.items() if k.startswith(prefix))

    def self_s(prefix: str) -> float:
        return sum(v["self_s"] for k, v in summary.items() if k.startswith(prefix))

    counts, m = recorder.counts, result.metrics
    pools = [
        r.engine.prefix_pool for r in (result.sim.replicas if result.sim else ())
        if r.engine.prefix_pool is not None
    ]
    decode_calls = calls("engine.decode")
    decode_tokens = counts["core.decode_tokens"]
    return {
        "engine.step_calls": calls("engine.step"),
        "engine.step_self_s": self_s("engine.step"),
        "engine.decode_calls": decode_calls,
        "engine.decode_tokens_per_call": counts["engine.decode_tokens"] / max(decode_calls, 1),
        "engine.decode_self_s": self_s("engine.decode"),
        "engine.batch_mean": counts["engine.batch_sum"] / max(counts["engine.iterations"], 1),
        "engine.queue_delay_p99_s": _finite(m.p99_queue_delay),
        "engine.preemptions": m.preemptions,
        "perf.step_latency_calls": calls("perf.step_latency"),
        "perf.step_latency_self_s": self_s("perf.step_latency"),
        "perf.batch_latency_calls": calls("perf.batch_latency"),
        "perf.batch_latency_self_s": self_s("perf.batch_latency"),
        "alloc.calls": calls("alloc."),
        "alloc.self_s": self_s("alloc."),
        "alloc.util_peak": counts["alloc.util_peak"],
        "prefix.calls": calls("prefix."),
        "prefix.self_s": self_s("prefix."),
        "prefix.hit_ratio": _finite(m.prefix_hit_ratio),
        "prefix.cow_copies": m.cow_copies,
        "prefix.evicted_blocks": sum(p.evicted_blocks for p in pools),
        "cluster.route_calls": calls("cluster.route"),
        "cluster.route_self_s": self_s("cluster.route"),
        "cluster.run_self_s": self_s("cluster.run"),
        "sim.events": counts["sim.events"],
        "sim.pop_self_s": self_s("sim."),
        "migrate.payload_calls": calls("migrate.build_payload"),
        "migrate.self_s": self_s("migrate."),
        "migrate.migrations": m.migrations,
        "migrate.bytes": m.migrated_bytes,
        "migrate.salvage_recomputed_tokens": m.salvage_recomputed_tokens,
        "recover.snapshots": getattr(m, "snapshots_taken", 0),
        "recover.snapshot_self_s": self_s("recover.take_snapshot"),
        "recover.verify_self_s": self_s("recover.verify_snapshot"),
        "recover.snapshot_bytes": getattr(m, "snapshot_bytes", 0.0),
        "recover.warm_restarts": getattr(m, "warm_restarts", 0),
        "recover.wasted_tokens": m.wasted_prefill_tokens + m.wasted_decode_tokens,
        "metrics.self_s": self_s("metrics."),
        "core.prefill_self_s": self_s("core.prefill"),
        "core.decode_self_s": self_s("core.decode"),
        "core.decode_us_per_token": (
            summary["core.decode"]["total_s"] / decode_tokens * 1e6 if decode_tokens else 0.0
        ),
        "quant.int_matmul_calls": calls("quant.int_matmul"),
        "quant.int_matmul_self_s": self_s("quant.int_matmul"),
        "quant.int_ops": counts["quant.int_ops"],
        "quant.pq_compress_self_s": self_s("quant.pq_compress"),
        "sas.calls": calls("sas."),
        "sas.self_s": self_s("sas."),
        "tracing.overhead_frac": overhead,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    wl = _import_workloads()
    import_s = time.perf_counter() - _T0
    workload = wl.WORKLOADS[name]

    # Warm-up on the small size: lazy tables, caches and first-call paths.
    workload.run(workload.build(seed, 0, True))

    # Repeats cycle through the seed's parts; the first revisit of part 0
    # checks that identical inputs give identical modeled results.
    builds, runs, failed, failures = [], [], set(), []
    parts, prints, numeric = {}, {}, {}
    start = time.perf_counter()
    while len(runs) <= workload.parts or time.perf_counter() - start < seconds:
        part = len(runs) % workload.parts
        t0 = time.perf_counter()
        built = workload.build(seed, part, smoke)
        t1 = time.perf_counter()
        result = workload.run(built)
        t2 = time.perf_counter()
        builds.append(t1 - t0)
        runs.append(t2 - t1)
        problems = wl.check(result)
        result.sim = None
        fp = wl.fingerprint(result)
        if prints.setdefault(part, fp) != fp:
            problems.append(f"determinism: part {part} modeled differently than its first run")
        if part not in parts:
            parts[part] = result
            if result.kernel is not None:
                # Keep only the error terms, not the part's Q/K/V arrays.
                numeric[part] = wl.part_numerics(workload, seed, part, smoke, result)
                result.kernel = None
        if problems:
            failed.add(len(runs))
            failures += [f"repeat {len(runs)}: {p}" for p in problems]
        if len(runs) == workload.parts + 1:
            # Read after the fixed first cycle: a faster host fits more
            # repeats, and later ones run while every part's results are held.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Parts differ in work: one value per part keeps the result independent
    # of how many repeats fit, and the median shrugs off one slow repeat.
    run_s = statistics.median(
        statistics.median(runs[p :: workload.parts]) for p in range(workload.parts)
    )

    results = [parts[p] for p in range(workload.parts)]
    for p in range(workload.parts):  # the fleets' probes, after the timed repeats
        if p not in numeric:
            numeric[p] = wl.part_numerics(workload, seed, p, smoke, results[p])
    err, kv_bits, numeric_failures = wl.numerics(
        workload, [numeric[p] for p in range(workload.parts)]
    )
    if numeric_failures:
        failed.update(range(1, len(runs) + 1))
        failures += numeric_failures

    modeled = wl.modeled(results)
    n_done = sum(r.metrics.completed for r in results)
    submitted = sum(r.submitted for r in results)
    e2e = {
        "setup_s": (import_s + statistics.median(builds),
                    f"imports {import_s:.3f} s + median of {len(builds)} builds"),
        "run_s": (run_s, f"median over {workload.parts} parts of {len(runs)} repeats"),
        "peak_rss_mb": (peak_rss_mb, f"ru_maxrss after the first {workload.parts + 1} repeats"),
        "ttft_p50_s": (modeled["ttft_p50_s"], _percentile_note(n_done, 50)),
        "ttft_p99_s": (modeled["ttft_p99_s"], _percentile_note(n_done, 99)),
        "tpot_p50_s": (modeled["tpot_p50_s"], _percentile_note(n_done, 50)),
        "tpot_p99_s": (modeled["tpot_p99_s"], _percentile_note(n_done, 99)),
        "throughput_tok_s": (modeled["throughput_tok_s"], "output tokens / makespan"),
        "slo_attainment": (modeled["slo_attainment"],
                           f"of {submitted} submitted; 15 s TTFT, 0.25 s TPOT"),
        "served_frac": (modeled["served_frac"], f"completed of {submitted} submitted"),
        "attn_rel_err": (err, "vs float64 reference attention"),
        "kv_bits_per_value": (kv_bits, "QuantizedKVCache, metadata included"),
    }
    attempted = len(runs)
    print(f"== {name}  seed={seed}  repeats={len(runs)} over {workload.parts} parts  trace={int(trace)}")
    for metric, (value, note) in e2e.items():
        print(f"  {metric:<20} {value:>14.6g} {UNITS[metric]:<10} {note}")
    reported = {k: v for k, (v, _note) in e2e.items()}

    if trace:
        from trace import SpanRecorder

        recorder = SpanRecorder()
        built = workload.build(seed, 0, smoke)
        with recorder.installed():
            t0 = time.perf_counter()
            traced = workload.run(built)
            traced_s = time.perf_counter() - t0
        attempted += 1
        if wl.fingerprint(traced) != prints[0]:
            failed.add(attempted)
            failures.append("determinism: traced run of part 0 modeled differently")
        # Untraced run_s covers every part; the traced repeat is part 0.
        untraced_part0 = statistics.median(runs[:: workload.parts])
        reported = layer_metrics(recorder, traced, traced_s / untraced_part0 - 1.0)
        out = BENCH / "out" / f"trace_{name}.json"
        recorder.write(out, {"workload": name, "seed": seed, "run_s": traced_s})
        print(f"-- per-layer (traced repeat {traced_s:.3f} s, spans in {out.relative_to(ROOT)})")
        for metric, value in reported.items():
            print(f"  {metric:<34} {value:>14.6g} {UNITS[metric]}")

    expected = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    if list(reported) != expected:
        raise RuntimeError("reported metrics are out of sync with BENCHMARK.json")
    print("checks: " + ("all passed" if not failures else "FAILED"))
    for f in failures:
        print(f"  {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in reported.items()},
    }))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one at a time."""
    results, status = {}, 0
    for name in [w["name"] for w in SPEC["workloads"]]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])["metrics"]
    if results:
        names = list(results)
        print("\n" + f"{'metric':<34}" + "".join(f"{n:>16}" for n in names))
        for metric in next(iter(results.values())):
            print(f"{metric:<34}" + "".join(
                f"{results[n][metric]['value']:>16.6g}" for n in names))
    print("all workloads passed" if status == 0 else "some workloads FAILED")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks the plumbing, measures nothing")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
