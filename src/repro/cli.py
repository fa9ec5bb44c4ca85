"""Command-line interface.

    python -m repro info
    python -m repro eval    --model phi3ish --task gsm8k_like --method turbo_mixed
    python -m repro perf    --batch 4 --context 8192 --phase decode
    python -m repro serve   --rate 6 --requests 60 --method turbo_mixed
    python -m repro cluster --replicas 4 --policy least_kv --method turbo_mixed
    python -m repro cluster --faults --crash-rate 0.05 --timeout 30 --autoscale
    python -m repro cluster --faults --policy least_kv --trace run.jsonl
    python -m repro trace-diff run_a.jsonl run_b.jsonl
    python -m repro guard   --quick
    python -m repro overload --quick
    python -m repro prefix  --quick
    python -m repro harness table2 fig6 --quick
    python -m repro speed   --check --quick
    python -m repro profile cluster

Everything the CLI prints is produced by the same library calls the tests
and benchmarks exercise; the CLI adds no logic of its own.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

import repro
from repro.cluster import (
    SLO,
    AutoscalerConfig,
    ClusterConfig,
    ClusterSimulator,
    DisaggConfig,
    FaultConfig,
    ROUTER_POLICIES,
)
from repro.harness.common import accuracy_method_registry, render_table
from repro.models.config import MODEL_PRESETS
from repro.perf.attention_costs import METHODS, attention_latency
from repro.perf.e2e import ModelGeometry
from repro.perf.memory import paper_memory_model
from repro.recover import RecoverConfig
from repro.serving import ServingEngine, poisson_workload
from repro.sim import JsonlTraceSink, trace_file_digest
from repro.sim.replay import trace_diff_main
from repro.tasks import TASK_PRESETS, task_for_model
from repro.tasks.recall import evaluate_backend

__all__ = ["main", "build_parser"]


def _cmd_info(args: argparse.Namespace) -> int:
    del args
    print(f"repro {repro.__version__} — TurboAttention (MLSys 2025) reproduction")
    print(f"models : {', '.join(sorted(MODEL_PRESETS))}")
    print(f"tasks  : {', '.join(sorted(TASK_PRESETS))}")
    print(f"accuracy methods : {', '.join(sorted(accuracy_method_registry()))}")
    print(f"perf methods     : {', '.join(sorted(METHODS))}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    registry = accuracy_method_registry()
    methods = [args.method] if args.method != "all" else list(registry)
    task, model = task_for_model(args.task, args.model)
    rows = []
    for name in methods:
        res = evaluate_backend(registry[name], task, model)
        rows.append([name, f"{res.accuracy * 100:.1f}", f"{res.effective_bits:.2f}"])
    print(render_table(
        ["method", "accuracy %", "bits/value"], rows,
        title=f"{args.task} on {args.model}",
    ))
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    model = ModelGeometry.phi3_medium()
    mem = paper_memory_model(model)
    prefill = args.phase == "prefill"
    geom = model.attention_geometry(
        args.batch, args.context if prefill else 1, args.context
    )
    base = attention_latency(METHODS["fp16"], geom, prefill)
    rows = []
    for name, spec in METHODS.items():
        fits = mem.fits(spec, args.batch, args.context)
        lat = attention_latency(spec, geom, prefill)
        rows.append([
            name,
            f"{lat * 1e3:.3f}",
            f"{base / lat:.2f}x",
            "yes" if fits else "OOM",
        ])
    print(render_table(
        ["method", f"{args.phase} latency (ms)", "vs fp16", "fits"],
        rows,
        title=f"Attention {args.phase}, batch={args.batch}, context={args.context} "
              f"(Phi3-medium, A100-80GB)",
    ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    model = ModelGeometry.phi3_medium()
    workload = poisson_workload(
        args.requests, arrival_rate=args.rate, rng=np.random.default_rng(args.seed)
    )
    methods = [args.method] if args.method != "all" else list(METHODS)
    if args.trace and len(methods) > 1:
        print("--trace records one run: pick a single --method", file=sys.stderr)
        return 2
    rows = []
    for name in methods:
        sink = JsonlTraceSink(args.trace) if args.trace else None
        m = ServingEngine(model, METHODS[name], trace=sink).run(workload)
        if sink is not None:
            sink.close()
        rows.append([
            name, m.completed, f"{m.throughput_tokens_per_s:.0f}",
            f"{m.mean_ttft:.2f}", f"{m.p95_ttft:.2f}", m.preemptions,
        ])
    print(render_table(
        ["method", "done", "tok/s", "mean TTFT", "p95 TTFT", "preempt"], rows,
        title=f"Serving {args.requests} requests @ {args.rate}/s",
    ))
    if args.trace:
        print(f"trace: {args.trace} (digest {trace_file_digest(args.trace)})")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    model = ModelGeometry.phi3_medium()
    workload = poisson_workload(
        args.requests,
        arrival_rate=args.rate,
        rng=np.random.default_rng(args.seed),
        n_sessions=args.sessions,
    )
    slo = SLO(ttft_s=args.slo_ttft, tpot_s=args.slo_tpot)
    autoscaler = None
    if args.autoscale:
        autoscaler = AutoscalerConfig(
            min_replicas=args.replicas, max_replicas=args.max_replicas
        )
    faults = None
    if args.faults:
        faults = FaultConfig(
            seed=args.fault_seed,
            crash_rate=args.crash_rate,
            stall_rate=args.stall_rate,
            crash_downtime_s=args.downtime,
            stall_slowdown=args.stall_slowdown,
            request_timeout_s=args.timeout,
            max_retries=args.max_retries,
            migration_drop_rate=args.migration_drop_rate,
            migration_corrupt_rate=args.migration_corrupt_rate,
            link_stall_rate=args.link_stall_rate,
        )
    recover = None
    if args.recover:
        recover = RecoverConfig(
            snapshot_interval_s=args.snapshot_interval,
            keep_epochs=args.keep_epochs,
            corrupt_rate=args.snapshot_corrupt_rate,
        )
    disagg = None
    if args.disagg:
        n_prefill = args.prefill
        n_decode = args.replicas - n_prefill
        if n_prefill < 1 or n_decode < 1:
            print("--disagg needs --replicas > --prefill >= 1", file=sys.stderr)
            return 2
        disagg = DisaggConfig(n_prefill=n_prefill, n_decode=n_decode)
    policies = list(ROUTER_POLICIES) if args.policy == "all" else [args.policy]
    if args.trace and len(policies) > 1:
        print("--trace records one run: pick a single --policy", file=sys.stderr)
        return 2
    rows = []
    for policy in policies:
        config = ClusterConfig(
            n_replicas=args.replicas,
            tp=args.tp,
            policy=policy,
            slo=slo,
            autoscaler=autoscaler,
            faults=faults,
            disagg=disagg,
            recover=recover,
        )
        sink = JsonlTraceSink(args.trace) if args.trace else None
        m = ClusterSimulator(
            model, METHODS[args.method], config, trace=sink
        ).run(workload)
        if sink is not None:
            sink.close()
        row = [
            policy,
            m.completed,
            f"{m.goodput_rps:.2f}",
            f"{m.slo_attainment * 100:.0f}%",
            f"{m.p50_ttft:.2f}", f"{m.p95_ttft:.2f}", f"{m.p99_ttft:.2f}",
            f"{m.p50_tpot * 1e3:.0f}", f"{m.p95_tpot * 1e3:.0f}",
            f"{m.p99_tpot * 1e3:.0f}",
            f"{m.final_replicas}/{m.peak_replicas}",
            m.preemptions,
        ]
        if faults is not None:
            row += [
                m.failed, m.retries, m.crashes + m.stalls + m.timeouts,
                m.wasted_prefill_tokens, f"{m.availability * 100:.0f}%",
            ]
        if recover is not None:
            row += [
                m.snapshots_taken, m.warm_restarts, m.recovered_requests,
                m.restored_prefill_tokens + m.restored_decode_tokens,
            ]
        rows.append(row)
    headers = [
        "policy", "done", "goodput/s", "SLO att",
        "p50 TTFT", "p95 TTFT", "p99 TTFT",
        "p50 TPOT ms", "p95 TPOT ms", "p99 TPOT ms",
        "replicas", "preempt",
    ]
    if faults is not None:
        headers += ["failed", "retries", "faults", "re-prefill tok", "avail"]
    if recover is not None:
        headers += ["snaps", "warm", "recovered", "restored tok"]
    title = (
        f"Cluster: {args.requests} requests @ {args.rate}/s, "
        f"{args.replicas} x tp={args.tp} replicas, method={args.method}, "
        f"SLO ttft<={args.slo_ttft}s tpot<={args.slo_tpot}s"
    )
    if faults is not None:
        title += (
            f", faults(seed={faults.seed}, crash={faults.crash_rate}/s, "
            f"stall={faults.stall_rate}/s)"
        )
    print(render_table(headers, rows, title=title))
    if args.trace:
        print(f"trace: {args.trace} (digest {trace_file_digest(args.trace)})")
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    return trace_diff_main(args.a, args.b, context=args.context)


def _cmd_guard(args: argparse.Namespace) -> int:
    from repro.harness.guard import main as guard_main

    guard_main(quick=args.quick)
    return 0


def _cmd_overload(args: argparse.Namespace) -> int:
    from repro.harness.overload import main as overload_main

    overload_main(quick=args.quick)
    return 0


def _cmd_disagg(args: argparse.Namespace) -> int:
    from repro.harness.disagg import main as disagg_main

    disagg_main(quick=args.quick)
    return 0


def _cmd_prefix(args: argparse.Namespace) -> int:
    from repro.harness.prefix import main as prefix_main

    prefix_main(quick=args.quick)
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.harness.recover import main as recover_main

    recover_main(quick=args.quick)
    return 0


def _cmd_speed(args: argparse.Namespace) -> int:
    import json

    from repro.perf import speed

    if args.check and not args.baseline.is_file():
        print(f"perf gate: baseline {args.baseline} not found; generate it with "
              f"`python -m repro speed --quick > {args.baseline}`")
        return 1
    results = speed.run_speed_suite(quick=args.quick)
    if args.check:
        baseline = json.loads(args.baseline.read_text())
        rows, failures = speed.compare_to_baseline(
            results, baseline, tolerance=args.tolerance
        )
        scale = results["calibration_s"] / baseline["calibration_s"]
        print(speed.format_table(rows, scale))
        if failures:
            print(f"perf gate FAILED: {', '.join(failures)} regressed "
                  f"beyond {args.tolerance:.0%}")
            return 1
        print("perf gate OK")
        return 0
    print(json.dumps(results, indent=2))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats

    from repro.perf import speed

    scenarios = {
        "prefill": lambda: speed.bench_prefill(repeats=1),
        "decode": lambda: speed.bench_decode(repeats=1),
        "engine": speed.bench_engine,
        "cluster": speed.bench_cluster,
    }
    profiler = cProfile.Profile()
    profiler.enable()
    scenarios[args.scenario]()
    profiler.disable()
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(args.top)
    return 0


def _cmd_harness(args: argparse.Namespace) -> int:
    from repro.harness.run_all import main as run_all_main

    argv = []
    if args.quick:
        argv.append("--quick")
    if args.names:
        argv += ["--only", *args.names]
    return run_all_main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="versions, presets, method registries").set_defaults(
        fn=_cmd_info
    )

    p_eval = sub.add_parser("eval", help="accuracy on a recall task")
    p_eval.add_argument("--model", default="phi3ish", choices=sorted(MODEL_PRESETS))
    p_eval.add_argument("--task", default="gsm8k_like", choices=sorted(TASK_PRESETS))
    p_eval.add_argument(
        "--method", default="all",
        choices=["all", *sorted(accuracy_method_registry())],
    )
    p_eval.set_defaults(fn=_cmd_eval)

    p_perf = sub.add_parser("perf", help="attention latency from the cost model")
    p_perf.add_argument("--batch", type=int, default=4)
    p_perf.add_argument("--context", type=int, default=8192)
    p_perf.add_argument("--phase", default="decode", choices=["prefill", "decode"])
    p_perf.set_defaults(fn=_cmd_perf)

    p_serve = sub.add_parser("serve", help="serving simulation")
    p_serve.add_argument("--rate", type=float, default=6.0)
    p_serve.add_argument("--requests", type=int, default=60)
    p_serve.add_argument("--method", default="all", choices=["all", *sorted(METHODS)])
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--trace", default=None, metavar="PATH",
                         help="write a JSONL event trace of the run "
                              "(.gz compresses; requires a single method)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_cluster = sub.add_parser(
        "cluster", help="multi-replica cluster serving simulation"
    )
    p_cluster.add_argument("--replicas", type=int, default=2)
    p_cluster.add_argument("--tp", type=int, default=1,
                           help="tensor-parallel degree per replica")
    p_cluster.add_argument(
        "--policy", default="all", choices=["all", *ROUTER_POLICIES]
    )
    p_cluster.add_argument("--method", default="turbo_mixed", choices=sorted(METHODS))
    p_cluster.add_argument("--rate", type=float, default=8.0)
    p_cluster.add_argument("--requests", type=int, default=80)
    p_cluster.add_argument("--sessions", type=int, default=16)
    p_cluster.add_argument("--seed", type=int, default=0)
    p_cluster.add_argument("--slo-ttft", type=float, default=15.0,
                           help="TTFT deadline (s)")
    p_cluster.add_argument("--slo-tpot", type=float, default=0.25,
                           help="TPOT deadline (s)")
    p_cluster.add_argument("--autoscale", action="store_true",
                           help="enable the queue-depth autoscaler")
    p_cluster.add_argument("--max-replicas", type=int, default=8)
    p_cluster.add_argument("--faults", action="store_true",
                           help="enable seeded fault injection")
    p_cluster.add_argument("--fault-seed", type=int, default=0)
    p_cluster.add_argument("--crash-rate", type=float, default=0.05,
                           help="replica crashes per simulated second")
    p_cluster.add_argument("--stall-rate", type=float, default=0.05,
                           help="transient stalls per simulated second")
    p_cluster.add_argument("--stall-slowdown", type=float, default=4.0)
    p_cluster.add_argument("--downtime", type=float, default=30.0,
                           help="crash downtime before restart (s)")
    p_cluster.add_argument("--timeout", type=float, default=None,
                           help="per-dispatch TTFT deadline (s)")
    p_cluster.add_argument("--max-retries", type=int, default=3,
                           help="re-dispatch budget before a request FAILs")
    p_cluster.add_argument("--disagg", action="store_true",
                           help="split the fleet into prefill/decode pools "
                                "with KV migration between them")
    p_cluster.add_argument("--prefill", type=int, default=1,
                           help="prefill-pool size under --disagg (decode "
                                "pool gets the remaining replicas)")
    p_cluster.add_argument("--migration-drop-rate", type=float, default=0.0,
                           help="probability a KV transfer is dropped "
                                "(--faults + --disagg)")
    p_cluster.add_argument("--migration-corrupt-rate", type=float, default=0.0,
                           help="probability a KV transfer arrives corrupted "
                                "(--faults + --disagg)")
    p_cluster.add_argument("--recover", action="store_true",
                           help="crash-consistent checkpointing + warm "
                                "restart instead of cold retry")
    p_cluster.add_argument("--snapshot-interval", type=float, default=5.0,
                           help="seconds between per-replica snapshots "
                                "(--recover)")
    p_cluster.add_argument("--snapshot-corrupt-rate", type=float, default=0.0,
                           help="probability a written snapshot epoch is "
                                "corrupted at rest (--recover)")
    p_cluster.add_argument("--keep-epochs", type=int, default=2,
                           help="snapshot epochs retained per replica "
                                "(--recover)")
    p_cluster.add_argument("--link-stall-rate", type=float, default=0.0,
                           help="fleet link-congestion windows per second "
                                "(--faults + --disagg)")
    p_cluster.add_argument("--trace", default=None, metavar="PATH",
                           help="write a JSONL event trace of the run "
                                "(.gz compresses; requires a single policy)")
    p_cluster.set_defaults(fn=_cmd_cluster)

    p_td = sub.add_parser(
        "trace-diff",
        help="compare two JSONL event traces; exit 0 iff byte-identical, "
             "else print the first divergent event with context",
    )
    p_td.add_argument("a", help="first trace (.jsonl or .jsonl.gz)")
    p_td.add_argument("b", help="second trace")
    p_td.add_argument("--context", type=int, default=3,
                      help="shared records to print before the divergence")
    p_td.set_defaults(fn=_cmd_trace_diff)

    p_g = sub.add_parser(
        "guard",
        help="numerics-guard demo: chaos persistence matrix + precision "
             "escalation vs the analytic attention bound",
    )
    p_g.add_argument("--quick", action="store_true")
    p_g.set_defaults(fn=_cmd_guard)

    p_o = sub.add_parser(
        "overload",
        help="overload-protection demo: admission control, deadline "
             "shedding, and precision brownout on a surge workload",
    )
    p_o.add_argument("--quick", action="store_true")
    p_o.set_defaults(fn=_cmd_overload)

    p_d = sub.add_parser(
        "disagg",
        help="disaggregated prefill/decode demo: fault-tolerant KV "
             "migration, salvage recovery, and the compression-makes-"
             "it-viable comparison against a unified fleet",
    )
    p_d.add_argument("--quick", action="store_true")
    p_d.set_defaults(fn=_cmd_disagg)

    p_r = sub.add_parser(
        "recover",
        help="checkpointing & warm-restart demo: crash-consistent "
             "snapshots, WAL replay, the salvage recovery ladder, and "
             "graceful drain / rolling restart fleet ops",
    )
    p_r.add_argument("--quick", action="store_true")
    p_r.set_defaults(fn=_cmd_recover)

    p_p = sub.add_parser(
        "prefix",
        help="prefix-cache & multi-tenancy demo: content-addressed KV "
             "sharing, tenant fair share, and locality routing under "
             "Zipf traffic",
    )
    p_p.add_argument("--quick", action="store_true")
    p_p.set_defaults(fn=_cmd_prefix)

    p_sp = sub.add_parser(
        "speed",
        help="run the pinned speed scenarios (kernels, engine, cluster); "
             "--check gates against the committed baseline with machine "
             "normalization",
    )
    p_sp.add_argument("--quick", action="store_true", help="CI-sized scenarios")
    p_sp.add_argument(
        "--check", action="store_true",
        help="compare against --baseline; nonzero exit on regression",
    )
    p_sp.add_argument(
        "--baseline", type=Path, default=Path("BENCH_speed_baseline.json"),
        help="baseline JSON for --check (default: repo-root committed file)",
    )
    p_sp.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional regression after normalization (default 0.25)",
    )
    p_sp.set_defaults(fn=_cmd_speed)

    p_pr = sub.add_parser(
        "profile",
        help="cProfile one pinned speed scenario, top cumulative functions",
    )
    p_pr.add_argument(
        "scenario", choices=["prefill", "decode", "engine", "cluster"]
    )
    p_pr.add_argument("--top", type=int, default=20, help="rows to print")
    p_pr.set_defaults(fn=_cmd_profile)

    p_h = sub.add_parser("harness", help="run table/figure regenerators")
    p_h.add_argument("names", nargs="*", help="subset (default: all)")
    p_h.add_argument("--quick", action="store_true")
    p_h.set_defaults(fn=_cmd_harness)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
