"""Pinned wall-clock speed trajectory for the kernels and simulators.

Accuracy experiments pin their *numbers* with golden files; this module
pins the *speed* the repo produces them at.  Five scenarios cover the
layers the hot loops live in:

* ``prefill`` / ``decode`` — the attention kernels themselves (one long
  prompt; one long homogeneous decode stretch through the bulk API);
* ``engine`` — a single :class:`~repro.serving.ServingEngine` closed
  loop, measured in simulated requests per wall-second;
* ``cluster`` — a three-replica :class:`~repro.cluster.ClusterSimulator`
  in the long-generation decode regime where the batched decode path
  dominates;
* ``recover`` — a two-replica fleet with crashes and frequent
  :class:`~repro.recover.RecoverConfig` snapshots, where the checkpoint
  path (serialized KV payload, checksums, digest) and warm restarts run.
  It is reported but not gated: it has no committed baseline yet.

Wall-clock numbers are machine-dependent, so the regression gate never
compares raw seconds across machines: every run also times a fixed
NumPy probe (:func:`calibrate`) and the gate scales the committed
baseline by the probe ratio before applying its tolerance.  The
committed baseline (``BENCH_speed_baseline.json``) carries the probe
time of the machine that wrote it; CI fails when a quick-mode metric
regresses more than 25% beyond what the probe ratio predicts.

:data:`PRE_PR` records the same scenarios measured on the pre-PR
per-tile / per-span / per-step loop implementation (same machine, same
seeds) — the denominator of the speedups ``benchmarks/test_speed.py``
asserts and writes to ``BENCH_speed.json``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.cluster import ClusterConfig, ClusterSimulator, FaultConfig
from repro.core.config import TurboConfig
from repro.core.decode import turbo_decode_steps
from repro.core.prefill import turbo_prefill
from repro.perf.attention_costs import METHODS
from repro.perf.e2e import ModelGeometry
from repro.recover import RecoverConfig
from repro.serving import EngineConfig, ServingEngine, poisson_workload

__all__ = [
    "GATED_METRICS",
    "PRE_PR",
    "bench_cluster",
    "bench_decode",
    "bench_engine",
    "bench_prefill",
    "bench_recover",
    "calibrate",
    "compare_to_baseline",
    "format_table",
    "run_speed_suite",
]

MODEL = ModelGeometry(
    n_layers=32, n_heads=32, n_kv_heads=8, head_dim=128,
    d_ff=11008, vocab_size=32000,
)

#: The same scenarios measured at the pre-PR loop implementation
#: (commit 62d9bec: per-tile prefill, per-span decode, per-step engine
#: advance), on the machine whose probe time is recorded alongside.
#: These are *historical* denominators, never re-measured.
PRE_PR = {
    "calibration_s": 0.060,
    "prefill_s": 0.5906,
    "decode_s": 1.1208,
    "engine_rps": 3383.0,
    "cluster_rps": 263.7,
}

#: Metrics the CI gate checks, with their improvement direction.
GATED_METRICS: Tuple[Tuple[str, str], ...] = (
    ("prefill_s", "lower"),
    ("decode_s", "lower"),
    ("engine_rps", "higher"),
    ("cluster_rps", "higher"),
)


def _best_of(fn: Callable[[], None], repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate(repeats: int = 3) -> float:
    """Machine-speed probe: a fixed float64 GEMM + exp workload.

    The probe exercises the two primitives every scenario bottlenecks on
    (BLAS matmul, elementwise transcendentals), so its wall time tracks
    how the scenarios themselves scale across machines.
    """
    rng = np.random.default_rng(1234)
    a = rng.standard_normal((512, 512))
    b = rng.standard_normal((512, 512))

    def probe() -> None:
        acc = a
        for _ in range(8):
            acc = a @ b
            np.exp(-np.abs(acc) / np.abs(acc).max())

    return _best_of(probe, repeats)


def bench_prefill(quick: bool = False, repeats: int = 3) -> Dict[str, float]:
    """One long-prompt prefill through :func:`turbo_prefill`."""
    n = 512 if quick else 1024
    hq, hkv, d = 8, 2, 64
    rng = np.random.default_rng(0)
    q = rng.standard_normal((hq, n, d))
    k = rng.standard_normal((hkv, n, d))
    v = rng.standard_normal((hkv, n, d))
    cfg = TurboConfig()
    bits = np.full(hkv, 4, dtype=np.int32)
    wall = _best_of(lambda: turbo_prefill(q, k, v, cfg, bits), repeats)
    return {"prefill_s": wall, "prefill_us_per_token": wall / n * 1e6}


def bench_decode(quick: bool = False, repeats: int = 3) -> Dict[str, float]:
    """One homogeneous decode stretch through :func:`turbo_decode_steps`."""
    n = 512 if quick else 1024
    steps = 64 if quick else 192
    hq, hkv, d = 8, 2, 64
    rng = np.random.default_rng(0)
    cfg = TurboConfig()
    q = rng.standard_normal((hq, n, d))
    k = rng.standard_normal((hkv, n, d))
    v = rng.standard_normal((hkv, n, d))
    bits = np.full(hkv, 4, dtype=np.int32)
    res = turbo_prefill(q, k, v, cfg, bits)
    qs = rng.standard_normal((steps, hq, d))
    ks = rng.standard_normal((steps, hkv, d))
    vs = rng.standard_normal((steps, hkv, d))
    best = float("inf")
    for _ in range(max(1, repeats)):
        # Fresh cache/buffer copies each round: decode appends state.
        r = turbo_prefill(q, k, v, cfg, bits)
        t0 = time.perf_counter()
        turbo_decode_steps(qs, ks, vs, r.cache, r.buffer, cfg)
        best = min(best, time.perf_counter() - t0)
    del res
    return {"decode_s": best, "decode_ms_per_token": best / steps * 1e3}


def bench_engine(quick: bool = False, repeats: int = 5) -> Dict[str, float]:
    """Single-engine closed loop: simulated requests per wall-second."""
    n_req = 120 if quick else 400
    requests = poisson_workload(
        n_req, arrival_rate=40.0, prompt_range=(128, 1024),
        gen_range=(32, 160), rng=np.random.default_rng(11), n_sessions=16,
    )
    best = float("inf")
    for _ in range(max(1, repeats)):
        # Engines are single-run objects: a fresh one per round.
        engine = ServingEngine(MODEL, METHODS["turbo_mixed"])
        t0 = time.perf_counter()
        metrics = engine.run(requests)
        best = min(best, time.perf_counter() - t0)
        total = metrics.completed + metrics.failed + metrics.rejected + metrics.shed
        assert total == n_req
    return {"engine_wall_s": best, "engine_rps": n_req / best}


def bench_cluster(quick: bool = False, repeats: int = 5) -> Dict[str, float]:
    """Three-replica fleet in the long-generation decode regime."""
    n_req = 80 if quick else 300
    requests = poisson_workload(
        n_req, arrival_rate=4.0, prompt_range=(128, 1024),
        gen_range=(512, 1536), rng=np.random.default_rng(7), n_sessions=16,
    )
    best = float("inf")
    for _ in range(max(1, repeats)):
        sim = ClusterSimulator(
            MODEL, METHODS["turbo_mixed"],
            ClusterConfig(n_replicas=3, policy="least_kv"),
        )
        t0 = time.perf_counter()
        metrics = sim.run(requests)
        best = min(best, time.perf_counter() - t0)
        total = metrics.completed + metrics.failed + metrics.rejected + metrics.shed
        assert total == n_req
    return {"cluster_wall_s": best, "cluster_rps": n_req / best}


def bench_recover(quick: bool = False, repeats: int = 3) -> Dict[str, float]:
    """Two-replica fleet with crashes and a snapshot every 0.5 s per replica."""
    n_req = 60 if quick else 200
    requests = poisson_workload(
        n_req, arrival_rate=2.0, prompt_range=(512, 2048),
        gen_range=(64, 256), rng=np.random.default_rng(5), n_sessions=16,
    )
    config = ClusterConfig(
        n_replicas=2, policy="least_kv", engine=EngineConfig(prefill_chunk=256),
        faults=FaultConfig(
            seed=7, crash_rate=0.02, crash_downtime_s=2.0, max_retries=5
        ),
        recover=RecoverConfig(snapshot_interval_s=0.5, corrupt_rate=0.2, seed=0),
    )
    best = float("inf")
    for _ in range(max(1, repeats)):
        sim = ClusterSimulator(MODEL, METHODS["turbo4"], config)
        t0 = time.perf_counter()
        metrics = sim.run(requests)
        best = min(best, time.perf_counter() - t0)
        total = metrics.completed + metrics.failed + metrics.rejected + metrics.shed
        assert total == n_req
    return {"recover_wall_s": best, "recover_snapshots": metrics.snapshots_taken}


def run_speed_suite(quick: bool = False) -> Dict[str, float]:
    """Run every scenario; returns one flat metric dict (plus the probe)."""
    out: Dict[str, float] = {"quick": bool(quick), "calibration_s": calibrate()}
    out.update(bench_prefill(quick))
    out.update(bench_decode(quick))
    out.update(bench_engine(quick))
    out.update(bench_cluster(quick))
    out.update(bench_recover(quick))
    return out


def compare_to_baseline(
    current: Dict[str, float],
    baseline: Dict[str, float],
    tolerance: float = 0.25,
) -> Tuple[List[dict], List[str]]:
    """Gate ``current`` against ``baseline`` with machine normalization.

    The probe ratio ``scale = current.calibration_s /
    baseline.calibration_s`` predicts how the baseline would measure on
    this machine; a metric fails when it lands more than ``tolerance``
    beyond that prediction in the regression direction.  Returns the
    per-metric comparison rows and the list of failing metric names.
    """
    scale = current["calibration_s"] / baseline["calibration_s"]
    rows: List[dict] = []
    failures: List[str] = []
    for name, direction in GATED_METRICS:
        base = baseline[name]
        cur = current[name]
        if direction == "lower":
            expected = base * scale
            ok = cur <= expected * (1.0 + tolerance)
            ratio = cur / expected
        else:
            expected = base / scale
            ok = cur >= expected / (1.0 + tolerance)
            ratio = expected / cur
        if not ok:
            failures.append(name)
        rows.append(
            {
                "metric": name,
                "direction": direction,
                "baseline": base,
                "expected": expected,
                "current": cur,
                "regression": ratio,
                "ok": ok,
            }
        )
    return rows, failures


def format_table(rows: List[dict], scale: float) -> str:
    """Render comparison rows as the before/after table CI prints."""
    lines = [
        f"machine probe ratio: {scale:.3f}x baseline",
        f"{'metric':<14} {'baseline':>10} {'expected':>10} "
        f"{'current':>10} {'regress':>8}  status",
    ]
    for r in rows:
        lines.append(
            f"{r['metric']:<14} {r['baseline']:>10.4g} {r['expected']:>10.4g} "
            f"{r['current']:>10.4g} {r['regression']:>7.2f}x  "
            f"{'OK' if r['ok'] else 'FAIL'}"
        )
    return "\n".join(lines)
