"""The benchmark's four workloads.

A seed defines a few independent input sets ("parts") per workload.  Each
one is built (``build``), run (``run``) and checked (``check``) on its own;
the modeled metrics (simulated A100 latency and throughput, numeric error,
KV storage) pool the records of all parts, so every percentile has as many
samples as all parts together.  Inputs are a pure function of ``(seed,
part)``, so two runs of one part must agree exactly.

* ``chat_fleet`` — open-loop Poisson chat traffic on four unified
  replicas.  Engine iteration, the cost model and the allocator do the
  host work; prefix, migrate, recover and kernel code do none.  The rate
  sits below the fleet's saturation knee, so queueing shows in the TTFT
  tail without an unbounded backlog.
* ``prefix_zipf`` — Zipf-shared multi-tenant prompts on three replicas
  with prefix pools and the affinity router: prefix-pool reads, inserts,
  copy-on-write and eviction beside the same engine as ``chat_fleet``.
* ``disagg_faults`` — a 2P+2D disaggregated fleet with chunked prefill,
  crash/stall/link faults, corrupted handoffs and checkpointed warm
  restart: the only workload that runs migrate, recover and fault code.
* ``kernel_numeric`` — the bit-exact FlashQ/SAS prefill and decode
  kernels on outlier-shaped Q/K/V; no simulator code runs.  Its request is
  priced through the serving engine for the modeled metrics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attention.reference import reference_attention
from repro.cluster import ClusterConfig, ClusterSimulator, DisaggConfig, FaultConfig
from repro.cluster.metrics import ClusterMetrics, summarize_cluster
from repro.core import decode as core_decode
from repro.core import prefill as core_prefill
from repro.core.config import TurboConfig
from repro.core.headwise import assign_head_bits, select_two_bit_heads
from repro.models.config import MODEL_PRESETS, ModelConfig
from repro.models.synthetic_stats import synthetic_qkv
from repro.perf.attention_costs import METHODS
from repro.perf.e2e import ModelGeometry
from repro.prefix import PrefixCacheConfig
from repro.recover import RecoverConfig
from repro.serving import Request, ServingEngine, poisson_workload, zipf_shared_workload
from repro.serving.engine import EngineConfig
from repro.serving.metrics import SLO

__all__ = ["WORKLOADS", "Workload", "derive_seeds", "modeled", "check", "part_numerics", "numerics"]

#: 7B-class geometry: 32 layers, 32 query heads, 8 KV heads of 128.
MODEL_7B = ModelGeometry(
    n_layers=32, n_heads=32, n_kv_heads=8, head_dim=128, d_ff=11008, vocab_size=32000
)
PHI3_MEDIUM = ModelGeometry.phi3_medium()
BENCH_SLO = SLO(ttft_s=15.0, tpot_s=0.25)


def derive_seeds(seed: int, stream: str, part: int, n: int) -> List[int]:
    """``n`` independent seeds for one named input stream of one part."""
    key = int.from_bytes(hashlib.blake2b(stream.encode(), digest_size=4).digest(), "little")
    return [int(s) for s in np.random.SeedSequence([seed, key, part]).generate_state(n)]


def _qkv_model(model: ModelGeometry, outliers: str) -> ModelConfig:
    """Synthetic-statistics config with ``model``'s attention shape."""
    return ModelConfig(
        name=f"bench_{outliers}",
        n_layers=model.n_layers,
        n_heads=model.n_heads,
        n_kv_heads=model.n_kv_heads,
        head_dim=model.head_dim,
        d_ff=model.d_ff,
        outliers=MODEL_PRESETS[outliers].outliers,
    )


# -- kernels: the kernel workload and the fleets' accuracy probes ------------


@dataclass
class KernelCase:
    q: np.ndarray  # (q_heads, prompt + steps, head_dim); k/v carry kv_heads
    k: np.ndarray
    v: np.ndarray
    prompt: int
    head_bits: np.ndarray
    config: TurboConfig

    @property
    def steps(self) -> int:
        return self.q.shape[1] - self.prompt


@dataclass
class KernelOutput:
    prefill: np.ndarray  # (q_heads, prompt, head_dim)
    decode: np.ndarray  # (steps, q_heads, head_dim)
    kv_bits_per_value: float


def kernel_case(
    qkv_model: ModelConfig, prompt: int, steps: int, n_two_bit: int, rng: np.random.Generator
) -> KernelCase:
    x = synthetic_qkv(qkv_model, prompt + steps, rng)
    mask = select_two_bit_heads(x.k[:, :prompt], x.v[:, :prompt], n_two_bit)
    return KernelCase(x.q, x.k, x.v, prompt, assign_head_bits(mask), TurboConfig())


def run_kernels(case: KernelCase) -> KernelOutput:
    """Prefill the prompt, then decode every remaining token in one call.

    Calls go through the kernel modules so the traced run sees them."""
    p = case.prompt
    res = core_prefill.turbo_prefill(
        case.q[:, :p], case.k[:, :p], case.v[:, :p], case.config, case.head_bits
    )
    dec = core_decode.turbo_decode_steps(
        np.moveaxis(case.q[:, p:], 1, 0),
        np.moveaxis(case.k[:, p:], 1, 0),
        np.moveaxis(case.v[:, p:], 1, 0),
        res.cache,
        res.buffer,
        case.config,
    )
    return KernelOutput(res.output, dec, res.cache.effective_bits_per_value())


def _error_terms(case: KernelCase, out: KernelOutput) -> Tuple[float, float]:
    """``(||turbo - ref||^2, ||ref||^2)`` against float64
    ``reference_attention`` over every decode output and 64 evenly spaced
    prefill rows."""
    p, hq, hkv = case.prompt, case.q.shape[0], case.k.shape[0]
    g = hq // hkv
    rows = np.unique(np.linspace(0, p - 1, min(p, 64)).astype(np.int64))
    positions = np.concatenate([rows, np.arange(p, p + case.steps)])
    got = np.concatenate([out.prefill[:, rows], np.moveaxis(out.decode, 0, 1)], axis=1)
    mask = np.where(np.arange(p + case.steps)[None, :] > positions[:, None], -np.inf, 0.0)
    num = den = 0.0
    for h in range(hkv):  # one KV group at a time bounds the score matrix
        sl = slice(h * g, (h + 1) * g)
        k = np.broadcast_to(case.k[h], (g,) + case.k.shape[1:])
        v = np.broadcast_to(case.v[h], (g,) + case.v.shape[1:])
        ref = reference_attention(case.q[sl][:, positions], k, v, mask=mask)
        num += float(((got[sl] - ref) ** 2).sum())
        den += float((ref**2).sum())
    return num, den


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# -- workload plumbing --------------------------------------------------------


@dataclass
class Result:
    """One part's run, as the checks and metrics read it."""

    submitted: int
    #: ``ClusterMetrics`` of the fleets; ``ServingMetrics`` of the kernel
    #: workload's priced request (the fields read here are shared).
    metrics: object
    #: Every request record the run terminated, for pooling across parts.
    records: list
    #: The finished simulator; dropped once checked, kept for tracing.
    sim: Optional[ClusterSimulator] = None
    kernel: Optional[Tuple[KernelCase, KernelOutput]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, int, bool], object]
    run: Callable[[object], Result]
    #: Ceiling on ``attn_rel_err``, set from measured values with margin.
    err_ceiling: float
    #: Independent input sets per seed; the modeled metrics pool them all.
    parts: int = 3
    #: Accuracy probe ``(seed, part, smoke) -> (case, output)`` for the
    #: fleets, which model attention rather than compute it: the real
    #: kernels run on the fleet's geometry and KV format.  ``None`` when
    #: the workload computes attention itself.
    probe: Optional[Callable[[int, int, bool], tuple]] = None


def _run_sim(built) -> Result:
    sim, requests = built
    metrics = sim.run(requests)
    records = [r for rep in sim.replicas for r in rep.records.values()]
    records += list(sim.failed.values()) + list(sim.rejected.values())
    return Result(len(requests), metrics, records, sim=sim)


def _probe(stream: str, model: ModelGeometry, outliers: str, n_two_bit: int):
    qkv_model = _qkv_model(model, outliers)

    def probe(seed: int, part: int, smoke: bool):
        (inputs,) = derive_seeds(seed, stream, part, 1)
        prompt, steps = (96, 16) if smoke else (256, 64)
        case = kernel_case(qkv_model, prompt, steps, n_two_bit, np.random.default_rng(inputs))
        return case, run_kernels(case)

    return probe


def _build_chat(seed: int, part: int, smoke: bool):
    (arrivals,) = derive_seeds(seed, "chat_fleet", part, 1)
    requests = poisson_workload(
        300 if smoke else 12_000, 44.0, (512, 1536), (64, 256),
        rng=np.random.default_rng(arrivals), n_sessions=64,
    )
    config = ClusterConfig(n_replicas=4, policy="least_kv", slo=BENCH_SLO)
    return ClusterSimulator(MODEL_7B, METHODS["turbo_mixed"], config), requests


def _build_prefix(seed: int, part: int, smoke: bool):
    (arrivals,) = derive_seeds(seed, "prefix_zipf", part, 1)
    requests = zipf_shared_workload(
        300 if smoke else 1_750, 40.0, n_tenants=2000, zipf_s=1.6,
        rng=np.random.default_rng(arrivals),
    )
    config = ClusterConfig(
        n_replicas=3, policy="affinity", slo=BENCH_SLO,
        engine=EngineConfig(prefix=PrefixCacheConfig()),
    )
    return ClusterSimulator(PHI3_MEDIUM, METHODS["turbo4"], config), requests


def _build_disagg(seed: int, part: int, smoke: bool):
    arrivals, fault_seed, recover_seed = derive_seeds(seed, "disagg_faults", part, 3)
    # Under one request per second the prefill pool's TTFT tail is set by
    # prompt length and fault recovery rather than by arrival bursts.
    requests = poisson_workload(
        40 if smoke else 600, 1.0, (2048, 6144), (128, 512),
        rng=np.random.default_rng(arrivals),
    )
    faults = FaultConfig(
        seed=fault_seed,
        crash_rate=0.005,
        stall_rate=0.005,
        crash_downtime_s=0.5,
        stall_duration_s=2.0,
        request_timeout_s=90.0,
        migration_corrupt_rate=0.12,
        link_stall_rate=0.02,
        # Crash re-routes count against this budget; exhausting it takes
        # the local-decode fallback, which trips a known engine IndexError
        # (see README.md).
        max_migration_retries=12,
    )
    config = ClusterConfig(
        policy="least_kv",
        slo=BENCH_SLO,
        engine=EngineConfig(prefill_chunk=256),
        faults=faults,
        disagg=DisaggConfig(n_prefill=2, n_decode=2),
        recover=RecoverConfig(snapshot_interval_s=3.0, corrupt_rate=0.2, seed=recover_seed),
    )
    return ClusterSimulator(PHI3_MEDIUM, METHODS["turbo4"], config), requests


_KERNEL_QKV = _qkv_model(MODEL_7B, "llama3ish")


def _build_kernel(seed: int, part: int, smoke: bool) -> KernelCase:
    (inputs,) = derive_seeds(seed, "kernel_numeric", part, 1)
    rng = np.random.default_rng(inputs)
    # The prompt length varies a little with the seed, so the request's
    # modeled latency is a measured quantity rather than a constant, while
    # the host work (quadratic in the prompt) stays within ~3%.
    prompt = (192 if smoke else 1024) - int(rng.integers(0, 16))
    return kernel_case(_KERNEL_QKV, prompt, 32 if smoke else 256, MODEL_7B.n_kv_heads // 2, rng)


def _run_kernel(case: KernelCase) -> Result:
    out = run_kernels(case)
    # Price the computed request on the modeled A100 at the KV width the
    # real cache stored.
    method = METHODS["turbo_mixed"].with_bits(out.kv_bits_per_value)
    engine = ServingEngine(MODEL_7B, method, EngineConfig(slo=BENCH_SLO))
    metrics = engine.run(
        [Request(request_id=0, arrival_time=0.0, prompt_len=case.prompt, gen_len=case.steps)]
    )
    return Result(1, metrics, list(engine.records.values()), kernel=(case, out))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "chat_fleet", _build_chat, _run_sim, err_ceiling=0.45, parts=5,
            probe=_probe("chat_fleet.probe", MODEL_7B, "llama3ish", MODEL_7B.n_kv_heads // 2),
        ),
        # The hottest tenant carries ~40% of the traffic on one replica,
        # so each part's load hinges on a few prefix draws: many small
        # parts average them out.
        Workload(
            "prefix_zipf", _build_prefix, _run_sim, err_ceiling=0.15, parts=10,
            probe=_probe("prefix_zipf.probe", PHI3_MEDIUM, "phi3ish", 0),
        ),
        Workload(
            "disagg_faults", _build_disagg, _run_sim, err_ceiling=0.15,
            probe=_probe("disagg_faults.probe", PHI3_MEDIUM, "phi3ish", 0),
        ),
        Workload("kernel_numeric", _build_kernel, _run_kernel, err_ceiling=0.45, parts=5),
    )
}


# -- modeled metrics and checks -----------------------------------------------


def pooled(results: Sequence[Result]) -> ClusterMetrics:
    """One summary over the records of every part (makespans add up)."""
    return summarize_cluster(
        {i: r.records for i, r in enumerate(results)},
        slo=BENCH_SLO,
        makespan=sum(r.metrics.makespan for r in results),
    )


def modeled(results: Sequence[Result]) -> Dict[str, float]:
    """Simulated-A100 metrics over the pooled parts."""
    m = pooled(results)
    return {
        "ttft_p50_s": m.p50_ttft,
        "ttft_p99_s": m.p99_ttft,
        "tpot_p50_s": m.p50_tpot,
        "tpot_p99_s": m.p99_tpot,
        "throughput_tok_s": m.throughput_tokens_per_s,
        "slo_attainment": m.slo_attainment,
        "served_frac": m.completed / sum(r.submitted for r in results),
    }


def fingerprint(result: Result) -> tuple:
    """What must repeat exactly across runs of the same part."""
    values = tuple(sorted(modeled([result]).items()))
    if result.kernel is not None:
        _case, out = result.kernel
        values += (_digest(out.prefill, out.decode),)
    return values


def check(result: Result) -> List[str]:
    """Named failures of one part's correctness checks (empty = correct)."""
    failures: List[str] = []
    m = result.metrics
    terminated = m.completed + m.failed + m.rejected + m.shed
    if terminated != m.total or m.total != result.submitted:
        failures.append(
            f"conservation: completed+failed+rejected+shed={terminated}, "
            f"total={m.total}, submitted={result.submitted}"
        )
    if result.sim is not None:
        for replica in result.sim.replicas:
            alloc = replica.engine.allocator
            if alloc.used_blocks != alloc.shared_blocks:
                failures.append(
                    f"allocator: replica {replica.replica_id} still holds "
                    f"{alloc.used_blocks - alloc.shared_blocks} private blocks"
                )
            pool = replica.engine.prefix_pool
            if pool is not None:
                failures.extend(
                    f"prefix_pool: replica {replica.replica_id}: {p}"
                    for p in pool.check_invariants()
                )
    return failures


@dataclass(frozen=True)
class PartNumerics:
    err_sq: float  # ||turbo - ref||^2
    ref_sq: float  # ||ref||^2
    kv_bits_per_value: float
    finite: bool


def part_numerics(workload: Workload, seed: int, part: int, smoke: bool, result: Result) -> PartNumerics:
    """Error terms of one part: its own kernel output, or the fleet's probe."""
    case, out = result.kernel if result.kernel is not None else workload.probe(seed, part, smoke)
    finite = bool(np.isfinite(out.prefill).all() and np.isfinite(out.decode).all())
    err_sq, ref_sq = _error_terms(case, out) if finite else (float("nan"), float("nan"))
    return PartNumerics(err_sq, ref_sq, out.kv_bits_per_value, finite)


def numerics(workload: Workload, parts: Sequence[PartNumerics]):
    """``(attn_rel_err, kv_bits_per_value, failures)`` pooled over the parts."""
    if not all(p.finite for p in parts):
        return float("nan"), float("nan"), ["numerics: non-finite attention output"]
    err = float(np.sqrt(sum(p.err_sq for p in parts) / sum(p.ref_sq for p in parts)))
    kv_bits = float(np.mean([p.kv_bits_per_value for p in parts]))
    failures = []
    if not err <= workload.err_ceiling:
        failures.append(f"numerics: attn_rel_err {err:.4f} above ceiling {workload.err_ceiling}")
    return err, kv_bits, failures
