"""One cost model, evaluated on scalars or arrays.

``decode_step_latency_batch`` is ``tp_step_latency`` called with an array
``kv_len``; nothing re-derives the formulas.  These tests pin what the
serving engine's bulk decode relies on: every lane of the array call is
bit-identical to the scalar call, and a bulk-advanced engine is
indistinguishable from one that takes every step on its own.
"""

import numpy as np
import pytest

from repro.perf.attention_costs import METHODS, AttentionGeometry
from repro.perf.e2e import ModelGeometry
from repro.perf.gpu import A100_80GB, H100_80GB
from repro.perf.tp import decode_step_latency_batch, tp_step_latency
from repro.serving import EngineConfig, ServingEngine, poisson_workload
from repro.sim import ListTraceSink, trace_digest

MODELS = {
    "phi3_medium": ModelGeometry.phi3_medium(),
    "7b": ModelGeometry(
        n_layers=32, n_heads=32, n_kv_heads=8, head_dim=128, d_ff=11008, vocab_size=32000
    ),
}
#: Short and long contexts, powers of two and their neighbours.
KV_LENS = np.unique(
    np.concatenate(
        [np.arange(1, 9), [127, 128, 129, 1000, 4095, 4096, 4097, 32768, 131071]]
    )
).astype(np.int64)


class TestArrayLanesMatchScalarCalls:
    @pytest.mark.parametrize("gpu", [A100_80GB, H100_80GB], ids=lambda g: g.name)
    @pytest.mark.parametrize("tp", [1, 2, 4, 8])
    @pytest.mark.parametrize("method", list(METHODS))
    @pytest.mark.parametrize("model", list(MODELS))
    def test_bitwise(self, model, method, tp, gpu):
        geom, spec = MODELS[model], METHODS[method]
        for batch in (1, 3, 16, 64):
            lanes = decode_step_latency_batch(spec, geom, batch, KV_LENS, tp=tp, gpu=gpu)
            scalars = [
                tp_step_latency(spec, geom, batch, 1, int(kv), prefill=False, tp=tp, gpu=gpu)
                for kv in KV_LENS
            ]
            assert lanes.dtype == np.float64
            assert lanes.tolist() == scalars

    def test_scalar_call_returns_python_float(self):
        lat = tp_step_latency(METHODS["turbo4"], MODELS["7b"], 4, 1, 1000, prefill=False)
        assert type(lat) is float

    def test_array_prefill_matches_scalar(self):
        # The array path is not decode-only: causal prefill shapes too.
        spec, geom = METHODS["gear4"], MODELS["phi3_medium"]
        kv = np.array([512, 1024, 2048], dtype=np.int64)
        lanes = tp_step_latency(spec, geom, 1, 512, kv, prefill=True, tp=2)
        assert lanes.tolist() == [
            tp_step_latency(spec, geom, 1, 512, int(k), prefill=True, tp=2) for k in kv
        ]


class TestArrayGeometryValidation:
    def test_zero_entry_raises(self):
        with pytest.raises(ValueError, match="positive"):
            AttentionGeometry(
                batch=1, n_heads=8, n_kv_heads=2, head_dim=64, q_len=1,
                kv_len=np.array([3, 0, 5], dtype=np.int64),
            )

    def test_batch_call_rejects_zero_context(self):
        with pytest.raises(ValueError, match="positive"):
            decode_step_latency_batch(METHODS["fp16"], MODELS["7b"], 2, [4, 0, 9])

    def test_negative_scalar_still_raises(self):
        with pytest.raises(ValueError, match="positive"):
            AttentionGeometry(batch=1, n_heads=8, n_kv_heads=2, head_dim=64, q_len=1, kv_len=-1)


def _engine_run(method, tp):
    """Seeded closed-loop run in the long-decode regime bulk decode targets.

    Returns ``(engine, metrics, trace records, bulk steps taken)``.
    """
    requests = poisson_workload(
        24, arrival_rate=2.0, prompt_range=(128, 1024), gen_range=(96, 320),
        rng=np.random.default_rng(31), n_sessions=8,
    )
    sink = ListTraceSink()
    engine = ServingEngine(MODELS["7b"], METHODS[method], EngineConfig(tp=tp), trace=sink)
    bulk = []
    real = engine.decode_steps

    def counting(t_limit=None):
        k = real(t_limit)
        bulk.append(k)
        return k

    engine.decode_steps = counting
    metrics = engine.run(requests)
    return engine, metrics, sink.records, sum(bulk)


class TestBulkDecodeMatchesScalarSteps:
    @pytest.mark.parametrize("tp", [1, 2])
    @pytest.mark.parametrize("method", ["fp16", "turbo4", "gear4"])
    def test_records_clock_and_trace_identical(self, method, tp, monkeypatch):
        bulk_engine, bulk_metrics, bulk_trace, bulk_steps = _engine_run(method, tp)
        # Without the bulk path every iteration is a scalar ``step``.
        monkeypatch.setattr(ServingEngine, "decode_steps", lambda self, t_limit=None: 0)
        loop_engine, loop_metrics, loop_trace, loop_steps = _engine_run(method, tp)

        assert bulk_steps > 0, "workload never took the bulk path"
        assert loop_steps == 0
        assert bulk_engine.clock == loop_engine.clock
        assert bulk_engine.iterations == loop_engine.iterations
        assert bulk_engine.records == loop_engine.records
        assert bulk_metrics == loop_metrics
        assert trace_digest(bulk_trace) == trace_digest(loop_trace)
