"""Bit-exactness of the vectorized kernels against loop oracles.

The PR that batched the tile/span iteration promised *zero* numeric
drift: every fast path must produce byte-identical floats to the naive
per-tile / per-span loop it replaced.  These tests pin that promise with
``np.array_equal`` (no tolerances) across the axes that select different
code paths: guard on/off, KV storage widths, GQA grouping, SAS on/off,
ragged tile shapes, more or fewer keys than queries, decode past buffer
flushes and over cache blocks of two lengths, the int32 bail-out from
the shared INT8 core to each kernel's loop, and the bulk decode API vs
the scalar step loop.
"""

import numpy as np
import pytest

from repro.core import decode as core_decode
from repro.core import prefill as core_prefill
from repro.core.config import TurboConfig
from repro.core.decode import _gather_spans, turbo_decode_step, turbo_decode_steps
from repro.core.prefill import turbo_prefill
from repro.guard import GuardConfig
from repro.quant.integer_gemm import int_matmul

from tests._reference_kernels import (
    naive_int_matmul,
    reference_decode_attend,
    reference_prefill_attention,
)


def _qkv(rng, hq, hkv, n, d, n_keys=None):
    n_keys = n if n_keys is None else n_keys
    return (
        rng.standard_normal((hq, n, d)),
        rng.standard_normal((hkv, n_keys, d)),
        rng.standard_normal((hkv, n_keys, d)),
    )


def _count_calls(monkeypatch, module, name="int_matmul"):
    """Count calls of ``module.name`` (a kernel's integer GEMM entry)."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_int_matmul_matches_int64_oracle():
    # The BLAS float64 shortcut must equal the naive integer product for
    # every in-range operand, including the +/-127 extremes.
    rng = np.random.default_rng(3)
    a = rng.integers(-127, 128, size=(7, 33, 65), dtype=np.int8)
    b = rng.integers(-127, 128, size=(7, 65, 41), dtype=np.int8)
    assert np.array_equal(int_matmul(a, b), naive_int_matmul(a, b))


@pytest.mark.parametrize("hq,hkv", [(8, 2), (4, 4)])
@pytest.mark.parametrize("kv_bits", [2, 4, 8])
def test_prefill_matches_loop_oracle(hq, hkv, kv_bits):
    rng = np.random.default_rng(hq * 100 + kv_bits)
    q, k, v = _qkv(rng, hq, hkv, 300, 64)
    config = TurboConfig()
    bits = np.full(hkv, kv_bits, dtype=np.int32)
    res = turbo_prefill(q, k, v, config, bits)
    ref_out, ref_lse = reference_prefill_attention(q, k, v, config)
    assert np.array_equal(res.output, ref_out)
    assert np.array_equal(res.lse, ref_lse)


@pytest.mark.parametrize(
    "kwargs,n_keys,int32_max",
    [
        ({"use_sas": False}, 250, None),
        ({"block_q": 48, "block_k": 56, "buffer_size": 56}, 250, None),
        ({}, 400, None),
        ({}, 90, None),
        ({"block_q": 48, "block_k": 56, "buffer_size": 56}, 250, 0),
        # The 26-token tail flushes through an 8-token buffer.
        ({"block_q": 32, "block_k": 32, "buffer_size": 8}, 250, None),
    ],
    ids=["nosas", "ragged", "more_keys", "fewer_keys", "int32_bailout",
         "tail_over_buffer"],
)
def test_prefill_matches_loop_oracle_variants(kwargs, n_keys, int32_max, monkeypatch):
    # ``int32_max`` patches the shared core's headroom bound so that it
    # bails out and the tile loop runs instead; prefill's own
    # ``int_matmul`` is called only by that loop.
    if int32_max is not None:
        monkeypatch.setattr(core_decode, "_INT32_MAX", int32_max)
    loop_calls = _count_calls(monkeypatch, core_prefill)
    rng = np.random.default_rng(17)
    q, k, v = _qkv(rng, 8, 2, 250, 64, n_keys)
    config = TurboConfig(**kwargs)
    bits = np.full(2, 4, dtype=np.int32)
    res = turbo_prefill(q, k, v, config, bits)
    ref_out, ref_lse = reference_prefill_attention(q, k, v, config)
    assert np.array_equal(res.output, ref_out)
    assert np.array_equal(res.lse, ref_lse)
    assert (len(loop_calls) > 0) == (int32_max is not None)
    if n_keys < 250:
        # Whole query tiles before the first key see nothing at all.
        assert np.isneginf(res.lse).any()


def test_prefill_noncausal_matches_loop_oracle():
    rng = np.random.default_rng(23)
    q, k, v = _qkv(rng, 8, 2, 192, 64)
    config = TurboConfig()
    bits = np.full(2, 4, dtype=np.int32)
    res = turbo_prefill(q, k, v, config, bits, causal=False)
    ref_out, ref_lse = reference_prefill_attention(q, k, v, config, causal=False)
    assert np.array_equal(res.output, ref_out)
    assert np.array_equal(res.lse, ref_lse)


def test_prefill_guard_on_equals_off_on_clean_inputs():
    # The guard path keeps the per-tile loop; on clean inputs (nothing
    # trips) it must agree with the batched guard-free path bit for bit.
    rng = np.random.default_rng(5)
    q, k, v = _qkv(rng, 8, 2, 200, 64)
    config = TurboConfig()
    bits = np.full(2, 4, dtype=np.int32)
    fast = turbo_prefill(q, k, v, config, bits)
    guarded = turbo_prefill(q, k, v, config, bits, guard=GuardConfig())
    assert np.array_equal(fast.output, guarded.output)
    assert np.array_equal(fast.lse, guarded.lse)
    assert guarded.report is not None and guarded.report.fallback_tiles == 0


@pytest.mark.parametrize(
    "hq,hkv,steps,kwargs,int32_max",
    [
        pytest.param(8, 2, 5, {}, None, id="8-2"),
        pytest.param(4, 4, 5, {}, None, id="4-4"),
        # Past two flushes: at a full buffer every span has one length.
        pytest.param(8, 2, 140, {}, None, id="8-2-flushes"),
        # Flushed blocks are shorter than prefill's: two span lengths.
        pytest.param(4, 2, 80, {"buffer_size": 24}, None, id="4-2-short-buffer"),
        pytest.param(4, 2, 30, {"buffer_size": 24}, 0, id="4-2-int32-bailout"),
        # Prefill's 16-token tail outgrows the 12-token buffer and flushes.
        pytest.param(4, 2, 40, {"block_q": 48, "block_k": 48, "buffer_size": 12},
                     None, id="4-2-tail-over-buffer"),
    ],
)
@pytest.mark.parametrize("kv_bits", [2, 4, 8])
def test_decode_step_matches_span_oracle(
    hq, hkv, steps, kwargs, int32_max, kv_bits, monkeypatch
):
    # ``int32_max`` patches the shared core's headroom bound so that it
    # bails out and the span loop runs: two integer GEMMs per span
    # instead of one QK GEMM per step.
    if int32_max is not None:
        monkeypatch.setattr(core_decode, "_INT32_MAX", int32_max)
    rng = np.random.default_rng(hq * 10 + kv_bits)
    q, k, v = _qkv(rng, hq, hkv, 256, 64)
    config = TurboConfig(**kwargs)
    bits = np.full(hkv, kv_bits, dtype=np.int32)
    res = turbo_prefill(q, k, v, config, bits)
    cache, buffer = res.cache, res.buffer
    gemm_calls = _count_calls(monkeypatch, core_decode)
    for _ in range(steps):
        q_t = rng.standard_normal((hq, 64))
        k_t = rng.standard_normal((hkv, 64))
        v_t = rng.standard_normal((hkv, 64))
        del gemm_calls[:]
        out = turbo_decode_step(q_t, k_t, v_t, cache, buffer, config)
        # The step just appended (k_t, v_t); the oracle sees the same
        # spans the kernel attended over.
        spans = _gather_spans(cache, buffer)
        ref_out, _ref_lse = reference_decode_attend(spans, q_t, hkv, config)
        assert np.array_equal(out, ref_out)
        assert len(gemm_calls) == (1 if int32_max is None else 2 * len(spans))
    assert len({block.length for block in cache.blocks}) == (2 if kwargs else 1)


def test_decode_bulk_equals_scalar_loop():
    # The multi-token bulk API must be indistinguishable from calling
    # the scalar step in a loop: same outputs, same end cache/buffer.
    rng = np.random.default_rng(9)
    hq, hkv, d, steps = 8, 2, 64, 150
    q, k, v = _qkv(rng, hq, hkv, 200, d)
    config = TurboConfig()
    bits = np.full(hkv, 4, dtype=np.int32)
    res_a = turbo_prefill(q, k, v, config, bits)
    res_b = turbo_prefill(q, k, v, config, bits)
    qs = rng.standard_normal((steps, hq, d))
    ks = rng.standard_normal((steps, hkv, d))
    vs = rng.standard_normal((steps, hkv, d))

    bulk = turbo_decode_steps(qs, ks, vs, res_a.cache, res_a.buffer, config)
    scalar = np.stack(
        [
            turbo_decode_step(qs[t], ks[t], vs[t], res_b.cache, res_b.buffer, config)
            for t in range(steps)
        ]
    )
    assert np.array_equal(bulk, scalar)
    for (ka, va, ksa, vsa, la), (kb, vb, ksb, vsb, lb) in zip(
        res_a.cache.iter_decompressed(), res_b.cache.iter_decompressed()
    ):
        assert np.array_equal(ka, kb) and np.array_equal(va, vb)
        assert np.array_equal(ksa, ksb) and np.array_equal(vsa, vsb)
        assert la == lb
    assert np.array_equal(res_a.buffer.codes()[0], res_b.buffer.codes()[0])
    assert np.array_equal(res_a.buffer.codes()[1], res_b.buffer.codes()[1])


def test_decode_bulk_guarded_equals_scalar():
    # With a guard the bulk API falls back to per-step screening; the
    # contract (outputs equal the scalar loop) must hold there too.
    rng = np.random.default_rng(13)
    hq, hkv, d, steps = 8, 2, 64, 12
    q, k, v = _qkv(rng, hq, hkv, 128, d)
    config = TurboConfig()
    bits = np.full(hkv, 4, dtype=np.int32)
    res_a = turbo_prefill(q, k, v, config, bits)
    res_b = turbo_prefill(q, k, v, config, bits)
    qs = rng.standard_normal((steps, hq, d))
    ks = rng.standard_normal((steps, hkv, d))
    vs = rng.standard_normal((steps, hkv, d))
    bulk = turbo_decode_steps(
        qs, ks, vs, res_a.cache, res_a.buffer, config, guard=GuardConfig()
    )
    scalar = np.stack(
        [
            turbo_decode_step(
                qs[t], ks[t], vs[t], res_b.cache, res_b.buffer, config,
                guard=GuardConfig(),
            )
            for t in range(steps)
        ]
    )
    assert np.array_equal(bulk, scalar)
