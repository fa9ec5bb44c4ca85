"""Bit-exactness of the vectorized kernels against loop oracles.

Both kernels reach attention through one selector,
``core.decode._attend``: the flattened INT8 core ``_attend_tiles``, or
its loop twin ``_attend_loop`` under a guard, the FP16-MatMul ablation
or a failed int32 bound.  Every path must produce byte-identical floats
to the naive per-tile / per-span loops in ``tests/_reference_kernels.py``.
These tests pin that with ``np.array_equal`` (no tolerances) across the
axes that select different code paths: guard on/off, KV storage widths,
GQA grouping, SAS on/off, ragged tile shapes, more or fewer keys than
queries, decode past buffer flushes and over cache blocks of two
lengths, the int32 bail-out from the core to its loop twin, and the
bulk decode API vs the scalar step loop.  Loop paths no oracle covers (a
guard that fires, FP16 MatMuls, split-K) are pinned by digest, and a
Hypothesis test draws the kernel config space against the oracles.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attention.reference import reference_attention
from repro.core import decode as core_decode
from repro.core.config import TurboConfig
from repro.core.decode import turbo_decode_step, turbo_decode_steps
from repro.core.prefill import turbo_prefill
from repro.core.serialization import state_from_arrays, state_to_arrays
from repro.core.turbo import TurboKVState
from repro.fp.formats import fp16_matmul
from repro.guard import EscalationConfig, GuardConfig, GuardReport, NumericsError
from repro.guard.escalation import PrecisionEscalator
from repro.quant.integer_gemm import code_magnitude, int_matmul
from repro.quant.progressive import LEGAL_BITS

from tests._reference_kernels import (
    assert_same_payload,
    gather_spans,
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
    """Count calls of ``module.name`` (by default the kernels' integer GEMM)."""
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


@pytest.mark.parametrize("k", [1040, 1041])
@pytest.mark.parametrize("sign", [1, -1])
def test_int_matmul_exact_on_both_sides_of_float32_rule(k, sign):
    # All-127 operands put the worst-case accumulator at the product
    # itself: 127 * 127 * 1040 = 16,774,160 fits float32's exact integers
    # (2**24), while 127 * 127 * 1041 = 16,790,289 is odd and past 2**24,
    # so float32 cannot hold it and the product must widen further.
    a = np.full((3, k), sign * 127, dtype=np.int8)
    b = np.full((2, k, 4), 127, dtype=np.int8)
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
    # bails out and its loop twin runs instead.
    if int32_max is not None:
        monkeypatch.setattr(core_decode, "_INT32_MAX", int32_max)
    loop_calls = _count_calls(monkeypatch, core_decode, "_attend_loop")
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
    # A guard runs the loop twin; on clean inputs (nothing trips) it must
    # agree with the flattened core bit for bit.
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
    # bails out and its loop twin runs: two integer GEMMs per span
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
        spans = gather_spans(cache, buffer)
        ref_out, _ref_lse = reference_decode_attend(spans, q_t, hkv, config)
        assert np.array_equal(out, ref_out)
        assert len(gemm_calls) == (1 if int32_max is None else 2 * len(spans))
    assert len({block.length for block in cache.blocks}) == (2 if kwargs else 1)


def _check_resident_rows(monkeypatch, cache, buffer, config):
    """Patch the core so that each decode row it reads is checked against
    the spans ``gather_spans`` builds from the cache and buffer at that
    moment (codes, lengths, scales and code magnitudes), and each query's
    result against the per-span loop oracle over its own step's spans:
    those spans with the last (the buffer) cut to the query's ``tail``
    entry.  Returns the list of checked steps."""
    checked = []
    core = core_decode._attend_tiles

    def checking(q, block_q, row, *args):
        result = core(q, block_q, row, *args)
        tail = args[-1]
        spans = gather_spans(cache, buffer)
        hkv, g, _, d = q.shape
        n, nseg = row.n_keys, len(spans)
        assert row.lens == [span[0].shape[-2] for span in spans]
        assert n == sum(row.lens)
        k_want = np.concatenate([np.swapaxes(span[0], -1, -2) for span in spans], axis=-1)
        assert row.k.dtype == np.int8 and np.array_equal(row.k[:, 0, :, :n], k_want)
        v_want = np.concatenate([span[1] for span in spans], axis=-2)
        assert row.v.dtype == np.float32 and np.array_equal(row.v[:, :n], v_want)
        for scales, i in ((row.k_scales, 2), (row.v_scales, 3)):
            want = np.stack([np.reshape(span[i], (hkv, 1, 1)) for span in spans], axis=-1)
            assert np.array_equal(scales[..., :nseg], want)
        assert row.k_mag == max(code_magnitude(span[0]) for span in spans)
        assert row.v_mag == max(code_magnitude(span[1]) for span in spans)
        k_codes, v_codes, k_scale, v_scale = spans[-1]
        for r, t in enumerate(tail):
            seen = spans[:-1] + [(k_codes[:, :t], v_codes[:, :t], k_scale, v_scale)]
            ref_out, ref_lse = reference_decode_attend(
                seen, q[:, :, r].reshape(hkv * g, d), hkv, config
            )
            assert np.array_equal(result[0][:, :, r].reshape(hkv * g, d), ref_out)
            assert np.array_equal(result[1][:, :, r].reshape(hkv * g), ref_lse)
            checked.append(len(cache.blocks))
        return result

    monkeypatch.setattr(core_decode, "_attend_tiles", checking)
    return checked


@pytest.mark.parametrize(
    "n,steps,kwargs",
    [
        # 3 blocks and a 4-token buffer, then four flushes.
        pytest.param(100, 130, dict(block_q=32, block_k=32, buffer_size=32), id="flushes"),
        # The 16-token tail flushes a 12-token block: two block lengths.
        pytest.param(256, 40, dict(block_q=48, block_k=48, buffer_size=12),
                     id="tail-over-buffer"),
        # A prompt of whole blocks starts the run with an empty buffer.
        pytest.param(64, 33, dict(block_q=32, block_k=32, buffer_size=16),
                     id="empty-buffer"),
    ],
)
def test_resident_decode_row_matches_gathered_spans(n, steps, kwargs, monkeypatch):
    rng = np.random.default_rng(n + steps)
    hq, hkv, d = 4, 2, 16
    q, k, v = _qkv(rng, hq, hkv, n, d)
    config = TurboConfig(**kwargs)
    res = turbo_prefill(q, k, v, config, np.array([2, 4], dtype=np.int32))
    blocks, staged = len(res.cache.blocks), len(res.buffer)
    checked = _check_resident_rows(monkeypatch, res.cache, res.buffer, config)
    qs = rng.standard_normal((steps, hq, d))
    ks, vs = (rng.standard_normal((steps, hkv, d)) for _ in range(2))
    turbo_decode_steps(qs, ks, vs, res.cache, res.buffer, config)
    assert len(checked) == steps
    # A token staged onto a full buffer flushes it first.
    assert checked[-1] - blocks == (staged + steps - 1) // config.buffer_size


@given(
    block=st.sampled_from([8, 16, 24]),
    buffer_size=st.integers(1, 24),
    n=st.integers(1, 48),
    steps=st.integers(1, 30),
    kv_bits=st.sampled_from(LEGAL_BITS),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_resident_decode_row_over_flush_patterns(block, buffer_size, n, steps, kv_bits, seed):
    # From a flush at every step (a one-token buffer) to none at all.
    config = TurboConfig(
        block_q=block, block_k=block, buffer_size=min(buffer_size, block), kv_bits=kv_bits
    )
    rng = np.random.default_rng(seed)
    hq, hkv, d = 2, 1, 8
    q, k, v = _qkv(rng, hq, hkv, n, d)
    res = turbo_prefill(q, k, v, config, np.full(hkv, kv_bits, dtype=np.int32))
    qs = rng.standard_normal((steps, hq, d))
    ks, vs = (rng.standard_normal((steps, hkv, d)) for _ in range(2))
    with pytest.MonkeyPatch.context() as patch:
        checked = _check_resident_rows(patch, res.cache, res.buffer, config)
        turbo_decode_steps(qs, ks, vs, res.cache, res.buffer, config)
    assert len(checked) == steps
    assert res.cache.seq_len + len(res.buffer) == n + steps


def test_resident_decode_row_follows_escalation(monkeypatch):
    # A decode stream whose values drift far past the prefill scale: at
    # its first flush the escalator widens every head from 4 to 8 bits
    # (quality target 8 bits), and later flushes regrow the clamp-hot
    # heads' buffer scale.
    rng = np.random.default_rng(31)
    hkv, d, steps = 4, 16, 96
    config = TurboConfig(block_q=32, block_k=32, buffer_size=16, kv_bits=4)
    q, k, v = _qkv(rng, hkv, hkv, 48, d)
    res = turbo_prefill(q, k, v, config, np.full(hkv, 4, dtype=np.int32))
    escalator = PrecisionEscalator(
        EscalationConfig(ladder=(2, 4, 8), quality_bits=8, patience=1, cooldown=8,
                         clamp_threshold=0.02),
        res.head_bits,
    )
    scale_before = res.buffer.v_scale.copy()
    qs, ks, vs = (rng.standard_normal((steps, hkv, d)) for _ in range(3))
    vs[24:] = 40.0 + 4.0 * vs[24:]
    report = GuardReport()
    checked = _check_resident_rows(monkeypatch, res.cache, res.buffer, config)
    turbo_decode_steps(
        qs, ks, vs, res.cache, res.buffer, config, report=report, escalator=escalator
    )
    assert len(checked) == steps
    assert report.escalations > 0 and report.scale_regrows > 0
    assert (res.cache.head_bits == 8).all()
    assert (res.buffer.v_scale > scale_before).any()
    assert len({tuple(block.k.bits.reshape(-1)) for block in res.cache.blocks}) == 2


def test_core_widens_pv_past_float32_bound():
    # Equal keys and values in one 1,201-key tile make every P code and V
    # code 119, so a PV dot product reaches 119 * 119 * 1201 = 17,007,361:
    # odd and past 2**24, so float32 cannot hold it and the core must run
    # those products in float64, in prefill and in decode alike.
    rng = np.random.default_rng(29)
    hq, hkv, n, d = 2, 1, 1201, 8
    key = rng.standard_normal((hkv, 1, d))
    q = rng.standard_normal((hq, n, d))
    k = np.repeat(key, n, axis=1)
    v = np.full((hkv, n, d), 2.0)
    config = TurboConfig(block_q=64, block_k=n, buffer_size=n, kv_bits=8)
    res = turbo_prefill(q, k, v, config, np.full(hkv, 8, dtype=np.int32), causal=False)
    ref_out, ref_lse = reference_prefill_attention(q, k, v, config, causal=False)
    assert np.array_equal(res.output, ref_out)
    assert np.array_equal(res.lse, ref_lse)
    for _ in range(3):
        q_t = rng.standard_normal((hq, d))
        out = turbo_decode_step(q_t, key[:, 0], np.full((hkv, d), 2.0), res.cache, res.buffer,
                                config)
        ref, _ = reference_decode_attend(gather_spans(res.cache, res.buffer), q_t, hkv, config)
        assert np.array_equal(out, ref)


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
    for (ka, va, ksa, vsa), (kb, vb, ksb, vsb) in zip(
        gather_spans(res_a.cache, res_a.buffer), gather_spans(res_b.cache, res_b.buffer)
    ):
        la, lb = ka.shape[-2], kb.shape[-2]
        assert np.array_equal(ka, kb) and np.array_equal(va, vb)
        assert np.array_equal(ksa, ksb) and np.array_equal(vsa, vsb)
        assert la == lb
    assert np.array_equal(res_a.buffer.codes()[0], res_b.buffer.codes()[0])
    assert np.array_equal(res_a.buffer.codes()[1], res_b.buffer.codes()[1])


def _bulk_and_scalar_cases(config, seed, steps=40):
    # A 250-token prompt leaves a 58-token tail, which a 24-token buffer
    # flushes twice in prefill; 40 steps then flush it twice more.
    rng = np.random.default_rng(seed)
    hq, hkv, d = 4, 2, 32
    q, k, v = _qkv(rng, hq, hkv, 250, d)
    bits = np.full(hkv, 4, dtype=np.int32)
    res_a = turbo_prefill(q, k, v, config, bits)
    res_b = turbo_prefill(q, k, v, config, bits)
    qs = rng.standard_normal((steps, hq, d))
    ks, vs = (rng.standard_normal((steps, hkv, d)) for _ in range(2))
    return res_a, res_b, (qs, ks, vs)


def test_decode_bulk_bailout_matches_span_oracle(monkeypatch):
    # With the core's int32 bound patched to 0 every decode query runs in
    # the loop twin.  A bulk run across flushes must give each step the
    # loop oracle's result over that step's own spans, with two integer
    # GEMMs per (step, span), and equal the per-step loop.
    monkeypatch.setattr(core_decode, "_INT32_MAX", 0)
    config = TurboConfig(buffer_size=24)
    res_a, res_b, (qs, ks, vs) = _bulk_and_scalar_cases(config, 37)
    hkv = res_a.cache.n_heads
    blocks = len(res_b.cache.blocks)
    scalar, refs, want_gemms = [], [], 0
    for t in range(len(qs)):
        scalar.append(turbo_decode_step(qs[t], ks[t], vs[t], res_b.cache, res_b.buffer, config))
        spans = gather_spans(res_b.cache, res_b.buffer)
        refs.append(reference_decode_attend(spans, qs[t], hkv, config)[0])
        want_gemms += 2 * len(spans)
    assert len(res_b.cache.blocks) - blocks == 2
    gemm_calls = _count_calls(monkeypatch, core_decode)
    bulk = turbo_decode_steps(qs, ks, vs, res_a.cache, res_a.buffer, config)
    for t, ref in enumerate(refs):
        assert np.array_equal(bulk[t], ref), t
    assert np.array_equal(bulk, np.stack(scalar))
    assert len(gemm_calls) == want_gemms


def test_decode_bulk_fp16_equals_scalar_loop():
    # The FP16-MatMul ablation runs every decode query in the loop twin's
    # FP16 MatMuls; a bulk run across flushes must equal the per-step
    # loop byte for byte, and leave the same cache.
    config = TurboConfig(buffer_size=24, quantize_matmuls=False)
    res_a, res_b, (qs, ks, vs) = _bulk_and_scalar_cases(config, 47)
    blocks = len(res_b.cache.blocks)
    bulk = turbo_decode_steps(qs, ks, vs, res_a.cache, res_a.buffer, config)
    scalar = np.stack(
        [
            turbo_decode_step(qs[t], ks[t], vs[t], res_b.cache, res_b.buffer, config)
            for t in range(len(qs))
        ]
    )
    assert len(res_b.cache.blocks) - blocks == 2
    assert np.array_equal(bulk, scalar)
    assert_same_payload(
        *(
            state_to_arrays(TurboKVState(cache=r.cache, buffer=r.buffer, head_bits=r.head_bits))
            for r in (res_a, res_b)
        ),
    )


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


def test_guard_fallback_step_is_reference_attention():
    # Under the fallback policy a decode step with a non-finite input
    # reruns as exact softmax attention over the dequantized history:
    # byte for byte ``reference_attention`` of the sanitized query (its
    # non-finite entries zeroed) over the gathered spans' codes times
    # their scales, on any float kernels.  Six poisoned steps (query,
    # key and value by turns) land before and after a buffer flush.
    rng = np.random.default_rng(53)
    hq, hkv, d = 4, 2, 16
    config = TurboConfig(block_q=16, block_k=24, buffer_size=24)
    q, k, v = _qkv(rng, hq, hkv, 75, d)
    res = turbo_prefill(q, k, v, config, np.full(hkv, 4, dtype=np.int32))
    guard = GuardConfig()
    poisoned = []
    for t in range(30):
        q_t = rng.standard_normal((hq, d))
        k_t, v_t = rng.standard_normal((2, hkv, d))
        if t % 5 == 2:
            (q_t, k_t, v_t)[t % 3][t % hkv, t % d] = (np.nan, np.inf)[t % 2]
        report = GuardReport()
        out = turbo_decode_step(
            q_t, k_t, v_t, res.cache, res.buffer, config, guard=guard, report=report
        )
        if not report.fallback_steps:
            continue
        spans = gather_spans(res.cache, res.buffer)
        k_f, v_f = (
            np.concatenate(
                [span[i].astype(np.float64) * np.reshape(span[i + 2], (hkv, 1, 1))
                 for span in spans],
                axis=-2,
            )
            for i in (0, 1)
        )
        q_ref = np.where(np.isfinite(q_t), q_t, 0.0).reshape(hkv, hq // hkv, 1, d)
        want = reference_attention(q_ref, k_f[:, None], v_f[:, None], scale=1.0 / np.sqrt(d))
        assert np.array_equal(out, want.reshape(hq, d))
        poisoned.append((t, len(res.cache.blocks)))
    assert poisoned == [(2, 3), (7, 3), (12, 3), (17, 3), (22, 4), (27, 4)]


# --- Pinned loop paths ------------------------------------------------------
# The guard, the FP16-MatMul ablation and split-K reach the loop twin on
# paths no oracle above covers (a guard that fires, FP16 MatMuls).  Each case
# below pins a blake2b of its outputs (and lse), its nonzero guard
# counters, its ordered guard events and the text of any NumericsError it
# raised; the literals were recorded before the two kernels' loops merged.
# Every poisoned input sits in a distinct tile (16-row query tiles, 24-key
# K/V tiles, GQA group 2): NaN in query tiles 1 and 3, +Inf in key tile 1,
# -Inf in value tile 2.  Decode cases run 40 guarded steps (non-finite
# inputs at steps 3, 17 and 29) over a cache holding a zero and a NaN
# block scale.  ``headroom_fraction=1e-7`` makes every guarded GEMM take
# the chunked path, so overflow events interleave with the screens.
# Output digests hash float64 bytes, so they are compared only where the
# float kernels match the recording platform's; the counters, events and
# errors are compared everywhere.

_LOOP_CONFIG = dict(block_q=16, block_k=24, buffer_size=24)
_DEAD_HEADROOM = 1e-7


def _loop_prompt(n_keys=75, poisoned=True):
    q, k, v = _qkv(np.random.default_rng(41), 4, 2, 75, 16, n_keys)
    if poisoned:
        q[0, 20, 3] = np.nan
        q[3, 50, 7] = np.nan
        k[1, 30, 2] = np.inf
        v[0, 55, 5] = -np.inf
    return q, k, v


def _loop_steps(poisoned=True, steps=40):
    rng = np.random.default_rng(43)
    qs = rng.standard_normal((steps, 4, 16))
    ks = rng.standard_normal((steps, 2, 16))
    vs = rng.standard_normal((steps, 2, 16))
    if poisoned:
        qs[3, 1, 2] = np.nan
        ks[17, 0, 5] = np.nan
        vs[29, 1, 0] = np.inf
    return qs, ks, vs


def _break_block_scales(cache):
    # A restored cache can carry degenerate scales: decode screens them.
    cache.blocks[1].k.float_scale[0] = 0.0
    cache.blocks[2].v.float_scale[1] = np.nan


def _prefill_case(n_keys=75, causal=True, **guard_kw):
    def run(report):
        q, k, v = _loop_prompt(n_keys)
        res = turbo_prefill(
            q, k, v, TurboConfig(**_LOOP_CONFIG), np.full(2, 4, dtype=np.int32),
            causal=causal, guard=GuardConfig(**guard_kw), report=report,
        )
        return [res.output, res.lse]
    return run


def _decode_case(quantize_matmuls=True, guard_prefill=False, **guard_kw):
    def run(report):
        config = TurboConfig(**_LOOP_CONFIG, quantize_matmuls=quantize_matmuls)
        guard = GuardConfig(**guard_kw)
        q, k, v = _loop_prompt(poisoned=guard_prefill)
        res = turbo_prefill(
            q, k, v, config, np.full(2, 4, dtype=np.int32),
            guard=guard if guard_prefill else None, report=report,
        )
        _break_block_scales(res.cache)
        outs = turbo_decode_steps(
            *_loop_steps(), res.cache, res.buffer, config, guard=guard, report=report
        )
        return [res.output, res.lse, outs]
    return run


def _unguarded_fp16_case(split_k=False):
    def run(report):
        config = TurboConfig(**_LOOP_CONFIG, quantize_matmuls=False)
        bits = np.full(2, 4, dtype=np.int32)
        res = turbo_prefill(*_loop_prompt(poisoned=False), config, bits)
        qs, ks, vs = _loop_steps(poisoned=False)
        if split_k:
            outs = [
                core_decode.turbo_decode_step_split_k(
                    qs[t], ks[t], vs[t], res.cache, res.buffer, config, n_splits=1 + t % 3
                )
                for t in range(len(qs))
            ]
        else:
            outs = [turbo_decode_steps(qs, ks, vs, res.cache, res.buffer, config)]
        return [res.output, res.lse, *outs]
    return run


_LOOP_CASES = {
    "prefill-fallback": _prefill_case(),
    "prefill-fallback-fewer-keys": _prefill_case(n_keys=60),
    "prefill-sanitize-noncausal-more-keys": _prefill_case(
        n_keys=100, causal=False, on_nonfinite="sanitize"
    ),
    "prefill-raise": _prefill_case(on_nonfinite="raise"),
    "prefill-fallback-headroom": _prefill_case(headroom_fraction=_DEAD_HEADROOM),
    "prefill-sanitize-noncausal-more-keys-headroom": _prefill_case(
        n_keys=100, causal=False, on_nonfinite="sanitize",
        headroom_fraction=_DEAD_HEADROOM,
    ),
    "prefill-overflow-raise-fewer-keys": _prefill_case(
        n_keys=60, on_overflow="raise", headroom_fraction=_DEAD_HEADROOM
    ),
    "decode-headroom": _decode_case(headroom_fraction=_DEAD_HEADROOM),
    "decode-bad-scale-raise": _decode_case(
        on_bad_scale="raise", headroom_fraction=_DEAD_HEADROOM
    ),
    "fp16": _unguarded_fp16_case(),
    "fp16-guarded": _decode_case(quantize_matmuls=False, guard_prefill=True),
    "fp16-split-k": _unguarded_fp16_case(split_k=True),
}

# case: (outputs digest, nonzero counters, (event count, events digest), error)
LOOP_PINS = {
    "decode-bad-scale-raise": (
        None,
        {"checks_run": 8, "overflow_chunked": 2},
        (2, "8529a2e39d0302d82361c0c5"),
        "numerics guard [bad_scale] tripped at decode span 1 k scale: "
        "1 degenerate scales",
    ),
    "decode-headroom": (
        "ff1d4d9a5ddd4e1183b334bb",
        {
            "checks_run": 784, "nonfinite_tiles": 3, "sanitized_values": 3,
            "bad_scales": 74, "fallback_steps": 3, "overflow_chunked": 332,
        },
        (412, "6bb8f0994499b09f352f6a31"),
        None,
    ),
    "fp16": (
        "43d45692465c21f97722f2d2",
        {},
        (0, "b8e1dda3ac0aa3820ad2990b"),
        None,
    ),
    "fp16-guarded": (
        "8a10072a310f77b2e98ccbab",
        {
            "checks_run": 473, "nonfinite_tiles": 7, "sanitized_values": 7,
            "bad_scales": 74, "fallback_tiles": 4, "fallback_steps": 3,
        },
        (84, "7feba913bc05d6478ad0dd19"),
        None,
    ),
    "fp16-split-k": (
        "56fdbb48454b98f85850f49a",
        {},
        (0, "b8e1dda3ac0aa3820ad2990b"),
        None,
    ),
    "prefill-fallback": (
        "d7c8fc1f0279ad979c549b59",
        {
            "checks_run": 29, "nonfinite_tiles": 4, "sanitized_values": 4,
            "fallback_tiles": 4,
        },
        (4, "3d1adb743611ad6ab269bbc7"),
        None,
    ),
    "prefill-fallback-fewer-keys": (
        "499f148cc4422d5220122f95",
        {
            "checks_run": 23, "nonfinite_tiles": 4, "sanitized_values": 4,
            "fallback_tiles": 4,
        },
        (4, "3d1adb743611ad6ab269bbc7"),
        None,
    ),
    "prefill-fallback-headroom": (
        "d7c8fc1f0279ad979c549b59",
        {
            "checks_run": 29, "nonfinite_tiles": 4, "sanitized_values": 4,
            "fallback_tiles": 4, "overflow_chunked": 8,
        },
        (12, "9212062f2d82b7c4983d9184"),
        None,
    ),
    "prefill-overflow-raise-fewer-keys": (
        None,
        {
            "checks_run": 14, "nonfinite_tiles": 2, "sanitized_values": 2,
            "fallback_tiles": 2,
        },
        (2, "d5bc3f17701c3ee83daeff21"),
        "numerics guard [overflow] tripped at prefill qk q0 k0: "
        "int32 accumulator headroom exhausted",
    ),
    "prefill-raise": (
        None,
        {"checks_run": 5},
        (0, "b8e1dda3ac0aa3820ad2990b"),
        "numerics guard [nonfinite] tripped at prefill k tile 1: 1 non-finite values",
    ),
    "prefill-sanitize-noncausal-more-keys": (
        "3021edc10ba285b871951326",
        {"checks_run": 75, "nonfinite_tiles": 4, "sanitized_values": 4},
        (4, "3d1adb743611ad6ab269bbc7"),
        None,
    ),
    "prefill-sanitize-noncausal-more-keys-headroom": (
        "3021edc10ba285b871951326",
        {
            "checks_run": 75, "nonfinite_tiles": 4, "sanitized_values": 4,
            "overflow_chunked": 50,
        },
        (54, "2cb66c88833f5e78c3a26b87"),
        None,
    ),
}


def _blake(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=12).hexdigest()


def _float_kernels_digest() -> str:
    # The last bits of the loop's outputs depend on float kernels that
    # vary by platform: NumPy's SIMD ``exp``/``log`` and the BLAS float32
    # and float64 GEMMs behind ``fp16_matmul`` and the reference step.
    # Their digest on fixed inputs identifies the recording platform.
    rng = np.random.default_rng(0)
    x = -8 * np.abs(rng.standard_normal(1024))
    a, b = rng.standard_normal((2, 2, 16, 24)), rng.standard_normal((2, 1, 24, 16))
    q, k = rng.standard_normal((2, 2, 1, 16)), rng.standard_normal((2, 1, 16, 99))
    parts = [np.exp(x), np.log(1 - x), fp16_matmul(a, b), fp16_matmul(q, k), q @ k]
    return _blake(b"".join(part.tobytes() for part in parts))


#: ``_float_kernels_digest()`` where the output digests were recorded
#: (x86-64 with AVX-512, NumPy 2.4, OpenBLAS SkylakeX kernels).
_RECORDED_FLOAT_KERNELS = "84a012eee99cf7dbf7df52b6"


@pytest.mark.parametrize("case", sorted(_LOOP_CASES))
def test_loop_paths_are_pinned(case):
    report = GuardReport(max_events=4096)
    arrays, error = None, None
    try:
        arrays = _LOOP_CASES[case](report)
    except NumericsError as exc:
        error = str(exc)
    digest, *control = LOOP_PINS[case]
    # Counters, events and errors follow the control flow alone, so they
    # hold on every platform.
    assert [
        {name: value for name, value in report.as_dict().items() if value},
        (len(report.events), _blake("\n".join(report.events).encode())),
        error,
    ] == control
    if _float_kernels_digest() != _RECORDED_FLOAT_KERNELS:
        pytest.skip("output digests were recorded on other float kernels")
    assert (None if arrays is None else _blake(b"".join(a.tobytes() for a in arrays))) == digest


# --- Kernel config space vs the loop oracles --------------------------------

_BLOCKS = (8, 16, 24, 32, 48, 64)


@st.composite
def _kernel_draws(draw):
    kv_bits = draw(st.sampled_from(LEGAL_BITS))
    hkv = draw(st.integers(1, 2))
    n = draw(st.integers(1, 149))
    return dict(
        config=dict(
            block_q=draw(st.sampled_from(_BLOCKS)),
            block_k=draw(st.sampled_from(_BLOCKS)),
            buffer_size=draw(st.integers(1, 79)),
            kv_bits=kv_bits,
            # About one draw in six falls outside the int8 range [1, 127].
            clamp_code=draw(st.integers(-8, 143)),
            use_sas=draw(st.booleans()),
            quantize_matmuls=draw(st.booleans()),
        ),
        guarded=draw(st.booleans()),
        hkv=hkv,
        group=draw(st.integers(1, 2)),
        head_dim=draw(st.sampled_from([8, 16])),
        head_bits=draw(st.one_of(
            st.just([kv_bits] * hkv),
            st.lists(st.sampled_from(LEGAL_BITS), min_size=hkv, max_size=hkv),
        )),
        n=n,
        # Equal keys half the time, else fewer or more.
        n_keys=draw(st.one_of(st.just(n), st.integers(1, 149))),
        steps=draw(st.integers(0, 89)),
        seed=draw(st.integers(0, 2**16)),
    )


@given(_kernel_draws())
@settings(max_examples=60, deadline=None)
def test_kernel_config_space_matches_loop_oracles(draw):
    # Each draw is rejected by TurboConfig or runs prefill plus a decode
    # run to completion.  With INT8 MatMuls every output equals the loop
    # oracle byte for byte; a guard routes both kernels through the loop
    # twin, and with nothing to screen it must agree too.  The cache and
    # buffer hold every token once, and the state round-trips.
    try:
        config = TurboConfig(**draw["config"])
    except ValueError:
        return
    hkv, d = draw["hkv"], draw["head_dim"]
    hq = hkv * draw["group"]
    guard = GuardConfig() if draw["guarded"] else None
    rng = np.random.default_rng(draw["seed"])
    q, k, v = _qkv(rng, hq, hkv, draw["n"], d, draw["n_keys"])
    res = turbo_prefill(q, k, v, config, np.asarray(draw["head_bits"]), guard=guard)
    exact = config.quantize_matmuls
    if exact:
        ref_out, ref_lse = reference_prefill_attention(q, k, v, config)
        assert np.array_equal(res.output, ref_out)
        assert np.array_equal(res.lse, ref_lse)
    cache, buffer = res.cache, res.buffer
    for _ in range(draw["steps"]):
        q_t = rng.standard_normal((hq, d))
        k_t = rng.standard_normal((hkv, d))
        v_t = rng.standard_normal((hkv, d))
        out = turbo_decode_step(q_t, k_t, v_t, cache, buffer, config, guard=guard)
        if exact:
            ref, _ = reference_decode_attend(gather_spans(cache, buffer), q_t, hkv, config)
            assert np.array_equal(out, ref)
    assert cache.seq_len + len(buffer) == draw["n_keys"] + draw["steps"]
    assert all(0 < block.length <= config.block_k for block in cache.blocks)
    arrays = state_to_arrays(TurboKVState(cache=cache, buffer=buffer, head_bits=res.head_bits))
    assert_same_payload(state_to_arrays(state_from_arrays(arrays)), arrays)
