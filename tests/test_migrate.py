"""Tests for repro.migrate: wire-cost model and checksummed handoff payloads."""

import numpy as np
import pytest

from repro.core.serialization import state_digest
from repro.migrate import (
    HandoffOutcome,
    MigrationConfig,
    build_payload,
    corrupt_payload,
    kv_wire_bytes,
    migration_transfer_time,
    receive_payload,
)
from repro.perf.attention_costs import METHODS
from repro.perf.e2e import ModelGeometry
from repro.perf.gpu import A100_80GB, H100_80GB
from repro.serving import PagedKVAllocator
from tests._reference_kernels import (
    ODD_PAYLOAD_GEOMETRY,
    assert_same_payload,
    reference_miniature_payload,
)


@pytest.fixture(scope="module")
def model():
    return ModelGeometry.phi3_medium()


class TestWireBytes:
    def test_zero_tokens_is_zero_bytes(self, model):
        assert kv_wire_bytes(model, 0, 16.0) == 0.0
        assert kv_wire_bytes(model, -3, 16.0) == 0.0

    def test_monotone_in_tokens(self, model):
        sizes = [kv_wire_bytes(model, t, 16.0) for t in (1, 10, 100, 1000, 10000)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        # And exactly linear: doubling tokens doubles bytes.
        assert kv_wire_bytes(model, 2000, 16.0) == pytest.approx(
            2 * kv_wire_bytes(model, 1000, 16.0)
        )

    def test_fp16_closed_form(self, model):
        # 2 (K and V) * kv heads * head_dim * layers * 2 bytes per token.
        expected = 2 * model.n_kv_heads * model.head_dim * model.n_layers * 2.0
        assert kv_wire_bytes(model, 1, 16.0) == pytest.approx(expected)

    def test_width_scaling_matches_allocator_bytes_scale(self, model):
        """The wire discount for a compressed cache must equal the engine
        allocator's ``bytes_scale``: both are ``kv_bits / 16``."""
        fp16 = kv_wire_bytes(model, 1234, 16.0)
        for name in ("turbo4", "turbo_mixed", "turbo2", "kivi4"):
            bits = METHODS[name].kv_bits
            assert kv_wire_bytes(model, 1234, bits) / fp16 == pytest.approx(
                bits / 16.0
            )

    @pytest.mark.parametrize("method", list(METHODS))
    def test_one_token_is_the_allocators_ideal_packed_token(self, model, method):
        bits = METHODS[method].kv_bits
        alloc = PagedKVAllocator(
            model, METHODS[method], budget_bytes=2**40, paper_harness=False
        )
        assert alloc.bytes_per_token == kv_wire_bytes(model, 1, bits)

    def test_rejects_nonpositive_bits(self, model):
        with pytest.raises(ValueError):
            kv_wire_bytes(model, 10, 0.0)


class TestTransferTime:
    def test_zero_bytes_zero_latency_floor(self, model):
        # Zero tokens means nothing crosses the link: not even the
        # latency constant is paid.
        assert migration_transfer_time(A100_80GB, model, 0, 16.0) == 0.0

    def test_monotone_in_tokens(self, model):
        times = [
            migration_transfer_time(A100_80GB, model, t, 16.0)
            for t in (100, 1000, 10000)
        ]
        assert times[0] < times[1] < times[2]

    def test_compressed_cache_migrates_proportionally_cheaper(self, model):
        """Above the latency floor, 4.3-bit transfers approach the
        4.3/16 byte ratio; they can never be *more* expensive."""
        fp16 = migration_transfer_time(A100_80GB, model, 100_000, 16.0)
        turbo = migration_transfer_time(
            A100_80GB, model, 100_000, METHODS["turbo4"].kv_bits
        )
        ratio = turbo / fp16
        assert METHODS["turbo4"].kv_bits / 16.0 < ratio < 0.30

    def test_faster_link_is_faster(self, model):
        a = migration_transfer_time(A100_80GB, model, 50_000, 16.0)
        h = migration_transfer_time(H100_80GB, model, 50_000, 16.0)
        assert h < a

    def test_slowdown_multiplies(self, model):
        base = migration_transfer_time(A100_80GB, model, 50_000, 16.0)
        assert migration_transfer_time(
            A100_80GB, model, 50_000, 16.0, slowdown=4.0
        ) == pytest.approx(4.0 * base)
        with pytest.raises(ValueError):
            migration_transfer_time(A100_80GB, model, 50_000, 16.0, slowdown=0.5)


class TestHandoffPayload:
    CFG = MigrationConfig()

    def test_intact_roundtrip(self):
        arrays = build_payload(7, 0, 42, 4.3, self.CFG)
        outcome = receive_payload(arrays, 1000, self.CFG)
        assert outcome == HandoffOutcome(1000, (1000, 1000), False)
        assert outcome.intact
        assert outcome.recompute_tokens == 0

    def test_corruption_detected_and_salvaged(self):
        arrays = build_payload(7, 0, 42, 4.3, self.CFG)
        bad = corrupt_payload(arrays, 7, 0, 42, self.CFG)
        outcome = receive_payload(bad, 1000, self.CFG)
        assert not outcome.intact
        assert outcome.salvaged
        # The corruptor spares block 0, so the salvaged prefix is never
        # empty and the recompute range is strictly smaller than a full
        # re-prefill.
        assert 0 < outcome.valid_tokens < 1000
        assert outcome.recompute_range == (outcome.valid_tokens, 1000)
        assert 0 < outcome.recompute_tokens < 1000

    def test_corruption_without_salvage_recomputes_everything(self):
        cfg = MigrationConfig(salvage=False)
        arrays = build_payload(7, 0, 42, 4.3, cfg)
        bad = corrupt_payload(arrays, 7, 0, 42, cfg)
        outcome = receive_payload(bad, 1000, cfg)
        assert outcome == HandoffOutcome(0, (0, 1000), False)
        assert outcome.recompute_tokens == 1000

    def test_corrupt_does_not_mutate_input(self):
        arrays = build_payload(3, 1, 42, 16.0, self.CFG)
        before = {k: v.copy() for k, v in arrays.items()}
        corrupt_payload(arrays, 3, 1, 42, self.CFG)
        for key, val in before.items():
            assert np.array_equal(arrays[key], val), key

    def test_deterministic_in_all_keys(self):
        a = build_payload(9, 2, 17, 2.3, self.CFG)
        b = build_payload(9, 2, 17, 2.3, self.CFG)
        assert sorted(a) == sorted(b)
        for key in a:
            assert np.array_equal(a[key], b[key]), key
        ca = corrupt_payload(a, 9, 2, 17, self.CFG)
        cb = corrupt_payload(b, 9, 2, 17, self.CFG)
        for key in ca:
            assert np.array_equal(ca[key], cb[key]), key
        # A different attempt produces a different payload stream.
        other = build_payload(9, 3, 17, 2.3, self.CFG)
        assert any(
            not np.array_equal(a[k], other[k]) for k in a if "codes" in k
        )

    def test_salvage_fraction_scales_with_prompt(self):
        arrays = build_payload(5, 0, 42, 4.3, self.CFG)
        bad = corrupt_payload(arrays, 5, 0, 42, self.CFG)
        small = receive_payload(bad, 128, self.CFG)
        large = receive_payload(bad, 4096, self.CFG)
        # Same salvaged block fraction mapped onto different prompts.
        assert small.valid_tokens * 4096 == pytest.approx(
            large.valid_tokens * 128, rel=0.1
        )

    @pytest.mark.parametrize(
        "geometry", [{}, ODD_PAYLOAD_GEOMETRY], ids=["default", "odd"]
    )
    @pytest.mark.parametrize("kv_bits, width", [(2.3, 2), (3.5, 3), (4.3, 4), (16.0, 8)])
    def test_payload_matches_loop_oracle(self, kv_bits, width, geometry):
        # build_payload is the shared vectorized builder under the handoff
        # key; it must match the per-block loop byte for byte.
        cfg = MigrationConfig(**geometry)
        for seed in (0, 42):
            for request_id in (0, 7):
                for attempt in (0, 2):
                    assert_same_payload(
                        build_payload(request_id, attempt, seed, kv_bits, cfg),
                        reference_miniature_payload(
                            [seed, request_id, attempt], width, cfg
                        ),
                    )

    def test_digests_recorded_before_vectorizing(self):
        assert state_digest(build_payload(7, 0, 42, 4.3, self.CFG)) == (
            "995f7f4306274420ba28ae4f76855bb1"
        )
        odd = MigrationConfig(**ODD_PAYLOAD_GEOMETRY)
        assert state_digest(build_payload(9, 2, 17, 2.3, odd)) == (
            "64db93ab449b5afd7a4d2126101d3b0b"
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MigrationConfig(payload_blocks=1)
        with pytest.raises(ValueError):
            MigrationConfig(defer_retry_s=0.0)
