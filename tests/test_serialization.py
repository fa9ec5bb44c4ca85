"""Tests for KV-state serialization (packed round-trip)."""

import copy

import numpy as np
import pytest

from repro.core import TurboAttention, TurboConfig
from repro.core.serialization import (
    load_state,
    save_state,
    state_from_arrays,
    state_to_arrays,
)
from tests._reference_kernels import reference_state_from_arrays


@pytest.fixture
def state(rng):
    h, n, d = 4, 200, 32
    q, k, v = (rng.standard_normal((h, n, d)) for _ in range(3))
    turbo = TurboAttention(
        TurboConfig(mixed_precision=True, block_q=32, block_k=32, buffer_size=32)
    )
    _, st = turbo.prefill(q, k, v)
    # A few decode steps so the buffer is non-empty and non-trivial.
    for _ in range(5):
        turbo.decode_step(
            rng.standard_normal((h, d)), rng.standard_normal((h, d)),
            rng.standard_normal((h, d)), st,
        )
    return turbo, st


class TestRoundTrip:
    def test_arrays_roundtrip_exact(self, state):
        _, st = state
        restored = state_from_arrays(state_to_arrays(st))
        assert restored.seq_len == st.seq_len
        np.testing.assert_array_equal(restored.head_bits, st.head_bits)
        for a, b in zip(st.cache.blocks, restored.cache.blocks):
            np.testing.assert_array_equal(a.k.codes, b.k.codes)
            np.testing.assert_array_equal(a.v.codes, b.v.codes)
            np.testing.assert_array_equal(a.k.s_int, b.k.s_int)
            np.testing.assert_array_equal(a.k.z_int, b.k.z_int)
            np.testing.assert_array_equal(a.k.float_scale, b.k.float_scale)
        np.testing.assert_array_equal(st.buffer.codes()[0], restored.buffer.codes()[0])
        np.testing.assert_array_equal(st.buffer.codes()[1], restored.buffer.codes()[1])

    def test_decode_continues_identically(self, state, rng):
        """Decoding against a restored state is bit-identical."""
        turbo, st = state
        restored = state_from_arrays(state_to_arrays(copy.deepcopy(st)))
        q1, k1, v1 = (rng.standard_normal((4, 32)) for _ in range(3))
        a = turbo.decode_step(q1, k1, v1, st)
        b = turbo.decode_step(q1, k1, v1, restored)
        np.testing.assert_array_equal(a, b)

    def test_npz_file_roundtrip(self, state, tmp_path):
        _, st = state
        path = tmp_path / "kv_state.npz"
        save_state(path, st)
        restored = load_state(path)
        assert restored.seq_len == st.seq_len
        assert restored.storage_bits == st.storage_bits

    def test_payload_tracks_compression(self, state):
        """The serialized payload lands near the accounted storage (packed
        codes, not byte-per-code); container overhead excluded."""
        from repro.core.serialization import state_to_arrays

        _, st = state
        payload = sum(a.nbytes for a in state_to_arrays(st).values())
        unpacked_size = 2 * st.seq_len * st.cache.n_heads * st.cache.head_dim
        assert payload < unpacked_size  # < 1 byte per logical value
        assert payload < 2.0 * st.storage_bytes

    def test_empty_buffer_roundtrip(self, rng):
        h, n, d = 2, 64, 16
        q, k, v = (rng.standard_normal((h, n, d)) for _ in range(3))
        turbo = TurboAttention(TurboConfig(block_q=32, block_k=32, buffer_size=32))
        _, st = turbo.prefill(q, k, v)  # 64 = 2 full blocks, empty buffer
        assert len(st.buffer) == 0
        restored = state_from_arrays(state_to_arrays(st))
        assert len(restored.buffer) == 0
        assert restored.seq_len == st.seq_len

    def test_load_copies_what_the_two_walk_load_copied(self, state):
        """Loading casts and copies the same arrays the two-walk loader
        did: every block array is the state's own, and the buffer's
        float64 scales stay views of the input (the buffer reassigns its
        scales, never writes them in place)."""
        _, st = state
        arrays = state_to_arrays(st)

        def views_of_input(restored):
            loaded = {
                "head_bits": restored.head_bits,
                "buffer.k_scale": restored.buffer.k_scale,
                "buffer.v_scale": restored.buffer.v_scale,
            }
            for i, block in enumerate(restored.cache.blocks):
                for part, half in (("k", block.k), ("v", block.v)):
                    for name in ("codes", "s_int", "z_int", "bits", "float_scale"):
                        loaded[f"block{i}.{part}.{name}"] = getattr(half, name)
            return sorted(
                name for name, arr in loaded.items()
                if any(np.shares_memory(arr, src) for src in arrays.values())
            )

        views = views_of_input(state_from_arrays(arrays))
        assert views == views_of_input(reference_state_from_arrays(arrays))
        assert views == ["buffer.k_scale", "buffer.v_scale"]
