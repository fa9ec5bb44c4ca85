"""Tests for the tile-level kernel VM."""

import numpy as np
import pytest

from repro.attention.flash import flash_attention
from repro.core.config import TurboConfig
from repro.core.prefill import turbo_prefill
from repro.kernels import (
    Alloc,
    Load,
    MachineLimits,
    Space,
    TileMachine,
    build_turbo_tile_program,
    max_feasible_block,
    run_attention_program,
)
from repro.kernels.machine import CapacityError


@pytest.fixture
def qkv_single(rng):
    n, d = 128, 32
    return tuple(rng.standard_normal((n, d)) for _ in range(3))


class TestTileMachine:
    def test_alloc_free_accounting(self):
        m = TileMachine()
        m.alloc("a", (64, 64), "fp16", Space.SMEM)
        assert m._usage[Space.SMEM] == 64 * 64 * 2
        m.free("a")
        assert m._usage[Space.SMEM] == 0
        assert m.report().peak_smem_bytes == 64 * 64 * 2

    def test_capacity_enforced(self):
        m = TileMachine(limits=MachineLimits(smem_bytes=1024, reg_bytes=1024))
        with pytest.raises(CapacityError):
            m.alloc("big", (64, 64), "fp16", Space.SMEM)

    def test_enforce_off_records_peak(self):
        m = TileMachine(limits=MachineLimits(smem_bytes=1024, reg_bytes=1024), enforce=False)
        m.alloc("big", (64, 64), "fp16", Space.SMEM)
        assert not m.report().fits(m.limits)

    def test_double_alloc_raises(self):
        m = TileMachine()
        m.alloc("a", (4,), "fp32", Space.REG)
        with pytest.raises(KeyError):
            m.alloc("a", (4,), "fp32", Space.REG)

    def test_integer_buffer_rejects_fractions(self):
        m = TileMachine()
        m.alloc("c", (2,), "int8", Space.REG)
        with pytest.raises(ValueError):
            m.write("c", np.array([0.5, 1.0]))

    def test_shape_mismatch_raises(self):
        m = TileMachine()
        m.alloc("a", (2, 2), "fp32", Space.REG)
        with pytest.raises(ValueError):
            m.write("a", np.zeros((3, 3)))

    def test_load_counts_bytes(self, rng):
        m = TileMachine()
        m.hbm["X"] = rng.standard_normal((8, 8))
        m.alloc("t", (8, 8), "fp16", Space.SMEM)
        Load("t", "X").execute(m)
        assert m.counts.bytes_read == 8 * 8 * 2


class TestProgramNumerics:
    def test_flash_program_matches_kernel(self, qkv_single):
        q, k, v = qkv_single
        out, _ = run_attention_program("flash", q, k, v, block_q=32, block_k=32)
        ref = flash_attention(q[None], k[None], v[None], causal=False)[0]
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_turbo_program_bit_identical_to_kernel(self, qkv_single):
        q, k, v = qkv_single
        out, _ = run_attention_program("turbo", q, k, v, block_q=32, block_k=32)
        res = turbo_prefill(
            q[None], k[None], v[None],
            TurboConfig(block_q=32, block_k=32, buffer_size=32), np.array([4]), causal=False,
        )
        np.testing.assert_array_equal(out, res.output[0])

    @pytest.mark.parametrize("bq,bk", [(16, 32), (32, 16), (64, 64), (128, 32)])
    def test_turbo_program_any_blocking(self, qkv_single, bq, bk):
        q, k, v = qkv_single
        out, _ = run_attention_program("turbo", q, k, v, block_q=bq, block_k=bk)
        res = turbo_prefill(
            q[None], k[None], v[None],
            TurboConfig(block_q=bq, block_k=bk, buffer_size=bk), np.array([4]), causal=False,
        )
        np.testing.assert_array_equal(out, res.output[0])

    def test_indivisible_blocks_raise(self, qkv_single):
        q, k, v = qkv_single
        with pytest.raises(ValueError):
            run_attention_program("turbo", q, k, v, block_q=48, block_k=48)

    def test_unknown_kind_raises(self, qkv_single):
        q, k, v = qkv_single
        with pytest.raises(ValueError):
            run_attention_program("triton", q, k, v)


class TestResources:
    def test_turbo_smem_below_flash(self, qkv_single):
        """INT8 staging: the turbo kernel's shared-memory peak is lower
        than flash's at the same block size (the §2.2 pressure argument)."""
        q, k, v = qkv_single
        _, flash_rep = run_attention_program("flash", q, k, v, block_q=32, block_k=32)
        _, turbo_rep = run_attention_program("turbo", q, k, v, block_q=32, block_k=32)
        assert turbo_rep.peak_smem_bytes < flash_rep.peak_smem_bytes

    def test_turbo_ops_are_integer(self, qkv_single):
        q, k, v = qkv_single
        _, rep = run_attention_program("turbo", q, k, v, block_q=32, block_k=32)
        assert rep.counts.int8_tc > 0
        _, flash_rep = run_attention_program("flash", q, k, v, block_q=32, block_k=32)
        assert flash_rep.counts.int8_tc == 0
        assert flash_rep.counts.fp16_tc > 0

    def test_paper_block_size_fits_a100(self):
        """(B_r, B_c) = (64, 64) at head dim 128 — the paper's default —
        fits the A100 CTA budget for both kernels."""
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((128, 128)) for _ in range(3))
        for kind in ("flash", "turbo"):
            _, rep = run_attention_program(kind, q, k, v, block_q=64, block_k=64)
            assert rep.fits(MachineLimits())

    def test_max_feasible_block(self):
        flash_max = max_feasible_block("flash", 128)
        turbo_max = max_feasible_block("turbo", 128)
        # Both kernels are register-bound at d=128 on the A100 budget and
        # land at the block sizes real implementations use.
        assert flash_max == 64
        assert turbo_max >= flash_max

    def test_turbo_fits_larger_blocks_when_smem_bound(self):
        """With a register-rich but SMEM-poor budget the INT8 kernel's
        smaller staging footprint buys a strictly larger block."""
        tight = MachineLimits(smem_bytes=20 * 1024, reg_bytes=8 * 1024 * 1024)
        flash_max = max_feasible_block("flash", 128, limits=tight)
        turbo_max = max_feasible_block("turbo", 128, limits=tight)
        assert turbo_max > flash_max
