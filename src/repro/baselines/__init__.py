"""Baseline attention/KV-compression methods the paper compares against.

All baselines share one prefill/decode body and one windowed cache
(:mod:`repro.baselines.base`): the newest tokens stay in a 16-bit window
and each full group leaves it through the method's encoder.  A backend
is its encoder (and, for FP8, its attention kernel), with the same
prefill/decode interface as :class:`repro.core.turbo.TurboAttention`, so
the task harness and performance model can sweep methods uniformly:

* :class:`repro.baselines.fp16_cache.FP16Attention` — FlashAttention over
  an uncompressed FP16 cache that never flushes (the paper's exact
  baseline).
* :class:`repro.baselines.kivi.KIVIAttention` — per-channel key / per-token
  value asymmetric group quantization with an FP16 residual window
  (Liu et al., 2024).
* :class:`repro.baselines.gear.GEARAttention` — GEAR-L: KIVI's groups plus
  FP16 rank-``r`` factors of each group's quantization error (Kang et al.,
  2024).
* :class:`repro.baselines.fp8_flash.FP8Attention` — FlashAttention-3-style
  FP8 tiles for both the MatMuls and the cache.
"""

from repro.baselines.base import AttentionBackend, DecodeState, WindowedState
from repro.baselines.fp16_cache import FP16Attention
from repro.baselines.kivi import KIVIAttention, KIVIConfig
from repro.baselines.gear import GEARAttention, GEARConfig
from repro.baselines.fp8_flash import FP8Attention

__all__ = [
    "AttentionBackend",
    "DecodeState",
    "WindowedState",
    "FP16Attention",
    "KIVIAttention",
    "KIVIConfig",
    "GEARAttention",
    "GEARConfig",
    "FP8Attention",
]
