"""TurboAttention core — the paper's primary contribution.

* :mod:`repro.core.config` — :class:`TurboConfig` hyper-parameters
  (block sizes ``B_r``/``B_c``, buffer size ``n_b``, SAS threshold ``n_r``,
  KV bit-widths, head-wise mixed precision).
* :mod:`repro.core.headwise` — head-priority metric (Eq. 11/12) and the
  ablation baselines (entropy / min-max / variation / random).
* :mod:`repro.core.kvcache` — blockwise progressively-quantized KV cache.
* :mod:`repro.core.buffer` — enhanced decode buffer (§3.3): INT8 staging
  with a frozen universal scale and outlier clamping.
* :mod:`repro.core.prefill` — Algorithm 1 (quantized flash-attention
  prefill that emits the compressed cache).
* :mod:`repro.core.decode` — Algorithm 2 (single-token decode against the
  compressed cache + buffer).
* :mod:`repro.core.turbo` — :class:`TurboAttention`, the user-facing API.
"""

from repro.core.config import TurboConfig
from repro.core.headwise import (
    head_priority,
    select_two_bit_heads,
    HeadSelectionMethod,
)
from repro.core.kvcache import CacheBlock, QuantizedKVCache
from repro.core.buffer import DecodeBuffer
from repro.core.prefill import turbo_prefill
from repro.core.decode import turbo_decode_step, turbo_decode_step_split_k
from repro.core.turbo import TurboAttention, TurboKVState
from repro.core.serialization import (
    SalvageResult,
    load_state,
    salvage_state,
    save_state,
    state_from_arrays,
    state_to_arrays,
    walk_state,
)

__all__ = [
    "TurboConfig",
    "head_priority",
    "select_two_bit_heads",
    "HeadSelectionMethod",
    "CacheBlock",
    "QuantizedKVCache",
    "DecodeBuffer",
    "turbo_prefill",
    "turbo_decode_step",
    "turbo_decode_step_split_k",
    "TurboAttention",
    "TurboKVState",
    "save_state",
    "load_state",
    "state_to_arrays",
    "state_from_arrays",
    "salvage_state",
    "walk_state",
    "SalvageResult",
]
