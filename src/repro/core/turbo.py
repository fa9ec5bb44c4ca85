"""User-facing TurboAttention API.

:class:`TurboAttention` bundles head-selection, the prefill kernel, the
quantized cache/buffer state and the decode kernel behind two calls::

    turbo = TurboAttention(TurboConfig(mixed_precision=True))
    out, state = turbo.prefill(q, k, v)          # (heads, n, d) each
    ...
    out_t = turbo.decode_step(q_t, k_t, v_t, state)   # (heads, d) each

The state object exposes honest storage accounting
(:attr:`TurboKVState.storage_bits`) used by the memory/throughput models.

Passing a :class:`repro.guard.GuardConfig` arms the numerics guard on both
kernels (NaN/Inf tiles, degenerate scales, accumulator headroom — with
``raise | sanitize | fallback`` policies) and, when the config carries an
:class:`repro.guard.EscalationConfig`, adaptive per-head precision
escalation at every buffer flush.  The per-state
:attr:`TurboKVState.report` accumulates what the guards saw and did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.buffer import DecodeBuffer
from repro.core.config import TurboConfig
from repro.core.decode import turbo_decode_step
from repro.core.headwise import HeadSelectionMethod, assign_head_bits, select_two_bit_heads
from repro.core.kvcache import QuantizedKVCache
from repro.core.prefill import turbo_prefill
from repro.core.state import DecodeState
from repro.guard.escalation import PrecisionEscalator
from repro.guard.report import GuardConfig, GuardReport

__all__ = ["TurboAttention", "TurboKVState"]


@dataclass
class TurboKVState(DecodeState):
    """Per-layer attention state: progressive cache + INT8 buffer.

    ``report`` and ``escalator`` are populated when the owning
    :class:`TurboAttention` runs with a guard; they are runtime-only and
    deliberately not persisted (a restored state re-arms lazily on the
    next guarded decode step).
    """

    cache: QuantizedKVCache
    buffer: DecodeBuffer
    head_bits: np.ndarray
    report: Optional[GuardReport] = None
    escalator: Optional[PrecisionEscalator] = None

    @property
    def seq_len(self) -> int:
        """Total tokens represented (cache blocks + staged buffer)."""
        return self.cache.seq_len + len(self.buffer)

    @property
    def storage_bits(self) -> int:
        return self.cache.storage_bits + self.buffer.storage_bits

    @property
    def n_heads(self) -> int:
        return self.cache.n_heads

    @property
    def head_dim(self) -> int:
        return self.cache.head_dim


class TurboAttention:
    """TurboAttention = FlashQ + SAS behind a prefill/decode interface."""

    def __init__(
        self,
        config: Optional[TurboConfig] = None,
        guard: Optional[GuardConfig] = None,
    ):
        self.config = config if config is not None else TurboConfig()
        self.guard = guard

    def _arm(self, state: TurboKVState) -> None:
        """Lazily attach guard runtime objects to a state (covers both
        fresh prefills and states restored from persistence)."""
        if self.guard is None:
            return
        if state.report is None:
            state.report = GuardReport()
        if self.guard.escalation is not None and state.escalator is None:
            state.escalator = PrecisionEscalator(
                self.guard.escalation, state.head_bits
            )

    def choose_head_bits(self, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Assign per-head bit-widths from prefill K/V statistics.

        Uniform ``kv_bits`` unless mixed precision is enabled, in which case
        the configured selector marks ``two_bit_fraction`` of the heads for
        2-bit storage (Eq. 12) and the rest stay at 4-bit.
        """
        n_heads = np.asarray(k).shape[0]
        cfg = self.config
        if not cfg.mixed_precision:
            return np.full(n_heads, cfg.kv_bits, dtype=np.int32)
        n_two = int(round(cfg.two_bit_fraction * n_heads))
        mask = select_two_bit_heads(
            k, v, n_two, method=HeadSelectionMethod(cfg.head_selection)
        )
        return assign_head_bits(mask, high_bits=4)

    def prefill(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        causal: bool = True,
        scale: Optional[float] = None,
        head_bits: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, TurboKVState]:
        """Process the prompt; returns output and the compressed KV state."""
        if head_bits is None:
            head_bits = self.choose_head_bits(k, v)
        result = turbo_prefill(
            q, k, v, config=self.config, head_bits=head_bits, causal=causal,
            scale=scale, guard=self.guard,
        )
        state = TurboKVState(
            cache=result.cache, buffer=result.buffer, head_bits=result.head_bits,
            report=result.report,
        )
        self._arm(state)
        return result.output, state

    def decode_step(
        self,
        q_t: np.ndarray,
        k_t: np.ndarray,
        v_t: np.ndarray,
        state: TurboKVState,
        scale: Optional[float] = None,
    ) -> np.ndarray:
        """Process one generated token against the compressed state."""
        self._arm(state)
        out = turbo_decode_step(
            q_t, k_t, v_t, cache=state.cache, buffer=state.buffer,
            config=self.config, scale=scale, guard=self.guard,
            report=state.report, escalator=state.escalator,
        )
        if state.escalator is not None:
            # Escalation retunes the cache's widths; keep the state's view
            # (used by serialization and storage accounting) in sync.
            state.head_bits = state.cache.head_bits
        return out
