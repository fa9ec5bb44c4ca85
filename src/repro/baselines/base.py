"""The one prefill/decode body and windowed KV cache of every baseline.

An :class:`AttentionBackend` exposes the two phases of generation:

* ``prefill(q, k, v)`` — attend over the prompt with the method's
  ``_attend`` (exact FP16 flash unless the method overrides it) and return
  the output with a fresh per-layer state holding the prompt;
* ``decode_step(q_t, k_t, v_t, state)`` — add one generated token to the
  state and attend its query row over the state's dequantized K/V.

Every backend keeps its cache in one :class:`WindowedState`: the newest
tokens sit in a 16-bit window, and once the window holds ``residual``
tokens each full group of ``group`` tokens leaves it through the method's
encoder.  A method is therefore its encoder plus, for FP8, its attention
kernel.  States report ``storage_bits`` so the memory/throughput models
can compare methods honestly (codes + scales + zero-points + windows + any
low-rank factors).

Shapes follow the core kernels: ``q`` is ``(q_heads, n, d)``, ``k``/``v``
are ``(kv_heads, n, d)`` with ``q_heads`` a multiple of ``kv_heads``;
decode vectors drop the token axis.  Grouped-query attention broadcasts:
each KV head serves its group of query heads, so ``_attend`` sees
``(kv_heads, group, n, d)`` queries against ``(kv_heads, 1, n, d)`` keys
and values, and no K/V head is copied.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.attention.flash import flash_attention
from repro.core.state import DecodeState
from repro.fp.formats import FP16, quantize_to_format

__all__ = ["AttentionBackend", "DecodeState", "WindowedState"]


class WindowedState(DecodeState):
    """Encoded groups of ``group`` tokens plus a window of the newest tokens.

    ``encode(chunk_k, chunk_v)`` turns the window's oldest ``group`` tokens,
    two ``(heads, group, dim)`` arrays, into a ``(k_group, v_group)`` pair;
    each group has ``dequantize()`` and ``storage_bits``.  The window
    flushes while it holds at least ``max(group, residual)`` tokens, and
    never without an encoder.  ``round_window`` stores window tokens as
    FP16; the window is charged 16 bits per value either way.
    """

    def __init__(
        self,
        n_heads: int,
        head_dim: int,
        encode: Optional[Callable] = None,
        group: int = 0,
        residual: int = 0,
        round_window: bool = True,
    ):
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.group = group
        self._encode = encode
        self._flush_at = max(group, residual)
        self._round_window = round_window
        self.k_groups: List = []
        self.v_groups: List = []
        self.k_resid = np.zeros((n_heads, 0, head_dim))
        self.v_resid = np.zeros((n_heads, 0, head_dim))

    def ingest(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append ``(heads, t, dim)`` tokens, flushing full groups."""
        if self._round_window:
            k = quantize_to_format(k, FP16)
            v = quantize_to_format(v, FP16)
        self.k_resid = np.concatenate([self.k_resid, k], axis=1)
        self.v_resid = np.concatenate([self.v_resid, v], axis=1)
        if self._encode is None:
            return
        g = self.group
        while self.k_resid.shape[1] >= self._flush_at:
            k_group, v_group = self._encode(self.k_resid[:, :g, :], self.v_resid[:, :g, :])
            self.k_groups.append(k_group)
            self.v_groups.append(v_group)
            self.k_resid = self.k_resid[:, g:, :]
            self.v_resid = self.v_resid[:, g:, :]

    def dequantized(self) -> Tuple[np.ndarray, np.ndarray]:
        """Full K/V as the attention kernel reads them: decoded groups, then
        the window (returned as is while nothing has been flushed)."""
        if not self.k_groups:
            return self.k_resid, self.v_resid
        shape = (self.n_heads, -1, self.head_dim)
        k_parts = [grp.dequantize().reshape(shape) for grp in self.k_groups]
        v_parts = [grp.dequantize().reshape(shape) for grp in self.v_groups]
        return (
            np.concatenate(k_parts + [self.k_resid], axis=1),
            np.concatenate(v_parts + [self.v_resid], axis=1),
        )

    @property
    def seq_len(self) -> int:
        return len(self.k_groups) * self.group + self.k_resid.shape[1]

    @property
    def storage_bits(self) -> int:
        total = sum(grp.storage_bits for grp in self.k_groups)
        total += sum(grp.storage_bits for grp in self.v_groups)
        return total + (self.k_resid.size + self.v_resid.size) * 16


class AttentionBackend(abc.ABC):
    """Prefill/decode attention with a method-specific KV representation."""

    #: Human-readable method name used by the harness tables.
    name: str = "base"

    @abc.abstractmethod
    def _new_state(self, n_heads: int, head_dim: int) -> WindowedState:
        """An empty cache for ``n_heads`` KV heads of width ``head_dim``."""

    def prefill(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        causal: bool = True,
        scale: Optional[float] = None,
    ) -> Tuple[np.ndarray, WindowedState]:
        """Process the prompt; return ``(output, state)``."""
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        out = self._attend_grouped(np.asarray(q, dtype=np.float64), k, v, causal, scale)
        state = self._new_state(k.shape[0], k.shape[-1])
        state.ingest(k, v)
        return out, state

    def decode_step(
        self,
        q_t: np.ndarray,
        k_t: np.ndarray,
        v_t: np.ndarray,
        state: WindowedState,
        scale: Optional[float] = None,
    ) -> np.ndarray:
        """Process one generated token; return its attention output."""
        shape = (state.n_heads, 1, state.head_dim)
        state.ingest(
            np.asarray(k_t, dtype=np.float64).reshape(shape),
            np.asarray(v_t, dtype=np.float64).reshape(shape),
        )
        k, v = state.dequantized()
        q = np.asarray(q_t, dtype=np.float64)[:, None, :]
        return self._attend_grouped(q, k, v, False, scale)[:, 0, :]

    def _attend_grouped(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        causal: bool,
        scale: Optional[float],
    ) -> np.ndarray:
        """:meth:`_attend` with each query head's group broadcast over its
        KV head; returns ``(q_heads, n, d)``."""
        hq, n, d = q.shape
        hkv = k.shape[0]
        if hq % hkv != 0:
            raise ValueError(f"q_heads {hq} not a multiple of kv_heads {hkv}")
        out = self._attend(q.reshape(hkv, hq // hkv, n, d), k[:, None], v[:, None], causal, scale)
        return out.reshape(hq, n, d)

    def _attend(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        causal: bool,
        scale: Optional[float],
    ) -> np.ndarray:
        """Exact FP16 flash attention over explicit K/V arrays."""
        return flash_attention(q, k, v, causal=causal, scale=scale, emulate_fp16=True)
