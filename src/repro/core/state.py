"""Storage accounting shared by every per-layer KV state.

:class:`DecodeState` is what TurboAttention's
:class:`repro.core.turbo.TurboKVState` and the baseline backends' windowed
cache (:class:`repro.baselines.base.WindowedState`) have in common.  It
lives in the core, so importing ``repro.core`` loads no baseline backend.
"""

from __future__ import annotations

import abc

__all__ = ["DecodeState"]


class DecodeState(abc.ABC):
    """Per-layer KV state with storage accounting.

    A subclass supplies ``seq_len``, ``storage_bits`` and the KV geometry
    ``n_heads`` and ``head_dim``; the figures the memory and throughput
    models compare methods by follow from those.
    """

    n_heads: int
    head_dim: int

    @property
    @abc.abstractmethod
    def seq_len(self) -> int:
        """Tokens currently represented."""

    @property
    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Total bits the representation occupies."""

    @property
    def storage_bytes(self) -> float:
        return self.storage_bits / 8.0

    def _logical_elements(self) -> int:
        """Number of K/V scalars represented (2 * seq * heads * dim)."""
        return 2 * self.seq_len * self.n_heads * self.head_dim

    def effective_bits_per_value(self) -> float:
        """Average stored bits per K/V element, metadata included."""
        n = self._logical_elements()
        return self.storage_bits / n if n else 0.0

    def compression_ratio(self, reference_bits: int = 16) -> float:
        n = self._logical_elements()
        if n == 0 or self.storage_bits == 0:
            return 1.0
        return (n * reference_bits) / self.storage_bits
