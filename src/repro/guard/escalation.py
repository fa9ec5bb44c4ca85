"""Adaptive per-head precision escalation (guard layer 2).

The frozen-scale decode buffer (§3.3) and the 2/4-bit progressive cache
are tuned for the *prefill* distribution.  A decode stream whose K/V
statistics drift — outlier-heavy heads, growing activations — silently
saturates the buffer's clamp and blows past the analytic reconstruction
bound of the head's storage width.  Instead of failing silently, the
escalator watches two per-head signals at every buffer flush:

* **clamp fraction** — the share of staged elements the frozen scale
  clamped this window (from the buffer's per-head accounting behind
  ``DecodeBuffer.clamped_total``), and
* **measured stage-2 error** — the actual reconstruction error of the
  flushed block at the head's current width, compared against the
  analytic :func:`repro.quant.bounds.progressive_bound` evaluated at the
  configured *quality* width.

A head persistently (``patience`` consecutive flushes) exceeding either
signal escalates one rung up the ``ladder`` (2 -> 4 -> 8 bits); a head
that stays cool for ``cooldown`` consecutive flushes de-escalates one
rung, never below its original assignment (hysteresis: ``cooldown >
patience`` so assignments don't flap).  Clamp-hot heads additionally
request a frozen-scale regrow, which the decode path applies at the
flush boundary — the only instant it is safe, because the buffer is
empty and cache blocks carry their own scales, so no stored token is
ever recompressed.

Storage cost is bounded and observable: escalation only changes the
width of *future* blocks (``QuantizedKVCache`` blocks each carry their
own bit array), and every transition is counted in the
:class:`~repro.guard.report.GuardReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.guard.report import GuardReport
from repro.quant.bounds import progressive_bound
from repro.quant.progressive import LEGAL_BITS, pq_compress, pq_decompress_to_int8

__all__ = [
    "DEFAULT_LADDER",
    "EscalationConfig",
    "EscalationDecision",
    "PrecisionEscalator",
]

#: The storage-width ladder shared by per-head escalation (quality goes
#: *up* under numeric stress) and the overload brownout controller
#: (quality goes *down* under load stress, :mod:`repro.overload.brownout`).
#: Both walk the same rungs via :func:`repro.core.headwise.snap_to_ladder`
#: / :func:`repro.core.headwise.ladder_step`, so a fleet that browns out
#: and then escalates a hot head lands on widths the cache can store.
DEFAULT_LADDER: tuple = (2, 4, 8)


@dataclass(frozen=True)
class EscalationConfig:
    """Escalation thresholds and hysteresis.

    Attributes
    ----------
    ladder:
        Allowed storage widths, ascending.
    clamp_threshold:
        Per-head clamp fraction (clamped elements / staged elements in the
        flush window) above which the head counts as hot.
    quality_bits:
        The width whose analytic :func:`progressive_bound` serves as the
        per-head quality target; a head whose *measured* error exceeds
        ``error_margin`` times that target is hot.
    error_margin:
        Multiplier on the quality target (>= 1 loosens, < 1 tightens).
    patience:
        Consecutive hot flushes before a head escalates one rung.
    cooldown:
        Consecutive cool flushes before a head de-escalates one rung
        (kept > ``patience`` so assignments don't flap).
    grow_scale:
        Whether clamp-hot heads also regrow the buffer's frozen scale at
        the flush boundary (see module docstring).
    """

    ladder: Tuple[int, ...] = DEFAULT_LADDER
    clamp_threshold: float = 0.01
    quality_bits: int = 4
    error_margin: float = 1.0
    patience: int = 2
    cooldown: int = 6
    grow_scale: bool = True

    def __post_init__(self) -> None:
        if len(self.ladder) < 2 or list(self.ladder) != sorted(set(self.ladder)):
            raise ValueError("ladder must be >= 2 strictly ascending widths")
        if any(b not in LEGAL_BITS for b in self.ladder):
            raise ValueError(f"unsupported widths in ladder: {self.ladder}")
        if not 0.0 <= self.clamp_threshold <= 1.0:
            raise ValueError("clamp_threshold must lie in [0, 1]")
        if self.patience < 1 or self.cooldown < 1:
            raise ValueError("patience and cooldown must be >= 1")
        if self.error_margin <= 0:
            raise ValueError("error_margin must be positive")


@dataclass
class EscalationDecision:
    """Outcome of one flush observation."""

    head_bits: np.ndarray
    changed: bool
    #: Heads whose clamp fraction ran hot this window — candidates for a
    #: frozen-scale regrow at the (empty-buffer) flush boundary.
    clamp_hot: np.ndarray


class PrecisionEscalator:
    """Per-head hot/cool streak tracker driving the bits ladder."""

    def __init__(self, config: EscalationConfig, head_bits: np.ndarray):
        # Deferred import: repro.core.headwise owns every assignment
        # mutation, but importing it at module level would cycle through
        # repro.core.__init__ back into this module.
        from repro.core.headwise import snap_to_ladder

        self.config = config
        bits = snap_to_ladder(head_bits, config.ladder)
        self.head_bits = bits
        #: De-escalation floor: the original (selection-time) assignment.
        self.floor_bits = bits.copy()
        n = bits.shape[0]
        self._hot_streak = np.zeros(n, dtype=np.int64)
        self._cool_streak = np.zeros(n, dtype=np.int64)

    def _rung(self, direction: int, bits: np.ndarray, mask: np.ndarray) -> np.ndarray:
        from repro.core.headwise import ladder_step

        return ladder_step(bits, self.config.ladder, direction, mask)

    def measure_block_error(
        self,
        codes: np.ndarray,
        float_scale: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Measured stage-2 error vs the analytic quality target, per head.

        Returns ``(measured, target)`` in real units, shape ``(heads,)``.
        ``measured`` is the max reconstruction error of compressing the
        INT8 block at the head's *current* width; ``target`` is
        :func:`progressive_bound` at ``quality_bits`` for the block's
        worst channel range, times ``error_margin``.
        """
        codes = np.asarray(codes, dtype=np.int32)
        scale = np.asarray(float_scale, dtype=np.float64).reshape(-1)
        block = pq_compress(
            codes, bits=self.head_bits.reshape(-1, 1, 1), float_scale=scale
        )
        rec = pq_decompress_to_int8(block).astype(np.int32)
        measured = np.abs(rec - codes).max(axis=(-2, -1)) * scale
        ranges = (codes.max(axis=-2) - codes.min(axis=-2)).max(axis=-1)
        target = (
            progressive_bound(scale, ranges, self.config.quality_bits)
            * self.config.error_margin
        )
        return measured, target

    def observe_flush(
        self,
        k_codes: np.ndarray,
        v_codes: np.ndarray,
        k_scale: np.ndarray,
        v_scale: np.ndarray,
        clamp_fraction: np.ndarray,
        report: Optional[GuardReport] = None,
    ) -> EscalationDecision:
        """Update streaks from one flushed block; return new assignments.

        ``clamp_fraction`` is the buffer's per-head clamped share for the
        window that produced this block.
        """
        cfg = self.config
        n = self.head_bits.shape[0]
        clamp_fraction = np.asarray(clamp_fraction, dtype=np.float64)
        if clamp_fraction.shape != (n,) or np.asarray(k_codes).shape[0] != n:
            raise ValueError(
                f"flush observation is for {np.asarray(k_codes).shape[0]} heads "
                f"(clamp fraction {clamp_fraction.shape}); escalator tracks {n}"
            )
        clamp_hot = clamp_fraction > cfg.clamp_threshold
        err_k, tgt_k = self.measure_block_error(k_codes, k_scale)
        err_v, tgt_v = self.measure_block_error(v_codes, v_scale)
        bound_hot = (err_k > tgt_k) | (err_v > tgt_v)
        hot = clamp_hot | bound_hot

        self._hot_streak = np.where(hot, self._hot_streak + 1, 0)
        self._cool_streak = np.where(hot, 0, self._cool_streak + 1)

        at_top = self.head_bits >= cfg.ladder[-1]
        up = (self._hot_streak >= cfg.patience) & ~at_top
        down = (
            (self._cool_streak >= cfg.cooldown)
            & (self.head_bits > self.floor_bits)
        )
        new_bits = self._rung(+1, self.head_bits, up)
        new_bits = self._rung(-1, new_bits, down)
        changed = bool(np.any(new_bits != self.head_bits))

        if report is not None:
            report.hot_flushes += int(np.any(hot))
            report.bound_violations += int(np.count_nonzero(bound_hot))
            report.escalations += int(np.count_nonzero(up))
            report.deescalations += int(np.count_nonzero(down & ~up))
            for h in np.flatnonzero(up):
                report.record(
                    f"escalate:head{h}:{int(self.head_bits[h])}->{int(new_bits[h])}"
                )
            for h in np.flatnonzero(down & ~up):
                report.record(
                    f"deescalate:head{h}:{int(self.head_bits[h])}->{int(new_bits[h])}"
                )

        # Streaks reset on any transition so a fresh verdict accrues at the
        # new width.
        moved = new_bits != self.head_bits
        self._hot_streak[moved] = 0
        self._cool_streak[moved] = 0
        self.head_bits = new_bits
        grow = clamp_hot if cfg.grow_scale else np.zeros_like(clamp_hot)
        return EscalationDecision(
            head_bits=self.head_bits.copy(), changed=changed, clamp_hot=grow
        )
