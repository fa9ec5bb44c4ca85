"""Online softmax (Milakov & Gimelshein, 2018).

The single-pass normalizer that lets flash attention process key tiles
sequentially: it maintains, per query row, a running maximum ``m``, a
running exponential sum ``l`` and a running (unnormalized) output
accumulator, rescaling previous state by ``exp(m_old - m_new)`` whenever a
new tile raises the maximum.

The state-machine form here is used directly by the FP16 flash kernel
(:mod:`repro.attention.flash`) and the FP8 baseline
(:mod:`repro.baselines.fp8_flash`), and is tested on its own against the
two-pass softmax.  The turbo kernels inline the same recursion around
their integer GEMMs (:mod:`repro.core.decode`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = ["OnlineSoftmaxState", "online_softmax"]


@dataclass
class OnlineSoftmaxState:
    """Running state of the online softmax for a block of query rows.

    Attributes
    ----------
    m:
        Row-wise running maximum, shape ``(..., n_q)``.
    l:
        Row-wise running sum of ``exp(s - m)``, shape ``(..., n_q)``.
    acc:
        Running unnormalized output, shape ``(..., n_q, d_v)``; ``None``
        until the first update when value accumulation is requested.
    exp_fn:
        Exponential used for rescaling and probabilities.  The turbo kernel
        passes SAS here; the default is ``np.exp``.
    """

    m: np.ndarray
    l: np.ndarray
    acc: Optional[np.ndarray] = None
    exp_fn: Callable[[np.ndarray], np.ndarray] = field(default=np.exp)

    @classmethod
    def initial(
        cls,
        batch_shape,
        n_q: int,
        d_v: Optional[int] = None,
        exp_fn: Callable[[np.ndarray], np.ndarray] = np.exp,
    ) -> "OnlineSoftmaxState":
        shape = tuple(batch_shape) + (n_q,)
        m = np.full(shape, -np.inf, dtype=np.float64)
        l = np.zeros(shape, dtype=np.float64)
        acc = None
        if d_v is not None:
            acc = np.zeros(shape + (d_v,), dtype=np.float64)
        return cls(m=m, l=l, acc=acc, exp_fn=exp_fn)

    def update(
        self,
        scores: np.ndarray,
        values: Optional[np.ndarray] = None,
        p_transform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        matmul: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    ) -> np.ndarray:
        """Fold one tile of scores (and optionally values) into the state.

        Parameters
        ----------
        scores:
            Tile of raw scores, shape ``(..., n_q, tile)``.
        values:
            Optional value tile, shape ``(..., tile, d_v)``; required when
            the state accumulates output.
        p_transform:
            Optional transform applied to the probability tile *before* the
            PV MatMul (e.g. FP16 rounding, or INT8 quantize/dequantize in
            the turbo kernel).  The row-sum ``l`` always uses the untrans-
            formed probabilities, matching Algorithm 1 where ``l`` is
            updated from ``P~`` and the quantization ``Q(P~)`` applies only
            to the output accumulation.
        matmul:
            MatMul used for the PV product; defaults to ``@``.

        Returns
        -------
        The tile's unnormalized probabilities ``exp(scores - m_new)`` (what
        Algorithm 1 calls ``P~``).
        """
        scores = np.asarray(scores, dtype=np.float64)
        m_new = np.maximum(self.m, scores.max(axis=-1))
        # Rows that are still fully masked keep m = -inf; exp of (-inf - -inf)
        # would be NaN, so guard the correction factor.
        with np.errstate(invalid="ignore"):
            corr = self.exp_fn(self.m - m_new)
        corr = np.where(np.isfinite(self.m), corr, 0.0)
        with np.errstate(invalid="ignore"):
            p = self.exp_fn(scores - m_new[..., None])
        p = np.where(np.isfinite(scores), p, 0.0)
        self.l = corr * self.l + p.sum(axis=-1)
        if self.acc is not None:
            if values is None:
                raise ValueError("state accumulates output but no values were given")
            p_used = p if p_transform is None else p_transform(p)
            mm = matmul if matmul is not None else (lambda a, b: a @ b)
            self.acc = corr[..., None] * self.acc + mm(
                p_used, np.asarray(values, dtype=np.float64)
            )
        self.m = m_new
        return p

    def finalize(self):
        """Return ``(output, logsumexp)``; output is None if not accumulated."""
        safe_l = np.where(self.l > 0, self.l, 1.0)
        out = None
        if self.acc is not None:
            out = self.acc / safe_l[..., None]
        lse = np.where(self.l > 0, self.m + np.log(safe_l), -np.inf)
        return out, lse


def online_softmax(scores: np.ndarray, tile: int = 64) -> np.ndarray:
    """Compute softmax over the last axis by streaming tiles.

    Functionally identical to a two-pass softmax; exists to test the state
    machine and to demonstrate the algorithm in isolation.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[-1]
    state = OnlineSoftmaxState.initial(scores.shape[:-2], scores.shape[-2])
    for start in range(0, n, tile):
        state.update(scores[..., start : start + tile])
    _, lse = state.finalize()
    return np.exp(scores - lse[..., None])
