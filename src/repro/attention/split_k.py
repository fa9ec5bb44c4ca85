"""Split-K decode attention (FlashDecoding / LeanAttention style).

Decode attention has one query row but a long key axis; a single CTA
processing it serially under-uses the GPU.  FlashDecoding (Dao et al.,
2023) and LeanAttention (Sanovar et al., 2024) — both cited by the paper
as the scheduling layer TurboAttention plugs into — split the key axis
into ``n_splits`` chunks processed independently, each producing a partial
``(output, logsumexp)`` pair, then merge:

    m*   = max_i m_i
    l*   = sum_i l_i * exp(m_i - m*)
    out* = sum_i out_i * l_i * exp(m_i - m*) / l*

The merge is exact — a property test in the suite checks bit-level
agreement with unsplit attention — and it composes with the quantized
cache: :func:`repro.core.decode.turbo_decode_step_split_k` runs each chunk,
a range of one decode key row's segments read as a view of the row,
through the integer path of Algorithm 2.  Both go through one chunk loop,
:func:`split_k_chunks`; its ``(lo, hi)`` bounds count keys in
:func:`split_k_decode` and row segments in the quantized variant.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.attention.reference import reference_attention

__all__ = ["merge_partials", "split_k_chunks", "split_k_decode"]


def merge_partials(
    outs: Sequence[np.ndarray],
    lses: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Combine per-chunk (output, logsumexp) partials exactly.

    ``outs[i]`` has shape ``(..., d)``; ``lses[i]`` has shape ``(...,)``.
    Returns the merged output and the global logsumexp.  Chunks whose rows
    saw no keys (lse = -inf) contribute nothing.
    """
    if len(outs) != len(lses) or not outs:
        raise ValueError("need equal, non-zero numbers of outputs and lses")
    lse_stack = np.stack([np.asarray(l, dtype=np.float64) for l in lses])  # (s, ...)
    out_stack = np.stack([np.asarray(o, dtype=np.float64) for o in outs])  # (s, ..., d)
    m_star = lse_stack.max(axis=0)
    with np.errstate(invalid="ignore"):
        weights = np.exp(lse_stack - m_star)  # (s, ...)
    weights = np.where(np.isfinite(lse_stack), weights, 0.0)
    denom = weights.sum(axis=0)
    safe = np.where(denom > 0, denom, 1.0)
    merged = (weights[..., None] * out_stack).sum(axis=0) / safe[..., None]
    lse_total = np.where(denom > 0, m_star + np.log(safe), -np.inf)
    return merged, lse_total


def split_k_decode(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    n_splits: int = 4,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Exact decode attention computed over ``n_splits`` key chunks.

    ``q`` is ``(..., 1, d)`` (or ``(..., n_q, d)``; the split is over the
    key axis and works for any query count as long as no causal structure
    crosses chunk boundaries, i.e. decode).
    """
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v)
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])

    def fold(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        return reference_attention(
            q, k[..., lo:hi, :], v[..., lo:hi, :], scale=scale, return_lse=True
        )

    merged, _ = split_k_chunks(fold, k.shape[-2], n_splits)
    return merged


def split_k_chunks(
    fold_chunk: Callable[[int, int], Tuple[np.ndarray, np.ndarray]],
    n_total: int,
    n_splits: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The split-K loop: fold ``n_splits`` key chunks and merge them.

    ``fold_chunk(lo, hi)`` must return the partial ``(output, lse)`` for
    keys ``[lo, hi)`` — exact attention, or a closure over Algorithm 2's
    integer inner loop.  Empty chunks are skipped.  Returns the merged
    ``(output, lse)``.
    """
    if n_splits < 1:
        raise ValueError("n_splits must be >= 1")
    bounds = np.linspace(0, n_total, n_splits + 1, dtype=int)
    outs, lses = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi == lo:
            continue
        out, lse = fold_chunk(int(lo), int(hi))
        outs.append(out)
        lses.append(lse)
    return merge_partials(outs, lses)
