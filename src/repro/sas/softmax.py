"""Sparse Activated Softmax (paper §4, Algorithm 3).

The attention kernels always call the exponential on *max-subtracted*
scores, so inputs are ``x <= 0``.  SAS computes::

    y = -x
    e^x = LUT(floor(y)) * POLY(y - floor(y))        for x >= n_r
    e^x = 0                                          for x <  n_r

:class:`SAS` is a callable drop-in for ``np.exp`` (the ``exp_fn`` hook of
:class:`repro.attention.online_softmax.OnlineSoftmaxState`), and
:func:`sas_softmax` is the standalone Algorithm 3 (normalize by row sums).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from repro.sas.lut import ExpLUT
from repro.sas.poly import PAPER_POLY_COEFFS, poly_eval

__all__ = ["SASConfig", "SAS", "shared_sas", "sas_exp", "sas_softmax"]


@dataclass(frozen=True)
class SASConfig:
    """Configuration of the SAS approximation.

    Attributes
    ----------
    threshold:
        Sparsity threshold ``n_r`` (negative); paper uses −6.
    coeffs:
        Polynomial coefficients, highest degree first (Eq. 15 defaults).
    emulate_fp16:
        Run LUT entries and polynomial arithmetic through FP16 rounding,
        modelling the tensor-core execution path.
    """

    threshold: int = -6
    coeffs: Tuple[float, ...] = PAPER_POLY_COEFFS
    emulate_fp16: bool = False


class SAS:
    """Callable SAS exponential: ``SAS(config)(x) ~= exp(x)`` for x <= 0."""

    def __init__(self, config: SASConfig = SASConfig()):
        self.config = config
        self.lut = ExpLUT(threshold=config.threshold, emulate_fp16=config.emulate_fp16)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return sas_exp(
            x,
            lut=self.lut,
            coeffs=self.config.coeffs,
            threshold=self.config.threshold,
            emulate_fp16=self.config.emulate_fp16,
        )

    def max_abs_error(self, n_points: int = 100_001) -> float:
        """Worst-case |SAS(x) - exp(x)| over the active range [n_r, 0]."""
        xs = np.linspace(float(self.config.threshold), 0.0, n_points)
        return float(np.max(np.abs(self(xs) - np.exp(xs))))


@lru_cache(maxsize=128)
def shared_sas(config: SASConfig = SASConfig()) -> SAS:
    """Process-wide :class:`SAS` instance for a config.

    The instance is immutable after construction (a frozen config plus the
    precomputed LUT table), so the attention kernels share one per config
    instead of rebuilding the table every call — the decode loop otherwise
    pays an :class:`~repro.sas.lut.ExpLUT` construction per generated
    token.
    """
    return SAS(config)


#: Elements per pass of :func:`sas_exp`: its ~10 float64 temporaries of
#: this many elements stay in a core's L2 cache, where whole probability
#: rows of a prefill tile (millions of elements) would stream from DRAM.
_CHUNK = 8192


def sas_exp(
    x: np.ndarray,
    lut: ExpLUT,
    coeffs: Sequence[float] = PAPER_POLY_COEFFS,
    threshold: int = -6,
    emulate_fp16: bool = False,
) -> np.ndarray:
    """Approximate ``exp(x)`` for ``x <= 0`` (vectorized Algorithm 3 core).

    Values below ``threshold`` (and non-finite values, which arise from the
    ``-inf`` initial running max of the online softmax) return exactly 0.
    Small positive values caused by upstream rounding are clamped to 0
    before the split, so the result never exceeds ``POLY(0) ~= 1``.

    The formula is elementwise, so it runs over cache-sized chunks of the
    flattened input and the result is byte-identical to one pass over the
    whole array, for any size, layout and ``emulate_fp16``.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = np.empty(flat.shape, dtype=np.float64)
    for s in range(0, flat.size, _CHUNK):
        c = flat[s : s + _CHUNK]
        active = np.isfinite(c) & (c >= threshold)
        y = np.where(active, -np.minimum(c, 0.0), 0.0)
        y_int = np.floor(y)
        y_dec = y - y_int
        exp = lut.lookup(y_int.astype(np.int64)) * poly_eval(
            y_dec, coeffs, emulate_fp16=emulate_fp16
        )
        out[s : s + _CHUNK] = np.where(active, exp, 0.0)
    return out.reshape(x.shape)


def sas_softmax(
    scores: np.ndarray,
    config: SASConfig = SASConfig(),
    axis: int = -1,
) -> np.ndarray:
    """Full Algorithm 3: max-subtract, sparsify, approximate, normalize.

    Rows whose every score fell below the threshold would produce a zero
    denominator; the max-subtraction guarantees at least one entry at
    ``x = 0`` per row, so the row sums are always >= POLY(0) > 0.
    """
    sas = SAS(config)
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - np.max(scores, axis=axis, keepdims=True)
    p = sas(shifted)
    denom = p.sum(axis=axis, keepdims=True)
    return p / denom
