"""Integer matrix multiplication with scale algebra (paper Eq. 5/6).

GPU INT8 tensor cores multiply int8 operands into int32 accumulators; the
float result is recovered by multiplying with the operand scales.  For two
*symmetric* operands the algebra is just ``s_a * s_b * (A_q @ B_q)`` — the
three zero-point correction terms of Eq. 5 vanish, which is why
TurboAttention quantizes the compute stage symmetrically and reserves
asymmetric quantization for storage only.

:func:`int_matmul` guards against accumulator overflow: with int8 operands
bounded by 127 the worst-case accumulator magnitude is ``K * 127^2``, which
stays inside int32 for any inner dimension up to ~133k — far beyond
attention head dimensions — but the check is kept for safety because the
decode path multiplies decompressed (possibly clamp-extended) codes.  The
guard is *recoverable*: ``on_overflow="chunk"`` splits the inner dimension
into spans whose int32 partials cannot overflow and sums them in an int64
accumulator — exactly the split-K + wide-accumulator trick a real kernel
would use — instead of raising.

The same worst case picks the float type the product runs in.  An integer
product needs only an accumulator wide enough for its bound (as in
INT-FlashAttention): :func:`exact_float_dtype` returns float32, which holds
every integer up to 2**24, when the bound allows, else float64.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "code_magnitude",
    "exact_float_dtype",
    "int_matmul",
    "int32_headroom_ok",
    "scaled_int_matmul",
]

_INT32_MAX = np.iinfo(np.int32).max
#: Every integer of magnitude up to 2**24 is a float32.
_FLOAT32_EXACT = 1 << 24


def code_magnitude(x: np.ndarray) -> int:
    """Largest ``|code|`` of an integer array as a Python int (0 if empty).

    ``np.abs`` works in the array's dtype, where the most negative code
    has no positive twin (``abs(int8(-128))`` is ``-128``); ``max`` and
    ``-min`` taken as Python ints cannot wrap, and build no temporary.
    """
    if x.size == 0:
        return 0
    return max(int(x.max()), -int(x.min()))


def exact_float_dtype(bound: int) -> type:
    """The narrowest float type in which an integer GEMM is exact when its
    worst-case ``|accumulator|`` is ``bound``.

    Every product and every partial sum, in any order, is then an integer
    of magnitude at most ``bound``: float32 when that is at most 2**24,
    else float64 (exact to 2**53, far past the int32 bound).
    """
    return np.float32 if bound <= _FLOAT32_EXACT else np.float64


def _worst_case_acc(a: np.ndarray, b: np.ndarray) -> int:
    """Worst-case |accumulator| of ``a @ b`` from operand magnitudes."""
    return code_magnitude(a) * code_magnitude(b) * int(a.shape[-1])


def int32_headroom_ok(
    a_codes: np.ndarray, b_codes: np.ndarray, fraction: float = 1.0
) -> bool:
    """True when the worst-case accumulator of ``a @ b`` stays within
    ``fraction`` of the int32 range (the numerics guard's headroom check)."""
    a = np.asarray(a_codes)
    b = np.asarray(b_codes)
    return _worst_case_acc(a, b) <= int(fraction * _INT32_MAX)


def _chunked_int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Split-K integer MatMul: int32-safe chunks, int64 accumulation."""
    k = a.shape[-1]
    per_step = code_magnitude(a) * code_magnitude(b)
    if per_step > _INT32_MAX:
        # A single product already overflows int32 — no K-split can help;
        # the only recovery is a full-width accumulator throughout.
        return a.astype(np.int64) @ b.astype(np.int64)
    chunk = max(1, _INT32_MAX // max(per_step, 1))
    out_shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (
        a.shape[-2], b.shape[-1],
    )
    acc = np.zeros(out_shape, dtype=np.int64)
    for s in range(0, k, chunk):
        e = min(s + chunk, k)
        acc += (a[..., s:e].astype(np.int32) @ b[..., s:e, :].astype(np.int32)).astype(
            np.int64
        )
    return acc


def int_matmul(
    a_codes: np.ndarray, b_codes: np.ndarray, on_overflow: str = "raise"
) -> np.ndarray:
    """Exact integer MatMul with int32 accumulation.

    Both operands must be integer arrays; the result is the int32 product
    of tensor-core IMMA semantics.  When the worst-case accumulator could
    exceed int32, ``on_overflow`` selects the reaction: ``"raise"``
    (default) raises ``OverflowError``; ``"chunk"`` recovers exactly via
    :func:`_chunked_int_matmul` (split-K int32 partials summed in int64).
    Otherwise the product runs as a BLAS float GEMM in
    :func:`exact_float_dtype` of the worst case: float32 for the kernels'
    INT8 products (``119 * 127 * 128`` for QK), float64 past 2**24.
    """
    if on_overflow not in ("raise", "chunk"):
        raise ValueError(f"unknown on_overflow policy: {on_overflow!r}")
    a = np.asarray(a_codes)
    b = np.asarray(b_codes)
    if not np.issubdtype(a.dtype, np.integer) or not np.issubdtype(b.dtype, np.integer):
        raise TypeError("int_matmul requires integer operands")
    worst = _worst_case_acc(a, b)
    if worst > _INT32_MAX:
        if on_overflow == "chunk":
            return _chunked_int_matmul(a, b)
        raise OverflowError(
            f"int32 accumulator could overflow: worst case {worst} for "
            f"K={a.shape[-1]}"
        )
    # NumPy routes integer matmul through a naive C loop; float matmul goes
    # through BLAS.  Every product and partial sum is an integer no larger
    # than ``worst``, which the chosen float type represents exactly, so
    # the BLAS result *is* the int32 IMMA result, bit for bit.
    dtype = exact_float_dtype(worst)
    return (a.astype(dtype) @ b.astype(dtype)).astype(np.int32)


def scaled_int_matmul(
    a_codes: np.ndarray,
    a_scale: np.ndarray,
    b_codes: np.ndarray,
    b_scale: np.ndarray,
    a_zero: Optional[np.ndarray] = None,
    b_zero: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Float MatMul of quantized operands via integer arithmetic.

    Implements Eq. 5 in full generality.  For symmetric operands
    (``a_zero is b_zero is None``) this reduces to Eq. 6:
    ``O = s_a * s_b * (A_q @ B_q)``.

    Scales must broadcast against the *output*: for a ``(m, k) @ (k, n)``
    product, a per-row ``a_scale`` has shape ``(m, 1)`` and a per-column
    ``b_scale`` has shape ``(1, n)`` (per-tensor scalars always work).
    Zero-points, when given, are real values (the quantizer's ``x_min``) and
    must broadcast the same way.
    """
    acc = int_matmul(a_codes, b_codes).astype(np.float64)
    a_scale = np.asarray(a_scale, dtype=np.float64)
    b_scale = np.asarray(b_scale, dtype=np.float64)
    out = a_scale * b_scale * acc
    k = a_codes.shape[-1]
    if b_zero is not None:
        # s_a * z_b * sum_k Q(A)
        row_sum = np.asarray(a_codes, dtype=np.int64).sum(axis=-1, keepdims=True)
        out = out + a_scale * np.asarray(b_zero, dtype=np.float64) * row_sum
    if a_zero is not None:
        # s_b * z_a * sum_k Q(B)
        col_sum = np.asarray(b_codes, dtype=np.int64).sum(axis=-2, keepdims=True)
        out = out + b_scale * np.asarray(a_zero, dtype=np.float64) * col_sum
    if a_zero is not None and b_zero is not None:
        out = out + (
            np.asarray(a_zero, dtype=np.float64)
            * np.asarray(b_zero, dtype=np.float64)
            * float(k)
        )
    return out
