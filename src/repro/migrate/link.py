"""Wire-cost model for KV migration over the inter-pool link.

The byte count is the exact KV footprint of the request at its admitted
width: ``2`` (K and V) x ``n_kv_heads * head_dim`` x ``n_layers`` x
tokens x ``kv_bits / 8``, the per-token cost
(:meth:`~repro.perf.e2e.ModelGeometry.kv_bytes_per_token`) the
allocator charges too.  Because ``kv_bits`` is the *effective* rate
(codes + amortized scales, e.g. turbo4's 4.3), the ratio between two
widths on the wire matches the allocator's ``bytes_scale`` exactly —
a 4.3-bit cache costs 4.3/16 of FP16 to ship, which is the economic
argument for migrating compressed state.  The time charge comes from
:meth:`repro.perf.gpu.GPUSpec.transfer_time` (derated bandwidth + fixed
launch latency).
"""

from __future__ import annotations

from repro.perf.e2e import ModelGeometry
from repro.perf.gpu import GPUSpec

__all__ = ["kv_wire_bytes", "migration_transfer_time"]


def kv_wire_bytes(model: ModelGeometry, tokens: int, kv_bits: float) -> float:
    """Bytes of serialized KV state for ``tokens`` at ``kv_bits`` width."""
    if tokens <= 0:
        return 0.0
    if kv_bits <= 0:
        raise ValueError("kv_bits must be positive")
    return model.kv_bytes_per_token(kv_bits) * tokens


def migration_transfer_time(
    gpu: GPUSpec,
    model: ModelGeometry,
    tokens: int,
    kv_bits: float,
    slowdown: float = 1.0,
) -> float:
    """Seconds to ship one request's KV across the inter-pool link.

    ``slowdown`` > 1 models a congested/stalled link (the ``link_stall``
    fault) by stretching the whole transfer.
    """
    if slowdown < 1.0:
        raise ValueError("slowdown must be >= 1")
    return gpu.transfer_time(kv_wire_bytes(model, tokens, kv_bits)) * slowdown
