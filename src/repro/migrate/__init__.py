"""KV-cache migration for disaggregated prefill/decode serving.

TurboAttention's compressed KV state is ~4.4x cheaper to *move* than
FP16, not just to hold — which is what makes disaggregated serving
(DistServe-style prefill and decode pools joined by a link) economically
viable.  This package supplies the two halves the cluster simulator
composes:

* :mod:`repro.migrate.link` — the wire-cost model: exact KV bytes for a
  request at its admitted KV width, charged over the
  :class:`repro.perf.gpu.GPUSpec` link-bandwidth model, so a 4-bit cache
  migrates proportionally cheaper than an FP16 one.
* :mod:`repro.migrate.payload` — the handoff codec: a request's KV state
  is serialized through the checksummed schema of
  :mod:`repro.core.serialization`, and one walk (:func:`verify_payload`,
  which snapshot recovery shares) *detects* a corrupted transfer (CRC32
  per array) and *salvages* its longest valid block prefix, turning a
  bad handoff into an exact recompute range instead of a lost request.

:class:`MigrationConfig` holds the policy knobs on top of the
:class:`PayloadPolicy` it shares with :class:`repro.recover.RecoverConfig`;
the seeded fault model for the link itself (drops, corruption, congestion
stalls) lives with the other fault machinery in :mod:`repro.cluster.faults`.
"""

from repro.migrate.config import MigrationConfig, PayloadPolicy
from repro.migrate.link import kv_wire_bytes, migration_transfer_time
from repro.migrate.payload import (
    HandoffOutcome,
    build_payload,
    corrupt_payload,
    miniature_payload,
    receive_payload,
    verify_payload,
)

__all__ = [
    "MigrationConfig",
    "PayloadPolicy",
    "kv_wire_bytes",
    "migration_transfer_time",
    "HandoffOutcome",
    "build_payload",
    "corrupt_payload",
    "miniature_payload",
    "receive_payload",
    "verify_payload",
]
