"""Crash-consistent checkpointing, WAL replay, and warm fleet restarts.

The fault layer (:mod:`repro.cluster.faults`) recovers a crash by cold
retry: every evicted request re-prefills from token zero on another
replica.  This package makes recovery *warm*: replicas periodically
snapshot their engine state (:mod:`repro.recover.snapshot`) — request
records, the key of a checksummed serialized KV payload, prefix-pool
refcounts, brownout level — and log post-snapshot admissions to a
write-ahead log (:mod:`repro.recover.wal`).  A crashed replica then restarts by loading
the newest usable epoch (salvaging corrupt ones, degrading down the
ladder to cold start — never losing a request), replaying the WAL tail,
and resuming every checkpointed request at its exact ``[valid,
prompt_len)`` recompute range instead of a full re-prefill.

The same machinery powers operator-initiated graceful drains and
rolling restarts (:mod:`repro.recover.ops`): zero-drop fleet
operations the cluster simulator executes as first-class events.

The economic argument is the paper's: a 4.3-bit cache is ~0.27x FP16's
bytes to persist, so frequent checkpoints — the thing that makes warm
restart *cheap to keep warm* — are affordable only under compression
(``python -m repro recover``).
"""

from repro.recover.config import RecoverConfig
from repro.recover.ops import FleetOp
from repro.recover.snapshot import (
    EngineSnapshot,
    ReplicaRecoveryState,
    RequestSnapshot,
    corrupt_snapshot_payload,
    snapshot_payload,
    take_snapshot,
    verify_snapshot,
)
from repro.recover.wal import WriteAheadLog

__all__ = [
    "EngineSnapshot",
    "FleetOp",
    "RecoverConfig",
    "ReplicaRecoveryState",
    "RequestSnapshot",
    "WriteAheadLog",
    "corrupt_snapshot_payload",
    "snapshot_payload",
    "take_snapshot",
    "verify_snapshot",
]
