"""Crash-consistent engine snapshots and the restart recovery ladder.

A snapshot is taken at a kernel-event boundary — the only instant a
replica's state is quiescent — and captures everything a warm restart
needs: the live request records (progress copied by value, since live
records keep mutating), the prefix pool's refcount summary, and the
brownout level.  The resident cache itself is not serialized: each epoch
carries a fixed-geometry miniature KV payload keyed by ``(seed, replica,
epoch)`` (:func:`snapshot_payload`), built through the real
:mod:`repro.core.serialization` schema (packed codes + CRC32 checksums)
so at-rest corruption and salvage run the production code.  The
snapshot's byte cost is priced separately, as the *real* cost of
persisting each captured request's context at its admitted KV width
(:func:`repro.migrate.kv_wire_bytes`) — which is the whole point: a
turbo4 cache snapshots ~4x cheaper than FP16, so aggressive intervals
are affordable only under compression.

On restart the recovery ladder runs, newest epoch first:

1. **intact snapshot** — resume every captured request at its exact
   progress (the recompute range is empty);
2. **salvage** — a corrupt epoch (detected by the payload checksums, the
   same machinery :mod:`repro.migrate` uses on the wire) keeps its
   longest valid block prefix; the kept fraction maps onto each
   request's context, rounding down so the resume point never claims
   unverified tokens;
3. **previous epoch** — an unsalvageable epoch degrades to the one
   before it;
4. **cold start** — no usable epoch: every held request re-enters the
   classic retry path.  Degraded, never lost.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.serialization import (
    CacheCorruptionError,
    salvage_state,
    state_digest,
    state_from_arrays,
)
from repro.guard.chaos import CORRUPTION_KINDS, ChaosInjector
from repro.migrate import kv_wire_bytes, miniature_payload
from repro.recover.config import RecoverConfig
from repro.recover.wal import WriteAheadLog

__all__ = [
    "EngineSnapshot",
    "ReplicaRecoveryState",
    "RequestSnapshot",
    "corrupt_snapshot_payload",
    "snapshot_payload",
    "take_snapshot",
    "verify_snapshot",
]

# Child-stream salts: every snapshot RNG purpose draws from its own
# keyed stream so none perturbs another (or the fault schedules).
_PAYLOAD_SALT = 6299
_FATE_SALT = 3571
_KIND_SALT = 9973


@dataclass(frozen=True)
class RequestSnapshot:
    """One request's progress, copied by value at snapshot time."""

    rid: int
    prefilled: int
    generated: int
    first_token_at: Optional[float]
    kv_bits: Optional[float]

    @property
    def context_tokens(self) -> int:
        """KV tokens resident for this request when the snapshot ran."""
        return self.prefilled + self.generated


@dataclass(frozen=True)
class EngineSnapshot:
    """One crash-consistent checkpoint of a replica's engine."""

    replica_id: int
    epoch: int
    time: float
    requests: Tuple[RequestSnapshot, ...]
    #: Whether this epoch was corrupted at rest (rolled at write time
    #: from the seeded fate stream; discovered at restore time by the
    #: payload checksums).
    corrupt: bool
    #: Bytes persisting this snapshot costs at the admitted KV widths.
    nbytes: float
    #: Prefix-pool refcount summary (resident, referenced) — sharing is
    #: rebuilt from content addresses after restore, so counts suffice.
    prefix_resident: int = 0
    prefix_referenced: int = 0
    #: Brownout level name at snapshot time (None without a controller).
    brownout_level: Optional[str] = None
    #: blake2b identity over the canonical snapshot content, including
    #: the serialized KV payload's :func:`repro.core.serialization.
    #: state_digest` — two runs snapshotting the same state digest equal.
    #: It labels the ``snapshot_taken`` trace mark; no restore checks it.
    digest: str = ""


@dataclass
class ReplicaRecoveryState:
    """Per-replica checkpoint bookkeeping the simulator carries."""

    snapshots: Deque[EngineSnapshot]
    wal: WriteAheadLog
    #: Next epoch number to write.
    epoch: int = 0
    #: Records evicted by a crash, held for the warm restart that ends
    #: the downtime (the cold path re-dispatches them immediately).
    pending: List[object] = field(default_factory=list)

    @classmethod
    def fresh(cls, replica_id: int, keep_epochs: int) -> "ReplicaRecoveryState":
        return cls(
            snapshots=deque(maxlen=keep_epochs),
            wal=WriteAheadLog(clock=f"replica{replica_id}"),
        )


def snapshot_payload(
    replica_id: int, epoch: int, config: RecoverConfig
) -> Dict[str, np.ndarray]:
    """Serialize the miniature faithful KV state for one snapshot epoch.

    Keyed ``[seed, salt, replica, epoch]`` — deterministic per epoch,
    independent of the migration payload streams (different salt) and of
    every other replica/epoch — and packed at 4 bits per code.
    """
    return miniature_payload(
        [config.seed, _PAYLOAD_SALT, replica_id, epoch], 4, config
    )


def corrupt_snapshot_payload(
    arrays: Dict[str, np.ndarray],
    replica_id: int,
    epoch: int,
    config: RecoverConfig,
):
    """Damage one snapshot payload the way rest corruption would.

    The corruption *kind* (bit flip, zeroed scale, NaN poison,
    truncation) and the victim array are both drawn from streams keyed
    ``[seed, salt, replica, epoch]``, so a given epoch is always damaged
    the same way — restarts replay byte-identically.  Returns
    ``(damaged_arrays, chaos_event)``.
    """
    kind_rng = np.random.default_rng([config.seed, _KIND_SALT, replica_id, epoch])
    kind = CORRUPTION_KINDS[int(kind_rng.integers(len(CORRUPTION_KINDS)))]
    injector_seed = int(
        np.random.default_rng(
            [config.seed, _FATE_SALT, replica_id, epoch]
        ).integers(1 << 31)
    )
    return ChaosInjector(seed=injector_seed).corrupt(arrays, kind)


def _roll_corrupt(replica_id: int, epoch: int, config: RecoverConfig) -> bool:
    """Seeded at-rest-fate roll for one written epoch."""
    if config.corrupt_rate <= 0.0:
        return False
    u = float(
        np.random.default_rng(
            [config.seed, _FATE_SALT, replica_id, epoch, 1]
        ).uniform()
    )
    return u < config.corrupt_rate


def take_snapshot(
    replica_id: int,
    engine,
    epoch: int,
    now: float,
    config: RecoverConfig,
    model,
    base_kv_bits: float,
) -> EngineSnapshot:
    """Checkpoint one replica's engine at a kernel-event boundary."""
    requests = []
    for rid in list(engine.running) + list(engine.waiting) + list(engine.migrating):
        rec = engine.records[rid]
        requests.append(
            RequestSnapshot(
                rid=rid,
                prefilled=rec.prefilled,
                generated=rec.generated,
                first_token_at=rec.first_token_at,
                kv_bits=rec.kv_bits,
            )
        )
    nbytes = sum(
        kv_wire_bytes(
            model,
            snap.context_tokens,
            snap.kv_bits if snap.kv_bits is not None else base_kv_bits,
        )
        for snap in requests
    )
    pool = engine.prefix_pool
    refcounts = pool.refcount_snapshot() if pool is not None else {}
    level = engine.brownout_level
    kv_digest = state_digest(snapshot_payload(replica_id, epoch, config))
    header = {
        "replica": replica_id,
        "epoch": epoch,
        "t": float(now),
        "kv": kv_digest,
        "prefix": refcounts,
        "brownout": level.name if level is not None else None,
    }
    h = hashlib.blake2b(digest_size=16)
    h.update(json.dumps(header, sort_keys=True).encode())
    for snap in requests:
        h.update(
            json.dumps(
                [snap.rid, snap.prefilled, snap.generated, snap.first_token_at,
                 snap.kv_bits],
                sort_keys=True,
            ).encode()
        )
    return EngineSnapshot(
        replica_id=replica_id,
        epoch=epoch,
        time=float(now),
        requests=tuple(requests),
        corrupt=_roll_corrupt(replica_id, epoch, config),
        nbytes=float(nbytes),
        prefix_resident=len(refcounts),
        prefix_referenced=sum(1 for c in refcounts.values() if c > 0),
        brownout_level=header["brownout"],
        digest=h.hexdigest(),
    )


def verify_snapshot(
    snapshot: EngineSnapshot, config: RecoverConfig
) -> Tuple[int, int]:
    """Run one epoch through the checksum/salvage machinery.

    Returns ``(kept_tokens, total_tokens)`` over the miniature payload:
    ``kept == total`` for an intact epoch, ``0`` for an unusable one
    (salvage disabled, dead prefix, or unsalvageable metadata) — the
    ladder then degrades to the previous epoch.
    """
    total = config.payload_tokens
    if not snapshot.corrupt:
        return total, total
    if not config.salvage:
        return 0, total
    arrays = snapshot_payload(snapshot.replica_id, snapshot.epoch, config)
    damaged, _event = corrupt_snapshot_payload(
        arrays, snapshot.replica_id, snapshot.epoch, config
    )
    try:
        state_from_arrays(damaged)
        return total, total  # the damage missed everything checksummed
    except CacheCorruptionError:
        pass
    try:
        result = salvage_state(damaged)
    except CacheCorruptionError:
        return 0, total  # metadata gone: nothing to anchor a prefix to
    return int(result.state.cache.seq_len), total
