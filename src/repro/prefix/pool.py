"""Content-addressed prefix KV block pool with copy-on-write sharing.

Every request in the serving stack so far pays full prefill and owns
every KV block privately, even though fleet traffic is dominated by
*shared* prefixes: system prompts, few-shot scaffolds, multi-turn
session history.  TurboAttention makes the cache the cheap resource —
4/2-bit FlashQ blocks mean a GiB of HBM holds 4-8x more shared prefix
than FP16 could — so a paged, content-addressed prefix cache turns the
paper's compression into a throughput multiplier.

**Block identity.**  A prefix is a token stream; its cache blocks are
identified by a *hash chain* over whole blocks of ``block_tokens``
tokens: ``key_i = H(key_{i-1} || content_i)``.  Two requests share
block ``i`` iff their first ``(i+1) * block_tokens`` tokens are
identical — the content-addressed property.  The simulator does not
materialize token values; a workload models content identity with a
``prefix_id`` (all requests carrying the same id share the same
underlying token stream), so the chain is seeded from the id.  A prompt
that *is exactly* the shared prefix may additionally share the partial
tail block (key extended with the tail length); any longer prompt
diverges inside that block and keeps it private.

**Sharing rules** (the ``kv_bits`` ownership answer):

* A shared block's storage width is the **max across its sharers**.  A
  request admitted at lower precision (brownout) reads a
  wider-than-needed shared block for free; a request requiring *more*
  bits than the block currently stores re-prefills those tokens at the
  wider width (an ``upgrade`` — counted as a miss, the block stays
  shared).  Brownout downshifts therefore only ever apply to a
  request's **private tail blocks**; shared prefix blocks never degrade
  under a sharer's feet.
* **Copy-on-write**: the first decode token of a request whose prompt
  ends inside a shared tail block must not mutate its sharers' bytes —
  the request drops its reference and re-allocates the tail privately
  (:meth:`PrefixPool.cow_tail`).  Per-head precision escalation
  (:mod:`repro.guard.escalation`) rewriting a shared block likewise
  forces a private copy (:meth:`PrefixPool.cow_all`).

**Eviction.**  Blocks are refcounted; a block whose last sharer
releases it stays cached (warm) until evicted.  Eviction victimizes
only unreferenced blocks, lowest priority first, then least recently
used — driven by the same KV-pressure signal the admission gate reads
(the engine evicts when allocator utilization crosses
``PrefixCacheConfig.evict_pressure``, and on-demand when a private
allocation would otherwise OOM).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation only; the pool is
    # duck-typed over the allocator to keep this package import-light.
    from repro.serving.allocator import PagedKVAllocator
    from repro.serving.request import RequestRecord

__all__ = [
    "PrefixCacheConfig",
    "SharedBlock",
    "PrefixAcquisition",
    "PrefixPool",
    "prefix_block_keys",
]


def prefix_block_keys(
    prefix_id: int, n_blocks: int, block_tokens: int, tail_tokens: int = 0
) -> List[str]:
    """Hash-chain block keys for the first ``n_blocks`` whole blocks of
    the prefix stream ``prefix_id`` (plus one partial-tail key when
    ``tail_tokens > 0``).

    ``key_i`` commits to the entire token prefix up to block ``i``: the
    chain folds each block's content digest into its predecessor's key,
    so equal keys imply equal token prefixes and a single diverging
    block changes every key after it.
    """
    if n_blocks < 0 or tail_tokens < 0:
        raise ValueError("n_blocks and tail_tokens must be >= 0")
    if tail_tokens >= block_tokens:
        raise ValueError("tail_tokens must be smaller than a block")
    keys: List[str] = []
    link = hashlib.blake2b(
        f"prefix:{prefix_id}:bt{block_tokens}".encode(), digest_size=16
    ).digest()
    for i in range(n_blocks):
        content = hashlib.blake2b(
            f"{prefix_id}:block:{i}".encode(), digest_size=16
        ).digest()
        link = hashlib.blake2b(link + content, digest_size=16).digest()
        keys.append(link.hex())
    if tail_tokens:
        tail = hashlib.blake2b(
            link + f"tail:{tail_tokens}".encode(), digest_size=16
        ).digest()
        keys.append(tail.hex())
    return keys


@dataclass(frozen=True)
class PrefixCacheConfig:
    """Prefix-cache tunables (presence on an engine config enables it).

    Attributes
    ----------
    evict_pressure:
        Allocator-utilization high-water mark: each engine iteration
        evicts unreferenced shared blocks (priority, then LRU) until
        utilization falls back under it.  The same resident-blocks
        signal feeds ``kv_pressure`` for admission and brownout, so the
        cache yields capacity exactly when the gate starts pushing back.
    max_pool_fraction:
        Hard cap on the fraction of device blocks the pool may hold
        (referenced + cached), so one giant hot prefix set cannot starve
        private decode growth outright.
    """

    evict_pressure: float = 0.9
    max_pool_fraction: float = 0.75

    def __post_init__(self) -> None:
        if not 0.0 < self.evict_pressure <= 1.0:
            raise ValueError("evict_pressure must lie in (0, 1]")
        if not 0.0 < self.max_pool_fraction <= 1.0:
            raise ValueError("max_pool_fraction must lie in (0, 1]")


@dataclass
class SharedBlock:
    """One pool-resident KV block (exactly one allocator block slot)."""

    key: str
    tokens: int
    #: Sharers: request id -> the KV width that sharer reads at.
    holders: Dict[int, float] = field(default_factory=dict)
    #: Storage width: max over all sharers past and present (stored data
    #: never narrows — see the module docstring's ownership rules).
    kv_bits: float = 0.0
    last_used: float = 0.0
    #: Highest scheduling priority that ever touched the block; eviction
    #: victimizes low priority first so a burst of batch traffic cannot
    #: flush an interactive tenant's system prompt.
    priority: int = 0
    #: Optional real payload (quantized arrays) for bit-exactness tests;
    #: the simulator itself only tracks accounting.
    payload: Optional[object] = None

    @property
    def refcount(self) -> int:
        return len(self.holders)


@dataclass(frozen=True)
class PrefixAcquisition:
    """What one :meth:`PrefixPool.acquire` bought a request."""

    #: Prompt tokens resident in shared blocks (hits + inserts + tail).
    shared_tokens: int = 0
    #: Tokens whose prefill is skipped (already-resident, wide-enough
    #: blocks) — the TTFT win.
    hit_tokens: int = 0
    #: Tokens of a shared *partial tail* block (0 if none); the first
    #: decode write to it triggers copy-on-write.
    tail_tokens: int = 0
    #: Blocks newly inserted (this request prefills them, then shares).
    inserted_blocks: int = 0
    #: Blocks re-prefilled at a wider width for this sharer.
    upgraded_blocks: int = 0


class PrefixPool:
    """Refcounted content-addressed block pool over a paged allocator."""

    def __init__(
        self,
        allocator: "PagedKVAllocator",
        config: PrefixCacheConfig = PrefixCacheConfig(),
    ):
        self.allocator = allocator
        self.config = config
        self.block_tokens = allocator.block_tokens
        self._blocks: Dict[str, SharedBlock] = {}
        self._held: Dict[int, List[str]] = {}
        self._tail_key: Dict[int, str] = {}
        self._key_cache: Dict[Tuple[int, int, int], List[str]] = {}
        # -- cumulative stats (operator counters, monotone) -----------------
        self.hits_tokens = 0
        self.lookup_tokens = 0
        self.inserted_blocks = 0
        self.upgraded_blocks = 0
        self.evicted_blocks = 0
        self.cow_copies = 0
        self.peak_resident_blocks = 0

    # -- queries -------------------------------------------------------------
    @property
    def resident_blocks(self) -> int:
        """Pool-owned allocator blocks (referenced + warm cache)."""
        return len(self._blocks)

    @property
    def referenced_blocks(self) -> int:
        return sum(1 for b in self._blocks.values() if b.holders)

    def refcount_snapshot(self) -> Dict[str, int]:
        """Frozen ``{block key -> refcount}`` view, sorted by key.

        The prefix-pool component of a crash-consistent engine snapshot
        (:mod:`repro.recover`).  Counts only: sharing is content-
        addressed, so a restart rebuilds the structure as restored
        requests re-reference their chains; the counts are the audit
        record of what was resident when the checkpoint ran.
        """
        return {
            key: self._blocks[key].refcount for key in sorted(self._blocks)
        }

    def _plan(self, record: "RequestRecord") -> Tuple[List[str], int]:
        """(chain keys, tail tokens) the record's prompt can share."""
        req = record.request
        if req.prefix_id is None or req.shared_prefix_len <= 0:
            return [], 0
        n_full = req.shared_prefix_len // self.block_tokens
        tail = (
            req.shared_prefix_len % self.block_tokens
            if req.prompt_len == req.shared_prefix_len
            else 0
        )
        cache_key = (req.prefix_id, n_full, tail)
        keys = self._key_cache.get(cache_key)
        if keys is None:
            keys = prefix_block_keys(
                req.prefix_id, n_full, self.block_tokens, tail_tokens=tail
            )
            self._key_cache[cache_key] = keys
        return keys, tail

    def probe(self, record: "RequestRecord") -> int:
        """Read-only warmth: prompt tokens already resident wide enough
        for this record.  Routers and deadline shedding call this; it
        never touches LRU state."""
        keys, tail = self._plan(record)
        bits = record.kv_bits if record.kv_bits is not None else 0.0
        warm = 0
        for i, key in enumerate(keys):
            block = self._blocks.get(key)
            if block is None or block.kv_bits < bits:
                continue
            warm += tail if tail and i == len(keys) - 1 else self.block_tokens
        return warm

    # -- acquisition / release ----------------------------------------------
    def acquire(self, record: "RequestRecord", now: float) -> PrefixAcquisition:
        """Reference (creating as needed) the shared blocks covering the
        record's prompt prefix.  Blocks the allocator cannot supply —
        even after evicting warm cache — simply stay private; sharing is
        best-effort and never fails an admission by itself."""
        rid = record.request.request_id
        if rid in self._held:
            raise ValueError(f"request {rid} already holds prefix blocks")
        keys, tail = self._plan(record)
        if not keys:
            return PrefixAcquisition()
        bits = (
            record.kv_bits if record.kv_bits is not None else 0.0
        )
        held: List[str] = []
        shared = hit = inserted = upgraded = 0
        tail_tokens = 0
        for i, key in enumerate(keys):
            is_tail = bool(tail) and i == len(keys) - 1
            tokens = tail if is_tail else self.block_tokens
            block = self._blocks.get(key)
            if block is None:
                if not self._take_block_slot():
                    break  # no capacity: the rest of the prefix is private
                block = SharedBlock(
                    key=key, tokens=tokens, kv_bits=bits,
                    last_used=now, priority=record.request.priority,
                )
                self._blocks[key] = block
                self.inserted_blocks += 1
                inserted += 1
            elif block.kv_bits < bits:
                # Stored too narrow for this sharer: re-prefill at the
                # wider width.  The block stays shared; width = max.
                block.kv_bits = bits
                self.upgraded_blocks += 1
                upgraded += 1
            else:
                hit += tokens
                self.hits_tokens += tokens
            block.holders[rid] = bits
            block.last_used = now
            block.priority = max(block.priority, record.request.priority)
            held.append(key)
            shared += tokens
            if is_tail:
                tail_tokens = tokens
        self.lookup_tokens += record.request.prompt_len
        if held:
            self._held[rid] = held
            if tail_tokens:
                self._tail_key[rid] = held[-1]
        self.peak_resident_blocks = max(
            self.peak_resident_blocks, self.resident_blocks
        )
        return PrefixAcquisition(
            shared_tokens=shared,
            hit_tokens=hit,
            tail_tokens=tail_tokens,
            inserted_blocks=inserted,
            upgraded_blocks=upgraded,
        )

    def release(self, rid: int) -> None:
        """Drop every reference ``rid`` holds.  Blocks stay warm-cached
        until evicted; unknown rids are a no-op (waiting requests never
        acquired)."""
        for key in self._held.pop(rid, []):
            self._blocks[key].holders.pop(rid, None)
        self._tail_key.pop(rid, None)

    def cow_tail(self, rid: int) -> Optional[object]:
        """Copy-on-write of the shared partial tail block: the first
        decode token must not mutate bytes other sharers read.  Drops
        ``rid``'s reference to the tail (the caller re-allocates those
        tokens privately) and returns a copy of the block's payload, if
        one is attached, for the private continuation."""
        key = self._tail_key.pop(rid, None)
        if key is None:
            return None
        block = self._blocks[key]
        block.holders.pop(rid, None)
        held = self._held.get(rid)
        if held and held[-1] == key:
            held.pop()
            if not held:
                del self._held[rid]
        self.cow_copies += 1
        return self._copy_payload(block.payload)

    def cow_all(self, rid: int) -> int:
        """Copy-on-write of *every* shared block ``rid`` holds — the
        per-head precision-escalation path, where the guard ladder wants
        to rewrite stored blocks at a wider width than other sharers
        hold.  Returns the token count the caller must re-allocate
        privately."""
        keys = self._held.get(rid, [])
        tokens = sum(self._blocks[k].tokens for k in keys)
        if keys:
            self.cow_copies += len(keys)
        self.release(rid)
        return tokens

    @staticmethod
    def _copy_payload(payload: Optional[object]) -> Optional[object]:
        if payload is None:
            return None
        copy = getattr(payload, "copy", None)
        return copy() if callable(copy) else payload

    # -- payloads (bit-exactness tests attach real quantized arrays) ---------
    def attach_payload(self, key: str, payload: object) -> None:
        self._blocks[key].payload = payload

    def payload(self, key: str) -> Optional[object]:
        return self._blocks[key].payload

    def held_keys(self, rid: int) -> Tuple[str, ...]:
        return tuple(self._held.get(rid, ()))

    # -- allocator plumbing and eviction --------------------------------------
    def _take_block_slot(self) -> bool:
        cap = int(self.allocator.total_blocks * self.config.max_pool_fraction)
        if self.resident_blocks >= cap:
            if not self._evict_one():
                return False
        if self.allocator.take_shared_block():
            return True
        # Allocator is full: try trading a cold cached block for the new
        # one (the new block is about to be referenced; cold loses).
        if self._evict_one():
            return self.allocator.take_shared_block()
        return False

    def _evict_one(self) -> bool:
        victim_key = None
        victim_rank = None
        for key, block in self._blocks.items():
            if block.holders:
                continue
            rank = (block.priority, block.last_used, key)
            if victim_rank is None or rank < victim_rank:
                victim_rank = rank
                victim_key = key
        if victim_key is None:
            return False
        del self._blocks[victim_key]
        self.allocator.release_shared_block()
        self.evicted_blocks += 1
        return True

    def evict_to_free(self, n_blocks: int) -> int:
        """Evict unreferenced blocks until the allocator has at least
        ``n_blocks`` free (or no victims remain).  Returns evictions."""
        evicted = 0
        while self.allocator.free_blocks < n_blocks and self._evict_one():
            evicted += 1
        return evicted

    def evict_under_pressure(self) -> int:
        """The KV-pressure eviction sweep: shrink the warm cache until
        allocator utilization is back under ``evict_pressure``."""
        evicted = 0
        while (
            self.allocator.utilization > self.config.evict_pressure
            and self._evict_one()
        ):
            evicted += 1
        return evicted

    # -- invariants -----------------------------------------------------------
    def check_invariants(self) -> List[str]:
        """Block-conservation audit; empty list = healthy.

        * every resident block occupies exactly one allocator slot;
        * refcounts are consistent with the per-request held lists
          (never negative — structurally a dict, so the check is that
          both sides agree);
        * no request references an evicted block;
        * every shared-tail key is its request's last held block, still
          resident (copy-on-write drops both together).
        """
        problems: List[str] = []
        if self.allocator.shared_blocks != self.resident_blocks:
            problems.append(
                f"allocator accounts {self.allocator.shared_blocks} shared "
                f"blocks but pool holds {self.resident_blocks}"
            )
        holders_view: Dict[int, List[str]] = {}
        for key, block in self._blocks.items():
            if block.refcount < 0:  # pragma: no cover - structurally impossible
                problems.append(f"negative refcount on {key}")
            for rid in block.holders:
                holders_view.setdefault(rid, []).append(key)
        for rid, keys in self._held.items():
            for key in keys:
                if key not in self._blocks:
                    problems.append(f"request {rid} references evicted {key}")
                elif rid not in self._blocks[key].holders:
                    problems.append(f"request {rid} held list desynced on {key}")
        for rid, keys in holders_view.items():
            if set(keys) - set(self._held.get(rid, [])):
                problems.append(f"stray holder entry for request {rid}")
        for rid, key in self._tail_key.items():
            held = self._held.get(rid)
            if key not in self._blocks or not held or held[-1] != key:
                problems.append(f"request {rid} has stale tail key {key}")
        return problems
