"""Paged KV cache allocator.

Memory is managed in fixed blocks of ``block_tokens`` tokens (the paper's
cache blocks double as allocation units — ``B_c = n_b = 64``).  Each
request owns an integer number of blocks covering its context; the final
block is partially used (internal fragmentation, reported).

Byte cost per token derives from the attention method's effective KV bits
and the model geometry — the same arithmetic as
:class:`repro.perf.memory.MemoryModel`, restated per token by
:meth:`repro.perf.e2e.ModelGeometry.kv_bytes_per_token` (which the
migration wire cost shares):

    bytes/token = 2 * kv_heads * head_dim * n_layers * kv_bits / 8

Storage is array-of-struct: per-request state lives in preallocated
NumPy columns (``blocks`` / ``tokens`` / ``bytes_scale``) keyed by a
recycled slot index, with a ``request_id -> slot`` map on the side.  The
serving engine grows every decoding request every step, so the hot path
is :meth:`decode_commit` — one vectorized growth-plus-release pass over
the whole decode batch that reproduces the sequential per-request
arithmetic exactly (integer block counts; the free-block trajectory is a
cumulative sum, so "would any request in order have hit OOM?" is a
single ``min`` test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.perf.attention_costs import MethodSpec
from repro.perf.e2e import ModelGeometry

__all__ = ["PagedKVAllocator"]

_INIT_SLOTS = 64


@dataclass
class _Allocation:
    """Read-only view of one request's allocation (compatibility shim for
    callers that inspect :attr:`PagedKVAllocator._allocs`)."""

    blocks: int
    tokens: int
    #: Per-request multiplier on the method's bytes/token (brownout admits
    #: requests at a reduced KV width, so they pack into fewer blocks).
    bytes_scale: float = 1.0


class PagedKVAllocator:
    """Block-granular KV memory accounting for one device."""

    def __init__(
        self,
        model: ModelGeometry,
        method: MethodSpec,
        budget_bytes: float,
        block_tokens: int = 64,
        paper_harness: bool = True,
    ):
        """``paper_harness=True`` applies the method's workspace factor and
        per-query-head replication — the calibration of
        :func:`repro.perf.memory.paper_memory_model` — so serving capacity
        matches the Figure 6/7a OOM behaviour.  ``False`` gives the
        ideal-packed accounting."""
        if budget_bytes <= 0:
            raise ValueError("budget must be positive")
        if block_tokens <= 0:
            raise ValueError("block_tokens must be positive")
        self.block_tokens = block_tokens
        self.bytes_per_token = model.kv_bytes_per_token(method.kv_bits)
        if paper_harness:
            replication = max(1, model.n_heads // model.n_kv_heads)
            self.bytes_per_token *= method.cache_workspace_factor * replication
        self.total_blocks = int(budget_bytes // (self.bytes_per_token * block_tokens))
        self.free_blocks = self.total_blocks
        # Array-of-struct bookkeeping: request_id -> slot, slots recycled
        # through a free list; columns preallocated and doubled on demand.
        self._index: Dict[int, int] = {}
        self._free_slots: List[int] = list(range(_INIT_SLOTS - 1, -1, -1))
        self._slot_blocks = np.zeros(_INIT_SLOTS, dtype=np.int64)
        self._slot_tokens = np.zeros(_INIT_SLOTS, dtype=np.int64)
        self._slot_scale = np.ones(_INIT_SLOTS, dtype=np.float64)
        #: Blocks owned by the shared prefix pool (repro.prefix) rather
        #: than any single request; they count as used capacity.
        self.shared_blocks = 0

    # -- slot management ------------------------------------------------------
    def _acquire_slot(self, request_id: int) -> int:
        if not self._free_slots:
            old = len(self._slot_blocks)
            grow = old  # double
            self._slot_blocks = np.concatenate(
                [self._slot_blocks, np.zeros(grow, dtype=np.int64)]
            )
            self._slot_tokens = np.concatenate(
                [self._slot_tokens, np.zeros(grow, dtype=np.int64)]
            )
            self._slot_scale = np.concatenate(
                [self._slot_scale, np.ones(grow, dtype=np.float64)]
            )
            self._free_slots.extend(range(old + grow - 1, old - 1, -1))
        slot = self._free_slots.pop()
        self._index[request_id] = slot
        return slot

    def slot_of(self, request_id: int) -> int:
        """Slot index of an existing allocation (-1 when none).  Slots are
        stable for the allocation's lifetime, so callers batching
        :meth:`decode_commit` may cache them."""
        return self._index.get(request_id, -1)

    @property
    def _allocs(self) -> Dict[int, _Allocation]:
        """Compatibility view of per-request allocations (tests inspect it)."""
        return {
            rid: _Allocation(
                blocks=int(self._slot_blocks[slot]),
                tokens=int(self._slot_tokens[slot]),
                bytes_scale=float(self._slot_scale[slot]),
            )
            for rid, slot in self._index.items()
        }

    def request_ids(self) -> List[int]:
        """Request ids holding live allocations."""
        return list(self._index)

    # -- queries -----------------------------------------------------------
    def blocks_for(self, tokens: int, bytes_scale: float = 1.0) -> int:
        """Blocks covering ``tokens`` at ``bytes_scale`` times the method's
        bytes/token.  A brownout request stored at 2.3 effective bits under
        a 3.3-bit method has ``bytes_scale = 2.3/3.3`` and packs ~1.4x more
        tokens into each fixed-size block."""
        if bytes_scale == 1.0:
            return -(-tokens // self.block_tokens)
        if bytes_scale <= 0:
            raise ValueError("bytes_scale must be positive")
        eff = tokens * bytes_scale
        blocks = int(eff // self.block_tokens)
        return blocks + (1 if eff > blocks * self.block_tokens else 0)

    def _blocks_for_array(
        self, tokens: np.ndarray, bytes_scale: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`blocks_for` — elementwise-identical arithmetic
        (the ``bytes_scale == 1`` entries reduce to exact integer ceil-div
        through the float path because all involved values are exactly
        representable)."""
        if np.all(bytes_scale == 1.0):
            return -(-tokens // self.block_tokens)
        eff = tokens * bytes_scale
        blocks = (eff // self.block_tokens).astype(np.int64)
        return blocks + (eff > blocks * self.block_tokens)

    def blocks_needed(
        self, request_id: int, tokens: int, bytes_scale: float = 1.0
    ) -> int:
        """Additional free blocks a :meth:`grow` to ``tokens`` would take
        (0 if the allocation already covers it).  Existing allocations
        keep their stored scale, exactly as ``grow`` does."""
        slot = self._index.get(request_id)
        have = int(self._slot_blocks[slot]) if slot is not None else 0
        scale = float(self._slot_scale[slot]) if slot is not None else bytes_scale
        return max(self.blocks_for(tokens, scale) - have, 0)

    @property
    def used_blocks(self) -> int:
        return self.total_blocks - self.free_blocks

    @property
    def utilization(self) -> float:
        """Fraction of device blocks currently allocated."""
        return self.used_blocks / self.total_blocks if self.total_blocks else 0.0

    @property
    def internal_fragmentation(self) -> float:
        """Allocated-but-unused token slots as a fraction of allocated."""
        if not self._index:
            return 0.0
        slots = np.fromiter(self._index.values(), dtype=np.int64, count=len(self._index))
        alloc_tokens = int(self._slot_blocks[slots].sum()) * self.block_tokens
        used_tokens = int(self._slot_tokens[slots].sum())
        if alloc_tokens == 0:
            return 0.0
        return (alloc_tokens - used_tokens) / alloc_tokens

    # -- mutations -----------------------------------------------------------
    def grow(self, request_id: int, tokens: int, bytes_scale: float = 1.0) -> bool:
        """Create or extend an allocation to cover ``tokens``; False = OOM.

        ``bytes_scale`` is fixed at the allocation's creation (the request's
        admitted KV width never changes mid-flight); growth calls reuse the
        stored scale.
        """
        slot = self._index.get(request_id)
        if slot is None:
            have = 0
            scale = bytes_scale
        else:
            have = int(self._slot_blocks[slot])
            scale = float(self._slot_scale[slot])
        need = self.blocks_for(tokens, scale) - have
        if need > self.free_blocks:
            return False
        self.free_blocks -= max(need, 0)
        if slot is None:
            slot = self._acquire_slot(request_id)
            self._slot_scale[slot] = scale
        self._slot_blocks[slot] = have + max(need, 0)
        self._slot_tokens[slot] = tokens
        return True

    def release(self, request_id: int) -> None:
        slot = self._index.pop(request_id, None)
        if slot is not None:
            self.free_blocks += int(self._slot_blocks[slot])
            self._slot_blocks[slot] = 0
            self._slot_tokens[slot] = 0
            self._slot_scale[slot] = 1.0
            self._free_slots.append(slot)

    def release_all(self) -> None:
        """Drop every per-request allocation (engine reset)."""
        for rid in list(self._index):
            self.release(rid)

    def decode_commit(
        self,
        slots: np.ndarray,
        tokens: np.ndarray,
        release_mask: np.ndarray,
        release_ids: List[int],
    ) -> bool:
        """One decode step's growth/release pass over the whole batch.

        ``slots``/``tokens``/``release_mask`` are aligned arrays in batch
        processing order: a release row frees the slot's blocks (request
        finished), a growth row extends the slot to ``tokens`` at its
        stored scale.  Returns False — with **no state mutated** — if the
        sequential per-request equivalent would have hit OOM anywhere
        along the way (the caller then falls back to the per-request loop
        with its preemption policy).  On success the final state is
        exactly the sequential loop's: block counts are integers, so the
        batched arithmetic is the same arithmetic.
        """
        if slots.size == 0:
            return True
        have = self._slot_blocks[slots]
        target = self._blocks_for_array(tokens, self._slot_scale[slots])
        need = np.maximum(target - have, 0)
        # Free-block trajectory of the in-order sequential loop: releases
        # add the row's held blocks, growths subtract the row's need.
        delta = np.where(release_mask, have, -need)
        trajectory = np.cumsum(delta)
        if self.free_blocks + int(trajectory.min()) < 0:
            return False
        self.free_blocks += int(trajectory[-1])
        grow_mask = ~release_mask
        gi = slots[grow_mask]
        self._slot_blocks[gi] = have[grow_mask] + need[grow_mask]
        self._slot_tokens[gi] = tokens[grow_mask]
        ri = slots[release_mask]
        self._slot_blocks[ri] = 0
        self._slot_tokens[ri] = 0
        self._slot_scale[ri] = 1.0
        for rid in release_ids:
            del self._index[rid]
        self._free_slots.extend(ri.tolist())
        return True

    def bulk_grow(self, slots: np.ndarray, tokens: np.ndarray) -> bool:
        """Grow every slot to its target token count, atomically.

        Equivalent to growing each slot once per simulated step until it
        reaches its target: block demand is monotone in tokens and no
        blocks are released in between, so the sequential free-block
        trajectory is monotone decreasing and "would any intermediate
        grow have OOMed?" collapses to one end-state test.  Returns False
        with no state mutated when the demand exceeds free blocks (the
        caller falls back to per-step growth and its preemption policy).
        """
        if slots.size == 0:
            return True
        have = self._slot_blocks[slots]
        target = self._blocks_for_array(tokens, self._slot_scale[slots])
        need = np.maximum(target - have, 0)
        total = int(need.sum())
        if total > self.free_blocks:
            return False
        self.free_blocks -= total
        self._slot_blocks[slots] = have + need
        self._slot_tokens[slots] = tokens
        return True

    # -- shared-pool slots (repro.prefix) -------------------------------------
    def take_shared_block(self) -> bool:
        """Move one free block into the shared prefix pool's ownership.

        Shared blocks hold content-addressed prefix KV that multiple
        requests reference; they are accounted at the method's full
        width (a shared block's width is the max across its sharers, so
        per-request ``bytes_scale`` discounts never apply to it).
        """
        if self.free_blocks < 1:
            return False
        self.free_blocks -= 1
        self.shared_blocks += 1
        return True

    def release_shared_block(self, n: int = 1) -> None:
        """Return ``n`` pool-owned blocks to the free list (eviction)."""
        if n < 0 or n > self.shared_blocks:
            raise ValueError(
                f"cannot release {n} shared blocks; pool owns {self.shared_blocks}"
            )
        self.shared_blocks -= n
        self.free_blocks += n
