"""Array-of-struct request bookkeeping for the serving engine.

The engine's decode inner loop touches a handful of per-request fields
(status, generated count, first-token flag, admitted KV width) for every
running request on every step.  As plain dataclass attributes those
reads/writes are pointer-chasing Python; as preallocated NumPy columns
keyed by a recycled slot index they are single gather/scatter ops over
the whole batch.

:class:`RequestColumns` owns the columns and the free-list; a bound
:class:`~repro.serving.request.RequestRecord` stores ``(_cols, _slot)``
and its hot properties read/write the columns directly (see
``request.py``), so there is exactly one authoritative copy of each
field at any time — no mirror to drift out of sync.  Unbinding copies
the column values back into plain per-record storage, which is how
records survive leaving an engine (handoff, eviction, terminal states
read later by metrics).

:class:`RunningBatch` is the engine's running batch: the request ids in
admission order, plus each member's column slot and allocator slot as
int64 arrays, so a step gathers the batch's columns without walking the
records.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.serving.allocator import PagedKVAllocator
from repro.serving.request import (
    _STATUS_CODES,
    RequestRecord,
)

__all__ = ["RequestColumns", "RunningBatch"]

_INIT_SLOTS = 64


class RequestColumns:
    """Preallocated per-request state columns with free-list recycling."""

    def __init__(self, capacity: int = _INIT_SLOTS):
        self.capacity = capacity
        #: :class:`RequestStatus` codes (index into ``request._STATUS_MEMBERS``).
        self.status = np.zeros(capacity, dtype=np.int8)
        self.generated = np.zeros(capacity, dtype=np.int64)
        self.prefilled = np.zeros(capacity, dtype=np.int64)
        #: ``first_token_at`` split into a validity flag plus a value so the
        #: "has the first token landed yet?" test is a plain boolean column.
        self.first_flag = np.zeros(capacity, dtype=bool)
        self.first_at = np.zeros(capacity, dtype=np.float64)
        #: Admitted KV width; NaN encodes ``None`` (not yet assigned).
        self.kv_bits = np.full(capacity, np.nan, dtype=np.float64)
        self.shared_tokens = np.zeros(capacity, dtype=np.int64)
        self.shared_tail_tokens = np.zeros(capacity, dtype=np.int64)
        # Immutable per-request geometry, copied at bind time so the
        # decode step can compute ``done`` / ``context_len`` without
        # touching the Request objects.
        self.prompt_len = np.zeros(capacity, dtype=np.int64)
        self.gen_len = np.zeros(capacity, dtype=np.int64)
        self._free = list(range(capacity - 1, -1, -1))

    def _grow(self) -> None:
        old = self.capacity
        self.capacity = old * 2
        for name in (
            "status", "generated", "prefilled", "first_flag", "first_at",
            "kv_bits", "shared_tokens", "shared_tail_tokens",
            "prompt_len", "gen_len",
        ):
            col = getattr(self, name)
            fresh = np.empty(self.capacity, dtype=col.dtype)
            fresh[:old] = col
            setattr(self, name, fresh)
        self._free.extend(range(self.capacity - 1, old - 1, -1))

    def bind(self, record: RequestRecord) -> int:
        """Move ``record``'s hot fields into a column slot.

        The record's properties switch to column mode, so every later
        read/write anywhere in the codebase hits the columns.  A record
        already bound elsewhere (a handoff arriving from another engine)
        is unbound from its old columns first — authority moves, values
        travel with it.
        """
        if record._cols is not None:
            record._cols.unbind(record)
        if not self._free:
            self._grow()
        slot = self._free.pop()
        # Read the plain values *before* flipping the record to column
        # mode; afterwards the properties resolve into the columns.
        status = record.status
        self.generated[slot] = record.generated
        self.prefilled[slot] = record.prefilled
        first = record.first_token_at
        self.first_flag[slot] = first is not None
        self.first_at[slot] = first if first is not None else 0.0
        bits = record.kv_bits
        self.kv_bits[slot] = np.nan if bits is None else bits
        self.shared_tokens[slot] = record.shared_tokens
        self.shared_tail_tokens[slot] = record.shared_tail_tokens
        self.prompt_len[slot] = record.request.prompt_len
        self.gen_len[slot] = record.request.gen_len
        self.status[slot] = _STATUS_CODES[status]
        record._cols = self
        record._slot = slot
        return slot

    def unbind(self, record: RequestRecord) -> None:
        """Copy column values back to plain storage and recycle the slot.

        No-op when the record is not bound to *these* columns (it may
        already live in another engine's columns).
        """
        if record._cols is not self:
            return
        slot = record._slot
        # Capture through the properties (still column-mode), then flip.
        status = record.status
        generated = record.generated
        prefilled = record.prefilled
        first = record.first_token_at
        bits = record.kv_bits
        shared = record.shared_tokens
        shared_tail = record.shared_tail_tokens
        record._cols = None
        record._slot = -1
        record.status = status
        record.generated = generated
        record.prefilled = prefilled
        record.first_token_at = first
        record.kv_bits = bits
        record.shared_tokens = shared
        record.shared_tail_tokens = shared_tail
        self.first_flag[slot] = False
        self.kv_bits[slot] = np.nan
        self._free.append(slot)


class RunningBatch:
    """Running request ids in admission order, with their slots.

    Reads behave as on a list of ids (``len``, ``in``, iteration,
    ``reversed``, ``list(...)``); :attr:`ids` is that list.
    :meth:`append`, :meth:`remove` and :meth:`clear` also keep each
    member's :class:`RequestColumns` slot and its
    :meth:`PagedKVAllocator.slot_of` slot, read at append.  Both are
    stable while the request runs: a record stays bound from submit to
    departure, every path appends only after the allocation exists, and
    every path that releases one removes the request within the same
    engine call.  :meth:`slots` returns them as two int64 arrays, built
    anew (never modified in place) on the first read after a mutation,
    so a caller may keep the pair across later mutations.
    """

    def __init__(
        self, records: Dict[int, RequestRecord], allocator: PagedKVAllocator
    ):
        self.ids: List[int] = []
        self._records = records
        self._allocator = allocator
        self._col_slots: List[int] = []
        self._alloc_slots: List[int] = []
        self._arrays: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def append(self, request_id: int) -> None:
        self.ids.append(request_id)
        self._col_slots.append(self._records[request_id]._slot)
        self._alloc_slots.append(self._allocator.slot_of(request_id))
        self._arrays = None

    def remove(self, request_id: int) -> None:
        i = self.ids.index(request_id)
        del self.ids[i], self._col_slots[i], self._alloc_slots[i]
        self._arrays = None

    def clear(self) -> None:
        self.ids.clear()
        self._col_slots.clear()
        self._alloc_slots.clear()
        self._arrays = None

    def slots(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(column slots, allocator slots)`` of the members, in order."""
        if self._arrays is None:
            self._arrays = (
                np.array(self._col_slots, dtype=np.int64),
                np.array(self._alloc_slots, dtype=np.int64),
            )
        return self._arrays

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __reversed__(self) -> Iterator[int]:
        return reversed(self.ids)

    def __contains__(self, request_id: object) -> bool:
        return request_id in self.ids

    def __repr__(self) -> str:
        return f"RunningBatch({self.ids!r})"
