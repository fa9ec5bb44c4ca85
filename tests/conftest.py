"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; tests that need other seeds create their own."""
    return np.random.default_rng(12345)


@pytest.fixture
def qkv(rng):
    """Small multi-head Q/K/V triple of shape (4, 96, 32)."""
    h, n, d = 4, 96, 32
    return (
        rng.standard_normal((h, n, d)),
        rng.standard_normal((h, n, d)),
        rng.standard_normal((h, n, d)),
    )


@pytest.fixture
def running_slots_checked(monkeypatch):
    """Check the running batch's slot arrays after every engine step.

    Wraps ``ServingEngine.step`` and ``ServingEngine.decode_steps``: after
    each call, the two arrays of ``engine.running.slots()`` must equal a
    fresh gather of every member's column slot and allocator slot.
    Returns the list of checked calls, by method name.
    """
    from repro.serving import ServingEngine

    checked = []

    def wrap(name):
        real = getattr(ServingEngine, name)

        def checking(self, *args, **kwargs):
            result = real(self, *args, **kwargs)
            col_slots, alloc_slots = self.running.slots()
            ids = list(self.running)
            assert col_slots.tolist() == [self.records[r]._slot for r in ids]
            assert alloc_slots.tolist() == [self.allocator.slot_of(r) for r in ids]
            checked.append(name)
            return result

        monkeypatch.setattr(ServingEngine, name, checking)

    wrap("step")
    wrap("decode_steps")
    return checked
