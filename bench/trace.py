"""In-memory span recorder for the benchmark's traced run.

Call sites in ``repro`` use ``from x import y``, so a function is patched
at the module that *calls* it (``repro.serving.engine.tp_step_latency``,
``repro.cluster.simulator.take_snapshot``, ...) and a method on its class
(``ServingEngine.step``).  Every call of a patched target records one span
``(name, start, end, parent)``; spans stay in typed arrays until the run
ends.  A span's self time is its duration minus the durations of the spans
it directly encloses.

Observers attached to a few targets record counts where the work happens:
the running batch at each engine iteration, integer-GEMM operations from
the operand shapes, decoded tokens, and allocator utilization.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["SpanRecorder", "TARGETS"]


def _observe_step(rec: "SpanRecorder", engine, args, result) -> None:
    rec.counts["engine.iterations"] += 1
    rec.counts["engine.batch_sum"] += len(engine.running)
    rec.counts["alloc.util_peak"] = max(
        rec.counts["alloc.util_peak"], engine.allocator.utilization
    )


def _observe_decode(rec: "SpanRecorder", engine, args, result) -> None:
    # A bulk stretch of ``result`` iterations over an unchanged batch.
    batch = len(engine.running)
    rec.counts["engine.iterations"] += result
    rec.counts["engine.batch_sum"] += batch * result
    rec.counts["engine.decode_tokens"] += batch * result
    if result:
        rec.counts["alloc.util_peak"] = max(
            rec.counts["alloc.util_peak"], engine.allocator.utilization
        )


def _observe_int_matmul(rec: "SpanRecorder", a, args, result) -> None:
    b = args[0]
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    m, k = a.shape[-2:]
    n = b.shape[-1]
    rec.counts["quant.int_ops"] += 2 * int(np.prod(batch, dtype=np.int64)) * m * n * k


def _observe_kernel_decode(rec: "SpanRecorder", qs, args, result) -> None:
    rec.counts["core.decode_tokens"] += int(np.shape(qs)[0])


def _observe_pop(rec: "SpanRecorder", scheduler, args, result) -> None:
    if result is not None:
        rec.counts["sim.events"] += 1


#: ``(span name, module, attribute path, observer)``.  The observer sees
#: the first positional argument (``self`` for methods), the remaining
#: positional arguments and the result.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("engine.step", "repro.serving.engine", "ServingEngine.step", _observe_step),
    ("engine.decode", "repro.serving.engine", "ServingEngine.decode_steps", _observe_decode),
    ("perf.step_latency", "repro.serving.engine", "tp_step_latency", None),
    ("perf.batch_latency", "repro.serving.engine", "decode_step_latency_batch", None),
    ("alloc.grow", "repro.serving.allocator", "PagedKVAllocator.grow", None),
    ("alloc.release", "repro.serving.allocator", "PagedKVAllocator.release", None),
    ("alloc.decode_commit", "repro.serving.allocator", "PagedKVAllocator.decode_commit", None),
    ("alloc.bulk_grow", "repro.serving.allocator", "PagedKVAllocator.bulk_grow", None),
    ("prefix.acquire", "repro.prefix.pool", "PrefixPool.acquire", None),
    ("prefix.probe", "repro.prefix.pool", "PrefixPool.probe", None),
    ("prefix.release", "repro.prefix.pool", "PrefixPool.release", None),
    ("prefix.cow_tail", "repro.prefix.pool", "PrefixPool.cow_tail", None),
    ("prefix.cow_all", "repro.prefix.pool", "PrefixPool.cow_all", None),
    ("prefix.evict_to_free", "repro.prefix.pool", "PrefixPool.evict_to_free", None),
    ("prefix.evict_under_pressure", "repro.prefix.pool", "PrefixPool.evict_under_pressure", None),
    ("cluster.route", "repro.cluster.router", "RoundRobinRouter.choose", None),
    ("cluster.route", "repro.cluster.router", "LeastOutstandingTokensRouter.choose", None),
    ("cluster.route", "repro.cluster.router", "LeastKVPressureRouter.choose", None),
    ("cluster.route", "repro.cluster.router", "SessionAffinityRouter.choose", None),
    ("cluster.run", "repro.cluster.simulator", "ClusterSimulator.run", None),
    ("sim.pop", "repro.sim.kernel", "EventScheduler.pop", _observe_pop),
    ("sim.schedule", "repro.sim.kernel", "EventScheduler.schedule", None),
    ("migrate.build_payload", "repro.cluster.simulator", "build_payload", None),
    ("migrate.corrupt_payload", "repro.cluster.simulator", "corrupt_payload", None),
    ("migrate.receive_payload", "repro.cluster.simulator", "receive_payload", None),
    ("recover.take_snapshot", "repro.cluster.simulator", "take_snapshot", None),
    ("recover.verify_snapshot", "repro.cluster.simulator", "verify_snapshot", None),
    ("metrics.summarize_cluster", "repro.cluster.simulator", "summarize_cluster", None),
    ("metrics.summarize", "repro.serving.engine", "summarize", None),
    ("core.prefill", "repro.core.prefill", "turbo_prefill", None),
    ("core.decode", "repro.core.decode", "turbo_decode_steps", _observe_kernel_decode),
    ("quant.int_matmul", "repro.core.prefill", "int_matmul", _observe_int_matmul),
    ("quant.int_matmul", "repro.core.decode", "int_matmul", _observe_int_matmul),
    ("quant.pq_compress", "repro.core.kvcache", "pq_compress", None),
    ("sas.exp", "repro.sas.softmax", "SAS.__call__", None),
)


class SpanRecorder:
    """Records one span per call of each patched target while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self.counts: Dict[str, float] = {
            "engine.iterations": 0,
            "engine.batch_sum": 0,
            "engine.decode_tokens": 0,
            "alloc.util_peak": 0.0,
            "quant.int_ops": 0,
            "core.decode_tokens": 0,
            "sim.events": 0,
        }

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        clock = time.perf_counter
        stack = self._stack
        names, parents, starts, ends = self._name, self._parent, self._start, self._end

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args[0], args[1:], result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Patch every target for the duration of the block, then restore."""
        undo = []
        try:
            for name, module_name, path, observe in TARGETS:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original, observe))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(
            self._start, dtype=np.float64
        )
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def write(self, path: Path, header: dict) -> None:
        """Write the header, per-name summary and every span (columnar)."""
        t0 = self._start[0] if len(self._start) else 0.0
        doc = dict(header)
        doc["summary"] = self.summary()
        doc["spans"] = {
            "names": self.names,
            "name": self._name.tolist(),
            "parent": self._parent.tolist(),
            "start_us": [round((t - t0) * 1e6, 3) for t in self._start],
            "end_us": [round((t - t0) * 1e6, 3) for t in self._end],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
