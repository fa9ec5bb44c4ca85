"""Tests for repro.recover: snapshots, WAL, warm restart, fleet ops."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSimulator,
    FaultConfig,
    downtime_within,
)
from repro.core.serialization import (
    CacheCorruptionError,
    salvage_state,
    state_digest,
    state_from_arrays,
)
from repro.migrate import miniature_payload
from repro.perf.attention_costs import METHODS
from repro.perf.e2e import ModelGeometry
from repro.quant.progressive import LEGAL_BITS
from repro.recover import (
    FleetOp,
    RecoverConfig,
    WriteAheadLog,
    corrupt_snapshot_payload,
    snapshot_payload,
    take_snapshot,
    verify_snapshot,
)
from repro.recover.snapshot import _PAYLOAD_SALT
from repro.serving import EngineConfig, Request, ServingEngine
from repro.serving.request import RequestRecord, RequestStatus
from repro.serving.workload import ramp_workload
from repro.sim import ListTraceSink, diff_traces, format_diff, trace_digest
from tests._reference_kernels import (
    ODD_PAYLOAD_GEOMETRY,
    assert_same_payload,
    reference_miniature_payload,
)


@pytest.fixture(scope="module")
def model():
    return ModelGeometry.phi3_medium()


def _workload(n_scale=1.0):
    # Hot enough that a crash's evictions land on an already-busy
    # survivor: that is the regime where cold re-prefill queues behind
    # live work and the warm restart's recompute range wins the tail.
    return ramp_workload(
        [(0.8, 12.0 * n_scale), (1.2, 20.0 * n_scale), (0.8, 12.0 * n_scale)],
        prompt_range=(3072, 6144),
        gen_range=(128, 256),
        rng=np.random.default_rng(21),
    )


CRASHY = FaultConfig(
    seed=7, crash_rate=0.04, crash_downtime_s=4.0, max_retries=5,
    horizon_pad_s=10.0,
)


def _run(model, *, faults=CRASHY, recover=None, ops=(), n_replicas=2,
         trace=None, workload=None):
    config = ClusterConfig(
        n_replicas=n_replicas, policy="least_kv",
        engine=EngineConfig(prefill_chunk=256),
        faults=faults, recover=recover, ops=tuple(ops),
    )
    sim = ClusterSimulator(model, METHODS["turbo4"], config, trace=trace)
    metrics = sim.run(workload if workload is not None else _workload())
    return sim, metrics


def _assert_conserved(sim, metrics, workload, label=""):
    seen = dict(sim.failed)
    for replica in sim.replicas:
        for rid, rec in replica.records.items():
            assert rid not in seen, f"{label}: rid {rid} terminated twice"
            seen[rid] = rec
    assert set(seen) == {r.request_id for r in workload}, label
    assert (
        metrics.completed + metrics.failed + metrics.rejected + metrics.shed
        == metrics.total == len(workload)
    ), label


class TestRecoverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RecoverConfig(snapshot_interval_s=0.0)
        with pytest.raises(ValueError):
            RecoverConfig(keep_epochs=0)
        with pytest.raises(ValueError):
            RecoverConfig(corrupt_rate=1.5)
        with pytest.raises(ValueError):
            RecoverConfig(payload_blocks=1)

    def test_payload_tokens(self):
        cfg = RecoverConfig(payload_blocks=4, payload_block_tokens=16)
        assert cfg.payload_tokens == 64


class TestFleetOp:
    def test_validation(self):
        with pytest.raises(ValueError):
            FleetOp(time=0.0, kind="reboot")
        with pytest.raises(ValueError):
            FleetOp(time=-1.0, kind="drain")
        with pytest.raises(ValueError):
            FleetOp(time=0.0, kind="drain", poll_s=0.0)


class TestWriteAheadLog:
    def test_records_reuse_trace_schema(self):
        wal = WriteAheadLog(clock="replica0")
        wal.append("submit", 5, 1.0)
        wal.append("submit", 7, 2.0)
        rec = wal.records[0]
        assert set(rec) == {"i", "clock", "action", "ev", "t", "label"}
        assert rec["action"] == "mark" and rec["label"] == "r5"
        assert [r["i"] for r in wal.records] == [0, 1]

    def test_truncate_keeps_sequence_monotonic(self):
        wal = WriteAheadLog(clock="replica0")
        wal.append("submit", 1, 0.0)
        assert wal.truncate() == 1
        wal.append("submit", 2, 1.0)
        assert wal.records[0]["i"] == 1  # sequence survives the truncate
        assert len(wal) == 1

    def test_replay_plan_splits_warm_and_cold(self):
        wal = WriteAheadLog(clock="replica0")
        for rid in (5, 7, 5):  # duplicate submits dedupe oldest-first
            wal.append("submit", rid, float(rid))
        assert wal.request_ids() == [5, 7]
        assert wal.replay_plan({5}) == {5: "warm", 7: "cold"}

    def test_digest_is_content_addressed(self):
        a, b = WriteAheadLog(clock="x"), WriteAheadLog(clock="x")
        for wal in (a, b):
            wal.append("submit", 1, 0.5)
        assert a.digest() == b.digest()
        b.append("submit", 2, 0.6)
        assert a.digest() != b.digest()


class TestSnapshotPayload:
    CFG = RecoverConfig(seed=3)

    def test_payload_is_deterministic_per_epoch(self):
        a = snapshot_payload(0, 4, self.CFG)
        b = snapshot_payload(0, 4, self.CFG)
        assert state_digest(a) == state_digest(b)
        assert state_digest(a) != state_digest(snapshot_payload(0, 5, self.CFG))
        assert state_digest(a) != state_digest(snapshot_payload(1, 4, self.CFG))

    def test_payload_round_trips_through_real_schema(self):
        arrays = snapshot_payload(0, 0, self.CFG)
        state = state_from_arrays(arrays)  # checksums verify clean
        assert state.cache.seq_len == self.CFG.payload_tokens

    def test_corruption_is_detected_and_salvage_is_bit_exact(self):
        # Scan epochs for one where salvage keeps a non-trivial prefix,
        # then check the kept blocks match the original bit-for-bit.
        cfg = self.CFG
        for epoch in range(32):
            arrays = snapshot_payload(0, epoch, cfg)
            damaged, event = corrupt_snapshot_payload(dict(arrays), 0, epoch, cfg)
            try:
                state_from_arrays(damaged)
                continue  # damage missed the checksummed payload
            except CacheCorruptionError:
                pass
            try:
                result = salvage_state(damaged)
            except CacheCorruptionError:
                continue  # metadata destroyed: ladder would degrade
            kept_blocks = result.state.cache.seq_len // cfg.payload_block_tokens
            if kept_blocks == 0 or kept_blocks == cfg.payload_blocks:
                continue
            original = state_from_arrays(arrays)
            for b in range(kept_blocks):
                for orig, salv in (
                    (original.cache.blocks[b], result.state.cache.blocks[b]),
                ):
                    np.testing.assert_array_equal(orig.k.codes, salv.k.codes)
                    np.testing.assert_array_equal(orig.v.codes, salv.v.codes)
            return
        pytest.fail("no epoch produced a salvageable partial prefix")

    def test_corruption_is_deterministic(self):
        a, _ = corrupt_snapshot_payload(snapshot_payload(2, 9, self.CFG), 2, 9, self.CFG)
        b, _ = corrupt_snapshot_payload(snapshot_payload(2, 9, self.CFG), 2, 9, self.CFG)
        assert state_digest(a) == state_digest(b)


class TestSnapshotPayloadBytes:
    """The snapshot payload is the shared vectorized builder under the
    snapshot key; it must match the per-block loop oracle byte for byte."""

    @pytest.mark.parametrize(
        "geometry", [{}, ODD_PAYLOAD_GEOMETRY], ids=["default", "odd"]
    )
    @pytest.mark.parametrize("seed", [0, 3])
    def test_entry_point_matches_loop_oracle(self, seed, geometry):
        cfg = RecoverConfig(seed=seed, **geometry)
        for replica in (0, 2):
            for epoch in (0, 1, 9):
                key = [seed, _PAYLOAD_SALT, replica, epoch]
                assert_same_payload(
                    snapshot_payload(replica, epoch, cfg),
                    reference_miniature_payload(key, 4, cfg),
                )

    @pytest.mark.parametrize(
        "geometry", [{}, ODD_PAYLOAD_GEOMETRY], ids=["default", "odd"]
    )
    @pytest.mark.parametrize("bits", LEGAL_BITS)
    def test_shared_builder_matches_loop_oracle_at_every_width(self, bits, geometry):
        cfg = RecoverConfig(**geometry)
        for seed in (0, 5):
            for replica, epoch in ((0, 0), (3, 7)):
                key = [seed, _PAYLOAD_SALT, replica, epoch]
                assert_same_payload(
                    miniature_payload(key, bits, cfg),
                    reference_miniature_payload(key, bits, cfg),
                )

    def test_digests_recorded_before_vectorizing(self):
        # Literal digests of the per-block loop build; a change to the
        # draw order, the compression or the schema moves them.
        assert state_digest(snapshot_payload(0, 4, RecoverConfig(seed=3))) == (
            "45dfc0912692c040d5386d8fa70cc94f"
        )
        odd = RecoverConfig(seed=1, **ODD_PAYLOAD_GEOMETRY)
        assert state_digest(snapshot_payload(2, 7, odd)) == (
            "4f14a3a2d887c074cbdca0924e19625a"
        )


class TestTakeAndVerifySnapshot:
    def _engine(self, model):
        engine = ServingEngine(model, METHODS["turbo4"], EngineConfig())
        for i in range(3):
            engine.submit(Request(i, 0.0, 512, 32))
        for _ in range(8):
            engine.step()
        return engine

    def test_snapshot_captures_progress_by_value(self, model):
        engine = self._engine(model)
        cfg = RecoverConfig()
        snap = take_snapshot(0, engine, 0, engine.clock, cfg, model, 4.3)
        assert {s.rid for s in snap.requests} == {0, 1, 2}
        by_rid = {s.rid: s for s in snap.requests}
        for rid, s in by_rid.items():
            assert s.prefilled == engine.records[rid].prefilled
            assert s.generated == engine.records[rid].generated
        assert snap.nbytes > 0
        # Mutating the engine afterwards must not change the snapshot.
        engine.step()
        assert by_rid[0].prefilled == snap.requests[0].prefilled

    def test_snapshot_digest_is_stable(self, model):
        engine = self._engine(model)
        cfg = RecoverConfig()
        a = take_snapshot(0, engine, 0, engine.clock, cfg, model, 4.3)
        b = take_snapshot(0, engine, 0, engine.clock, cfg, model, 4.3)
        assert a.digest == b.digest
        c = take_snapshot(0, engine, 1, engine.clock, cfg, model, 4.3)
        assert a.digest != c.digest  # epoch is part of the identity
        d = take_snapshot(1, engine, 0, engine.clock, cfg, model, 4.3)
        assert a.digest != d.digest  # so is the replica
        # The payload key and geometry label the snapshot in place of
        # the payload's bytes: every input of the build moves the digest.
        for change in (
            {"seed": 1},
            {"payload_blocks": 9},
            {"payload_block_tokens": 17},
            {"payload_heads": 3},
            {"payload_head_dim": 9},
        ):
            other = RecoverConfig(**change)
            e = take_snapshot(0, engine, 0, engine.clock, other, model, 4.3)
            assert a.digest != e.digest, change

    def test_payload_is_built_only_for_a_corrupt_epoch(self, model, monkeypatch):
        engine = self._engine(model)
        calls = []

        def refuse(key, bits, geometry):
            calls.append(list(key))
            raise RuntimeError("payload built")

        monkeypatch.setattr("repro.recover.snapshot.miniature_payload", refuse)
        cfg = RecoverConfig(seed=11)
        intact = take_snapshot(0, engine, 0, engine.clock, cfg, model, 4.3)
        assert verify_snapshot(intact, cfg) == (cfg.payload_tokens,
                                                cfg.payload_tokens)
        assert calls == []
        corrupt_cfg = RecoverConfig(seed=11, corrupt_rate=1.0)
        corrupt = take_snapshot(0, engine, 3, engine.clock, corrupt_cfg,
                                model, 4.3)
        assert corrupt.corrupt and calls == []
        with pytest.raises(RuntimeError, match="payload built"):
            verify_snapshot(corrupt, corrupt_cfg)
        assert calls == [[11, _PAYLOAD_SALT, 0, 3]]

    #: ``kept`` tokens per epoch 0-7 that ``verify_snapshot`` returns at
    #: ``corrupt_rate=1``: literals, so the salvage ladder cannot move.
    LADDER = {
        "default": {
            (0, 0): [96, 16, 32, 96, 48, 80, 32, 80],
            (0, 1): [48, 64, 80, 96, 48, 80, 112, 0],
            (11, 0): [48, 32, 16, 0, 96, 16, 96, 0],
            (11, 1): [80, 128, 48, 96, 32, 80, 112, 112],
        },
        "odd": {
            (0, 0): [10, 0, 5, 10, 5, 10, 5, 10],
            (0, 1): [5, 5, 10, 10, 5, 10, 15, 0],
            (11, 0): [5, 5, 0, 0, 10, 0, 10, 0],
            (11, 1): [10, 15, 5, 10, 5, 10, 15, 10],
        },
    }

    @pytest.mark.parametrize(
        "name,geometry", [("default", {}), ("odd", ODD_PAYLOAD_GEOMETRY)],
        ids=["default", "odd"],
    )
    def test_verify_ladder_literals(self, model, name, geometry):
        engine = self._engine(model)
        for (seed, replica), kept in self.LADDER[name].items():
            cfg = RecoverConfig(seed=seed, corrupt_rate=1.0, **geometry)
            got = []
            for epoch in range(8):
                snap = take_snapshot(replica, engine, epoch, engine.clock,
                                     cfg, model, 4.3)
                assert snap.corrupt
                got.append(verify_snapshot(snap, cfg))
            assert got == [(k, cfg.payload_tokens) for k in kept], (seed, replica)

    def test_verify_ladder_values(self, model):
        engine = self._engine(model)
        # corrupt_rate=1: every epoch rolls corrupt; verification is
        # deterministic, so two verifies of one epoch agree.
        cfg = RecoverConfig(seed=11, corrupt_rate=1.0)
        intact = take_snapshot(0, engine, 0, engine.clock,
                               RecoverConfig(seed=11), model, 4.3)
        assert verify_snapshot(intact, cfg) == (cfg.payload_tokens,
                                                cfg.payload_tokens)
        corrupt = take_snapshot(0, engine, 0, engine.clock, cfg, model, 4.3)
        assert corrupt.corrupt
        kept_a, total = verify_snapshot(corrupt, cfg)
        kept_b, _ = verify_snapshot(corrupt, cfg)
        assert kept_a == kept_b and 0 <= kept_a <= total

    def test_salvage_disabled_degrades_to_zero(self, model):
        engine = self._engine(model)
        cfg = RecoverConfig(seed=11, corrupt_rate=1.0, salvage=False)
        snap = take_snapshot(0, engine, 0, engine.clock, cfg, model, 4.3)
        assert verify_snapshot(snap, cfg) == (0, cfg.payload_tokens)


class TestResetForRecovery:
    def test_waste_is_the_lost_delta(self):
        rec = RequestRecord(Request(0, 0.0, 1000, 100))
        rec.prefilled, rec.generated = 1000, 40
        rec.first_token_at = 2.0
        rec.retries = 1
        rec.reset_for_recovery(600, 0)
        assert rec.wasted_prefill_tokens == 400
        assert rec.wasted_decode_tokens == 40
        assert rec.prefilled == 600 and rec.generated == 0
        assert rec.first_token_at is None  # decode progress lost
        assert rec.status is RequestStatus.WAITING
        assert rec.retries == 1  # recovery is not a retry
        assert rec.recoveries == 1

    def test_decode_progress_keeps_first_token(self):
        rec = RequestRecord(Request(0, 0.0, 100, 50))
        rec.prefilled, rec.generated = 100, 30
        rec.reset_for_recovery(100, 20, first_token_at=1.5)
        assert rec.first_token_at == 1.5
        assert rec.wasted_prefill_tokens == 0
        assert rec.wasted_decode_tokens == 10

    def test_negative_progress_rejected(self):
        rec = RequestRecord(Request(0, 0.0, 100, 50))
        with pytest.raises(ValueError):
            rec.reset_for_recovery(-1, 0)


class TestRestoreRecord:
    def _engine(self, model, **overrides):
        return ServingEngine(model, METHODS["turbo4"],
                             EngineConfig(**overrides))

    def test_restore_resumes_decode_in_place(self, model):
        engine = self._engine(model)
        rec = RequestRecord(Request(0, 0.0, 512, 32))
        rec.prefilled, rec.generated = 512, 10
        rec.first_token_at = 1.0
        assert engine.restore_record(rec)
        assert rec.status is RequestStatus.RUNNING
        assert 0 in engine.running
        while engine.busy:
            engine.step()
        assert rec.status is RequestStatus.FINISHED
        assert rec.generated == 32  # only the remaining 22 were decoded

    def test_restore_mid_prefill_recomputes_only_the_tail(self, model):
        engine = self._engine(model)
        rec = RequestRecord(Request(0, 0.0, 1024, 8))
        rec.prefilled = 700
        assert engine.restore_record(rec)
        assert rec.status is RequestStatus.PREFILLING
        while engine.busy:
            engine.step()
        assert rec.status is RequestStatus.FINISHED
        assert rec.wasted_prefill_tokens == 0

    def test_duplicate_rid_rejected(self, model):
        engine = self._engine(model)
        engine.submit(Request(0, 0.0, 128, 8))
        with pytest.raises(ValueError):
            engine.restore_record(RequestRecord(Request(0, 0.0, 128, 8)))

    def test_prefill_only_restore_reparks_migrating(self, model):
        engine = self._engine(model, prefill_only=True)
        rec = RequestRecord(Request(0, 0.0, 512, 32))
        rec.prefilled = 512
        assert engine.restore_record(rec)
        assert rec.status is RequestStatus.MIGRATING
        assert 0 in engine.migrating and 0 in engine.handoff_ready

    def test_oom_restore_degrades_to_cold_waiting(self, model):
        # A KV budget too small for the restored context: the restore
        # falls back to a cold re-entry, charging the checkpointed
        # progress as waste instead of faking resident KV.
        engine = self._engine(model, kv_budget_bytes=1.0)
        rec = RequestRecord(Request(0, 0.0, 4096, 8))
        rec.prefilled, rec.generated = 4096, 4
        assert not engine.restore_record(rec)
        assert rec.status is RequestStatus.WAITING
        assert rec.prefilled == 0 and rec.generated == 0
        assert rec.wasted_prefill_tokens == 4096
        assert rec.wasted_decode_tokens == 4
        assert 0 in engine.waiting


class TestWarmRestartCluster:
    def test_warm_restart_reduces_waste_under_identical_crashes(self, model):
        wl = _workload()
        _, cold = _run(model, workload=wl)
        sim, warm = _run(
            model, recover=RecoverConfig(snapshot_interval_s=1.5, seed=11),
            workload=wl,
        )
        assert cold.crashes == warm.crashes > 0  # identical schedule fired
        assert warm.warm_restarts == warm.crashes
        assert warm.recovered_requests > 0
        wasted_cold = cold.wasted_prefill_tokens + cold.wasted_decode_tokens
        wasted_warm = warm.wasted_prefill_tokens + warm.wasted_decode_tokens
        assert wasted_warm < wasted_cold
        assert warm.p99_ttft < cold.p99_ttft
        assert warm.snapshots_taken > 0 and warm.snapshot_bytes > 0
        _assert_conserved(sim, warm, wl, "warm")

    def test_crash_and_restart_runs_are_byte_identical(self, model):
        wl = _workload()
        sinks = []
        for _ in range(2):
            sink = ListTraceSink()
            _run(
                model,
                recover=RecoverConfig(
                    snapshot_interval_s=1.5, seed=11, corrupt_rate=0.4
                ),
                workload=wl, trace=sink,
            )
            sinks.append(sink)
        diff = diff_traces(sinks[0].records, sinks[1].records)
        assert diff is None, format_diff(diff, "run1", "run2")
        assert trace_digest(sinks[0].records) == trace_digest(sinks[1].records)

    def test_conservation_matrix(self, model):
        """crash x snapshot-corruption x fleet-ops cells all conserve."""
        wl = _workload(0.6)
        ops_cells = (
            (),
            (FleetOp(time=4.0, kind="drain", replica_id=1),
             FleetOp(time=9.0, kind="rolling_restart")),
        )
        for corrupt_rate in (0.0, 0.7):
            for ops in ops_cells:
                for faults in (None, CRASHY):
                    recover = RecoverConfig(
                        snapshot_interval_s=1.5, seed=11,
                        corrupt_rate=corrupt_rate,
                    )
                    sim, m = _run(
                        model, faults=faults, recover=recover, ops=ops,
                        n_replicas=3, workload=wl,
                    )
                    label = (
                        f"corrupt={corrupt_rate}/ops={bool(ops)}/"
                        f"faults={bool(faults)}"
                    )
                    _assert_conserved(sim, m, wl, label)
                    if ops:
                        assert m.drains >= 1, label
                        assert m.rolling_restarts == 1, label

    def test_corrupt_epochs_walk_the_ladder(self, model):
        wl = _workload()
        sim, m = _run(
            model,
            recover=RecoverConfig(
                snapshot_interval_s=1.5, seed=11, corrupt_rate=1.0,
                keep_epochs=2,
            ),
            workload=wl,
        )
        assert m.crashes > 0
        # Every epoch is corrupt, so every restart hits the ladder.
        assert m.snapshot_corruptions > 0
        assert m.snapshot_salvages + m.cold_restores > 0
        _assert_conserved(sim, m, wl, "ladder")

    def test_recover_disabled_is_byte_identical_to_baseline(self, model):
        """recover=None must not perturb the classic event stream."""
        wl = _workload(0.6)
        sinks = []
        for recover in (None, None):
            sink = ListTraceSink()
            _run(model, recover=recover, workload=wl, trace=sink)
            sinks.append(sink)
        assert trace_digest(sinks[0].records) == trace_digest(sinks[1].records)

    def test_restored_tokens_show_up_in_counters(self, model):
        wl = _workload()
        _, m = _run(
            model, recover=RecoverConfig(snapshot_interval_s=1.5, seed=11),
            workload=wl,
        )
        assert m.restored_prefill_tokens > 0
        assert m.recoveries >= m.recovered_requests > 0


class TestFleetOps:
    def test_drain_and_rolling_restart_drop_nothing(self, model):
        wl = _workload()
        sim, m = _run(
            model, faults=None,
            recover=RecoverConfig(snapshot_interval_s=2.0),
            ops=(FleetOp(time=4.0, kind="drain", replica_id=0),
                 FleetOp(time=10.0, kind="rolling_restart")),
            n_replicas=3, workload=wl,
        )
        assert m.failed == 0
        assert m.drains == 4  # 1 targeted + 3 from the rolling restart
        assert m.rolling_restarts == 1
        _assert_conserved(sim, m, wl, "ops")
        # Everyone rejoined: the fleet ends fully dispatchable.
        assert all(r.dispatchable for r in sim.replicas)

    def test_ops_without_recover_config_still_run(self, model):
        """Fleet ops are independent of checkpointing."""
        wl = _workload(0.6)
        sim, m = _run(
            model, faults=None, recover=None,
            ops=(FleetOp(time=4.0, kind="drain", replica_id=1),),
            n_replicas=3, workload=wl,
        )
        assert m.drains == 1 and m.failed == 0
        _assert_conserved(sim, m, wl, "ops-no-recover")


class TestAvailabilityMath:
    def test_downtime_within_clips_and_sums(self):
        windows = [(0.0, 5.0), (2.0, 7.0), (90.0, 110.0)]
        # Overlap across replicas is summed (two boxes down = 2x cost);
        # the window crossing the horizon is clipped at it.
        assert downtime_within(windows, 100.0) == pytest.approx(20.0)
        assert downtime_within(windows, 4.0) == pytest.approx(6.0)
        assert downtime_within([], 100.0) == 0.0

    def test_availability_is_a_probability_under_dense_faults(self, model):
        """Overlapping crash downtime must never push availability out of
        [0, 1], even when scheduled downtime exceeds the makespan."""
        wl = _workload(0.5)
        for seed in range(6):
            dense = FaultConfig(
                seed=seed, crash_rate=0.5, crash_downtime_s=30.0,
                max_retries=8, horizon_pad_s=60.0,
            )
            for recover in (None, RecoverConfig(snapshot_interval_s=2.0)):
                _, m = _run(model, faults=dense, recover=recover,
                            n_replicas=2, workload=wl)
                assert 0.0 <= m.availability <= 1.0, (
                    f"seed={seed} recover={recover is not None}: "
                    f"availability={m.availability}"
                )
                if m.crashes:
                    assert m.downtime_s > 0.0
