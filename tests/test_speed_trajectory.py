"""The pinned speed scenarios, the machine-normalized gate, and its CLI.

These are the tier-1 counterparts of ``benchmarks/test_speed.py``: the
scenarios run at quick size (seconds, not minutes), the gate logic is
exercised on synthetic numbers in both directions, and the ``speed`` /
``profile`` subcommands run end to end.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.perf import speed
from repro.prefix import PrefixPool
from repro.serving import PagedKVAllocator, ServingEngine
from repro.serving.request import RequestStatus


@pytest.fixture(scope="module")
def quick_suite():
    return speed.run_speed_suite(quick=True)


class TestScenarios:
    def test_suite_reports_every_gated_metric(self, quick_suite):
        for name, _direction in speed.GATED_METRICS:
            assert quick_suite[name] > 0
        assert quick_suite["calibration_s"] > 0
        assert quick_suite["quick"] is True

    def test_derived_rates_are_consistent(self, quick_suite):
        assert quick_suite["engine_rps"] == pytest.approx(
            120 / quick_suite["engine_wall_s"]
        )
        assert quick_suite["cluster_rps"] == pytest.approx(
            80 / quick_suite["cluster_wall_s"]
        )
        assert quick_suite["prefill_us_per_token"] == pytest.approx(
            quick_suite["prefill_s"] / 512 * 1e6
        )
        assert quick_suite["decode_ms_per_token"] == pytest.approx(
            quick_suite["decode_s"] / 64 * 1e3
        )

    def test_recover_scenario_reaches_the_snapshot_path(self, quick_suite):
        assert quick_suite["recover_wall_s"] > 0
        assert quick_suite["recover_snapshots"] > 0

    def test_prefix_scenario_reports_wall_and_rate(self, quick_suite):
        assert quick_suite["prefix_wall_s"] > 0
        assert quick_suite["prefix_rps"] == pytest.approx(
            300 / quick_suite["prefix_wall_s"]
        )
        assert quick_suite["prefix_probe_s"] > 0

    def test_prefix_scenario_reaches_pool_and_batched_commit(self, monkeypatch):
        calls = {"decode_commit": 0, "acquire": 0}
        for cls, name in ((PagedKVAllocator, "decode_commit"), (PrefixPool, "acquire")):
            real = getattr(cls, name)

            def counting(self, *args, _real=real, _name=name):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(cls, name, counting)
        speed.bench_prefix(quick=True, repeats=1)
        assert calls["decode_commit"] > 0
        assert calls["acquire"] > 0

    def test_disagg_scenario_reports_wall_and_rate(self, quick_suite):
        assert quick_suite["disagg_wall_s"] > 0
        assert quick_suite["disagg_rps"] == pytest.approx(
            80 / quick_suite["disagg_wall_s"]
        )
        assert quick_suite["disagg_probe_s"] > 0

    def test_disagg_scenario_reaches_salvage_and_chunk_stretches(self, monkeypatch):
        import repro.cluster.simulator as simulator

        received, chunk_stretches = [], []
        real_receive = simulator.receive_payload
        real_steps = ServingEngine.decode_steps

        def receive(*args, **kwargs):
            received.append(1)
            return real_receive(*args, **kwargs)

        def steps(self, t_limit=None):
            prefilling = any(
                self.records[rid].status is RequestStatus.PREFILLING
                for rid in self.running
            )
            k = real_steps(self, t_limit)
            chunk_stretches.append(bool(k and prefilling))
            return k

        monkeypatch.setattr(simulator, "receive_payload", receive)
        monkeypatch.setattr(ServingEngine, "decode_steps", steps)
        speed.bench_disagg(quick=True, repeats=1)
        assert received, "no corrupted handoff was received"
        assert any(chunk_stretches), "no chunked-prefill stretch was taken"

    def test_pre_pr_records_every_gated_metric(self):
        for name, _direction in speed.GATED_METRICS:
            assert name in speed.PRE_PR
        assert speed.PRE_PR["calibration_s"] > 0


class TestGate:
    BASELINE = {
        "calibration_s": 0.05,
        "prefill_s": 0.10,
        "decode_s": 0.20,
        "engine_rps": 1000.0,
        "cluster_rps": 500.0,
    }

    def test_identical_numbers_pass(self):
        current = dict(self.BASELINE)
        rows, failures = speed.compare_to_baseline(current, self.BASELINE)
        assert failures == []
        assert all(r["ok"] for r in rows)

    def test_slower_machine_is_normalized_not_failed(self):
        # 2x slower probe -> 2x slower walls and 2x lower rates are
        # exactly what the gate predicts; no failure.
        current = {
            "calibration_s": 0.10,
            "prefill_s": 0.20,
            "decode_s": 0.40,
            "engine_rps": 500.0,
            "cluster_rps": 250.0,
        }
        _rows, failures = speed.compare_to_baseline(current, self.BASELINE)
        assert failures == []

    def test_regression_beyond_tolerance_fails_both_directions(self):
        current = dict(self.BASELINE)
        current["prefill_s"] = self.BASELINE["prefill_s"] * 1.30
        current["cluster_rps"] = self.BASELINE["cluster_rps"] / 1.30
        rows, failures = speed.compare_to_baseline(current, self.BASELINE)
        assert set(failures) == {"prefill_s", "cluster_rps"}
        table = speed.format_table(rows, 1.0)
        assert "FAIL" in table and "OK" in table

    def test_slow_first_probe_does_not_inflate_later_scenarios(self, monkeypatch):
        # A cold or contended first probe at 4x the baseline's once scaled
        # every expectation by 4x; each scenario now takes the faster of
        # the probes around it, so a prefill 4x slower than baseline fails.
        probes = iter([0.20] + [0.05] * 7)
        monkeypatch.setattr(speed, "calibrate", lambda: next(probes))
        fake = {
            "prefill": {"prefill_s": 0.40},
            "decode": {"decode_s": 0.20},
            "engine": {"engine_rps": 1000.0},
            "cluster": {"cluster_rps": 500.0},
            "recover": {"recover_wall_s": 1.0},
            "prefix": {"prefix_wall_s": 1.0},
            "disagg": {"disagg_wall_s": 1.0},
        }
        for name, metrics in fake.items():
            monkeypatch.setattr(speed, f"bench_{name}", lambda quick, m=metrics: dict(m))
        current = speed.run_speed_suite(quick=True)
        assert current["prefill_probe_s"] == 0.05
        assert current["calibration_s"] == 0.05
        _rows, failures = speed.compare_to_baseline(current, self.BASELINE)
        assert failures == ["prefill_s"]

    def test_baseline_scenario_probe_normalizes_like_for_like(self):
        # The baseline's prefill ran next to a probe twice its fastest
        # one; measured against that probe, a prefill 30% over the
        # prediction fails instead of hiding in the slack.
        baseline = dict(self.BASELINE, prefill_probe_s=0.10)
        current = dict(self.BASELINE, prefill_probe_s=0.05, prefill_s=0.065)
        rows, failures = speed.compare_to_baseline(current, baseline)
        assert failures == ["prefill_s"]
        assert rows[0]["probe_ratio"] == 0.5

    def test_committed_baseline_carries_the_gated_metrics(self):
        path = Path(__file__).resolve().parent.parent / "BENCH_speed_baseline.json"
        baseline = json.loads(path.read_text())
        for name, _direction in speed.GATED_METRICS:
            assert name in baseline
        assert baseline["quick"] is True


class TestCli:
    def test_speed_json_output(self, capsys):
        assert main(["speed", "--quick"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "cluster_rps" in out

    def test_speed_check_passes_against_self(self, tmp_path, capsys):
        results = speed.run_speed_suite(quick=True)
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(results))
        # Two back-to-back quick runs still jitter; the CLI path under
        # test is the gate plumbing, not the 25% CI threshold, so give
        # the self-comparison generous headroom.
        assert main([
            "speed", "--quick", "--check",
            "--baseline", str(baseline), "--tolerance", "1.0",
        ]) == 0
        assert "perf gate OK" in capsys.readouterr().out

    def test_speed_check_fails_on_regression(self, tmp_path, capsys):
        # An impossible baseline (1000x the probe-predicted rates) must
        # trip the gate and name the offenders.
        impossible = {
            "calibration_s": 0.05,
            "prefill_s": 1e-9,
            "decode_s": 1e-9,
            "engine_rps": 1e12,
            "cluster_rps": 1e12,
        }
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(impossible))
        assert main(["speed", "--quick", "--check", "--baseline", str(baseline)]) == 1
        assert "perf gate FAILED" in capsys.readouterr().out

    def test_speed_check_without_baseline_names_the_file(self, tmp_path, capsys):
        missing = tmp_path / "no_such_baseline.json"
        assert main(["speed", "--quick", "--check", "--baseline", str(missing)]) == 1
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert str(missing) in out[0] and "not found" in out[0]

    def test_profile_prints_cumulative_top(self, capsys):
        assert main(["profile", "prefill", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out
        assert "turbo_prefill" in out

    def test_profile_prefix_runs_the_pooled_fleet(self, capsys):
        assert main(["profile", "prefix", "--top", "5"]) == 0
        assert "bench_prefix" in capsys.readouterr().out

    def test_profile_disagg_runs_the_disaggregated_fleet(self, capsys):
        assert main(["profile", "disagg", "--top", "5"]) == 0
        assert "bench_disagg" in capsys.readouterr().out

    def test_profile_recover_reaches_take_snapshot(self, capsys):
        assert main(["profile", "recover", "--top", "40"]) == 0
        out = capsys.readouterr().out
        assert "take_snapshot" in out
