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

    def test_profile_recover_reaches_take_snapshot(self, capsys):
        assert main(["profile", "recover", "--top", "40"]) == 0
        out = capsys.readouterr().out
        assert "take_snapshot" in out
