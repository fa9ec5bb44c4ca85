"""Tests of the benchmark itself: ``python -m pytest bench/``.

They run every workload at its ``--smoke`` size, so they check plumbing
(metric names, units, checks, seeds, the traced run), not speed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from trace import SpanRecorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def _smoke(name: str, *extra: str) -> tuple:
    proc = _run("--workload", name, "--smoke", "--seconds", "0", *extra)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_spec():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_prints_every_metric_with_its_unit(name, trace):
    lines, result = _smoke(name, "--trace", trace)
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert result["correct"] is True and result["failed"] == 0
    parts = workloads.WORKLOADS[name].parts
    assert result["attempted"] >= parts + 1 + int(trace)
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
        # The human-readable line carries the same name and unit.
        assert any(
            line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in lines
        ), m["name"]


def test_seed_changes_inputs_but_not_the_metric_set():
    chat = workloads.WORKLOADS["chat_fleet"]
    arrivals = {
        (seed, part): [r.arrival_time for r in chat.build(seed, part, True)[1]]
        for seed in (0, 1) for part in (0, 1)
    }
    assert len({tuple(a) for a in arrivals.values()}) == 4  # seeds and parts differ
    assert arrivals[0, 1] == [r.arrival_time for r in chat.build(0, 1, True)[1]]
    kernel = workloads.WORKLOADS["kernel_numeric"]
    case0, case1 = kernel.build(0, 0, True), kernel.build(1, 0, True)
    assert case0.q.shape != case1.q.shape or not (case0.q == case1.q).all()

    _lines, seed0 = _smoke("prefix_zipf")
    _lines, seed1 = _smoke("prefix_zipf", "--seed", "1")
    assert list(seed0["metrics"]) == list(seed1["metrics"])
    assert seed0["metrics"]["ttft_p50_s"] != seed1["metrics"]["ttft_p50_s"]


def test_same_seed_repeats_exactly():
    wl = workloads.WORKLOADS["disagg_faults"]
    assert workloads.fingerprint(wl.run(wl.build(3, 1, True))) == workloads.fingerprint(
        wl.run(wl.build(3, 1, True))
    )


def test_sabotaged_result_fails_the_conservation_check():
    wl = workloads.WORKLOADS["chat_fleet"]
    result = wl.run(wl.build(0, 0, True))
    assert workloads.check(result) == []
    result.metrics = dataclasses.replace(result.metrics, completed=result.metrics.completed - 1)
    failures = workloads.check(result)
    assert failures and failures[0].startswith("conservation")


def test_leaked_private_blocks_fail_the_allocator_check():
    wl = workloads.WORKLOADS["chat_fleet"]
    result = wl.run(wl.build(0, 0, True))
    assert result.sim.replicas[0].engine.allocator.grow(10**9, 64)
    assert any(f.startswith("allocator") for f in workloads.check(result))


def test_self_times_partition_the_traced_run():
    wl = workloads.WORKLOADS["prefix_zipf"]
    built = wl.build(0, 0, True)
    recorder = SpanRecorder()
    original = type(built[0]).run
    with recorder.installed():
        wl.run(built)
    assert type(built[0]).run is original  # every patch is undone
    summary = recorder.summary()
    root = summary["cluster.run"]["total_s"]
    assert summary["cluster.run"]["calls"] == 1
    assert sum(v["self_s"] for v in summary.values()) == pytest.approx(root, rel=1e-9)
    assert all(v["self_s"] >= -1e-9 for v in summary.values())


def test_fails_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and bench/ cannot run."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "chat_fleet", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
