"""Tests of the benchmark itself: seeded inputs, printed metrics, failure counting.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run, workloads as W  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _snapshot(cycles, workdir: Path) -> list:
    tables = {p.name: p.read_text() for p in sorted(workdir.rglob("*.json"))}
    return [[(r.kind, r.key, r.argv, r.payload, r.expect, r.tags) for r in c] for c in cycles], tables


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    first = _snapshot(W.take(workload, 7, 6, tmp_path), tmp_path)
    shutil.rmtree(tmp_path)
    tmp_path.mkdir()
    second = _snapshot(W.take(workload, 7, 6, tmp_path), tmp_path)
    assert first == second
    other = _snapshot(W.take(workload, 8, 6, tmp_path / "other"), tmp_path / "other")
    assert other[0] != first[0]


def test_cycles_keep_their_mix_across_seeds(tmp_path):
    def mix(seed):
        cycles = W.take("verify_requests", seed, 4, tmp_path / str(seed))
        return sorted((r.tags["family"], r.tags.get("k"), r.tags["q_max"]) for c in cycles for r in c)

    assert mix(1) == mix(2)
    requests = [r for c in W.take("verify_requests", 1, 4, tmp_path / "p") for r in c]
    props = W.input_properties("verify_requests", requests)
    assert props["q_max_share"] == 0.2
    assert props["repeat_share"] == 0.0


def test_request_time_is_scaled_by_calibration_around_it():
    calibration = run.Calibration()
    calibration.ends, calibration.times = [1.0, 2.0, 3.0], [0.010, 0.005, 0.020]
    ref = run.CALIBRATION_REFERENCE_S
    # loops that ended at 1.0 (before the start) and 2.0 (after the end)
    assert calibration.scale(1.2, 1.5) == pytest.approx(ref / 0.0075)
    # a request spanning a loop is scaled by the loops on either side of it
    assert calibration.scale(1.2, 2.5) == pytest.approx(ref / 0.015)
    assert calibration.scale(3.5, 3.6) == pytest.approx(ref / 0.020)
    tally = run.Tally()
    for cycle, start, elapsed in [(0, 1.2, 0.3), (1, 2.1, 0.4), (2, 2.6, 0.1)]:
        tally.add(cycle, W.Request(kind="arcs", key="", cls="", tags={}), start, elapsed, W.Outcome(), "")
    assert tally.scaled(calibration, 2) == pytest.approx([0.3 * ref / 0.0075, 0.4 * ref / 0.0125])


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_mix_of_classes_repeats_every_period(workload, tmp_path):
    period = W.PERIODS[workload]
    cycles = W.take(workload, 4, 2 * period, tmp_path)
    first = sorted(r.cls for c in cycles[:period] for r in c)
    assert first == sorted(r.cls for c in cycles[period:] for r in c)
    other = W.take(workload, 9, period, tmp_path / "other")
    assert first == sorted(r.cls for c in other for r in c)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_unit(trace, section):
    proc = _bench("--workload", "render_requests", "--seed", "3", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in BENCHMARK[section]]
    assert sorted(result["metrics"]) == sorted(names)
    for metric in BENCHMARK[section]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float | int)
        assert any(line.split()[1:2] == [metric["name"]] and line.split()[3] == metric["unit"]
                   for line in lines[:-1]), metric["name"]
    assert any(line.split()[1:2] == ["failed_ratio"] for line in lines[:-1])


def _corrupting(collect, corrupt):
    def wrapper(self, req, result=None):
        out = collect(self, req, result)
        corrupt(out)
        return out
    return wrapper


def _truncate_files(out):
    out.files = {name: data[:-20] for name, data in out.files.items()}


def _shift_mean(out):
    if isinstance(out.value, dict):
        out.value["mean"] += 1e-9


@pytest.mark.parametrize("workload, corrupt", [("render_requests", _truncate_files),
                                               ("arc_algebra", _shift_mean)])
def test_corrupted_output_counts_as_failed(workload, corrupt, monkeypatch, capsys):
    monkeypatch.setattr(run.Context, "collect", _corrupting(run.Context.collect, corrupt))
    result = run.run_workload(workload, seed=5, seconds=0.0, trace=False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    ratio = [line for line in capsys.readouterr().out.splitlines() if " failed_ratio " in line]
    assert float(ratio[0].split()[2]) == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "render_requests", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
