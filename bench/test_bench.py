"""Tests of the benchmark itself, on tiny scenarios.

    python -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import probe
import run
import tracer
import workloads
from minedetect import pipeline

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

TINY = {
    "reference": {"n_hosts": 24, "n_windows": 4, "recruitment_schedule": (0, 2, 2)},
    "long_capture": {"n_hosts": 24, "n_windows": 8, "recruitment_schedule": (0, 2, 2)},
    "wide_network": {"n_hosts": 60, "recruitment_schedule": (0, 2, 2)},
    "pool_mesh": {"n_hosts": 30, "recruitment_schedule": (0, 3, 3, 3)},
}


def tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, overrides={**w.overrides, **TINY[name]})


def units(result: run.Result) -> dict[str, str]:
    return {name: unit for name, (_, unit) in result.metrics.items()}


def test_benchmark_json_matches_the_workloads():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted(name):
    plain = run.measure(tiny(name), seed=3, seconds=0, trace=False)
    assert units(plain) == END_TO_END
    assert plain.correct and plain.failed == 0
    assert plain.attempted == run.MIN_PASSES + 1  # timed passes plus the memory pass

    traced = run.measure(tiny(name), seed=3, seconds=0, trace=True)
    assert units(traced) == PER_LAYER
    assert traced.correct and traced.failed == 0
    assert traced.digest == plain.digest
    json.loads(traced.to_json())


def test_counts_repeat_exactly():
    first = run.measure(tiny("pool_mesh"), seed=5, seconds=0, trace=True).metrics
    second = run.measure(tiny("pool_mesh"), seed=5, seconds=0, trace=True).metrics
    counts = [n for n, (_, unit) in first.items() if unit in ("count", "ratio")]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def _drop_host(obj):
    obj["hosts"].popitem()


def _duplicate_member(obj):
    obj["clusters"][-1]["members"].append(obj["clusters"][0]["members"][0])


def _flip_suspicious(obj):
    host = sorted(obj["hosts"])[0]
    obj["suspicious"] = sorted(set(obj["suspicious"]) ^ {host})


def _drop_metrics(obj):
    obj["metrics"] = None


@pytest.mark.parametrize(
    "corrupt", [_drop_host, _duplicate_member, _flip_suspicious, _drop_metrics, None]
)
def test_broken_output_is_counted_as_failure(monkeypatch, corrupt):
    original = pipeline.DetectionReport.to_json

    def broken(self):
        if corrupt is None:
            return original(self)[:-3]  # no longer valid JSON
        obj = json.loads(original(self))
        corrupt(obj)
        return json.dumps(obj)

    monkeypatch.setattr(pipeline.DetectionReport, "to_json", broken)
    result = run.measure(tiny("reference"), seed=3, seconds=0, trace=False)
    assert result.failed == result.attempted
    assert not result.correct
    assert result.metrics["success_rate"][0] == 0.0


def test_changing_output_is_counted_as_failure(monkeypatch):
    original = pipeline.DetectionReport.to_json
    calls = []

    def drifting(self):
        calls.append(None)
        obj = json.loads(original(self))
        obj["unmatched_labeled"] = len(calls)
        return json.dumps(obj)

    monkeypatch.setattr(pipeline.DetectionReport, "to_json", drifting)
    result = run.measure(tiny("reference"), seed=3, seconds=0, trace=False)
    assert result.failed == result.attempted - 1  # all but the first pass differ
    assert not result.correct


def test_tracer_restores_originals_on_error():
    before = {(owner, attr): vars(owner)[attr] for owner, attr in tracer.TARGETS}
    with pytest.raises(KeyError):
        with tracer.Tracer() as t:
            assert len(tracer.installed()) == len(tracer.TARGETS)
            with pytest.raises(RuntimeError):
                tracer.Tracer().__enter__()  # would capture wrappers as originals
            raise KeyError("boom")
    assert t.unrestored() == [] and tracer.installed() == []
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in before.items())


def test_probe_divides_out_host_speed():
    slow = 2 * probe.REFERENCE_S
    assert probe.normalize([3.0, 1.0], [slow, slow, 3 * probe.REFERENCE_S]) == [
        pytest.approx(1.5),
        pytest.approx(0.4),
    ]
    with pytest.raises(ValueError):
        probe.normalize([1.0], [slow])
    assert probe.timed_probe() > 0


def test_self_time_excludes_child_spans():
    with tracer.Tracer() as t:
        with t.span("outer"):
            with t.span("inner"):
                time.sleep(0.02)
    inclusive, own = t.totals()
    assert inclusive["inner"] >= 0.02
    assert own["outer"] == pytest.approx(inclusive["outer"] - inclusive["inner"])
    assert own["outer"] < 0.01


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "reference",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
