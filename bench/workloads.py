"""Benchmark workloads: synthgen scenarios and the capture-to-report pass.

Each workload is a ScenarioConfig override of ``scenarios/reference.cfg``.
Set-up turns a workload and a seed into in-memory CSV text, the way
``minedetect simulate`` followed by ``minedetect features`` would write it;
the pass turns that text into a report the way ``minedetect run`` does,
minus the file I/O. Both go through the modules' public functions only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from minedetect import flow_model, pipeline, synthgen
from minedetect.cli import read_kv_file
from minedetect.pipeline import PipelineConfig
from minedetect.rng import SplitMix64

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_SCENARIO = ROOT / "scenarios" / "reference.cfg"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: Mapping[str, object]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "reference",
            "the desk-scale capture users run (200 hosts, 6 windows); fixed per-pass costs weigh most, so added overhead shows",
            {},
        ),
        Workload(
            "long_capture",
            "12 windows of a 200-host capture: flow scans, windowing and mining volume grow, the SNN graph stays tiny",
            {"n_windows": 12},
        ),
        Workload(
            "wide_network",
            "600 hosts on a sparse ring: the dense SNN product and per-host scans dominate; tens of SNN clusters",
            {
                "n_hosts": 600,
                "ring_degree": 4,
                "n_windows": 4,
                "benign_rate": 1,
                "recruitment_schedule": (0, 12, 12),
            },
        ),
        Workload(
            "pool_mesh",
            "120 miners in one clique around a pool hub: high-degree vertices stress SNN pair and triangle counts",
            {"n_hosts": 200, "n_windows": 4, "recruitment_schedule": (0, 60, 60)},
        ),
    )
}


def scenario_config(workload: Workload) -> synthgen.ScenarioConfig:
    base = synthgen.ScenarioConfig.from_kv(read_kv_file(str(REFERENCE_SCENARIO)))
    return dataclasses.replace(base, **workload.overrides)


def train_seed(seed: int) -> int:
    """Seed of the training capture, derived from the workload seed."""
    return SplitMix64(seed).next_u64()


@dataclass(frozen=True)
class Inputs:
    """What the program receives: flow, labeled-feature and truth CSV text."""

    flows_csv: str
    labeled_csv: str
    truth_csv: str
    hosts: frozenset[str]  # every host of the evaluation capture
    n_flows: int


def labeled_features_csv(flows_csv: str, truth_csv: str) -> str:
    """``minedetect features --truth``: full-span vectors of labeled hosts."""
    flows = flow_model.parse_flow_csv(flows_csv)
    labels = synthgen.parse_truth_csv(truth_csv).labels
    span = (
        min(f.start_time for f in flows),
        max(f.end_time for f in flows) + 1e-6,
    )
    vectors = [
        dataclasses.replace(
            flow_model.aggregate_host_features(flows, host, span), label=labels[host]
        )
        for host in sorted(flow_model.hosts_in(flows))
        if host in labels
    ]
    return flow_model.features_to_csv(vectors)


def build_inputs(workload: Workload, seed: int) -> Inputs:
    """Set-up: simulate both captures and build the labeled training set."""
    config = scenario_config(workload)
    train_flows, train_truth = synthgen.generate(config, seed=train_seed(seed))
    eval_flows, eval_truth = synthgen.generate(config, seed=seed)
    labeled_csv = labeled_features_csv(
        flow_model.flows_to_csv(train_flows), synthgen.truth_to_csv(train_truth)
    )
    return Inputs(
        flows_csv=flow_model.flows_to_csv(eval_flows),
        labeled_csv=labeled_csv,
        truth_csv=synthgen.truth_to_csv(eval_truth),
        hosts=frozenset(flow_model.hosts_in(eval_flows)),
        n_flows=len(eval_flows),
    )


@dataclass(frozen=True)
class Outputs:
    report_json: str
    clusters_csv: str
    metrics_csv: str | None


def capture_to_report(inputs: Inputs, config: PipelineConfig) -> Outputs:
    """``minedetect run --ground-truth`` on in-memory text."""
    flows = flow_model.parse_flow_csv(inputs.flows_csv, schema=config.schema())
    labeled = flow_model.parse_feature_csv(inputs.labeled_csv)
    ground_truth = synthgen.parse_truth_csv(inputs.truth_csv).labels
    report = pipeline.run(flows, labeled, config, ground_truth=ground_truth)
    return Outputs(
        report_json=report.to_json(),
        clusters_csv=pipeline.report_clusters_csv(report),
        metrics_csv=pipeline.report_metrics_csv(report) if report.metrics else None,
    )
