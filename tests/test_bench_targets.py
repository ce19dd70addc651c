"""The benchmark tracer wraps program functions by name; keep those names."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from minedetect import pipeline
from minedetect.pipeline import PipelineConfig

from test_pipeline import scenario_inputs

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

#: tracer targets that one pipeline.run with labeled data and two-class
#: ground truth must reach; a stage that calls one through a name imported
#: with ``from ... import`` bypasses the tracer's wrapper and shows 0 calls
REACHED_BY_RUN = (
    "flow_model.aggregate_host_features",
    "flow_model.fit_normalizer",
    "flow_model.normalize",
    "comm_graph.build_graph",
    "comm_graph.window_deltas",
    "comm_graph.mining_volume",
    "comm_graph.graph_features",
    "snn_cluster.build_snn_graph",
    "snn_cluster.extract_clusters",
    "snn_cluster.finalize_clusters",
    "knn_classify.KnnClassifier.fit",
    "knn_classify.KnnClassifier.predict_cluster",
    "pipeline._detector_metrics",
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_target_is_a_direct_attribute():
    tracer = load_tracer()
    missing = [
        tracer.target_name(owner, attr)
        for owner, attr in tracer.TARGETS
        if not callable(vars(owner).get(attr))
    ]
    assert missing == []


def test_run_reaches_every_traced_stage_target():
    tracer = load_tracer()
    labeled, flows, truth = scenario_inputs()
    with tracer.Tracer() as trace:
        pipeline.run(flows, labeled, PipelineConfig(), ground_truth=truth.labels)
    targets = {tracer.target_name(owner, attr) for owner, attr in tracer.TARGETS}
    assert set(REACHED_BY_RUN) <= targets
    assert [name for name in REACHED_BY_RUN if trace.counts[name + ".calls"] == 0] == []


# the fingerprint flows of this capture start in the first seconds of a
# window, so a 100 s interval also reads the window before it, whose
# fingerprint flows all start before the interval does
@pytest.mark.parametrize("delta_t", [None, 100.0], ids=["one-window", "window-and-a-part"])
def test_traced_mining_volume_reads_only_matching_flows(delta_t):
    tracer = load_tracer()
    labeled, flows, truth = scenario_inputs()
    config = PipelineConfig()
    if delta_t is not None:
        config = dataclasses.replace(config, state=dataclasses.replace(config.state, delta_t=delta_t))
    with tracer.Tracer() as trace:
        pipeline.run(flows, labeled, config, ground_truth=truth.labels)
    metrics = trace.layer_metrics()
    matches = metrics["comm_graph.mining_volume_matches"][0]
    assert matches > 0
    assert metrics["comm_graph.mining_volume_rows_scanned"][0] == matches
