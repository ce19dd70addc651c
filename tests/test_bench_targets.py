"""The benchmark tracer wraps program functions by name; keep those names."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from minedetect import comm_graph, pipeline
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
# window, so a 100 s interval also counts the window before it
@pytest.mark.parametrize("delta_t", [None, 100.0], ids=["one-window", "window-and-a-part"])
def test_traced_run_counts_mining_volume_without_calling_it(monkeypatch, delta_t):
    tracer = load_tracer()
    labeled, flows, truth = scenario_inputs()
    config = PipelineConfig()
    if delta_t is not None:
        config = dataclasses.replace(config, state=dataclasses.replace(config.state, delta_t=delta_t))
    seen = []
    window_deltas = comm_graph.window_deltas

    def recording_window_deltas(*args, **kwargs):
        for deltas in window_deltas(*args, **kwargs):
            seen.append(deltas)
            yield deltas

    monkeypatch.setattr(comm_graph, "window_deltas", recording_window_deltas)
    with tracer.Tracer() as trace:
        pipeline.run(flows, labeled, config, ground_truth=truth.labels)
    assert trace.layer_metrics()["comm_graph.mining_volume_calls"][0] == 0
    # pair j ends where snapshot j + 1 does
    ends = [hi for _, _, (_, hi) in comm_graph.window_snapshots(flows, config.window_length)][1:]
    state = config.state
    counted = 0
    for hi, deltas in zip(ends, seen, strict=True):
        for host, d in deltas.items():
            assert d.m_v == comm_graph.mining_volume(flows, host, state.delta_t, state.fingerprint, now=hi)
            counted += d.m_v
    assert counted > 0
