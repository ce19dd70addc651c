import dataclasses
import json

import pytest

from minedetect.comm_graph import HostGraphFeatures, MiningFingerprint
from minedetect.errors import InvalidConfigError
from minedetect.flow_model import Label, aggregate_host_features, fit_normalizer, hosts_in, normalize
from minedetect.knn_classify import KnnClassifier
from minedetect.pipeline import (
    PipelineConfig,
    PipelineStepError,
    map_labels,
    report_clusters_csv,
    report_metrics_csv,
    run,
)
from minedetect.snn_cluster import STATE_RANK, State
from minedetect.synthgen import ScenarioConfig, generate

from test_flow_model import make_flow, make_vector


def scenario_inputs(train_seed=7, eval_seed=11, **overrides):
    base = dict(
        n_hosts=40,
        ring_degree=4,
        rewire_prob=0.1,
        n_windows=5,
        recruitment_schedule=(0, 2, 1),
        pool_hosts=("pool0", "pool1"),
    )
    base.update(overrides)
    train_flows, train_truth = generate(ScenarioConfig(seed=train_seed, **base))
    labeled = labeled_vectors(train_flows, train_truth)
    eval_flows, eval_truth = generate(ScenarioConfig(seed=eval_seed, **base))
    return labeled, eval_flows, eval_truth


def labeled_vectors(flows, truth):
    t0 = min(f.start_time for f in flows)
    t1 = max(f.end_time for f in flows) + 1e-6
    out = []
    for host in sorted(hosts_in(flows)):
        if host not in truth.labels:
            continue
        v = aggregate_host_features(flows, host, (t0, t1))
        out.append(dataclasses.replace(v, label=truth.labels[host]))
    return out


# ---------------------------------------------------------------------------
# map_labels
# ---------------------------------------------------------------------------

def test_map_labels_joins_graph_features():
    v = make_vector(host="a", label=Label.MINER)
    feats = {"a": HostGraphFeatures("a", k=3, c=0.5)}
    (e,) = map_labels([v], {"a"}, feats)
    assert e.matched and e.k == 3 and e.c == 0.5


def test_map_labels_unmatched_host_retained():
    v = make_vector(host="ghost", label=Label.MINER)
    (e,) = map_labels([v], {"a"}, {"a": HostGraphFeatures("a", 1, 0.0)})
    assert not e.matched
    assert e.vector is v


def test_map_labels_disjoint_universes_all_unmatched():
    vs = [make_vector(host=f"x{i}") for i in range(5)]
    enriched = map_labels(vs, {"a", "b"}, {})
    assert all(not e.matched for e in enriched)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_recovers_planted_miners_and_reports_metrics():
    labeled, eval_flows, eval_truth = scenario_inputs()
    report = run(eval_flows, labeled, PipelineConfig(), ground_truth=eval_truth.labels)

    for miner in eval_truth.miners:
        assert report.predictions[miner].label is Label.MINER
        assert miner in report.suspicious

    assert report.metrics is not None
    assert set(report.metrics) == {"knn", "state_detector"}
    knn = report.metrics["knn"]
    assert knn["evaluated_hosts"] == len(eval_truth.labels)
    assert knn["per_class"]["Miner"]["recall"] >= 0.9

    # provenance lists the ten steps in order with row counts
    steps = report.provenance["steps"]
    assert [s["step"] for s in steps] == list(range(1, 11))
    assert all("rows_in" in s and "rows_out" in s for s in steps)
    assert steps[4]["name"] == "snn_cluster"


def test_run_is_deterministic_modulo_timestamp():
    labeled, eval_flows, eval_truth = scenario_inputs()
    r1 = run(eval_flows, labeled, PipelineConfig(), ground_truth=eval_truth.labels)
    r2 = run(eval_flows, labeled, PipelineConfig(), ground_truth=eval_truth.labels)
    o1, o2 = r1.to_obj(), r2.to_obj()
    o1["provenance"].pop("generated_at")
    o2["provenance"].pop("generated_at")
    assert json.dumps(o1, sort_keys=True) == json.dumps(o2, sort_keys=True)


def test_run_predicts_each_host_once(monkeypatch):
    labeled, eval_flows, eval_truth = scenario_inputs()
    calls = []
    original = KnnClassifier.predict

    def counting_predict(self, v):
        calls.append(v.host)
        return original(self, v)

    monkeypatch.setattr(KnnClassifier, "predict", counting_predict)
    report = run(eval_flows, labeled, PipelineConfig(), ground_truth=eval_truth.labels)
    assert sorted(calls) == sorted(hosts_in(eval_flows))
    assert set(report.predictions) == hosts_in(eval_flows)


def test_run_empty_flows_gives_empty_report():
    labeled, _, _ = scenario_inputs()
    report = run([], labeled, PipelineConfig())
    assert report.clusters == []
    assert report.predictions == {}
    assert report.metrics is None
    assert report.suspicious == []


def test_run_without_ground_truth_has_no_metrics():
    labeled, eval_flows, _ = scenario_inputs()
    report = run(eval_flows, labeled, PipelineConfig())
    assert report.metrics is None
    assert report.predictions  # predictions still produced


def test_run_single_class_truth_skips_metrics():
    labeled, eval_flows, eval_truth = scenario_inputs()
    truth = {h: Label.NOT_MINER for h in eval_truth.labels}
    report = run(eval_flows, labeled, PipelineConfig(), ground_truth=truth)
    assert report.metrics is None


def test_suspicious_list_recomputable_from_report():
    labeled, eval_flows, eval_truth = scenario_inputs()
    config = PipelineConfig(suspicion_floor=0.2)
    report = run(eval_flows, labeled, config, ground_truth=eval_truth.labels)
    obj = report.to_obj()
    recomputed = sorted(
        host
        for host, row in obj["hosts"].items()
        if row["label"] == "Miner"
        or (STATE_RANK[State(row["state"])] >= 1 and row["score"] >= config.suspicion_floor)
    )
    assert recomputed == obj["suspicious"]


def test_run_tags_step_errors():
    normalized = normalize(make_vector(host="a", label=Label.MINER),
                           fit_normalizer([make_vector(host="a")]))
    with pytest.raises(PipelineStepError) as exc:
        run([make_flow()], [normalized], PipelineConfig())
    assert exc.value.step == 2

    # an unlabeled row in the labeled set is caught at the training step
    with pytest.raises(PipelineStepError) as exc:
        run([make_flow()], [make_vector(host="a", label=Label.UNLABELED)], PipelineConfig())
    assert exc.value.step == 7


def test_single_window_leaves_all_hosts_s0():
    labeled, eval_flows, _ = scenario_inputs()
    one_window = [f for f in eval_flows if f.start_time < 60.0]
    report = run(one_window, labeled, PipelineConfig())
    assert set(report.host_states.values()) == {State.S0}


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_pipeline_config_kv_round_trip():
    config = PipelineConfig(
        window_length=30.0,
        k_shared=3,
        knn_k=7,
        internal_prefixes=("10.", "192.168."),
        x_threshold=4,
        t_star=2,
        fingerprint=MiningFingerprint(ports=frozenset({3333})),
        suspicion_floor=0.25,
        flow_schema=(("src_host", "SrcAddr"),),
    )
    assert PipelineConfig.from_kv(config.to_kv()) == config


def test_pipeline_config_t_star_any_and_defaults():
    config = PipelineConfig.from_kv({"state.t_star": "any"})
    assert config.t_star is None
    assert PipelineConfig.from_kv({}) == PipelineConfig()


def test_pipeline_config_validation():
    with pytest.raises(InvalidConfigError):
        PipelineConfig(window_length=0)
    with pytest.raises(InvalidConfigError):
        PipelineConfig(k_shared=0)
    with pytest.raises(InvalidConfigError):
        PipelineConfig(suspicion_floor=2.0)


# ---------------------------------------------------------------------------
# emission helpers
# ---------------------------------------------------------------------------

def test_report_csv_tables():
    labeled, eval_flows, eval_truth = scenario_inputs()
    report = run(eval_flows, labeled, PipelineConfig(), ground_truth=eval_truth.labels)
    metrics_csv = report_metrics_csv(report)
    assert metrics_csv.splitlines()[0].startswith("Class,TP Rate,FP Rate,")
    assert len(metrics_csv.splitlines()) == 4  # header + 2 classes + Avg.
    clusters_csv = report_clusters_csv(report)
    assert clusters_csv.splitlines()[0].startswith("cluster,size,state,")
