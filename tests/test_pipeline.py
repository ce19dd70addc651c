import builtins
import dataclasses
import gc
import math
import hashlib
import json
import random
import re
import weakref
from pathlib import Path

import pytest
from oracles import gapped_capture, prc_auc_all_thresholds, roc_auc_pair_counting

from minedetect import comm_graph, flow_model, snn_cluster
from minedetect.comm_graph import MiningFingerprint, StateParams, window_snapshots
from minedetect.errors import InvalidConfigError
from minedetect.flow_model import (
    FlowTable,
    Label,
    aggregate_host_features,
    fit_normalizer,
    hosts_in,
    normalize,
)
from minedetect.knn_classify import KnnClassifier, Prediction
from minedetect.metrics import METRIC_COLUMNS
from minedetect.pipeline import (
    PipelineConfig,
    PipelineStepError,
    _detector_metrics,
    lifecycle_states,
    report_clusters_csv,
    report_metrics_csv,
    run,
)
from minedetect.snn_cluster import STATE_RANK, State
from minedetect.synthgen import ScenarioConfig, generate

from test_flow_model import REFERENCE_CONFIG, make_flow, make_vector


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


def test_clusters_change_no_host_vote_and_run_scores_once(monkeypatch):
    # a host's KNN vote never depends on its cluster: k_shared=8 splits G*
    # into a cluster per host, and the hosts section is the default run's
    labeled, flows, truth = scenario_inputs()
    vote = KnnClassifier.vote
    calls = []

    def counting(self, queries):
        calls.append(len(queries))
        return vote(self, queries)

    monkeypatch.setattr(KnnClassifier, "vote", counting)
    hosts = {}
    for k_shared in (2, 8):
        calls.clear()
        report = run(flows, labeled, PipelineConfig(k_shared=k_shared), ground_truth=truth.labels)
        assert calls == [len(report.predictions)]
        hosts[k_shared] = (len(report.clusters), report.to_obj()["hosts"])
    assert hosts[2][0] < hosts[8][0]
    assert hosts[2][1] == hosts[8][1]


def test_run_leaves_snn_edges_unspelled(monkeypatch):
    # step 5 clusters from G*'s pair keys; the id-pair edge set is for readers
    graphs = []
    build = snn_cluster.build_snn_graph

    def recording(g, k_shared):
        graphs.append(build(g, k_shared))
        return graphs[-1]

    monkeypatch.setattr(snn_cluster, "build_snn_graph", recording)
    labeled, eval_flows, eval_truth = scenario_inputs()
    run(eval_flows, labeled, PipelineConfig(), ground_truth=eval_truth.labels)
    (snn,) = graphs
    assert len(snn.pairs) > 0 and "edges" not in vars(snn)


def labeled_vectors(flows, truth):
    t0 = min(f.start_time for f in flows)
    t1 = max(f.end_time for f in flows) + 1e-6
    table = FlowTable.from_records(flows)  # one conversion, not one per host
    out = []
    for host in sorted(hosts_in(flows)):
        if host not in truth.labels:
            continue
        v = aggregate_host_features(table, host, (t0, t1))
        out.append(dataclasses.replace(v, label=truth.labels[host]))
    return out


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


def test_run_digests_the_capture_without_serializing_it(monkeypatch):
    labeled, eval_flows, eval_truth = scenario_inputs()
    expected = hashlib.sha256(flow_model.flows_to_csv(eval_flows).encode("utf-8")).hexdigest()

    def refuse(flows):
        raise AssertionError("run built the whole capture CSV")

    monkeypatch.setattr(flow_model, "flows_to_csv", refuse)
    report = run(eval_flows, labeled, PipelineConfig(), ground_truth=eval_truth.labels)
    assert report.provenance["inputs"]["flows_sha256"] == expected


def test_run_digests_the_labeled_set_without_serializing_it(monkeypatch):
    labeled, eval_flows, eval_truth = scenario_inputs()
    expected = hashlib.sha256(flow_model.features_to_csv(labeled).encode("utf-8")).hexdigest()

    def refuse(vectors):
        raise AssertionError("run built the whole labeled feature CSV")

    monkeypatch.setattr(flow_model, "features_to_csv", refuse)
    report = run(eval_flows, labeled, PipelineConfig(), ground_truth=eval_truth.labels)
    assert report.provenance["inputs"]["labeled_sha256"] == expected


def test_run_predicts_each_host_once(monkeypatch):
    labeled, eval_flows, eval_truth = scenario_inputs()
    scored = []
    original = KnnClassifier.vote

    def counting_vote(self, queries):
        scored.extend(queries.hosts)
        return original(self, queries)

    monkeypatch.setattr(KnnClassifier, "vote", counting_vote)
    report = run(eval_flows, labeled, PipelineConfig(), ground_truth=eval_truth.labels)
    assert sorted(scored) == sorted(hosts_in(eval_flows))
    assert set(report.predictions) == hosts_in(eval_flows)


def compensated_sum(iterable, /, start=0):
    """sum() as Python 3.12 adds floats: the first to ``start``, then Neumaier's compensated steps.

    Anything but an int start and exact floats goes to the builtin sum().
    """
    items = list(iterable)
    if not items or type(start) is not int or any(type(x) is not float for x in items):
        return BUILTIN_SUM(items, start)
    total, compensation = start + items[0], 0.0
    for x in items[1:]:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


BUILTIN_SUM = sum


def test_compensated_sum_differs_from_a_fold():
    values = [0.1] * 10
    assert BUILTIN_SUM(values) == 0.9999999999999999 and compensated_sum(values) == 1.0
    assert compensated_sum([1, 2]) == 3 and repr(compensated_sum([-0.0])) == "0.0"


def test_report_does_not_depend_on_how_sum_adds_floats(monkeypatch):
    # from Python 3.12 on, sum() of floats is compensated; no floats of a
    # report may come from it, so each Python gives the same bytes
    train_flows, train_truth = generate(dataclasses.replace(REFERENCE_CONFIG, seed=7))
    flows, truth = generate(REFERENCE_CONFIG)
    labeled = labeled_vectors(train_flows, train_truth)

    def report_text():
        report = run(flows, labeled, PipelineConfig(), ground_truth=truth.labels)
        report.provenance["generated_at"] = None
        return report.to_json() + report_clusters_csv(report) + report_metrics_csv(report)

    folded = report_text()
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "sum", compensated_sum)
        compensated = report_text()
    assert compensated == folded


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


def test_internal_prefixes_matching_no_host_fail_step_3():
    labeled, eval_flows, _ = scenario_inputs()
    config = PipelineConfig(state=StateParams(internal_prefixes=("10.", "192.168.")))
    with pytest.raises(InvalidConfigError, match="internal_prefixes 10.,192.168. match no host"):
        lifecycle_states(eval_flows, config)
    with pytest.raises(PipelineStepError) as exc:
        run(eval_flows, labeled, config)
    assert exc.value.step == 3
    # one prefix that matches some host is enough
    config = PipelineConfig(state=StateParams(internal_prefixes=("10.", "host")))
    assert lifecycle_states(eval_flows, config)[1]
    # a capture without a host has no S3 to lose
    config = PipelineConfig(state=StateParams(internal_prefixes=("10.",)))
    graph, host_states = lifecycle_states([], config)
    assert graph == comm_graph.CommGraph(frozenset(), {}) and host_states == {}


def test_run_counts_labeled_hosts_absent_from_capture_and_trains_on_them():
    labeled, eval_flows, _ = scenario_inputs()
    hosts = hosts_in(eval_flows)
    ghost = dataclasses.replace(labeled[0], host="ghost")
    assert ghost.host not in hosts
    report = run(eval_flows, labeled + [ghost], PipelineConfig())
    assert report.unmatched_labeled == 1 + sum(v.host not in hosts for v in labeled)
    train = report.provenance["steps"][6]
    assert train["name"] == "train_knn"
    assert train["rows_out"] == len(labeled) + 1


def test_single_window_leaves_all_hosts_s0():
    labeled, eval_flows, _ = scenario_inputs()
    one_window = [f for f in eval_flows if f.start_time < 60.0]
    report = run(one_window, labeled, PipelineConfig())
    assert set(report.host_states.values()) == {State.S0}


def incidences(flows):
    """Host-flow incidences: a flow counts once per distinct endpoint."""
    return sum(1 if f.src_host == f.dst_host else 2 for f in flows)


def test_run_reads_each_host_flow_incidence_once(monkeypatch):
    labeled, eval_flows, eval_truth = scenario_inputs()
    summed = []  # the incidences each exact per-host sum reads
    exact_sums = flow_model._exact_sums

    def recording_exact_sums(groups, values, n):
        summed.append((len(groups), n))
        return exact_sums(groups, values, n)

    def refusing_aggregate(*args, **kwargs):
        raise AssertionError("step 2 called aggregate_host_features")

    monkeypatch.setattr(flow_model, "_exact_sums", recording_exact_sums)
    monkeypatch.setattr(flow_model, "aggregate_host_features", refusing_aggregate)
    run(eval_flows, labeled, PipelineConfig(), ground_truth=eval_truth.labels)

    # one sum of packets and one of bytes, each over every incidence once
    assert summed == [(incidences(eval_flows), len(hosts_in(eval_flows)))] * 2


def test_run_counts_mining_volume_without_calling_it(monkeypatch):
    def raising_mining_volume(*args, **kwargs):
        raise AssertionError("step 3 called comm_graph.mining_volume")

    monkeypatch.setattr(comm_graph, "mining_volume", raising_mining_volume)
    labeled, eval_flows, eval_truth = scenario_inputs()
    config = PipelineConfig()
    report = run(eval_flows, labeled, config, ground_truth=eval_truth.labels)
    assert len(report.host_states) == len(hosts_in(eval_flows))
    # fingerprint flows after the first window, where m_v is counted
    matches = config.state.fingerprint.matches
    assert any(matches(f) and f.start_time >= config.window_length for f in eval_flows)


def test_run_computes_each_window_coefficient_once(monkeypatch):
    labeled, eval_flows, eval_truth = scenario_inputs()
    calls = []
    graph_features = comm_graph.graph_features

    def counting_graph_features(g):
        calls.append(g)
        return graph_features(g)

    monkeypatch.setattr(comm_graph, "graph_features", counting_graph_features)
    config = PipelineConfig()
    run(eval_flows, labeled, config, ground_truth=eval_truth.labels)

    windows = list(window_snapshots(eval_flows, config.window_length))
    assert len(windows) > 2
    # one pass per window graph, none for the full-span graph
    assert [(g.timestamp, g.vertices, g.edge_weight) for g in calls] == [
        (g.timestamp, g.vertices, g.edge_weight) for g, _, _ in windows
    ]


def plain_flow(src, dst, start):
    return make_flow(src_host=src, dst_host=dst, start_time=start, end_time=start + 5.0)


def step3_captures():
    _, synth, _ = scenario_inputs()
    loopback = [
        plain_flow("a", "b", 1.0),
        plain_flow("lonely", "lonely", 70.0),  # the only flow of its host
        plain_flow("a", "b", 130.0),
        plain_flow("b", "c", 131.0),
    ]
    # windows 0 and 2 hold flows, window 1 none; the last flow ends late
    gap = [plain_flow("a", "b", 10.0), plain_flow("c", "a", 20.0), plain_flow("b", "a", 150.0)]
    gap.append(make_flow(src_host="c", dst_host="d", start_time=170.0, end_time=900.0))
    return {
        "synthgen": synth,
        "out-of-order": synth[::-1][:400] + synth[:-400],
        "loopback-only-host": loopback,
        "empty-middle-window": gap,
        **{f"gapped-{seed}": gapped_capture(seed) for seed in range(4)},
        "empty": [],
    }


@pytest.mark.parametrize(
    "name",
    [
        "synthgen", "out-of-order", "loopback-only-host", "empty-middle-window",
        "gapped-0", "gapped-1", "gapped-2", "gapped-3", "empty",
    ],
)
def test_full_span_graph_merged_from_windows_equals_one_pass_build(name):
    flows = step3_captures()[name]
    graph, host_states = lifecycle_states(flows, PipelineConfig())
    if flows:
        expected = comm_graph.build_graph(flows, flow_model.full_span(flows))
    else:  # a capture without a flow has no span, and no vertex
        expected = comm_graph.CommGraph(frozenset(), {})
    assert graph.vertices == expected.vertices
    assert graph.edge_weight == expected.edge_weight
    assert graph.timestamp == expected.timestamp
    assert set(host_states) == graph.vertices


def test_step3_reads_each_flow_once(monkeypatch):
    labeled, eval_flows, eval_truth = scenario_inputs()
    n_windows = len(list(window_snapshots(eval_flows, PipelineConfig().window_length)))
    rows = []
    table_graph = comm_graph.table_graph

    def counting_table_graph(flows, *args, **kwargs):
        rows.append(len(flows))
        return table_graph(flows, *args, **kwargs)

    monkeypatch.setattr(comm_graph, "table_graph", counting_table_graph)
    run(eval_flows, labeled, PipelineConfig(), ground_truth=eval_truth.labels)
    assert len(rows) == n_windows
    assert sum(rows) == len(eval_flows)


def test_step3_builds_graphs_only_for_windows_with_flows(monkeypatch):
    # 60 s windows 0 and 1,000,000: the 999,999 windows between hold no flow
    flows = [
        make_flow(src_host="h1", dst_host="h2", start_time=0.0, end_time=1.0),
        make_flow(src_host="h1", dst_host="h3", start_time=1.0, end_time=2.0),
        make_flow(src_host="h2", dst_host="h3", start_time=6e7, end_time=6e7 + 1.0),
    ]
    timestamps = []
    table_graph = comm_graph.table_graph

    def counting_table_graph(*args, **kwargs):
        g = table_graph(*args, **kwargs)
        timestamps.append(g.timestamp)
        return g

    monkeypatch.setattr(comm_graph, "table_graph", counting_table_graph)
    graph, host_states = lifecycle_states(flows, PipelineConfig())
    assert timestamps == [0, 1_000_000]
    assert len(graph.edge_weight) == 3 and set(host_states) == {"h1", "h2", "h3"}


@pytest.mark.parametrize("capture", ["scenario", "gapped-0", "gapped-1", "gapped-2", "gapped-3"])
def test_step3_keeps_at_most_one_earlier_window_graph_alive(monkeypatch, capture):
    if capture == "scenario":
        labeled, flows, truth = scenario_inputs()
        ground_truth = truth.labels
    else:
        labeled, flows, ground_truth = [], gapped_capture(int(capture[-1]), 60.0, 150.0), None
    earlier_alive = []  # at each window graph's build, how many earlier ones are still alive
    built = []
    table_graph = comm_graph.table_graph

    def tracking_table_graph(*args, **kwargs):
        gc.collect()
        earlier_alive.append(sum(ref() is not None for ref in built))
        g = table_graph(*args, **kwargs)
        built.append(weakref.ref(g))
        return g

    monkeypatch.setattr(comm_graph, "table_graph", tracking_table_graph)
    run(flows, labeled, PipelineConfig(), ground_truth=ground_truth)
    assert len(built) > 2
    assert max(earlier_alive) <= 1


def fingerprint_flow(src, dst, start):
    return make_flow(src_host=src, dst_host=dst, dst_port=3333, start_time=start,
                     end_time=start + 45.0, flags=frozenset({"ACK", "PUSH"}))


@pytest.mark.parametrize("delta_t, m_v, state", [(60.0, 1, State.S0), (120.0, 9, State.S3)])
def test_mining_volume_reads_every_window_within_delta_t(monkeypatch, delta_t, m_v, state):
    # eight pool flows in window 0, one in window 1, where the miner also
    # gains two internal neighbors (dk_int = 2)
    flows = [fingerprint_flow("miner", "pool0", float(t)) for t in range(1, 9)]
    flows += [
        fingerprint_flow("miner", "pool0", 61.0),
        make_flow(src_host="miner", dst_host="h1", start_time=62.0, end_time=63.0),
        make_flow(src_host="miner", dst_host="h2", start_time=64.0, end_time=65.0),
    ]
    seen = []
    window_deltas = comm_graph.window_deltas

    def recording_window_deltas(*args, **kwargs):
        seen.append(list(window_deltas(*args, **kwargs)))
        return seen[-1]

    monkeypatch.setattr(comm_graph, "window_deltas", recording_window_deltas)
    report = run(flows, [], PipelineConfig(window_length=60.0, state=StateParams(delta_t=delta_t)))
    [pairs] = seen
    assert len(pairs) == 1
    assert pairs[0]["miner"].dk_int == 2
    assert pairs[0]["miner"].m_v == m_v
    assert report.host_states["miner"] is state


def test_readme_library_api_examples_run_and_agree_with_run():
    scenario = dict(n_hosts=40, ring_degree=4, n_windows=5, recruitment_schedule=(0, 2, 1),
                    pool_hosts=("pool0", "pool1"))
    train_flows, train_truth = generate(ScenarioConfig(seed=7, **scenario))
    flows, truth = generate(ScenarioConfig(seed=11, **scenario))
    # the labeled set as `minedetect features --truth` writes it
    labeled = [
        dataclasses.replace(v, label=train_truth.labels[v.host])
        for v in flow_model.host_vectors(train_flows) if v.host in train_truth.labels
    ]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    stages, windows = re.findall(r"```python\n(.*?)```", section, re.S)
    ns = {"flows": flows, "labeled": labeled, "ground_truth": truth.labels}
    exec(stages, ns)
    report = run(flows, labeled, ns["config"], ground_truth=truth.labels)
    assert ns["predictions"] == report.predictions
    assert ns["verdicts"] == report.cluster_verdicts
    assert ns["clusters"] == report.clusters
    assert ns["host_states"] == report.host_states
    assert ns["metrics"] == report.metrics
    ns = {"flows": flows}
    exec(windows, ns)
    # the loop reached the last of the five 60 s windows
    assert set(ns["states"]) == hosts_in(f for f in flows if f.start_time >= 4 * 60.0)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_pipeline_config_kv_round_trip():
    config = PipelineConfig(
        window_length=30.0,
        k_shared=3,
        knn_k=7,
        state=StateParams(
            internal_prefixes=("10.", "192.168."),
            x_threshold=4,
            t_star=2,
            fingerprint=MiningFingerprint(
                ports=frozenset({3333, 443}),
                min_duration=20.0,
                required_flags=frozenset({"ACK"}),
                pool_hosts=frozenset({"pool.example"}),
            ),
        ),
        suspicion_floor=0.25,
        flow_schema=(("src_host", "SrcAddr"),),
    )
    assert PipelineConfig.from_kv(config.to_kv()) == config
    # blanks around list entries are not part of a prefix
    spaced = PipelineConfig.from_kv({"state.internal_prefixes": "host, pool ,"})
    assert spaced.state.internal_prefixes == ("host", "pool")
    assert spaced.state.is_internal("pool0")


def test_report_config_reads_back_as_the_config_of_the_run():
    labeled, eval_flows, _ = scenario_inputs()
    config = PipelineConfig(
        state=StateParams(
            internal_prefixes=("host", "pool"),
            fingerprint=MiningFingerprint(pool_hosts=frozenset({"pool0", 'pool "1"'})),
        ),
    )
    report = json.loads(run(eval_flows, labeled, config).to_json())
    assert PipelineConfig.from_kv(report["config"]) == config


@pytest.mark.parametrize("make, field", [
    (lambda e: StateParams(internal_prefixes=("10.", e)), "internal_prefixes"),
    (lambda e: MiningFingerprint(pool_hosts=frozenset({"p", e})), "pool_hosts"),
], ids=["state", "fingerprint"])
@pytest.mark.parametrize("entry", ["10.0,1", "p,q", " host", "host\t", ""])
def test_list_entry_that_config_text_cannot_carry_is_rejected(make, field, entry):
    # to_kv would write it as a comma list that reads back as other entries
    with pytest.raises(ValueError, match=f"{field} entries must be non-empty, without surrounding"):
        make(entry)


@pytest.mark.parametrize("kv", [
    {"schema.dst_host": "src_host"},
    {"schema.src_host": "addr", "schema.dst_host": "addr"},
])
def test_pipeline_config_rejects_two_flow_fields_reading_one_column(kv):
    with pytest.raises(InvalidConfigError, match="flow fields 'src_host' and 'dst_host' both read"):
        PipelineConfig.from_kv(kv)


def test_pipeline_config_t_star_any_and_defaults():
    config = PipelineConfig.from_kv({"state.t_star": "any"})
    assert config.state.t_star is None
    assert PipelineConfig.from_kv({}) == PipelineConfig()


def test_pipeline_config_validation():
    with pytest.raises(InvalidConfigError):
        PipelineConfig(window_length=0)
    with pytest.raises(InvalidConfigError):
        PipelineConfig(k_shared=0)
    with pytest.raises(InvalidConfigError):
        PipelineConfig(suspicion_floor=2.0)
    for window in ("nan", "inf"):
        with pytest.raises(InvalidConfigError, match="window_length"):
            PipelineConfig.from_kv({"pipeline.window": window})
    for kv in (
        {"state.delta_t": "0"},
        {"state.delta_t": "-5"},
        {"state.delta_t": "nan"},
        {"state.x_threshold": "0"},
        {"state.dc_cap": "1"},
        {"state.dc_cap": "0.5"},
        {"state.dc_cap": "nan"},
        {"state.t_star": "-1"},
    ):
        with pytest.raises(InvalidConfigError, match="bad state config"):
            PipelineConfig.from_kv(kv)
    # each of these leaves no flow able to match, so S3 could never fire
    for kv in (
        {"fingerprint.required_flags": "ACK,PSH"},
        {"fingerprint.min_duration": "nan"},
        {"fingerprint.min_duration": "inf"},
        {"fingerprint.ports": "3333,70000"},
        {"fingerprint.ports": "-1"},
        {"fingerprint.ports": ""},
    ):
        with pytest.raises(InvalidConfigError, match="bad fingerprint config"):
            PipelineConfig.from_kv(kv)
    pool_only = PipelineConfig.from_kv({"fingerprint.ports": "", "fingerprint.pool_hosts": "p0"})
    assert pool_only.state.fingerprint.ports == frozenset()


# a misspelt key must fail, not leave its setting at the default
@pytest.mark.parametrize(
    "key",
    [
        "state.internal_prefix",
        "snn.kshared",
        "fingerprint.port",
        "schema.src_hots",
        "window",
        "src_host",
    ],
)
def test_pipeline_config_rejects_unknown_key(key):
    with pytest.raises(InvalidConfigError, match=f"unknown config key '{key}'"):
        PipelineConfig.from_kv({"knn.k": "3", key: "5"})


@pytest.mark.parametrize("key, value", [
    ("pipeline.window", "60              # graph window length, seconds"),
    ("knn.k", "five"),
    ("state.t_star", "first"),
    ("fingerprint.ports", "3333,http"),
])
def test_pipeline_config_bad_value_names_its_key(key, value):
    with pytest.raises(InvalidConfigError, match=f"bad value for '{key}': "):
        PipelineConfig.from_kv({key: value})


# ---------------------------------------------------------------------------
# step 9 metric tables
# ---------------------------------------------------------------------------

def test_detector_metrics_match_oracles_on_tied_scores():
    rng = random.Random(19)
    classes = (Label.MINER, Label.NOT_MINER)
    for _ in range(200):
        # both classes present; scores are KNN-like vote shares, so ties abound
        truth = {"h0": Label.MINER, "h1": Label.NOT_MINER}
        truth.update((f"h{i}", rng.choice(classes)) for i in range(2, rng.randint(2, 40)))
        predictions = [
            Prediction(host, rng.choice(classes), rng.randint(0, 5) / 5) for host in truth
        ]
        predictions.insert(rng.randint(0, len(predictions)), Prediction("x", Label.MINER, 1.0))
        table = _detector_metrics(truth, predictions)

        scored = [p for p in predictions if p.host in truth]
        y_true = [truth[p.host] for p in scored]
        pairs = list(zip(y_true, (p.label for p in scored)))
        miner, non = Label.MINER, Label.NOT_MINER
        assert table["confusion"] == {
            "tp": pairs.count((miner, miner)),
            "fp": pairs.count((non, miner)),
            "fn": pairs.count((miner, non)),
            "tn": pairs.count((non, non)),
        }
        assert table["evaluated_hosts"] == len(truth)
        scores = [p.score for p in scored]
        supports = {}
        for label, ranking in ((miner, scores), (non, [1.0 - s for s in scores])):
            row = table["per_class"][label.value]
            assert row["roc_area"] == roc_auc_pair_counting(ranking, y_true, positive=label)
            assert row["prc_area"] == prc_auc_all_thresholds(ranking, y_true, positive=label)
            supports[label.value] = y_true.count(label)
            assert row["recall"] == pairs.count((label, label)) / supports[label.value]
        for col in METRIC_COLUMNS:
            expected = sum(
                table["per_class"][name][col] * support for name, support in supports.items()
            ) / len(y_true)
            assert table["avg"][col] == pytest.approx(expected, abs=1e-12)


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
