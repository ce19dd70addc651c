"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every numeric bound asserted here is fixed up front; the brute-force
oracles live in tests/oracles.py and share no code with the library.
"""

import dataclasses
import math
import os
import random
import re
import time
from fractions import Fraction

import pytest

from minedetect.cli import dispatch
from minedetect.comm_graph import (
    MiningFingerprint,
    StateParams,
    build_graph,
    subnet_prefix_predicate,
    triangle_count,
    vertex_degree,
    window_deltas,
)
from minedetect.flow_model import (
    FEATURE_ORDER,
    FeatureVector,
    Label,
    aggregate_host_features,
    hosts_in,
)
from minedetect.knn_classify import KnnClassifier
from minedetect.metrics import ConfusionMatrix, accuracy, class_metrics, roc_auc
from minedetect.pipeline import PipelineConfig, run
from minedetect.snn_cluster import State, assign_state, build_snn_graph, extract_clusters
from minedetect.synthgen import ScenarioConfig, expected_states, generate

import oracles


def report_line(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} [{status}] {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. SNN construction matches the cubic pairwise-scan oracle
# ---------------------------------------------------------------------------

def test_criterion_1_snn_oracle_equivalence():
    rng = random.Random(20_240_001)
    started = time.monotonic()
    discrepancies = 0
    for i in range(500):
        n = rng.randint(2, 100)
        p = rng.uniform(0.05, 0.5)
        k_shared = (i % 4) + 1
        g = oracles.random_comm_graph(rng, n, p)
        got = build_snn_graph(g, k_shared).edges
        want = frozenset(oracles.snn_edges_pairwise_scan(g, k_shared))
        if got != want:
            discrepancies += 1
    elapsed = time.monotonic() - started
    report_line(
        1,
        discrepancies == 0 and elapsed < 60.0,
        f"SNN oracle equivalence: 500 graphs, {discrepancies} discrepancies, {elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# 2. clustering coefficient matches exhaustive triangle enumeration exactly
# ---------------------------------------------------------------------------

def test_criterion_2_clustering_coefficient_oracle():
    rng = random.Random(20_240_002)
    bad = 0
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 200)
        # cap the average degree so the O(k^2) enumeration stays desk-scale
        p = rng.uniform(0.02, min(0.3, 20.0 / n))
        g = oracles.random_comm_graph(rng, n, p)
        for v in g.vertices:
            k = vertex_degree(g, v)
            t_impl = triangle_count(g, v)
            t_oracle = oracles.triangle_count_brute(g, v)
            exact_impl = Fraction(2 * t_impl, k * (k - 1)) if k >= 2 else Fraction(0)
            if exact_impl != oracles.clustering_fraction(k, t_oracle):
                bad += 1
            checked += 1
    report_line(
        2,
        bad == 0,
        f"clustering-coefficient oracle: 200 graphs, {checked} vertices, {bad} inexact",
    )


# ---------------------------------------------------------------------------
# 3. KNN predictions equal the exhaustive-scan oracle
# ---------------------------------------------------------------------------

def test_criterion_3_knn_oracle():
    rng = random.Random(20_240_003)

    def rand_vec(host, label):
        return FeatureVector(
            host=host,
            **dict(zip(FEATURE_ORDER, (rng.random() for _ in FEATURE_ORDER))),
            label=label,
            normalized=True,
        )

    train = [
        rand_vec(f"t{i}", Label.MINER if rng.random() < 0.4 else Label.NOT_MINER)
        for i in range(10_000)
    ]
    queries = [rand_vec(f"q{i}", Label.UNLABELED) for i in range(1_000)]
    miner_flags = [v.label is Label.MINER for v in train]
    matrix = [v.values() for v in train]
    rows = oracles.squared_distances_rowwise([q.values() for q in queries], matrix)
    # one stable sort per query, prefixes shared across every k
    sorted_orders = [
        sorted(range(len(train)), key=row.tolist().__getitem__) for row in rows
    ]

    mismatches = 0
    for k in (1, 3, 5, 15):
        model = KnnClassifier(k=k).fit(train)
        for q, order in zip(queries, sorted_orders):
            chosen = order[:k]
            votes = sum(1 for i in chosen if miner_flags[i])
            score = votes / k
            if score > 0.5:
                expect_miner = True
            elif score < 0.5:
                expect_miner = False
            else:
                expect_miner = miner_flags[chosen[0]]
            got = model.predict(q)
            if (got.label is Label.MINER) != expect_miner:
                mismatches += 1
    report_line(
        3,
        mismatches == 0,
        f"KNN oracle: 1000 queries x 10000 examples, k in (1,3,5,15), {mismatches} mismatches",
    )


# ---------------------------------------------------------------------------
# 4. metric identities
# ---------------------------------------------------------------------------

def test_criterion_4_metric_identities():
    f = 2 * 0.143 * 0.538 / (0.143 + 0.538)
    f_ok = abs(f - 0.226) <= 0.001

    rng = random.Random(20_240_004)
    mcc_ok = True
    for _ in range(1_000):
        m = ConfusionMatrix(
            tp=rng.randint(0, 1000),
            fp=rng.randint(0, 1000),
            fn=rng.randint(0, 1000),
            tn=rng.randint(0, 1000),
        )
        if m.total == 0:
            continue
        cm = class_metrics(m)
        sw = class_metrics(m.swapped())
        if not (-1.0 <= cm.mcc <= 1.0) or abs(abs(cm.mcc) - abs(sw.mcc)) > 1e-12:
            mcc_ok = False
            break

    roc_ok = True
    worst = 0.0
    for _ in range(200):
        n = rng.randint(2, 200)
        labels = [rng.random() < 0.5 for _ in range(n)]
        if all(labels) or not any(labels):
            labels[0], labels[1] = True, False
        # half the sets carry ties via rounded scores
        scores = [
            round(rng.random(), 2) if rng.random() < 0.5 else rng.random()
            for _ in range(n)
        ]
        base = roc_auc(scores, labels)
        for transform in (lambda x: 5.0 * x + 2.0, math.exp, lambda x: x ** 3):
            delta = abs(roc_auc([transform(s) for s in scores], labels) - base)
            worst = max(worst, delta)
            if delta > 1e-12:
                roc_ok = False
    report_line(
        4,
        f_ok and mcc_ok and roc_ok,
        f"metric identities: F={f:.4f} (target 0.226±0.001), mcc bounds/swap on 1000 matrices, "
        f"roc monotone-transform worst drift {worst:.2e} (<= 1e-12)",
    )


# ---------------------------------------------------------------------------
# 5. arithmetic of the published confusion-matrix counts
# ---------------------------------------------------------------------------

def test_criterion_5_reported_matrix_arithmetic():
    m = ConfusionMatrix(tp=147, fp=882, fn=26, tn=355692)
    precision = class_metrics(m).precision
    acc = accuracy(m)
    precision_ok = abs(precision - 0.1429) <= 0.0005
    # NOTE: the matrix counts yield 0.99746, not the 99.72% quoted next to
    # them; the quoted recall 0.538 / MCC 0.276 are likewise irreproducible
    # from any orientation of the printed counts and are excluded here.
    accuracy_ok = abs(acc - 0.99746) <= 0.00001
    report_line(
        5,
        precision_ok and accuracy_ok,
        f"matrix arithmetic: precision={precision:.4f} (0.1429±0.0005), "
        f"accuracy={acc:.6f} (0.99746±0.00001)",
    )


# ---------------------------------------------------------------------------
# 6. end-to-end planted-miner recovery on the reference scenario
# ---------------------------------------------------------------------------

ACCEPTANCE_SCENARIO = dict(
    n_hosts=200,
    ring_degree=6,
    rewire_prob=0.1,
    n_windows=6,
    recruitment_schedule=(0, 4, 4, 2),  # 10 victims
    pool_hosts=("pool0", "pool1"),
)


def labeled_from(flows, truth):
    t0 = min(f.start_time for f in flows)
    t1 = max(f.end_time for f in flows) + 1e-6
    out = []
    for host in sorted(hosts_in(flows)):
        if host in truth.labels:
            v = aggregate_host_features(flows, host, (t0, t1))
            out.append(dataclasses.replace(v, label=truth.labels[host]))
    return out


def test_criterion_6_end_to_end_recovery():
    started = time.monotonic()
    train_flows, train_truth = generate(ScenarioConfig(seed=7, **ACCEPTANCE_SCENARIO))
    labeled = labeled_from(train_flows, train_truth)

    cfg = ScenarioConfig(seed=42, **ACCEPTANCE_SCENARIO)
    flows, truth = generate(cfg)
    assert len(truth.miners) == 10

    # generator separation, verified by brute-force fingerprint counting
    # before any pipeline code runs: active miners exceed the volume
    # threshold in every mining window, benign hosts never match at all
    fp = MiningFingerprint()
    threshold = StateParams().x_threshold
    L = cfg.window_length
    for victim in truth.miners:
        r = truth.recruitment_window[victim]
        for w in range(r + 2, cfg.n_windows):
            count = sum(
                1
                for f in flows
                if w * L <= f.start_time < (w + 1) * L
                and f.involves(victim)
                and oracles.fingerprint_match_brute(
                    f, fp.ports, fp.min_duration, fp.required_flags, fp.pool_hosts
                )
            )
            assert count > threshold, (victim, w, count)
    for host, label in truth.labels.items():
        if label is Label.NOT_MINER:
            count = sum(
                1
                for f in flows
                if f.involves(host)
                and oracles.fingerprint_match_brute(
                    f, fp.ports, fp.min_duration, fp.required_flags, fp.pool_hosts
                )
            )
            assert count == 0, (host, count)

    report = run(flows, labeled, PipelineConfig(), ground_truth=truth.labels)
    tp = sum(1 for h in truth.miners if report.predictions[h].label is Label.MINER)
    benign = [h for h, label in truth.labels.items() if label is Label.NOT_MINER]
    fp_count = sum(1 for h in benign if report.predictions[h].label is Label.MINER)
    recall = tp / len(truth.miners)
    fpr = fp_count / len(benign)
    in_lstar = all(h in report.suspicious for h in truth.miners)
    elapsed = time.monotonic() - started
    report_line(
        6,
        recall >= 0.9 and fpr <= 0.05 and in_lstar and elapsed < 30.0,
        f"end-to-end recovery: recall={recall:.2f} (>=0.9), fpr={fpr:.4f} (<=0.05), "
        f"all miners in L*={in_lstar}, {elapsed:.1f}s (< 30s)",
    )


# ---------------------------------------------------------------------------
# 7. lifecycle-state replay against the generator's schedule
# ---------------------------------------------------------------------------

def test_criterion_7_state_machine_replay():
    cfg = ScenarioConfig(seed=42, **ACCEPTANCE_SCENARIO)
    flows, truth = generate(cfg)
    L = cfg.window_length
    params = StateParams(monitored_subnet=subnet_prefix_predicate(["host"]))

    snapshots, window_flows = [], []
    for w in range(cfg.n_windows):
        in_window = [f for f in flows if w * L <= f.start_time < (w + 1) * L]
        snapshots.append(build_graph(in_window, (w * L, (w + 1) * L), timestamp=w))
        window_flows.append(in_window)

    agree = total = 0
    dc_seen: dict[str, list[float]] = {}
    mismatches = []
    for w in range(cfg.n_windows):
        expected = expected_states(truth, w)
        if w == 0:
            actual = {h: State.S0 for h in truth.labels}
        else:
            deltas = window_deltas(
                snapshots[w - 1], snapshots[w], params, window_flows[w],
                prior_dc=dc_seen, now=(w + 1) * L,
            )
            actual = {
                h: assign_state(deltas[h], params) if h in deltas else State.S0
                for h in truth.labels
            }
            for host, d in deltas.items():
                dc_seen.setdefault(host, []).append(d.dc_factor)
        for host in truth.labels:
            total += 1
            if actual[host] is expected[host]:
                agree += 1
            else:
                mismatches.append((host, w, expected[host].value, actual[host].value))

    for host, w, exp, act in mismatches:
        print(f"  state mismatch host={host} window={w}: expected {exp}, fired {act}")
    fraction = agree / total
    report_line(
        7,
        fraction >= 0.95,
        f"state replay: {agree}/{total} = {fraction:.4f} (>= 0.95), "
        f"{len(mismatches)} mismatches logged",
    )


# ---------------------------------------------------------------------------
# 8. full-run determinism through the CLI
# ---------------------------------------------------------------------------

def test_criterion_8_run_determinism(tmp_path):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(
        "\n".join(f"scenario.{k}={v}" for k, v in ScenarioConfig(seed=7, **ACCEPTANCE_SCENARIO).to_kv().items())
        + "\n"
    )
    train_flows = tmp_path / "train.csv"
    assert dispatch(["simulate", "--scenario", str(scenario), "--seed", "7", "--out", str(train_flows)]) == 0
    labeled = tmp_path / "labeled.csv"
    assert dispatch([
        "features", "--flows", str(train_flows),
        "--truth", str(tmp_path / "train.truth.csv"), "--out", str(labeled),
    ]) == 0
    eval_flows = tmp_path / "eval.csv"
    assert dispatch(["simulate", "--scenario", str(scenario), "--seed", "42", "--out", str(eval_flows)]) == 0

    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert dispatch([
            "run", "--flows", str(eval_flows), "--labeled", str(labeled),
            "--ground-truth", str(tmp_path / "eval.truth.csv"), "--out", str(out),
        ]) == 0
        reports.append(out.read_text())

    scrub = re.compile(r'"generated_at": "[^"]*"')
    scrubbed = [scrub.sub('"generated_at": "X"', text) for text in reports]
    identical = scrubbed[0] == scrubbed[1]
    differed_raw = reports[0] != reports[1]  # only the timestamp may differ
    report_line(
        8,
        identical,
        f"determinism: reports byte-identical modulo timestamp "
        f"(raw texts {'differ only in timestamp' if differed_raw else 'fully identical'})",
    )


# ---------------------------------------------------------------------------
# 9. external-dataset reproduction (best-effort, non-gating)
# ---------------------------------------------------------------------------

DATASET_ENV = "MINEDETECT_DATASET26"
REFERENCE_DISTRIBUTION = (22, 19, 18, 15, 26)  # percent, five clusters


def test_criterion_9_external_dataset_experiment():
    path = os.environ.get(DATASET_ENV)
    if not path or not os.path.exists(path):
        pytest.skip(
            f"external dataset not supplied; set {DATASET_ENV} to a flow CSV "
            "to archive the 5-cluster comparison run (non-gating)"
        )
    from minedetect.flow_model import parse_flow_csv

    with open(path, "r", encoding="utf-8") as fh:
        flows = parse_flow_csv(fh.read())
    g = build_graph(flows, (min(f.start_time for f in flows), max(f.end_time for f in flows) + 1e-6))
    results = {}
    for k_shared in range(1, 9):
        clusters = extract_clusters(build_snn_graph(g, k_shared))
        results[k_shared] = [round(100 * c.size / len(g.vertices)) for c in clusters[:8]]
        print(f"  k_shared={k_shared}: {len(clusters)} clusters, distribution {results[k_shared]}")
    five = [k for k, dist in results.items() if len(dist) == 5]
    print(f"  reference distribution: {list(REFERENCE_DISTRIBUTION)}")
    report_line(
        9,
        True,  # archived experiment; exact reproduction is documented as not required
        f"dataset experiment archived; k_shared values yielding 5 clusters: {five}",
    )
