"""End-to-end detection pipeline.

Ten fixed steps: parse, normalize (per-host aggregation + min-max scaling
on the union of labeled and unlabeled data), build the full-span graph and
the per-window lifecycle states, count labeled records whose host is not in
the capture, SNN-cluster, attach states to clusters, train KNN, classify
hosts and clusters, compute metrics when ground truth is available, and
assemble the report. There is no randomness anywhere, so identical inputs
and config produce identical reports (up to the provenance timestamp).
Steps 2, 3, 5 and 9 are stage functions that can be called on their own;
step 8 is one KnnClassifier.predict_cluster call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import comm_graph, flow_model, kvconfig, metrics as metrics_mod, snn_cluster
from .comm_graph import CommGraph, StateParams
from .errors import InvalidConfigError, MineDetectError
from .flow_model import FeatureVector, FlowRecord, Label
from .knn_classify import KnnClassifier, Prediction
from .kvconfig import Key, comma_list, optional_int
from .snn_cluster import Cluster, State, STATE_RANK

STEP_NAMES = (
    "parse",
    "normalize",
    "graph_features",
    "map_labels",
    "snn_cluster",
    "assign_states",
    "train_knn",
    "classify",
    "metrics",
    "report",
)


class PipelineStepError(MineDetectError):
    """A module error, tagged with the pipeline step that raised it."""

    def __init__(self, step: int, name: str, cause: Exception):
        super().__init__(f"step {step} ({name}): {cause}")
        self.step = step
        self.cause = cause


@dataclass(frozen=True)
class PipelineConfig:
    """Free parameters of the detection pipeline; ``state`` holds the lifecycle ones."""

    window_length: float = 60.0
    k_shared: int = 2
    knn_k: int = 5
    state: StateParams = field(default_factory=StateParams)
    suspicion_floor: float = 0.0
    flow_schema: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not 0 < self.window_length < math.inf:
            raise InvalidConfigError("window_length must be finite and > 0")
        if self.k_shared < 1 or self.knn_k < 1:
            raise InvalidConfigError("k_shared and knn_k must be >= 1")
        if not (0.0 <= self.suspicion_floor <= 1.0):
            raise InvalidConfigError("suspicion_floor must be in [0, 1]")
        flow_model.flow_columns(self.schema())

    def schema(self) -> dict[str, str] | None:
        return dict(self.flow_schema) if self.flow_schema else None

    def to_kv(self) -> dict[str, str]:
        return kvconfig.encode(self, CONFIG_KEYS)

    @classmethod
    def from_kv(cls, kv: Mapping[str, str]) -> "PipelineConfig":
        return kvconfig.decode(cls, CONFIG_KEYS, kv)


# every PipelineConfig key, once; a state.* key is its own attribute path
CONFIG_KEYS = (
    Key("pipeline.window", "window_length", float),
    Key("snn.k_shared", "k_shared", int),
    Key("knn.k", "knn_k", int),
    Key("state.internal_prefixes", parse=comma_list()),
    Key("state.x_threshold", parse=int),
    Key("state.delta_t", parse=float),
    Key("state.t_star", parse=optional_int),
    Key("state.dc_cap", parse=float),
    Key("report.suspicion_floor", "suspicion_floor", float),
    Key("fingerprint.ports", "state.fingerprint.ports", comma_list(int, frozenset)),
    Key("fingerprint.min_duration", "state.fingerprint.min_duration", float),
    Key(
        "fingerprint.required_flags", "state.fingerprint.required_flags",
        comma_list(str.upper, frozenset),
    ),
    Key("fingerprint.pool_hosts", "state.fingerprint.pool_hosts", comma_list(into=frozenset)),
    Key("schema.", "flow_schema", names=flow_model.FLOW_FIELDS),
)


@dataclass
class DetectionReport:
    config: dict
    provenance: dict
    clusters: list[Cluster]
    cluster_verdicts: dict[str, Label]
    predictions: dict[str, Prediction]
    host_states: dict[str, State]
    suspicious: list[str]
    metrics: dict | None
    unmatched_labeled: int

    def to_obj(self) -> dict:
        hosts = {}
        for host in sorted(self.predictions):
            p = self.predictions[host]
            hosts[host] = {
                "label": p.label.value,
                "score": p.score,
                "state": self.host_states.get(host, State.S0).value,
            }
        return {
            "config": self.config,
            "provenance": self.provenance,
            "clusters": snn_cluster.clusters_to_obj(self.clusters),
            "cluster_verdicts": {
                cid: label.value for cid, label in sorted(self.cluster_verdicts.items())
            },
            "hosts": hosts,
            "suspicious": list(self.suspicious),
            "metrics": self.metrics,
            "unmatched_labeled": self.unmatched_labeled,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, indent=2) + "\n"


def _detector_metrics(truth: Mapping[str, Label], predictions: Sequence[Prediction]) -> dict:
    """Both-class metric tables and their support-weighted average, over the truth-labeled hosts."""
    scored = [p for p in predictions if p.host in truth]
    if not scored:
        raise MineDetectError("no overlap between predictions and ground truth")
    y_true = [truth[p.host] for p in scored]
    y_pred = [p.label for p in scored]
    scores = [p.score for p in scored]
    matrix = metrics_mod.confusion(y_true, y_pred, positive=Label.MINER)
    rows = {}  # class -> (its row with both areas, its support)
    for label, m, ranking in (
        (Label.MINER, matrix, scores),
        (Label.NOT_MINER, matrix.swapped(), [1.0 - s for s in scores]),
    ):
        row = replace(
            metrics_mod.class_metrics(m),
            roc_area=metrics_mod.roc_auc(ranking, y_true, positive=label),
            prc_area=metrics_mod.prc_auc(ranking, y_true, positive=label),
        )
        rows[label.value] = (row, m.tp + m.fn)
    return {
        "confusion": {"tp": matrix.tp, "fp": matrix.fp, "fn": matrix.fn, "tn": matrix.tn},
        "accuracy": metrics_mod.accuracy(matrix),
        "per_class": {name: metrics_mod.metrics_to_obj(row) for name, (row, _) in rows.items()},
        "avg": metrics_mod.metrics_to_obj(metrics_mod.weighted_average(list(rows.values()))),
        "evaluated_hosts": len(y_true),
    }


def _stage(step: int, fn, *args):
    """Run one step's stage, tagging its errors with the step."""
    try:
        return fn(*args)
    except (MineDetectError, ValueError) as exc:
        raise PipelineStepError(step, STEP_NAMES[step - 1], exc) from exc


def normalize_vectors(
    raw: Sequence[FeatureVector],
    labeled: Sequence[FeatureVector],
) -> tuple[list[FeatureVector], list[FeatureVector]]:
    """Step 2: min-max scale raw and labeled vectors on one shared scale, each list in order."""
    if not raw and not labeled:
        return [], []
    params = flow_model.fit_normalizer([*raw, *labeled])
    return (
        [flow_model.normalize(v, params) for v in raw],
        [flow_model.normalize(v, params) for v in labeled],
    )


def lifecycle_states(
    flows: flow_model.FlowTable | Iterable[FlowRecord],
    config: PipelineConfig,
) -> tuple[CommGraph, dict[str, State]]:
    """Step 3: the full-span graph and each vertex's highest-ranked state over all window pairs.

    One pass over the windows of the flow table: each window graph is built
    when window_deltas reaches it, added into a running GraphSum as it
    streams by, and its pair's deltas are ranked as arrays (state_ranks)
    and folded with np.maximum into one rank per capture host before the
    next window is built; the host -> State dict is built once, at the
    end. So at most two window graphs and one pair of host rows are alive
    at once, and every flow is read once, when its window's graph is
    built. The full-span graph is built once, from the sum, after the last
    window. Only windows that hold a flow get a graph and host rows, so
    the cost follows the flows, not the capture's time span; an empty
    capture gives an empty graph. Internal prefixes that match no host of
    a non-empty capture raise InvalidConfigError.
    """
    table = flow_model.FlowTable.from_records(flows)
    total = comm_graph.GraphSum(table.host_order()[0])
    places = {}  # window timestamp -> the places of its graph's vertices among total.names

    def summed(snapshots):
        """Each snapshot, once its graph is added into the full-span sum."""
        for snapshot in snapshots:
            places[snapshot[0].timestamp] = total.add_graph(snapshot[0])
            yield snapshot

    ranks = np.zeros(len(total.names), np.int64)  # by place: the rank of the highest state so far
    snapshots = comm_graph.window_snapshots(table, config.window_length)
    for deltas in comm_graph.window_deltas(summed(snapshots), config.state):
        at = places.pop(deltas.window + 1)  # the pair's later window
        ranks[at] = np.maximum(ranks[at], snn_cluster.state_ranks(deltas, config.state))
    graph = total.graph()
    prefixes = config.state.internal_prefixes
    if prefixes and graph.order and not any(v.startswith(prefixes) for v in graph.order):
        # every host external would leave S3 unreachable
        raise InvalidConfigError(
            f"state.internal_prefixes {','.join(prefixes)} match no host of the capture"
        )
    states = list(STATE_RANK)  # in rank order
    # graph.order is total.names at the places seen, in order
    return graph, dict(zip(graph.order, map(states.__getitem__, ranks[total.seen].tolist())))


def cluster_hosts(graph: CommGraph, k_shared: int) -> list[Cluster]:
    """Step 5: the connected components of G*, the SNN graph of ``graph``."""
    return snn_cluster.extract_clusters(snn_cluster.build_snn_graph(graph, k_shared))


def evaluate(
    predictions: Mapping[str, Prediction],
    host_states: Mapping[str, State],
    ground_truth: Mapping[str, Label] | None,
) -> dict | None:
    """Step 9: both detectors' metric tables, or None unless the truth covers both classes."""
    truth = ground_truth or {}
    evaluated = [predictions[h] for h in sorted(predictions) if h in truth]
    y_true = [truth[p.host] for p in evaluated]
    if Label.MINER not in y_true or Label.NOT_MINER not in y_true:
        return None
    ranks = [(p.host, STATE_RANK[host_states.get(p.host, State.S0)]) for p in evaluated]
    state_verdicts = [
        Prediction(host, Label.MINER if rank >= 1 else Label.NOT_MINER, rank / 3.0)
        for host, rank in ranks
    ]
    return {
        "knn": _detector_metrics(truth, evaluated),
        "state_detector": _detector_metrics(truth, state_verdicts),
    }


def run(
    flows: flow_model.FlowTable | Iterable[FlowRecord],
    labeled: Iterable[FeatureVector],
    config: PipelineConfig | None = None,
    ground_truth: Mapping[str, Label] | None = None,
) -> DetectionReport:
    """Execute the ten pipeline steps and return the detection report.

    ``flows`` is a FlowTable, such as parse_flow_csv returns, or records,
    which are put into one; steps 1-3 read its columns and build no record.
    """
    config = config or PipelineConfig()
    # step 1: inputs arrive parsed; record sizes and digests
    flows = flow_model.FlowTable.from_records(flows)
    labeled = list(labeled)
    digests = {
        "flows_sha256": flow_model.flows_sha256(flows),
        "labeled_sha256": flow_model.features_sha256(labeled),
    }
    host_norm, labeled_norm = _stage(
        2, lambda: normalize_vectors(flow_model.host_vectors(flows), labeled)
    )
    normalized = {v.host: v for v in host_norm}
    graph, host_states = _stage(3, lifecycle_states, flows, config)
    # labeled hosts absent from the capture still train the KNN
    unmatched = sum(1 for v in labeled_norm if v.host not in normalized)
    clusters = _stage(5, cluster_hosts, graph, config.k_shared)
    clusters = _stage(6, snn_cluster.finalize_clusters, clusters, host_states, normalized)
    model = None
    predictions, cluster_verdicts = {}, {}
    if labeled_norm and normalized:
        model = _stage(7, KnnClassifier(k=config.knn_k).fit, labeled_norm)
        predictions, cluster_verdicts = _stage(8, model.predict_cluster, clusters, normalized)
    report_metrics = _stage(9, evaluate, predictions, host_states, ground_truth)
    # step 10: suspicious hosts and report assembly
    suspicious = sorted(
        host
        for host, p in predictions.items()
        if p.label is Label.MINER
        or (
            STATE_RANK[host_states.get(host, State.S0)] >= 1
            and p.score >= config.suspicion_floor
        )
    )
    n_inputs = len(flows) + len(labeled)
    rows = (  # (rows_in, rows_out) of each step
        (n_inputs, n_inputs),
        (n_inputs, len(normalized) + len(labeled_norm)),
        (len(flows), len(host_states)),
        (len(labeled_norm), len(labeled_norm)),
        (len(host_states), len(clusters)),
        (len(clusters), len(clusters)),
        (len(labeled_norm), len(labeled_norm) if model else 0),
        (len(normalized), len(predictions)),
        (len(predictions), int(report_metrics is not None)),
        (len(predictions), len(suspicious)),
    )
    steps = [
        {"step": step, "name": name, "rows_in": rows_in, "rows_out": rows_out}
        for step, (name, (rows_in, rows_out)) in enumerate(zip(STEP_NAMES, rows), start=1)
    ]
    provenance = {
        "steps": steps,
        "inputs": digests,
        "seed": None,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    return DetectionReport(
        config=dict(sorted(config.to_kv().items())),
        provenance=provenance,
        clusters=clusters,
        cluster_verdicts=cluster_verdicts,
        predictions=predictions,
        host_states=host_states,
        suspicious=suspicious,
        metrics=report_metrics,
        unmatched_labeled=unmatched,
    )


# ---------------------------------------------------------------------------
# report table emission
# ---------------------------------------------------------------------------

def report_metrics_csv(report: DetectionReport) -> str:
    """The Table-IV-shaped metric CSV of the report's KNN detector."""
    return metrics_mod.table_to_csv((report.metrics or {}).get("knn"))


def report_clusters_csv(report: DetectionReport) -> str:
    return snn_cluster.clusters_to_csv(snn_cluster.clusters_to_obj(report.clusters))


def hosts_to_csv(hosts: Mapping[str, Mapping]) -> str:
    """The hosts table of report.json: one host,label,score,state row per host, sorted."""
    rows = ((h, hosts[h]["label"], hosts[h]["score"], hosts[h]["state"]) for h in sorted(hosts))
    return flow_model.csv_text(("host", "label", "score", "state"), rows)


def suspicious_to_csv(hosts: list[str]) -> str:
    """The suspicious list of report.json: one host id per row, no header."""
    if not isinstance(hosts, list) or not all(isinstance(h, str) for h in hosts):
        raise TypeError("the suspicious list must be a list of str")
    return flow_model.csv_text(None, ([h] for h in hosts))
