"""End-to-end detection pipeline.

Ten fixed steps: parse, normalize (per-host aggregation + min-max scaling
on the union of labeled and unlabeled data), build the full-span graph and
the per-window lifecycle states, count labeled records whose host is not in
the capture, SNN-cluster, attach states to clusters, train KNN, classify
hosts and clusters, compute metrics when ground truth is available, and
assemble the report. There is no randomness anywhere, so identical inputs
and config produce identical reports (up to the provenance timestamp).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Mapping, Sequence

from . import comm_graph, flow_model, metrics as metrics_mod, snn_cluster
from .comm_graph import MiningFingerprint, StateParams, subnet_prefix_predicate
from .errors import InvalidConfigError, MineDetectError
from .flow_model import FeatureVector, FlowRecord, Label
from .knn_classify import KnnClassifier, Prediction
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
    """Free parameters of the detection pipeline."""

    window_length: float = 60.0
    k_shared: int = 2
    knn_k: int = 5
    internal_prefixes: tuple[str, ...] = ()
    x_threshold: int = 5
    delta_t: float = 60.0
    t_star: int | None = None
    dc_cap: float = 1000.0
    fingerprint: MiningFingerprint = field(default_factory=MiningFingerprint)
    suspicion_floor: float = 0.0
    flow_schema: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.window_length <= 0:
            raise InvalidConfigError("window_length must be > 0")
        if self.k_shared < 1 or self.knn_k < 1:
            raise InvalidConfigError("k_shared and knn_k must be >= 1")
        if not (0.0 <= self.suspicion_floor <= 1.0):
            raise InvalidConfigError("suspicion_floor must be in [0, 1]")
        try:
            self.state_params()
        except ValueError as exc:
            raise InvalidConfigError(f"bad state config: {exc}") from exc

    def state_params(self) -> StateParams:
        return StateParams(
            monitored_subnet=subnet_prefix_predicate(self.internal_prefixes),
            x_threshold=self.x_threshold,
            delta_t=self.delta_t,
            t_star=self.t_star,
            dc_cap=self.dc_cap,
            fingerprint=self.fingerprint,
        )

    def schema(self) -> dict[str, str] | None:
        return dict(self.flow_schema) if self.flow_schema else None

    def to_kv(self) -> dict[str, str]:
        kv = {
            "pipeline.window": str(self.window_length),
            "snn.k_shared": str(self.k_shared),
            "knn.k": str(self.knn_k),
            "state.internal_prefixes": ",".join(self.internal_prefixes),
            "state.x_threshold": str(self.x_threshold),
            "state.delta_t": str(self.delta_t),
            "state.t_star": "any" if self.t_star is None else str(self.t_star),
            "state.dc_cap": str(self.dc_cap),
            "report.suspicion_floor": str(self.suspicion_floor),
        }
        for key, value in self.fingerprint.to_kv().items():
            kv[f"fingerprint.{key}"] = value
        for fld, column in self.flow_schema:
            kv[f"schema.{fld}"] = column
        return kv

    @classmethod
    def from_kv(cls, kv: Mapping[str, str]) -> "PipelineConfig":
        try:
            kwargs: dict = {}
            if "pipeline.window" in kv:
                kwargs["window_length"] = float(kv["pipeline.window"])
            if "snn.k_shared" in kv:
                kwargs["k_shared"] = int(kv["snn.k_shared"])
            if "knn.k" in kv:
                kwargs["knn_k"] = int(kv["knn.k"])
            if "state.internal_prefixes" in kv:
                kwargs["internal_prefixes"] = tuple(
                    p for p in kv["state.internal_prefixes"].split(",") if p.strip()
                )
            if "state.x_threshold" in kv:
                kwargs["x_threshold"] = int(kv["state.x_threshold"])
            if "state.delta_t" in kv:
                kwargs["delta_t"] = float(kv["state.delta_t"])
            if "state.t_star" in kv:
                raw = kv["state.t_star"].strip().lower()
                kwargs["t_star"] = None if raw in ("", "any", "none") else int(raw)
            if "state.dc_cap" in kv:
                kwargs["dc_cap"] = float(kv["state.dc_cap"])
            if "report.suspicion_floor" in kv:
                kwargs["suspicion_floor"] = float(kv["report.suspicion_floor"])
            fp_kv = {
                key.split(".", 1)[1]: value
                for key, value in kv.items()
                if key.startswith("fingerprint.")
            }
            if fp_kv:
                kwargs["fingerprint"] = MiningFingerprint.from_kv(fp_kv)
            schema = tuple(
                (key.split(".", 1)[1], value)
                for key, value in sorted(kv.items())
                if key.startswith("schema.")
            )
            if schema:
                kwargs["flow_schema"] = schema
        except ValueError as exc:
            raise InvalidConfigError(f"bad pipeline config value: {exc}") from exc
        return cls(**kwargs)


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


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _detector_metrics(
    y_true: list[Label],
    y_pred: list[Label],
    scores: list[float],
) -> dict:
    """Both-class metric tables plus the support-weighted average."""
    matrix = metrics_mod.confusion(y_true, y_pred, positive=Label.MINER)
    miner = metrics_mod.class_metrics(matrix)
    nonminer = metrics_mod.class_metrics(matrix.swapped())

    roc_miner = metrics_mod.roc_auc(scores, y_true, positive=Label.MINER)
    prc_miner = metrics_mod.prc_auc(scores, y_true, positive=Label.MINER)
    inverted = [1.0 - s for s in scores]
    roc_non = metrics_mod.roc_auc(inverted, y_true, positive=Label.NOT_MINER)
    prc_non = metrics_mod.prc_auc(inverted, y_true, positive=Label.NOT_MINER)
    miner = metrics_mod.with_areas(miner, roc_miner, prc_miner)
    nonminer = metrics_mod.with_areas(nonminer, roc_non, prc_non)

    support_miner = matrix.tp + matrix.fn
    support_non = matrix.tn + matrix.fp
    avg = metrics_mod.weighted_average(
        [(nonminer, support_non), (miner, support_miner)]
    )
    return {
        "confusion": {"tp": matrix.tp, "fp": matrix.fp, "fn": matrix.fn, "tn": matrix.tn},
        "accuracy": metrics_mod.accuracy(matrix),
        "per_class": {
            "NotMiner": metrics_mod.metrics_to_obj(nonminer),
            "Miner": metrics_mod.metrics_to_obj(miner),
        },
        "avg": metrics_mod.metrics_to_obj(avg),
        "evaluated_hosts": len(y_true),
    }


def run(
    flows: Sequence[FlowRecord],
    labeled: Sequence[FeatureVector],
    config: PipelineConfig | None = None,
    ground_truth: Mapping[str, Label] | None = None,
) -> DetectionReport:
    """Execute the ten pipeline steps and return the detection report."""
    config = config or PipelineConfig()
    steps: list[dict] = []

    def record(step: int, rows_in: int, rows_out: int) -> None:
        steps.append(
            {
                "step": step,
                "name": STEP_NAMES[step - 1],
                "rows_in": rows_in,
                "rows_out": rows_out,
            }
        )

    def fail(step: int, exc: Exception):
        raise PipelineStepError(step, STEP_NAMES[step - 1], exc) from exc

    # step 1: inputs arrive parsed; record sizes and digests
    flows = list(flows)
    labeled = list(labeled)
    digests = {
        "flows_sha256": _digest(flow_model.flows_to_csv(flows)),
        "labeled_sha256": _digest(flow_model.features_to_csv(labeled)),
    }
    record(1, len(flows) + len(labeled), len(flows) + len(labeled))

    # step 2: aggregate per-host vectors over the full span, then min-max
    # normalize labeled and unlabeled on a shared scale
    try:
        raw_vectors = flow_model.host_vectors(flows) if flows else []
        normalized: dict[str, FeatureVector] = {}
        labeled_norm: list[FeatureVector] = []
        if raw_vectors or labeled:
            params = flow_model.fit_normalizer(raw_vectors + labeled)
            normalized = {
                v.host: flow_model.normalize(v, params) for v in raw_vectors
            }
            labeled_norm = [flow_model.normalize(v, params) for v in labeled]
        record(2, len(flows) + len(labeled), len(normalized) + len(labeled_norm))
    except (MineDetectError, ValueError) as exc:
        fail(2, exc)

    # step 3: full-span graph for clustering; windowed snapshots for the
    # lifecycle deltas. host_states has one entry per full-graph vertex.
    try:
        state_params = config.state_params()
        host_states: dict[str, State] = {}
        full_graph = None
        if flows:
            full_graph = comm_graph.build_graph(flows, flow_model.full_span(flows))
            host_states = {v: State.S0 for v in full_graph.vertices}

            snapshots = comm_graph.window_snapshots(flows, config.window_length)
            dc_seen: dict[str, list[float]] = {}
            for (g_prev, _, _), (g_next, next_flows, (_, hi)) in zip(snapshots, snapshots[1:]):
                deltas = comm_graph.window_deltas(
                    g_prev, g_next, state_params, next_flows, now=hi, prior_dc=dc_seen
                )
                for host, d in deltas.items():
                    state = snn_cluster.assign_state(d, state_params)
                    prev = host_states.get(host, State.S0)
                    if STATE_RANK[state] > STATE_RANK[prev]:
                        host_states[host] = state
                    dc_seen.setdefault(host, []).append(d.dc_factor)
        record(3, len(flows), len(host_states))
    except (MineDetectError, ValueError) as exc:
        fail(3, exc)

    # step 4: count labeled records whose host is absent from the capture;
    # they still train the KNN
    unmatched = sum(1 for v in labeled_norm if v.host not in normalized)
    record(4, len(labeled_norm), len(labeled_norm))

    # step 5: SNN clustering of the full-span graph
    try:
        clusters: list[Cluster] = []
        if full_graph is not None:
            clusters = snn_cluster.extract_clusters(
                snn_cluster.build_snn_graph(full_graph, config.k_shared)
            )
        record(5, len(host_states), len(clusters))
    except (MineDetectError, ValueError) as exc:
        fail(5, exc)

    # step 6: lift host states onto clusters, attach centroids
    try:
        clusters = snn_cluster.finalize_clusters(clusters, host_states, normalized)
        record(6, len(clusters), len(clusters))
    except (MineDetectError, ValueError) as exc:
        fail(6, exc)

    # step 7: train the KNN on the labeled set
    try:
        model = None
        if labeled_norm and normalized:
            model = KnnClassifier(k=config.knn_k)
            model.fit(labeled_norm)
        record(7, len(labeled_norm), 0 if model is None else len(model.examples_))
    except (MineDetectError, ValueError) as exc:
        fail(7, exc)

    # step 8: classify hosts and clusters
    try:
        predictions: dict[str, Prediction] = {}
        cluster_verdicts: dict[str, Label] = {}
        if model is not None:
            # clusters partition the hosts, so their members' predictions
            # cover every host exactly once
            for cluster in clusters:
                member_predictions, verdict = model.predict_cluster(cluster, normalized)
                predictions.update(member_predictions)
                cluster_verdicts[cluster.id] = verdict
        record(8, len(normalized), len(predictions))
    except (MineDetectError, ValueError) as exc:
        fail(8, exc)

    # step 9: metrics, only when ground truth covers both classes
    try:
        report_metrics = None
        if ground_truth and predictions:
            evaluated = sorted(h for h in predictions if h in ground_truth)
            y_true = [ground_truth[h] for h in evaluated]
            has_both = Label.MINER in y_true and Label.NOT_MINER in y_true
            if has_both:
                y_pred = [predictions[h].label for h in evaluated]
                scores = [predictions[h].score for h in evaluated]
                state_pred = [
                    Label.MINER
                    if STATE_RANK[host_states.get(h, State.S0)] >= 1
                    else Label.NOT_MINER
                    for h in evaluated
                ]
                state_scores = [
                    STATE_RANK[host_states.get(h, State.S0)] / 3.0 for h in evaluated
                ]
                report_metrics = {
                    "knn": _detector_metrics(y_true, y_pred, scores),
                    "state_detector": _detector_metrics(y_true, state_pred, state_scores),
                }
        record(9, len(predictions), 0 if report_metrics is None else 1)
    except (MineDetectError, ValueError) as exc:
        fail(9, exc)

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
    record(10, len(predictions), len(suspicious))

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

def report_metrics_csv(report: DetectionReport, detector: str = "knn") -> str:
    """The Table-IV-shaped metric CSV for one detector in the report."""
    if not report.metrics or detector not in report.metrics:
        return metrics_mod.metrics_to_csv([])
    return metrics_mod.table_to_csv(report.metrics[detector])


def report_clusters_csv(report: DetectionReport) -> str:
    return snn_cluster.clusters_to_csv(report.clusters)
