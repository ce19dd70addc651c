"""Per-layer tracing from outside the program.

A Tracer swaps the public functions and methods listed in TARGETS for
timing wrappers, records one span per call (name, start, end, parent) and
a few work counts in memory, and puts the originals back on exit. This
works because the pipeline reaches every target through a module
attribute, a module global or a class method, so no source file changes.

Counting that costs more than a few operations runs inside a
``trace.count`` span, so it is charged to tracing rather than to the
caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import types
from collections import Counter
from time import perf_counter

from minedetect import comm_graph, flow_model, knn_classify, pipeline, snn_cluster, synthgen

# (owner, attribute) pairs; owners are modules or classes
TARGETS = (
    (flow_model, "parse_flow_csv"),
    (flow_model, "parse_feature_csv"),
    (flow_model, "flows_to_csv"),
    (flow_model, "features_to_csv"),
    (flow_model, "aggregate_host_features"),
    (flow_model, "fit_normalizer"),
    (flow_model, "normalize"),
    (comm_graph, "build_graph"),
    (comm_graph, "graph_features"),
    (comm_graph, "clustering_coefficient"),
    (comm_graph, "window_deltas"),
    (comm_graph, "mining_volume"),
    (snn_cluster, "build_snn_graph"),
    (snn_cluster, "extract_clusters"),
    (snn_cluster, "finalize_clusters"),
    (knn_classify.KnnClassifier, "fit"),
    (knn_classify.KnnClassifier, "predict"),
    (knn_classify.KnnClassifier, "predict_cluster"),
    (pipeline, "run"),
    (pipeline, "_detector_metrics"),
    (pipeline, "report_clusters_csv"),
    (pipeline, "report_metrics_csv"),
    (pipeline.DetectionReport, "to_json"),
    (synthgen, "generate"),
)

# per-layer timing metric -> the spans it sums; each also gets a self time
LAYERS = {
    "flow_model.parse": ("flow_model.parse_flow_csv", "flow_model.parse_feature_csv"),
    "flow_model.serialize": ("flow_model.flows_to_csv", "flow_model.features_to_csv"),
    "flow_model.aggregate": ("flow_model.aggregate_host_features",),
    "flow_model.normalize": ("flow_model.fit_normalizer", "flow_model.normalize"),
    "comm_graph.build_graph": ("comm_graph.build_graph",),
    "comm_graph.window_deltas": ("comm_graph.window_deltas",),
    "comm_graph.mining_volume": ("comm_graph.mining_volume",),
    "comm_graph.graph_features": ("comm_graph.graph_features",),
    "comm_graph.clustering_coefficient": ("comm_graph.clustering_coefficient",),
    "snn_cluster.build_snn": ("snn_cluster.build_snn_graph",),
    "snn_cluster.extract": ("snn_cluster.extract_clusters",),
    "snn_cluster.finalize": ("snn_cluster.finalize_clusters",),
    "knn_classify.fit": ("knn_classify.KnnClassifier.fit",),
    "knn_classify.predict": ("knn_classify.KnnClassifier.predict",),
    "knn_classify.predict_cluster": ("knn_classify.KnnClassifier.predict_cluster",),
    "metrics.detector": ("pipeline._detector_metrics",),
    "pipeline.report": (
        "pipeline.DetectionReport.to_json",
        "pipeline.report_clusters_csv",
        "pipeline.report_metrics_csv",
    ),
    "pipeline.run": ("pipeline.run",),
}


def target_name(owner, attr: str) -> str:
    if isinstance(owner, types.ModuleType):
        return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
    module = owner.__module__.rsplit(".", 1)[-1]
    return f"{module}.{owner.__qualname__}.{attr}"


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Spans and counts of everything run inside ``with Tracer() as t:``."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.predicted_hosts: set[str] = set()
        self.largest_cluster = 0
        self._stack: list[int] = []
        self._incidences: dict = {}
        self._originals: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the spans it directly contains."""
        own = self.durations()
        result = list(own)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                result[parent] -= own[idx]
        return result

    def totals(self) -> tuple[Counter, Counter]:
        """(inclusive, self) seconds summed per span name."""
        inclusive: Counter = Counter()
        own: Counter = Counter()
        for name, dur, self_s in zip(self.names, self.durations(), self.self_times()):
            inclusive[name] += dur
            own[name] += self_s
        return inclusive, own

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> "Tracer":
        if self._originals or installed():
            raise RuntimeError("a tracer is already installed")
        for owner, attr in TARGETS:
            original = vars(owner)[attr]
            name = target_name(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, _COUNTERS.get(name)))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Targets that are not their original object (empty after exit)."""
        return [
            target_name(owner, attr)
            for owner, attr, original in self._originals
            if vars(owner)[attr] is not original
        ]

    def _wrap(self, name: str, fn, count):
        tracer = self
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.counts[calls] += 1
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        wrapper._bench_trace = True
        return wrapper

    # -- work counts -------------------------------------------------------

    def _count_aggregate(self, args, kwargs, result) -> None:
        flows = _arg(args, kwargs, 0, "flows")
        host = _arg(args, kwargs, 1, "host")
        window = _arg(args, kwargs, 2, "window")
        self.counts["aggregate.rows_scanned"] += len(flows)
        key = (id(flows), tuple(window))
        if key not in self._incidences:
            with self.span("trace.count"):
                t0, t1 = window
                per_host: Counter = Counter()
                for f in flows:
                    if t0 <= f.start_time < t1:
                        per_host[f.src_host] += 1
                        if f.dst_host != f.src_host:
                            per_host[f.dst_host] += 1
                # hold the list so its id cannot be reused while cached
                self._incidences[key] = (flows, per_host)
        self.counts["aggregate.incidences"] += self._incidences[key][1][host]

    def _count_build_graph(self, args, kwargs, result) -> None:
        self.counts["build_graph.rows_scanned"] += len(_arg(args, kwargs, 0, "flows"))

    def _count_mining_volume(self, args, kwargs, result) -> None:
        self.counts["mining_volume.rows_scanned"] += len(_arg(args, kwargs, 0, "flows"))
        self.counts["mining_volume.matches"] += result

    def _count_build_snn(self, args, kwargs, result) -> None:
        g = _arg(args, kwargs, 0, "g")
        with self.span("trace.count"):
            degree: Counter = Counter()
            for a, b in g.edge_weight:
                degree[a] += 1
                degree[b] += 1
            n = len(g.vertices)
            self.counts["snn.neighbor_pairs"] += sum(d * (d - 1) // 2 for d in degree.values())
            self.counts["snn.dense_cells"] += n * (n - 1) // 2
            self.counts["snn.vertices"] += n
            self.counts["snn.edges"] += len(result.edges)

    def _count_extract(self, args, kwargs, result) -> None:
        self.counts["snn.clusters"] += len(result)
        self.largest_cluster = max([self.largest_cluster] + [c.size for c in result])

    def _count_predict(self, args, kwargs, result) -> None:
        self.predicted_hosts.add(_arg(args, kwargs, 1, "v").host)

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced, as name -> (value, unit)."""
        m: dict[str, tuple[float, str]] = {}
        inclusive, own = self.totals()
        for layer, spans in LAYERS.items():
            self_name = "pipeline.self_s" if layer == "pipeline.run" else f"{layer}_self_s"
            m[f"{layer}_s"] = (sum(inclusive[s] for s in spans), "s")
            m[self_name] = (sum(own[s] for s in spans), "s")

        c = self.counts

        def count(name: str, value) -> None:
            m[name] = (value, "count")

        def ratio(name: str, num, den) -> None:
            m[name] = (num / den if den else 0.0, "ratio")

        calls = {n: c[f"{n}.calls"] for n in (
            "flow_model.aggregate_host_features",
            "comm_graph.build_graph",
            "comm_graph.mining_volume",
            "comm_graph.clustering_coefficient",
            "knn_classify.KnnClassifier.predict",
        )}
        count("flow_model.aggregate_calls", calls["flow_model.aggregate_host_features"])
        count("flow_model.aggregate_rows_scanned", c["aggregate.rows_scanned"])
        count("flow_model.aggregate_incidences", c["aggregate.incidences"])
        ratio("flow_model.aggregate_scan_ratio", c["aggregate.rows_scanned"], c["aggregate.incidences"])
        count("comm_graph.build_graph_rows_scanned", c["build_graph.rows_scanned"])
        # every build_graph call but the full-span graph is one window
        count("comm_graph.windows", max(calls["comm_graph.build_graph"] - 1, 0))
        count("comm_graph.mining_volume_calls", calls["comm_graph.mining_volume"])
        count("comm_graph.mining_volume_rows_scanned", c["mining_volume.rows_scanned"])
        count("comm_graph.mining_volume_matches", c["mining_volume.matches"])
        ratio("comm_graph.mining_volume_scan_ratio", c["mining_volume.rows_scanned"], c["mining_volume.matches"])
        count("comm_graph.clustering_coefficient_calls", calls["comm_graph.clustering_coefficient"])
        count("snn_cluster.vertices", c["snn.vertices"])
        count("snn_cluster.snn_edges", c["snn.edges"])
        count("snn_cluster.neighbor_pairs", c["snn.neighbor_pairs"])
        count("snn_cluster.dense_cells", c["snn.dense_cells"])
        count("snn_cluster.clusters", c["snn.clusters"])
        ratio("snn_cluster.largest_share", self.largest_cluster, c["snn.vertices"])
        count("knn_classify.predict_calls", calls["knn_classify.KnnClassifier.predict"])
        count("knn_classify.predict_hosts", len(self.predicted_hosts))
        ratio("knn_classify.predict_useful_ratio", len(self.predicted_hosts), calls["knn_classify.KnnClassifier.predict"])
        count("trace.spans", len(self.names))
        return m


def installed() -> list[str]:
    """Targets currently replaced by a Tracer wrapper."""
    return [
        target_name(owner, attr)
        for owner, attr in TARGETS
        if getattr(vars(owner)[attr], "_bench_trace", False)
    ]


_COUNTERS = {
    "flow_model.aggregate_host_features": Tracer._count_aggregate,
    "comm_graph.build_graph": Tracer._count_build_graph,
    "comm_graph.mining_volume": Tracer._count_mining_volume,
    "snn_cluster.build_snn_graph": Tracer._count_build_snn,
    "snn_cluster.extract_clusters": Tracer._count_extract,
    "knn_classify.KnnClassifier.predict": Tracer._count_predict,
}
