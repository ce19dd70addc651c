"""Crypto-mining host detection from network-flow data.

Combines communication-graph features (vertex degree, local clustering
coefficient), shared-nearest-neighbor clustering and KNN classification
into a semi-supervised detection pipeline, plus a deterministic synthetic
traffic generator for desk-scale validation.
"""

from .comm_graph import (
    CommGraph,
    GraphFeatures,
    HostDeltas,
    HostGraphFeatures,
    MiningFingerprint,
    PairDeltas,
    StateParams,
    build_graph,
    clustering_coefficient,
    graph_features,
    mining_volume,
    window_deltas,
)
from .flow_model import (
    FEATURE_ORDER,
    FeatureTable,
    FeatureVector,
    FlowRecord,
    FlowTable,
    Label,
    NormalizationParams,
    Protocol,
    aggregate_host_features,
    fit_normalizer,
    normalize,
    parse_feature_csv,
    parse_flow_csv,
)
from .knn_classify import KnnClassifier, Prediction
from .metrics import (
    ClassMetrics,
    ConfusionMatrix,
    accuracy,
    class_metrics,
    confusion,
    prc_auc,
    roc_auc,
    weighted_average,
)
from .pipeline import DetectionReport, PipelineConfig, run
from .rng import SplitMix64
from .snn_cluster import (
    Cluster,
    SnnGraph,
    State,
    assign_state,
    build_snn_graph,
    cluster_profile,
    cluster_state,
    extract_clusters,
    state_ranks,
)
from .synthgen import GroundTruth, ScenarioConfig, expected_states, generate

__version__ = "0.1.0"
