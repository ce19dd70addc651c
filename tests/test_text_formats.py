"""Every text format the tool writes reads back to the values it was written from.

Each host id below holds one character that a naive writer or reader
splits on. Padded ids are left out: table cells are stripped on read by
design.
"""

import csv
import io
import json

import pytest

from minedetect import flow_model, knn_classify, pipeline, synthgen
from minedetect.comm_graph import CommGraph, MiningFingerprint, StateParams, edge_key, graph_to_text
from minedetect.errors import InvalidConfigError
from minedetect.flow_model import Label
from minedetect.knn_classify import KnnClassifier, Prediction
from minedetect.pipeline import PipelineConfig
from minedetect.synthgen import GroundTruth, ScenarioConfig

from test_flow_model import make_flow, make_vector

AWKWARD_IDS = ["h,1", 'h"1', "h\t1", "h\n1", "h\r1", "h 1", "h\x1c1", "# timestamp=9"]


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text, newline="")))


def _flows(host):
    flows = [make_flow(src_host=host, dst_host="b"), make_flow(src_host="b", dst_host=host)]
    parsed = flow_model.parse_flow_csv(flow_model.flows_to_csv(flows))
    return [(f.src_host, f.dst_host) for f in parsed], [(f.src_host, f.dst_host) for f in flows]


def _features(host):
    vectors = [make_vector(host=host), make_vector(host="b", label=Label.MINER)]
    return flow_model.parse_feature_csv(flow_model.features_to_csv(vectors)), vectors


def _truth(host):
    truth = GroundTruth({host: Label.MINER, "b": Label.NOT_MINER}, {host: 0}, n_windows=1)
    return synthgen.parse_truth_csv(synthgen.truth_to_csv(truth)), truth


def _predictions(host):
    predictions = [Prediction(host, Label.MINER, 1.0), Prediction("b", Label.NOT_MINER, 0.0)]
    text = knn_classify.predictions_to_csv(predictions)
    return knn_classify.parse_predictions_csv(text), predictions


def _model(host):
    examples = [
        make_vector(host=h, bpp=0.5, ppm=0.5, ppf=0.5, label=label, normalized=True)
        for h, label in ((host, Label.MINER), ("b", Label.NOT_MINER))
    ]
    model = KnnClassifier(k=1).fit(examples)
    return KnnClassifier.from_text(model.to_text()).examples_, model.examples_


def _graph(host):
    g = CommGraph(frozenset({host, "b", "c", "lone"}), {edge_key(host, "b"): 2, ("b", "c"): 1}, 4)
    header, *rows = _csv_rows(graph_to_text(g))
    edges = {(a, b): int(w) for a, b, w in (r for r in rows if len(r) == 3)}
    vertices = {v for r in rows for v in r[:2]}
    return (header, vertices, edges), ([f"# timestamp={g.timestamp}"], g.vertices, g.edge_weight)


def _suspicious(host):
    hosts = [host, "b"]
    return _csv_rows(pipeline.suspicious_to_csv(hosts)), [[h] for h in hosts]


def _config(host):
    scenario = ScenarioConfig(seed=1, pool_hosts=(host, "pool1"))
    config = PipelineConfig(
        state=StateParams(
            internal_prefixes=(host, "10."),
            fingerprint=MiningFingerprint(pool_hosts=frozenset({host, "p"})),
        )
    )
    # config text reaches a reader as report.json's config section
    read_scenario = ScenarioConfig.from_kv(json.loads(json.dumps(scenario.to_kv())))
    read_config = PipelineConfig.from_kv(json.loads(json.dumps(config.to_kv())))
    return (read_scenario, read_config), (scenario, config)


FORMATS = {
    "flows": _flows,
    "features": _features,
    "truth": _truth,
    "predictions": _predictions,
    "model": _model,
    "graph": _graph,
    "suspicious": _suspicious,
    "config": _config,
}

# the writers that refuse an id instead of writing text that reads back wrong
REFUSED = {
    "model": "\t\n",
    "config": ",",
}


@pytest.mark.parametrize("host", AWKWARD_IDS, ids=ascii)
@pytest.mark.parametrize("fmt", FORMATS)
def test_written_text_reads_back_the_same_values(fmt, host):
    if fmt == "graph" and host.startswith("# timestamp="):
        # the graph export's window header: no row may start with it
        with pytest.raises(ValueError, match="cannot hold host '# timestamp=9'"):
            FORMATS[fmt](host)
        return
    if any(c in host for c in REFUSED.get(fmt, "")):
        with pytest.raises(InvalidConfigError, match="cannot hold host|entries must be"):
            FORMATS[fmt](host)
        return
    read, written = FORMATS[fmt](host)
    assert read == written
