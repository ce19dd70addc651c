import csv
import dataclasses
import hashlib
import json
import os
import re
import stat
from pathlib import Path

import pytest

from minedetect import cli, flow_model, pipeline, snn_cluster
from minedetect.cli import CONFIG_ENV_VAR, build_parser, dispatch, read_kv_file, write_atomic
from minedetect.errors import InvalidConfigError
from minedetect.flow_model import Label
from minedetect.knn_classify import KnnClassifier
from minedetect.pipeline import PipelineConfig

from test_flow_model import make_flow, make_vector, quote_first_cell

SCENARIO = """\
# desk-scale scenario
scenario.seed=11
scenario.n_hosts=40
scenario.ring_degree=4
scenario.rewire_prob=0.1
scenario.n_windows=5
scenario.recruitment_schedule=0,2,1
scenario.pool_hosts=pool0,pool1
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SCENARIO)
    return str(path)


def simulate(tmp_path, scenario_file, name="flows.csv", seed=None):
    out = tmp_path / name
    argv = ["simulate", "--scenario", scenario_file, "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert dispatch(argv) == 0
    truth = tmp_path / (name.rsplit(".", 1)[0] + ".truth.csv")
    assert out.exists() and truth.exists()
    return out, truth


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_read_kv_file_skips_comments(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\nsnn.k_shared=3\nknn.k = 7\n")
    assert read_kv_file(str(path)) == {"snn.k_shared": "3", "knn.k": "7"}


def test_read_kv_file_rejects_garbage(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("not a pair\n")
    with pytest.raises(InvalidConfigError):
        read_kv_file(str(path))


def test_repeated_config_key_exits_1_with_line_numbers(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("snn.k_shared=2\n# a comment\nsnn.k_shared = 3\n")
    out = tmp_path / "report.json"
    assert dispatch([
        "run", "--flows", str(tmp_path / "absent.csv"), "--labeled", str(tmp_path / "absent.csv"),
        "--config", str(cfg), "--out", str(out),
    ]) == 1
    assert f"{cfg}:3: key 'snn.k_shared' repeated (first on line 1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    ("scenario.seed=2\n", "twice.cfg:9: key 'scenario.seed' repeated (first on line 2)"),
    ("seed=2\n", "scenario config gives both 'seed' and 'scenario.seed'"),
])
def test_repeated_scenario_key_exits_1(tmp_path, capsys, extra, message):
    scenario = tmp_path / "twice.cfg"
    scenario.write_text(SCENARIO + extra)
    out = tmp_path / "flows.csv"
    assert dispatch(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_duplicate_pool_hosts(tmp_path, capsys):
    scenario = tmp_path / "dup.cfg"
    scenario.write_text(SCENARIO.replace("pool_hosts=pool0,pool1", "pool_hosts=pool0, pool0"))
    out = tmp_path / "flows.csv"
    assert dispatch(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
    assert "pool_hosts ids must be distinct" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["features", "graph", "cluster", "classify", "run"])
def test_schema_reading_one_column_for_two_fields_exits_1_before_input(
    tmp_path, capsys, subcommand
):
    cfg = tmp_path / "schema.cfg"
    cfg.write_text("schema.dst_host=src_host\n")
    absent = str(tmp_path / "absent.csv")
    inputs = {
        "classify": ["--labeled", absent, "--features", absent],
        "run": ["--flows", absent, "--labeled", absent],
    }.get(subcommand, ["--flows", absent])
    out = tmp_path / "out"
    assert dispatch([subcommand, *inputs, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "flow fields 'src_host' and 'dst_host' both read column 'src_host'" in err
    assert not out.exists()


def test_write_atomic_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    write_atomic([(str(target), "payload")])
    assert target.read_text() == "payload"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


# ---------------------------------------------------------------------------
# simulate / features / classify / evaluate
# ---------------------------------------------------------------------------

def test_simulate_is_reproducible(tmp_path, scenario_file):
    out1, truth1 = simulate(tmp_path, scenario_file, "a.csv", seed=42)
    out2, truth2 = simulate(tmp_path, scenario_file, "b.csv", seed=42)
    assert out1.read_bytes() == out2.read_bytes()
    assert truth1.read_bytes() == truth2.read_bytes()


def test_simulate_builds_no_flow_record(tmp_path, scenario_file, monkeypatch):
    def no_records(table):
        raise AssertionError("simulate built the table's records")

    monkeypatch.setattr(flow_model.FlowTable, "_rows", no_records)
    monkeypatch.setattr(flow_model.FlowRecord, "__init__", no_records)
    out, _ = simulate(tmp_path, scenario_file, seed=7)
    monkeypatch.undo()
    flows = flow_model.parse_flow_csv(out.read_text())
    assert len(flows) > 0 and flow_model.flows_to_csv(flows) == out.read_text()


def test_features_classify_evaluate_chain(tmp_path, scenario_file):
    flows, truth = simulate(tmp_path, scenario_file, "train.csv", seed=7)
    train_feats = tmp_path / "train_feats.csv"
    assert dispatch([
        "features", "--flows", str(flows), "--truth", str(truth), "--out", str(train_feats)
    ]) == 0

    eval_flows, eval_truth = simulate(tmp_path, scenario_file, "eval.csv", seed=11)
    eval_feats = tmp_path / "eval_feats.csv"
    assert dispatch([
        "features", "--flows", str(eval_flows), "--out", str(eval_feats)
    ]) == 0

    pred = tmp_path / "pred.csv"
    assert dispatch([
        "classify", "--labeled", str(train_feats), "--features", str(eval_feats),
        "--out", str(pred),
    ]) == 0
    assert pred.read_text().splitlines()[0] == "host,label,score"

    metrics = tmp_path / "metrics.csv"
    assert dispatch([
        "evaluate", "--pred", str(pred), "--truth", str(eval_truth), "--out", str(metrics)
    ]) == 0
    lines = metrics.read_text().splitlines()
    assert lines[0].startswith("Class,TP Rate,")
    assert len(lines) == 4


def test_graph_and_cluster_subcommands(tmp_path, scenario_file):
    flows, _ = simulate(tmp_path, scenario_file, seed=5)
    graphs = tmp_path / "graphs.txt"
    assert dispatch(["graph", "--flows", str(flows), "--out", str(graphs)]) == 0
    text = graphs.read_text()
    assert text.count("# timestamp=") == 5

    clusters = tmp_path / "clusters.csv"
    assert dispatch(["cluster", "--flows", str(flows), "--out", str(clusters)]) == 0
    assert clusters.read_text().startswith("cluster,size,state,")

    clusters_json = tmp_path / "clusters.json"
    assert dispatch([
        "cluster", "--flows", str(flows), "--format", "json", "--out", str(clusters_json)
    ]) == 0
    assert isinstance(json.loads(clusters_json.read_text()), list)


def test_graph_writes_one_section_per_window_with_flows(tmp_path, capsys):
    def link(a, b, t):
        return make_flow(src_host=a, dst_host=b, start_time=t, end_time=t + 1.0)

    # 60 s windows 0, 1, 10 and 1,000,000; none between them holds a flow
    flows = tmp_path / "gapped.csv"
    flows.write_text(flow_model.flows_to_csv([
        link("h1", "h2", 5.0), link("h2", "h3", 70.0), link("h1", "h3", 610.0),
        link("h4", "h4", 6e7 + 5.0),
    ]))
    out = tmp_path / "graphs.txt"
    assert dispatch(["graph", "--flows", str(flows), "--out", str(out)]) == 0
    assert out.read_text() == (
        "# timestamp=0\nh1,h2,1\n# timestamp=1\nh2,h3,1\n"
        "# timestamp=10\nh1,h3,1\n# timestamp=1000000\nh4\n"
    )
    assert f"graph: 4 windows -> {out}" in capsys.readouterr().err


def test_cluster_runs_only_the_clustering_stages(tmp_path, scenario_file, monkeypatch):
    flows_path, _ = simulate(tmp_path, scenario_file, seed=5)
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr in (
        (pipeline, "run"),
        (flow_model, "flows_to_csv"),
        (flow_model, "flows_sha256"),
        (KnnClassifier, "fit"),
        (KnnClassifier, "predict"),
    ):
        monkeypatch.setattr(owner, attr, counting(attr, getattr(owner, attr)))
    out = tmp_path / "clusters.json"
    assert dispatch([
        "cluster", "--flows", str(flows_path), "--format", "json", "--snn-k", "3",
        "--out", str(out),
    ]) == 0
    assert calls == []

    monkeypatch.undo()
    flows = flow_model.parse_flow_csv(flows_path.read_text())
    expected = pipeline.run(flows, [], PipelineConfig(k_shared=3)).clusters
    assert len(expected) > 1
    assert json.loads(out.read_text()) == snn_cluster.clusters_to_obj(expected)


# ---------------------------------------------------------------------------
# run / report
# ---------------------------------------------------------------------------

def run_pipeline(tmp_path, scenario_file):
    train_flows, train_truth = simulate(tmp_path, scenario_file, "train.csv", seed=7)
    labeled = tmp_path / "labeled.csv"
    assert dispatch([
        "features", "--flows", str(train_flows), "--truth", str(train_truth),
        "--out", str(labeled),
    ]) == 0
    eval_flows, eval_truth = simulate(tmp_path, scenario_file, "eval.csv", seed=11)
    report = tmp_path / "report.json"
    assert dispatch([
        "run", "--flows", str(eval_flows), "--labeled", str(labeled),
        "--ground-truth", str(eval_truth), "--out", str(report),
    ]) == 0
    return report


def test_run_writes_report_and_tables(tmp_path, scenario_file):
    report = run_pipeline(tmp_path, scenario_file)
    obj = json.loads(report.read_text())
    assert obj["metrics"]["knn"]["per_class"]["Miner"]["recall"] >= 0.9
    assert (tmp_path / "report.clusters.csv").exists()
    assert (tmp_path / "report.metrics.csv").exists()


#: sha256 of every output of the scenario above (train seed 7, eval seed
#: 11); a refactor that changes any byte of them fails here
GOLDEN_SHA256 = {
    "report.json": "98df63d674c74754c7d492225cd175b8840beaad03e7265ffcd1bc7cbaac84a4",
    "report.clusters.csv": "a0df280c91a6b45dd9e9c96aae5e1debcf4b8de674dcff26232a415a3948e1c8",
    "report.metrics.csv": "ea3724bc9f35e283bbfaacf42921e09e52e5df19e966c71a7373c5238c3f5e6e",
    "graph": "b4e093409b2ba04e20217171ab21419a3e9ac8876a0ef4a69fc2952ce3925170",
    "features --truth": "a1da1d870e5e7205bb901f448a3f096817a3fcac56ce759c16f30065ad876aaf",
    "cluster": "a0df280c91a6b45dd9e9c96aae5e1debcf4b8de674dcff26232a415a3948e1c8",
    "cluster --format json --snn-k 3": "ca36c95628efd53e3ab0f56c470c7dbcec4a563864762b4e3eaabce34e51b427",
    "classify --labeled": "14eba17768bfeb9ab7a1ec9339b82ef6f5f668575dfac595393d9cb30d081ec4",
    "evaluate": "ea3724bc9f35e283bbfaacf42921e09e52e5df19e966c71a7373c5238c3f5e6e",
    "simulate --seed 7": "72f0baa42ebc8c9c5f646af6b6f76d872b602264fe26c26705c3bec50c9406a6",
    "simulate --seed 7 truth": "c827cf92901a8da52f63808d1b7cda4cc98533ec181b725374caf2ab22aa2982",
    "simulate --seed 11": "13055502899d11fef70b174530084071ebd984beecbff4be202e1a73b94624b6",
    "simulate --seed 11 truth": "33ac240f0d2f516806e94d09c4d7b1fff01ac88370dcc21702be1218f300567e",
}


def test_outputs_match_golden_digests(tmp_path, scenario_file):
    report = run_pipeline(tmp_path, scenario_file)
    eval_flows = str(tmp_path / "eval.csv")
    out = {name: tmp_path / name for name in (
        "graph.txt", "clusters.csv", "clusters.json", "eval_feats.csv", "pred.csv",
        "eval_metrics.csv",
    )}
    for argv in (
        ["graph", "--flows", eval_flows, "--out", str(out["graph.txt"])],
        ["cluster", "--flows", eval_flows, "--out", str(out["clusters.csv"])],
        ["cluster", "--flows", eval_flows, "--format", "json", "--snn-k", "3",
         "--out", str(out["clusters.json"])],
        ["features", "--flows", eval_flows, "--out", str(out["eval_feats.csv"])],
        ["classify", "--labeled", str(tmp_path / "labeled.csv"),
         "--features", str(out["eval_feats.csv"]), "--out", str(out["pred.csv"])],
        ["evaluate", "--pred", str(out["pred.csv"]), "--truth", str(tmp_path / "eval.truth.csv"),
         "--out", str(out["eval_metrics.csv"])],
    ):
        assert dispatch(argv) == 0
    report_text = "".join(
        line
        for line in report.read_text().splitlines(keepends=True)
        if '"generated_at"' not in line
    )
    outputs = {
        "report.json": report_text,
        "report.clusters.csv": (tmp_path / "report.clusters.csv").read_text(),
        "report.metrics.csv": (tmp_path / "report.metrics.csv").read_text(),
        "graph": out["graph.txt"].read_text(),
        "features --truth": (tmp_path / "labeled.csv").read_text(),
        "cluster": out["clusters.csv"].read_text(),
        "cluster --format json --snn-k 3": out["clusters.json"].read_text(),
        "classify --labeled": out["pred.csv"].read_text(),
        "evaluate": out["eval_metrics.csv"].read_text(),
        "simulate --seed 7": (tmp_path / "train.csv").read_text(),
        "simulate --seed 7 truth": (tmp_path / "train.truth.csv").read_text(),
        "simulate --seed 11": (tmp_path / "eval.csv").read_text(),
        "simulate --seed 11 truth": (tmp_path / "eval.truth.csv").read_text(),
    }
    digests = {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in outputs.items()
    }
    assert digests == GOLDEN_SHA256
    # classify is run's step 8: the same label and score for every host
    hosts = json.loads(report.read_text())["hosts"]
    with open(out["pred.csv"], newline="", encoding="utf-8") as fh:
        predicted = {row["host"]: (row["label"], float(row["score"])) for row in csv.DictReader(fh)}
    assert predicted == {h: (r["label"], r["score"]) for h, r in hosts.items()}


def test_report_section_extraction(tmp_path, scenario_file, capsys):
    report = run_pipeline(tmp_path, scenario_file)
    hosts_csv = tmp_path / "hosts.csv"
    assert dispatch([
        "report", "--in", str(report), "--section", "hosts", "--format", "csv",
        "--out", str(hosts_csv),
    ]) == 0
    assert hosts_csv.read_text().splitlines()[0] == "host,label,score,state"

    assert dispatch(["report", "--in", str(report), "--section", "suspicious"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == json.loads(report.read_text())["suspicious"]


@pytest.mark.parametrize("hosts", [["a,b", 'say "hi"', "c\nd", "e\rf", "plain"], []])
def test_report_suspicious_csv_reads_back_with_csv_reader(tmp_path, hosts):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"suspicious": hosts}))
    out = tmp_path / "suspicious.csv"
    argv = ["report", "--in", str(report), "--section", "suspicious", "--format", "csv"]
    assert dispatch([*argv, "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [[h] for h in hosts]
    assert out.read_text().endswith("\nplain\n" if hosts else "")


def test_graph_export_reads_back_with_csv_reader(tmp_path):
    flows = [make_flow(src_host="a,b", dst_host="c"), make_flow(src_host="d\ne", dst_host="d\ne")]
    capture = tmp_path / "flows.csv"
    capture.write_bytes(flow_model.flows_to_csv(flows).encode("utf-8"))
    out = tmp_path / "graph.txt"
    assert dispatch(["graph", "--flows", str(capture), "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["# timestamp=0"], ["a,b", "c", "1"], ["d\ne"]]


def test_graph_export_refuses_a_host_that_reads_as_a_window_header(tmp_path, capsys):
    flows = [make_flow(src_host="a", dst_host="b"), make_flow(src_host="# timestamp=9", dst_host="b")]
    capture = tmp_path / "flows.csv"
    capture.write_bytes(flow_model.flows_to_csv(flows).encode("utf-8"))
    out = tmp_path / "graph.txt"
    assert dispatch(["graph", "--flows", str(capture), "--out", str(out)]) == 1
    assert "cannot hold host '# timestamp=9'" in capsys.readouterr().err
    assert not out.exists()


def test_report_metrics_json_honours_detector(tmp_path, scenario_file, capsys):
    report = run_pipeline(tmp_path, scenario_file)
    metrics = json.loads(report.read_text())["metrics"]
    capsys.readouterr()
    assert dispatch(["report", "--in", str(report), "--section", "metrics"]) == 0
    assert json.loads(capsys.readouterr().out) == metrics
    for detector in ("knn", "state_detector"):
        assert dispatch([
            "report", "--in", str(report), "--section", "metrics", "--detector", detector,
        ]) == 0
        assert json.loads(capsys.readouterr().out) == metrics[detector]


@pytest.mark.parametrize("section", ["clusters", "hosts", "suspicious"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_detector_outside_metrics_exits_1(tmp_path, capsys, section, fmt):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"clusters": [], "hosts": {}, "suspicious": []}))
    out = tmp_path / "section.out"
    assert dispatch([
        "report", "--in", str(report), "--section", section, "--detector", "state_detector",
        "--format", fmt, "--out", str(out),
    ]) == 1
    assert not out.exists()
    assert f"--detector needs --section metrics, not --section {section}" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["metrics", "clusters"])
def test_report_csv_sections_equal_run_tables(tmp_path, scenario_file, section):
    report = run_pipeline(tmp_path, scenario_file)
    out = tmp_path / f"{section}.out.csv"
    assert dispatch([
        "report", "--in", str(report), "--section", section, "--format", "csv",
        "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (tmp_path / f"report.{section}.csv").read_bytes()


@pytest.mark.parametrize("text, section", [
    ("{}", "clusters"),
    ("{}", "hosts"),
    ("{}", "suspicious"),
    ('{"metrics": null}', "metrics"),
    ("[1]", "clusters"),
    ("[1]", "metrics"),
    ('"report"', "hosts"),
])
def test_report_of_json_that_is_no_report_exits_1(tmp_path, capsys, text, section):
    report = tmp_path / "not-a-report.json"
    report.write_text(text)
    assert dispatch(["report", "--in", str(report), "--section", section]) == 1
    assert f"report: error: report has no {section} section" in capsys.readouterr().err


@pytest.mark.parametrize("text, section, message", [
    ('{"metrics": {"x": 1}}', "metrics", "report metrics section has no knn table"),
    ('{"metrics": {"knn": {"x": 1}}}', "metrics", "is not a metric table: no 'per_class' field"),
    ('{"clusters": 5}', "clusters", "report clusters section is not a list of cluster records"),
    ('{"hosts": {"a": 1}}', "hosts", "report hosts section is not an object of host records"),
    ('{"hosts": {"a": {"label": "Miner"}}}', "hosts", "host records: no 'score' field"),
    ('{"suspicious": [1]}', "suspicious", "report suspicious section is not a list of host names"),
    ('{"suspicious": "ab"}', "suspicious", "report suspicious section is not a list of host names"),
    ('{"metrics": {"knn": 0}}', "metrics", "report metrics section is not a metric table"),
    ('{"metrics": {"knn": {}}}', "metrics", "is not a metric table: no 'per_class' field"),
    ('{"metrics": {"knn": null}}', "metrics", "report metrics section has no knn table"),
])
def test_report_csv_of_malformed_section_exits_1(tmp_path, capsys, text, section, message):
    report = tmp_path / "bad-section.json"
    report.write_text(text)
    argv = ["report", "--in", str(report), "--section", section, "--format", "csv"]
    assert dispatch(argv) == 1
    assert message in capsys.readouterr().err


def test_cli_overrides_beat_config_file(tmp_path, scenario_file):
    flows, _ = simulate(tmp_path, scenario_file, seed=5)
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text("snn.k_shared=1\npipeline.window=60\n")
    out_cfg = tmp_path / "c1.csv"
    out_override = tmp_path / "c2.csv"
    assert dispatch([
        "cluster", "--flows", str(flows), "--config", str(cfg), "--out", str(out_cfg)
    ]) == 0
    assert dispatch([
        "cluster", "--flows", str(flows), "--config", str(cfg), "--snn-k", "4",
        "--out", str(out_override),
    ]) == 0
    assert out_cfg.read_text() != out_override.read_text()


def test_config_env_var_fallback(tmp_path, scenario_file, monkeypatch):
    flows, _ = simulate(tmp_path, scenario_file, seed=5)
    cfg = tmp_path / "env.cfg"
    cfg.write_text("snn.k_shared=4\n")
    out_env = tmp_path / "env_out.csv"
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
    assert dispatch(["cluster", "--flows", str(flows), "--out", str(out_env)]) == 0
    monkeypatch.delenv(CONFIG_ENV_VAR)
    out_plain = tmp_path / "plain_out.csv"
    assert dispatch(["cluster", "--flows", str(flows), "--out", str(out_plain)]) == 0
    assert out_env.read_text() != out_plain.read_text()


# ---------------------------------------------------------------------------
# exit codes and diagnostics
# ---------------------------------------------------------------------------

def test_missing_required_flag_exits_1(capsys):
    assert dispatch(["run", "--labeled", "x.csv", "--out", "r.json"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_unknown_subcommand_exits_1(capsys):
    assert dispatch(["frobnicate"]) == 1


def test_classify_without_labeled_exits_1_and_writes_nothing(tmp_path, capsys):
    feats = tmp_path / "f.csv"
    feats.write_text("host,bpp,ppm,ppf,ackpush_all,req_all,syn_all,rst_all,fin_all,class\n")
    out = tmp_path / "o.csv"
    assert dispatch(["classify", "--features", str(feats), "--out", str(out)]) == 1
    assert "the following arguments are required: --labeled" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("features", "--window"),
    ("features", "--snn-k"),
    ("features", "--knn-k"),
    ("graph", "--snn-k"),
    ("graph", "--knn-k"),
    ("cluster", "--knn-k"),
    ("classify", "--window"),
    ("classify", "--snn-k"),
    ("classify", "--model"),
    ("classify", "--save-model"),
])
def test_subcommand_rejects_a_flag_it_does_not_read(tmp_path, capsys, command, flag):
    if command == "classify":
        inputs = ["--features", "f.csv", "--labeled", "l.csv"]
    else:
        inputs = ["--flows", "flows.csv"]
    out = tmp_path / "out.csv"
    assert dispatch([command, *inputs, flag, "3", "--out", str(out)]) == 1
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, overrides", [
    (["graph", "--flows", "f.csv", "--window", "30"], {"window_length": 30.0}),
    (["cluster", "--flows", "f.csv", "--window", "30", "--snn-k", "3"],
     {"window_length": 30.0, "k_shared": 3}),
    (["classify", "--features", "f.csv", "--labeled", "l.csv", "--knn-k", "3"], {"knn_k": 3}),
    (["run", "--flows", "f.csv", "--labeled", "l.csv", "--window", "30", "--snn-k", "3",
      "--knn-k", "7"], {"window_length": 30.0, "k_shared": 3, "knn_k": 7}),
])
def test_subcommand_flags_override_the_pipeline_config(monkeypatch, argv, overrides):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    args = build_parser().parse_args([*argv, "--out", "o"])
    config = cli._load_pipeline_config(args)
    assert config == dataclasses.replace(PipelineConfig(), **overrides)


def test_internal_prefixes_matching_no_host_exit_1(tmp_path, scenario_file, capsys):
    flows, truth = simulate(tmp_path, scenario_file, seed=5)
    labeled = tmp_path / "labeled.csv"
    assert dispatch([
        "features", "--flows", str(flows), "--truth", str(truth), "--out", str(labeled)
    ]) == 0
    cfg = tmp_path / "prefix.cfg"
    cfg.write_text("state.internal_prefixes=10.\n")
    for argv, where in (
        (["cluster", "--flows", str(flows)], "cluster: error: "),
        (["run", "--flows", str(flows), "--labeled", str(labeled)], "step 3 (graph_features): "),
    ):
        out = tmp_path / "out.json"
        assert dispatch([*argv, "--config", str(cfg), "--out", str(out)]) == 1
        assert f"{where}state.internal_prefixes 10. match no host" in capsys.readouterr().err
        assert not out.exists()


def test_missing_input_file_exits_1(tmp_path, capsys):
    assert dispatch([
        "run", "--flows", str(tmp_path / "nope.csv"), "--labeled", str(tmp_path / "no.csv"),
        "--out", str(tmp_path / "r.json"),
    ]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["features", "graph", "cluster", "run"])
def test_capture_without_flows_exits_1(tmp_path, capsys, labeled_capture, command):
    _, labeled = labeled_capture
    empty = tmp_path / "empty.csv"
    empty.write_text(flow_model.flows_to_csv([]))
    out = tmp_path / "out"
    argv = [command, "--flows", str(empty), "--out", str(out)]
    if command == "run":
        argv += ["--labeled", str(labeled)]
    assert dispatch(argv) == 1
    assert f"minedetect {command}: error: no flows in input" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["graph", "cluster", "run"])
def test_start_2_53_windows_from_0_exits_1(tmp_path, capsys, labeled_capture, command):
    _, labeled = labeled_capture
    flows = tmp_path / "far.csv"
    flows.write_text(flow_model.flows_to_csv([make_flow(start_time=1e300, end_time=1e300)]))
    out = tmp_path / "out"
    argv = [command, "--flows", str(flows), "--window", "1e-10", "--out", str(out)]
    if command == "run":
        argv += ["--labeled", str(labeled)]
    assert dispatch(argv) == 1
    where = "step 3 (graph_features): " if command == "run" else ""
    assert (
        f"minedetect {command}: error: {where}start time 1e+300 is 2**53 or more windows"
        " of 1e-10 s from 0"
    ) in capsys.readouterr().err
    assert not out.exists()


def test_features_rejects_a_byte_count_above_int64_with_its_line(tmp_path, capsys):
    flows = tmp_path / "flows.csv"
    text = flow_model.flows_to_csv([make_flow(), make_flow(bytes=1234567)])
    flows.write_text(text.replace(",1234567,", f",{'9' * 400},"))
    out = tmp_path / "features.csv"
    assert dispatch(["features", "--flows", str(flows), "--out", str(out)]) == 1
    assert "minedetect features: error: line 3: bytes must be < 2**63" in capsys.readouterr().err
    assert not out.exists()


def test_features_on_a_span_too_long_for_a_float_exits_1(tmp_path, capsys):
    # the span's length overflows to inf, over which every host's ppm would read 0.0
    flows = tmp_path / "flows.csv"
    flows.write_text(flow_model.flows_to_csv([
        make_flow(start_time=-1e308, end_time=-1e308), make_flow(start_time=1e308, end_time=1e308),
    ]))
    out = tmp_path / "features.csv"
    assert dispatch(["features", "--flows", str(flows), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("minedetect features: error: window [-1e+308, ")
    assert err.endswith(") needs a finite length > 0, got inf\n")
    assert not out.exists()


@pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv-reader"])
def test_graph_rejects_an_over_long_host_with_its_line(tmp_path, capsys, quoted):
    flows = tmp_path / "flows.csv"
    text = flow_model.flows_to_csv([make_flow(), make_flow(src_host="h" * 200_000)])
    flows.write_text(quote_first_cell(text) if quoted else text)
    out = tmp_path / "graph.txt"
    assert dispatch(["graph", "--flows", str(flows), "--out", str(out)]) == 1
    limit = csv.field_size_limit()
    assert (
        f"minedetect graph: error: line 3: field larger than field limit ({limit})"
        in capsys.readouterr().err
    )
    assert not out.exists()


def test_run_with_a_labeled_table_without_rows_exits_1(tmp_path, capsys, labeled_capture):
    flows, _ = labeled_capture
    empty = tmp_path / "labeled.csv"
    empty.write_text(flow_model.features_to_csv([]))
    out = tmp_path / "report.json"
    assert dispatch(["run", "--flows", str(flows), "--labeled", str(empty), "--out", str(out)]) == 1
    assert "minedetect run: error: no labeled hosts in input" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["features", "run"])
def test_out_below_a_regular_file_exits_1(tmp_path, capsys, labeled_capture, command):
    flows, labeled = labeled_capture
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = [command, "--flows", str(flows), "--out", str(blocker / "x")]
    if command == "run":
        argv += ["--labeled", str(labeled)]
    assert dispatch(argv) == 1
    assert f"minedetect {command}: error: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_flows_path_that_is_a_directory_exits_1(tmp_path, capsys):
    out = tmp_path / "features.csv"
    assert dispatch(["features", "--flows", str(tmp_path), "--out", str(out)]) == 1
    assert "minedetect features: error: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bad_state_config_exits_1_before_reading_flows(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("state.delta_t=0\n")
    out = tmp_path / "feats.csv"
    assert dispatch([
        "features", "--flows", str(tmp_path / "absent.csv"), "--config", str(cfg),
        "--out", str(out),
    ]) == 1
    assert "delta_t must be > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, flags, message", [
    ("fingerprint.required_flags=ACK,PSH\n", [], "bad fingerprint config: required flag 'PSH'"),
    ("fingerprint.min_duration=nan\n", [], "bad fingerprint config: min_duration must be finite"),
    ("fingerprint.ports=\n", [], "bad fingerprint config: fingerprint needs a port or a pool host"),
    ("", ["--window", "inf"], "window_length must be finite and > 0"),
])
def test_config_that_switches_a_rule_off_exits_1(
    tmp_path, scenario_file, capsys, config, flags, message
):
    flows, truth = simulate(tmp_path, scenario_file, seed=5)
    labeled = tmp_path / "labeled.csv"
    assert dispatch([
        "features", "--flows", str(flows), "--truth", str(truth), "--out", str(labeled)
    ]) == 0
    cfg = tmp_path / "off.cfg"
    cfg.write_text(config)
    out = tmp_path / "report.json"
    assert dispatch([
        "run", "--flows", str(flows), "--labeled", str(labeled), "--ground-truth", str(truth),
        "--config", str(cfg), *flags, "--out", str(out),
    ]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_readme_config_example_loads_and_names_every_key(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"## Config file\n.*?```\n(.*?)```", readme, re.S).group(1)
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(example)
    kv = read_kv_file(str(cfg))
    PipelineConfig.from_kv(kv)
    for row in pipeline.CONFIG_KEYS:
        assert any(k == row.key or (row.names and k.startswith(row.key)) for k in kv), row.key


def test_unknown_config_key_exits_1_before_reading_flows(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("snn.k_shared=2\nstate.internal_prefix=host\n")
    out = tmp_path / "report.json"
    assert dispatch([
        "run", "--flows", str(tmp_path / "absent.csv"), "--labeled", str(tmp_path / "absent.csv"),
        "--config", str(cfg), "--out", str(out),
    ]) == 1
    err = capsys.readouterr().err
    assert "unknown config key 'state.internal_prefix'" in err
    assert "absent.csv" not in err
    assert not out.exists()


def test_unknown_scenario_key_exits_1(tmp_path, capsys):
    scenario = tmp_path / "typo.cfg"
    scenario.write_text(SCENARIO + "scenario.n_host=50\n")
    out = tmp_path / "flows.csv"
    assert dispatch(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
    assert "unknown scenario config key 'scenario.n_host'" in capsys.readouterr().err
    assert not out.exists()


TRUTH_OK = "host,label,recruitment_window\nhost000,Miner,1\n"


@pytest.mark.parametrize("pred_row", [
    "host000,Miner",
    "host000,Miner,abc",
    "host000,Bogus,0.5",
    "host000,Miner,nan",
    "host000,Miner,7",
    "host000,Unlabeled,0.5",
    "host000,,0.5",
])
def test_evaluate_bad_prediction_row_exits_1_with_line_number(tmp_path, capsys, pred_row):
    pred = tmp_path / "pred.csv"
    pred.write_text("host,label,score\n" + pred_row + "\n")
    truth = tmp_path / "truth.csv"
    truth.write_text(TRUTH_OK)
    assert dispatch([
        "evaluate", "--pred", str(pred), "--truth", str(truth), "--out", str(tmp_path / "m.csv"),
    ]) == 1
    assert "line 2" in capsys.readouterr().err


def test_evaluate_prediction_row_line_number_counts_physical_lines(tmp_path, capsys):
    # the host cell of line 2 runs on to line 3, so the bad score is on line 4
    pred = tmp_path / "pred.csv"
    pred.write_text('host,label,score\n"x\ny",Miner,0.5\nhost000,Miner,abc\n')
    truth = tmp_path / "truth.csv"
    truth.write_text(TRUTH_OK)
    assert dispatch([
        "evaluate", "--pred", str(pred), "--truth", str(truth), "--out", str(tmp_path / "m.csv"),
    ]) == 1
    assert "line 4" in capsys.readouterr().err


def test_evaluate_short_truth_row_exits_1_with_line_number(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("host,label,score\nhost000,Miner,1.0\n")
    truth = tmp_path / "truth.csv"
    truth.write_text(TRUTH_OK + "host001\n")
    assert dispatch([
        "evaluate", "--pred", str(pred), "--truth", str(truth), "--out", str(tmp_path / "m.csv"),
    ]) == 1
    assert "line 3" in capsys.readouterr().err


def test_features_short_truth_row_exits_1_with_line_number(tmp_path, scenario_file, capsys):
    flows, _ = simulate(tmp_path, scenario_file, seed=5)
    truth = tmp_path / "short.truth.csv"
    truth.write_text("host,label,recruitment_window\nhost000\n")
    out = tmp_path / "feats.csv"
    assert dispatch([
        "features", "--flows", str(flows), "--truth", str(truth), "--out", str(out),
    ]) == 1
    assert "line 2" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_duplicate_prediction_host_exits_1_with_line_number(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text(
        "host,label,score\nhost000,Miner,0.9\nhost000,Miner,0.9\nhost001,NotMiner,0.1\n"
    )
    truth = tmp_path / "truth.csv"
    truth.write_text(TRUTH_OK + "host001,NotMiner,\n")
    out = tmp_path / "m.csv"
    assert dispatch([
        "evaluate", "--pred", str(pred), "--truth", str(truth), "--out", str(out),
    ]) == 1
    assert "line 3: duplicate host 'host000'" in capsys.readouterr().err
    assert not out.exists()


def truth_commands(tmp_path, scenario_file):
    """A simulated truth file, its rows, and the argv of each command that reads it.

    Every argv lacks only ``--out``; the prediction file predicts the first host.
    """
    flows, truth = simulate(tmp_path, scenario_file, seed=5)
    labeled = tmp_path / "labeled.csv"
    assert dispatch([
        "features", "--flows", str(flows), "--truth", str(truth), "--out", str(labeled),
    ]) == 0
    rows = truth.read_text().splitlines()
    pred = tmp_path / "pred.csv"
    pred.write_text(f"host,label,score\n{rows[1].split(',')[0]},Miner,1.0\n")
    argv = {
        "evaluate": ["evaluate", "--pred", str(pred), "--truth", str(truth)],
        "run": ["run", "--flows", str(flows), "--labeled", str(labeled),
                "--ground-truth", str(truth)],
        "features": ["features", "--flows", str(flows), "--truth", str(truth)],
    }
    return truth, rows, argv


@pytest.mark.parametrize("command", ["evaluate", "run", "features"])
def test_duplicate_truth_host_exits_1_with_line_number(tmp_path, scenario_file, capsys, command):
    truth, rows, argv = truth_commands(tmp_path, scenario_file)
    truth.write_text("\n".join(rows + [rows[1]]) + "\n")  # the first host again
    host = rows[1].split(",")[0]
    out = tmp_path / "out"
    assert dispatch(argv[command] + ["--out", str(out)]) == 1
    assert f"line {len(rows) + 1}: duplicate host {host!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "run", "features"])
def test_unlabeled_truth_row_exits_1_with_line_number(tmp_path, scenario_file, capsys, command):
    truth, rows, argv = truth_commands(tmp_path, scenario_file)
    line = next(i for i, row in enumerate(rows) if ",NotMiner," in row)
    rows[line] = rows[line].replace(",NotMiner,", ",Unlabeled,")
    truth.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert dispatch(argv[command] + ["--out", str(out)]) == 1
    expected = f"line {line + 1}: ground truth label must be Miner or NotMiner"
    assert expected in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_empty_prediction_csv_exits_1(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("")
    truth = tmp_path / "truth.csv"
    truth.write_text(TRUTH_OK)
    assert dispatch([
        "evaluate", "--pred", str(pred), "--truth", str(truth), "--out", str(tmp_path / "m.csv"),
    ]) == 1
    assert "error: empty input: no header row" in capsys.readouterr().err


def test_evaluate_skips_whitespace_only_prediction_lines(tmp_path):
    truth = tmp_path / "truth.csv"
    truth.write_text(TRUTH_OK + "host001,NotMiner,\n")
    outs = []
    for name, blank in (("plain", ""), ("spaced", "  \t\n")):
        pred = tmp_path / f"{name}.pred.csv"
        pred.write_text(
            f"host,label,score\n{blank}host000,Miner,0.9\n{blank}host001,NotMiner,0.2\n"
        )
        out = tmp_path / f"{name}.m.csv"
        argv = ["evaluate", "--pred", str(pred), "--truth", str(truth), "--out", str(out)]
        assert dispatch(argv) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def labeled_capture(tmp_path_factory):
    """A simulated capture and its labeled feature CSV, shared by read-only tests."""
    tmp_path = tmp_path_factory.mktemp("labeled_capture")
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO)
    flows, truth = simulate(tmp_path, str(scenario), seed=5)
    labeled = tmp_path / "labeled.csv"
    assert dispatch([
        "features", "--flows", str(flows), "--truth", str(truth), "--out", str(labeled),
    ]) == 0
    return flows, labeled


@pytest.mark.parametrize("command", ["classify", "run"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("feature", ["bpp", "ppm", "ppf"])
def test_non_finite_labeled_feature_exits_1_with_line_number(
    tmp_path, capsys, labeled_capture, command, value, feature
):
    flows, labeled = labeled_capture
    lines = labeled.read_text().splitlines()
    cells = lines[3].split(",")
    cells[1 + flow_model.FEATURE_ORDER.index(feature)] = value
    lines[3] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    argv = {
        "classify": ["classify", "--labeled", str(bad), "--features", str(labeled)],
        "run": ["run", "--flows", str(flows), "--labeled", str(bad)],
    }[command]
    assert dispatch(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "line 4" in err and f"{feature}=" in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["classify", "run"])
def test_repeated_feature_host_exits_1_with_line_number(
    tmp_path, capsys, labeled_capture, command
):
    flows, labeled = labeled_capture
    lines = labeled.read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines + [lines[1]]) + "\n")  # the first host again
    host = lines[1].split(",")[0]
    out = tmp_path / "out"
    argv = {
        "classify": ["classify", "--labeled", str(labeled), "--features", str(bad)],
        "run": ["run", "--flows", str(flows), "--labeled", str(bad)],
    }[command]
    assert dispatch(argv + ["--out", str(out)]) == 1
    expected = f"line {len(lines) + 1}: duplicate host {host!r} (first on line 2)"
    assert expected in capsys.readouterr().err
    assert not out.exists()


def test_failed_run_leaves_no_partial_output(tmp_path, scenario_file):
    flows, _ = simulate(tmp_path, scenario_file, seed=5)
    bad_labeled = tmp_path / "bad.csv"
    bad_labeled.write_text("host,wrong,header\n")
    report = tmp_path / "report.json"
    assert dispatch([
        "run", "--flows", str(flows), "--labeled", str(bad_labeled), "--out", str(report)
    ]) == 1
    assert not report.exists()
    assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


def test_help_lists_every_flag():
    parser = build_parser()
    text = parser.format_help()
    assert "simulate" in text and "evaluate" in text
    for sub in ("run", "simulate", "cluster"):
        assert sub in text


def test_run_out_dash_writes_only_the_report_to_stdout(
    tmp_path, monkeypatch, capsys, labeled_capture
):
    flows, labeled = labeled_capture
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert dispatch(["run", "--flows", str(flows), "--labeled", str(labeled), "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["clusters"]
    assert "minedetect report --section clusters|metrics --format csv" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_simulate_out_dash_needs_truth_path(tmp_path, monkeypatch, capsys):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(SCENARIO)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert dispatch(["simulate", "--scenario", str(scenario), "--out", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--truth" in captured.err
    truth = tmp_path / "truth.csv"
    assert dispatch(["simulate", "--scenario", str(scenario), "--out", "-", "--truth", str(truth)]) == 0
    assert flow_model.parse_flow_csv(capsys.readouterr().out)
    assert truth.exists()
    assert list(cwd.iterdir()) == []


def test_cli_reads_and_writes_no_table_itself():
    # the prediction, hosts, cluster and metric tables are read and written by the
    # library, so the CLI keeps no table code of its own
    source = Path(cli.__file__).read_text(encoding="utf-8")
    assert re.findall(r"\b(?:CsvTable|csv_text)\(", source) == []


@pytest.mark.parametrize(
    "kind", ["flows", "labeled", "truth", "predictions", "config", "scenario", "report"]
)
def test_input_with_a_byte_order_mark_reads_as_without(
    tmp_path, labeled_capture, scenario_file, kind
):
    flows, labeled = labeled_capture
    truth = flows.with_name("flows.truth.csv")
    pred = tmp_path / "pred.csv"
    argv = ["classify", "--features", str(labeled), "--labeled", str(labeled), "--out", str(pred)]
    assert dispatch(argv) == 0
    config = tmp_path / "window.cfg"
    config.write_text("# half-minute windows\npipeline.window=30\n")
    report = tmp_path / "report.json"
    report.write_text('{"suspicious": ["a", "b"]}\n')
    source, command = {
        "flows": (flows, ["features", "--flows", "IN"]),
        "labeled": (labeled, ["classify", "--features", str(labeled), "--labeled", "IN"]),
        "truth": (truth, ["features", "--flows", str(flows), "--truth", "IN"]),
        "predictions": (pred, ["evaluate", "--pred", "IN", "--truth", str(truth)]),
        "config": (config, ["graph", "--flows", str(flows), "--config", "IN"]),
        "scenario": (Path(scenario_file), ["simulate", "--scenario", "IN"]),
        "report": (report, ["report", "--in", "IN", "--section", "suspicious", "--format", "csv"]),
    }[kind]
    outputs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        given = tmp_path / f"in{len(mark)}{source.suffix}"
        given.write_bytes(mark + source.read_bytes())
        out = tmp_path / f"out{len(mark)}.csv"
        argv = [str(given) if arg == "IN" else arg for arg in command]
        assert dispatch([*argv, "--out", str(out)]) == 0
        # simulate also writes the truth table beside --out
        outputs.append([p.read_bytes() for p in sorted(tmp_path.glob(f"out{len(mark)}*"))])
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == (2 if kind == "scenario" else 1)


@pytest.mark.filterwarnings("default::UserWarning")
@pytest.mark.parametrize("command", ["classify", "run"])
def test_library_warning_prints_as_one_diagnostic_line(tmp_path, capsys, labeled_capture, command):
    flows, labeled = labeled_capture
    few = tmp_path / "few.csv"  # the header and three rows, below the default knn.k=5
    few.write_text("".join(labeled.read_text().splitlines(keepends=True)[:4]))
    inputs = {"classify": ["--features", str(labeled)], "run": ["--flows", str(flows)]}[command]
    capsys.readouterr()
    out = tmp_path / "out"
    assert dispatch([command, *inputs, "--labeled", str(few), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert f"minedetect {command}: warning: k=5 larger than training set; clamped to 3\n" in err
    assert ".py:" not in err and "UserWarning" not in err


# ---------------------------------------------------------------------------
# outputs: all or none, and never over an input
# ---------------------------------------------------------------------------

def test_write_atomic_writes_every_file_and_then_stdout(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_atomic([("-", "to stdout\n"), (str(a), "A"), (str(b), "B")])
    assert (a.read_text(), b.read_text()) == ("A", "B")
    assert capsys.readouterr().out == "to stdout\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]


def test_write_atomic_failure_removes_what_it_renamed(tmp_path, capsys):
    a = tmp_path / "a.txt"
    (tmp_path / "dir").mkdir()
    with pytest.raises(IsADirectoryError):
        write_atomic([(str(a), "A"), ("-", "never\n"), (str(tmp_path / "dir"), "B")])
    assert capsys.readouterr().out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]


def test_run_with_a_directory_at_its_last_output_leaves_no_output(
    tmp_path, capsys, labeled_capture
):
    flows, labeled = labeled_capture
    (tmp_path / "o" / "r.clusters.csv").mkdir(parents=True)
    argv = ["run", "--flows", str(flows), "--labeled", str(labeled)]
    assert dispatch(argv + ["--out", str(tmp_path / "o" / "r.json")]) == 1
    assert "minedetect run: error: " in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "o").iterdir()] == ["r.clusters.csv"]
    assert list((tmp_path / "o" / "r.clusters.csv").iterdir()) == []


def test_failed_run_puts_back_the_report_that_was_there(tmp_path, capsys, labeled_capture):
    flows, labeled = labeled_capture
    out = tmp_path / "o"
    (out / "r.clusters.csv").mkdir(parents=True)
    (out / "r.json").write_text('{"earlier": "report"}\n')
    before = (out / "r.json").read_bytes()
    argv = ["run", "--flows", str(flows), "--labeled", str(labeled)]
    assert dispatch(argv + ["--out", str(out / "r.json")]) == 1
    assert "minedetect run: error: " in capsys.readouterr().err
    assert (out / "r.json").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["r.clusters.csv", "r.json"]


def test_outputs_get_the_mode_of_a_new_file(tmp_path, labeled_capture):
    flows, labeled = labeled_capture
    report = tmp_path / "report.json"
    report.write_text("{}\n")
    report.chmod(0o600)  # a replaced file takes the new file's mode too
    umask = os.umask(0o022)
    try:
        argv = ["run", "--flows", str(flows), "--labeled", str(labeled), "--out", str(report)]
        assert dispatch(argv) == 0
    finally:
        os.umask(umask)
    for path in (report, tmp_path / "report.clusters.csv"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
    # the replaced report, moved aside during the rename, is gone
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.clusters.csv", "report.json"]


def test_classify_with_a_directory_at_its_last_output_leaves_no_output(
    tmp_path, capsys, labeled_capture
):
    _, labeled = labeled_capture
    (tmp_path / "o2" / "p.csv").mkdir(parents=True)
    assert dispatch([
        "classify", "--labeled", str(labeled), "--features", str(labeled),
        "--out", str(tmp_path / "o2" / "p.csv"),
    ]) == 1
    assert "minedetect classify: error: " in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "o2").iterdir()] == ["p.csv"]
    assert list((tmp_path / "o2" / "p.csv").iterdir()) == []


def test_simulate_with_a_directory_at_its_last_output_leaves_no_output(
    tmp_path, capsys, scenario_file
):
    (tmp_path / "o3" / "s.truth.csv").mkdir(parents=True)
    out = tmp_path / "o3" / "s.csv"
    assert dispatch(["simulate", "--scenario", scenario_file, "--out", str(out)]) == 1
    assert "minedetect simulate: error: " in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "o3").iterdir()] == ["s.truth.csv"]


def shared_path_argv(tmp_path, command, labeled_capture, scenario_file):
    """argv of ``command`` with one output path naming an input, the input, and the two flags."""
    flows, labeled = labeled_capture
    capture, table = tmp_path / "capture.csv", tmp_path / "table.csv"
    capture.write_bytes(flows.read_bytes())
    table.write_bytes(labeled.read_bytes())
    report = tmp_path / "r.json"
    report.write_text('{"suspicious": []}\n')
    truth = tmp_path / "t.csv"
    truth.write_text("host,label,recruitment_window\nhost000,Miner,1\n")
    pred = tmp_path / "pred.csv"
    pred.write_text("host,label,score\nhost000,Miner,1.0\n")
    run_flows = tmp_path / "r.clusters.csv"  # the table run writes beside r.json
    run_flows.write_bytes(flows.read_bytes())
    return {
        "simulate": (["simulate", "--scenario", scenario_file, "--out", str(truth),
                      "--truth", str(truth)], truth, "--out and --truth"),
        "features": (["features", "--flows", str(capture), "--out", str(capture)],
                     capture, "--flows and --out"),
        "graph": (["graph", "--flows", str(capture), "--out", str(capture)],
                  capture, "--flows and --out"),
        "cluster": (["cluster", "--flows", str(capture), "--out", str(capture)],
                    capture, "--flows and --out"),
        "classify": (["classify", "--features", str(capture), "--labeled", str(table),
                      "--out", str(table)],
                     table, "--labeled and --out"),
        "evaluate": (["evaluate", "--pred", str(pred), "--truth", str(truth), "--out", str(truth)],
                     truth, "--truth and --out"),
        "run": (["run", "--flows", str(run_flows), "--labeled", str(table), "--out", str(report)],
                run_flows, "--flows and --out's clusters table"),
        "report": (["report", "--in", str(report), "--out", str(report)],
                   report, "--in and --out"),
    }[command]


@pytest.mark.parametrize(
    "command",
    ["simulate", "features", "graph", "cluster", "classify", "evaluate", "run", "report"],
)
def test_output_path_naming_an_input_exits_1_and_keeps_the_input(
    tmp_path, capsys, labeled_capture, scenario_file, command
):
    argv, kept, flags = shared_path_argv(tmp_path, command, labeled_capture, scenario_file)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert dispatch(argv) == 1
    assert f"minedetect {command}: error: {flags} name one file: " in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert kept.name in before


def test_output_linked_to_an_input_exits_1(tmp_path, capsys, labeled_capture):
    flows, _ = labeled_capture
    link = tmp_path / "link.csv"
    link.symlink_to(flows)
    before = flows.read_bytes()
    assert dispatch(["features", "--flows", str(flows), "--out", str(link)]) == 1
    assert "--flows and --out name one file" in capsys.readouterr().err
    assert flows.read_bytes() == before


def test_two_outputs_naming_one_file_exit_1(tmp_path, capsys, scenario_file):
    out = tmp_path / "s.csv"
    assert dispatch([
        "simulate", "--scenario", scenario_file, "--out", str(out), "--truth", str(out),
    ]) == 1
    assert "--out and --truth name one file" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.cfg"]


@pytest.mark.parametrize("row, message", [
    ("host001,Miner,", "line 3: miner 'host001' has no recruitment window"),
    ("host001,Miner,-1", "line 3: miner 'host001' has recruitment window -1 < 0"),
])
def test_miner_truth_row_without_a_window_exits_1_with_line_number(
    tmp_path, capsys, row, message
):
    pred = tmp_path / "pred.csv"
    pred.write_text("host,label,score\nhost000,Miner,1.0\n")
    truth = tmp_path / "truth.csv"
    truth.write_text(TRUTH_OK + row + "\n")
    out = tmp_path / "m.csv"
    argv = ["evaluate", "--pred", str(pred), "--truth", str(truth), "--out", str(out)]
    assert dispatch(argv) == 1
    assert f"minedetect evaluate: error: {message}\n" in capsys.readouterr().err
    assert not out.exists()
