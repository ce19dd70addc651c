import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

from minedetect import cli, flow_model, pipeline, snn_cluster
from minedetect.cli import CONFIG_ENV_VAR, build_parser, dispatch, read_kv_file, write_atomic
from minedetect.errors import InvalidConfigError
from minedetect.knn_classify import KnnClassifier
from minedetect.pipeline import PipelineConfig

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


def test_write_atomic_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    write_atomic(str(target), "payload")
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
    model = tmp_path / "model.knn"
    assert dispatch([
        "classify", "--labeled", str(train_feats), "--features", str(eval_feats),
        "--out", str(pred), "--save-model", str(model),
    ]) == 0
    assert pred.read_text().splitlines()[0] == "host,label,score"
    assert model.exists()

    metrics = tmp_path / "metrics.csv"
    assert dispatch([
        "evaluate", "--pred", str(pred), "--truth", str(eval_truth), "--out", str(metrics)
    ]) == 0
    lines = metrics.read_text().splitlines()
    assert lines[0].startswith("Class,TP Rate,")
    assert len(lines) == 4


def test_classify_with_stored_model_expects_normalized_features(tmp_path, scenario_file):
    from minedetect.flow_model import (
        features_to_csv,
        fit_normalizer,
        normalize,
        parse_feature_csv,
    )

    flows, truth = simulate(tmp_path, scenario_file, "train.csv", seed=7)
    train_feats = tmp_path / "train_feats.csv"
    assert dispatch([
        "features", "--flows", str(flows), "--truth", str(truth), "--out", str(train_feats)
    ]) == 0

    # train once and persist the model
    pred1 = tmp_path / "p1.csv"
    model = tmp_path / "model.knn"
    assert dispatch([
        "classify", "--labeled", str(train_feats), "--features", str(train_feats),
        "--out", str(pred1), "--save-model", str(model),
    ]) == 0

    # re-classify with the stored model: queries must arrive normalized
    raw = parse_feature_csv(train_feats.read_text())
    params = fit_normalizer(raw + raw)
    normalized_csv = tmp_path / "normalized.csv"
    normalized_csv.write_text(features_to_csv([normalize(v, params) for v in raw]))
    pred2 = tmp_path / "p2.csv"
    assert dispatch([
        "classify", "--model", str(model), "--features", str(normalized_csv),
        "--out", str(pred2),
    ]) == 0
    assert pred1.read_text() == pred2.read_text()


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
    "classify --save-model": "20167e4dcc351b72c717a3b81632483f14b3871615886cee3ac2cd1e59372c8e",
    "evaluate": "ea3724bc9f35e283bbfaacf42921e09e52e5df19e966c71a7373c5238c3f5e6e",
}


def test_outputs_match_golden_digests(tmp_path, scenario_file):
    report = run_pipeline(tmp_path, scenario_file)
    eval_flows = str(tmp_path / "eval.csv")
    out = {name: tmp_path / name for name in (
        "graph.txt", "clusters.csv", "clusters.json", "eval_feats.csv", "pred.csv",
        "model.knn", "eval_metrics.csv",
    )}
    for argv in (
        ["graph", "--flows", eval_flows, "--out", str(out["graph.txt"])],
        ["cluster", "--flows", eval_flows, "--out", str(out["clusters.csv"])],
        ["cluster", "--flows", eval_flows, "--format", "json", "--snn-k", "3",
         "--out", str(out["clusters.json"])],
        ["features", "--flows", eval_flows, "--out", str(out["eval_feats.csv"])],
        ["classify", "--labeled", str(tmp_path / "labeled.csv"),
         "--features", str(out["eval_feats.csv"]), "--out", str(out["pred.csv"]),
         "--save-model", str(out["model.knn"])],
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
        "classify --save-model": out["model.knn"].read_text(),
        "evaluate": out["eval_metrics.csv"].read_text(),
    }
    digests = {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in outputs.items()
    }
    assert digests == GOLDEN_SHA256


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


def test_classify_conflicting_flags_exit_1(tmp_path, capsys):
    feats = tmp_path / "f.csv"
    feats.write_text("host,bpp,ppm,ppf,ackpush_all,req_all,syn_all,rst_all,fin_all,class\n")
    assert dispatch([
        "classify", "--features", str(feats), "--labeled", str(feats),
        "--model", str(feats), "--out", str(tmp_path / "o.csv"),
    ]) == 1
    assert "mutually exclusive" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("features", "--window"),
    ("features", "--snn-k"),
    ("features", "--knn-k"),
    ("graph", "--snn-k"),
    ("graph", "--knn-k"),
    ("cluster", "--knn-k"),
    ("classify", "--window"),
    ("classify", "--snn-k"),
])
def test_subcommand_rejects_a_flag_it_does_not_read(tmp_path, capsys, command, flag):
    inputs = ["--features", "f.csv"] if command == "classify" else ["--flows", "flows.csv"]
    out = tmp_path / "out.csv"
    assert dispatch([command, *inputs, flag, "3", "--out", str(out)]) == 1
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, overrides", [
    (["graph", "--flows", "f.csv", "--window", "30"], {"window_length": 30.0}),
    (["cluster", "--flows", "f.csv", "--window", "30", "--snn-k", "3"],
     {"window_length": 30.0, "k_shared": 3}),
    (["classify", "--features", "f.csv", "--knn-k", "3"], {"knn_k": 3}),
    (["run", "--flows", "f.csv", "--labeled", "l.csv", "--window", "30", "--snn-k", "3",
      "--knn-k", "7"], {"window_length": 30.0, "k_shared": 3, "knn_k": 7}),
])
def test_subcommand_flags_override_the_pipeline_config(monkeypatch, argv, overrides):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
    args = build_parser().parse_args([*argv, "--out", "o"])
    config = cli._load_pipeline_config(args)
    assert config == dataclasses.replace(PipelineConfig(), **overrides)


def test_classify_model_rejects_knn_k(tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert dispatch([
        "classify", "--features", str(tmp_path / "f.csv"), "--model", str(tmp_path / "m.txt"),
        "--knn-k", "3", "--out", str(out),
    ]) == 1
    assert "--knn-k does not apply to --model" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("line, old, new, message", [
    (2, "k=5", "k=zero", "k='zero' is not an integer"),
    (2, "k=5", "k=0", "k must be >= 1"),
    (6, None, "abc", "could not convert string to float: 'abc'"),
])
def test_bad_model_file_exits_1_with_line_number(
    tmp_path, capsys, labeled_capture, line, old, new, message
):
    _, labeled = labeled_capture
    model = tmp_path / "model.knn"
    assert dispatch([
        "classify", "--labeled", str(labeled), "--features", str(labeled),
        "--out", str(tmp_path / "p.csv"), "--save-model", str(model),
    ]) == 0
    lines = model.read_text().splitlines()
    if old is None:  # the first feature cell of the example on that line
        cells = lines[line - 1].split("\t")
        cells[1] = new
        lines[line - 1] = "\t".join(cells)
    else:
        assert lines[line - 1] == old
        lines[line - 1] = new
    model.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "out.csv"
    assert dispatch([
        "classify", "--model", str(model), "--features", str(labeled), "--out", str(out),
    ]) == 1
    assert f"model line {line}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_model_file_without_examples_exits_1_with_line_number(tmp_path, capsys, labeled_capture):
    _, labeled = labeled_capture
    model = tmp_path / "model.knn"
    assert dispatch([
        "classify", "--labeled", str(labeled), "--features", str(labeled),
        "--out", str(tmp_path / "p.csv"), "--save-model", str(model),
    ]) == 0
    lines = model.read_text().splitlines()
    assert lines[3].startswith("count=")
    model.write_text("\n".join(lines[:3] + ["count=0"]) + "\n")
    capsys.readouterr()
    out = tmp_path / "out.csv"
    assert dispatch([
        "classify", "--model", str(model), "--features", str(labeled), "--out", str(out),
    ]) == 1
    assert "model line 4: count must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_reads_and_writes_no_table_itself():
    # the prediction, hosts, cluster and metric tables are read and written by the
    # library, so the CLI keeps no table code of its own
    source = Path(cli.__file__).read_text(encoding="utf-8")
    assert re.findall(r"\b(?:CsvTable|csv_text)\(", source) == []
