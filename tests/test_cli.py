import hashlib
import json

import pytest

from minedetect.cli import CONFIG_ENV_VAR, build_parser, dispatch, read_kv_file, write_atomic
from minedetect.errors import InvalidConfigError

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
}


def test_outputs_match_golden_digests(tmp_path, scenario_file):
    report = run_pipeline(tmp_path, scenario_file)
    graph = tmp_path / "graph.txt"
    assert dispatch(["graph", "--flows", str(tmp_path / "eval.csv"), "--out", str(graph)]) == 0
    report_text = "".join(
        line
        for line in report.read_text().splitlines(keepends=True)
        if '"generated_at"' not in line
    )
    outputs = {
        "report.json": report_text,
        "report.clusters.csv": (tmp_path / "report.clusters.csv").read_text(),
        "report.metrics.csv": (tmp_path / "report.metrics.csv").read_text(),
        "graph": graph.read_text(),
        "features --truth": (tmp_path / "labeled.csv").read_text(),
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


def test_missing_input_file_exits_1(tmp_path, capsys):
    assert dispatch([
        "run", "--flows", str(tmp_path / "nope.csv"), "--labeled", str(tmp_path / "no.csv"),
        "--out", str(tmp_path / "r.json"),
    ]) == 1
    assert "error" in capsys.readouterr().err


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
