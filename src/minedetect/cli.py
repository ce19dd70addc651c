"""Command-line front end.

Subcommands: simulate, features, graph, cluster, classify, evaluate, run,
report. Exit codes: 0 success, 1 input or validation problem, 2 internal
error. Diagnostics go to stderr; data goes to the --out path (or stdout
when --out is '-'). Output files are written to a temp file and renamed,
so failures never leave partial outputs behind.

Config files are flat ``section.key=value`` text (see PipelineConfig /
ScenarioConfig); the MINEDETECT_CONFIG environment variable supplies a
config path when --config is not given. Explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import tempfile

from . import comm_graph, flow_model, metrics as metrics_mod, pipeline, snn_cluster, synthgen
from .errors import InvalidConfigError, MineDetectError
from .flow_model import Label
from .knn_classify import KnnClassifier
from .pipeline import PipelineConfig

CONFIG_ENV_VAR = "MINEDETECT_CONFIG"


class _Parser(argparse.ArgumentParser):
    # input/usage problems are exit code 1 (argparse defaults to 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def read_kv_file(path: str) -> dict[str, str]:
    """Parse a flat key=value config file ('#' starts a comment line)."""
    kv: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
    return kv


def write_atomic(path: str, text: str) -> None:
    """Write text to path via temp-file + rename; '-' writes to stdout."""
    if path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".minedetect-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_pipeline_config(args) -> PipelineConfig:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    config = PipelineConfig.from_kv(read_kv_file(path)) if path else PipelineConfig()
    overrides = {}
    if getattr(args, "window", None) is not None:
        overrides["window_length"] = args.window
    if getattr(args, "snn_k", None) is not None:
        overrides["k_shared"] = args.snn_k
    if getattr(args, "knn_k", None) is not None:
        overrides["knn_k"] = args.knn_k
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _load_flows(path: str, config: PipelineConfig):
    return flow_model.parse_flow_csv(_read_text(path), schema=config.schema())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    kv = read_kv_file(args.scenario)
    config = synthgen.ScenarioConfig.from_kv(kv)
    flows, truth = synthgen.generate(config, seed=args.seed)
    write_atomic(args.out, flow_model.flows_to_csv(flows))
    truth_path = args.truth or _sibling(args.out, ".truth.csv")
    write_atomic(truth_path, synthgen.truth_to_csv(truth))
    print(
        f"simulate: {len(flows)} flows, {len(truth.miners)} miners -> {args.out}, {truth_path}",
        file=sys.stderr,
    )
    return 0


def _cmd_features(args) -> int:
    config = _load_pipeline_config(args)
    flows = _load_flows(args.flows, config)
    if not flows:
        raise MineDetectError("no flows in input")
    vectors = flow_model.host_vectors(flows)
    if args.truth:
        # the labeled universe: only hosts with ground truth, relabeled
        labels = synthgen.parse_truth_csv(_read_text(args.truth)).labels
        vectors = [
            dataclasses.replace(v, label=labels[v.host]) for v in vectors if v.host in labels
        ]
    write_atomic(args.out, flow_model.features_to_csv(vectors))
    print(f"features: {len(vectors)} hosts -> {args.out}", file=sys.stderr)
    return 0


def _cmd_graph(args) -> int:
    config = _load_pipeline_config(args)
    flows = _load_flows(args.flows, config)
    if not flows:
        raise MineDetectError("no flows in input")
    snapshots = comm_graph.window_snapshots(flows, config.window_length)
    write_atomic(args.out, "".join(comm_graph.graph_to_text(g) for g, _, _ in snapshots))
    print(f"graph: {len(snapshots)} windows -> {args.out}", file=sys.stderr)
    return 0


def _cmd_cluster(args) -> int:
    config = _load_pipeline_config(args)
    flows = _load_flows(args.flows, config)
    if not flows:
        raise MineDetectError("no flows in input")
    report = pipeline.run(flows, [], config)
    if args.format == "json":
        text = json.dumps(snn_cluster.clusters_to_obj(report.clusters), indent=2, sort_keys=True) + "\n"
    else:
        text = snn_cluster.clusters_to_csv(report.clusters)
    write_atomic(args.out, text)
    print(f"cluster: {len(report.clusters)} clusters -> {args.out}", file=sys.stderr)
    return 0


def _predictions_to_csv(predictions) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["host", "label", "score"])
    for p in predictions:
        writer.writerow([p.host, p.label.value, p.score])
    return out.getvalue()


def _cmd_classify(args) -> int:
    config = _load_pipeline_config(args)
    if not args.labeled and not args.model:
        raise MineDetectError("classify needs --labeled or --model")
    if args.labeled and args.model:
        raise MineDetectError("--labeled and --model are mutually exclusive")

    if args.model:
        # a stored model holds normalized examples, so the query features
        # must already be normalized too
        model = KnnClassifier.from_text(_read_text(args.model))
        queries = flow_model.parse_feature_csv(_read_text(args.features), normalized=True)
    else:
        labeled = flow_model.parse_feature_csv(_read_text(args.labeled))
        queries_raw = flow_model.parse_feature_csv(_read_text(args.features))
        params = flow_model.fit_normalizer(labeled + queries_raw)
        model = KnnClassifier(k=config.knn_k)
        model.fit([flow_model.normalize(v, params) for v in labeled])
        queries = [flow_model.normalize(v, params) for v in queries_raw]

    predictions = [model.predict(v) for v in queries]
    write_atomic(args.out, _predictions_to_csv(predictions))
    if args.save_model:
        write_atomic(args.save_model, model.to_text())
    miners = sum(1 for p in predictions if p.label is Label.MINER)
    print(f"classify: {len(predictions)} hosts, {miners} miners -> {args.out}", file=sys.stderr)
    return 0


def _parse_predictions_csv(text: str):
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header[:3]] != ["host", "label", "score"]:
        raise MineDetectError(f"prediction CSV header must be host,label,score, got {header}")
    rows = []
    for row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        rows.append((row[0].strip(), flow_model.parse_label(row[1]), float(row[2])))
    return rows


def _cmd_evaluate(args) -> int:
    predictions = _parse_predictions_csv(_read_text(args.pred))
    truth = synthgen.parse_truth_csv(_read_text(args.truth))
    evaluated = [(h, label, score) for h, label, score in predictions if h in truth.labels]
    if not evaluated:
        raise MineDetectError("no overlap between predictions and ground truth")
    y_true = [truth.labels[h] for h, _, _ in evaluated]
    y_pred = [label for _, label, _ in evaluated]
    scores = [score for _, _, score in evaluated]
    table = pipeline._detector_metrics(y_true, y_pred, scores)
    write_atomic(args.out, metrics_mod.table_to_csv(table))
    print(
        f"evaluate: {len(evaluated)} hosts, accuracy {table['accuracy']:.4f} -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _sibling(path: str, suffix: str) -> str:
    stem, ext = os.path.splitext(path)
    return stem + suffix


def _cmd_run(args) -> int:
    config = _load_pipeline_config(args)
    flows = _load_flows(args.flows, config)
    labeled = flow_model.parse_feature_csv(_read_text(args.labeled))
    ground_truth = None
    if args.ground_truth:
        ground_truth = synthgen.parse_truth_csv(_read_text(args.ground_truth)).labels

    report = pipeline.run(flows, labeled, config, ground_truth=ground_truth)
    write_atomic(args.out, report.to_json())
    write_atomic(_sibling(args.out, ".clusters.csv"), pipeline.report_clusters_csv(report))
    if report.metrics:
        write_atomic(_sibling(args.out, ".metrics.csv"), pipeline.report_metrics_csv(report))
    print(
        f"run: {len(report.predictions)} hosts, {len(report.clusters)} clusters, "
        f"{len(report.suspicious)} suspicious -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _hosts_to_csv(hosts: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["host", "label", "score", "state"])
    for host in sorted(hosts):
        row = hosts[host]
        writer.writerow([host, row["label"], row["score"], row["state"]])
    return out.getvalue()


def _cmd_report(args) -> int:
    obj = json.loads(_read_text(args.infile))
    section = args.section
    if section == "metrics" and not obj.get("metrics"):
        raise MineDetectError("report has no metrics section")
    payload = obj[section]
    if section == "metrics" and (args.detector or args.format == "csv"):
        # JSON without --detector keeps both tables; CSV holds one
        payload = payload[args.detector or "knn"]
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif section == "metrics":
        text = metrics_mod.table_to_csv(payload)
    elif section == "clusters":
        text = snn_cluster.clusters_to_csv(snn_cluster.clusters_from_obj(payload))
    elif section == "hosts":
        text = _hosts_to_csv(payload)
    else:  # suspicious
        text = "".join(host + "\n" for host in payload)
    write_atomic(args.out, text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="minedetect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", help=f"config file (fallback: ${CONFIG_ENV_VAR})")
        p.add_argument("--window", type=float, help="graph window length in seconds (default 60)")
        p.add_argument("--snn-k", type=int, dest="snn_k", help="shared-neighbor threshold (default 2)")
        p.add_argument("--knn-k", type=int, dest="knn_k", help="KNN neighbor count (default 5)")

    p = sub.add_parser("simulate", help="generate a synthetic scenario")
    p.add_argument("--scenario", required=True, help="scenario config file")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--out", required=True, help="flow CSV output path")
    p.add_argument("--truth", help="ground-truth CSV path (default: <out>.truth.csv)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("features", help="aggregate per-host feature vectors")
    p.add_argument("--flows", required=True)
    p.add_argument("--truth", help="ground-truth CSV supplying class labels")
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("graph", help="export per-window communication graphs")
    p.add_argument("--flows", required=True)
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("cluster", help="SNN-cluster the communication graph")
    p.add_argument("--flows", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    add_common(p)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("classify", help="KNN-classify feature vectors")
    p.add_argument("--features", required=True, help="feature CSV to classify")
    p.add_argument("--labeled", help="labeled feature CSV to train on")
    p.add_argument("--model", help="stored model file (expects normalized features)")
    p.add_argument("--save-model", dest="save_model", help="persist the fitted model")
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--pred", required=True, help="prediction CSV (host,label,score)")
    p.add_argument("--truth", required=True, help="ground-truth CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("run", help="full detection pipeline")
    p.add_argument("--flows", required=True, help="unlabeled flow CSV")
    p.add_argument("--labeled", required=True, help="labeled feature CSV")
    p.add_argument("--ground-truth", dest="ground_truth", help="truth CSV enabling metrics")
    p.add_argument("--out", required=True, help="report JSON path (CSV tables written alongside)")
    add_common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="extract sections from a report JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--section", choices=("metrics", "clusters", "hosts", "suspicious"), default="metrics")
    p.add_argument(
        "--detector",
        choices=("knn", "state_detector"),
        help="metric table to extract (default: both in JSON, knn in CSV)",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_report)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (
        MineDetectError,
        FileNotFoundError,
        PermissionError,
        ValueError,
        json.JSONDecodeError,
    ) as exc:
        print(f"minedetect {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal error
        print(f"minedetect {args.subcommand}: internal error: {exc!r}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
