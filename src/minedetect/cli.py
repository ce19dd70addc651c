"""Command-line front end.

Subcommands: simulate, features, graph, cluster, classify, evaluate, run,
report. Exit codes: 0 success, 1 input or validation problem, 2 internal
error. Diagnostics go to stderr; data goes to the --out path (or stdout
when --out is '-'). A command writes all of its output files or none: each
goes to a temp file, and the temps are renamed only once all are written.
An output path that names an input or another output is refused before
anything is read.

Config files are flat ``section.key=value`` text (see kvconfig); the
MINEDETECT_CONFIG environment variable supplies a config path when
--config is not given. Explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import tempfile
import warnings
from typing import Sequence

from . import comm_graph, flow_model, knn_classify, pipeline, snn_cluster, synthgen
from . import metrics as metrics_mod
from .errors import InvalidConfigError, MineDetectError
from .flow_model import Label
from .knn_classify import KnnClassifier
from .kvconfig import read_kv_file
from .pipeline import PipelineConfig

CONFIG_ENV_VAR = "MINEDETECT_CONFIG"


class _Parser(argparse.ArgumentParser):
    # input/usage problems are exit code 1 (argparse defaults to 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def write_atomic(outputs: Sequence[tuple[str, str]]) -> None:
    """Write each (path, text): all of the files or none, then the '-' texts to stdout.

    Every file is written to a temp file in its directory first, with the
    mode ``open(path, "w")`` gives a new file (0o666 less the umask), and the
    temps are renamed only once all are written. A file already at an output
    path is moved to a temp name beside it just before the new one is renamed
    in, and dropped once all are. A failure removes the temps and the new
    outputs and puts back what was there, so a failed call leaves the files
    as it found them.
    """
    files = [(path, text) for path, text in outputs if path != "-"]
    umask = os.umask(0)  # the only way to read it is to set it
    os.umask(umask)
    temps: list[str] = []
    renamed: list[str] = []
    kept: list[tuple[str, str]] = []  # (output path, the temp its earlier file was moved to)
    try:
        for path, text in files:
            fd, tmp = _temp_beside(path)
            temps.append(tmp)
            os.fchmod(fd, 0o666 & ~umask)
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
        for (path, _), tmp in zip(files, temps):
            # a directory is not kept: renaming a file over it fails, naming it
            if os.path.lexists(path) and not os.path.isdir(path):
                fd, aside = _temp_beside(path)
                os.close(fd)
                try:
                    os.replace(path, aside)
                except BaseException:
                    os.unlink(aside)
                    raise
                kept.append((path, aside))
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException:
        for leftover in [*temps[len(renamed) :], *renamed]:
            with contextlib.suppress(OSError):
                os.unlink(leftover)
        for path, aside in kept:
            with contextlib.suppress(OSError):
                os.replace(aside, path)
        raise
    for _, aside in kept:
        with contextlib.suppress(OSError):
            os.unlink(aside)
    for path, text in outputs:
        if path == "-":
            sys.stdout.write(text)


def _temp_beside(path: str) -> tuple[int, str]:
    """A new temp file in path's directory, open for writing: (its descriptor, its name)."""
    directory = os.path.dirname(os.path.abspath(path))
    return tempfile.mkstemp(dir=directory, prefix=".minedetect-", suffix=".tmp")


def _refuse_shared_paths(inputs: dict[str, str | None], outputs: dict[str, str | None]) -> None:
    """MineDetectError when an output names an input or another output, before anything is read.

    Both map the flag that names a path to the path; an absent path (None)
    and '-' are skipped, and two inputs may name one file. Paths compare
    by os.path.realpath, so a symbolic link names its target.
    """
    first: dict[str, tuple[str, bool]] = {}  # real path -> its first flag, and whether an output
    for flag, path, is_output in [
        *((flag, path, False) for flag, path in inputs.items()),
        *((flag, path, True) for flag, path in outputs.items()),
    ]:
        if path is None or path == "-":
            continue
        other, other_is_output = first.setdefault(os.path.realpath(path), (flag, is_output))
        if other != flag and (is_output or other_is_output):
            raise MineDetectError(f"{other} and {flag} name one file: {path}")


def _read_text(path: str) -> str:
    # newline="" keeps each "\r" as written: a quoted cell may hold one;
    # utf-8-sig drops the byte-order mark some editors start a file with
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return fh.read()


# pipeline config field -> (the flag that overrides it, its type, its help)
_CONFIG_FLAGS = {
    "window_length": ("--window", float, "graph window length in seconds (default 60)"),
    "k_shared": ("--snn-k", int, "shared-neighbor threshold (default 2)"),
    "knn_k": ("--knn-k", int, "KNN neighbor count (default 5)"),
}


def _config_input(args) -> dict[str, str | None]:
    """The config file a pipeline command reads, keyed by the flag or variable that names it."""
    if args.config:
        return {"--config": args.config}
    return {f"${CONFIG_ENV_VAR}": os.environ.get(CONFIG_ENV_VAR)}


def _load_pipeline_config(args) -> PipelineConfig:
    [path] = _config_input(args).values()
    config = PipelineConfig.from_kv(read_kv_file(path)) if path else PipelineConfig()
    flags = {name: getattr(args, name, None) for name in _CONFIG_FLAGS}
    return dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})


def _load_flows(path: str, config: PipelineConfig):
    """The capture at path; a capture without a flow is an input error."""
    flows = flow_model.parse_flow_csv(_read_text(path), schema=config.schema())
    if not flows:
        raise MineDetectError("no flows in input")
    return flows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    if args.out == "-" and not args.truth:
        raise InvalidConfigError("--out - writes the flows to stdout; give --truth a path")
    truth_path = args.truth or _sibling(args.out, ".truth.csv")
    truth_flag = "--truth" if args.truth else "--out's truth table"
    _refuse_shared_paths({"--scenario": args.scenario}, {"--out": args.out, truth_flag: truth_path})
    config = synthgen.ScenarioConfig.from_kv(read_kv_file(args.scenario))
    flows, truth = synthgen.generate(config, seed=args.seed)
    write_atomic([
        (args.out, flow_model.flows_to_csv(flows)),
        (truth_path, synthgen.truth_to_csv(truth)),
    ])
    print(
        f"simulate: {len(flows)} flows, {len(truth.miners)} miners -> {args.out}, {truth_path}",
        file=sys.stderr,
    )
    return 0


def _cmd_features(args) -> int:
    inputs = {"--flows": args.flows, "--truth": args.truth, **_config_input(args)}
    _refuse_shared_paths(inputs, {"--out": args.out})
    config = _load_pipeline_config(args)
    flows = _load_flows(args.flows, config)
    vectors = flow_model.host_vectors(flows)
    if args.truth:
        # the labeled universe: only hosts with ground truth, relabeled
        labels = synthgen.parse_truth_csv(_read_text(args.truth)).labels
        vectors = [
            dataclasses.replace(v, label=labels[v.host]) for v in vectors if v.host in labels
        ]
    write_atomic([(args.out, flow_model.features_to_csv(vectors))])
    print(f"features: {len(vectors)} hosts -> {args.out}", file=sys.stderr)
    return 0


def _cmd_graph(args) -> int:
    _refuse_shared_paths({"--flows": args.flows, **_config_input(args)}, {"--out": args.out})
    config = _load_pipeline_config(args)
    flows = _load_flows(args.flows, config)
    snapshots = comm_graph.window_snapshots(flows, config.window_length)
    sections = [comm_graph.graph_to_text(g) for g, _, _ in snapshots]
    write_atomic([(args.out, "".join(sections))])
    print(f"graph: {len(sections)} windows -> {args.out}", file=sys.stderr)
    return 0


def _cmd_cluster(args) -> int:
    _refuse_shared_paths({"--flows": args.flows, **_config_input(args)}, {"--out": args.out})
    config = _load_pipeline_config(args)
    flows = _load_flows(args.flows, config)
    # pipeline steps 2, 3, 5 and 6; without a labeled set the centroids use the capture's scale
    host_norm, _ = pipeline.normalize_vectors(flow_model.host_vectors(flows), [])
    graph, host_states = pipeline.lifecycle_states(flows, config)
    clusters = snn_cluster.finalize_clusters(
        pipeline.cluster_hosts(graph, config.k_shared), host_states, host_norm
    )
    records = snn_cluster.clusters_to_obj(clusters)
    if args.format == "json":
        text = json.dumps(records, indent=2, sort_keys=True) + "\n"
    else:
        text = snn_cluster.clusters_to_csv(records)
    write_atomic([(args.out, text)])
    print(f"cluster: {len(clusters)} clusters -> {args.out}", file=sys.stderr)
    return 0


def _cmd_classify(args) -> int:
    inputs = {"--features": args.features, "--labeled": args.labeled}
    _refuse_shared_paths({**inputs, **_config_input(args)}, {"--out": args.out})
    config = _load_pipeline_config(args)
    # pipeline steps 2, 7 and 8: one scale for both files, train, then vote
    labeled = flow_model.parse_feature_csv(_read_text(args.labeled))
    queries, labeled = pipeline.normalize_vectors(
        flow_model.parse_feature_csv(_read_text(args.features)), labeled
    )
    predictions = KnnClassifier(k=config.knn_k).fit(labeled).predict_all(queries)
    write_atomic([(args.out, knn_classify.predictions_to_csv(predictions))])
    miners = sum(1 for p in predictions if p.label is Label.MINER)
    print(f"classify: {len(predictions)} hosts, {miners} miners -> {args.out}", file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    _refuse_shared_paths({"--pred": args.pred, "--truth": args.truth}, {"--out": args.out})
    predictions = knn_classify.parse_predictions_csv(_read_text(args.pred))
    truth = synthgen.parse_truth_csv(_read_text(args.truth))
    table = pipeline._detector_metrics(truth.labels, predictions)
    write_atomic([(args.out, metrics_mod.table_to_csv(table))])
    hosts, accuracy = table["evaluated_hosts"], table["accuracy"]
    print(f"evaluate: {hosts} hosts, accuracy {accuracy:.4f} -> {args.out}", file=sys.stderr)
    return 0


def _sibling(path: str, suffix: str) -> str:
    return os.path.splitext(path)[0] + suffix


def _cmd_run(args) -> int:
    clusters_path = metrics_path = None  # the tables written alongside a report file
    if args.out != "-":
        clusters_path = _sibling(args.out, ".clusters.csv")
        metrics_path = _sibling(args.out, ".metrics.csv") if args.ground_truth else None
    inputs = {"--flows": args.flows, "--labeled": args.labeled, "--ground-truth": args.ground_truth}
    _refuse_shared_paths({**inputs, **_config_input(args)}, {
        "--out": args.out,
        "--out's clusters table": clusters_path,
        "--out's metrics table": metrics_path,
    })
    config = _load_pipeline_config(args)
    flows = _load_flows(args.flows, config)
    labeled = flow_model.parse_feature_csv(_read_text(args.labeled))
    if not labeled:
        raise MineDetectError("no labeled hosts in input")
    ground_truth = None
    if args.ground_truth:
        ground_truth = synthgen.parse_truth_csv(_read_text(args.ground_truth)).labels

    report = pipeline.run(flows, labeled, config, ground_truth=ground_truth)
    outputs = [(args.out, report.to_json())]
    if clusters_path:
        outputs.append((clusters_path, pipeline.report_clusters_csv(report)))
    if metrics_path and report.metrics:
        outputs.append((metrics_path, pipeline.report_metrics_csv(report)))
    if args.out == "-":
        print(
            "run: tables not written; `minedetect report --section clusters|metrics "
            "--format csv` extracts them",
            file=sys.stderr,
        )
    write_atomic(outputs)
    print(
        f"run: {len(report.predictions)} hosts, {len(report.clusters)} clusters, "
        f"{len(report.suspicious)} suspicious -> {args.out}",
        file=sys.stderr,
    )
    return 0


# section -> its CSV writer and the shape of the report.json record it reads
_CSV_SECTIONS = {
    "metrics": (metrics_mod.table_to_csv, "a metric table"),
    "clusters": (snn_cluster.clusters_to_csv, "a list of cluster records"),
    "hosts": (pipeline.hosts_to_csv, "an object of host records"),
    "suspicious": (pipeline.suspicious_to_csv, "a list of host names"),
}


def _cmd_report(args) -> int:
    if args.detector and args.section != "metrics":
        raise MineDetectError(f"--detector needs --section metrics, not --section {args.section}")
    _refuse_shared_paths({"--in": args.infile}, {"--out": args.out})
    obj = json.loads(_read_text(args.infile))
    section = args.section
    payload = obj.get(section) if isinstance(obj, dict) else None
    # a report run without ground truth stores its metrics as null
    if payload is None or (section == "metrics" and not payload):
        raise MineDetectError(f"report has no {section} section")
    if section == "metrics" and (args.detector or args.format == "csv"):
        # JSON without --detector keeps both tables; CSV holds one
        detector = args.detector or "knn"
        if not isinstance(payload, dict) or payload.get(detector) is None:
            raise MineDetectError(f"report metrics section has no {detector} table")
        payload = payload[detector]
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        write_csv, shape = _CSV_SECTIONS[section]
        try:
            text = write_csv(payload)
        except (LookupError, TypeError) as exc:
            missing = f": no {exc.args[0]!r} field" if isinstance(exc, KeyError) else ""
            raise MineDetectError(f"report {section} section is not {shape}{missing}") from exc
    write_atomic([(args.out, text)])
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="minedetect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_config(p, *fields):
        """--config plus the override flags of the given pipeline config fields."""
        p.add_argument("--config", help=f"config file (fallback: ${CONFIG_ENV_VAR})")
        for name in fields:
            flag, kind, text = _CONFIG_FLAGS[name]
            p.add_argument(flag, dest=name, type=kind, help=text)

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
    add_config(p)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("graph", help="export per-window communication graphs")
    p.add_argument("--flows", required=True)
    p.add_argument("--out", required=True)
    add_config(p, "window_length")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("cluster", help="SNN-cluster the communication graph")
    p.add_argument("--flows", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    add_config(p, "window_length", "k_shared")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("classify", help="KNN-classify feature vectors")
    p.add_argument("--features", required=True, help="feature CSV to classify")
    p.add_argument("--labeled", required=True, help="labeled feature CSV to train on")
    p.add_argument("--out", required=True)
    add_config(p, "knn_k")
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
    add_config(p, *_CONFIG_FLAGS)
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
        # a library warning is one diagnostic line, not a source location
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(
                f"minedetect {args.subcommand}: warning: {message}", file=sys.stderr
            )
            return args.func(args)
    except (MineDetectError, OSError, ValueError) as exc:
        print(f"minedetect {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal error
        print(f"minedetect {args.subcommand}: internal error: {exc!r}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
