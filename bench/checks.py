"""Output checks applied to every capture-to-report pass the benchmark makes.

A pass fails when it raises or when any check here reports a problem; the
benchmark counts failed passes against attempted ones.
"""

from __future__ import annotations

import hashlib
import json

from minedetect.snn_cluster import STATE_RANK, State

LABELS = ("Miner", "NotMiner")


def report_digest(report: dict) -> str:
    """sha256 of the report with ``provenance.generated_at`` removed."""
    stripped = dict(report)
    stripped["provenance"] = {
        k: v for k, v in report["provenance"].items() if k != "generated_at"
    }
    text = json.dumps(stripped, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_suspicious(report: dict) -> list[str]:
    """L* recomputed from the report's predictions, states and floor."""
    floor = float(report["config"]["report.suspicion_floor"])
    return sorted(
        host
        for host, row in report["hosts"].items()
        if row["label"] == "Miner"
        or (STATE_RANK[State(row["state"])] >= 1 and row["score"] >= floor)
    )


def check_report(report: dict, hosts: frozenset[str]) -> list[str]:
    """Problems with one parsed report; empty when it passes."""
    problems = []
    predicted = set(report["hosts"])
    if predicted != hosts:
        problems.append(
            f"predictions cover {len(predicted)} hosts, capture has {len(hosts)}"
        )
    bad_rows = [
        h for h, row in report["hosts"].items()
        if row["label"] not in LABELS or not 0.0 <= row["score"] <= 1.0
    ]
    if bad_rows:
        problems.append(f"{len(bad_rows)} hosts with an invalid label or score")

    members = [m for c in report["clusters"] for m in c["members"]]
    if len(members) != len(set(members)) or set(members) != hosts:
        problems.append("clusters do not partition the host set")
    if any(c["size"] != len(c["members"]) for c in report["clusters"]):
        problems.append("a cluster size disagrees with its member list")

    if report["suspicious"] != expected_suspicious(report):
        problems.append("suspicious list differs from the one recomputed from predictions")

    tables = report.get("metrics") or {}
    if not all(d in tables for d in ("knn", "state_detector")):
        problems.append("report has no metrics for both detectors")
    return problems


def check_outputs(outputs, hosts: frozenset[str]) -> tuple[list[str], dict | None]:
    """Check one pass's outputs; returns (problems, parsed report or None)."""
    try:
        report = json.loads(outputs.report_json)
    except json.JSONDecodeError as exc:
        return [f"report is not valid JSON: {exc}"], None
    problems = check_report(report, hosts)
    n_clusters = len(report["clusters"])
    if outputs.clusters_csv.count("\n") != n_clusters + 1:
        problems.append("cluster table row count differs from the report")
    if outputs.metrics_csv is None or outputs.metrics_csv.count("\n") != 4:
        problems.append("metric table is missing or not 2 classes plus Avg.")
    return problems, report


def miner_f1(report: dict) -> float:
    return report["metrics"]["knn"]["per_class"]["Miner"]["f_measure"]


def state_recall(report: dict) -> float:
    return report["metrics"]["state_detector"]["per_class"]["Miner"]["recall"]
