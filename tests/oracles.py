"""Independent brute-force re-derivations used to check the library.

Everything here is deliberately naive and shares no code path with the
implementations it verifies.
"""

from __future__ import annotations

import csv
import io
import random
from fractions import Fraction

from minedetect.comm_graph import CommGraph, edge_key
from minedetect.errors import MalformedRowError, MissingColumnError
from minedetect.flow_model import (
    FEATURE_ORDER,
    FLAG_NAMES,
    FLOW_FIELDS,
    FeatureVector,
    FlowRecord,
    Protocol,
)


def random_comm_graph(rng: random.Random, n: int, p: float, timestamp: int = 0) -> CommGraph:
    """Erdos-Renyi style test graph over string vertex ids."""
    vertices = [f"v{i:03d}" for i in range(n)]
    weights = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                weights[edge_key(vertices[i], vertices[j])] = rng.randint(1, 5)
    return CommGraph(frozenset(vertices), weights, timestamp)


def adjacency_sets(g: CommGraph) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in g.vertices}
    for a, b in g.edge_weight:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def snn_edges_pairwise_scan(g: CommGraph, k_shared: int) -> set[tuple[str, str]]:
    """Literal pairwise scan: for every pair (i, j), count the vertices m
    adjacent to both, and connect when the count reaches k_shared."""
    adj = adjacency_sets(g)
    order = sorted(g.vertices)
    edges = set()
    for i_pos, i in enumerate(order):
        for j in order[i_pos + 1 :]:
            counter = len(adj[i] & adj[j])  # |{m : i~m and j~m}|
            if counter >= k_shared:
                edges.add(edge_key(i, j))
    return edges


def snn_edges_dense_product(g: CommGraph, k_shared: int) -> set[tuple[str, str]]:
    """Common-neighbor counts of all pairs from one dense adjacency product.

    O(|V|^3) time and O(|V|^2) memory however sparse the graph is, so it
    only referees graphs of a few hundred vertices.
    """
    import numpy as np

    order = sorted(g.vertices)
    index = {v: i for i, v in enumerate(order)}
    adj = np.zeros((len(order), len(order)), dtype=np.int64)
    for a, b in g.edge_weight:
        adj[index[a], index[b]] = 1
        adj[index[b], index[a]] = 1
    ii, jj = np.nonzero(np.triu(adj @ adj >= k_shared, k=1))
    return {edge_key(order[i], order[j]) for i, j in zip(ii.tolist(), jj.tolist())}


def triangles_brute(adj: dict[str, set[str]], v: str) -> int:
    """Edges among v's neighbors by checking every neighbor pair.

    ``adj`` is the graph's ``adjacency_sets``.
    """
    nbrs = sorted(adj[v])
    count = 0
    for i in range(len(nbrs)):
        for j in range(i + 1, len(nbrs)):
            if nbrs[j] in adj[nbrs[i]]:
                count += 1
    return count


def clustering_fraction(k: int, triangles: int) -> Fraction:
    """Exact rational local clustering coefficient."""
    if k < 2:
        return Fraction(0)
    return Fraction(2 * triangles, k * (k - 1))


def knn_vote_oracle(
    distances: list[float],
    miner_flags: list[bool],
    k: int,
) -> tuple[bool, float]:
    """Neighbor selection + vote from a precomputed distance list.

    Selection: stable sort by distance (training-set order breaks ties),
    take the first k. Vote: majority; an exact 50/50 tie falls back to the
    nearest neighbor's label. Returns (is_miner, miner_fraction).
    """
    order = sorted(range(len(distances)), key=distances.__getitem__)
    chosen = order[:k]
    miner_votes = sum(1 for i in chosen if miner_flags[i])
    score = miner_votes / k
    if score > 0.5:
        return True, score
    if score < 0.5:
        return False, score
    return miner_flags[chosen[0]], score


def squared_distances_rowwise(queries, matrix):
    """Per-query squared distances accumulated feature by feature.

    Accumulation order matches the canonical per-feature order so float
    rounding is identical to any implementation doing the same scan.
    """
    import numpy as np

    matrix = np.asarray(matrix, dtype=np.float64)
    out = []
    for q in queries:
        d = (matrix[:, 0] - q[0]) ** 2
        for j in range(1, matrix.shape[1]):
            d += (matrix[:, j] - q[j]) ** 2
        out.append(d)
    return out


def roc_auc_pair_counting(scores, labels, positive=True) -> float:
    """O(n^2) pair counting: positive-over-negative wins plus half-ties."""
    pos = [s for s, label in zip(scores, labels) if label == positive]
    neg = [s for s, label in zip(scores, labels) if label != positive]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def roc_auc_threshold_sweep(scores, labels, positive=True) -> float:
    """ROC area by trapezoid over the (fpr, tpr) staircase.

    Sweeping distinct thresholds descending and integrating with
    trapezoids gives tied scores exactly half credit, so this matches the
    pair-count formulation without sharing any code with it.
    """
    n_pos = sum(1 for label in labels if label == positive)
    n_neg = len(labels) - n_pos
    area = 0.0
    tp = fp = 0
    tpr_prev = fpr_prev = 0.0
    for threshold in sorted(set(scores), reverse=True):
        for s, label in zip(scores, labels):
            if s == threshold:
                if label == positive:
                    tp += 1
                else:
                    fp += 1
        tpr, fpr = tp / n_pos, fp / n_neg
        area += (fpr - fpr_prev) * (tpr + tpr_prev) / 2.0
        tpr_prev, fpr_prev = tpr, fpr
    return area


def prc_auc_all_thresholds(scores, labels, positive=True) -> float:
    """Enumerate every distinct score as a threshold, accumulate step area."""
    n_pos = sum(1 for label in labels if label == positive)
    area = 0.0
    recall_prev = 0.0
    for threshold in sorted(set(scores), reverse=True):
        tp = sum(1 for s, label in zip(scores, labels) if s >= threshold and label == positive)
        fp = sum(1 for s, label in zip(scores, labels) if s >= threshold and label != positive)
        precision = tp / (tp + fp)
        recall = tp / n_pos
        area += (recall - recall_prev) * precision
        recall_prev = recall
    return area


def fingerprint_match_brute(flow, ports, min_duration, required_flags, pool_hosts) -> bool:
    """Re-evaluate the mining-fingerprint conjunction from scratch."""
    if flow.protocol.value != "TCP":
        return False
    if (flow.end_time - flow.start_time) < min_duration:
        return False
    for flag in required_flags:
        if flag not in flow.flags:
            return False
    return flow.dst_port in ports or flow.dst_host in pool_hosts


def window_deltas_naive(flows, bounds, internal_prefixes, delta_t, dc_cap, fingerprint):
    """Per-pair host deltas recomputed from the raw flows, one pair at a time.

    ``bounds`` lists the windows' (lo, hi) in order. For the pair (j - 1, j)
    every quantity is rebuilt from scratch: both windows' adjacency from the
    flows starting inside them, degree splits by prefix test, clustering
    coefficients by checking every neighbour pair of both graphs, m_v by
    scanning the whole capture for the host's fingerprint flows starting in
    [hi - delta_t, hi), and dc_history as the host's dc factors of all
    earlier pairs. Returns, per pair, host -> (dk_ext, dk_int, dc_factor,
    dc_history, m_v, window).
    """

    def internal(host):
        return not internal_prefixes or any(host.startswith(p) for p in internal_prefixes)

    def adjacency(lo, hi):
        adj = {}
        for f in flows:
            if lo <= f.start_time < hi:
                adj.setdefault(f.src_host, set())
                adj.setdefault(f.dst_host, set())
                if f.src_host != f.dst_host:
                    adj[f.src_host].add(f.dst_host)
                    adj[f.dst_host].add(f.src_host)
        return adj

    def split(adj, host):
        nbrs = adj.get(host, set())
        ext = len([u for u in nbrs if not internal(u)])
        return ext, len(nbrs) - ext

    def coefficient(adj, host):
        nbrs = sorted(adj.get(host, set()))
        k = len(nbrs)
        closed = 0
        for i in range(k):
            for j in range(i + 1, k):
                if nbrs[j] in adj[nbrs[i]]:
                    closed += 1
        return float(clustering_fraction(k, closed))

    history = {}
    pairs = []
    for j in range(1, len(bounds)):
        adj_prev, adj_next = adjacency(*bounds[j - 1]), adjacency(*bounds[j])
        hi = bounds[j][1]
        out = {}
        for host in adj_next:
            ext_prev, int_prev = split(adj_prev, host)
            ext_next, int_next = split(adj_next, host)
            c_prev, c_next = coefficient(adj_prev, host), coefficient(adj_next, host)
            if c_prev == 0.0:
                factor = 1.0 if c_next == 0.0 else dc_cap
            else:
                factor = c_next / c_prev
            m_v = len([
                f for f in flows
                if host in (f.src_host, f.dst_host)
                and hi - delta_t <= f.start_time < hi
                and fingerprint_match_brute(
                    f, fingerprint.ports, fingerprint.min_duration,
                    fingerprint.required_flags, fingerprint.pool_hosts,
                )
            ])
            out[host] = (
                ext_next - ext_prev, int_next - int_prev, factor,
                tuple(history.get(host, ())), m_v, j - 1,
            )
        for host, row in out.items():
            history.setdefault(host, []).append(row[2])
        pairs.append(out)
    return pairs


def aggregate_host_features_naive(flows, host, window):
    """A host's raw vector over [t0, t1): one pass over its flows per statistic.

    None when the host has no flow starting in the window.
    """
    t0, t1 = window
    mine = [f for f in flows if t0 <= f.start_time < t1 and host in (f.src_host, f.dst_host)]
    if not mine:
        return None
    n = len(mine)
    packets = sum(f.packets for f in mine)

    def share(*flags):
        return sum(1 for f in mine if set(flags) <= f.flags) / n

    return FeatureVector(
        host=host,
        bpp=sum(f.bytes for f in mine) / packets,
        ppm=packets / ((t1 - t0) / 60.0),
        ppf=packets / n,
        ackpush_all=share("ACK", "PUSH"),
        req_all=sum(1 for f in mine if f.is_request and f.src_host == host) / n,
        syn_all=share("SYN"),
        rst_all=share("RST"),
        fin_all=share("FIN"),
    )


def parse_flow_csv_naive(text, schema=None):
    """The flow CSV parser as it was before memo tables and lazy lines.

    Copies the whole text into an ``io.StringIO``, looks every column up by
    name on every row and parses every cell afresh, with its own flags and
    boolean parsers. Errors name the physical line, ``reader.line_num``.
    """

    def parse_flags(cell):
        cell = cell.strip()
        if not cell:
            return frozenset()
        return frozenset(part.strip().upper() for part in cell.split("|"))

    def parse_bool(cell):
        key = cell.strip().lower()
        if key in ("1", "true", "yes"):
            return True
        if key in ("0", "false", "no"):
            return False
        raise ValueError(f"not a boolean: {cell!r}")

    columns = dict(schema) if schema else {f: f for f in FLOW_FIELDS}
    for field in FLOW_FIELDS:
        columns.setdefault(field, field)

    if isinstance(text, str):
        text = io.StringIO(text)
    reader = csv.reader(text)
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumnError("empty input: no header row")
    header = [h.strip() for h in header]
    position = {name: i for i, name in enumerate(header)}

    missing = [columns[f] for f in FLOW_FIELDS if columns[f] not in position]
    if missing:
        raise MissingColumnError(f"columns absent from header: {missing}")
    idx = {f: position[columns[f]] for f in FLOW_FIELDS}

    flows = []
    for row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        line_no = reader.line_num
        if len(row) < len(header):
            raise MalformedRowError(line_no, f"expected {len(header)} fields, got {len(row)}")
        try:
            flows.append(
                FlowRecord(
                    src_host=row[idx["src_host"]].strip(),
                    dst_host=row[idx["dst_host"]].strip(),
                    src_port=int(row[idx["src_port"]]),
                    dst_port=int(row[idx["dst_port"]]),
                    protocol=Protocol(row[idx["protocol"]].strip().upper()),
                    start_time=float(row[idx["start_time"]]),
                    end_time=float(row[idx["end_time"]]),
                    packets=int(row[idx["packets"]]),
                    bytes=int(row[idx["bytes"]]),
                    flags=parse_flags(row[idx["flags"]]),
                    is_request=parse_bool(row[idx["is_request"]]),
                )
            )
        except (ValueError, KeyError) as exc:
            raise MalformedRowError(line_no, str(exc)) from exc
    return flows


def flows_to_csv_writer(flows):
    """The canonical flow CSV as ``csv.writer`` writes it, one row per flow."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FLOW_FIELDS)
    for f in flows:
        writer.writerow(
            [
                f.src_host,
                f.dst_host,
                f.src_port,
                f.dst_port,
                f.protocol.value,
                f.start_time,
                f.end_time,
                f.packets,
                f.bytes,
                "|".join(name for name in FLAG_NAMES if name in f.flags),
                int(f.is_request),
            ]
        )
    return out.getvalue()


def features_to_csv_writer(vectors):
    """The feature CSV as ``csv.writer`` writes it, one row per vector."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["host", *FEATURE_ORDER, "class"])
    for v in vectors:
        writer.writerow([v.host, *v.values(), v.label.value])
    return out.getvalue()
