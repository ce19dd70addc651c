"""Independent brute-force re-derivations used to check the library.

Everything here is deliberately naive and shares no code path with the
implementations it verifies.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import random
from fractions import Fraction

from minedetect.comm_graph import CommGraph, edge_key
from minedetect.errors import AlreadyNormalizedError, MalformedRowError, MissingColumnError
from minedetect.flow_model import (
    FEATURE_ORDER,
    FLAG_NAMES,
    FLOW_FIELDS,
    FeatureVector,
    FlowRecord,
    Label,
    Protocol,
    parse_label,
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


def gapped_capture(seed: int, length: float = 60.0, delta_t: float = 60.0) -> list[FlowRecord]:
    """A small capture whose busy windows are cut apart by runs of empty ones.

    Three to six busy windows, the first at index 4-7, each followed by a
    run of 0-4 empty windows (one run before the last busy window has at
    least one), then one flow starting 20-60 windows after the last busy one. Each busy window
    [lo, hi) holds a flow starting exactly at lo, a fingerprint flow
    starting exactly at hi - delta_t (which may lie in an earlier, possibly
    otherwise empty window) and 3-8 random links among h0-h5, x1 and pool0,
    a third of them fingerprint flows (TCP to port 3333 with ACK and PUSH,
    45 s long). Flows come back in shuffled order.
    """
    rng = random.Random(seed)
    hosts = ["h0", "h1", "h2", "h3", "h4", "h5", "x1", "pool0"]

    def flow(start, mining=None):
        src, dst = rng.sample(hosts, 2)
        if mining is None:
            mining = rng.random() < 1 / 3
        return FlowRecord(
            src, dst, 40000, 3333 if mining else 443, Protocol.TCP, start, start + 45.0,
            10, 1000, frozenset({"ACK", "PUSH"} if mining else {"SYN", "ACK"}), True,
        )

    gaps = [rng.randint(0, 4) for _ in range(rng.randint(3, 6))]
    gaps[rng.randrange(len(gaps) - 1)] = rng.randint(1, 4)
    flows, w = [], rng.randint(4, 7)
    for gap in gaps:
        lo, hi = w * length, (w + 1) * length
        flows += [flow(lo), flow(hi - delta_t, mining=True)]
        flows += [flow(rng.uniform(lo, hi)) for _ in range(rng.randint(3, 8))]
        w += 1 + gap
    flows.append(flow((w + rng.randint(20, 60) + rng.random()) * length))
    rng.shuffle(flows)
    return flows


def adjacency_sets(g: CommGraph) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for v in g.vertices}
    for a, b in g.edge_weight:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def check_edges_naive(vertices, edge_weight) -> None:
    """Each edge in dict order, each rule in turn; raise ValueError at the first broken one."""
    for (a, b), w in edge_weight.items():
        if a == b:
            raise ValueError(f"self-loop on {a!r}")
        if (a, b) != edge_key(a, b):
            raise ValueError(f"edge ({a!r}, {b!r}) not in canonical order")
        if a not in vertices or b not in vertices:
            raise ValueError(f"edge ({a!r}, {b!r}) endpoint outside vertex set")
        if w < 1:
            raise ValueError(f"edge ({a!r}, {b!r}) weight {w} < 1")


def edge_index_naive(vertices, edge_weight) -> tuple[list[str], list[int], list[int]]:
    """The vertices in sorted order and each edge's two endpoint positions in it."""
    order = sorted(vertices)
    position = {v: i for i, v in enumerate(order)}
    return order, [position[a] for a, _ in edge_weight], [position[b] for _, b in edge_weight]


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


def components_naive(vertices, edges) -> list[frozenset[str]]:
    """Connected components by a stack walk over adjacency sets.

    Ordered by descending size, then by smallest member, as
    snn_cluster.extract_clusters orders its clusters.
    """
    adj: dict[str, set[str]] = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)

    seen: set[str] = set()
    components: list[frozenset[str]] = []
    for start in sorted(vertices):
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adj[v] - comp)
        seen |= comp
        components.append(frozenset(comp))
    components.sort(key=lambda c: (-len(c), min(c)))
    return components


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


def dc_change_factor(c_prev: float, c_next: float, cap: float = 1000.0) -> float:
    """Multiplicative clustering-coefficient change c(t+1) / c(t), one pair at a time.

    Defined as 1 when both coefficients are zero; a rise from exactly zero
    yields the cap sentinel so downstream comparisons stay total.
    """
    if c_prev == 0.0:
        return 1.0 if c_next == 0.0 else cap
    return c_next / c_prev


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


def window_index_naive(t, length):
    """The i with i * length <= t < (i + 1) * length: a float floor, then one step at a time.

    A start time 2**53 or more windows from 0 is a ValueError.
    """
    q = t / length
    if not abs(q) < 2**53:
        raise ValueError(f"start time {t!r} is 2**53 or more windows of {length!r} s from 0")
    i = math.floor(q)
    while i * length > t:
        i -= 1
    while (i + 1) * length <= t:
        i += 1
    return i


def lifecycle_states_naive(flows, length, params):
    """Step 3 from the records alone: the full-span graph's edges and each host's highest state.

    Every aligned window from the first flow's to the last one's, empty ones
    included, is rebuilt by window_deltas_naive, and each pair's rows go
    through the S0-S3 rules as written. Returns (vertices, edge weights keyed
    by sorted id pairs, host -> state name).
    """
    if not flows:
        return set(), {}, {}
    index = [window_index_naive(f.start_time, length) for f in flows]
    bounds = [(i * length, (i + 1) * length) for i in range(min(index), max(index) + 1)]
    fingerprint = params.fingerprint
    pairs = window_deltas_naive(
        flows, bounds, params.internal_prefixes, params.delta_t, params.dc_cap, fingerprint
    )
    rank = {}
    for pair in pairs:
        for host, (dk_ext, dk_int, factor, history, m_v, window) in pair.items():
            if dk_ext > 1 and params.t_star in (None, window):
                state = 1
            elif dk_int > dk_ext and factor > 1.0 and factor > max(history, default=0.0):
                state = 2
            elif dk_int > 1 and m_v > params.x_threshold:
                state = 3
            else:
                state = 0
            rank[host] = max(rank.get(host, 0), state)
    vertices = {h for f in flows for h in (f.src_host, f.dst_host)}
    weights = {}
    for f in flows:
        if f.src_host != f.dst_host:
            key = tuple(sorted((f.src_host, f.dst_host)))
            weights[key] = weights.get(key, 0) + 1
    return vertices, weights, {h: f"S{rank.get(h, 0)}" for h in vertices}


def flows_by_host(flows):
    """Host -> the flows it takes part in, built in one pass over the flows.

    Each list keeps input order; a loopback flow is filed once under its
    host. The keys are exactly ``hosts_in(flows)``.
    """
    index = {}
    for f in flows:
        index.setdefault(f.src_host, []).append(f)
        if f.dst_host != f.src_host:
            index.setdefault(f.dst_host, []).append(f)
    return index


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


def normalize_naive(v, params):
    """flow_model.normalize as it was: each raw feature looked up by name, the copy by replace."""
    if v.normalized:
        raise AlreadyNormalizedError(f"vector for {v.host!r} is already normalized")
    scaled = {}
    for name in ("bpp", "ppm", "ppf"):
        lo, hi = getattr(params, name)
        x = getattr(v, name)
        if hi == lo:
            scaled[name] = 0.0
        else:
            scaled[name] = min(1.0, max(0.0, (x - lo) / (hi - lo)))
    return dataclasses.replace(v, normalized=True, **scaled)


def parse_feature_csv_naive(text, normalized=False):
    """The feature CSV parser as it was before vectors were built by position.

    Copies the whole text into an ``io.StringIO`` and builds each vector
    by keyword, with its own header, row-width and duplicate-host checks.
    Rows without a host cell are named ``row<N>`` by record number; errors
    name the physical line, ``reader.line_num``.
    """
    if isinstance(text, str):
        text = io.StringIO(text)
    reader = csv.reader(text)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise MissingColumnError("empty input: no header row")
    with_host = header[:1] == ["host"]
    expected = (["host"] if with_host else []) + [*FEATURE_ORDER, "class"]
    if header[: len(expected)] != expected:
        raise MissingColumnError(
            f"feature CSV header must start with {','.join(expected)}, got {header}"
        )

    first_line = {}
    vectors = []
    for record_no, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        line_no = reader.line_num
        if len(row) < len(expected):
            raise MalformedRowError(line_no, f"expected {len(expected)} fields, got {len(row)}")
        if with_host:
            host, rest = row[0].strip(), row[1:]
            if host in first_line:
                raise MalformedRowError(
                    line_no, f"duplicate host {host!r} (first on line {first_line[host]})"
                )
            first_line[host] = line_no
        else:
            host, rest = f"row{record_no}", row
        try:
            feats = [float(x) for x in rest[: len(FEATURE_ORDER)]]
            label = parse_label(rest[len(FEATURE_ORDER)])
            vectors.append(
                FeatureVector(
                    host=host,
                    **dict(zip(FEATURE_ORDER, feats)),
                    label=label,
                    normalized=normalized,
                )
            )
        except ValueError as exc:
            raise MalformedRowError(line_no, str(exc)) from exc
    return vectors


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


class _RowsEndingInNewline(io.StringIO):
    """Text of ``csv.writer`` rows, each written with the writer's "\\r\\n" end cut to "\\n".

    The "\\r\\n" row end makes the writer quote a cell holding "\\r", as
    flow_model.csv_text does; a "\\n" row end would leave it bare.
    """

    def write(self, row):
        return super().write(row[:-2] + "\n")


def flows_to_csv_writer(flows):
    """The canonical flow CSV as ``csv.writer`` writes it, one row per flow."""
    out = _RowsEndingInNewline()
    writer = csv.writer(out)
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
    out = _RowsEndingInNewline()
    writer = csv.writer(out)
    writer.writerow(["host", *FEATURE_ORDER, "class"])
    for v in vectors:
        writer.writerow([v.host, *v.values(), v.label.value])
    return out.getvalue()


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class splitmix64_naive:
    """SplitMix64 one step at a time, in Python integers: the reference
    ``minedetect.rng.SplitMix64`` must match draw for draw."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randbelow() needs n >= 1")
        return self.next_u64() % n

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b], both ends inclusive."""
        if b < a:
            raise ValueError("randint() needs a <= b")
        return a + self.randbelow(b - a + 1)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) / float(1 << 53)
        return lo + (hi - lo) * u

    def choice(self, seq):
        if not seq:
            raise ValueError("choice() from an empty sequence")
        return seq[self.randbelow(len(seq))]


_BENIGN_FLAG_COMBOS = (
    frozenset({"SYN", "ACK"}),
    frozenset({"SYN", "ACK", "FIN"}),
    frozenset({"ACK"}),
    frozenset({"ACK", "PUSH"}),
    frozenset({"ACK", "FIN"}),
    frozenset({"ACK", "RST"}),
)
# the two short lifecycle flow kinds drawn by _Emitter.short:
# (start offset span, packets, duration, bytes per packet, flags)
_REGISTRATION = (10.0, (2, 6), (0.2, 2.0), (40, 120), frozenset({"SYN"}))
_COORDINATION = (20.0, (10, 40), (3.0, 8.0), (80, 300), frozenset({"ACK"}))


class _Emitter:
    """synthgen's flows drawn one draw and one checked FlowRecord at a time."""

    def __init__(self, rng):
        self.rng = rng
        self.flows: list[FlowRecord] = []

    def _flow(self, src, dst, src_port, dst_port, start, end, packets, bytes_, flags, protocol=Protocol.TCP):
        self.flows.append(FlowRecord(
            src, dst, src_port, dst_port, protocol, start, end, packets, bytes_, flags, True,
        ))

    def benign(self, a, b, window_start, window_len):
        """Draw order: direction, start offset, duration, packets, bytes per
        packet, protocol, flags (TCP only), destination port, source port."""
        rng = self.rng
        src, dst = (a, b) if rng.randbelow(2) == 0 else (b, a)
        start = window_start + rng.uniform(0.0, window_len * 0.8)
        duration = rng.uniform(0.5, 15.0)
        packets = rng.randint(5, 60)
        bytes_ = packets * rng.randint(200, 1200)
        if rng.randbelow(10) == 0:
            proto, flags = Protocol.UDP, frozenset()
            dst_port = rng.choice((53, 123))
        else:
            proto = Protocol.TCP
            flags = rng.choice(_BENIGN_FLAG_COMBOS)
            dst_port = rng.choice((80, 443, 22, 8080, 8443, 993))
        src_port = rng.randint(1024, 65535)
        self._flow(src, dst, src_port, dst_port, start, start + duration, packets, bytes_, flags, proto)

    def short(self, src, dst, port, window_start, kind):
        """A registration or coordination flow (``kind``). Draw order: start
        offset, packets, source port, duration, bytes per packet."""
        start_span, packets, duration, per_packet, flags = kind
        rng = self.rng
        start = window_start + rng.uniform(0.0, start_span)
        n_packets = rng.randint(*packets)
        src_port = rng.randint(1024, 65535)
        end = start + rng.uniform(*duration)
        bytes_ = n_packets * rng.randint(*per_packet)
        self._flow(src, dst, src_port, port, start, end, n_packets, bytes_, flags)

    def mining(self, victim, pool, port, window_start, duration):
        """Draw order: start offset, duration, packets, source port, bytes per packet."""
        rng = self.rng
        start = window_start + rng.uniform(0.0, 5.0)
        length = rng.uniform(duration * 0.9, duration * 1.2)
        packets = rng.randint(150, 400)
        src_port = rng.randint(1024, 65535)
        bytes_ = packets * rng.randint(60, 140)
        flags = frozenset({"ACK", "PUSH"})
        self._flow(victim, pool, src_port, port, start, start + length, packets, bytes_, flags)


def generate_naive(config, seed=None):
    """synthgen.generate one draw at a time from the step-by-step SplitMix64:
    the flows as a list of FlowRecord, and the ground truth.

    The topology is synthgen.small_world_edges itself, which draws one
    value at a time on both sides.
    """
    from minedetect.snn_cluster import State
    from minedetect.synthgen import GroundTruth, _state_at, small_world_edges

    rng = splitmix64_naive(config.seed if seed is None else seed)
    hosts = [config.host_id(i) for i in range(config.n_hosts)]
    topology = small_world_edges(config.n_hosts, config.ring_degree, config.rewire_prob, rng)
    taken: dict[int, None] = {}
    while len(taken) < config.n_victims:
        taken[rng.randbelow(config.n_hosts)] = None
    victims = [hosts[i] for i in taken]
    windows = [w for w, count in enumerate(config.recruitment_schedule) for _ in range(count)]
    recruit_at = dict(zip(victims, windows))

    primary, backup = config.pool_hosts[0], config.pool_hosts[1]
    emit = _Emitter(rng)
    length = config.window_length
    for w in range(config.n_windows):
        window_start = w * length
        for a, b in topology:
            for _ in range(config.benign_rate):
                emit.benign(hosts[a], hosts[b], window_start, length)
        states = [_state_at(recruit_at[v], w) for v in victims]
        meshed = [v for v, state in zip(victims, states) if state in (State.S2, State.S3)]
        for victim, state in zip(victims, states):
            if state is State.S1:
                for pool in (primary, backup):
                    for _ in range(4):
                        emit.short(victim, pool, config.mining_port, window_start, _REGISTRATION)
            elif state is State.S2:
                emit.short(victim, primary, 7777, window_start, _COORDINATION)
            elif state is State.S3:
                for _ in range(config.mining_flows_per_window):
                    emit.mining(
                        victim, primary, config.mining_port, window_start, config.mining_flow_duration
                    )
        for i, a in enumerate(meshed):
            for b in meshed[i + 1 :]:
                src, dst = (a, b) if a <= b else (b, a)
                emit.short(src, dst, 7777, window_start, _COORDINATION)

    labels = {h: Label.NOT_MINER for h in hosts}
    for v in victims:
        labels[v] = Label.MINER
    return emit.flows, GroundTruth(labels=labels, recruitment_window=recruit_at, n_windows=config.n_windows)
