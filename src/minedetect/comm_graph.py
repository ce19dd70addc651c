"""Host communication graphs and their window-to-window dynamics.

One undirected graph per time window: hosts are vertices, an edge joins two
hosts that exchanged at least one flow inside the window (weight = flow
count). Each host is characterized by its degree k and local clustering
coefficient c = 2T / (k(k-1)); the window-to-window changes of k (split
into internal and external neighbors), the multiplicative change of c, and
the count of mining-fingerprint flows feed the S0-S3 lifecycle state
machine in snn_cluster.
"""

from __future__ import annotations

import io
import itertools
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import UnknownVertexError
from .flow_model import FLAG_NAMES, FlowRecord, Protocol, flows_by_host

Edge = tuple[str, str]


def edge_key(a: str, b: str) -> Edge:
    """Canonical unordered edge representation (sorted pair)."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class CommGraph:
    """Immutable undirected host graph at one time window."""

    vertices: frozenset[str]
    edge_weight: dict[Edge, int]
    timestamp: int = 0

    def __post_init__(self):
        for (a, b), w in self.edge_weight.items():
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            if (a, b) != edge_key(a, b):
                raise ValueError(f"edge ({a!r}, {b!r}) not in canonical order")
            if a not in self.vertices or b not in self.vertices:
                raise ValueError(f"edge ({a!r}, {b!r}) endpoint outside vertex set")
            if w < 1:
                raise ValueError(f"edge ({a!r}, {b!r}) weight {w} < 1")

    @classmethod
    def _built(
        cls, vertices: frozenset[str], edge_weight: dict[Edge, int], timestamp: int = 0
    ) -> "CommGraph":
        """A graph the library built itself, stored without __post_init__'s edge checks.

        For build_graph and merge_graphs only: their edges are canonical,
        between distinct vertices of the set and of weight >= 1 by
        construction.
        """
        g = object.__new__(cls)
        # the frozen class refuses attribute stores; its fields live in __dict__
        g.__dict__.update(vertices=vertices, edge_weight=edge_weight, timestamp=timestamp)
        return g


@dataclass(frozen=True)
class HostGraphFeatures:
    host: str
    k: int
    c: float


@dataclass(frozen=True)
class HostDeltas:
    """One host's changes between window ``window`` and window ``window + 1``.

    ``dk_ext``/``dk_int`` are the changes of its external/internal degree,
    ``dc_factor`` the multiplicative change of its clustering coefficient,
    ``m_v`` its mining-fingerprint flow count over the trailing interval
    that ends with the later window, and ``dc_peak`` the largest dc_factor
    of its earlier window pairs (0.0 when there is none; factors are never
    negative).
    """

    host: str
    dk_ext: int
    dk_int: int
    dc_factor: float
    dc_peak: float
    m_v: int
    window: int


@dataclass(frozen=True)
class MiningFingerprint:
    """Heuristic profile of pool-coordination flows.

    A flow matches when it is TCP, at least ``min_duration`` seconds long,
    carries all ``required_flags``, and either targets one of ``ports`` or
    one of the known ``pool_hosts``.

    Values that would silently switch S3 off are rejected: a flag no flow
    can carry, a non-finite ``min_duration``, a port outside 0-65535 and
    neither a port nor a pool host to match.
    """

    ports: frozenset[int] = frozenset({3333, 4444, 5555, 8333, 80, 443, 25})
    min_duration: float = 30.0
    required_flags: frozenset[str] = frozenset({"ACK", "PUSH"})
    pool_hosts: frozenset[str] = frozenset()

    def __post_init__(self):
        unknown = sorted(self.required_flags - set(FLAG_NAMES))
        if unknown:
            raise ValueError(f"required flag {unknown[0]!r} is not one of {', '.join(FLAG_NAMES)}")
        if not math.isfinite(self.min_duration):
            raise ValueError("min_duration must be finite")
        outside = sorted(p for p in self.ports if not 0 <= p <= 65535)
        if outside:
            raise ValueError(f"port {outside[0]} outside 0-65535")
        if not self.ports and not self.pool_hosts:
            raise ValueError("fingerprint needs a port or a pool host")

    def matches(self, flow: FlowRecord) -> bool:
        return (
            flow.protocol is Protocol.TCP
            and flow.duration >= self.min_duration
            and self.required_flags <= flow.flags
            and (flow.dst_port in self.ports or flow.dst_host in self.pool_hosts)
        )


@dataclass(frozen=True)
class StateParams:
    """Free parameters of the S0-S3 state machine.

    A host is internal when its id starts with one of ``internal_prefixes``;
    no prefixes make every host internal. S3 needs more than
    ``x_threshold`` fingerprint flows in the trailing ``delta_t`` seconds.
    ``t_star`` restricts the recruitment (S1) test to one window index;
    None means any window. ``dc_cap`` is the clustering-change factor of a
    rise from exactly zero.

    Values that would silently switch a rule off are rejected: a NaN or
    non-positive ``delta_t`` (no flow is counted), a ``dc_cap`` not above 1
    (a rise from zero is no rise, so S2 cannot fire on it) and a negative
    ``t_star`` (no window matches, so S1 never fires).
    """

    internal_prefixes: tuple[str, ...] = ()
    x_threshold: int = 5
    delta_t: float = 60.0
    t_star: int | None = None
    dc_cap: float = 1000.0
    fingerprint: MiningFingerprint = field(default_factory=MiningFingerprint)

    def __post_init__(self):
        if self.x_threshold < 1:
            raise ValueError("x_threshold must be >= 1")
        if not self.delta_t > 0:
            raise ValueError("delta_t must be > 0")
        if not self.dc_cap > 1:
            raise ValueError("dc_cap must be > 1")
        if self.t_star is not None and self.t_star < 0:
            raise ValueError("t_star must be >= 0")

    def is_internal(self, host: str) -> bool:
        return not self.internal_prefixes or host.startswith(self.internal_prefixes)


# ---------------------------------------------------------------------------
# construction and per-vertex features
# ---------------------------------------------------------------------------

def build_graph(
    flows: Iterable[FlowRecord],
    window: tuple[float, float],
    timestamp: int = 0,
) -> CommGraph:
    """Communication graph over flows whose start_time lies in [t0, t1).

    Every host appearing in a windowed flow becomes a vertex; two distinct
    hosts are joined iff at least one flow ran between them, weighted by
    flow count. Loopback flows contribute the vertex but no edge.
    """
    t0, t1 = window
    if not t1 > t0:
        raise ValueError("window length must be > 0")
    vertices: set[str] = set()
    weights: dict[Edge, int] = {}
    for f in flows:
        if not (t0 <= f.start_time < t1):
            continue
        vertices.add(f.src_host)
        vertices.add(f.dst_host)
        if f.src_host != f.dst_host:
            key = edge_key(f.src_host, f.dst_host)
            weights[key] = weights.get(key, 0) + 1
    return CommGraph._built(frozenset(vertices), weights, timestamp)


def merge_graphs(graphs: Iterable[CommGraph]) -> CommGraph:
    """The union of the graphs' vertices, each edge weighted by its summed weight.

    Merging the window graphs of window_snapshots gives the graph that
    build_graph makes over the span of every flow, without reading a flow.
    """
    vertices: set[str] = set()
    weights: dict[Edge, int] = {}
    for g in graphs:
        vertices.update(g.vertices)
        for key, w in g.edge_weight.items():
            weights[key] = weights.get(key, 0) + w
    return CommGraph._built(frozenset(vertices), weights)


def clustering_coefficient(g: CommGraph, v: str) -> float:
    """Local clustering coefficient c(v) = 2T(v) / (k(v) * (k(v) - 1)), 0.0 below degree 2.

    v's entry of graph_features, so each call costs a pass over the whole graph.
    """
    if v not in g.vertices:
        raise UnknownVertexError(f"vertex {v!r} not in graph")
    return graph_features(g)[v].c


def _coefficient(k: int, t: int) -> float:
    """c = 2t / (k(k - 1)) from exact integers; 0.0 below degree 2."""
    return 2.0 * t / (k * (k - 1)) if k >= 2 else 0.0


#: Most wedges one block of graph_features may hold, unless a single vertex
#: has more out-neighbours than that; bounds its key buffers.
_BLOCK_KEYS = 1 << 14


def graph_features(g: CommGraph) -> dict[str, HostGraphFeatures]:
    """Degree and clustering coefficient of every vertex, in sorted vertex order.

    One pass over the edges, without adjacency sets (the degree-ordered
    forward algorithm of Chiba & Nishizeki 1985; Latapy 2008). Each edge is
    oriented from the lower to the higher (degree, id) rank, so a vertex has
    d+(v) out-neighbours, and every triangle is the wedge of exactly one
    vertex, its lowest-ranked corner: the two out-arcs v -> u, v -> w with
    u -> w also an arc. The wedges of the sorted out-arc CSR come from
    _Csr.wedges in blocks of at most ``_BLOCK_KEYS``; ``searchsorted`` on
    the sorted arc keys tests each for its closing edge, and ``bincount``
    adds each triangle to all three corners. k and T are exact integers and
    c is the one division 2T / (k(k - 1)) of them, so c is the correctly
    rounded value of the exact fraction; 0.0 below degree 2.

    Cost: Σ C(d+(v), 2) wedges, at most O(|E|^1.5), against Σ C(deg(v), 2)
    for a per-vertex count (a 3,000-leaf star has 0 against 4,498,500).
    Memory: O(|V| + |E|) index arrays and one block.
    """
    order, a, b = _edge_index(g)
    n = len(order)
    degree = np.bincount(np.concatenate([a, b]), minlength=n)
    # rank[i]: the position of vertex i in (degree, id) order; ids are sorted already
    rank = np.empty(n, np.int64)
    rank[np.argsort(degree, kind="stable")] = np.arange(n)
    ra, rb = rank[a], rank[b]
    csr = _Csr(np.sort(np.minimum(ra, rb) * n + np.maximum(ra, rb)), n)
    m = len(csr.arcs)
    triangles = np.zeros(n, np.int64)  # by rank
    # no wedge depends on another, so a block may end after any first arc
    for keys, second in csr.wedges(np.arange(m), np.arange(m + 1), _BLOCK_KEYS):
        found = csr.arcs[np.minimum(np.searchsorted(csr.arcs, keys), m - 1)] == keys
        u, w = np.divmod(keys[found], n)
        triangles += np.bincount(np.concatenate([csr.src[second[found]], u, w]), minlength=n)
    return {
        v: HostGraphFeatures(v, k, _coefficient(k, t))
        for v, k, t in zip(order, degree.tolist(), triangles[rank].tolist())
    }


def _edge_index(g: CommGraph) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The vertices in sorted order and each edge's two endpoint positions in it."""
    order = sorted(g.vertices)
    index = {v: i for i, v in enumerate(order)}
    ends = np.fromiter(
        map(index.__getitem__, itertools.chain.from_iterable(g.edge_weight)),
        np.int64,
        2 * len(g.edge_weight),
    )
    return order, ends[0::2], ends[1::2]


class _Csr:
    """Sorted CSR over arc keys ``src * n + nbr``, and its wedges in blocks.

    Arc p runs from ``src[p]`` to ``nbr[p]``; row s holds arcs
    ``indptr[s]:indptr[s + 1]``, with ascending ``nbr``. A wedge is a pair
    of arcs p < q of one row: two neighbours x = nbr[p] < y = nbr[q] of
    that row's vertex. build_snn_graph counts wedges per pair (x, y) over
    the symmetric CSR; graph_features tests them for a closing edge over
    the degree-oriented one.
    """

    __slots__ = ("n", "arcs", "src", "nbr", "indptr")

    def __init__(self, arcs: np.ndarray, n: int):
        self.n = n
        self.arcs = arcs
        self.src, self.nbr = np.divmod(arcs, n)
        self.indptr = np.searchsorted(self.src, np.arange(n + 1))

    def wedges(
        self, first: np.ndarray, runs: np.ndarray, block_keys: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Every wedge (p, q) whose first arc p is in ``first``, block by block.

        ``first`` lists the first arcs in the order their wedges are wanted;
        ``runs`` cuts it into runs ``first[runs[r]:runs[r + 1]]`` that a
        block never splits. A block holds at most ``block_keys`` wedges
        unless a single run has more. Yields (keys, second): each wedge's
        pair key ``x * n + y`` and the index q of its second arc.
        """
        starts = first + 1
        lengths = self.indptr[self.src[first] + 1] - starts
        ends = np.concatenate([[0], np.cumsum(lengths)])[runs]  # wedges before each run
        run, done = 0, 0
        while done < ends[-1]:
            # runs [run, stop) fill one block; a run larger than a block goes alone
            stop = max(int(np.searchsorted(ends, done + block_keys, side="right")) - 1, run + 1)
            lo, hi = runs[run], runs[stop]
            counts = lengths[lo:hi]
            offsets = np.cumsum(counts) - counts  # of each first arc's wedges within the block
            second = np.arange(ends[stop] - done) + np.repeat(starts[lo:hi] - offsets, counts)
            yield np.repeat(self.nbr[first[lo:hi]], counts) * self.n + self.nbr[second], second
            run, done = stop, int(ends[stop])


def window_snapshots(
    flows: Sequence[FlowRecord],
    length: float,
) -> list[tuple[CommGraph, list[FlowRecord], tuple[float, float]]]:
    """One graph per aligned window [i * length, (i + 1) * length).

    Windows run from the one holding the earliest start time to the one
    holding the latest, empty windows included; graph timestamps count
    from 0. Each entry is (graph, the window's flows, (lo, hi)); a window's
    flows keep capture order.

    Every flow is filed into its window in one pass. Its index i is the one
    that passes the exact test ``i * length <= start_time < (i + 1) * length``,
    which ``floor(start_time / length)`` can miss by one when the division
    rounds (1.7 / 0.1 gives 17.0, but 17 * 0.1 > 1.7).
    """
    buckets: dict[int, list[FlowRecord]] = {}
    for f in flows:
        buckets.setdefault(_window_index(f.start_time, length), []).append(f)
    i_min, i_max = min(buckets), max(buckets)
    snapshots = []
    for i in range(i_min, i_max + 1):
        lo, hi = i * length, (i + 1) * length
        in_window = buckets.get(i, [])
        g = build_graph(in_window, (lo, hi), timestamp=i - i_min)
        snapshots.append((g, in_window, (lo, hi)))
    return snapshots


def _window_index(t: float, length: float) -> int:
    """The i with i * length <= t < (i + 1) * length, in float arithmetic."""
    i = math.floor(t / length)
    while i * length > t:
        i -= 1
    while (i + 1) * length <= t:
        i += 1
    return i


# ---------------------------------------------------------------------------
# window deltas and mining volume
# ---------------------------------------------------------------------------

def mining_volume(
    flows: Iterable[FlowRecord],
    host: str,
    delta_t: float,
    fingerprint: MiningFingerprint,
    now: float,
) -> int:
    """Count of the host's fingerprint-matching flows in the trailing window.

    The window is [now - delta_t, now) over flow start times, so a flow
    starting exactly at ``now`` belongs to the next interval.
    """
    if delta_t <= 0:
        raise ValueError("delta_t must be > 0")
    lo = now - delta_t
    return sum(
        1
        for f in flows
        if f.involves(host) and lo <= f.start_time < now and fingerprint.matches(f)
    )


def dc_change_factor(c_prev: float, c_next: float, cap: float = 1000.0) -> float:
    """Multiplicative clustering-coefficient change c(t+1) / c(t).

    Defined as 1 when both coefficients are zero; a rise from exactly zero
    yields the cap sentinel so downstream comparisons stay total.
    """
    if c_prev == 0.0:
        return 1.0 if c_next == 0.0 else cap
    return c_next / c_prev


def window_deltas(
    snapshots: Sequence[tuple[CommGraph, Sequence[FlowRecord], tuple[float, float]]],
    params: StateParams,
) -> list[dict[str, HostDeltas]]:
    """Per-host deltas for every pair of consecutive windows.

    ``snapshots`` is the output of window_snapshots: (graph, the window's
    flows, (lo, hi)) per window, in order. Entry j - 1 compares window j - 1
    with window j and holds one HostDeltas per vertex of window j.

    m_v counts the fingerprint flows starting in [hi - delta_t, hi); a flow
    starting exactly at hi belongs to window j + 1. Every flow is tested
    against the fingerprint once, and each host's matches are kept sorted by
    start time, so the interval is the slice two bisections cut from that
    list: each host's mining_volume call gets only the flows it counts, and
    a host without a fingerprint flow reads 0 without a call. Each window's
    host rows (degree split and clustering coefficient) are computed once
    and reused as the earlier side of the next pair; a host absent from
    window j - 1 reads (0, 0, 0.0) there, whatever it had before. dc_peak is
    a running maximum per host, so the state kept across pairs is one float
    per host.
    """
    if len(snapshots) < 2:
        return []
    matches = params.fingerprint.matches
    start = operator.attrgetter("start_time")
    by_host = flows_by_host(
        sorted((f for _, in_window, _ in snapshots for f in in_window if matches(f)), key=start)
    )
    peak: dict[str, float] = {}  # host -> largest dc factor of its pairs so far
    rows = _host_rows(snapshots[0][0], params.is_internal)
    pairs = []
    for j in range(1, len(snapshots)):
        g_next, _, (_, hi) = snapshots[j]
        lo = hi - params.delta_t
        rows_prev, rows = rows, _host_rows(g_next, params.is_internal)
        deltas: dict[str, HostDeltas] = {}
        for host, (ext_next, int_next, c_next) in rows.items():
            ext_prev, int_prev, c_prev = rows_prev.get(host, (0, 0, 0.0))
            dc_factor = dc_change_factor(c_prev, c_next, params.dc_cap)
            dc_peak = peak.get(host, 0.0)
            found = by_host.get(host)
            deltas[host] = HostDeltas(
                host=host,
                dk_ext=ext_next - ext_prev,
                dk_int=int_next - int_prev,
                dc_factor=dc_factor,
                dc_peak=dc_peak,
                m_v=mining_volume(
                    found[bisect_left(found, lo, key=start) : bisect_left(found, hi, key=start)],
                    host, params.delta_t, params.fingerprint, now=hi,
                ) if found else 0,
                window=j - 1,
            )
            peak[host] = max(dc_peak, dc_factor)
        pairs.append(deltas)
    return pairs


def _host_rows(
    g: CommGraph, is_internal: Callable[[str], bool]
) -> dict[str, tuple[int, int, float]]:
    """(external degree, internal degree, clustering coefficient) of every vertex."""
    features = graph_features(g)  # in sorted vertex order, as _edge_index numbers them
    external = np.fromiter((not is_internal(v) for v in features), bool, len(features))
    if not external.any():
        return {v: (0, f.k, f.c) for v, f in features.items()}
    _, a, b = _edge_index(g)
    # an edge adds to an endpoint's external degree when its other endpoint is external
    ext = np.bincount(np.concatenate([a[external[b]], b[external[a]]]), minlength=len(features))
    return {v: (e, f.k - e, f.c) for (v, f), e in zip(features.items(), ext.tolist())}


# ---------------------------------------------------------------------------
# edge-list export
# ---------------------------------------------------------------------------

def graph_to_text(g: CommGraph) -> str:
    """Edge-list export: 'a,b,weight' lines plus one bare line per isolated host."""
    out = io.StringIO()
    out.write(f"# timestamp={g.timestamp}\n")
    connected: set[str] = set()
    for (a, b) in sorted(g.edge_weight):
        out.write(f"{a},{b},{g.edge_weight[(a, b)]}\n")
        connected.add(a)
        connected.add(b)
    for v in sorted(g.vertices - connected):
        out.write(f"{v}\n")
    return out.getvalue()
