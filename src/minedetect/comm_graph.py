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

import itertools
import math
import operator
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import UnknownVertexError
from .flow_model import FLAG_NAMES, FlowRecord, Protocol, csv_text, flows_by_host
from .kvconfig import check_list_entries

Edge = tuple[str, str]


def edge_key(a: str, b: str) -> Edge:
    """Canonical unordered edge representation (sorted pair)."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class CommGraph:
    """Immutable undirected host graph at one time window.

    Construction numbers the vertices in sorted order (``order[i]`` is vertex
    i) and stores each edge's endpoint numbers as the two rows of ``ends``,
    in ``edge_weight`` order; every reader of the edges reads these. They
    check every edge at numpy cost; a graph that fails is walked edge by
    edge, so the error names its first bad edge.
    """

    vertices: frozenset[str]
    edge_weight: dict[Edge, int]
    timestamp: int = 0
    order: list[str] = field(init=False, repr=False, compare=False)
    ends: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = sorted(self.vertices)
        index = dict(zip(order, itertools.count()))
        keys = self.edge_weight.keys()
        pairs = set(map(len, keys)) <= {2}  # any other key would shift every later endpoint
        # -1 numbers an endpoint outside the vertex set; as the numbers follow
        # sorted ids, a < b is canonical order without a self-loop
        numbers = map(index.get, itertools.chain.from_iterable(keys), itertools.repeat(-1))
        a, b = ends = np.fromiter(numbers, np.int64, 2 * len(keys) * pairs).reshape(-1, 2).T
        valid = pairs and (a >= 0).all() and (a < b).all()
        if not valid or min(self.edge_weight.values(), default=1) < 1:
            for (x, y), w in self.edge_weight.items():
                if x == y:
                    raise ValueError(f"self-loop on {x!r}")
                if (x, y) != edge_key(x, y):
                    raise ValueError(f"edge ({x!r}, {y!r}) not in canonical order")
                if x not in self.vertices or y not in self.vertices:
                    raise ValueError(f"edge ({x!r}, {y!r}) endpoint outside vertex set")
                if w < 1:
                    raise ValueError(f"edge ({x!r}, {y!r}) weight {w} < 1")
        object.__setattr__(self, "order", order)  # the frozen class refuses plain stores
        object.__setattr__(self, "ends", ends)


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
        check_list_entries("pool_hosts", self.pool_hosts)

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
        check_list_entries("internal_prefixes", self.internal_prefixes)

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
    return CommGraph(frozenset(vertices), weights, timestamp)


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
    a, b = g.ends
    n = len(g.order)
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
        for v, k, t in zip(g.order, degree.tolist(), triangles[rank].tolist())
    }


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
) -> Iterator[tuple[CommGraph, list[FlowRecord], tuple[float, float]]]:
    """One graph per non-empty aligned window [i * length, (i + 1) * length), one at a time.

    Windows come in index order; a graph's timestamp is its window's index
    counted from the earliest start time's window, so it skips empty ones.
    Each entry is (graph, the window's flows, (lo, hi)); a window's flows
    keep capture order. An empty capture yields no window.

    Every flow is filed into its window in one pass when this is called, so
    a start time too far from 0 raises here. The result is a one-pass
    iterator that builds each window's graph only when it is reached and
    drops its own hold on the window once it has passed it on, so a caller
    that keeps nothing holds one window graph at a time. A flow's index i is
    the one that passes the exact test
    ``i * length <= start_time < (i + 1) * length``, which
    ``floor(start_time / length)`` can miss by one when the division rounds
    (1.7 / 0.1 gives 17.0, but 17 * 0.1 > 1.7).
    """
    buckets: dict[int, list[FlowRecord]] = defaultdict(list)
    for f in flows:
        buckets[_window_index(f.start_time, length)].append(f)
    return _built_windows(buckets, min(buckets, default=0), length)


def _built_windows(
    buckets: dict[int, list[FlowRecord]], i_min: int, length: float
) -> Iterator[tuple[CommGraph, list[FlowRecord], tuple[float, float]]]:
    """window_snapshots' entries, each graph built when it is asked for."""
    for i in sorted(buckets):
        in_window = buckets.pop(i)
        lo, hi = i * length, (i + 1) * length
        yield build_graph(in_window, (lo, hi), timestamp=i - i_min), in_window, (lo, hi)


def _window_index(t: float, length: float) -> int:
    """The i with i * length <= t < (i + 1) * length, in float arithmetic.

    A start time 2**53 or more windows from 0 is a ValueError: from there on
    the quotient cannot tell neighbouring indices apart.
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
    starting exactly at ``now`` belongs to the next interval. This defines
    S3's m_v: window_deltas counts it without calling this, and its m_v for
    a window ending at hi must equal this over the whole capture at now=hi.
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
    snapshots: Iterable[tuple[CommGraph, Sequence[FlowRecord], tuple[float, float]]],
    params: StateParams,
) -> Iterator[dict[str, HostDeltas]]:
    """Per-host deltas of each window graph against the window just before it, one pair at a time.

    ``snapshots`` is the output of window_snapshots, or any iterable of the
    same entries: (graph, the window's flows, (lo, hi)) per non-empty
    window, in order. It is read once, and the result is a one-pass
    iterator: the dict for snapshot j is yielded once snapshot j is read,
    before snapshot j + 1 is asked for. It holds one HostDeltas per vertex
    of snapshot j against window ``window`` = timestamp - 1: snapshot j - 1,
    or an empty window when the two are not adjacent. A host absent from
    that window reads (0, 0, 0.0) there. Fewer than two snapshots yield
    nothing.

    m_v counts the fingerprint flows starting in [hi - delta_t, hi); a flow
    starting exactly at hi belongs to the next window. It equals
    mining_volume over the whole capture at now=hi. Every flow is tested
    against the fingerprint once, as its window arrives, and the start times
    of its matches are appended to each host's list in sorted order.
    Windows come in index order, so each list stays sorted and already
    holds every match that starts before hi: m_v is the difference of two
    binary searches for hi - delta_t and hi in it. Each window's host
    rows (degree split and clustering coefficient) are computed once and
    reused as the earlier side of the next pair, so the state kept across
    pairs is one window's rows, the fingerprint matches' start times and a
    running dc_peak maximum per host; no graph is kept.
    """
    matches = params.fingerprint.matches
    start = operator.attrgetter("start_time")
    by_host: dict[str, list[float]] = {}  # host -> its fingerprint flows' start times, sorted
    peak: dict[str, float] = {}  # host -> largest dc factor of its pairs so far
    rows: dict[str, tuple[int, int, float]] = {}  # the previous window's host rows
    previous = None  # and its timestamp
    for j, (g, in_window, (_, hi)) in enumerate(snapshots):
        for host, found in flows_by_host(sorted(filter(matches, in_window), key=start)).items():
            by_host.setdefault(host, []).extend(map(start, found))
        # after an empty window every host starts from (0, 0, 0.0)
        rows_prev = rows if previous == g.timestamp - 1 else {}
        rows, previous = _host_rows(g, params.is_internal), g.timestamp
        if j == 0:
            continue  # the first window is only the earlier side of a pair
        deltas: dict[str, HostDeltas] = {}
        for host, (ext_next, int_next, c_next) in rows.items():
            ext_prev, int_prev, c_prev = rows_prev.get(host, (0, 0, 0.0))
            dc_factor = dc_change_factor(c_prev, c_next, params.dc_cap)
            dc_peak = peak.get(host, 0.0)
            times = by_host.get(host, ())
            deltas[host] = HostDeltas(
                host=host,
                dk_ext=ext_next - ext_prev,
                dk_int=int_next - int_prev,
                dc_factor=dc_factor,
                dc_peak=dc_peak,
                m_v=bisect_left(times, hi) - bisect_left(times, hi - params.delta_t),
                window=g.timestamp - 1,
            )
            peak[host] = max(dc_peak, dc_factor)
        yield deltas


def _host_rows(
    g: CommGraph, is_internal: Callable[[str], bool]
) -> dict[str, tuple[int, int, float]]:
    """(external degree, internal degree, clustering coefficient) of every vertex."""
    features = graph_features(g)  # in sorted vertex order, as g numbers its vertices
    external = np.fromiter((not is_internal(v) for v in g.order), bool, len(g.order))
    a, b = g.ends
    # an edge adds to an endpoint's external degree when its other endpoint is external
    ext = np.bincount(np.concatenate([a[external[b]], b[external[a]]]), minlength=len(g.order))
    return {v: (e, f.k - e, f.c) for (v, f), e in zip(features.items(), ext.tolist())}


# ---------------------------------------------------------------------------
# edge-list export
# ---------------------------------------------------------------------------

_WINDOW_HEADER = "# timestamp="


def graph_to_text(g: CommGraph) -> str:
    """Edge-list CSV: a '# timestamp=N' row, a,b,weight per edge, one cell per isolated host.

    A vertex id that starts with '# timestamp=' raises ValueError naming it:
    a row that starts with it would read back as the header of a new window.
    """
    # the ids that start with the header sort together, from the first id >= it
    i = bisect_left(g.order, _WINDOW_HEADER)
    if i < len(g.order) and g.order[i].startswith(_WINDOW_HEADER):
        raise ValueError(
            f"a graph export cannot hold host {g.order[i]!r}: it reads as a window header"
        )
    (a, b), n = g.ends, len(g.order)
    edges = list(g.edge_weight.items())  # numbers follow sorted ids: sorting them sorts the edges
    rows = [(x, y, w) for (x, y), w in map(edges.__getitem__, np.argsort(a * n + b).tolist())]
    degree = np.bincount(np.concatenate([a, b]), minlength=n)
    rows += [(g.order[i],) for i in np.flatnonzero(degree == 0).tolist()]
    return csv_text((f"{_WINDOW_HEADER}{g.timestamp}",), rows)
