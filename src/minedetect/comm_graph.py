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

import functools
import itertools
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import UnknownVertexError
from .flow_model import (
    FLAG_NAMES, PROTOCOLS, FlowRecord, FlowTable, Memo, Protocol, csv_text, numbering,
)
from .kvconfig import check_list_entries

Edge = tuple[str, str]


def edge_key(a: str, b: str) -> Edge:
    """Canonical unordered edge representation (sorted pair)."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True, init=False, eq=False, repr=False)
class CommGraph:
    """Immutable undirected host graph at one time window.

    The vertices are numbered in sorted order (``order[i]`` is vertex i);
    edge e joins vertices ``ends[0, e]`` < ``ends[1, e]`` with int64 weight
    ``weights[e]``. Every reader of the edges reads these arrays.
    ``vertices`` and ``edge_weight`` spell them as ids, built on first
    access. Two graphs are equal when their vertices, weighted edges and
    timestamps are, whatever the order of their edges.

    CommGraph(vertices, edge_weight, timestamp) checks every edge at numpy
    cost; a graph that fails is walked edge by edge, so the error names its
    first bad edge.
    """

    order: list[str]
    ends: np.ndarray
    weights: np.ndarray
    timestamp: int

    def __init__(self, vertices: Iterable[str], edge_weight: Mapping[Edge, int], timestamp: int = 0):
        vertices, edge_weight = frozenset(vertices), dict(edge_weight)
        order = sorted(vertices)
        index = dict(zip(order, itertools.count()))
        keys, values = edge_weight.keys(), list(edge_weight.values())
        pairs = set(map(len, keys)) <= {2}  # any other key would shift every later endpoint
        # -1 numbers an endpoint outside the vertex set; as the numbers follow
        # sorted ids, a < b is canonical order without a self-loop
        numbered = map(index.get, itertools.chain.from_iterable(keys), itertools.repeat(-1))
        a, b = ends = np.fromiter(numbered, np.int64, 2 * len(keys) * pairs).reshape(-1, 2).T
        try:
            weights = np.fromiter(values, np.int64, len(values))
        except (TypeError, ValueError, OverflowError):
            weights = None  # a weight that is no int64; the walk below names it
        valid = pairs and (a >= 0).all() and (a < b).all()
        if not valid or weights is None or weights.tolist() != values or (weights < 1).any():
            for (x, y), w in edge_weight.items():
                if x == y:
                    raise ValueError(f"self-loop on {x!r}")
                if (x, y) != edge_key(x, y):
                    raise ValueError(f"edge ({x!r}, {y!r}) not in canonical order")
                if x not in vertices or y not in vertices:
                    raise ValueError(f"edge ({x!r}, {y!r}) endpoint outside vertex set")
                if not isinstance(w, Integral) or w >= 2**63:
                    raise ValueError(f"edge ({x!r}, {y!r}) weight {w!r} is not an int64")
                if w < 1:
                    raise ValueError(f"edge ({x!r}, {y!r}) weight {w} < 1")
        self._fill(order, ends, weights, timestamp, vertices=vertices, edge_weight=edge_weight)

    @classmethod
    def _numbered(
        cls, order: list[str], a: np.ndarray, b: np.ndarray, weights: np.ndarray, timestamp: int
    ) -> CommGraph:
        """The graph over the sorted, distinct ids ``order`` with edges (order[a], order[b]).

        The caller vouches for what __init__ checks: every a < b, no edge
        twice, and int64 weights of at least 1. The edges keep the order
        given.
        """
        g = object.__new__(cls)
        g._fill(order, np.stack([a, b]), weights, timestamp)
        return g

    def _fill(self, order, ends, weights, timestamp, **built) -> None:
        for name, value in (
            ("order", order), ("ends", ends), ("weights", weights), ("timestamp", timestamp),
        ):
            object.__setattr__(self, name, value)  # the frozen class refuses plain stores
        self.__dict__.update(built)  # what the cached properties would build

    @functools.cached_property
    def vertices(self) -> frozenset[str]:
        return frozenset(self.order)

    @functools.cached_property
    def edge_weight(self) -> dict[Edge, int]:
        # a < b, so (order[a], order[b]) is already the canonical edge_key order
        ids, (a, b) = self.order.__getitem__, self.ends
        return dict(zip(zip(map(ids, a.tolist()), map(ids, b.tolist())), self.weights.tolist()))

    def _sorted_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Each edge's key ``a * len(order) + b`` and its weight, by key."""
        a, b = self.ends
        keys = a * len(self.order) + b
        by_key = np.argsort(keys)
        return keys[by_key], self.weights[by_key]

    def __eq__(self, other):
        if not isinstance(other, CommGraph):
            return NotImplemented
        return (
            self.timestamp == other.timestamp
            and self.order == other.order
            and all(map(np.array_equal, self._sorted_edges(), other._sorted_edges()))
        )

    def __repr__(self):
        return (
            f"CommGraph(vertices={self.vertices!r}, edge_weight={self.edge_weight!r}, "
            f"timestamp={self.timestamp!r})"
        )


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


class _HostArrays(Mapping):
    """A read-only mapping of each host of the sorted ``order`` to a record built from arrays in that order.

    A record is built only when its host is looked up; a host's place is
    found by bisection, so no per-host object is kept. Each mapping owns
    its arrays, which are read-only.
    """

    order: list[str]

    def _place(self, host) -> int:
        i = bisect_left(self.order, host) if isinstance(host, str) else len(self.order)
        if i == len(self.order) or self.order[i] != host:
            raise KeyError(host)
        return i

    def __iter__(self) -> Iterator[str]:
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def __repr__(self):
        return f"{type(self).__name__}({dict(self)!r})"


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class GraphFeatures(_HostArrays):
    """graph_features' result: the degree ``k`` and clustering coefficient ``c`` of each vertex of ``order``."""

    def __init__(self, order: list[str], k: np.ndarray, c: np.ndarray):
        self.order, self.k, self.c = order, _read_only(k), _read_only(c)

    def __getitem__(self, host) -> HostGraphFeatures:
        i = self._place(host)
        return HostGraphFeatures(host, self.k.item(i), self.c.item(i))


class PairDeltas(_HostArrays):
    """One item of window_deltas: the HostDeltas fields of each vertex of ``order``, as arrays.

    ``window`` is the same for every host: the index of the pair's earlier window.
    """

    def __init__(
        self, order: list[str], dk_ext: np.ndarray, dk_int: np.ndarray,
        dc_factor: np.ndarray, dc_peak: np.ndarray, m_v: np.ndarray, window: int,
    ):
        self.order, self.window = order, window
        self.dk_ext, self.dk_int, self.m_v = map(_read_only, (dk_ext, dk_int, m_v))
        self.dc_factor, self.dc_peak = map(_read_only, (dc_factor, dc_peak))

    def __getitem__(self, host) -> HostDeltas:
        i = self._place(host)
        return HostDeltas(
            host, self.dk_ext.item(i), self.dk_int.item(i), self.dc_factor.item(i),
            self.dc_peak.item(i), self.m_v.item(i), self.window,
        )


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
    flow count. Loopback flows contribute the vertex but no edge. This is
    the definition table_graph computes from a table's columns; the
    pipeline does not call it.
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


#: Rows of a flow table that step 3 reads into scratch arrays at a time
_BLOCK_ROWS = 1 << 14


def table_graph(flows: FlowTable, timestamp: int = 0) -> CommGraph:
    """The communication graph of every flow of ``flows``, from its columns.

    It equals build_graph over any window holding every flow: each host of
    a flow is a vertex, and each pair of distinct hosts an edge weighted by
    its flow count. Each pair is keyed by its hosts' places among the
    table's sorted ids. The flows are read ``_BLOCK_ROWS`` at a time, and
    each block's keys sorted, counted and added into a GraphSum, so the
    scratch memory follows the block and the edges, not the flows. The
    edges come in sorted order.
    """
    names, position = flows.host_order()
    total = GraphSum(names)
    for lo in range(0, len(flows), _BLOCK_ROWS):
        a = position[flows.src[lo : lo + _BLOCK_ROWS]]
        b = position[flows.dst[lo : lo + _BLOCK_ROWS]]
        apart = a != b
        block = np.sort(np.minimum(a, b)[apart] * len(names) + np.maximum(a, b)[apart])
        first = _run_starts(block)
        total.add(np.concatenate([a, b]), block[first], np.diff(first, append=len(block)))
    return total.graph(timestamp)


class GraphSum:
    """Graphs over one capture's hosts, added into one: vertices united, each edge's weights summed.

    ``names`` are the capture's host ids, sorted (FlowTable.host_order).
    An edge is keyed ``a * len(names) + b`` by its endpoints' places a < b
    among them. The added keys are summed with one sort whenever they
    outnumber the keys summed so far, so the memory follows the summed
    edges, not the number of graphs added.
    """

    def __init__(self, names: list[str]):
        self.names = names
        self.seen = np.zeros(len(names), bool)
        self.parts = [(np.empty(0, np.int64), np.empty(0, np.int64))]  # the sum, then added parts
        self.added = 0  # keys in the added parts
        self.place: dict[str, int] | None = None  # id -> its place, built on the first add_graph

    def add(self, vertices: np.ndarray, keys: np.ndarray, weights: np.ndarray) -> None:
        """Add the vertices at places ``vertices`` and the edges of ``keys``, weighted ``weights``."""
        self.seen[vertices] = True
        self.parts.append((keys, weights))
        self.added += len(keys)
        if self.added > max(len(self.parts[0][0]), _BLOCK_ROWS):
            self.parts, self.added = [self._summed()], 0

    def add_graph(self, g: CommGraph) -> np.ndarray:
        """Add ``g``, whose vertices are among ``names``; the place of each vertex of g.order."""
        if self.place is None:
            self.place = dict(zip(self.names, itertools.count()))
        # g numbers its vertices in sorted order, so a < b keeps to places
        at = np.fromiter(map(self.place.__getitem__, g.order), np.int64, len(g.order))
        a, b = g.ends
        self.add(at, at[a] * len(self.names) + at[b], g.weights)
        return at

    def _summed(self) -> tuple[np.ndarray, np.ndarray]:
        keys, weights = map(np.concatenate, zip(*self.parts))
        by_key = np.argsort(keys, kind="stable")
        keys = keys[by_key]
        first = _run_starts(keys)
        return keys[first], np.add.reduceat(weights[by_key], first) if len(keys) else weights

    def graph(self, timestamp: int = 0) -> CommGraph:
        """The graph of everything added, its edges in sorted order."""
        keys, weights = self._summed()
        present = np.flatnonzero(self.seen)  # the vertices, in sorted id order
        vertex = np.empty(len(self.names), np.int64)  # each sorted place's vertex number
        vertex[present] = np.arange(len(present))
        a, b = np.divmod(keys, len(self.names))
        order = [self.names[i] for i in present.tolist()]
        return CommGraph._numbered(order, vertex[a], vertex[b], weights, timestamp)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values of the sorted ``keys`` starts; 1 B of scratch a key."""
    starts = np.empty(len(keys), bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def clustering_coefficient(g: CommGraph, v: str) -> float:
    """Local clustering coefficient c(v) = 2T(v) / (k(v) * (k(v) - 1)), 0.0 below degree 2.

    v's entry of graph_features, so each call costs a pass over the whole graph.
    """
    features = graph_features(g)
    if v not in features:
        raise UnknownVertexError(f"vertex {v!r} not in graph")
    return features[v].c


#: Most wedges one block of graph_features may hold, unless a single vertex
#: has more out-neighbours than that; bounds its key buffers.
_BLOCK_KEYS = 1 << 14


def graph_features(g: CommGraph) -> GraphFeatures:
    """Degree and clustering coefficient of every vertex, as arrays in g.order.

    The result maps each vertex, in sorted order, to its HostGraphFeatures,
    built when it is looked up; its arrays ``k`` and ``c`` hold every
    vertex's values.

    A dense graph (``_Dense.fits``) counts the triangles T(v) of each
    vertex from row panels of A·A, A its 0/1 adjacency matrix: 2T(v) =
    Σ_j (A·A)[v, j] · A[v, j], the common neighbours of v and each of its
    neighbours. Any other graph takes one pass over the edges, without
    adjacency sets (the degree-ordered forward algorithm of Chiba &
    Nishizeki 1985; Latapy 2008). Each edge is oriented from the lower to
    the higher (degree, id) rank, so a vertex has d+(v) out-neighbours, and
    every triangle is the wedge of exactly one vertex, its lowest-ranked
    corner: the two out-arcs v -> u, v -> w with u -> w also an arc. The
    wedges of the sorted out-arc CSR come from _Csr.wedges in blocks of at
    most ``_BLOCK_KEYS``; ``searchsorted`` on the sorted arc keys tests each
    for its closing edge, and ``bincount`` adds each triangle to all three
    corners. Either way k and T are exact integers and c is the one
    division 2T / (k(k - 1)) of them, so c is the correctly rounded value
    of the exact fraction; 0.0 below degree 2.

    Cost: n³ multiply-adds in BLAS for a dense graph, where n² ≤ 16 |E|;
    else Σ C(d+(v), 2) wedges, at most O(|E|^1.5), against Σ C(deg(v), 2)
    for a per-vertex count (a 3,000-leaf star has 0 against 4,498,500).
    Memory: O(|V| + |E|) index arrays and one block, or the n² float32
    cells of A (at most 64 B per edge) and one panel.
    """
    a, b = g.ends
    n = len(g.order)
    degree = np.bincount(np.concatenate([a, b]), minlength=n)
    if _Dense.fits(n, len(a)):
        dense = _Dense(n, a, b)
        # the products are integers of at most n, the float64 row sums exact to 2**53
        twice = [
            (product * dense.adj[rows]).sum(axis=1, dtype=np.float64) for rows, product in dense.panels()
        ]
        triangles = np.concatenate(twice).astype(np.int64) // 2
    else:
        triangles = _wedge_triangles(n, a, b, degree)
    # c = 2T / (k(k - 1)): the float division of the exact integers, as Python divides them
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(degree >= 2, 2.0 * triangles / (degree * (degree - 1)), 0.0)
    return GraphFeatures(g.order, degree, c)


def _wedge_triangles(n: int, a: np.ndarray, b: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """The triangles of each vertex of edges (a, b), by the degree-ordered wedges of graph_features."""
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
    return triangles[rank]


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
            # in place where it can be, so a block holds at most three key-sized arrays
            second = np.arange(ends[stop] - done)
            second += np.repeat(starts[lo:hi] - offsets, counts)
            keys = np.repeat(self.nbr[first[lo:hi]], counts)
            keys *= self.n
            keys += self.nbr[second]
            yield keys, second
            del keys, second  # so the next block is not built while this one is held
            run, done = stop, int(ends[stop])


#: A graph is dense when its n × n adjacency matrix has at most this many
#: cells per edge: then the matrix touches fewer cells than Σ deg(v)²
#: neighbour pairs, and holds at most 64 B per edge
_DENSE_CELLS_PER_EDGE = 16

#: Most multiply-adds of one panel product: OpenBLAS runs a product no
#: larger than this on the calling thread
_PANEL_MACS = 1 << 18

#: Most cells of one panel once a single row's product exceeds _PANEL_MACS
_PANEL_CELLS = 1 << 16


class _Dense:
    """The 0/1 float32 adjacency matrix A of a dense graph, and A·A in row panels.

    (A·A)[i, j] is the number of common neighbours of i and j; graph_features
    and build_snn_graph read it where ``fits`` holds, and walk the wedges of
    _Csr otherwise. Every product and partial sum of A·A is an integer of at
    most n < 2**24, which float32 holds exactly whatever order BLAS sums in,
    so the counts depend neither on the BLAS build, nor on its threads or FMA.

    The panels keep each product on the calling thread: rows of at most
    ``_PANEL_MACS`` multiply-adds. Where a single row is larger (n > 512)
    BLAS may thread, and panels of at most ``_PANEL_CELLS`` cells keep the
    calls few. G* of a 202-vertex graph took 0.7-0.8 ms in panels of 6 or 8
    rows and 32-96 ms in threaded panels of 32 or 128 rows; at 800
    vertices, panels of 2**16 cells took 9-17 ms where one-row panels took
    52-67 ms (2-vCPU VM).
    """

    __slots__ = ("n", "adj")

    @staticmethod
    def fits(n: int, edges: int) -> bool:
        """Whether a graph of n vertices and ``edges`` edges is dense: n² ≤ 16 |E|."""
        return 0 < n * n <= _DENSE_CELLS_PER_EDGE * edges and n < 1 << 24

    def __init__(self, n: int, a: np.ndarray, b: np.ndarray):
        self.n = n
        self.adj = np.zeros((n, n), np.float32)
        self.adj[a, b] = 1.0
        self.adj[b, a] = 1.0

    def panels(self) -> Iterator[tuple[slice, np.ndarray]]:
        """(rows, (A·A)[rows]) for consecutive row slices that cover A, ascending."""
        n = self.n
        step = _PANEL_MACS // (n * n) or max(1, _PANEL_CELLS // n)
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            yield rows, self.adj[rows] @ self.adj


def window_snapshots(
    flows: FlowTable | Iterable[FlowRecord],
    length: float,
) -> Iterator[tuple[CommGraph, FlowTable, tuple[float, float]]]:
    """One graph per non-empty aligned window [i * length, (i + 1) * length), one at a time.

    Windows come in index order; a graph's timestamp is its window's index
    counted from the earliest start time's window, so it skips empty ones.
    Each entry is (graph, the window's flows, (lo, hi)); a window's flows
    are a FlowTable sharing the capture's hosts, in capture order. An
    empty capture yields no window.

    Every flow's window index is computed when this is called, so a start
    time too far from 0 raises here. The result is a one-pass iterator
    that takes each window's rows and builds its graph (table_graph) only
    when it is reached, so a caller that keeps nothing holds one window at
    a time.

    A length that is not finite and above 0 raises ValueError before any
    index is computed.
    """
    if not 0 < length < math.inf:
        raise ValueError("window length must be finite and > 0")
    table = FlowTable.from_records(flows)
    index = np.empty(len(table), np.int64)
    for lo in range(0, len(table), _BLOCK_ROWS):
        index[lo : lo + _BLOCK_ROWS] = _window_indices(table.start_time[lo : lo + _BLOCK_ROWS], length)
    rows = None  # a capture already in window order holds each window as one run of rows
    if not (index[1:] >= index[:-1]).all():
        rows = np.argsort(index, kind="stable")  # by window, in capture order within one
        index = index[rows]
    first = _run_starts(index)
    cuts = [*first.tolist(), len(index)]
    return _built_windows(table, rows, index[first].tolist(), cuts, length)


def _built_windows(
    table: FlowTable, rows: np.ndarray | None, windows: list[int], cuts: list[int], length: float
) -> Iterator[tuple[CommGraph, FlowTable, tuple[float, float]]]:
    """window_snapshots' entries, each window taken and its graph built when it is asked for."""
    for i, lo, hi in zip(windows, cuts, cuts[1:]):
        in_window = table.take(slice(lo, hi) if rows is None else rows[lo:hi])
        yield table_graph(in_window, i - windows[0]), in_window, (i * length, (i + 1) * length)


def _window_indices(starts: np.ndarray, length: float) -> np.ndarray:
    """Each start time t's window index: the i with i * length <= t < (i + 1) * length, in float arithmetic.

    ``floor(t / length)`` can miss by one when the division rounds (1.7 /
    0.1 gives 17.0, but 17 * 0.1 > 1.7), so each index is moved until it
    passes that exact test. Every index is below 2**53 in size, so it and
    its successor are exact floats, and each product is the one a Python
    int times ``length`` gives. The first start time 2**53 or more windows
    from 0 is a ValueError: from there on the quotient cannot tell
    neighbouring indices apart.
    """
    with np.errstate(over="ignore"):  # an infinite quotient is refused below
        q = starts / length
    far = ~(np.abs(q) < 2**53)
    if far.any():
        t = float(starts[np.argmax(far)])
        raise ValueError(f"start time {t!r} is 2**53 or more windows of {length!r} s from 0")
    i = np.floor(q)
    while (above := i * length > starts).any():
        i[above] -= 1
    while (below := (i + 1) * length <= starts).any():
        i[below] += 1
    return i.astype(np.int64)


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


def window_deltas(
    snapshots: Iterable[tuple[CommGraph, FlowTable | Iterable[FlowRecord], tuple[float, float]]],
    params: StateParams,
) -> Iterator[PairDeltas]:
    """Per-host deltas of each window graph against the window just before it, one pair at a time.

    ``snapshots`` is the output of window_snapshots, or any iterable of the
    same entries: (graph, the window's flows as a FlowTable or records,
    (lo, hi)) per non-empty window, in order of rising timestamp; a
    timestamp not above the one before raises ValueError naming both. It
    is read once, and the result is a one-pass iterator: the PairDeltas of
    snapshot j is yielded once snapshot j is read, before snapshot j + 1 is
    asked for. It maps each vertex of snapshot j, in g.order, to its
    HostDeltas against window ``window`` = timestamp - 1: snapshot j - 1,
    or an empty window when the two are not adjacent. Its arrays hold
    every vertex's values, and a HostDeltas is built only when a host is
    looked up. A host absent from that window reads (0, 0, 0.0) there.
    Fewer than two snapshots yield nothing.

    m_v counts the fingerprint flows starting in [hi - delta_t, hi); a flow
    starting exactly at hi belongs to the next window. It equals
    mining_volume over the whole capture at now=hi. Each window's flows are
    tested against the fingerprint as one mask when the window arrives, and
    each match's start time is kept once per distinct endpoint. Windows come
    in index order, so the kept times stay sorted and already hold every
    match that starts before hi: m_v is a bincount over the hosts of the
    matches from one ``searchsorted`` for hi - delta_t on. A window whose
    matches all start before that can never count again, so it is dropped.
    Each window's host rows (degree split and clustering coefficient) are
    computed once and reused as the earlier side of the next pair; whether
    a host is internal is asked once per host, and the window tables of one
    window_snapshots share one hosts tuple, which is coded once. So the
    state kept across pairs is one window's rows, the recent matches and a
    running dc_peak maximum per host; no graph is kept.
    """
    number = numbering()  # host -> its number, by first sight
    external = Memo(lambda host: not params.is_internal(host))
    coded = None  # the last window table's hosts tuple, and its _host_codes
    recent: deque[tuple[np.ndarray, np.ndarray]] = deque()  # per window: match start times, hosts
    peak = np.zeros(0)  # by host number: the largest dc factor of its pairs so far
    previous = None  # the previous window's timestamp, vertex numbers and host rows
    for j, (g, in_window, (_, hi)) in enumerate(snapshots):
        if previous is not None and not g.timestamp > previous[0]:
            raise ValueError(
                f"snapshot timestamp {g.timestamp} is not above the previous one, {previous[0]}"
            )
        table = FlowTable.from_records(in_window)
        if coded is None or coded[0] is not table.hosts:
            coded = table.hosts, _host_codes(table.hosts, number, params.fingerprint.pool_hosts)
        recent.append(_fingerprint_matches(table, params.fingerprint, *coded[1]))
        vertices = np.fromiter(map(number.__getitem__, g.order), np.int64, len(g.order))
        rows = _host_rows(g, external)
        # the previous window's rows by host number: (0, 0, 0.0) for a host
        # absent from it, and for every host after an empty window
        earlier = [np.zeros(len(number), row.dtype) for row in rows]
        if previous is not None and previous[0] == g.timestamp - 1:
            for by_number, row in zip(earlier, previous[2]):
                by_number[previous[1]] = row
        previous = (g.timestamp, vertices, rows)
        if j == 0:
            continue  # the first window is only the earlier side of a pair
        ext_next, int_next, c_next = rows
        ext_prev, int_prev, c_prev = (by_number[vertices] for by_number in earlier)
        factor = _change_factors(c_prev, c_next, params.dc_cap)
        peak = np.concatenate([peak, np.zeros(len(number) - len(peak))])
        dc_peak = peak[vertices]
        peak[vertices] = np.maximum(dc_peak, factor)
        since = hi - params.delta_t
        # a window whose matches all start before ``since`` counts no more, now or later
        while len(recent) > 1 and not (recent[0][0][-1:] >= since).any():
            recent.popleft()
        times, hosts = (np.concatenate(column) for column in zip(*recent))
        m_v = np.bincount(hosts[np.searchsorted(times, since):], minlength=len(number))[vertices]
        # every array is new to this pair, so a kept item never changes
        yield PairDeltas(
            g.order, ext_next - ext_prev, int_next - int_prev, factor, dc_peak, m_v, g.timestamp - 1
        )


def _change_factors(c_prev: np.ndarray, c_next: np.ndarray, cap: float) -> np.ndarray:
    """c_next / c_prev of each pair; 1 where both are zero, ``cap`` for a rise from zero (S2 stays total)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(c_prev == 0.0, np.where(c_next == 0.0, 1.0, cap), c_next / c_prev)


def _host_codes(
    hosts: tuple[str, ...], number: Mapping[str, int], pool_hosts: frozenset[str]
) -> tuple[np.ndarray, np.ndarray | None]:
    """Each host's number through ``number``, and whether it is a pool host (None without any)."""
    numbers = np.fromiter(map(number.__getitem__, hosts), np.int64, len(hosts))
    pool = np.fromiter(map(pool_hosts.__contains__, hosts), bool, len(hosts)) if pool_hosts else None
    return numbers, pool


def _fingerprint_matches(
    flows: FlowTable, fingerprint: MiningFingerprint, numbers: np.ndarray, pool: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The start time and host number of each (fingerprint flow, distinct endpoint), sorted by time.

    ``numbers`` and ``pool`` are _host_codes of the flows' hosts; a
    loopback flow counts once.
    """
    carries = np.array([fingerprint.required_flags <= s for s in flows.flag_sets], bool)
    match = (
        (flows.protocol == PROTOCOLS.index(Protocol.TCP))
        & (flows.end_time - flows.start_time >= fingerprint.min_duration)
        & carries[flows.flags]
    )
    target = np.isin(flows.dst_port, list(fingerprint.ports))
    if pool is not None:
        target |= pool[flows.dst]
    match = np.flatnonzero(match & target)
    src, dst = flows.src[match], flows.dst[match]
    apart = src != dst
    times = np.concatenate([flows.start_time[match], flows.start_time[match][apart]])
    ends = np.concatenate([src, dst[apart]])
    by_time = np.argsort(times, kind="stable")
    return times[by_time], numbers[ends][by_time]


def _host_rows(
    g: CommGraph, external: Mapping[str, bool]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The external degree, internal degree and clustering coefficient of each vertex, in g.order."""
    features = graph_features(g)
    n = len(g.order)
    outside = np.fromiter(map(external.__getitem__, g.order), bool, n)
    a, b = g.ends
    # an edge adds to an endpoint's external degree when its other endpoint is external
    ext = np.bincount(np.concatenate([a[outside[b]], b[outside[a]]]), minlength=n)
    return ext, features.k - ext, features.c


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
    by_key = np.argsort(a * n + b)  # numbers follow sorted ids: sorting them sorts the edges
    ids = g.order.__getitem__
    ends = (map(ids, a[by_key].tolist()), map(ids, b[by_key].tolist()))
    rows = list(zip(*ends, g.weights[by_key].tolist()))
    degree = np.bincount(np.concatenate([a, b]), minlength=n)
    rows += [(g.order[i],) for i in np.flatnonzero(degree == 0).tolist()]
    return csv_text((f"{_WINDOW_HEADER}{g.timestamp}",), rows)
