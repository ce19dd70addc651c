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
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InvalidConfigError, UnknownVertexError, WindowMismatchError
from .flow_model import FlowRecord, Protocol

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
        object.__setattr__(self, "_adj", _adjacency(self.vertices, self.edge_weight))

    @property
    def edges(self) -> set[Edge]:
        return set(self.edge_weight)

    def neighbors(self, v: str) -> frozenset[str]:
        if v not in self.vertices:
            raise UnknownVertexError(f"vertex {v!r} not in graph")
        return self._adj[v]

    def has_edge(self, a: str, b: str) -> bool:
        return edge_key(a, b) in self.edge_weight


def _adjacency(vertices, edge_weight) -> dict[str, frozenset[str]]:
    adj: dict[str, set[str]] = {v: set() for v in vertices}
    for a, b in edge_weight:
        adj[a].add(b)
        adj[b].add(a)
    return {v: frozenset(ns) for v, ns in adj.items()}


@dataclass(frozen=True)
class HostGraphFeatures:
    host: str
    k: int
    c: float


@dataclass(frozen=True)
class HostDeltas:
    """Window-to-window changes for one host.

    ``window`` is the index of the earlier snapshot of the pair; a host's
    ``dc_history`` holds the dc_factor values of all earlier window pairs
    (so its length equals ``window``) when the caller tracks them.
    """

    host: str
    dk_ext: int
    dk_int: int
    dc_factor: float
    dc_history: tuple[float, ...]
    m_v: int
    window: int


def all_internal(host: str) -> bool:
    """Default monitored-subnet predicate: every host is internal."""
    return True


def subnet_prefix_predicate(prefixes: Sequence[str]) -> Callable[[str], bool]:
    """Internal iff the host id starts with one of the prefixes.

    An empty prefix list means every host is internal.
    """
    prefixes = tuple(prefixes)
    if not prefixes:
        return all_internal

    def predicate(host: str) -> bool:
        return host.startswith(prefixes)

    return predicate


@dataclass(frozen=True)
class MiningFingerprint:
    """Heuristic profile of pool-coordination flows.

    A flow matches when it is TCP, at least ``min_duration`` seconds long,
    carries all ``required_flags``, and either targets one of ``ports`` or
    one of the known ``pool_hosts``.
    """

    ports: frozenset[int] = frozenset({3333, 4444, 5555, 8333, 80, 443, 25})
    min_duration: float = 30.0
    required_flags: frozenset[str] = frozenset({"ACK", "PUSH"})
    pool_hosts: frozenset[str] = frozenset()

    def matches(self, flow: FlowRecord) -> bool:
        return (
            flow.protocol is Protocol.TCP
            and flow.duration >= self.min_duration
            and self.required_flags <= flow.flags
            and (flow.dst_port in self.ports or flow.dst_host in self.pool_hosts)
        )

    def to_kv(self) -> dict[str, str]:
        return {
            "ports": ",".join(str(p) for p in sorted(self.ports)),
            "min_duration": str(self.min_duration),
            "required_flags": ",".join(sorted(self.required_flags)),
            "pool_hosts": ",".join(sorted(self.pool_hosts)),
        }

    @classmethod
    def from_kv(cls, kv: Mapping[str, str]) -> "MiningFingerprint":
        try:
            kwargs = {}
            if "ports" in kv:
                kwargs["ports"] = frozenset(
                    int(p) for p in kv["ports"].split(",") if p.strip()
                )
            if "min_duration" in kv:
                kwargs["min_duration"] = float(kv["min_duration"])
            if "required_flags" in kv:
                kwargs["required_flags"] = frozenset(
                    f.strip().upper() for f in kv["required_flags"].split(",") if f.strip()
                )
            if "pool_hosts" in kv:
                kwargs["pool_hosts"] = frozenset(
                    h.strip() for h in kv["pool_hosts"].split(",") if h.strip()
                )
            return cls(**kwargs)
        except ValueError as exc:
            raise InvalidConfigError(f"bad fingerprint config: {exc}") from exc


@dataclass(frozen=True)
class StateParams:
    """Free parameters of the S0-S3 state machine.

    ``monitored_subnet`` returns True for internal hosts. ``t_star``
    restricts the recruitment (S1) test to one window index; None means
    any window. ``dc_cap`` bounds the clustering-change factor when the
    coefficient rises from exactly zero.
    """

    monitored_subnet: Callable[[str], bool] = all_internal
    x_threshold: int = 5
    delta_t: float = 60.0
    t_star: int | None = None
    dc_cap: float = 1000.0
    fingerprint: MiningFingerprint = field(default_factory=MiningFingerprint)

    def __post_init__(self):
        if self.x_threshold < 1:
            raise ValueError("x_threshold must be >= 1")
        if self.delta_t <= 0:
            raise ValueError("delta_t must be > 0")


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


def vertex_degree(g: CommGraph, v: str) -> int:
    """Number of distinct neighbors of v."""
    return len(g.neighbors(v))


def triangle_count(g: CommGraph, v: str) -> int:
    """T(v): number of edges among v's neighbors (exact integer count)."""
    nbrs = g.neighbors(v)
    # each edge inside the neighborhood is seen from both endpoints
    return sum(len(g.neighbors(u) & nbrs) for u in nbrs) // 2


def clustering_coefficient(g: CommGraph, v: str) -> float:
    """Local clustering coefficient c(v) = 2T(v) / (k(v) * (k(v) - 1)).

    Zero by definition for degree < 2.
    """
    k = vertex_degree(g, v)
    if k < 2:
        return 0.0
    return 2.0 * triangle_count(g, v) / (k * (k - 1))


def graph_features(g: CommGraph) -> dict[str, HostGraphFeatures]:
    """Degree and clustering coefficient for every vertex."""
    return {
        v: HostGraphFeatures(v, vertex_degree(g, v), clustering_coefficient(g, v))
        for v in g.vertices
    }


def window_snapshots(
    flows: Sequence[FlowRecord],
    length: float,
) -> list[tuple[CommGraph, list[FlowRecord], tuple[float, float]]]:
    """One graph per aligned window [i * length, (i + 1) * length).

    Windows run from the one holding the earliest start time to the one
    holding the latest, empty windows included; graph timestamps count
    from 0. Each entry is (graph, the window's flows, (lo, hi)).
    """
    i_min = math.floor(min(f.start_time for f in flows) / length)
    i_max = math.floor(max(f.start_time for f in flows) / length)
    snapshots = []
    for i in range(i_min, i_max + 1):
        lo, hi = i * length, (i + 1) * length
        in_window = [f for f in flows if lo <= f.start_time < hi]
        g = build_graph(in_window, (lo, hi), timestamp=i - i_min)
        snapshots.append((g, in_window, (lo, hi)))
    return snapshots


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

    The window is [now - delta_t, now] over flow start times.
    """
    if delta_t <= 0:
        raise ValueError("delta_t must be > 0")
    lo = now - delta_t
    return sum(
        1
        for f in flows
        if f.involves(host) and lo <= f.start_time <= now and fingerprint.matches(f)
    )


def _split_degree(g: CommGraph, v: str, internal: Callable[[str], bool]) -> tuple[int, int]:
    """(external, internal) neighbor counts; (0, 0) for absent vertices."""
    if v not in g.vertices:
        return 0, 0
    ext = sum(1 for u in g.neighbors(v) if not internal(u))
    return ext, len(g.neighbors(v)) - ext


def dc_change_factor(c_prev: float, c_next: float, cap: float = 1000.0) -> float:
    """Multiplicative clustering-coefficient change c(t+1) / c(t).

    Defined as 1 when both coefficients are zero; a rise from exactly zero
    yields the cap sentinel so downstream comparisons stay total.
    """
    if c_prev == 0.0:
        return 1.0 if c_next == 0.0 else cap
    return c_next / c_prev


def window_deltas(
    g_t: CommGraph,
    g_t1: CommGraph,
    params: StateParams,
    flows_t1: Sequence[FlowRecord],
    now: float,
    prior_dc: Mapping[str, Sequence[float]] | None = None,
) -> dict[str, HostDeltas]:
    """Per-host deltas between two consecutive snapshots.

    ``flows_t1`` are the flows of the arriving window (for mining volume)
    and ``now`` is the wall-clock end of that window, anchoring the
    trailing mining-volume interval. ``prior_dc`` optionally supplies each
    host's dc_factor values from earlier window pairs so
    HostDeltas.dc_history can be populated.
    """
    if g_t1.timestamp != g_t.timestamp + 1:
        raise WindowMismatchError(
            f"snapshots not consecutive: {g_t.timestamp} -> {g_t1.timestamp}"
        )
    internal = params.monitored_subnet
    prior_dc = prior_dc or {}

    deltas: dict[str, HostDeltas] = {}
    for host in g_t1.vertices:
        ext_prev, int_prev = _split_degree(g_t, host, internal)
        ext_next, int_next = _split_degree(g_t1, host, internal)
        c_prev = clustering_coefficient(g_t, host) if host in g_t.vertices else 0.0
        c_next = clustering_coefficient(g_t1, host)
        deltas[host] = HostDeltas(
            host=host,
            dk_ext=ext_next - ext_prev,
            dk_int=int_next - int_prev,
            dc_factor=dc_change_factor(c_prev, c_next, params.dc_cap),
            dc_history=tuple(prior_dc.get(host, ())),
            m_v=mining_volume(flows_t1, host, params.delta_t, params.fingerprint, now=now),
            window=g_t.timestamp,
        )
    return deltas


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
