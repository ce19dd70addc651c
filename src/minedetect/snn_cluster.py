"""Shared-nearest-neighbor clustering and mining-lifecycle states.

From a communication graph G, a derived graph G* joins two hosts when they
have at least k_shared neighbors in common; the connected components of G*
are the clusters. Each host additionally gets a lifecycle state:

    S0  untouched baseline
    S1  recruitment: external degree jumped by more than 1
    S2  pool-coordination growth: internal degree outgrew external and the
        clustering coefficient rose above its whole history
    S3  sustained mining: internal degree still growing and the
        mining-fingerprint flow count exceeded its threshold

Rules are evaluated in exactly that order; the first match wins.
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .comm_graph import CommGraph, Edge, HostDeltas, StateParams, edge_key
from .errors import (
    MissingHostStateError,
    MissingVectorError,
    SameVertexError,
    UnknownVertexError,
    UnnormalizedInputError,
)
from .flow_model import FEATURE_ORDER, FeatureVector


class State(str, enum.Enum):
    S0 = "S0"
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"


#: Severity order used by cluster_state and the suspicious-host rule.
STATE_RANK = {State.S0: 0, State.S1: 1, State.S2: 2, State.S3: 3}


@dataclass(frozen=True)
class SnnGraph:
    """G*: same vertices as the base graph, edges = pairs sharing >= k_shared neighbors."""

    base: CommGraph
    k_shared: int
    edges: frozenset[Edge]

    @property
    def vertices(self) -> frozenset[str]:
        return self.base.vertices


@dataclass(frozen=True)
class Cluster:
    id: str
    members: frozenset[str]
    state: State | None = None
    profile: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.members:
            raise ValueError("cluster must have at least one member")

    @property
    def size(self) -> int:
        return len(self.members)


def shared_neighbors(g: CommGraph, i: str, j: str) -> int:
    """|N(i) ∩ N(j)| for two distinct vertices."""
    if i == j:
        raise SameVertexError(f"shared_neighbors needs two distinct vertices, got {i!r}")
    if i not in g.vertices:
        raise UnknownVertexError(f"vertex {i!r} not in graph")
    if j not in g.vertices:
        raise UnknownVertexError(f"vertex {j!r} not in graph")
    return len(g.neighbors(i) & g.neighbors(j))


def build_snn_graph(g: CommGraph, k_shared: int) -> SnnGraph:
    """Connect i and j in G* iff they share at least k_shared neighbors in G.

    Common-neighbor counts for all pairs come from one dense adjacency
    matrix product. numpy has no BLAS path for int64 matmul, so this is
    O(|V|^3) time and O(|V|^2) memory however sparse the graph is.
    """
    if k_shared < 1:
        raise ValueError("k_shared must be >= 1")
    order = sorted(g.vertices)
    n = len(order)
    if n == 0:
        return SnnGraph(g, k_shared, frozenset())

    index = {v: i for i, v in enumerate(order)}
    adj = np.zeros((n, n), dtype=np.uint8)
    for a, b in g.edge_weight:
        adj[index[a], index[b]] = 1
        adj[index[b], index[a]] = 1

    common = adj.astype(np.int64) @ adj.astype(np.int64)
    ii, jj = np.nonzero(np.triu(common >= k_shared, k=1))
    edges = frozenset(edge_key(order[i], order[j]) for i, j in zip(ii.tolist(), jj.tolist()))
    return SnnGraph(g, k_shared, edges)


def extract_clusters(snn: SnnGraph) -> list[Cluster]:
    """Connected components of G* as clusters.

    Ordered by descending size, then by lexicographically smallest member;
    ids C0, C1, ... follow that order. Isolated vertices become singleton
    clusters, so the result partitions the vertex set.
    """
    adj: dict[str, set[str]] = {v: set() for v in snn.vertices}
    for a, b in snn.edges:
        adj[a].add(b)
        adj[b].add(a)

    seen: set[str] = set()
    components: list[frozenset[str]] = []
    for start in sorted(snn.vertices):
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
    return [Cluster(id=f"C{i}", members=comp) for i, comp in enumerate(components)]


# ---------------------------------------------------------------------------
# lifecycle states
# ---------------------------------------------------------------------------

def assign_state(d: HostDeltas, params: StateParams) -> State:
    """First-matching lifecycle state for one host's window deltas.

    The S2 test compares against ``d.dc_history``, the host's clustering-change
    factors from earlier window pairs.
    """
    at_t_star = params.t_star is None or d.window == params.t_star
    if d.dk_ext > 1 and at_t_star:
        return State.S1
    if (
        d.dk_int > d.dk_ext
        and d.dc_factor > 1.0
        and (not d.dc_history or d.dc_factor > max(d.dc_history))
    ):
        return State.S2
    if d.dk_int > 1 and d.m_v > params.x_threshold:
        return State.S3
    return State.S0


def cluster_state(cluster: Cluster, host_states: Mapping[str, State]) -> State:
    """Most severe member state (S0 < S1 < S2 < S3)."""
    worst = State.S0
    for member in cluster.members:
        if member not in host_states:
            raise MissingHostStateError(f"no state for cluster member {member!r}")
        if STATE_RANK[host_states[member]] > STATE_RANK[worst]:
            worst = host_states[member]
    return worst


def cluster_profile(
    cluster: Cluster,
    vectors: Mapping[str, FeatureVector],
) -> tuple[float, ...]:
    """Per-feature centroid (arithmetic mean) over normalized member vectors."""
    rows = []
    for member in sorted(cluster.members):
        if member not in vectors:
            raise MissingVectorError(f"no feature vector for cluster member {member!r}")
        v = vectors[member]
        if not v.normalized:
            raise UnnormalizedInputError(f"vector for {member!r} is not normalized")
        rows.append(v.values())
    n = len(rows)
    return tuple(sum(col) / n for col in zip(*rows))


def finalize_clusters(
    clusters: Sequence[Cluster],
    host_states: Mapping[str, State],
    vectors: Mapping[str, FeatureVector],
) -> list[Cluster]:
    """Attach states and centroids to extracted clusters."""
    return [
        replace(
            c,
            state=cluster_state(c, host_states),
            profile=cluster_profile(c, vectors),
        )
        for c in clusters
    ]


# ---------------------------------------------------------------------------
# cluster report emission
# ---------------------------------------------------------------------------

def clusters_to_csv(clusters: Sequence[Cluster]) -> str:
    """One row per cluster: id, size, state, centroid columns, member list."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["cluster", "size", "state", *FEATURE_ORDER, "members"])
    for c in clusters:
        profile = c.profile if c.profile is not None else [""] * len(FEATURE_ORDER)
        writer.writerow(
            [
                c.id,
                c.size,
                c.state.value if c.state is not None else "",
                *profile,
                "|".join(sorted(c.members)),
            ]
        )
    return out.getvalue()


def clusters_to_obj(clusters: Sequence[Cluster]) -> list[dict]:
    """JSON-ready cluster records."""
    records = []
    for c in clusters:
        records.append(
            {
                "id": c.id,
                "size": c.size,
                "state": c.state.value if c.state is not None else None,
                "centroid": (
                    dict(zip(FEATURE_ORDER, c.profile)) if c.profile is not None else None
                ),
                "members": sorted(c.members),
            }
        )
    return records


def clusters_from_obj(records: Sequence[Mapping]) -> list[Cluster]:
    """Inverse of clusters_to_obj."""
    return [
        Cluster(
            id=r["id"],
            members=frozenset(r["members"]),
            state=State(r["state"]) if r["state"] is not None else None,
            profile=(
                tuple(r["centroid"][f] for f in FEATURE_ORDER)
                if r["centroid"] is not None
                else None
            ),
        )
        for r in records
    ]
