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

import enum
import functools
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .comm_graph import CommGraph, Edge, HostDeltas, PairDeltas, StateParams, _Csr, _Dense, _run_starts
from .errors import MissingHostStateError, MissingVectorError
from .flow_model import FEATURE_ORDER, FeatureTable, FeatureVector, csv_text, feature_table


class State(str, enum.Enum):
    S0 = "S0"
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"


#: The feature vectors of cluster members: a table, or vectors by host
MemberVectors = FeatureTable | Mapping[str, FeatureVector]

#: Severity order used by cluster_state and the suspicious-host rule.
STATE_RANK = {State.S0: 0, State.S1: 1, State.S2: 2, State.S3: 3}


@dataclass(frozen=True, eq=False)
class SnnGraph:
    """G*: same vertices as the base graph, edges = pairs sharing >= k_shared neighbors.

    ``pairs`` holds each edge as the key ``i * n + j`` (i < j) of its two
    vertex numbers in ``base.order``, n vertices, ascending: 8 B per edge.
    ``edges`` spells them as id pairs, built on first access. Two graphs
    are equal when their base, k_shared and edges are.
    """

    base: CommGraph
    k_shared: int
    pairs: np.ndarray

    @property
    def vertices(self) -> frozenset[str]:
        return self.base.vertices

    @functools.cached_property
    def edges(self) -> frozenset[Edge]:
        # i < j, so (order[i], order[j]) is already the canonical edge_key order
        order = self.base.order
        first, second = np.divmod(self.pairs, len(order))
        return frozenset(zip(map(order.__getitem__, first.tolist()),
                             map(order.__getitem__, second.tolist())))

    def __eq__(self, other):
        if not isinstance(other, SnnGraph):
            return NotImplemented
        return (
            self.base == other.base
            and self.k_shared == other.k_shared
            and np.array_equal(self.pairs, other.pairs)
        )


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


#: Most pair keys one block of first-endpoint rows may hold, unless a single
#: row alone has more; bounds the key buffer of build_snn_graph.
_BLOCK_KEYS = 1 << 15

#: G* pair keys that one block of extract_clusters' hooking reads at a time.
_HOOK_KEYS = 1 << 15


def build_snn_graph(g: CommGraph, k_shared: int) -> SnnGraph:
    """Connect i and j in G* iff they share at least k_shared neighbors in G.

    A dense graph (comm_graph._Dense.fits: n² ≤ 16 |E|) reads the number
    of common neighbours of every pair from row panels of A·A, A its exact
    0/1 float32 adjacency matrix, and keeps each pair i < j whose count
    reaches k_shared.

    Any other graph enumerates neighbour pairs: every vertex m contributes
    each pair of its neighbors (i, j), i < j, once: a wedge of
    comm_graph._Csr, the sorted CSR that this and comm_graph.graph_features
    share, built here over both directions of every edge in the graph's own
    numbering (CommGraph.order). So the count of pair (i, j) is its number
    of common neighbors. The wedges are taken grouped by first endpoint:
    arc i -> m opens the wedge of row m whose first arc is m -> i. Each
    block of rows of first endpoints encodes its pairs as ``i * n + j`` and
    counts them sorted in place. A pair comes from exactly one row, hence
    from one block, so counts are never merged across blocks.

    Cost: n³ multiply-adds in BLAS for a dense graph; else the sum over
    vertices of C(deg, 2) pair keys. Memory: the n² float32 cells of A (at
    most 64 B per edge) and one panel; else the neighbor arrays and one
    block of keys (``_BLOCK_KEYS``, or a single larger row, which holds at
    most 2|E| keys). Either way, the pair keys of G*.
    """
    if k_shared < 1:
        raise ValueError("k_shared must be >= 1")
    if not len(g.weights):
        return SnnGraph(g, k_shared, np.empty(0, np.int64))

    order, (a, b) = g.order, g.ends
    n = len(order)
    if _Dense.fits(n, len(a)):
        # a panel's flat index i * n + j is the pair key less lo * n; pairs j > i only
        dense = _Dense(n, a, b)
        pairs = [
            rows.start * n + np.flatnonzero(np.triu(product >= k_shared, rows.start + 1))
            for rows, product in dense.panels()
        ]
        return SnnGraph(g, k_shared, np.concatenate(pairs))
    csr = _Csr(np.sort(np.concatenate([a * n + b, b * n + a])), n)
    reverse = np.searchsorted(csr.arcs, csr.nbr * n + csr.src)  # arc m -> i of each arc i -> m
    pairs = [np.empty(0, np.int64)]
    for keys, _ in csr.wedges(reverse, csr.indptr, _BLOCK_KEYS):
        keys.sort()  # in place: the block is this loop's own
        # the last key of each run of equal keys at least k_shared long: sorted,
        # such a run ends where the key equals the one k_shared - 1 places back
        last = np.empty(len(keys), bool)
        np.not_equal(keys[1:], keys[:-1], out=last[:-1])
        last[-1:] = True
        last[: k_shared - 1] = False
        last[k_shared - 1 :] &= keys[k_shared - 1 :] == keys[: len(keys) - k_shared + 1]
        pairs.append(keys[last])
        del keys, last  # so the next block is not built while this one is held
    # blocks follow ascending first endpoints, so the keys come out sorted
    return SnnGraph(g, k_shared, np.concatenate(pairs))


def extract_clusters(snn: SnnGraph) -> list[Cluster]:
    """Connected components of G* as clusters.

    Ordered by descending size, then by lexicographically smallest member;
    ids C0, C1, ... follow that order. Isolated vertices become singleton
    clusters, so the result partitions the vertex set.

    The components are labelled by hooking on the vertex numbers of
    ``base.order`` (_component_roots), so a component's root is its
    smallest number, which is its lexicographically smallest member.
    Besides G* the memory is a few int64 arrays of its edges and vertices;
    ids are read only to fill the returned clusters.
    """
    order = snn.base.order
    root = _component_roots(len(order), snn.pairs)
    # the ids of each component, the components by ascending root
    names = list(map(order.__getitem__, np.argsort(root, kind="stable").tolist()))
    sizes = np.bincount(root)
    ends = np.cumsum(sizes[sizes > 0]).tolist()
    components = [frozenset(names[lo:hi]) for lo, hi in zip([0, *ends], ends)]
    # a stable sort by descending size keeps equal sizes in ascending root order
    components.sort(key=len, reverse=True)
    return [Cluster(id=f"C{i}", members=members) for i, members in enumerate(components)]


def _component_roots(n: int, pairs: np.ndarray) -> np.ndarray:
    """The smallest vertex number in each vertex's component of the G* pair keys ``pairs``.

    Each round hooks every root onto the smallest root that its edges
    reach, then jumps pointers until every vertex points at its root; it
    stops when no root moves. A root only ever hooks onto a smaller one, so
    the parents stay a forest whose roots are their trees' smallest
    numbers. The edges are read ``_HOOK_KEYS`` at a time: each block's
    smallest reach per root comes from its sorted keys ``hi * n + lo``
    (``np.minimum.at`` is slow before numpy 1.25). An edge inside one tree
    stays inside it, so each round keeps only the edges still between two.
    """
    parent = np.arange(n)
    live = pairs
    while len(live):
        reach = parent.copy()
        apart = np.empty(len(live), bool)
        for lo in range(0, len(live), _HOOK_KEYS):
            first, second = np.divmod(live[lo : lo + _HOOK_KEYS], n)
            first, second = parent[first], parent[second]  # their roots
            cut = np.not_equal(first, second, out=apart[lo : lo + _HOOK_KEYS])
            keys = np.maximum(first[cut], second[cut]) * n + np.minimum(first[cut], second[cut])
            keys.sort()
            roots, smallest = np.divmod(keys[_run_starts(keys // n)], n)
            reach[roots] = np.minimum(reach[roots], smallest)  # roots are distinct within a block
            del first, second, keys  # so the next block is not built while this one is held
        if not apart.all():
            live = live[apart]
        parent = reach
        while not np.array_equal(up := parent[parent], parent):
            parent = up
    return parent


# ---------------------------------------------------------------------------
# lifecycle states
# ---------------------------------------------------------------------------

def assign_state(d: HostDeltas, params: StateParams) -> State:
    """First-matching lifecycle state for one host's window deltas.

    The S2 test compares against ``d.dc_peak``, the largest of the host's
    clustering-change factors from earlier window pairs.
    """
    at_t_star = params.t_star is None or d.window == params.t_star
    if d.dk_ext > 1 and at_t_star:
        return State.S1
    if d.dk_int > d.dk_ext and d.dc_factor > 1.0 and d.dc_factor > d.dc_peak:
        return State.S2
    if d.dk_int > 1 and d.m_v > params.x_threshold:
        return State.S3
    return State.S0


def state_ranks(d: PairDeltas, params: StateParams) -> np.ndarray:
    """The STATE_RANK of assign_state for every host of one pair's deltas, in d.order.

    The same rules as masks, in the same order (S1 with its t_star gate,
    then S2, then S3, else S0); the first that matches a host wins.
    """
    s1 = d.dk_ext > 1
    if params.t_star is not None and d.window != params.t_star:
        s1[:] = False
    s2 = (d.dk_int > d.dk_ext) & (d.dc_factor > 1.0) & (d.dc_factor > d.dc_peak)
    s3 = (d.dk_int > 1) & (d.m_v > params.x_threshold)
    ranks = [STATE_RANK[s] for s in (State.S1, State.S2, State.S3)]
    return np.select([s1, s2, s3], ranks, STATE_RANK[State.S0])


def cluster_state(cluster: Cluster, host_states: Mapping[str, State]) -> State:
    """Most severe member state (S0 < S1 < S2 < S3, as the str values compare)."""
    missing = cluster.members - host_states.keys()
    if missing:
        raise MissingHostStateError(f"no state for cluster member {min(missing)!r}")
    return max(map(host_states.__getitem__, cluster.members))


def member_table(clusters: Sequence[Cluster], vectors: MemberVectors) -> FeatureTable:
    """The normalized rows of every cluster's members, cluster by cluster, each cluster's sorted.

    A Mapping's vectors are put into one table first; a member's row is the
    last of its host. Raw vectors raise UnnormalizedInputError and the first
    member without a vector MissingVectorError.
    """
    hosts = [host for cluster in clusters for host in sorted(cluster.members)]
    table = feature_table(vectors if isinstance(vectors, FeatureTable) else vectors.values(), normalized=True)
    index = {host: row for row, host in enumerate(table.hosts)}
    try:
        rows = np.fromiter(map(index.__getitem__, hosts), np.int64, len(hosts))
    except KeyError as exc:
        raise MissingVectorError(f"no feature vector for cluster member {exc.args[0]!r}") from None
    return FeatureTable(hosts, table.matrix[rows], table.label[rows], True)


def _profiles(clusters: Sequence[Cluster], vectors: MemberVectors) -> list[tuple[float, ...]]:
    """Each cluster's per-feature centroid (arithmetic mean) over its normalized member vectors.

    A cluster's rows, sorted by member, are summed along axis 0: a C-ordered
    block sums a row at a time, in order, as sum() folded floats before
    Python 3.12, so a centroid is one float on every Python version. The
    + 0.0 is sum()'s start of 0: a column of -0.0 sums to 0.0 whatever numpy starts from.
    """
    rows, sizes = member_table(clusters, vectors).matrix, [cluster.size for cluster in clusters]
    ends = np.cumsum([0, *sizes]).tolist()
    sums = (rows[lo:hi].sum(axis=0) + 0.0 for lo, hi in zip(ends, ends[1:]))
    return [tuple((total / size).tolist()) for total, size in zip(sums, sizes)]


def cluster_profile(cluster: Cluster, vectors: MemberVectors) -> tuple[float, ...]:
    """Per-feature centroid (arithmetic mean) over normalized member vectors."""
    return _profiles([cluster], vectors)[0]


def finalize_clusters(
    clusters: Sequence[Cluster], host_states: Mapping[str, State], vectors: MemberVectors
) -> list[Cluster]:
    """Attach states and centroids to extracted clusters."""
    states = [cluster_state(c, host_states) for c in clusters]
    profiles = _profiles(clusters, vectors)
    return [replace(c, state=s, profile=p) for c, s, p in zip(clusters, states, profiles)]


# ---------------------------------------------------------------------------
# cluster report emission
# ---------------------------------------------------------------------------

def clusters_to_obj(clusters: Sequence[Cluster]) -> list[dict]:
    """JSON-ready cluster records."""
    return [
        {
            "id": c.id,
            "size": c.size,
            "state": c.state.value if c.state is not None else None,
            "centroid": dict(zip(FEATURE_ORDER, c.profile)) if c.profile is not None else None,
            "members": sorted(c.members),
        }
        for c in clusters
    ]


def clusters_to_csv(records: Sequence[Mapping]) -> str:
    """One row per clusters_to_obj record: id, size, state, centroid columns, member list.

    A null state or centroid is written as empty cells.
    """
    rows = (
        [
            r["id"],
            r["size"],
            r["state"] or "",
            *(r["centroid"][f] if r["centroid"] is not None else "" for f in FEATURE_ORDER),
            "|".join(r["members"]),
        ]
        for r in records
    )
    return csv_text(["cluster", "size", "state", *FEATURE_ORDER, "members"], rows)
