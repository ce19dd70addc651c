import functools
import operator
import random
import time
import tracemalloc

import numpy as np
import pytest

from minedetect import pipeline, snn_cluster
from minedetect.comm_graph import HostDeltas, PairDeltas, StateParams, build_graph, edge_key
from minedetect.errors import (
    MissingHostStateError,
    MissingVectorError,
    UnnormalizedInputError,
)
from minedetect.flow_model import FEATURE_ORDER, FeatureTable, full_span
from minedetect.snn_cluster import (
    Cluster,
    STATE_RANK,
    State,
    assign_state,
    build_snn_graph,
    cluster_profile,
    cluster_state,
    clusters_to_csv,
    clusters_to_obj,
    extract_clusters,
    state_ranks,
)
from minedetect.synthgen import generate

from oracles import (
    adjacency_sets,
    components_naive,
    random_comm_graph,
    snn_edges_dense_product,
    snn_edges_pairwise_scan,
)
from test_comm_graph import graph_of
from test_flow_model import CAPTURES, make_vector


def k4():
    return graph_of([(f"v{i}", f"v{j}") for i in range(4) for j in range(i + 1, 4)])


def path4():
    return graph_of([("1", "2"), ("2", "3"), ("3", "4")])


# ---------------------------------------------------------------------------
# G*
# ---------------------------------------------------------------------------

def test_build_snn_graph_examples():
    snn = build_snn_graph(k4(), 2)
    assert len(snn.edges) == 6  # K4 again

    snn = build_snn_graph(path4(), 1)
    assert snn.edges == frozenset({("1", "3"), ("2", "4")})
    assert snn.pairs.tolist() == [0 * 4 + 2, 1 * 4 + 3]  # keys i * n + j of the numbers
    assert snn == build_snn_graph(path4(), 1) != build_snn_graph(path4(), 2)

    g = path4()
    assert build_snn_graph(g, len(g.vertices) - 1).edges == frozenset()

    with pytest.raises(ValueError):
        build_snn_graph(g, 0)


def test_build_snn_graph_matches_pairwise_scan():
    rng = random.Random(9)
    for _ in range(40):
        g = random_comm_graph(rng, rng.randint(2, 50), rng.uniform(0.05, 0.5))
        k = rng.randint(1, 4)
        assert build_snn_graph(g, k).edges == frozenset(snn_edges_pairwise_scan(g, k))


def test_snn_graph_holds_sorted_pair_keys_and_spells_edges_on_first_access():
    rng = random.Random(13)
    for _ in range(20):
        g = random_comm_graph(rng, rng.randint(2, 40), rng.uniform(0.1, 0.5))
        k = rng.randint(1, 3)
        snn = build_snn_graph(g, k)
        assert snn.pairs.dtype == np.int64 and (np.diff(snn.pairs) > 0).all()
        assert "edges" not in vars(snn)
        assert snn.edges == frozenset(snn_edges_pairwise_scan(g, k))
        assert snn.edges is snn.edges  # built once
        # equal graphs compare equal whether or not their edges were spelled
        assert snn == build_snn_graph(g, k)


def test_raising_k_shared_never_adds_edges():
    rng = random.Random(31)
    for _ in range(10):
        g = random_comm_graph(rng, 40, 0.25)
        previous = build_snn_graph(g, 1).edges
        for k in range(2, 6):
            current = build_snn_graph(g, k).edges
            assert current <= previous
            previous = current


def full_span_graph(config):
    flows, _ = generate(config)
    return build_graph(flows, full_span(flows))


@pytest.mark.parametrize("config", CAPTURES)
def test_build_snn_graph_matches_dense_product_on_captures(config):
    g = full_span_graph(config)
    for k in range(1, 7):
        assert build_snn_graph(g, k).edges == frozenset(snn_edges_dense_product(g, k))


def first_endpoint_rows(g):
    """Pair keys per first endpoint i: one per neighbor m of i and neighbor j > i of m."""
    adj = adjacency_sets(g)
    return {i: sum(1 for m in adj[i] for j in adj[m] if j > i) for i in adj}


def test_build_snn_graph_blocks_split_rows(monkeypatch):
    block = 6
    monkeypatch.setattr(snn_cluster, "_BLOCK_KEYS", block)
    sizes = []
    wedges = snn_cluster._Csr.wedges

    def recording_wedges(*args, **kwargs):
        for keys, second in wedges(*args, **kwargs):
            sizes.append(len(keys))
            yield keys, second

    monkeypatch.setattr(snn_cluster._Csr, "wedges", recording_wedges)
    rng = random.Random(23)
    for _ in range(30):
        g = random_comm_graph(rng, rng.randint(12, 30), rng.uniform(0.3, 0.6))
        rows = first_endpoint_rows(g)
        assert sum(rows.values()) > 3 * block  # rows span several blocks
        assert max(rows.values()) > block  # one row alone exceeds a block
        sizes.clear()
        for k in range(1, 5):
            expected = frozenset(snn_edges_dense_product(g, k))
            assert expected == frozenset(snn_edges_pairwise_scan(g, k))
            assert build_snn_graph(g, k).edges == expected
        # each key is counted once, and no buffer exceeds a block or one row
        assert sum(sizes) == 4 * sum(rows.values())
        assert max(sizes) <= max(block, max(rows.values()))


def test_build_snn_graph_hub_and_ring_memory_follows_edges():
    # The dense product would need n^2 cells: 400M for the ring, 9M for the
    # star. Pair enumeration keeps the neighbor arrays, one block of keys
    # (a few int64 buffers of 2^15 keys) and G*; counting the star's 4.5M
    # pair keys in one buffer would take about 200 MiB.
    block_bytes = 4 * 2**20

    def traced(g, k):
        tracemalloc.start()
        try:
            snn = build_snn_graph(g, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block_bytes + 256 * (len(g.edge_weight) + len(snn.edges))
        return snn.edges

    n = 20_000
    ring = graph_of([(f"r{i:05d}", f"r{(i + 1) % n:05d}") for i in range(n)])
    assert traced(ring, 1) == frozenset(
        edge_key(f"r{i:05d}", f"r{(i + 2) % n:05d}") for i in range(n)
    )
    assert traced(ring, 2) == frozenset()

    leaves = 3000
    star = graph_of([("hub", f"leaf{i:04d}") for i in range(leaves)])
    degrees = [len(ns) for ns in adjacency_sets(star).values()]
    assert sum(d * (d - 1) // 2 for d in degrees) == 4_498_500  # pair keys, all from the hub
    assert traced(star, 2) == frozenset()


# ---------------------------------------------------------------------------
# cluster extraction
# ---------------------------------------------------------------------------

def cluster_members(clusters):
    """Member sets in cluster order, after checking the ids follow it."""
    assert [c.id for c in clusters] == [f"C{i}" for i in range(len(clusters))]
    return [c.members for c in clusters]


def test_extract_clusters_matches_component_walk_on_random_graphs():
    rng = random.Random(41)
    for _ in range(60):
        g = random_comm_graph(rng, rng.randint(1, 80), rng.uniform(0, 0.3))
        for k in range(1, 5):
            expected = components_naive(g.vertices, snn_edges_pairwise_scan(g, k))
            assert cluster_members(extract_clusters(build_snn_graph(g, k))) == expected


@pytest.mark.parametrize("config", CAPTURES)
def test_extract_clusters_matches_component_walk_on_captures(config):
    g = full_span_graph(config)
    for k in (1, 2, 3, 5, 8):
        snn = build_snn_graph(g, k)
        assert cluster_members(extract_clusters(snn)) == components_naive(g.vertices, snn.edges)


def test_extract_clusters_on_stars():
    leaves = 3000
    star = graph_of([("hub", f"leaf{i:04d}") for i in range(leaves)])
    clusters = extract_clusters(build_snn_graph(star, 2))  # no two leaves share 2 neighbours
    assert cluster_members(clusters) == components_naive(star.vertices, ())
    assert [min(c.members) for c in clusters] == sorted(star.vertices)

    small = graph_of([("hub", f"leaf{i:03d}") for i in range(300)])
    snn = build_snn_graph(small, 1)  # every two leaves share the hub
    assert len(snn.pairs) == 300 * 299 // 2
    clusters = extract_clusters(snn)
    assert cluster_members(clusters) == components_naive(small.vertices, snn.edges)
    assert [c.size for c in clusters] == [300, 1]


def test_extract_clusters_on_a_randomly_numbered_path():
    # Vertex numbers follow sorted ids, so shuffled ids number the path at
    # random; min-label propagation would need thousands of rounds here.
    n = 100_000
    ids = [f"p{i:06d}" for i in range(n)]
    random.Random(5).shuffle(ids)
    g = graph_of(zip(ids, ids[1:]))
    snn = build_snn_graph(g, 1)  # joins each vertex to the one two steps on: two paths
    started = time.perf_counter()
    clusters = extract_clusters(snn)
    elapsed = time.perf_counter() - started
    assert cluster_members(clusters) == components_naive(g.vertices, snn.edges)
    assert [c.size for c in clusters] == [n // 2, n // 2]
    assert elapsed < 5.0, f"extract_clusters took {elapsed:.2f} s on a {n}-vertex path"


def test_cluster_hosts_memory_per_snn_edge():
    # 40 stars of 100 leaves: each star's leaves form a clique of G*, 198,000
    # edges from 4,000. G* is kept as 8 B pair keys (16 B while they are
    # joined), never as id tuples or adjacency sets (about 200 B per edge).
    stars, leaves = 40, 100
    g = graph_of([(f"s{s:02d}", f"s{s:02d}l{i:03d}") for s in range(stars) for i in range(leaves)])
    snn_edges = stars * leaves * (leaves - 1) // 2
    tracemalloc.start()
    try:
        clusters = pipeline.cluster_hosts(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.size for c in clusters] == [leaves] * stars + [1] * stars
    assert peak < 4 * 2**20 + 128 * (len(g.vertices) + len(g.edge_weight)) + 24 * snn_edges

def test_extract_clusters_edgeless_gives_singletons():
    g = graph_of([], extra_vertices=["a", "b", "c"])
    clusters = extract_clusters(build_snn_graph(g, 1))
    assert [c.size for c in clusters] == [1, 1, 1]
    assert [c.id for c in clusters] == ["C0", "C1", "C2"]


def test_extract_clusters_from_path_snn():
    clusters = extract_clusters(build_snn_graph(path4(), 1))
    assert sorted(sorted(c.members) for c in clusters) == [["1", "3"], ["2", "4"]]


def test_extract_clusters_connected_graph_single_cluster():
    clusters = extract_clusters(build_snn_graph(k4(), 1))
    assert len(clusters) == 1
    assert clusters[0].members == frozenset({"v0", "v1", "v2", "v3"})


def test_clusters_partition_vertices_and_order_deterministically():
    rng = random.Random(17)
    for _ in range(20):
        g = random_comm_graph(rng, rng.randint(1, 60), rng.uniform(0, 0.3))
        clusters = extract_clusters(build_snn_graph(g, rng.randint(1, 3)))
        seen = [m for c in clusters for m in c.members]
        assert len(seen) == len(set(seen)) == len(g.vertices)
        sizes = [c.size for c in clusters]
        assert sizes == sorted(sizes, reverse=True)
        # equal-size clusters ordered by smallest member
        for a, b in zip(clusters, clusters[1:]):
            if a.size == b.size:
                assert min(a.members) < min(b.members)


# ---------------------------------------------------------------------------
# state machine
# ---------------------------------------------------------------------------

def deltas(dk_ext=0, dk_int=0, dc=1.0, history=(), m_v=0, window=1):
    """HostDeltas whose earlier dc factors were ``history``."""
    return HostDeltas(
        host="h",
        dk_ext=dk_ext,
        dk_int=dk_int,
        dc_factor=dc,
        dc_peak=max(history, default=0.0),
        m_v=m_v,
        window=window,
    )


def test_assign_state_quiet_host_is_s0():
    assert assign_state(deltas(), StateParams()) is State.S0


def test_assign_state_s1_first_match_wins():
    d = deltas(dk_ext=3, dk_int=10, dc=5.0, m_v=100)
    assert assign_state(d, StateParams()) is State.S1


def test_assign_state_s2_and_s3_branches():
    p = StateParams(x_threshold=5)
    d2 = deltas(dk_ext=0, dk_int=2, dc=1.5, history=[1.0, 1.2])
    assert assign_state(d2, p) is State.S2
    # same shape but coefficient fell and mining volume is high -> S3
    d3 = deltas(dk_ext=0, dk_int=2, dc=0.9, history=[1.0, 1.2], m_v=50)
    assert assign_state(d3, p) is State.S3


def test_assign_state_s2_requires_strict_history_max():
    p = StateParams()
    d = deltas(dk_int=2, dc=1.5, history=[1.5])
    assert assign_state(d, p) is not State.S2
    d = deltas(dk_int=2, dc=1.6, history=[1.5])
    assert assign_state(d, p) is State.S2


def test_assign_state_t_star_gates_s1():
    p = StateParams(t_star=3)
    d = deltas(dk_ext=2, window=1)
    assert assign_state(d, p) is State.S0
    d = deltas(dk_ext=2, window=3)
    assert assign_state(d, p) is State.S1


def test_assign_state_exactly_one_branch_fires():
    # independent re-derivation of the rule table on random deltas
    rng = random.Random(19)
    p = StateParams(x_threshold=5)
    for _ in range(500):
        history = [rng.choice([0.0, 0.5, 1.0, 1.5]) for _ in range(rng.randint(0, 4))]
        d = deltas(
            dk_ext=rng.randint(-3, 4),
            dk_int=rng.randint(-3, 6),
            dc=rng.choice([0.0, 0.5, 1.0, 1.2, 2.0, 1000.0]),
            history=history,
            m_v=rng.randint(0, 12),
        )
        if d.dk_ext > 1:
            expected = State.S1
        elif d.dk_int > d.dk_ext and d.dc_factor > 1.0 and (
            not history or d.dc_factor > max(history)
        ):
            expected = State.S2
        elif d.dk_int > 1 and d.m_v > p.x_threshold:
            expected = State.S3
        else:
            expected = State.S0
        assert assign_state(d, p) is expected


def boundary_deltas(rng, n, window, x_threshold):
    """A PairDeltas of n hosts whose values sit on and around every threshold of the rules."""
    dk_ext = [rng.choice([-1, 0, 1, 2, 3]) for _ in range(n)]
    # dk_int equal to dk_ext for a third of the hosts
    dk_int = [e if rng.random() < 1 / 3 else rng.choice([-1, 0, 1, 2, 3]) for e in dk_ext]
    factors = [0.0, 0.5, 1.0, 1.5, 2.0, 1000.0]
    dc_factor = [rng.choice(factors) for _ in range(n)]
    # dc_peak equal to dc_factor for a third of the hosts
    dc_peak = [f if rng.random() < 1 / 3 else rng.choice(factors) for f in dc_factor]
    m_v = [x_threshold + rng.choice([-1, 0, 1]) for _ in range(n)]
    order = [f"h{i:03d}" for i in range(n)]
    return PairDeltas(
        order, np.array(dk_ext), np.array(dk_int), np.array(dc_factor), np.array(dc_peak),
        np.array(m_v), window,
    )


@pytest.mark.parametrize("t_star", [None, 0, 2])
def test_state_ranks_equal_assign_state_host_by_host_at_every_boundary(t_star):
    rng = random.Random(23 if t_star is None else t_star)
    seen = set()
    for window in range(4):
        for x_threshold in (1, 5):
            p = StateParams(x_threshold=x_threshold, t_star=t_star)
            d = boundary_deltas(rng, 300, window, x_threshold)
            expected = [STATE_RANK[assign_state(d[h], p)] for h in d]
            assert state_ranks(d, p).tolist() == expected
            seen.update(expected)
            # each boundary value occurs, so the rules are tested on both sides of it
            hosts = d.values()
            assert {h.dk_ext for h in hosts} >= {1, 2}
            assert any(h.dk_int == h.dk_ext for h in hosts)
            assert any(h.dc_factor == h.dc_peak for h in hosts)
            assert any(h.dc_factor == 1.0 for h in hosts)
            assert any(h.m_v == x_threshold for h in hosts)
    assert seen == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# cluster state / profile
# ---------------------------------------------------------------------------

def test_cluster_state_max_rule():
    c = Cluster(id="C0", members=frozenset({"a", "b", "c"}))
    assert cluster_state(c, {"a": State.S0, "b": State.S0, "c": State.S0}) is State.S0
    assert cluster_state(c, {"a": State.S0, "b": State.S1, "c": State.S3}) is State.S3

    single = Cluster(id="C1", members=frozenset({"z"}))
    assert cluster_state(single, {"z": State.S2}) is State.S2

    # of the missing members b and c, the smallest is named, whatever the set order
    with pytest.raises(MissingHostStateError, match="member 'b'$"):
        cluster_state(c, {"a": State.S0})


def test_cluster_profile_mean_and_errors():
    a = normalize_vec(make_vector(host="a", bpp=20.0))
    b = normalize_vec(make_vector(host="b", bpp=80.0))
    c = Cluster(id="C0", members=frozenset({"a", "b"}))
    profile = cluster_profile(c, {"a": a, "b": b})
    assert profile[FEATURE_ORDER.index("bpp")] == pytest.approx((a.bpp + b.bpp) / 2)

    single = Cluster(id="C1", members=frozenset({"a"}))
    assert cluster_profile(single, {"a": a}) == a.values()

    with pytest.raises(MissingVectorError):
        cluster_profile(c, {"a": a})
    with pytest.raises(UnnormalizedInputError):
        cluster_profile(single, {"a": make_vector(host="a")})


def normalize_vec(v):
    from minedetect.flow_model import fit_normalizer, normalize

    params = fit_normalizer([make_vector(host="lo", bpp=0.0, ppm=0.0, ppf=0.0),
                             make_vector(host="hi", bpp=100.0, ppm=100.0, ppf=100.0)])
    return normalize(v, params)


def test_registration_heavy_cluster_profile_shape():
    # a cluster of hosts hammering the pool with connection requests shows
    # a dominant syn_all centroid
    members = {}
    for i in range(4):
        members[f"m{i}"] = normalize_vec(
            make_vector(host=f"m{i}", syn_all=0.96 + 0.01 * (i % 3), ackpush_all=0.02)
        )
    c = Cluster(id="C4", members=frozenset(members))
    profile = cluster_profile(c, members)
    assert profile[FEATURE_ORDER.index("syn_all")] > 0.9


def test_clusters_to_csv_shape():
    a = normalize_vec(make_vector(host="a"))
    c = Cluster(id="C0", members=frozenset({"a"}), state=State.S1, profile=a.values())
    text = clusters_to_csv(clusters_to_obj([c]))
    lines = text.splitlines()
    assert lines[0] == "cluster,size,state," + ",".join(FEATURE_ORDER) + ",members"
    assert lines[1].startswith("C0,1,S1,")


def test_clusters_to_csv_writes_null_state_and_centroid_as_empty_cells():
    c = Cluster(id="C0", members=frozenset({"b", "a"}))
    (record,) = clusters_to_obj([c])
    assert record["state"] is None and record["centroid"] is None
    assert clusters_to_csv([record]).splitlines()[1] == "C0,2,," + "," * len(FEATURE_ORDER) + "a|b"


def sequential_centroid(rows):
    """Per-feature mean of the rows, each column summed one float at a time from 0, in order."""
    return tuple(functools.reduce(operator.add, column, 0) / len(rows) for column in zip(*rows))


# numpy sums a contiguous run in blocks of 8 and pairwise from 128 on: its edges
@pytest.mark.parametrize("m", [1, 7, 8, 9, 127, 128, 129, 1000])
@pytest.mark.parametrize("order", ["C", "F"])
def test_centroids_fold_member_rows_in_sorted_order(m, order):
    rng = np.random.default_rng(m)
    matrix = rng.random((m + 3, len(FEATURE_ORDER)))
    matrix[:, 2] = rng.random(m + 3) ** 40  # values far apart in size, which rounding tells apart
    matrix[:, 5] = -0.0  # Python's sum() starts at 0, so a column of -0.0 sums to 0.0
    hosts = [f"h{i:04d}" for i in rng.permutation(m + 3)]  # rows not in host order
    table = FeatureTable(hosts, np.asarray(matrix, order=order), [2] * (m + 3), normalized=True)
    members = sorted(hosts)[:m]
    expected = sequential_centroid([matrix[hosts.index(h)].tolist() for h in members])
    cluster = Cluster(id="C0", members=frozenset(members))
    profile = cluster_profile(cluster, table)
    assert list(map(repr, profile)) == list(map(repr, expected))
    (done,) = snn_cluster.finalize_clusters([cluster], {h: State.S0 for h in members}, table)
    assert done.profile == profile
