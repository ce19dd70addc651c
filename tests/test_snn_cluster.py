import random

import pytest

from minedetect.comm_graph import HostDeltas, StateParams
from minedetect.errors import (
    MissingHostStateError,
    MissingVectorError,
    SameVertexError,
    UnknownVertexError,
    UnnormalizedInputError,
)
from minedetect.flow_model import FEATURE_ORDER
from minedetect.snn_cluster import (
    Cluster,
    State,
    assign_state,
    build_snn_graph,
    cluster_profile,
    cluster_state,
    clusters_to_csv,
    extract_clusters,
    shared_neighbors,
)

from oracles import random_comm_graph, snn_edges_pairwise_scan
from test_comm_graph import graph_of
from test_flow_model import make_vector


def k4():
    return graph_of([(f"v{i}", f"v{j}") for i in range(4) for j in range(i + 1, 4)])


def path4():
    return graph_of([("1", "2"), ("2", "3"), ("3", "4")])


# ---------------------------------------------------------------------------
# shared neighbors / G*
# ---------------------------------------------------------------------------

def test_shared_neighbors_cases():
    g = graph_of([("a", "b")], extra_vertices=["c"])
    assert shared_neighbors(g, "a", "c") == 0

    for i in range(4):
        for j in range(i + 1, 4):
            assert shared_neighbors(k4(), f"v{i}", f"v{j}") == 2

    p = path4()
    assert shared_neighbors(p, "1", "3") == 1
    assert shared_neighbors(p, "1", "2") == 0


def test_shared_neighbors_errors_and_symmetry():
    g = path4()
    with pytest.raises(SameVertexError):
        shared_neighbors(g, "1", "1")
    with pytest.raises(UnknownVertexError):
        shared_neighbors(g, "1", "ghost")
    rng = random.Random(42)
    gg = random_comm_graph(rng, 25, 0.2)
    vs = sorted(gg.vertices)
    for _ in range(50):
        i, j = rng.sample(vs, 2)
        assert shared_neighbors(gg, i, j) == shared_neighbors(gg, j, i)


def test_build_snn_graph_examples():
    snn = build_snn_graph(k4(), 2)
    assert len(snn.edges) == 6  # K4 again

    snn = build_snn_graph(path4(), 1)
    assert snn.edges == frozenset({("1", "3"), ("2", "4")})

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


def test_raising_k_shared_never_adds_edges():
    rng = random.Random(31)
    for _ in range(10):
        g = random_comm_graph(rng, 40, 0.25)
        previous = build_snn_graph(g, 1).edges
        for k in range(2, 6):
            current = build_snn_graph(g, k).edges
            assert current <= previous
            previous = current


# ---------------------------------------------------------------------------
# cluster extraction
# ---------------------------------------------------------------------------

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
    return HostDeltas(
        host="h",
        dk_ext=dk_ext,
        dk_int=dk_int,
        dc_factor=dc,
        dc_history=tuple(history),
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
        d = deltas(
            dk_ext=rng.randint(-3, 4),
            dk_int=rng.randint(-3, 6),
            dc=rng.choice([0.0, 0.5, 1.0, 1.2, 2.0, 1000.0]),
            history=[rng.choice([0.5, 1.0, 1.5]) for _ in range(rng.randint(0, 4))],
            m_v=rng.randint(0, 12),
        )
        if d.dk_ext > 1:
            expected = State.S1
        elif d.dk_int > d.dk_ext and d.dc_factor > 1.0 and (
            not d.dc_history or d.dc_factor > max(d.dc_history)
        ):
            expected = State.S2
        elif d.dk_int > 1 and d.m_v > p.x_threshold:
            expected = State.S3
        else:
            expected = State.S0
        assert assign_state(d, p) is expected


# ---------------------------------------------------------------------------
# cluster state / profile
# ---------------------------------------------------------------------------

def test_cluster_state_max_rule():
    c = Cluster(id="C0", members=frozenset({"a", "b", "c"}))
    assert cluster_state(c, {"a": State.S0, "b": State.S0, "c": State.S0}) is State.S0
    assert cluster_state(c, {"a": State.S0, "b": State.S1, "c": State.S3}) is State.S3

    single = Cluster(id="C1", members=frozenset({"z"}))
    assert cluster_state(single, {"z": State.S2}) is State.S2

    with pytest.raises(MissingHostStateError):
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
    text = clusters_to_csv([c])
    lines = text.splitlines()
    assert lines[0] == "cluster,size,state," + ",".join(FEATURE_ORDER) + ",members"
    assert lines[1].startswith("C0,1,S1,")
