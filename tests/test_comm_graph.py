import collections
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from minedetect import comm_graph
from minedetect.comm_graph import (
    CommGraph,
    HostDeltas,
    HostGraphFeatures,
    MiningFingerprint,
    StateParams,
    build_graph,
    clustering_coefficient,
    edge_key,
    graph_features,
    graph_to_text,
    mining_volume,
    window_deltas,
    window_snapshots,
)
from minedetect.errors import InvalidConfigError, UnknownVertexError
from minedetect.flow_model import Protocol, full_span
from minedetect.synthgen import ScenarioConfig, generate

from oracles import (
    adjacency_sets,
    check_edges_naive,
    edge_index_naive,
    clustering_fraction,
    dc_change_factor,
    fingerprint_match_brute,
    gapped_capture,
    random_comm_graph,
    triangles_brute,
    window_deltas_naive,
)
from test_flow_model import make_flow


def graph_of(edges, extra_vertices=(), timestamp=0):
    vertices = set(extra_vertices)
    weights = {}
    for a, b in edges:
        vertices.update((a, b))
        weights[edge_key(a, b)] = 1
    return CommGraph(frozenset(vertices), weights, timestamp)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_build_empty():
    g = build_graph([], (0.0, 60.0))
    assert g.vertices == frozenset()
    assert g.edge_weight == {}


def test_build_counts_weights():
    flows = [
        make_flow(src_host="h1", dst_host="h2"),
        make_flow(src_host="h2", dst_host="h1"),
        make_flow(src_host="h1", dst_host="h2"),
        make_flow(src_host="h2", dst_host="h3"),
    ]
    g = build_graph(flows, (0.0, 60.0))
    assert g.vertices == frozenset({"h1", "h2", "h3"})
    assert g.edge_weight[edge_key("h1", "h2")] == 3
    assert g.edge_weight[edge_key("h2", "h3")] == 1


def test_build_ignores_loopback_flow():
    g = build_graph([make_flow(src_host="h1", dst_host="h1")], (0.0, 60.0))
    assert g.vertices == frozenset({"h1"})
    assert g.edge_weight == {}


def test_build_window_filters_by_start_time():
    flows = [make_flow(start_time=10.0, end_time=20.0), make_flow(start_time=70.0, end_time=80.0)]
    g = build_graph(flows, (0.0, 60.0))
    assert g.edge_weight[edge_key("h1", "h2")] == 1


def naive_windows(flows, length):
    """Every aligned window from the first start to the last, by plain filtering."""
    first = int(min(f.start_time for f in flows) // length)
    last = int(max(f.start_time for f in flows) // length)
    windows = []
    for i in range(first, last + 1):
        lo, hi = i * length, (i + 1) * length
        windows.append(([f for f in flows if lo <= f.start_time < hi], (lo, hi)))
    return windows


@pytest.mark.parametrize("seed", range(8))
def test_window_snapshots_match_naive_filter(seed):
    rng = random.Random(seed)
    length = rng.choice([7.5, 10.0, 60.0])
    # the first window has index 4 and window 6 stays empty; two flows sit
    # exactly on window edges
    starts = [4 * length, 7 * length] + [
        rng.choice([rng.uniform(4 * length, 6 * length), rng.uniform(7 * length, 10 * length)])
        for _ in range(rng.randint(20, 60))
    ]
    hosts = [f"h{i}" for i in range(6)]
    flows = [
        make_flow(
            src_host=rng.choice(hosts), dst_host=rng.choice(hosts), start_time=t, end_time=t + 1.0
        )
        for t in starts
    ]
    snapshots = list(window_snapshots(flows, length))
    # only a window that holds a flow gets a snapshot; its timestamp stays its index
    expected = [
        (timestamp, naive_flows, naive_span)
        for timestamp, (naive_flows, naive_span) in enumerate(naive_windows(flows, length))
        if naive_flows
    ]
    assert len(snapshots) == len(expected)
    for (g, in_window, span), (timestamp, naive_flows, naive_span) in zip(snapshots, expected):
        assert span == naive_span
        assert in_window == naive_flows
        assert g.timestamp == timestamp
        assert g.vertices == {h for f in naive_flows for h in (f.src_host, f.dst_host)}
        assert g.edge_weight == build_graph(naive_flows, naive_span).edge_weight
    assert snapshots[0][2][0] == 4 * length
    # window 6 is empty: the timestamps jump from 1 to 3
    assert [g.timestamp for g, _, _ in snapshots][1:3] == [1, 3]
    assert sum(len(in_window) for _, in_window, _ in snapshots) == len(flows)


@pytest.mark.parametrize(
    "starts",
    [
        # 1.7 / 0.1 rounds to 17.0, but 17 * 0.1 > 1.7: 1.7 sits in window 16
        [1.7, 1.75],
        # 4.3 / 0.1 rounds below 43, but 43 * 0.1 == 4.3: 4.3 sits in window 43
        [4.25, 4.3],
    ],
)
def test_window_snapshots_keep_flows_whose_index_division_rounds(starts):
    flows = [make_flow(start_time=t, end_time=t + 1.0) for t in starts]
    snapshots = list(window_snapshots(flows, 0.1))
    assert [in_window for _, in_window, _ in snapshots] == [[flows[0]], [flows[1]]]
    for g, in_window, (lo, hi) in snapshots:
        assert all(lo <= f.start_time < hi for f in in_window)
        assert g.edge_weight == {edge_key("h1", "h2"): 1}


@pytest.mark.parametrize(
    "start, length",
    [(1.7e12, 1e-12), (1.7e12, 1e-9), (1e300, 1e-10), (-1e300, 1e-10), (2.0**53, 1.0)],
)
def test_window_snapshots_reject_a_start_2_53_windows_from_0(start, length):
    flows = [make_flow(start_time=0.0, end_time=1.0), make_flow(start_time=start, end_time=start)]
    with pytest.raises(ValueError) as exc:
        window_snapshots(flows, length)
    assert str(exc.value) == f"start time {start!r} is 2**53 or more windows of {length!r} s from 0"


# a negative length once sent the index correction into an endless loop,
# and 0 or NaN raised the 2**53 refusal for the first start time
@pytest.mark.parametrize("length", [-60.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
def test_window_snapshots_refuse_a_length_not_finite_and_above_0(length):
    flows = [make_flow(start_time=5.0, end_time=6.0), make_flow(start_time=70.0, end_time=71.0)]
    with pytest.raises(ValueError, match=r"^window length must be finite and > 0$"):
        window_snapshots(flows, length)


def test_window_snapshots_of_an_empty_capture_yield_nothing():
    assert list(window_snapshots([], 60.0)) == []


def test_window_snapshots_keep_a_start_just_below_2_53_windows():
    start = 2.0**53 - 1
    [(g, _, (lo, hi))] = window_snapshots([make_flow(start_time=start, end_time=start)], 1.0)
    assert (lo, hi) == (start, start + 1) and g.timestamp == 0


@pytest.mark.parametrize(
    "vertices, weights, message",
    [
        ({"a"}, {("a", "a"): 1}, "self-loop"),
        ({"a", "b"}, {("b", "a"): 1}, "not in canonical order"),
        ({"a"}, {("a", "b"): 1}, "endpoint outside vertex set"),
        ({"a", "b"}, {("a", "b"): 0}, "weight 0 < 1"),
    ({"a", "b"}, {("a", "b"): 1.5}, "weight 1.5 is not an int64"),
    ({"a", "b"}, {("a", "b"): math.nan}, "weight nan is not an int64"),
    ({"a", "b"}, {("a", "b"): 2**63}, "weight 9223372036854775808 is not an int64"),
    ],
    ids=["self-loop", "order", "endpoint", "weight", "fraction", "nan", "too-large"],
)
def test_graph_rejects_each_malformed_edge(vertices, weights, message):
    with pytest.raises(ValueError, match=message):
        CommGraph(frozenset(vertices), weights)


def test_built_graphs_equal_validated_graphs():
    flows, _ = generate(ScenarioConfig(seed=9, n_hosts=30, ring_degree=4, n_windows=4,
                                       recruitment_schedule=(0, 3, 2)))
    windows = [g for g, _, _ in window_snapshots(flows, 60.0)]
    built = [*windows, build_graph(flows, full_span(flows))]
    assert len(windows) > 1
    for g in built:
        assert g == CommGraph(g.vertices, g.edge_weight, g.timestamp)
        assert sum(f.k for f in graph_features(g).values()) == 2 * len(g.edge_weight)


def _planted_edges(rng):
    """A small random graph, as (vertices, edge_weight), with 0-3 planted defects.

    Each defect is one of: a self-loop, a reversed pair, an endpoint outside
    the vertex set, a weight of 0 or below, a one-cell key and a three-cell
    key. It goes to a random place in the dict order.
    """
    vertices = [f"v{i}" for i in range(rng.randint(1, 9))]
    items = [
        ((a, b), rng.randint(1, 4))
        for i, a in enumerate(vertices)
        for b in vertices[i + 1 :]
        if rng.random() < 0.4
    ]
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        a, b = sorted(rng.sample(vertices, 2)) if len(vertices) > 1 else (vertices[0], "w")
        defect = rng.choice((
            ((a, a), 1),
            ((b, a), 1),
            (rng.choice(((a, "zz"), ("_x", a), ("_x", "zz"))), 1),
            ((a, b), rng.choice((0, -2))),
            ((a,), 1),
            ((a, b, "v0"), 1),
        ))
        items.insert(rng.randint(0, len(items)), defect)
    return frozenset(vertices), dict(items)


@pytest.mark.parametrize("seed", range(300))
def test_graph_checks_agree_with_the_per_edge_oracle(seed):
    vertices, weights = _planted_edges(random.Random(seed))
    try:
        check_edges_naive(vertices, weights)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            CommGraph(vertices, weights)
        assert str(got.value) == str(exc)
        return
    g = CommGraph(vertices, weights)
    order, a, b = edge_index_naive(vertices, weights)
    assert g.order == order
    assert g.ends.tolist() == [a, b]


def test_planted_graphs_reach_every_check():
    kinds = collections.Counter()
    for seed in range(300):
        try:
            check_edges_naive(*_planted_edges(random.Random(seed)))
            kinds["valid"] += 1
        except ValueError as exc:
            # names, weights and the unpack counts (worded by Python version) read "_"
            kinds[re.sub(r"'[^']*'|-?\d+ <| \(expected.*", "_", str(exc))] += 1
    assert set(kinds) == {
        "valid",
        "self-loop on _",
        "edge (_, _) not in canonical order",
        "edge (_, _) endpoint outside vertex set",
        "edge (_, _) weight _ 1",
        "not enough values to unpack_",
        "too many values to unpack_",
    }
    assert min(kinds.values()) >= 10


# ---------------------------------------------------------------------------
# degree and clustering coefficient
# ---------------------------------------------------------------------------

def test_degree_cases():
    star = graph_features(graph_of([("c", f"l{i}") for i in range(4)], extra_vertices=["lonely"]))
    assert star["lonely"].k == 0
    assert star["c"].k == 4

    k5 = graph_features(graph_of([(f"v{i}", f"v{j}") for i in range(5) for j in range(i + 1, 5)]))
    assert [f.k for f in k5.values()] == [4] * 5


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(5)
    for _ in range(20):
        g = random_comm_graph(rng, rng.randint(1, 80), rng.uniform(0, 0.3))
        assert sum(f.k for f in graph_features(g).values()) == 2 * len(g.edge_weight)


def test_clustering_triangle_and_star():
    triangle = graph_of([("a", "b"), ("b", "c"), ("a", "c")])
    assert clustering_coefficient(triangle, "a") == 1.0

    star = graph_of([("c", f"l{i}") for i in range(4)])
    assert clustering_coefficient(star, "c") == 0.0
    assert clustering_coefficient(star, "l0") == 0.0  # degree 1

    with pytest.raises(UnknownVertexError):
        clustering_coefficient(star, "ghost")


def test_clustering_one_third():
    g = graph_of([("v", "a"), ("v", "b"), ("v", "c"), ("a", "b")])
    assert clustering_coefficient(g, "v") == pytest.approx(1.0 / 3.0)


# ---------------------------------------------------------------------------
# graph_features: the degree-ordered triangle pass
# ---------------------------------------------------------------------------

def clique_and_hub(size=120):
    members = [f"m{i:03d}" for i in range(size)]
    edges = [(a, b) for i, a in enumerate(members) for b in members[i + 1 :]]
    return graph_of(edges + [("hub", m) for m in members])


def star(leaves=3000):
    return graph_of([("hub", f"leaf{i:04d}") for i in range(leaves)])


def out_degrees(g):
    """d+(v) of every vertex, with every edge oriented to its higher (degree, id) end."""
    adj = adjacency_sets(g)
    rank = {v: (len(adj[v]), v) for v in adj}
    return [sum(1 for u in adj[v] if rank[u] > rank[v]) for v in adj]


def out_degree_wedges(g):
    """Σ C(d+(v), 2)."""
    return sum(d * (d - 1) // 2 for d in out_degrees(g))


def assert_features_match_oracle(g):
    features = graph_features(g)
    assert list(features) == sorted(g.vertices)
    adj = adjacency_sets(g)
    for v, f in features.items():
        k, t = len(adj[v]), triangles_brute(adj, v)
        assert (f.host, f.k) == (v, k)
        assert f.c == (0.0 if k < 2 else 2.0 * t / (k * (k - 1)))
        assert f.c == float(clustering_fraction(k, t))
    assert sum(f.k for f in features.values()) == 2 * len(g.edge_weight)


def tie_graph():
    # every vertex of the two 4-cycles has degree 2, and each triangle's
    # corners share a degree too; one chord gives two degree-3 vertices
    cycles = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("p", "q"), ("q", "r"), ("r", "s"), ("s", "p")]
    triangles = [("t1", "t2"), ("t2", "t3"), ("t1", "t3"), ("u1", "u2"), ("u2", "u3"), ("u1", "u3")]
    return graph_of(cycles + triangles + [("a", "c")])


GRAPH_CASES = {
    "clique-and-hub": clique_and_hub,
    "star": star,
    "no-edges": lambda: CommGraph(frozenset({"a", "b", "c"}), {}),
    "empty": lambda: CommGraph(frozenset(), {}),
    "isolated-vertices": lambda: graph_of(
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")], extra_vertices=["x", "y", "z"]
    ),
    "equal-degree-ties": tie_graph,
}


@pytest.mark.parametrize("name", list(GRAPH_CASES))
def test_graph_features_match_brute_force_triangles(name):
    assert_features_match_oracle(GRAPH_CASES[name]())


def test_graph_features_match_brute_force_on_random_graphs():
    rng = random.Random(202)
    for _ in range(40):
        assert_features_match_oracle(random_comm_graph(rng, rng.randint(1, 70), rng.uniform(0.0, 0.6)))


@pytest.mark.parametrize("block", [1, 7])
def test_graph_features_blocks_split_a_vertex_wedges(monkeypatch, block):
    monkeypatch.setattr(comm_graph, "_BLOCK_KEYS", block)
    rows_per_block, sizes = [], []
    wedges = comm_graph._Csr.wedges

    def recording_wedges(csr, *args):
        for keys, second in wedges(csr, *args):
            rows_per_block.append(set(csr.src[second].tolist()))
            sizes.append(len(keys))
            yield keys, second

    monkeypatch.setattr(comm_graph._Csr, "wedges", recording_wedges)
    rng = random.Random(31)
    graphs = [random_comm_graph(rng, rng.randint(15, 40), rng.uniform(0.4, 0.7)) for _ in range(15)]
    for g in graphs + [clique_and_hub(30)]:
        rows_per_block.clear()
        sizes.clear()
        assert_features_match_oracle(g)
        # some vertex's wedges cross a block seam, and a block outgrows the
        # bound only by the wedges of one out-arc (fewer than d+)
        assert any(a & b for a, b in zip(rows_per_block, rows_per_block[1:]))
        assert max(sizes) <= max(block, max(out_degrees(g)) - 1)
    assert_features_match_oracle(tie_graph())


def counted_wedges(monkeypatch, g):
    """graph_features(g) and the number of pair keys it enumerated."""
    total = []
    wedges = comm_graph._Csr.wedges

    def counting_wedges(csr, *args):
        for keys, second in wedges(csr, *args):
            total.append(len(keys))
            yield keys, second

    monkeypatch.setattr(comm_graph._Csr, "wedges", counting_wedges)
    try:
        return graph_features(g), sum(total)
    finally:
        monkeypatch.undo()


def test_graph_features_enumerates_out_degree_pairs_only(monkeypatch):
    rng = random.Random(47)
    for _ in range(20):
        g = random_comm_graph(rng, rng.randint(1, 60), rng.uniform(0.0, 0.5))
        assert counted_wedges(monkeypatch, g)[1] == out_degree_wedges(g)
    # the hub ranks last, so no vertex has two out-neighbours
    g = star()
    degrees = [len(ns) for ns in adjacency_sets(g).values()]
    assert sum(d * (d - 1) // 2 for d in degrees) == 4_498_500
    assert counted_wedges(monkeypatch, g)[1] == out_degree_wedges(g) == 0
    # a clique has C(n, 3) wedges, one per triangle
    assert counted_wedges(monkeypatch, clique_and_hub())[1] == out_degree_wedges(clique_and_hub()) == 121 * 120 * 119 // 6


def test_graph_features_memory_follows_edges():
    # the key buffers hold one block (_BLOCK_KEYS wedges, a few int64
    # arrays); the rest is the edge arrays and one result per vertex. The
    # star's 4.5M unoriented pairs in one int64 buffer would be 34 MiB.
    block_bytes = 2 * 2**20

    def traced(g):
        tracemalloc.start()
        try:
            features = graph_features(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block_bytes + 200 * (len(g.vertices) + len(g.edge_weight))
        return features

    n = 20_000
    ring = graph_of([(f"r{i:05d}", f"r{(i + 1) % n:05d}") for i in range(n)])
    assert {(f.k, f.c) for f in traced(ring).values()} == {(2, 0.0)}
    features = traced(star())
    assert (features["hub"].k, features["hub"].c) == (3000, 0.0)
    assert {(f.k, f.c) for v, f in features.items() if v != "hub"} == {(1, 0.0)}


# ---------------------------------------------------------------------------
# snapshot growth
# ---------------------------------------------------------------------------

def test_pool_growth_schedule_keeps_features_nondecreasing():
    # replay of the lifecycle picture: pool server + first victims appear,
    # then more victims join with intra-pool edges
    first = [("pool", "v1"), ("pool", "v2")]
    g1 = graph_of(first, timestamp=1)
    g2 = graph_of(
        first
        + [("pool", "v3"), ("pool", "v4"), ("v1", "v2"), ("v1", "v3"), ("v2", "v4"), ("v3", "v4")],
        timestamp=2,
    )
    f1, f2 = graph_features(g1), graph_features(g2)
    assert f1["pool"].k == 2 and f2["pool"].k == 4
    for member in ("v1", "v2"):
        assert f2[member].k >= f1[member].k
        assert f2[member].c >= f1[member].c
    # hand check: v1 in g2 has neighbors {pool, v2, v3}; edges among them:
    # pool-v2, pool-v3 -> T=2, k=3 -> c = 2*2/6
    assert f2["v1"].c == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# window deltas
# ---------------------------------------------------------------------------

def mk_params(**overrides):
    defaults = dict(internal_prefixes=("h",), x_threshold=5, delta_t=60.0)
    defaults.update(overrides)
    return StateParams(**defaults)


def as_snapshots(graphs, length=60.0):
    """window_snapshots-shaped entries for hand-built graphs without flows."""
    return [(g, [], (i * length, (i + 1) * length)) for i, g in enumerate(graphs)]


def pair_deltas(g0, g1, params):
    """The deltas of the single pair (g0, g1)."""
    [deltas] = window_deltas(as_snapshots([g0, g1]), params)
    return deltas


def test_deltas_unchanged_host():
    g0 = graph_of([("h1", "h2"), ("h2", "h3")], timestamp=0)
    g1 = graph_of([("h1", "h2"), ("h2", "h3")], timestamp=1)
    deltas = pair_deltas(g0, g1, mk_params())
    d = deltas["h2"]
    assert d.dk_ext == 0 and d.dk_int == 0
    assert d.dc_factor == 1.0
    assert d.window == 0


def test_deltas_external_gain():
    g0 = graph_of([("h1", "h2")], timestamp=0)
    g1 = graph_of([("h1", "h2"), ("h1", "x1"), ("h1", "x2")], timestamp=1)
    deltas = pair_deltas(g0, g1, mk_params())
    assert deltas["h1"].dk_ext == 2
    assert deltas["h1"].dk_int == 0


def test_deltas_dc_factor_from_coefficients():
    # h: 3 neighbors, one closed pair -> c = 1/3; then two closed pairs -> 2/3
    g0 = graph_of([("h", "ha"), ("h", "hb"), ("h", "hc"), ("ha", "hb")], timestamp=0)
    g1 = graph_of(
        [("h", "ha"), ("h", "hb"), ("h", "hc"), ("ha", "hb"), ("hb", "hc")], timestamp=1
    )
    assert clustering_coefficient(g0, "h") == pytest.approx(1 / 3)
    assert clustering_coefficient(g1, "h") == pytest.approx(2 / 3)
    deltas = pair_deltas(g0, g1, mk_params())
    assert deltas["h"].dc_factor == pytest.approx(2.0)


def test_dc_factor_conventions():
    assert dc_change_factor(0.0, 0.0) == 1.0
    assert dc_change_factor(0.0, 0.4, cap=1000.0) == 1000.0
    assert dc_change_factor(0.5, 0.25) == 0.5
    # window_deltas' array form gives the same floats, the conventions included
    c_prev, c_next = [0.0, 0.0, 0.5, 0.3, 1.0], [0.0, 0.4, 0.25, 0.7, 0.0]
    factors = comm_graph._change_factors(np.array(c_prev), np.array(c_next), 1000.0)
    assert factors.tolist() == [dc_change_factor(p, n) for p, n in zip(c_prev, c_next)]


def test_dc_peak_equals_max_of_earlier_factors():
    graphs = [
        graph_of([("h1", "h2")], timestamp=0),
        graph_of([("h1", "h2"), ("h1", "h3")], timestamp=1),
        graph_of([("h1", "h2"), ("h1", "h3"), ("h2", "h3")], timestamp=2),
        graph_of([("h1", "h2"), ("h2", "h3")], timestamp=3),
        graph_of([("h1", "h2"), ("h1", "h3"), ("h2", "h3"), ("h1", "h4")], timestamp=4),
    ]
    earlier: dict[str, list[float]] = {}
    for deltas in window_deltas(as_snapshots(graphs), mk_params()):
        for host, d in deltas.items():
            assert d.dc_peak == max(earlier.get(host, []), default=0.0)
            earlier.setdefault(host, []).append(d.dc_factor)
    # h1's rise from zero in pair 1 is the peak its later pairs compare against
    assert earlier["h1"] == [1.0, 1000.0, 0.0, 1000.0]


def test_deltas_invariant_under_host_relabeling():
    rng = random.Random(23)
    g0 = random_comm_graph(rng, 30, 0.15, timestamp=0)
    g1 = random_comm_graph(rng, 30, 0.2, timestamp=1)
    g1 = CommGraph(g0.vertices | g1.vertices, g1.edge_weight, 1)

    mapping = {v: f"h{v}" for v in g0.vertices | g1.vertices}

    def relabel(g):
        return CommGraph(
            frozenset(mapping[v] for v in g.vertices),
            {edge_key(mapping[a], mapping[b]): w for (a, b), w in g.edge_weight.items()},
            g.timestamp,
        )

    params = StateParams()  # all internal: predicate invariant under relabeling
    d0 = pair_deltas(g0, g1, params)
    d1 = pair_deltas(relabel(g0), relabel(g1), params)
    for host, d in d0.items():
        other = d1[mapping[host]]
        assert (d.dk_ext, d.dk_int, d.dc_factor, d.m_v) == (
            other.dk_ext,
            other.dk_int,
            other.dc_factor,
            other.m_v,
        )


# ---------------------------------------------------------------------------
# mining volume
# ---------------------------------------------------------------------------

def mining_flow(dst_port=3333, duration=40.0, flags=("ACK", "PUSH"), start=0.0, **kw):
    return make_flow(
        dst_port=dst_port,
        start_time=start,
        end_time=start + duration,
        flags=frozenset(flags),
        **kw,
    )


def test_mining_volume_no_tcp():
    flows = [make_flow(protocol=Protocol.UDP, flags=frozenset())]
    assert mining_volume(flows, "h1", 60.0, MiningFingerprint(), now=60.0) == 0


def test_mining_volume_counts_matching_flows():
    flows = [mining_flow(start=float(i)) for i in range(5)]
    assert mining_volume(flows, "h1", 60.0, MiningFingerprint(), now=60.0) == 5


def test_mining_volume_interval_is_half_open():
    fp = MiningFingerprint()
    assert mining_volume([mining_flow(start=60.0)], "h1", 60.0, fp, now=60.0) == 0
    assert mining_volume([mining_flow(start=0.0)], "h1", 60.0, fp, now=60.0) == 1
    assert mining_volume([mining_flow(start=-0.5)], "h1", 60.0, fp, now=60.0) == 0


def test_mining_volume_matches_brute_force_on_mixed_traffic():
    rng = random.Random(77)
    fp = MiningFingerprint()
    flows = []
    for _ in range(300):
        proto = Protocol.TCP if rng.random() < 0.7 else Protocol.UDP
        flags = (
            frozenset(rng.sample(["SYN", "ACK", "PUSH", "RST", "FIN"], rng.randint(0, 3)))
            if proto is Protocol.TCP
            else frozenset()
        )
        start = rng.uniform(0, 100)
        flows.append(
            make_flow(
                src_host=rng.choice(["h1", "h2", "h3"]),
                dst_host=rng.choice(["h2", "pool", "x"]),
                dst_port=rng.choice([3333, 80, 9999, 7777]),
                protocol=proto,
                flags=flags,
                start_time=start,
                end_time=start + rng.uniform(0, 80),
            )
        )
    now = max(f.end_time for f in flows)
    for host in ("h1", "h2", "h3"):
        expected = sum(
            1
            for f in flows
            if (f.src_host == host or f.dst_host == host)
            and now - 60.0 <= f.start_time < now
            and fingerprint_match_brute(f, fp.ports, fp.min_duration, fp.required_flags, fp.pool_hosts)
        )
        assert mining_volume(flows, host, 60.0, fp, now=now) == expected


@pytest.mark.parametrize("shuffle", [False, True], ids=["capture-order", "shuffled"])
@pytest.mark.parametrize("delta_t", [60.0, 150.0])
def test_window_deltas_mining_volume_matches_scan_of_whole_capture(delta_t, shuffle):
    flows, truth = generate(ScenarioConfig(seed=9, n_hosts=30, ring_degree=4, n_windows=4,
                                           recruitment_schedule=(0, 3, 2)))
    if shuffle:
        flows = random.Random(31).sample(flows, len(flows))
    fp = MiningFingerprint(pool_hosts=frozenset({"pool0"}))
    params = StateParams(fingerprint=fp, delta_t=delta_t)
    snapshots = list(window_snapshots(flows, 60.0))
    counted = 0
    pairs = window_deltas(snapshots, params)
    for (g_next, _, (_, hi)), deltas in zip(snapshots[1:], pairs, strict=True):
        assert set(deltas) == g_next.vertices
        for host, d in deltas.items():
            assert d.m_v == mining_volume(flows, host, delta_t, fp, now=hi)
            counted += d.m_v
    # the miners' pool flows were found, so the comparison was not all zeros
    assert counted > 0 and truth.miners


@pytest.mark.parametrize("delta_t", [60.0, 150.0])
def test_window_deltas_do_not_depend_on_flow_order(delta_t):
    flows, _ = generate(ScenarioConfig(seed=9, n_hosts=30, ring_degree=4, n_windows=4,
                                       recruitment_schedule=(0, 3, 2)))
    shuffled = random.Random(31).sample(flows, len(flows))
    assert shuffled != flows
    params = StateParams(
        internal_prefixes=("host",), delta_t=delta_t,
        fingerprint=MiningFingerprint(pool_hosts=frozenset({"pool0"})),
    )
    expected = list(window_deltas(window_snapshots(flows, 60.0), params))
    assert sum(d.m_v for deltas in expected for d in deltas.values()) > 0
    assert list(window_deltas(window_snapshots(shuffled, 60.0), params)) == expected


def test_window_deltas_build_no_adjacency_sets():
    flows, _ = generate(ScenarioConfig(seed=9, n_hosts=30, ring_degree=4, n_windows=4,
                                       recruitment_schedule=(0, 3, 2)))
    snapshots = list(window_snapshots(flows, 60.0))
    pairs = list(window_deltas(snapshots, StateParams(internal_prefixes=("host",))))
    assert len(pairs) == len(snapshots) - 1 > 1
    assert sum(d.dk_ext != 0 for deltas in pairs for d in deltas.values()) > 0


def test_window_deltas_refuse_a_snapshot_not_after_the_one_before():
    snapshots = list(window_snapshots(edge_case_capture(), 60.0))
    assert [g.timestamp for g, _, _ in snapshots] == [0, 1, 2, 4]
    with pytest.raises(ValueError, match=r"^snapshot timestamp 2 is not above the previous one, 4$"):
        list(window_deltas(reversed(snapshots), StateParams()))
    with pytest.raises(ValueError, match=r"^snapshot timestamp 1 is not above the previous one, 1$"):
        list(window_deltas([snapshots[0], snapshots[1], snapshots[1]], StateParams()))


@pytest.mark.parametrize("seed", range(4))
def test_window_deltas_and_graph_features_equal_plain_dicts_of_their_records(seed):
    flows = gapped_capture(seed, 60.0, 150.0)
    params = StateParams(internal_prefixes=("h",), delta_t=150.0)
    snapshots = list(window_snapshots(flows, 60.0))
    kept, plain = [], []
    for (g, _, _), deltas in zip(snapshots[1:], window_deltas(snapshots, params), strict=True):
        # each record as it reads when its pair is yielded
        plain.append({h: deltas[h] for h in g.order})
        kept.append(deltas)
        assert list(deltas) == g.order and len(deltas) == len(g.order)
        assert all(isinstance(d, HostDeltas) and d.host == h for h, d in deltas.items())
    # the kept items did not change as the iterator moved on
    assert kept == plain and plain == kept
    assert list(window_deltas(snapshots, params)) == plain
    for g, _, _ in snapshots:
        features = graph_features(g)
        adj = adjacency_sets(g)
        expected = {}
        for v in sorted(g.vertices):
            k, t = len(adj[v]), triangles_brute(adj, v)
            expected[v] = HostGraphFeatures(v, k, 0.0 if k < 2 else 2.0 * t / (k * (k - 1)))
        assert features == expected and expected == features


def test_graph_features_and_window_deltas_are_read_only_mappings():
    snapshots = list(window_snapshots(edge_case_capture(), 60.0))
    [deltas, *_] = window_deltas(snapshots, StateParams(internal_prefixes=("h",)))
    features = graph_features(snapshots[0][0])
    for mapping, arrays in ((features, "k c"), (deltas, "dk_ext dk_int dc_factor dc_peak m_v")):
        assert "h2" in mapping and "nobody" not in mapping and 1 not in mapping
        with pytest.raises(KeyError):
            mapping["nobody"]
        with pytest.raises(TypeError):
            mapping["h2"] = None
        for name in arrays.split():
            with pytest.raises(ValueError, match="read-only"):
                getattr(mapping, name)[0] = 0
    assert type(features["h2"].k) is int and type(features["h2"].c) is float
    d = deltas["h2"]
    assert [type(v) for v in (d.dk_ext, d.dk_int, d.dc_factor, d.dc_peak, d.m_v, d.window)] == [
        int, int, float, float, int, int
    ]


def edge_case_capture():
    """Five 60 s windows covering the cases window_deltas must get right.

    Window 3 is empty. h1 closes a triangle in windows 0 and 2 but is absent
    from window 1, so its earlier coefficient is 0 there. h5 appears in
    window 1 only through a loopback flow, and h4 sends a loopback pool flow
    in window 4. h4's pool flows start early and late in their windows, one
    exactly on a window edge, so a delta_t above 60 s reaches back into the
    previous window.
    """
    def link(a, b, t):
        return make_flow(src_host=a, dst_host=b, start_time=t, end_time=t + 1.0)

    def pool(a, t, dst="pool0"):
        return mining_flow(src_host=a, dst_host=dst, start=t)

    return [
        link("h1", "h2", 1.0), link("h2", "h3", 2.0), link("h1", "h3", 3.0),
        link("h1", "x1", 4.0), pool("h4", 10.0), pool("h4", 50.0),
        link("h2", "h3", 61.0), link("h3", "h4", 62.0), link("h2", "h2", 63.0),
        link("h5", "h5", 64.0), pool("h4", 70.0), pool("h4", 110.0), pool("h4", 120.0),
        link("h1", "h2", 121.0), link("h1", "h3", 122.0), link("h2", "h3", 123.0),
        link("h1", "x1", 124.0), link("h1", "x2", 125.0), link("h5", "h1", 126.0),
        pool("h4", 170.0),
        link("h1", "h2", 241.0), link("h2", "h4", 242.0), pool("h4", 250.0, dst="h4"),
        pool("h4", 290.0),
    ]


def returning_host_capture():
    """24 windows of random links among h0-h7 and x1, x2.

    h3 meets h0 and h1 in every window but windows 5-14, where it sends
    nothing; from window 15 on it also sends pool flows.
    """
    def link(a, b, t):
        return make_flow(src_host=a, dst_host=b, start_time=t, end_time=t + 1.0)

    rng = random.Random(29)
    others = ["h0", "h1", "h2", "h4", "h5", "h6", "h7", "x1", "x2"]
    flows = []
    for w in range(24):
        t0 = w * 60.0
        for _ in range(10):
            a, b = rng.sample(others, 2)
            flows.append(link(a, b, t0 + rng.uniform(0, 59)))
        if 5 <= w < 15:
            continue
        for peer in ["h0", "h1", *rng.sample(others, 2)]:
            flows.append(link("h3", peer, t0 + rng.uniform(0, 59)))
        if w >= 15:
            flows.append(mining_flow(src_host="h3", dst_host="pool0", start=t0 + 5.0))
    return flows


def delta_rows(pairs):
    """window_deltas' pairs as (dk_ext, dk_int, dc_factor, dc_peak, m_v, window) rows."""
    return [
        {h: (d.dk_ext, d.dk_int, d.dc_factor, d.dc_peak, d.m_v, d.window)
         for h, d in deltas.items()}
        for deltas in pairs
    ]


def naive_delta_rows(flows, length, params):
    """The oracle's rows over every aligned window, minus the pairs whose later window is empty.

    Those pairs must be exactly the oracle's empty ones.
    """
    windows = naive_windows(flows, length)
    naive = window_deltas_naive(
        flows, [span for _, span in windows], params.internal_prefixes, params.delta_t,
        params.dc_cap, params.fingerprint,
    )
    assert [not pair for pair in naive] == [not in_window for in_window, _ in windows[1:]]
    # the oracle keeps each host's whole history; dc_peak is its maximum
    return [
        {h: (*row[:3], max(row[3], default=0.0), *row[4:]) for h, row in pair.items()}
        for pair in naive
        if pair
    ]


@pytest.mark.parametrize("delta_t", [60.0, 90.0, 120.0, 150.0])
@pytest.mark.parametrize("capture", ["edge_cases", "synthgen", "returning_host"])
def test_window_deltas_match_naive_pairwise_recomputation(capture, delta_t):
    if capture == "edge_cases":
        flows = edge_case_capture()
        prefixes, fp = ("h",), MiningFingerprint()
    elif capture == "returning_host":
        flows = returning_host_capture()
        prefixes, fp = ("h",), MiningFingerprint()
    else:
        flows, _ = generate(ScenarioConfig(seed=5, n_hosts=24, ring_degree=4, n_windows=5,
                                           recruitment_schedule=(0, 2, 2)))
        prefixes, fp = ("host",), MiningFingerprint(pool_hosts=frozenset({"pool0"}))
    params = StateParams(internal_prefixes=prefixes, delta_t=delta_t, fingerprint=fp)
    snapshots = list(window_snapshots(flows, 60.0))
    actual = delta_rows(window_deltas(snapshots, params))
    assert actual == naive_delta_rows(flows, 60.0, params)
    assert len(actual) == len(snapshots) - 1
    if capture == "edge_cases":
        # window 3 is empty: it gets no snapshot, and the pair ending there no entry
        assert [g.timestamp for g, _, _ in snapshots] == [0, 1, 2, 4]
        assert {row[5] for row in actual[-1].values()} == {3}
        # h1 returns in window 2: factor from 0 is the cap, despite window 0
        assert actual[1]["h1"][2] == params.dc_cap
        assert sum(row[4] for pair in actual for row in pair.values()) > 0
    if capture == "returning_host":
        assert len(snapshots) == 24
        assert [j for j, pair in enumerate(actual) if "h3" not in pair] == list(range(4, 14))
        # back in window 15, h3 still compares against the peak of windows 0-4
        before = [pair["h3"][2] for pair in actual[:4]]
        assert actual[14]["h3"][3] == max(before) > 1.0
        assert sum(pair["h3"][4] for pair in actual[14:]) > 0


@pytest.mark.parametrize("delta_t", [60.0, 150.0, 200.0])
@pytest.mark.parametrize("seed", range(10))
def test_window_deltas_on_gapped_captures_match_the_oracle_over_every_window(seed, delta_t):
    flows = gapped_capture(seed, 60.0, delta_t)
    params = StateParams(internal_prefixes=("h",) if seed % 2 else (), delta_t=delta_t)
    snapshots = list(window_snapshots(flows, 60.0))
    timestamps = [g.timestamp for g, _, _ in snapshots]
    # the far start comes 20 or more empty windows after the rest
    assert timestamps[-1] - timestamps[-2] > 20
    actual = delta_rows(window_deltas(snapshots, params))
    assert actual == naive_delta_rows(flows, 60.0, params)
    assert sum(row[4] for pair in actual for row in pair.values()) > 0
    # a one-pass iterator of the snapshots gives the pairs a list gives
    assert list(window_deltas(iter(snapshots), params)) == list(window_deltas(snapshots, params))


def test_state_params_validation():
    with pytest.raises(ValueError):
        StateParams(x_threshold=0)
    with pytest.raises(ValueError):
        StateParams(delta_t=0.0)


def test_state_params_internal_prefixes():
    assert StateParams().is_internal("anything")
    params = StateParams(internal_prefixes=("10.", "host"))
    assert params.is_internal("10.0.0.1") and params.is_internal("host007")
    assert not params.is_internal("pool0")


# ---------------------------------------------------------------------------
# edge-list export
# ---------------------------------------------------------------------------

def test_graph_text_round_trip():
    g = CommGraph(frozenset({"a", "b", "c", "island"}), {("a", "b"): 4, ("b", "c"): 1}, 3)
    assert graph_to_text(g) == "# timestamp=3\na,b,4\nb,c,1\nisland\n"
