import random
from fractions import Fraction

import pytest

from minedetect.comm_graph import (
    CommGraph,
    MiningFingerprint,
    StateParams,
    build_graph,
    clustering_coefficient,
    dc_change_factor,
    edge_key,
    graph_to_text,
    mining_volume,
    subnet_prefix_predicate,
    triangle_count,
    vertex_degree,
    window_deltas,
    window_snapshots,
)
from minedetect.errors import UnknownVertexError, WindowMismatchError
from minedetect.flow_model import Protocol

from oracles import random_comm_graph, triangle_count_brute, clustering_fraction, fingerprint_match_brute
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
    snapshots = window_snapshots(flows, length)
    expected = naive_windows(flows, length)
    assert len(snapshots) == len(expected)
    for timestamp, (snapshot, (naive_flows, naive_span)) in enumerate(zip(snapshots, expected)):
        g, in_window, span = snapshot
        assert span == naive_span
        assert in_window == naive_flows
        assert g.timestamp == timestamp
        assert g.vertices == {h for f in naive_flows for h in (f.src_host, f.dst_host)}
        assert g.edge_weight == build_graph(naive_flows, naive_span).edge_weight
    assert snapshots[0][2][0] == 4 * length
    empty = [g for g, in_window, _ in snapshots if not in_window]
    assert empty and all(not g.vertices for g in empty)
    assert sum(len(in_window) for _, in_window, _ in snapshots) == len(flows)


def test_graph_rejects_self_loop_and_dangling_edge():
    with pytest.raises(ValueError):
        CommGraph(frozenset({"a"}), {("a", "a"): 1})
    with pytest.raises(ValueError):
        CommGraph(frozenset({"a"}), {("a", "b"): 1})


# ---------------------------------------------------------------------------
# degree and clustering coefficient
# ---------------------------------------------------------------------------

def test_degree_cases():
    star = graph_of([("c", f"l{i}") for i in range(4)], extra_vertices=["lonely"])
    assert vertex_degree(star, "lonely") == 0
    assert vertex_degree(star, "c") == 4

    k5 = graph_of([(f"v{i}", f"v{j}") for i in range(5) for j in range(i + 1, 5)])
    for i in range(5):
        assert vertex_degree(k5, f"v{i}") == 4

    with pytest.raises(UnknownVertexError):
        vertex_degree(star, "ghost")


def test_clustering_triangle_and_star():
    triangle = graph_of([("a", "b"), ("b", "c"), ("a", "c")])
    assert clustering_coefficient(triangle, "a") == 1.0

    star = graph_of([("c", f"l{i}") for i in range(4)])
    assert clustering_coefficient(star, "c") == 0.0
    assert clustering_coefficient(star, "l0") == 0.0  # degree 1


def test_clustering_one_third():
    g = graph_of([("v", "a"), ("v", "b"), ("v", "c"), ("a", "b")])
    assert clustering_coefficient(g, "v") == pytest.approx(1.0 / 3.0)
    assert triangle_count(g, "v") == 1


def test_clustering_matches_brute_force_on_random_graphs():
    rng = random.Random(101)
    for _ in range(30):
        g = random_comm_graph(rng, rng.randint(2, 60), rng.uniform(0.05, 0.4))
        for v in g.vertices:
            t_impl = triangle_count(g, v)
            t_brute = triangle_count_brute(g, v)
            assert t_impl == t_brute
            k = vertex_degree(g, v)
            exact = clustering_fraction(k, t_brute)
            assert clustering_coefficient(g, v) == (
                0.0 if k < 2 else 2.0 * t_brute / (k * (k - 1))
            )
            assert Fraction(2 * t_impl, k * (k - 1)) == exact if k >= 2 else exact == 0


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(5)
    for _ in range(20):
        g = random_comm_graph(rng, rng.randint(1, 80), rng.uniform(0, 0.3))
        assert sum(vertex_degree(g, v) for v in g.vertices) == 2 * len(g.edge_weight)


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
    assert vertex_degree(g1, "pool") == 2 and vertex_degree(g2, "pool") == 4
    for member in ("v1", "v2"):
        assert vertex_degree(g2, member) >= vertex_degree(g1, member)
        assert clustering_coefficient(g2, member) >= clustering_coefficient(g1, member)
    # hand check: v1 in g2 has neighbors {pool, v2, v3}; edges among them:
    # pool-v2, pool-v3 -> T=2, k=3 -> c = 2*2/6
    assert clustering_coefficient(g2, "v1") == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# window deltas
# ---------------------------------------------------------------------------

def mk_params(**overrides):
    defaults = dict(monitored_subnet=subnet_prefix_predicate(["h"]), x_threshold=5, delta_t=60.0)
    defaults.update(overrides)
    return StateParams(**defaults)


def test_deltas_unchanged_host():
    g0 = graph_of([("h1", "h2"), ("h2", "h3")], timestamp=0)
    g1 = graph_of([("h1", "h2"), ("h2", "h3")], timestamp=1)
    deltas = window_deltas(g0, g1, mk_params(), [], now=60.0)
    d = deltas["h2"]
    assert d.dk_ext == 0 and d.dk_int == 0
    assert d.dc_factor == 1.0
    assert d.window == 0


def test_deltas_external_gain():
    g0 = graph_of([("h1", "h2")], timestamp=0)
    g1 = graph_of([("h1", "h2"), ("h1", "x1"), ("h1", "x2")], timestamp=1)
    deltas = window_deltas(g0, g1, mk_params(), [], now=60.0)
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
    deltas = window_deltas(g0, g1, mk_params(), [], now=60.0)
    assert deltas["h"].dc_factor == pytest.approx(2.0)


def test_deltas_window_mismatch():
    g0 = graph_of([("h1", "h2")], timestamp=0)
    g2 = graph_of([("h1", "h2")], timestamp=2)
    with pytest.raises(WindowMismatchError):
        window_deltas(g0, g2, mk_params(), [], now=60.0)


def test_dc_factor_conventions():
    assert dc_change_factor(0.0, 0.0) == 1.0
    assert dc_change_factor(0.0, 0.4, cap=1000.0) == 1000.0
    assert dc_change_factor(0.5, 0.25) == 0.5


def test_dc_history_length_equals_window_index():
    graphs = [
        graph_of([("h1", "h2")], timestamp=0),
        graph_of([("h1", "h2"), ("h1", "h3")], timestamp=1),
        graph_of([("h1", "h2"), ("h1", "h3"), ("h2", "h3")], timestamp=2),
        graph_of([("h1", "h2"), ("h2", "h3")], timestamp=3),
    ]
    params = mk_params()
    seen = {}
    for i in range(1, len(graphs)):
        deltas = window_deltas(graphs[i - 1], graphs[i], params, [], now=60.0, prior_dc=seen)
        for host, d in deltas.items():
            assert len(d.dc_history) == d.window
            seen.setdefault(host, []).append(d.dc_factor)


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
    d0 = window_deltas(g0, g1, params, [], now=60.0)
    d1 = window_deltas(relabel(g0), relabel(g1), params, [], now=60.0)
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
            and now - 60.0 <= f.start_time <= now
            and fingerprint_match_brute(f, fp.ports, fp.min_duration, fp.required_flags, fp.pool_hosts)
        )
        assert mining_volume(flows, host, 60.0, fp, now=now) == expected


def test_fingerprint_kv_round_trip():
    fp = MiningFingerprint(
        ports=frozenset({3333, 443}),
        min_duration=20.0,
        required_flags=frozenset({"ACK"}),
        pool_hosts=frozenset({"pool.example"}),
    )
    assert MiningFingerprint.from_kv(fp.to_kv()) == fp


def test_state_params_validation():
    with pytest.raises(ValueError):
        StateParams(x_threshold=0)
    with pytest.raises(ValueError):
        StateParams(delta_t=0.0)


# ---------------------------------------------------------------------------
# edge-list export
# ---------------------------------------------------------------------------

def test_graph_text_round_trip():
    g = CommGraph(frozenset({"a", "b", "c", "island"}), {("a", "b"): 4, ("b", "c"): 1}, 3)
    assert graph_to_text(g) == "# timestamp=3\na,b,4\nb,c,1\nisland\n"
