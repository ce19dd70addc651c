from collections import Counter

import pytest

from minedetect.comm_graph import (
    MiningFingerprint,
    build_graph,
    clustering_coefficient,
    graph_features,
    mining_volume,
)
from minedetect.errors import InvalidConfigError, MalformedRowError, WindowOutOfRangeError
from minedetect.flow_model import FLOW_FIELDS, FlowTable, Label, flows_to_csv
from minedetect.rng import SplitMix64
from minedetect.snn_cluster import State
from minedetect.synthgen import (
    GroundTruth,
    ScenarioConfig,
    expected_states,
    generate,
    parse_truth_csv,
    small_world_edges,
    truth_to_csv,
)

from oracles import fingerprint_match_brute, generate_naive


def small_config(**overrides):
    base = dict(
        seed=11,
        n_hosts=40,
        ring_degree=4,
        rewire_prob=0.1,
        n_windows=5,
        recruitment_schedule=(0, 2, 1),
        pool_hosts=("pool0", "pool1"),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(InvalidConfigError):
        small_config(ring_degree=3)  # odd
    with pytest.raises(InvalidConfigError):
        small_config(recruitment_schedule=(100,))  # more victims than hosts
    with pytest.raises(InvalidConfigError):
        small_config(recruitment_schedule=(1,) * 10)  # longer than n_windows
    with pytest.raises(InvalidConfigError, match="pool_hosts"):
        small_config(pool_hosts=("only-one",))
    with pytest.raises(InvalidConfigError):
        small_config(rewire_prob=1.5)
    # values generate() would fail on later without naming the field
    for field, value in (
        ("window_length", float("nan")),
        ("window_length", float("inf")),
        ("mining_flow_duration", float("nan")),
        ("mining_flow_duration", float("inf")),
        ("mining_port", 70000),
    ):
        with pytest.raises(InvalidConfigError, match=field):
            small_config(**{field: value})


@pytest.mark.parametrize("pool_hosts", [
    ("pool0", "pool0"),
    ("pool0", "pool1", "pool0"),
    ("pool0", ""),
    (" pool0", "pool1"),
    ("pool0", "pool1\t"),
    ("a,b", "c"),  # to_kv would write 'a,b,c', three pool hosts
])
def test_config_rejects_duplicate_empty_or_padded_pool_hosts(pool_hosts):
    with pytest.raises(InvalidConfigError, match="pool_hosts"):
        small_config(pool_hosts=pool_hosts)


def test_config_kv_round_trip():
    cfg = small_config()
    assert ScenarioConfig.from_kv(cfg.to_kv()) == cfg
    # prefixed keys are accepted too
    prefixed = {f"scenario.{k}": v for k, v in cfg.to_kv().items()}
    assert ScenarioConfig.from_kv(prefixed) == cfg


@pytest.mark.parametrize("key", ["n_host", "scenario.n_host", "scenario.seeds"])
def test_config_rejects_unknown_key(key):
    with pytest.raises(InvalidConfigError, match=f"unknown scenario config key '{key}'"):
        ScenarioConfig.from_kv({"seed": "1", key: "50"})


def test_config_requires_seed():
    with pytest.raises(InvalidConfigError):
        ScenarioConfig.from_kv({"n_hosts": "10"})


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_flows_byte_for_byte():
    cfg = small_config()
    flows1, truth1 = generate(cfg)
    flows2, truth2 = generate(cfg)
    assert flows_to_csv(flows1) == flows_to_csv(flows2)
    assert truth1 == truth2


def test_seed_override_and_divergence():
    cfg = small_config()
    flows1, _ = generate(cfg)
    flows2, _ = generate(cfg, seed=999)
    assert flows_to_csv(flows1) != flows_to_csv(flows2)
    flows3, _ = generate(small_config(seed=999))
    assert flows_to_csv(flows2) == flows_to_csv(flows3)


# ---------------------------------------------------------------------------
# the array draws against the scalar emitter
# ---------------------------------------------------------------------------

GENERATE_GRID = {
    "default": small_config(),  # benign_rate 2, rewire_prob 0.1
    "benign_rate-1": small_config(benign_rate=1),
    "benign_rate-3": small_config(benign_rate=3),
    "rewire-0": small_config(rewire_prob=0.0),
    "rewire-1": small_config(rewire_prob=1.0),
    "one-window": small_config(n_windows=1, recruitment_schedule=(2,)),
    "no-victims": small_config(recruitment_schedule=()),
    "pool_mesh": ScenarioConfig(seed=1, n_hosts=200, n_windows=4, recruitment_schedule=(0, 60, 60)),
    "one-mining-flow": small_config(mining_flows_per_window=1, recruitment_schedule=(3, 0, 2)),
}


def bits(value):
    """A field value with every bit of a float shown, and its type."""
    return (type(value), float.hex(value) if isinstance(value, float) else value)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("name", sorted(GENERATE_GRID))
def test_generate_equals_the_scalar_emitter(name, seed):
    config = GENERATE_GRID[name]
    table, truth = generate(config, seed=seed)
    flows, want_truth = generate_naive(config, seed=seed)
    assert isinstance(table, FlowTable) and len(table) == len(flows) > 0
    for field in FLOW_FIELDS:
        got = [bits(getattr(f, field)) for f in table]
        assert got == [bits(getattr(f, field)) for f in flows], field
    assert flows_to_csv(table) == flows_to_csv(flows)
    assert truth == want_truth
    # hosts and flag sets numbered in first-seen order, a flow's source before its destination
    assert table.hosts == tuple(dict.fromkeys(h for f in flows for h in (f.src_host, f.dst_host)))
    assert table.flag_sets == tuple(dict.fromkeys(f.flags for f in flows))


@pytest.mark.parametrize("field, value", [
    ("window_length", 1e308),  # the third window starts at inf
    ("mining_flow_duration", 1.7e308),  # 1.2 times it overflows
])
def test_generated_flow_that_fails_a_record_check_raises(field, value):
    config = small_config(**{field: value})
    with pytest.raises(ValueError):
        generate_naive(config)
    with pytest.raises(ValueError, match="fails a FlowRecord check"):
        generate(config)


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

def test_small_world_preserves_edge_count_and_mean_degree():
    total = 0.0
    for seed in range(10):
        edges = small_world_edges(200, 6, 0.2, SplitMix64(seed))
        assert len(edges) == 200 * 6 // 2
        total += 2 * len(edges) / 200
    assert abs(total / 10 - 6) <= 1


def test_benign_only_scenario_mean_degree_near_ring_degree():
    means = []
    for seed in range(10):
        cfg = ScenarioConfig(
            seed=seed, n_hosts=200, ring_degree=6, rewire_prob=0.2,
            n_windows=1, recruitment_schedule=(),
        )
        flows, truth = generate(cfg)
        assert all(label is Label.NOT_MINER for label in truth.labels.values())
        g = build_graph(flows, (0.0, cfg.window_length))
        means.append(sum(f.k for f in graph_features(g).values()) / len(g.vertices))
    assert abs(sum(means) / len(means) - 6) <= 1


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------

def test_every_flow_satisfies_record_invariants():
    # FlowRecord validates on construction; a full pass means every emitted
    # flow held its invariants
    flows, _ = generate(small_config())
    assert len(flows) > 0
    for f in flows:
        assert f.end_time >= f.start_time
        assert f.packets >= 1


def test_victim_mining_volume_zero_before_recruitment_positive_after():
    cfg = small_config(n_windows=6, recruitment_schedule=(0, 0, 1))
    flows, truth = generate(cfg)
    (victim,) = truth.miners
    assert truth.recruitment_window[victim] == 2
    fp = MiningFingerprint()
    L = cfg.window_length
    for w in range(cfg.n_windows):
        in_window = [f for f in flows if w * L <= f.start_time < (w + 1) * L]
        m_v = mining_volume(in_window, victim, L, fp, now=(w + 1) * L)
        if w < truth.recruitment_window[victim] + 2:
            assert m_v == 0, f"window {w}"
        else:
            assert m_v > 0, f"window {w}"


def test_mining_volume_agrees_with_brute_force_fingerprint_count():
    cfg = small_config()
    flows, truth = generate(cfg)
    fp = MiningFingerprint()
    L = cfg.window_length
    last = cfg.n_windows - 1
    in_window = [f for f in flows if last * L <= f.start_time < (last + 1) * L]
    for host in truth.labels:
        expected = sum(
            1
            for f in in_window
            if f.involves(host)
            and fingerprint_match_brute(f, fp.ports, fp.min_duration, fp.required_flags, fp.pool_hosts)
        )
        assert mining_volume(in_window, host, L, fp, now=(last + 1) * L) == expected


def test_miner_clustering_strictly_increases_into_coordination_window():
    cfg = ScenarioConfig(seed=42)
    flows, truth = generate(cfg)
    L = cfg.window_length
    graphs = [
        build_graph([f for f in flows if w * L <= f.start_time < (w + 1) * L], (w * L, (w + 1) * L), w)
        for w in range(cfg.n_windows)
    ]
    for victim in truth.miners:
        r = truth.recruitment_window[victim]
        c_before = clustering_coefficient(graphs[r], victim)
        c_after = clustering_coefficient(graphs[r + 1], victim)
        assert c_after > c_before, victim


# ---------------------------------------------------------------------------
# expected states
# ---------------------------------------------------------------------------

def test_expected_states_follow_recruitment_schedule():
    truth = GroundTruth(
        labels={"a": Label.MINER, "b": Label.NOT_MINER},
        recruitment_window={"a": 1},
        n_windows=5,
    )
    assert expected_states(truth, 0)["a"] is State.S0
    assert expected_states(truth, 1)["a"] is State.S1
    assert expected_states(truth, 2)["a"] is State.S2
    assert expected_states(truth, 3)["a"] is State.S3
    assert expected_states(truth, 4)["a"] is State.S3
    for w in range(5):
        assert expected_states(truth, w)["b"] is State.S0


def test_generate_follows_expected_states():
    # per (host, window), the flows to a pool host are exactly what the
    # host's expected state calls for; S0 sends none
    cfg = small_config()
    flows, truth = generate(cfg)
    primary, backup = cfg.pool_hosts
    emitted = Counter(
        (f.src_host, int(f.start_time // cfg.window_length), f.dst_host, f.dst_port, f.flags)
        for f in flows
        if f.dst_host in cfg.pool_hosts
    )
    expected = Counter()
    seen = set()
    for w in range(cfg.n_windows):
        for host, state in expected_states(truth, w).items():
            seen.add(state)
            if state is State.S1:
                for pool in (primary, backup):
                    expected[host, w, pool, cfg.mining_port, frozenset({"SYN"})] = 4
            elif state is State.S2:
                expected[host, w, primary, 7777, frozenset({"ACK"})] = 1
            elif state is State.S3:
                key = (host, w, primary, cfg.mining_port, frozenset({"ACK", "PUSH"}))
                expected[key] = cfg.mining_flows_per_window
    assert seen == set(State)
    assert emitted == expected


def test_expected_states_window_out_of_range():
    truth = GroundTruth(labels={"a": Label.NOT_MINER}, recruitment_window={}, n_windows=3)
    with pytest.raises(WindowOutOfRangeError):
        expected_states(truth, 3)


def test_ground_truth_requires_recruitment_window_for_miners():
    with pytest.raises(ValueError):
        GroundTruth(labels={"a": Label.MINER}, recruitment_window={}, n_windows=3)
    with pytest.raises(ValueError):
        GroundTruth(labels={"a": Label.MINER}, recruitment_window={"a": 7}, n_windows=3)


# ---------------------------------------------------------------------------
# truth CSV
# ---------------------------------------------------------------------------

def test_truth_csv_round_trip():
    _, truth = generate(small_config())
    parsed = parse_truth_csv(truth_to_csv(truth))
    assert parsed.labels == truth.labels
    assert parsed.recruitment_window == truth.recruitment_window


def test_truth_csv_names_physical_lines_after_quoted_newline():
    # the host cell of line 2 runs on to line 3
    text = 'host,label,recruitment_window\n"x\ny",Miner,1\nh2,NotMiner,\n'
    with pytest.raises(MalformedRowError) as exc:
        parse_truth_csv(text + "h3\n")
    assert exc.value.line_no == 5
    with pytest.raises(MalformedRowError, match=r"line 5: duplicate host 'h2' \(first on line 4\)"):
        parse_truth_csv(text + "h2,Miner,\n")


def test_truth_csv_rejects_wrong_header():
    with pytest.raises(Exception):
        parse_truth_csv("host,class\nh,Miner\n")


def test_truth_csv_skips_whitespace_only_lines():
    _, truth = generate(small_config())
    header, *rows = truth_to_csv(truth).splitlines(keepends=True)
    text = "".join([header, "  \n", *rows[:3], " \t\n", *rows[3:]])
    parsed = parse_truth_csv(text)
    assert parsed.labels == truth.labels
    assert parsed.recruitment_window == truth.recruitment_window


def test_truth_csv_takes_the_feature_table_label_spellings():
    text = "host,label,recruitment_window\na, miner ,1\nb,not-miner,\nc,NOTMINER,\n"
    truth = parse_truth_csv(text)
    assert truth.labels == {"a": Label.MINER, "b": Label.NOT_MINER, "c": Label.NOT_MINER}


@pytest.mark.parametrize("label", ["Unlabeled", " unlabeled ", "", "Bogus"])
def test_truth_csv_rejects_other_labels_with_line_number(label):
    text = f"host,label,recruitment_window\na,Miner,1\nb,NotMiner,\nc,{label},\n"
    with pytest.raises(MalformedRowError, match="line 4: ") as exc:
        parse_truth_csv(text)
    assert exc.value.line_no == 4
