"""The flow table: its columns, and steps 1-3 read from them, against the record referees."""

import dataclasses
import functools
import json
import math
import random

import numpy as np
import pytest

from minedetect import comm_graph, flow_model, pipeline
from minedetect.comm_graph import MiningFingerprint, StateParams, build_graph, window_snapshots
from minedetect.errors import MalformedRowError, NoFlowsError
from minedetect.flow_model import (
    FLOW_FIELDS,
    FlowRecord,
    FlowTable,
    Protocol,
    aggregate_host_features,
    flows_to_csv,
    host_vectors,
    parse_flow_csv,
)
from minedetect.pipeline import PipelineConfig, lifecycle_states, run
from minedetect.synthgen import ScenarioConfig, generate

from oracles import (
    aggregate_host_features_naive,
    flows_by_host,
    gapped_capture,
    lifecycle_states_naive,
    parse_flow_csv_naive,
    window_index_naive,
)
from test_flow_model import CAPTURES, HEADER, REFERENCE_CONFIG, make_flow, quote_first_cell
from test_pipeline import scenario_inputs


@functools.lru_cache(maxsize=None)
def capture(config):
    return generate(config)


def shuffled(flows, seed):
    flows = list(flows)
    random.Random(seed).shuffle(flows)
    return flows


def columns_of(records):
    """Each field's values over the records, the way a table decodes its columns."""
    return {name: [getattr(f, name) for f in records] for name in FLOW_FIELDS}


def decoded(table):
    """Each field's values decoded from the table's columns, without building a record."""
    hosts = table.hosts
    return {
        "src_host": [hosts[i] for i in table.src.tolist()],
        "dst_host": [hosts[i] for i in table.dst.tolist()],
        "src_port": table.src_port.tolist(),
        "dst_port": table.dst_port.tolist(),
        "protocol": [flow_model.PROTOCOLS[i] for i in table.protocol.tolist()],
        "start_time": table.start_time.tolist(),
        "end_time": table.end_time.tolist(),
        "packets": table.packets.tolist(),
        "bytes": table.bytes.tolist(),
        "flags": [table.flag_sets[i] for i in table.flags.tolist()],
        "is_request": table.is_request.tolist(),
    }


def first_seen_hosts(records):
    return tuple(dict.fromkeys(h for f in records for h in (f.src_host, f.dst_host)))


def naive_host_vectors(records):
    """The record oracle's vector of each host over its own flows and the full span."""
    if not records:
        return []
    span = (
        min(f.start_time for f in records),
        max(max(f.end_time for f in records) + 1e-6,
            math.nextafter(max(f.end_time for f in records), math.inf)),
    )
    index = flows_by_host(records)
    return [aggregate_host_features_naive(index[h], h, span) for h in sorted(index)]


def report_json(flows, labeled, config, truth):
    obj = run(flows, labeled, config, ground_truth=truth).to_obj()
    del obj["provenance"]["generated_at"]
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", CAPTURES)
def test_parsed_table_holds_the_naive_parse_in_its_columns(config):
    flows, _ = capture(config)
    for records in (flows, shuffled(flows, 1)):
        text = flows_to_csv(records)
        table = parse_flow_csv(text)
        naive = parse_flow_csv_naive(text)
        assert table.hosts == first_seen_hosts(naive)
        assert len(set(table.flag_sets)) == len(table.flag_sets)
        assert decoded(table) == columns_of(naive)
        assert table._records is None  # read without a record
        built = FlowTable.from_records(naive)
        assert built.hosts == table.hosts and decoded(built) == decoded(table)
        assert table == naive and flows_to_csv(table) == text


def test_table_is_a_read_only_sequence_of_shared_records():
    flows = [make_flow(dst_port=3333 + i % 2, src_host=f"h{i % 3}") for i in range(6)]
    table = parse_flow_csv(flows_to_csv(flows))
    assert FlowTable.from_records(table) is table
    for name, _ in flow_model._COLUMNS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(table, name)[0] = 1
    assert len(table) == 6 and table[0] is table[0] and list(table) == flows == table
    assert table[1:3] == flows[1:3]
    assert table[0].src_host is table[3].src_host
    assert table[0].dst_port is table[2].dst_port and table[0].flags is table[1].flags
    assert table != flows[:5] and table != tuple(flows)
    assert repr(table) == "<FlowTable: 6 flows, 3 hosts>"
    empty = parse_flow_csv(HEADER + "\n")
    assert len(empty) == 0 and empty == [] and not empty and empty.hosts == ()


def piece_texts():
    """Small captures as text, with every way a piece can read, good and bad."""
    config = ScenarioConfig(seed=4, n_hosts=10, ring_degree=2, n_windows=2,
                            recruitment_schedule=(0, 2))
    flows, _ = capture(config)
    text = flows_to_csv(flows)
    lines = text.splitlines(keepends=True)
    k = len(lines) // 2

    def broken(row):
        return "".join([*lines[:k], row, *lines[k + 1:]])

    cells = lines[k].rstrip("\n").split(",")

    def cell(i, value):
        return ",".join([*cells[:i], value, *cells[i + 1:]]) + "\n"

    loopback = flows_to_csv(flows[:5] + [make_flow(src_host="lo", dst_host="lo")] + flows[5:])
    return {
        "plain": text,
        "crlf": text.replace("\n", "\r\n"),
        "mixed-line-ends": text.replace("\n", "\r\n", 7),
        "blank-rows": text.replace("\n", "\n\n  \n", 5),
        "no-final-newline": text.rstrip("\n"),
        "padded-cells": text.replace(",TCP,", ", tcp ,").replace(",1\n", ", yes\n"),
        "loopback": loopback,
        "quoted": quote_first_cell(text),
        "lone-cr": text[:-1] + "\r",  # csv.reader reads a lone "\r" at the end as a line end
        "short-row": broken(",".join(cells[:-1]) + "\n"),
        "bad-int": broken(cell(2, "x")),
        "port-range": broken(cell(3, "70000")),
        "int-overflow": broken(cell(8, str(2**64))),
        "packets": broken(cell(7, "0")),
        "nan-time": broken(cell(5, "nan")),
        "end-before-start": broken(cell(6, "-1")),
        "protocol": broken(cell(4, "ICMP")),
        "flag": broken(cell(9, "ACK|BOGUS")),
        "udp-flags": broken(cell(4, "UDP").replace(",,", ",ACK,")),
        "bool": broken(cell(10, "maybe")),
        "two-bad-rows": broken(cell(5, "nan")).replace(lines[-1], lines[-1].replace(",TCP,", ",ICMP,")),
    }


def parse_outcome(parse, text):
    try:
        return parse(text)
    except MalformedRowError as exc:
        return type(exc).__name__, exc.line_no, str(exc)


@pytest.mark.parametrize("piece", [0, 1, 3, 8, 1 << 16])
def test_table_parse_matches_the_naive_parse_at_every_piece_size(monkeypatch, piece):
    monkeypatch.setattr(flow_model, "_PIECE_CHARS", piece)
    monkeypatch.setattr(flow_model, "_CSV_PIECE_ROWS", max(piece, 1))
    for name, text in piece_texts().items():
        table = parse_outcome(parse_flow_csv, text)
        naive = parse_outcome(parse_flow_csv_naive, text)
        assert table == naive, name
        if isinstance(table, FlowTable):
            assert decoded(table) == columns_of(naive), name
    # every bad text is refused, naming the broken row's line
    assert isinstance(parse_outcome(parse_flow_csv, piece_texts()["bool"]), tuple)


def test_columns_read_each_number_as_int_and_float_do():
    # int() and float() accept these spellings, so the columns do too
    text = "\n".join([
        HEADER,
        "a,b,1_000, 443 ,TCP,-0.0,1e3,+3, 7 ,ACK,1",
        "a,b,1,2,tcp, 2.5 ,1_0.5,1_0,0, ack | push ,TRUE",
    ]) + "\n"
    table = parse_flow_csv(text)
    assert table == parse_flow_csv_naive(text)
    assert decoded(table)["src_port"] == [1000, 1] and decoded(table)["packets"] == [3, 10]
    assert math.copysign(1.0, table.start_time[0]) == -1.0
    for bad in ("inf", "1e400", "nan"):
        with pytest.raises(MalformedRowError, match="^line 3: times must be finite"):
            parse_flow_csv(text.replace("1_0.5", bad))


# ---------------------------------------------------------------------------
# step 2
# ---------------------------------------------------------------------------

def special_captures():
    """Loopback flows, epoch-millisecond times, an empty middle window and gapped captures."""
    t = 1.7e12  # epoch milliseconds read as seconds: a float step is 2**-12 s here

    def link(a, b, start, **kw):
        return make_flow(src_host=a, dst_host=b, start_time=start, end_time=start + 5.0, **kw)

    def pool(a, start):
        return make_flow(src_host=a, dst_host="pool0", dst_port=3333, start_time=start,
                         end_time=start + 45.0, flags=frozenset({"ACK", "PUSH"}))

    loopback = [link("a", "b", 1.0), link("lonely", "lonely", 70.0), link("a", "a", 71.0),
                link("a", "b", 130.0), link("b", "c", 131.0), pool("c", 132.0), pool("c", 133.0)]
    epoch = [link("h1", "h2", t), link("h2", "h3", t + 10.0), link("h1", "h3", t + 61.0),
             link("h3", "h4", t + 62.0), pool("h4", t + 63.0), link("h4", "h4", t + 125.0),
             link("h1", "h4", t + 126.0), link("h2", "h4", t + 127.0)]
    gap = [link("a", "b", 10.0), link("c", "a", 20.0), link("b", "a", 150.0), link("d", "b", 151.0),
           link("d", "c", 152.0), pool("a", 153.0), pool("a", 154.0)]
    gap.append(make_flow(src_host="c", dst_host="d", start_time=170.0, end_time=900.0))
    # h0's coefficient rises from 0 to 1/6 at a steady degree (a factor of dc_cap, no S2),
    # then to 0.4 as its degree grows: a factor of 2.4, S2 only when dc_cap is below it
    rise = [link("h0", f"h{i}", 60.0 * w + i) for w in range(3) for i in range(1, 5)]
    rise += [link("h1", "h2", 70.0), link("h0", "h5", 130.0)]
    rise += [link(f"h{i}", f"h{i + 1}", 140.0 + i) for i in range(1, 5)]
    return {
        "loopback": loopback,
        "epoch-milliseconds": epoch,
        "empty-middle-window": gap,
        "coefficient-rise-from-zero": rise,
        **{f"gapped-{seed}": gapped_capture(seed, 60.0, 150.0) for seed in range(3)},
        "empty": [],
    }


@pytest.mark.parametrize("config", CAPTURES)
def test_host_vectors_from_columns_equal_the_record_referee(config):
    flows, _ = capture(config)
    expected = naive_host_vectors(flows)
    for records in (flows, shuffled(flows, 2)):
        table = parse_flow_csv(flows_to_csv(records))
        assert host_vectors(table) == expected
        assert table._records is None


@pytest.mark.parametrize("name", sorted(special_captures()))
def test_host_vectors_of_special_captures_equal_the_record_referee(name):
    flows = special_captures()[name]
    table = parse_flow_csv(flows_to_csv(flows))
    assert host_vectors(flows) == host_vectors(table)
    assert host_vectors(flows) == naive_host_vectors(flows)
    for _, in_window, _ in window_snapshots(table, 60.0):
        # a window's table keeps every host of the capture, with or without a flow in it
        assert host_vectors(in_window) == host_vectors(list(in_window))


BIG, ODD = 2**63 - 1, 2**52 + 1


def big_count_flows():
    """Packet and byte sums past 2**63 at a and b, and loopback flows at a and d.

    d's three flows hold 2**53 + 1 packets and as many bytes, which float64
    sums round to 2**53: its ppf (2**53 + 1) / 3 would then be another
    float, and its bpp 1.0 only if both sums round.
    """
    return [
        make_flow(src_host="a", dst_host="b", packets=BIG, bytes=BIG),
        make_flow(src_host="b", dst_host="a", packets=BIG, bytes=BIG - 2),
        make_flow(src_host="a", dst_host="a", packets=ODD, bytes=ODD),
        make_flow(src_host="c", dst_host="a", packets=ODD, bytes=3),
        make_flow(src_host="c", dst_host="b", packets=1, bytes=0),
        make_flow(src_host="d", dst_host="e", packets=2**53 - 1, bytes=1),
        make_flow(src_host="e", dst_host="d", packets=1, bytes=2**53 - 1),
        make_flow(src_host="d", dst_host="d", packets=1, bytes=1),
    ]


def test_host_sums_past_2_53_and_2_63_stay_exact():
    big, odd = BIG, ODD
    flows = big_count_flows()
    sums = flow_model._exact_sums(
        np.array([0, 0, 1, 0, 2]), np.array([big, big, big, odd, odd]), 3
    )
    assert sums == [2 * big + odd, big, odd]
    # an odd sum just past 2**53, which float64 cannot hold
    assert flow_model._exact_sums(np.array([0, 0]), np.array([2**53 - 1, 2]), 1) == [2**53 + 1]
    assert flow_model._exact_sums(np.array([1, 1]), np.array([2**52, 2**52 - 1]), 2) == [0, 2**53 - 1]
    vectors = host_vectors(flows)
    assert vectors == naive_host_vectors(flows)
    # float sums would have rounded a's bytes to its packets: bpp would read 1.0
    assert vectors[0].host == "a" and vectors[0].bpp != 1.0


def aggregation_cases():
    """Name -> (records, windows): windows over the whole capture and windows cutting it."""
    cases = {}
    for seed in range(4):
        flows = gapped_capture(seed)
        t0, t1 = flow_model.full_span(flows)
        mid = (t0 + t1) / 2
        # t0 + 60 and t0 + 120 are window bounds at which gapped flows start
        cases[f"gapped-{seed}"] = (flows, [(t0, t1), (t0, mid), (mid, t1), (t0 + 60.0, t0 + 120.0)])
    loopback = special_captures()["loopback"]
    cases["loopback"] = (loopback, [flow_model.full_span(loopback), (0.0, 71.0), (71.0, 140.0)])
    big = big_count_flows()
    big[1] = dataclasses.replace(big[1], start_time=5.0, end_time=6.0)
    cases["past-2**63"] = (big, [flow_model.full_span(big), (0.0, 5.0), (5.0, 60.0)])
    return cases


def same_bits(got, expected):
    return got == expected and list(map(float.hex, got.values())) == list(
        map(float.hex, expected.values())
    )


@pytest.mark.parametrize("name", sorted(aggregation_cases()))
def test_aggregate_host_features_equals_the_record_oracle(name):
    records, windows = aggregation_cases()[name]
    table = parse_flow_csv(flows_to_csv(records))
    for window in windows:
        for host in [*table.hosts, "absent"]:
            expected = aggregate_host_features_naive(records, host, window)
            for flows in (table, records):
                if expected is None:
                    with pytest.raises(NoFlowsError, match=f"^host '{host}' has no flows in "):
                        aggregate_host_features(flows, host, window)
                else:
                    assert same_bits(aggregate_host_features(flows, host, window), expected)
    assert table._records is None


def test_aggregate_host_features_of_a_taken_table_sees_only_its_rows():
    records = special_captures()["loopback"]
    table = parse_flow_csv(flows_to_csv(records))
    lonely = table.hosts.index("lonely")
    taken = table.take(np.flatnonzero((table.src != lonely) & (table.dst != lonely)))
    kept = [f for f in records if "lonely" not in (f.src_host, f.dst_host)]
    assert taken.hosts == table.hosts and len(taken) == len(kept)
    span = flow_model.full_span(records)
    with pytest.raises(NoFlowsError, match="^host 'lonely' has no flows in "):
        aggregate_host_features(taken, "lonely", span)
    for host in sorted(set(taken.hosts) - {"lonely"}):
        assert same_bits(aggregate_host_features(taken, host, span),
                         aggregate_host_features_naive(kept, host, span))


def test_per_host_calls_on_a_parsed_capture_build_no_flow_record(monkeypatch):
    flows, _ = capture(REFERENCE_CONFIG)
    table = parse_flow_csv(flows_to_csv(flows))
    span = flow_model.full_span(table)
    calls = []
    init = FlowRecord.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FlowRecord, "__init__", counting_init)
    vectors = [aggregate_host_features(table, host, span) for host in sorted(table.hosts)]
    assert len(vectors) >= 200 and calls == [] and table._records is None
    monkeypatch.undo()
    assert vectors == host_vectors(table)


def test_host_lookup_of_a_generated_table_keeps_every_vector():
    config = ScenarioConfig(seed=3, n_hosts=120, ring_degree=4, n_windows=3, recruitment_schedule=(0, 6))
    table, _ = generate(config)
    records = list(table)
    span = flow_model.full_span(table)
    taken = table.take(slice(0, len(table) // 2))
    kept = records[: len(table) // 2]
    for host in table.hosts:
        assert table.host_number(host) == taken.host_number(host) == table.hosts.index(host)
        assert same_bits(aggregate_host_features(table, host, span),
                         aggregate_host_features_naive(records, host, span))
        expected = aggregate_host_features_naive(kept, host, span)
        if expected is not None:
            assert same_bits(aggregate_host_features(taken, host, span), expected)
    for absent in ("absent", "", " host000", "host000 ", "pool2"):
        assert table.host_number(absent) == -1
        with pytest.raises(NoFlowsError, match=f"^host '{absent}' has no flows in "):
            aggregate_host_features(table, absent, span)


def test_hosts_in_a_table_are_its_flows_endpoints():
    config = ScenarioConfig(seed=3, n_hosts=40, ring_degree=4, n_windows=2, recruitment_schedule=(0, 2))
    table, _ = generate(config)
    parsed = parse_flow_csv(flows_to_csv(table))
    assert flow_model.hosts_in(table) == flow_model.hosts_in(parsed) == set(table.hosts)
    assert table._records is None and parsed._records is None  # read from the columns
    records = list(table)
    assert flow_model.hosts_in(records) == set(table.hosts)
    # a taken table shares every host id of its source, those without a row too
    to_pool = np.isin(table.dst, [table.hosts.index(p) for p in config.pool_hosts])
    for rows in (np.flatnonzero(~to_pool), np.arange(3), np.arange(0)):
        assert flow_model.hosts_in(table.take(rows)) == flow_model.hosts_in([records[i] for i in rows])
    assert not set(config.pool_hosts) & flow_model.hosts_in(table.take(np.flatnonzero(~to_pool)))


def column_rows(**changes):
    """Two good TCP rows and one UDP row as FlowTable.from_columns columns, with ``changes``
    (field -> value) put into the last row."""
    columns = {
        "src_host": [2, 0, 1], "dst_host": [1, 2, 0], "src_port": [5, 6, 7], "dst_port": [80, 22, 53],
        "protocol": [0, 0, 1], "start_time": [0.0, 1.0, 2.0], "end_time": [1.0, 1.0, 2.5],
        "packets": [1, 2, 3], "bytes": [0, 10, 20], "flags": [1, 0, 2], "is_request": [True, False, True],
    }
    for field, value in changes.items():
        columns[field][-1] = value
    return [np.array(columns[field]) for field in FLOW_FIELDS]


HOSTS = ("h0", "h1", "h2")
FLAG_SETS = (frozenset({"SYN"}), frozenset({"ACK", "PUSH"}), frozenset())


def test_table_from_columns_numbers_hosts_and_flags_in_first_seen_order():
    # the first piece holds the first row only, so the second numbers h0 and the empty flags set
    table = FlowTable.from_columns(HOSTS, FLAG_SETS, [[c[:1] for c in column_rows()], column_rows()])
    records = [
        FlowRecord("h2", "h1", 5, 80, Protocol.TCP, 0.0, 1.0, 1, 0, FLAG_SETS[1], True),
        FlowRecord("h2", "h1", 5, 80, Protocol.TCP, 0.0, 1.0, 1, 0, FLAG_SETS[1], True),
        FlowRecord("h0", "h2", 6, 22, Protocol.TCP, 1.0, 1.0, 2, 10, FLAG_SETS[0], False),
        FlowRecord("h1", "h0", 7, 53, Protocol.UDP, 2.0, 2.5, 3, 20, FLAG_SETS[2], True),
    ]
    assert table == records
    assert table.hosts == ("h2", "h1", "h0") and table.flag_sets == (FLAG_SETS[1], FLAG_SETS[0], FLAG_SETS[2])
    assert decoded(table) == decoded(FlowTable.from_records(records))
    assert len(FlowTable.from_columns(HOSTS, FLAG_SETS, [])) == 0


@pytest.mark.parametrize("changes", [
    {"src_port": -1}, {"dst_port": 65536}, {"start_time": math.nan}, {"end_time": math.inf},
    {"start_time": -math.inf}, {"end_time": 1.5}, {"packets": 0}, {"bytes": -1}, {"flags": 0},
], ids=repr)
def test_table_from_columns_refuses_a_row_that_fails_a_record_check(changes):
    fields = {field: column[-1].item() for field, column in zip(FLOW_FIELDS, column_rows(**changes))}
    fields.update(src_host="h1", dst_host="h2", protocol=Protocol.UDP, flags=FLAG_SETS[fields["flags"]])
    with pytest.raises(ValueError):
        FlowRecord(**fields)  # the row-by-row check refuses the same row
    with pytest.raises(ValueError, match="^a flow fails a FlowRecord check$"):
        FlowTable.from_columns(HOSTS, FLAG_SETS, [column_rows(), column_rows(**changes)])


# ---------------------------------------------------------------------------
# step 3
# ---------------------------------------------------------------------------

def test_window_indices_equal_the_scalar_referee():
    rng = random.Random(11)
    starts = [1.7, 1.75, 4.25, 4.3, -0.0, -1e-300, 2.0**53 - 1, -59.99, 1.7e12, 1.7e12 + 60.0]
    starts += [rng.uniform(-1e4, 1e4) for _ in range(500)]
    starts += [rng.choice([0.1, 0.3, 0.7]) * rng.randint(-1000, 1000) for _ in range(500)]
    for length in (0.1, 0.3, 1.0, 7.5, 60.0, 1e-3):
        try:
            expected = [window_index_naive(t, length) for t in starts]
        except ValueError:
            continue
        got = comm_graph._window_indices(np.array(starts), length).tolist()
        assert got == expected, length


@pytest.mark.parametrize("block_rows", [None, 1000])
@pytest.mark.parametrize("order", ["capture", "shuffled"])
@pytest.mark.parametrize("config", CAPTURES)
def test_window_and_full_span_graphs_equal_build_graph(monkeypatch, config, order, block_rows):
    if block_rows is not None:  # several blocks of step 3's scratch arrays
        monkeypatch.setattr(comm_graph, "_BLOCK_ROWS", block_rows)
    flows, _ = capture(config)
    if order == "shuffled":  # no longer in window order: the windows' rows are gathered
        flows = shuffled(flows, 3)
    table = parse_flow_csv(flows_to_csv(flows))
    records = list(table)
    snapshots = list(window_snapshots(table, 60.0))
    assert len(snapshots) > 1
    for g, in_window, (lo, hi) in snapshots:
        expected = build_graph([f for f in records if lo <= f.start_time < hi], (lo, hi))
        assert (g.vertices, g.edge_weight) == (expected.vertices, expected.edge_weight)
        assert g == comm_graph.CommGraph(g.vertices, g.edge_weight, g.timestamp)
        assert in_window.hosts is table.hosts and in_window._records is None
    full = comm_graph.table_graph(table)
    expected = build_graph(records, flow_model.full_span(records))
    assert full == expected and full.order == expected.order
    assert sorted(zip(*full.ends.tolist())) == sorted(zip(*expected.ends.tolist()))


def step3_params():
    return [
        StateParams(),
        StateParams(internal_prefixes=("h", "a", "b", "host"), delta_t=150.0),
        StateParams(internal_prefixes=("h", "a", "host"), x_threshold=1, delta_t=90.0,
                    fingerprint=MiningFingerprint(pool_hosts=frozenset({"pool0"}))),
        # S1 fires in pair 1 of the loopback and empty-middle-window captures
        # with these prefixes, and in pair 0 of synthgen, which t_star gates off
        StateParams(internal_prefixes=("h", "a", "host"), t_star=1, dc_cap=2.0),
        StateParams(internal_prefixes=("h", "a", "host"), t_star=10**6),  # no window
    ]


@pytest.mark.parametrize("block_rows", [None, 3])
@pytest.mark.parametrize("name", sorted(special_captures()) + ["synthgen", "synthgen-shuffled"])
def test_lifecycle_states_from_columns_equal_the_record_referee(monkeypatch, name, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(comm_graph, "_BLOCK_ROWS", block_rows)
    if name.startswith("synthgen"):
        flows, _ = capture(ScenarioConfig(seed=5, n_hosts=24, ring_degree=4, n_windows=5,
                                          recruitment_schedule=(0, 2, 2)))
        if name.endswith("shuffled"):
            flows = shuffled(flows, 4)
    else:
        flows = special_captures()[name]
    table = parse_flow_csv(flows_to_csv(flows))
    for params in step3_params():
        if params.internal_prefixes and not any(
            h.startswith(params.internal_prefixes) for h in table.hosts
        ):
            continue
        config = PipelineConfig(state=params)
        graph, states = lifecycle_states(table, config)
        vertices, weights, expected = lifecycle_states_naive(flows, config.window_length, params)
        assert (graph.vertices, graph.edge_weight) == (vertices, weights)
        assert {h: s.value for h, s in states.items()} == expected
        assert table._records is None
        if params.t_star == 1 and name in ("loopback", "empty-middle-window"):
            assert "S1" in expected.values()  # so t_star's gate is tested on both sides
        if name == "coefficient-rise-from-zero":
            assert expected["h0"] == ("S2" if params.dc_cap == 2.0 else "S0")
    # a capture with a state above S0, so the comparison is not vacuous
    if name in ("synthgen", "gapped-0"):
        assert any(s != "S0" for s in expected.values())


def test_step3_codes_the_shared_hosts_of_its_windows_once(monkeypatch):
    flows, _ = capture(CAPTURES[0].values[0])
    table = parse_flow_csv(flows_to_csv(flows))
    coded = []
    host_codes = comm_graph._host_codes

    def counting_host_codes(hosts, *args):
        coded.append(len(hosts))
        return host_codes(hosts, *args)

    monkeypatch.setattr(comm_graph, "_host_codes", counting_host_codes)
    params = StateParams(fingerprint=MiningFingerprint(pool_hosts=frozenset({"pool0"})))
    lifecycle_states(table, PipelineConfig(state=params))
    assert coded == [len(table.hosts)]


# ---------------------------------------------------------------------------
# the whole run
# ---------------------------------------------------------------------------

def test_run_on_a_parsed_table_builds_no_flow_record(monkeypatch):
    labeled, flows, truth = scenario_inputs()
    table = parse_flow_csv(flows_to_csv(flows))
    config = PipelineConfig()
    calls = []
    init = FlowRecord.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FlowRecord, "__init__", counting_init)
    from_table = report_json(table, labeled, config, truth.labels)
    assert calls == [] and table._records is None
    monkeypatch.undo()
    assert from_table == report_json(list(table), labeled, config, truth.labels)
    assert from_table == report_json(flows, labeled, config, truth.labels)


def test_run_on_a_parsed_table_builds_no_per_host_step3_object(monkeypatch):
    labeled, flows, truth = scenario_inputs()
    table = parse_flow_csv(flows_to_csv(flows))
    built = []

    def counting(name, original):
        def wrapper(self, *args, **kwargs):
            built.append(name)
            return original(self, *args, **kwargs)
        return wrapper

    for cls in (comm_graph.HostDeltas, comm_graph.HostGraphFeatures):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    for name in ("vertices", "edge_weight"):
        # a property, unlike the cached one, counts every read, even of a value already built
        monkeypatch.setattr(
            comm_graph.CommGraph, name,
            property(counting(name, vars(comm_graph.CommGraph)[name].func)),
        )
    report = run(table, labeled, PipelineConfig(), ground_truth=truth.labels)
    assert built == []
    assert any(state is not pipeline.State.S0 for state in report.host_states.values())
    # the counters count
    g = comm_graph.table_graph(table)
    comm_graph.graph_features(g)[g.order[0]]
    assert (g.vertices, g.edge_weight) and built == ["HostGraphFeatures", "vertices", "edge_weight"]


def test_run_digests_a_table_as_its_records():
    labeled, flows, truth = scenario_inputs()
    table = parse_flow_csv(flows_to_csv(flows))
    digests = run(table, labeled).provenance["inputs"]
    assert digests["flows_sha256"] == flow_model.flows_sha256(flows) == flow_model.flows_sha256(table)
    # a record's int time is digested as the float its table holds
    ints = [make_flow(start_time=0, end_time=60), make_flow(start_time=1.5, end_time=61.0)]
    floats = [make_flow(start_time=0.0, end_time=60.0), ints[1]]
    assert ints == floats
    assert flows_to_csv(ints) == flows_to_csv(floats) == flows_to_csv(FlowTable.from_records(ints))
    assert run(ints, []).provenance["inputs"]["flows_sha256"] == flow_model.flows_sha256(floats)


@pytest.mark.parametrize("bad, message", [
    ({"protocol": "TCP"}, "protocol must be a Protocol member, got 'TCP'"),
    ({"protocol": "UDP", "flags": frozenset({"ACK", "PUSH"})}, "protocol must be a Protocol member, got 'UDP'"),
    ({"is_request": "no"}, "is_request must be a bool, got 'no'"),
    ({"is_request": 1}, "is_request must be a bool, got 1"),
    ({"is_request": np.bool_(True)}, "is_request must be a bool, got np.True_"),
], ids=["tcp-string", "udp-string-with-flags", "request-string", "request-int", "request-numpy-bool"])
def test_flow_refuses_a_protocol_or_request_of_the_wrong_type(bad, message):
    fields = {**dataclasses.asdict(make_flow()), **bad}
    with pytest.raises(ValueError) as exc:
        FlowRecord(**fields)
    assert str(exc.value) == message.replace("np.True_", repr(np.bool_(True)))
