import copy
import csv
import dataclasses
import hashlib
import io
import itertools
import math
import pickle
import random
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from oracles import (
    aggregate_host_features_naive,
    flows_by_host,
    features_to_csv_writer,
    flows_to_csv_writer,
    normalize_naive,
    parse_feature_csv_naive,
    parse_flow_csv_naive,
)

from minedetect import flow_model, pipeline
from minedetect.cli import read_kv_file
from minedetect.errors import (
    AlreadyNormalizedError,
    EmptyInputError,
    InvalidConfigError,
    MalformedRowError,
    MissingColumnError,
    NoFlowsError,
)
from minedetect.flow_model import (
    FEATURE_ORDER,
    FeatureTable,
    FeatureVector,
    FlowRecord,
    FlowTable,
    Label,
    NormalizationParams,
    Protocol,
    aggregate_host_features,
    features_to_csv,
    fit_normalizer,
    flows_to_csv,
    full_span,
    host_vectors,
    hosts_in,
    normalize,
    parse_feature_csv,
    parse_flow_csv,
)
from minedetect.knn_classify import parse_predictions_csv
from minedetect.synthgen import ScenarioConfig, generate, parse_truth_csv, truth_to_csv

HEADER = ",".join(flow_model.FLOW_FIELDS)


def make_flow(**overrides) -> FlowRecord:
    base = dict(
        src_host="h1",
        dst_host="h2",
        src_port=40000,
        dst_port=443,
        protocol=Protocol.TCP,
        start_time=0.0,
        end_time=10.0,
        packets=10,
        bytes=1000,
        flags=frozenset({"SYN", "ACK"}),
        is_request=True,
    )
    base.update(overrides)
    return FlowRecord(**base)


def make_vector(host="h", **overrides) -> FeatureVector:
    base = dict(
        host=host,
        bpp=100.0,
        ppm=10.0,
        ppf=5.0,
        ackpush_all=0.2,
        req_all=0.5,
        syn_all=0.3,
        rst_all=0.0,
        fin_all=0.1,
    )
    base.update(overrides)
    return FeatureVector(**base)


# ---------------------------------------------------------------------------
# FlowRecord invariants
# ---------------------------------------------------------------------------

def test_flow_rejects_end_before_start():
    with pytest.raises(ValueError):
        make_flow(start_time=10.0, end_time=5.0)


def test_flow_rejects_udp_with_flags():
    with pytest.raises(ValueError):
        make_flow(protocol=Protocol.UDP, flags=frozenset({"ACK"}))


def test_flow_rejects_zero_packets_and_bad_port():
    with pytest.raises(ValueError):
        make_flow(packets=0)
    with pytest.raises(ValueError):
        make_flow(dst_port=70000)


def test_flow_is_a_slotted_frozen_value():
    flow = make_flow()
    same = make_flow(flags=frozenset({"ACK", "SYN"}))
    assert flow == same and hash(flow) == hash(same)
    assert not hasattr(flow, "__dict__")
    doubled = dataclasses.replace(flow, packets=20)
    assert doubled.packets == 20 and doubled != flow and flow.packets == 10
    assert pickle.loads(pickle.dumps(flow)) == flow
    with pytest.raises(dataclasses.FrozenInstanceError):
        flow.packets = 5
    with pytest.raises(ValueError, match=r"unknown TCP flags \['BOGUS', 'XMAS'\]"):
        make_flow(flags=frozenset({"ACK", "XMAS", "BOGUS"}))


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"src_port": -1}, "port outside 0-65535"),
        ({"dst_port": 65536}, "port outside 0-65535"),
        ({"start_time": float("nan")}, "times must be finite, got start_time nan, end_time 10.0"),
        ({"end_time": float("inf")}, "times must be finite, got start_time 0.0, end_time inf"),
        ({"end_time": -1.0}, "end_time -1.0 before start_time 0.0"),
        ({"packets": 0}, "packets must be >= 1"),
        ({"bytes": -1}, "bytes must be >= 0"),
        ({"packets": 2**63}, "packets must be < 2**63"),
        ({"bytes": 10**400}, "bytes must be < 2**63"),
        ({"flags": frozenset({"ACK", "XMAS"})}, "unknown TCP flags ['XMAS']"),
        ({"protocol": Protocol.UDP}, "UDP flow cannot carry TCP flags"),
        # several bad arguments: the checks run in a fixed order, the first failing one reports
        ({"packets": 0, "src_port": 70000, "flags": frozenset({"XMAS"})}, "port outside 0-65535"),
        ({"bytes": -1, "packets": 0}, "packets must be >= 1"),
        ({"protocol": Protocol.UDP, "flags": frozenset({"XMAS"})}, "unknown TCP flags ['XMAS']"),
    ],
    ids=[
        "src-port", "dst-port", "nan-start", "inf-end", "end-before-start", "packets",
        "bytes", "packets-above-int64", "bytes-above-int64", "unknown-flag", "udp-flags", "first-of-three", "packets-before-bytes",
        "flag-before-udp",
    ],
)
def test_flow_rejects_bad_argument_alike_by_every_route(bad, message):
    fields = {**dataclasses.asdict(make_flow()), **bad}
    routes = {
        "positional": lambda: FlowRecord(*(fields[name] for name in flow_model.FLOW_FIELDS)),
        "keyword": lambda: FlowRecord(**fields),
        "replace": lambda: dataclasses.replace(make_flow(), **bad),
    }
    for route, build in routes.items():
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message, route
    # the checks run before any field is stored
    blank = object.__new__(FlowRecord)
    with pytest.raises(ValueError):
        blank.__init__(**fields)
    assert [name for name in flow_model.FLOW_FIELDS if hasattr(blank, name)] == []


@pytest.mark.parametrize("record", [make_flow(), make_vector()], ids=["flow", "vector"])
@pytest.mark.parametrize("name", ["host", "src_host", "note"])
def test_records_refuse_every_store_and_delete(record, name):
    # "note" is a field of neither class, "host" only of FeatureVector and
    # "src_host" only of FlowRecord: each raises FrozenInstanceError
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, 1)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert twin == record


# ---------------------------------------------------------------------------
# FeatureVector invariants
# ---------------------------------------------------------------------------

VECTOR_FIELDS = [f.name for f in dataclasses.fields(FeatureVector)]


def test_vector_is_a_slotted_frozen_value():
    vector = make_vector(label=Label.MINER)
    same = make_vector(label=Label.MINER)
    assert vector == same and hash(vector) == hash(same) and vector is not same
    assert vector != make_vector() and vector != make_vector(host="g", label=Label.MINER)
    assert not hasattr(vector, "__dict__")
    assert vector.values() == (100.0, 10.0, 5.0, 0.2, 0.5, 0.3, 0.0, 0.1)
    assert repr(vector) == (
        "FeatureVector(host='h', bpp=100.0, ppm=10.0, ppf=5.0, ackpush_all=0.2, req_all=0.5, "
        "syn_all=0.3, rst_all=0.0, fin_all=0.1, label=<Label.MINER: 'Miner'>, normalized=False)"
    )
    doubled = dataclasses.replace(vector, bpp=200.0)
    assert doubled.bpp == 200.0 and doubled != vector and vector.bpp == 100.0
    assert doubled.label is Label.MINER
    for twin in (pickle.loads(pickle.dumps(vector)), copy.deepcopy(vector), copy.copy(vector)):
        assert twin == vector and hash(twin) == hash(vector) and twin.label is Label.MINER
    with pytest.raises(dataclasses.FrozenInstanceError):
        vector.bpp = 5.0
    # replace re-runs every check
    with pytest.raises(ValueError, match=r"^syn_all=1.5 outside \[0, 1\]$"):
        dataclasses.replace(vector, syn_all=1.5)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"bpp": math.nan}, "bpp=nan must be finite and >= 0"),
        ({"ppm": math.inf}, "ppm=inf must be finite and >= 0"),
        ({"ppf": -math.inf}, "ppf=-inf must be finite and >= 0"),
        ({"ppf": -1.0}, "ppf=-1.0 must be finite and >= 0"),
        ({"syn_all": 1.5}, "syn_all=1.5 outside [0, 1]"),
        ({"fin_all": math.nan}, "fin_all=nan outside [0, 1]"),
        ({"ackpush_all": -0.5}, "ackpush_all=-0.5 outside [0, 1]"),
        ({"normalized": True, "bpp": 0.5, "ppm": 1.5, "ppf": 0.5}, "normalized ppm=1.5 outside [0, 1]"),
        ({"normalized": True, "bpp": 0.5, "ppm": 0.5, "ppf": math.nan}, "normalized ppf=nan outside [0, 1]"),
        ({"label": "Miner"}, "label for 'h' must be a Label member, got 'Miner'"),
        ({"label": None}, "label for 'h' must be a Label member, got None"),
        # several bad arguments: the ratios first, then bpp/ppm/ppf, then the label,
        # each group in FEATURE_ORDER
        ({"bpp": math.nan, "rst_all": 1.5, "req_all": -0.5}, "req_all=-0.5 outside [0, 1]"),
        ({"ppf": math.inf, "bpp": -1.0, "label": "Miner"}, "bpp=-1.0 must be finite and >= 0"),
        ({"normalized": True}, "normalized bpp=100.0 outside [0, 1]"),
        ({"normalized": True, "fin_all": 2.0}, "fin_all=2.0 outside [0, 1]"),
    ],
    ids=[
        "nan-raw", "inf-raw", "minus-inf-raw", "negative-raw", "ratio", "nan-ratio",
        "negative-ratio", "normalized-raw", "nan-normalized-raw", "plain-string-label",
        "no-label", "first-ratio-of-three", "raw-before-label", "first-normalized-raw",
        "ratio-before-normalized-raw",
    ],
)
def test_vector_rejects_bad_argument_alike_by_every_route(bad, message):
    fields = {name: getattr(make_vector(), name) for name in VECTOR_FIELDS} | bad
    routes = {
        "positional": lambda: FeatureVector(*(fields[name] for name in VECTOR_FIELDS)),
        "keyword": lambda: FeatureVector(**fields),
        "replace": lambda: dataclasses.replace(make_vector(), **bad),
    }
    for route, build in routes.items():
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message, route
    # the checks run before any field is stored
    blank = object.__new__(FeatureVector)
    with pytest.raises(ValueError):
        blank.__init__(**fields)
    assert [name for name in VECTOR_FIELDS if hasattr(blank, name)] == []


@pytest.mark.parametrize(
    "record_type, twin",
    [(FlowRecord, flow_model._FlowSlots), (FeatureVector, flow_model._VectorSlots)],
    ids=["flow", "vector"],
)
def test_record_twin_has_exactly_the_record_fields_as_slots(record_type, twin):
    # __init__ fills a record through its twin class: a field added to one
    # and not the other fails here
    names = tuple(f.name for f in dataclasses.fields(record_type))
    assert twin.__slots__ == names == record_type.__slots__


def test_built_records_are_of_their_own_class():
    flow, vector = make_flow(), make_vector()
    flows = [
        flow,
        FlowRecord(*(getattr(flow, name) for name in flow_model.FLOW_FIELDS)),
        dataclasses.replace(flow, packets=3),
        pickle.loads(pickle.dumps(flow)),
        copy.copy(flow),
        copy.deepcopy(flow),
        *parse_flow_csv(flows_to_csv([flow, make_flow(src_host="h3")])),
    ]
    vectors = [
        vector,
        dataclasses.replace(vector, bpp=1.0),
        pickle.loads(pickle.dumps(vector)),
        copy.copy(vector),
        normalize(vector, fit_normalizer([vector])),
        *parse_feature_csv(features_to_csv([vector, make_vector(host="g")])),
        *host_vectors(flows),
    ]
    assert {type(f) for f in flows} == {FlowRecord}
    assert {type(v) for v in vectors} == {FeatureVector}
    # a record whose checks fail keeps its own class
    blank = object.__new__(FlowRecord)
    with pytest.raises(ValueError):
        blank.__init__(**{**dataclasses.asdict(flow), "packets": 0})
    assert type(blank) is FlowRecord


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------

def test_parse_header_only_gives_empty_list():
    assert parse_flow_csv(HEADER + "\n") == []


def test_parse_maps_fields_directly():
    text = HEADER + "\nh1,h2,50012,3333,TCP,0,60,120,9600,SYN|ACK|PUSH,1\n"
    (flow,) = parse_flow_csv(text)
    assert flow.packets == 120
    assert flow.bytes == 9600
    assert flow.flags == frozenset({"SYN", "ACK", "PUSH"})
    assert flow.dst_port == 3333
    assert flow.is_request is True


def test_parse_rejects_end_before_start_with_line_number():
    text = (
        HEADER
        + "\nh1,h2,1,2,TCP,0,60,5,100,,1\n"
        + "h1,h2,1,2,TCP,10,5,5,100,,1\n"
    )
    with pytest.raises(MalformedRowError) as exc:
        parse_flow_csv(text)
    assert exc.value.line_no == 3


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_parse_rejects_non_finite_start_time_with_line_number(bad):
    text = (
        HEADER
        + "\nh1,h2,1,2,TCP,0,60,5,100,,1\n"
        + f"h1,c,1,2,TCP,{bad},1,5,100,,1\n"
    )
    with pytest.raises(MalformedRowError) as exc:
        parse_flow_csv(text)
    assert exc.value.line_no == 3
    assert "finite" in str(exc.value)


def test_parse_names_physical_line_after_quoted_newline():
    # the host cell of line 2 runs on to line 3, so the bad row is line 4
    text = (
        HEADER
        + '\n"x\ny",h2,1,2,TCP,0,60,5,100,,0\n'
        + "h1,h2,1,2,ICMP,0,60,5,100,,1\n"
    )
    for parse in (parse_flow_csv, parse_flow_csv_naive):
        with pytest.raises(MalformedRowError) as exc:
            parse(text)
        assert exc.value.line_no == 4


def test_flow_rejects_non_finite_end_time():
    with pytest.raises(ValueError, match="finite"):
        make_flow(end_time=float("inf"))


def test_parse_missing_column():
    with pytest.raises(MissingColumnError):
        parse_flow_csv("src_host,dst_host\nh1,h2\n")


def test_parse_with_schema_mapping():
    text = "SrcAddr,DstAddr,Sport,Dport,Proto,Start,End,Pkts,Bytes,Flags,Req\n" \
           "a,b,1,2,UDP,0,1,3,300,,0\n"
    schema = {
        "src_host": "SrcAddr",
        "dst_host": "DstAddr",
        "src_port": "Sport",
        "dst_port": "Dport",
        "protocol": "Proto",
        "start_time": "Start",
        "end_time": "End",
        "packets": "Pkts",
        "bytes": "Bytes",
        "flags": "Flags",
        "is_request": "Req",
    }
    (flow,) = parse_flow_csv(text, schema=schema)
    assert flow.protocol is Protocol.UDP
    assert flow.is_request is False


@pytest.mark.parametrize("schema, fields, column", [
    ({"dst_host": "src_host"}, "'src_host' and 'dst_host'", "src_host"),
    ({"src_host": "addr", "dst_host": "addr"}, "'src_host' and 'dst_host'", "addr"),
    ({"end_time": "start_time"}, "'start_time' and 'end_time'", "start_time"),
])
def test_parse_rejects_a_schema_reading_one_column_for_two_fields(schema, fields, column):
    # one field would silently copy the other: every flow a loopback, say
    with pytest.raises(InvalidConfigError, match=f"flow fields {fields} both read column '{column}'"):
        parse_flow_csv(HEADER + "\nh1,h2,1,2,TCP,0,1,3,300,,0\n", schema=schema)


@pytest.mark.parametrize("extra, schema, column", [
    ("src_host", None, "src_host"),
    (" src_host ", None, "src_host"),  # header cells are stripped
    ("Src", {"src_host": "Src"}, "Src"),
], ids=["plain", "padded", "schema-renamed"])
def test_parse_rejects_a_header_repeating_a_read_column(extra, schema, column):
    # else the last cell would win unseen: src_host read as "zzz"
    header = HEADER.replace("src_host", column, 1) + "," + extra
    with pytest.raises(MalformedRowError, match=(
        rf"^line 1: header names column '{column}' twice \(cells 1 and 12\)$"
    )):
        parse_flow_csv(header + "\na,b,1,2,TCP,0,1,3,300,,1,zzz\n", schema=schema)


@pytest.mark.parametrize("first, extra, schema", [
    ("src_host", "note,note", None),
    ("Src", "src_host,src_host", {"src_host": "Src"}),  # no field reads src_host
], ids=["plain", "schema-renamed"])
def test_parse_allows_a_header_repeating_an_unread_column(first, extra, schema):
    header = HEADER.replace("src_host", first, 1)
    row = "a,b,1,2,TCP,0,1,3,300,,1"
    (flow,) = parse_flow_csv(f"{header},{extra}\n{row},y,z\n", schema=schema)
    assert flow == parse_flow_csv(f"{header}\n{row}\n", schema=schema)[0]
    assert flow.src_host == "a"


def test_flow_csv_round_trip():
    rng = random.Random(7)
    flows = []
    for i in range(50):
        proto = Protocol.TCP if rng.random() < 0.8 else Protocol.UDP
        flags = (
            frozenset(rng.sample(flow_model.FLAG_NAMES, rng.randint(0, 3)))
            if proto is Protocol.TCP
            else frozenset()
        )
        start = rng.uniform(0, 600)
        flows.append(
            make_flow(
                src_host=f"h{rng.randint(0, 20)}",
                dst_host=f"g{rng.randint(0, 20)}",
                protocol=proto,
                flags=flags,
                start_time=start,
                end_time=start + rng.uniform(0, 90),
                packets=rng.randint(1, 500),
                bytes=rng.randint(0, 10_000),
                is_request=rng.random() < 0.5,
            )
        )
    assert parse_flow_csv(flows_to_csv(flows)) == flows


# ---------------------------------------------------------------------------
# the parser against the naive referee
# ---------------------------------------------------------------------------

REFERENCE_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "reference.cfg"

REFERENCE_CONFIG = ScenarioConfig.from_kv(read_kv_file(str(REFERENCE_SCENARIO)))

#: The reference scenario, the golden CLI captures (its seeds 7 and 11) and
#: the other benchmark workloads' scenarios at seed 3: ring600 is
#: wide_network's, pool_clique pool_mesh's.
CAPTURES = [
    pytest.param(REFERENCE_CONFIG, id="reference"),
    pytest.param(
        ScenarioConfig(seed=3, n_hosts=600, ring_degree=4, n_windows=4, benign_rate=1,
                       recruitment_schedule=(0, 12, 12)),
        id="ring600",
    ),
    pytest.param(
        ScenarioConfig(seed=3, n_hosts=200, n_windows=4, recruitment_schedule=(0, 60, 60)),
        id="pool_clique",
    ),
    pytest.param(dataclasses.replace(REFERENCE_CONFIG, seed=3, n_windows=12), id="long_capture"),
    pytest.param(dataclasses.replace(REFERENCE_CONFIG, seed=7), id="golden-train"),
    pytest.param(dataclasses.replace(REFERENCE_CONFIG, seed=11), id="golden-eval"),
]


@pytest.fixture(scope="module")
def reference_flows():
    flows, _ = generate(REFERENCE_CONFIG)
    return flows


@pytest.fixture(scope="module")
def reference_csv(reference_flows):
    return flows_to_csv(reference_flows)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "a\nb",
        "a\r\nb\rc\n\n",
        "\n\n x \n",
        'h,"x\ny"\n\u2028\x0b\x85\n',
    ],
)
def test_csv_lines_split_like_stringio(text):
    assert list(flow_model._csv_lines(text)) == list(io.StringIO(text))


_QUOTED = (
    HEADER
    + '\n"a,b",h2,1,2,TCP,0,60,5,100,SYN|ACK,1\n'
    + '"x\ny",h2,1,2,TCP,0,60,5,100,,0\n'
    + '"a,b","x\ny",3,4,UDP,1.5,2.25,7,700,,1\n'
)
_VARIANTS = (
    HEADER
    + "\n h1 ,h2 ,1,2, tcp ,0,60,5,100,ack | push,yes\n"
    + "h1,h2,1,2,Tcp,0,60,5,100, ACK|PUSH ,True\n"
    + "h2,h1,1,2,udp,0,60,5,100,,0\n"
    + "h2,h1,1,2, UDP ,0,60,5,100,  ,no\n"
    + "h1,h2,1,2,TCP,0,60,5,100,push|ack,1\n"
)
_SCHEMA_TEXT = (
    "Req,Extra,Flags,Bytes,Pkts,End,Start,Proto,Dport,Sport,DstAddr,SrcAddr,More\n"
    "1,x,SYN,300,3,1,0,TCP,2,1,b,a,\n"
    "0,,,400,4,2,1,UDP,53,9,a,c,y\n"
)
_SCHEMA = {
    "src_host": "SrcAddr",
    "dst_host": "DstAddr",
    "src_port": "Sport",
    "dst_port": "Dport",
    "protocol": "Proto",
    "start_time": "Start",
    "end_time": "End",
    "packets": "Pkts",
    "bytes": "Bytes",
    "flags": "Flags",
    "is_request": "Req",
}


@pytest.mark.parametrize(
    "text, schema",
    [
        pytest.param(_QUOTED, None, id="quoted-comma-and-newline"),
        pytest.param(_VARIANTS.replace("\n", "\r\n"), None, id="crlf"),
        pytest.param(
            _VARIANTS.replace("\n", "\n\n  \n").rstrip(" \n"), None, id="blank-lines-no-final-newline"
        ),
        pytest.param(_VARIANTS, None, id="cell-variants"),
        pytest.param(_VARIANTS.splitlines(keepends=True), None, id="iterable-of-lines"),
        pytest.param(_SCHEMA_TEXT, _SCHEMA, id="schema-reordered-extra-columns"),
    ],
)
def test_parse_matches_naive_parser(text, schema):
    flows = parse_flow_csv(text, schema=schema)
    assert flows and flows == parse_flow_csv_naive(text, schema=schema)


def test_parse_matches_naive_parser_on_synthgen_capture(reference_csv):
    flows = parse_flow_csv(reference_csv)
    assert len(flows) > 1000
    assert flows == parse_flow_csv_naive(reference_csv)
    assert flows_to_csv(flows) == reference_csv


_HOSTS = ["a,b", 'say "hi"', "x\ny", "", "h1", '"q",\n"r"', "h\r1"]
_PADDED_HOSTS = [" lead", "trail ", ' "q", \n']
_TIMES = [
    (-0.0, -0.0),
    (-0.0, 1e-07),
    (1e-07, 1e16),
    (5e-324, 5e-324),
    (0.1 + 0.2, 1.7976931348623157e308),
    (1.7976931348623157e308, 1.7976931348623157e308),
]


def awkward_flows(hosts):
    """Flows over ``hosts`` with every edge case of the canonical row."""
    flows = []
    for i, (start, end) in enumerate(_TIMES):
        for j, host in enumerate(hosts):
            udp = (i + j) % 3 == 0
            flows.append(
                make_flow(
                    src_host=host,
                    dst_host=hosts[(j + i) % len(hosts)],
                    src_port=(i * 7919 + j) % 65536,
                    dst_port=65535 if j % 2 else 0,
                    protocol=Protocol.UDP if udp else Protocol.TCP,
                    start_time=start,
                    end_time=end,
                    packets=1 if j % 2 else 2**63 - 1 - j,
                    bytes=0 if i % 2 else 2**63 - 1 - i,
                    flags=frozenset() if udp or j == 1 else frozenset(flow_model.FLAG_NAMES[: j % 6]),
                    is_request=bool((i + j) % 2),
                )
            )
    return flows


def test_flows_to_csv_matches_csv_writer_on_synthgen_capture(reference_flows):
    text = flows_to_csv(reference_flows)
    assert text == flows_to_csv_writer(reference_flows)
    assert parse_flow_csv(text) == reference_flows


def test_flows_to_csv_matches_csv_writer_on_awkward_cells():
    flows = awkward_flows(_HOSTS)
    assert {f.is_request for f in flows} == {True, False}
    assert any(f.protocol is Protocol.UDP for f in flows)
    text = flows_to_csv(flows)
    assert text == flows_to_csv_writer(flows)
    parsed = parse_flow_csv(text)
    assert parsed == flows
    assert [repr(f.start_time) for f in parsed] == [repr(f.start_time) for f in flows]


def test_flows_to_csv_matches_csv_writer_on_padded_hosts():
    # the parser strips host cells, so only the written bytes can be compared
    flows = awkward_flows(_PADDED_HOSTS + _HOSTS)
    assert flows_to_csv(flows) == flows_to_csv_writer(flows)
    assert flows_to_csv([]) == flows_to_csv_writer([]) == HEADER + "\n"


#: captures for the streamed digest; multi-byte UTF-8 hosts put rows of
#: several byte lengths on every chunk seam
_DIGEST_CAPTURES = {
    "awkward-cells": lambda request: awkward_flows(_HOSTS + ["hôst", "主机"]),
    "padded-hosts": lambda request: awkward_flows(_PADDED_HOSTS + _HOSTS),
    "empty": lambda request: [],
    "synthgen": lambda request: request.getfixturevalue("reference_flows"),
    "synthgen-records": lambda request: list(request.getfixturevalue("reference_flows")),
}


@pytest.mark.parametrize("chunk_rows", [None, 1, 3])
@pytest.mark.parametrize("capture", sorted(_DIGEST_CAPTURES))
def test_flows_sha256_hashes_the_bytes_of_flows_to_csv(request, monkeypatch, capture, chunk_rows):
    flows = _DIGEST_CAPTURES[capture](request)
    if chunk_rows is not None:
        monkeypatch.setattr(flow_model, "_CHUNK_ROWS", chunk_rows)
    text = flows_to_csv(flows)
    assert text == flows_to_csv_writer(flows)
    assert flow_model.flows_sha256(flows) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_peaks(captures):
    """The tracemalloc peak of flows_sha256 on each capture, one-time allocations left out."""
    peaks = []
    for flows in captures:
        flow_model.flows_sha256(flows)  # so one-time allocations are not counted
        tracemalloc.start()
        try:
            flow_model.flows_sha256(flows)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_flows_sha256_memory_does_not_grow_with_the_capture(reference_flows):
    records = list(reference_flows)
    doubled = records * 2
    single, double = digest_peaks([records, doubled])
    assert double <= single + 64 * 1024
    assert double < len(flows_to_csv(doubled)) / 2


def test_flows_sha256_memory_of_a_table_does_not_grow_with_the_capture(reference_flows):
    doubled = FlowTable.from_records(list(reference_flows) * 2)
    single, double = digest_peaks([reference_flows, doubled])
    assert double <= single + 64 * 1024
    assert double < len(flows_to_csv(doubled)) / 2


_GOOD_TCP = "h1,h2,1,2,TCP,0,60,5,100,ACK,1"
_GOOD_UDP = "h1,h2,1,2,UDP,0,60,5,100,,1"


@pytest.mark.parametrize(
    "warm_up, bad, message",
    [
        ([_GOOD_UDP], "h1,h2,1,2,ICMP,0,60,5,100,,1", "'ICMP' is not a valid Protocol"),
        ([_GOOD_TCP], "h1,h2,1,2,TCP,0,60,5,100,ACK|BOGUS,1", "unknown TCP flags ['BOGUS']"),
        ([_GOOD_TCP, _GOOD_UDP], "h1,h2,1,2,UDP,0,60,5,100,ACK,1", "UDP flow cannot carry TCP flags"),
        ([_GOOD_TCP], "h1,h2,1,2,TCP,nan,60,5,100,ACK,1", "times must be finite"),
        ([_GOOD_TCP], "h1,h2,1,2,TCP,0,60,5,100,ACK", "expected 11 fields, got 10"),
        ([_GOOD_TCP], "h1,h2,1,2,TCP,0,60,5,100,ACK,maybe", "not a boolean: 'maybe'"),
        ([_GOOD_TCP], "h1,h2,1,x,TCP,0,60,5,100,ACK,1", "invalid literal for int() with base 10: 'x'"),
        # a cell that parses is memoised, and the range check still runs on its row
        ([_GOOD_TCP], "h1,h2,1,70000,TCP,0,60,5,100,ACK,1", "port outside 0-65535"),
        ([_GOOD_TCP], "h1,h2,1,2,ICMP,nan,60,x,100,ACK|BOGUS,maybe", "'ICMP' is not a valid Protocol"),
    ],
    ids=[
        "protocol", "flag", "udp-flags", "non-finite", "short", "bool", "dst-port",
        "dst-port-range", "first-bad-cell",
    ],
)
def test_parse_bad_rows_match_naive_parser(warm_up, bad, message):
    # Each bad row is parsed once first and once after good rows that share
    # its other cells, so the memo tables already hold those cells' parses.
    for rows in ([bad], [*warm_up, bad]):
        text = "\n".join([HEADER, *rows]) + "\n"
        with pytest.raises(MalformedRowError) as fast:
            parse_flow_csv(text)
        with pytest.raises(MalformedRowError) as naive:
            parse_flow_csv_naive(text)
        assert fast.value.line_no == naive.value.line_no == len(rows) + 1
        assert str(fast.value) == str(naive.value)
        assert message in str(fast.value)


def test_parse_memory_stays_small_and_shares_fields(reference_csv):
    tracemalloc.start()
    try:
        flows = parse_flow_csv(reference_csv)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # no whole-text copy and no per-record dict, flags set or host string
    assert peak - retained < 2**20
    assert retained / len(flows) < 400
    assert len({id(f.flags) for f in flows}) <= 32
    host_objects = {}
    for f in flows:
        for host in (f.src_host, f.dst_host):
            host_objects.setdefault(host, set()).add(id(host))
    assert all(len(ids) == 1 for ids in host_objects.values())
    port_objects = {}
    for f in flows:
        port_objects.setdefault(f.dst_port, set()).add(id(f.dst_port))
    assert max(port_objects) > 256  # above the ints CPython shares anyway
    assert all(len(ids) == 1 for ids in port_objects.values())


# ---------------------------------------------------------------------------
# the split reader against csv.reader
# ---------------------------------------------------------------------------

def table_outcome(source, width=0, unique_host=False):
    """What CsvTable reads from ``source``: its header and numbered rows, or its error."""
    try:
        table = flow_model.CsvTable(source)
        return table.header, list(table.rows(width, unique_host))
    except (MalformedRowError, MissingColumnError) as exc:
        return type(exc).__name__, getattr(exc, "line_no", None), str(exc)


def quote_first_cell(text):
    """``text`` with its header's first cell quoted, which makes CsvTable read it with csv.reader."""
    first, rest = text.split(",", 1)
    return f'"{first}",{rest}'


#: ``\x0b``, ``\x1c``, ``\x85`` and ``\u2028`` end a line for str.splitlines, not for csv.reader
_SPLIT_ALPHABET = ",,,\n\n\n  \x0b\x1c\x85\u2028abc"


def quote_free_texts(seed):
    """Quote-free texts: with "\n" line ends, "\r\n" ones, a mix, and a lone "\r"."""
    rng = random.Random(seed)
    for _ in range(150):
        text = "".join(rng.choice(_SPLIT_ALPHABET) for _ in range(rng.randint(0, 40)))
        crlf = text.replace("\n", "\r\n")
        mixed = "".join(rng.choice(["\n", "\r\n"]) + part for part in text.split("\n"))[1:]
        lone = text.replace("\n", "\r", 1) if "\n" in text[:-1] else text + "\r"
        for variant in dict.fromkeys([text, crlf, mixed, lone]):
            yield from dict.fromkeys([variant, variant.rstrip("\r\n"), variant + "\n"])


def test_csv_table_reads_a_quote_free_str_without_csv_reader(monkeypatch):
    calls = []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda lines: calls.append(1) or reader(lines))
    text = HEADER + "\nh1,h2,1,2,TCP,0,60,5,100,,1\n"
    # "\r\n" line ends keep the split reader; a NUL, a lone "\r" or a quote does not
    for source in (text, text.replace("\n", "\r\n"), text.replace("\n", "\r\n", 1)):
        flow_model.CsvTable(source)
    assert calls == []
    for source in (text.replace("h1", "h\0"), text.replace("h1", "h\r1"), quote_first_cell(text)):
        flow_model.CsvTable(source)
    assert len(calls) == 3
    flow_model.CsvTable(io.StringIO(text))
    assert len(calls) == 4


@pytest.mark.parametrize("piece", [0, 1, 3, 8, 1 << 16])
@pytest.mark.parametrize("limit", [None, 1, 4])
def test_split_reader_reads_as_csv_reader_does(monkeypatch, piece, limit):
    # the pieces are cut a few characters apart, so cuts fall everywhere
    monkeypatch.setattr(flow_model, "_PIECE_CHARS", piece)
    default = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        for text in quote_free_texts(piece * 10 + (limit or 0)):
            # a lone "\r" keeps a text from the split reader
            assert flow_model._splits(text) == (text.count("\r") == text.count("\r\n"))
            if limit is None and flow_model._splits(text):
                # csv.reader reads a blank line as []; the split reader after the first as ['']
                rows = list(csv.reader(io.StringIO(text)))
                split = [row for _, piece in flow_model._split_pieces(text) for row in piece]
                assert split == rows[:1] + [r or [""] for r in rows[1:]]
            for width, unique_host in ((0, False), (2, False), (1, True)):
                # an iterable of lines is read by csv.reader
                assert table_outcome(text, width, unique_host) == table_outcome(
                    io.StringIO(text), width, unique_host
                ), text
    finally:
        csv.field_size_limit(default)


@pytest.mark.parametrize("quoted", [False, True], ids=["split", "csv-reader"])
def test_over_long_cell_raises_malformed_row_naming_its_line(quoted):
    limit = csv.field_size_limit()
    text = flows_to_csv([make_flow(), make_flow(src_host="h" * limit), make_flow(src_host="x" * (limit + 1))])
    if quoted:
        text = quote_first_cell(text)
    with pytest.raises(MalformedRowError) as exc:
        parse_flow_csv(text)
    assert str(exc.value) == f"line 4: field larger than field limit ({limit})"
    assert exc.value.line_no == 4
    # the header is line 1
    with pytest.raises(MalformedRowError, match=r"^line 1: field larger than field limit"):
        parse_flow_csv("y" * (limit + 1) + "," + text)


def test_nul_reads_through_csv_reader():
    text = HEADER + "\nh1,h2,1,2,TCP,0,60,5,100,,1\nh\0,h2,1,2,TCP,0,60,5,100,,1\n"
    if sys.version_info < (3, 11):
        # csv.reader refuses a NUL before Python 3.11
        with pytest.raises(MalformedRowError, match=r"^line 3: line contains NUL"):
            parse_flow_csv(text)
    else:
        assert parse_flow_csv(text)[1].src_host == "h\0"


@pytest.mark.parametrize("config", CAPTURES)
def test_both_readers_parse_each_capture_alike(config):
    flows, truth = generate(config)
    text = flows_to_csv(flows)
    assert parse_flow_csv(text) == parse_flow_csv(quote_first_cell(text)) == flows
    assert parse_flow_csv_naive(text) == parse_flow_csv_naive(quote_first_cell(text)) == flows
    lines = text.splitlines(keepends=True)
    k = len(lines) // 2
    cells = lines[k].split(",")
    short = ",".join(cells[:-1]) + "\n"
    no_packets = ",".join([*cells[:7], "0", *cells[8:]])
    for bad, message in ((short, "expected 11 fields, got 10"), (no_packets, "packets must be >= 1")):
        broken = "".join([*lines[:k], bad, *lines[k + 1 :]])
        for source in (broken, quote_first_cell(broken)):
            for parse in (parse_flow_csv, parse_flow_csv_naive):
                with pytest.raises(MalformedRowError) as exc:
                    parse(source)
                assert str(exc.value) == f"line {k + 1}: {message}"
    for table, parse in (
        (truth_to_csv(truth), parse_truth_csv),
        (features_to_csv(host_vectors(flows)), parse_feature_csv),
    ):
        assert parse(table) == parse(quote_first_cell(table))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_aggregate_basic_arithmetic():
    flows = [
        make_flow(packets=4, bytes=400),
        make_flow(packets=6, bytes=600),
    ]
    v = aggregate_host_features(flows, "h1", (0.0, 60.0))
    assert v.bpp == 100.0
    assert v.ppm == 10.0
    assert v.ppf == 5.0
    assert v.label is Label.UNLABELED
    assert not v.normalized


def test_aggregate_flag_ratio():
    flows = [
        make_flow(flags=frozenset({"ACK", "PUSH"})),
        make_flow(flags=frozenset({"ACK"})),
        make_flow(flags=frozenset({"SYN"})),
        make_flow(flags=frozenset()),
    ]
    v = aggregate_host_features(flows, "h1", (0.0, 60.0))
    assert v.ackpush_all == 0.25
    assert v.syn_all == 0.25


def test_aggregate_req_counts_only_initiated_flows():
    flows = [
        make_flow(src_host="h1", dst_host="h2", is_request=True),
        make_flow(src_host="h2", dst_host="h1", is_request=True),
    ]
    v = aggregate_host_features(flows, "h1", (0.0, 60.0))
    assert v.req_all == 0.5


def test_aggregate_absent_host_raises():
    with pytest.raises(NoFlowsError):
        aggregate_host_features([make_flow()], "nope", (0.0, 60.0))


def test_aggregate_doubling_packets_doubles_rates_keeps_ratios():
    rng = random.Random(3)
    flows = [
        make_flow(
            packets=rng.randint(1, 50),
            bytes=rng.randint(0, 5000),
            flags=frozenset(rng.sample(flow_model.FLAG_NAMES, rng.randint(0, 2))),
            start_time=rng.uniform(0, 50),
            end_time=55.0,
        )
        for _ in range(20)
    ]
    doubled = [dataclasses.replace(f, packets=f.packets * 2) for f in flows]
    v1 = aggregate_host_features(flows, "h1", (0.0, 60.0))
    v2 = aggregate_host_features(doubled, "h1", (0.0, 60.0))
    assert v2.ppm == pytest.approx(2 * v1.ppm)
    assert v2.ppf == pytest.approx(2 * v1.ppf)
    for name in ("ackpush_all", "req_all", "syn_all", "rst_all", "fin_all"):
        assert getattr(v2, name) == getattr(v1, name)


def test_aggregate_matches_naive_per_statistic_passes():
    rng = random.Random(11)
    hosts = [f"h{i}" for i in range(5)]
    flows = []
    for _ in range(400):
        udp = rng.random() < 0.2
        start = rng.uniform(0, 200)
        flows.append(
            make_flow(
                src_host=rng.choice(hosts),
                dst_host=rng.choice(hosts),
                protocol=Protocol.UDP if udp else Protocol.TCP,
                flags=frozenset() if udp else frozenset(
                    rng.sample(flow_model.FLAG_NAMES, rng.randint(0, 5))
                ),
                start_time=start,
                end_time=start + rng.uniform(0, 30),
                packets=rng.randint(1, 900),
                bytes=rng.randint(0, 90_000),
                is_request=rng.random() < 0.5,
            )
        )
    for window in [(0.0, 60.0), (50.0, 130.5), (0.0, 250.0), (199.99, 200.0)]:
        for host in hosts + ["absent"]:
            expected = aggregate_host_features_naive(flows, host, window)
            if expected is None:
                with pytest.raises(NoFlowsError):
                    aggregate_host_features(iter(flows), host, window)
            else:
                assert aggregate_host_features(iter(flows), host, window) == expected


def test_flows_by_host_keeps_input_order_and_files_loopback_once():
    flows = [
        make_flow(src_host="a", dst_host="b", start_time=3.0),
        make_flow(src_host="c", dst_host="c", start_time=1.0),
        make_flow(src_host="b", dst_host="c", start_time=2.0),
        make_flow(src_host="a", dst_host="b", start_time=0.0),
    ]
    index = flows_by_host(flows)
    assert set(index) == hosts_in(flows)
    assert index["a"] == [flows[0], flows[3]]
    assert index["b"] == [flows[0], flows[2], flows[3]]
    assert index["c"] == [flows[1], flows[2]]


def test_full_span_keeps_the_last_flow_at_epoch_millisecond_times():
    # near 1.7e12 a float step is 2**-12 s, so adding 1e-6 rounds back
    t = 1.7e12
    flows = [
        make_flow(src_host="a", dst_host="b", start_time=t, end_time=t + 5.0, packets=10),
        make_flow(src_host="b", dst_host="c", start_time=t + 10.0, end_time=t + 10.0, packets=30),
    ]
    assert (t + 10.0) + 1e-6 == t + 10.0
    assert full_span(flows) == (t, math.nextafter(t + 10.0, math.inf))
    by_host = {v.host: v for v in host_vectors(flows)}
    assert set(by_host) == {"a", "b", "c"}
    assert by_host["b"].ppf == 20.0  # both of b's flows


@pytest.mark.parametrize("window, length", [
    ((0.0, math.inf), "inf"),
    ((-math.inf, 5.0), "inf"),
    ((-1e308, 1e308), "inf"),
    ((0.0, math.nan), "nan"),
    ((5.0, 5.0), "0.0"),
])
def test_aggregate_refuses_a_window_of_length_not_finite_and_above_0(window, length):
    message = f"window [{window[0]}, {window[1]}) needs a finite length > 0, got {length}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        aggregate_host_features([make_flow()], "h1", window)


def test_a_span_too_long_for_a_float_is_refused():
    flows = [make_flow(start_time=-1e308, end_time=-1e308), make_flow(start_time=1e308, end_time=1e308)]
    # the span ends at the next float above the last end, as adding 1e-6 rounds back to it
    message = f"window [-1e+308, {math.nextafter(1e308, math.inf)}) needs a finite length > 0, got inf"
    for fn in (full_span, host_vectors):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fn(flows)


def test_an_empty_capture_has_no_span_and_no_host_vector():
    with pytest.raises(EmptyInputError, match="full_span needs at least one flow"):
        full_span([])
    assert host_vectors([]) == []


def naive_host_vectors(flows):
    """Every host's vector over the full span, each from the record oracle's scan of all flows."""
    span = full_span(flows)
    return [aggregate_host_features_naive(flows, host, span) for host in sorted(hosts_in(flows))]


def test_host_vectors_match_per_host_full_scan():
    flows, _ = generate(ScenarioConfig(seed=5, n_hosts=30, ring_degree=4, n_windows=3,
                                       recruitment_schedule=(0, 2, 1)))
    t_end = max(f.end_time for f in flows)
    # loopback flows on a capture host and on a host seen nowhere else, and a
    # host that only ever receives
    extra = [
        make_flow(src_host=flows[0].src_host, dst_host=flows[0].src_host,
                  start_time=5.0, end_time=6.0, flags=frozenset({"ACK", "PUSH"})),
        make_flow(src_host="loop-only", dst_host="loop-only", start_time=7.0, end_time=8.0),
        make_flow(src_host=flows[1].src_host, dst_host="sink", start_time=9.0,
                  end_time=t_end + 5.0, flags=frozenset({"FIN"}), is_request=True),
        make_flow(src_host=flows[2].dst_host, dst_host="sink", start_time=0.5,
                  end_time=1.0, packets=3, bytes=90, is_request=False),
    ]
    capture = flows[:40] + extra[:2] + flows[40:] + extra[2:]
    vectors = host_vectors(capture)
    assert vectors == naive_host_vectors(capture)
    by_host = {v.host: v for v in vectors}
    assert {"loop-only", "sink"} <= set(by_host)
    assert by_host["sink"].req_all == 0.0


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_fit_normalizer_singleton_and_pair():
    v = make_vector(bpp=50.0)
    params = fit_normalizer([v])
    assert params.bpp == (50.0, 50.0)
    params = fit_normalizer([make_vector(bpp=50.0), make_vector(bpp=150.0)])
    assert params.bpp == (50.0, 150.0)


def test_fit_normalizer_identical_vectors_degenerate():
    vs = [make_vector() for _ in range(5)]
    params = fit_normalizer(vs)
    for name in ("bpp", "ppm", "ppf"):
        lo, hi = getattr(params, name)
        assert lo == hi


def test_fit_normalizer_empty_raises():
    with pytest.raises(EmptyInputError):
        fit_normalizer([])


def test_normalize_midpoint_and_degenerate():
    params = fit_normalizer([make_vector(bpp=50.0), make_vector(bpp=150.0)])
    out = normalize(make_vector(bpp=100.0), params)
    assert out.bpp == 0.5
    assert out.normalized

    degenerate = fit_normalizer([make_vector(bpp=50.0)])
    assert normalize(make_vector(bpp=50.0), degenerate).bpp == 0.0


def test_normalize_twice_raises():
    params = fit_normalizer([make_vector()])
    out = normalize(make_vector(), params)
    with pytest.raises(AlreadyNormalizedError):
        normalize(out, params)


def test_normalized_vectors_land_in_unit_cube():
    rng = random.Random(11)
    vectors = [
        make_vector(
            host=f"h{i}",
            bpp=rng.uniform(0, 2000),
            ppm=rng.uniform(0, 500),
            ppf=rng.uniform(0, 100),
            ackpush_all=rng.random(),
            req_all=rng.random(),
            syn_all=rng.random(),
            rst_all=rng.random(),
            fin_all=rng.random(),
        )
        for i in range(200)
    ]
    params = fit_normalizer(vectors)
    for v in vectors:
        out = normalize(v, params)
        for value in out.values():
            assert 0.0 <= value <= 1.0


def test_normalize_monotone_per_feature():
    rng = random.Random(13)
    vectors = [make_vector(host=f"h{i}", bpp=rng.uniform(0, 100)) for i in range(50)]
    params = fit_normalizer(vectors)
    ordered = sorted(vectors, key=lambda v: v.bpp)
    outs = [normalize(v, params).bpp for v in ordered]
    assert outs == sorted(outs)


_EDGE_VALUES = [0.0, -0.0, 5e-324, 0.25, 1.0, 3.5, 1e6, 1.7976931348623157e308]
_EDGE_SPANS = [
    (0.0, 0.0),
    (-0.0, 0.0),
    (5.0, 5.0),
    (0.0, 5e-324),
    (-0.0, 1.0),
    (1.0, 2.0),
    (5e-324, 1.7976931348623157e308),
    (0.0, 1.7976931348623157e308),
    (-1.7976931348623157e308, 1.7976931348623157e308),
]


def _same_vectors(fast, naive):
    """Equal, and every float has the same repr (so -0.0 is told from 0.0)."""
    assert fast == naive
    assert [repr(x) for v in fast for x in v.values()] == [
        repr(x) for v in naive for x in v.values()
    ]
    assert [(v.label, v.normalized) for v in fast] == [(v.label, v.normalized) for v in naive]


def test_normalize_matches_naive_on_edge_values():
    # raw values below, inside and above each fitted span, spans with hi == lo,
    # signed zeros, the smallest subnormal and the largest float
    fast, naive = [], []
    n, m = len(_EDGE_VALUES), len(_EDGE_SPANS)
    for i, j in itertools.product(range(n), range(m)):
        v = make_vector(
            host=f"h{i}-{j}",
            bpp=_EDGE_VALUES[i],
            ppm=_EDGE_VALUES[(i + 3) % n],
            ppf=_EDGE_VALUES[(i + 5) % n],
            label=list(Label)[(i + j) % 3],
        )
        params = NormalizationParams(
            bpp=_EDGE_SPANS[j], ppm=_EDGE_SPANS[(j + 2) % m], ppf=_EDGE_SPANS[(j + 7) % m]
        )
        fast.append(normalize(v, params))
        naive.append(normalize_naive(v, params))
    _same_vectors(fast, naive)
    scaled = [x for v in fast for x in v.values()[:3]]
    assert 0.0 in scaled and 1.0 in scaled and any(0.0 < x < 1.0 for x in scaled)


def test_normalize_matches_naive_on_synthgen_vectors(reference_flows):
    raw = host_vectors(reference_flows)
    params = fit_normalizer(raw)
    _same_vectors([normalize(v, params) for v in raw], [normalize_naive(v, params) for v in raw])
    already = normalize(raw[0], params)
    for norm in (normalize, normalize_naive):
        with pytest.raises(AlreadyNormalizedError, match=f"^vector for {raw[0].host!r} is already"):
            norm(already, params)


# ---------------------------------------------------------------------------
# feature CSV
# ---------------------------------------------------------------------------

def test_feature_csv_round_trip():
    vectors = [make_vector(host="a", label=Label.MINER), make_vector(host="b")]
    text = features_to_csv(vectors)
    assert text.splitlines()[0] == "host," + ",".join(FEATURE_ORDER) + ",class"
    assert parse_feature_csv(text) == vectors


def test_feature_csv_without_host_column():
    text = ",".join(FEATURE_ORDER) + ",class\n" + ",".join(["0.5"] * 8) + ",Miner\n"
    (v,) = parse_feature_csv(text)
    assert v.label is Label.MINER
    assert v.host == "row1"


FEATURES = ",".join(["0.5"] * 8)


def test_feature_csv_names_physical_line_after_quoted_newline():
    text = (
        "host," + ",".join(FEATURE_ORDER) + ",class\n"
        + f'"x\ny",{FEATURES},Miner\n'
        + f"h2,{FEATURES},Bogus\n"
    )
    with pytest.raises(MalformedRowError) as exc:
        parse_feature_csv(text)
    assert exc.value.line_no == 4


def test_feature_csv_without_host_column_numbers_rows_not_lines():
    # a quoted class cell spans lines 2-3 and line 5 is blank
    text = (
        ",".join(FEATURE_ORDER) + ",class\n"
        + f'{FEATURES},"Miner\n"\n'
        + f"{FEATURES},NotMiner\n"
        + "\n"
        + f"{FEATURES},Miner\n"
    )
    assert [v.host for v in parse_feature_csv(text)] == ["row1", "row2", "row4"]
    with pytest.raises(MalformedRowError) as exc:
        parse_feature_csv(text + f"{FEATURES},Bogus\n")
    assert exc.value.line_no == 7


@pytest.mark.parametrize("with_host, width", [(True, 10), (False, 9)])
def test_feature_csv_short_row_names_field_count(with_host, width):
    header = ("host," if with_host else "") + ",".join(FEATURE_ORDER) + ",class\n"
    with pytest.raises(MalformedRowError, match=f"expected {width} fields, got 6") as exc:
        parse_feature_csv(header + ",".join(["0.5"] * 6) + "\n")
    assert exc.value.line_no == 2


def test_feature_csv_rejects_wrong_order():
    header = "host," + ",".join(reversed(FEATURE_ORDER)) + ",class\n"
    with pytest.raises(MissingColumnError):
        parse_feature_csv(header)


@pytest.mark.parametrize("parse, text", [
    (parse_feature_csv, "host," + ",".join(FEATURE_ORDER) + f",class,note\na,{FEATURES},Miner,x\n"),
    (parse_feature_csv, ",".join(FEATURE_ORDER) + f",class,note\n{FEATURES},Miner,x\n"),
    (parse_truth_csv, "host,label,recruitment_window,note\na,Miner,0,x\n"),
    (parse_predictions_csv, "host,label,score,note\na,Miner,0.5,x\n"),
], ids=["features", "features-without-host", "truth", "predictions"])
def test_tables_ignore_columns_after_the_expected_ones(parse, text):
    assert parse(text) == parse(text.replace(",note", "").replace(",x", ""))


@pytest.mark.parametrize("parse, table", [
    (parse_feature_csv, "feature CSV"),
    (parse_truth_csv, "ground truth"),
    (parse_predictions_csv, "prediction CSV"),
])
def test_table_header_error_names_the_table(parse, table):
    with pytest.raises(MissingColumnError, match=f"^{table} header must start with host,"):
        parse("host,label\n")


def test_feature_csv_skips_whitespace_only_lines():
    vectors = [make_vector(host="a", label=Label.MINER), make_vector(host="b")]
    header, *rows = features_to_csv(vectors).splitlines(keepends=True)
    assert parse_feature_csv("".join([header, " \t \n", rows[0], "   \n", rows[1]])) == vectors


def test_feature_csv_rejects_repeated_host_with_line_number():
    text = features_to_csv([make_vector(host=h) for h in ("a", "b", " a ")])
    with pytest.raises(MalformedRowError, match=r"line 4: duplicate host 'a' \(first on line 2\)"):
        parse_feature_csv(text)


def test_feature_csv_without_host_column_allows_equal_rows():
    text = ",".join(FEATURE_ORDER) + ",class\n" + f"{FEATURES},Miner\n" * 2
    assert [v.host for v in parse_feature_csv(text)] == ["row1", "row2"]


@pytest.fixture(scope="module")
def reference_labeled_csv():
    """Every host of the reference capture, labeled from its ground truth."""
    flows, truth = generate(REFERENCE_CONFIG)
    vectors = [
        dataclasses.replace(v, label=truth.labels[v.host])
        for v in host_vectors(flows)
        if v.host in truth.labels
    ]
    return features_to_csv(vectors)


def _without_host_column(text):
    return "".join(line.partition(",")[2] for line in text.splitlines(keepends=True))


@pytest.mark.parametrize("with_host", [True, False])
def test_feature_csv_matches_naive_parser_on_synthgen_table(reference_labeled_csv, with_host):
    text = reference_labeled_csv if with_host else _without_host_column(reference_labeled_csv)
    vectors = parse_feature_csv(text)
    assert {v.label for v in vectors} == {Label.MINER, Label.NOT_MINER}
    _same_vectors(vectors, parse_feature_csv_naive(text))
    if with_host:
        assert features_to_csv(vectors) == text


_FEATURE_HEADER_TEXT = "host," + ",".join(FEATURE_ORDER) + ",class"
_GOOD_FEATURE_ROW = "a,100,10,5,0.2,0.5,0.3,0,0.1,Miner"


@pytest.mark.parametrize(
    "bad, message",
    [
        ("b,nan,0.5,0.5,0.2,0.5,0.3,0,0.1,Miner", "bpp=nan"),
        ("b,0.5,inf,0.5,0.2,0.5,0.3,0,0.1,Miner", "ppm=inf"),
        ("b,0.5,0.5,0.5,0.2,0.5,1.5,0,0.1,Miner", "syn_all=1.5 outside [0, 1]"),
        ("b,0.5,0.5,1.5,0.2,0.5,0.3,0,0.1,Miner", None),
        ("b,0.5,0.5,0.5,0.2,0.5,0.3,0,0.1,Bogus", "unknown class label 'Bogus'"),
        ("b,0.5,0.5,x,0.2,0.5,0.3,0,0.1,Bogus", "could not convert string to float: 'x'"),
        ("b,0.5,0.5,0.5,0.2,0.5", "expected 10 fields, got 6"),
        ("a,0.5,0.5,0.5,0.2,0.5,0.3,0,0.1,Miner", "duplicate host 'a' (first on line 2)"),
        ("b,0.5,0.5,nan,0.2,2,0.3,0,0.1,Miner", "req_all=2.0 outside [0, 1]"),
        ("b,nan,0.5,0.5,0.2,2,0.3,0,0.1,Bogus", "unknown class label 'Bogus'"),
    ],
    ids=[
        "nan", "inf", "ratio", "raw-above-one", "unknown-class", "float-before-class", "short",
        "duplicate-host", "ratio-before-raw", "class-before-values",
    ],
)
def test_feature_csv_bad_rows_match_naive_parser(bad, message):
    text = "\n".join([_FEATURE_HEADER_TEXT, _GOOD_FEATURE_ROW, bad]) + "\n"
    if message is None:  # a raw feature may exceed 1
        assert parse_feature_csv(text) == parse_feature_csv_naive(text)
        return
    with pytest.raises(MalformedRowError) as fast:
        parse_feature_csv(text)
    with pytest.raises(MalformedRowError) as naive:
        parse_feature_csv_naive(text)
    assert fast.value.line_no == naive.value.line_no == 3
    assert str(fast.value) == str(naive.value)
    assert message in str(fast.value)


@pytest.mark.parametrize(
    "rows",
    [
        ["b,0.5,0.5,0.5,0.2,0.5,1.5,0,0.1,Miner", "a,1,1,1,0.2,0.5,0.3,0,0.1,Miner"],
        ["b,0.5,0.5,0.5,0.2,0.5,1.5,0,0.1,Miner", "c,x,1,1,0.2,0.5,0.3,0,0.1,Miner"],
        ["b,-1,0.5,0.5,0.2,0.5,0.3,0,0.1,Miner", "c,1,1,1,0.2,0.5,0.3,0,0.1,Bogus"],
        ["b,0.5,0.5,0.5,0.2,0.5,0.3,0,nan,Miner", "", "c,1,1"],
        ["b,1,1,1,0.2,0.5,0.3,0,0.1,Miner", "c,1,1,1,0.2,0.5,0.3,0,0.1,Bogus", "d,nan,1,1,0,0,0,0,0,Miner"],
        ["b,1,1,1,0.2,0.5,0.3,0,0.1,Miner", "", "c,1,1,1,0.2,0.5,0.3,0,0.1,Miner", "d,1,inf,1,0,0,0,0,0,x"],
    ],
    ids=[
        "range-before-duplicate", "range-before-float", "range-before-class", "range-before-short",
        "class-before-range", "range-after-blank",
    ],
)
@pytest.mark.parametrize("with_host", [True, False], ids=["host", "row-ids"])
def test_feature_csv_names_the_first_bad_row_like_the_naive_parser(rows, with_host):
    # the column read checks every row at once; the first bad row in the file still raises
    text = "\n".join([_FEATURE_HEADER_TEXT, _GOOD_FEATURE_ROW, *rows]) + "\n"
    text = text if with_host else _without_host_column(text)
    with pytest.raises(MalformedRowError) as fast:
        parse_feature_csv(text)
    with pytest.raises(MalformedRowError) as naive:
        parse_feature_csv_naive(text)
    assert (fast.value.line_no, str(fast.value)) == (naive.value.line_no, str(naive.value))


def test_feature_table_rows_and_digest_equal_the_parsed_vectors(reference_labeled_csv):
    # row<N> ids count blank rows, as the naive parser numbers them
    text = _without_host_column(reference_labeled_csv).replace("\n", "\n\n", 3)
    for csv_text in (reference_labeled_csv, text):
        table = parse_feature_csv(csv_text)
        assert isinstance(table, FeatureTable) and table.matrix.flags.c_contiguous
        assert not table.matrix.flags.writeable and not table.normalized
        _same_vectors(list(table), parse_feature_csv_naive(csv_text))
        assert list(table.hosts) == [v.host for v in table]
        expected = hashlib.sha256(features_to_csv(list(table)).encode("utf-8")).hexdigest()
        assert flow_model.features_sha256(table) == expected
        assert features_to_csv(table) == features_to_csv(list(table))
    assert FeatureTable.from_vectors(table) is table
    assert table == list(table) and table[1:3] == list(table)[1:3] and table[-1] == list(table)[-1]
    with pytest.raises(ValueError, match="raw or normalized"):
        FeatureTable.from_vectors([table[0], normalize(table[1], fit_normalizer([table[1]]))])


def test_normalized_tables_match_naive_at_the_clamp_edges():
    # every _EDGE_VALUES row in one table per span: values below, at and above lo and hi,
    # hi == lo, signed zeros, subnormals and the largest float
    n, m = len(_EDGE_VALUES), len(_EDGE_SPANS)
    for j in range(m):
        params = NormalizationParams(
            bpp=_EDGE_SPANS[j], ppm=_EDGE_SPANS[(j + 2) % m], ppf=_EDGE_SPANS[(j + 7) % m]
        )
        vectors = [
            make_vector(
                host=f"h{i}", bpp=_EDGE_VALUES[i], ppm=_EDGE_VALUES[(i + 3) % n],
                ppf=_EDGE_VALUES[(i + 5) % n], label=list(Label)[(i + j) % 3],
            )
            for i in range(n)
        ]
        table = normalize(FeatureTable.from_vectors(vectors), params)
        assert table.normalized
        _same_vectors(list(table), [normalize_naive(v, params) for v in vectors])


def test_normalize_vectors_fits_one_scale_on_both_tables():
    # the labeled set alone holds the bpp extremes; ppm is one value everywhere (hi == lo)
    raw = [make_vector(host=f"r{i}", bpp=b, ppm=3.0) for i, b in enumerate([10.0, 20.0, 0.5])]
    labeled = [
        make_vector(host="lo", bpp=0.25, ppm=3.0, label=Label.MINER),
        make_vector(host="hi", bpp=40.0, ppm=3.0, label=Label.NOT_MINER),
    ]
    params = fit_normalizer(raw, labeled)
    assert params == fit_normalizer([*raw, *labeled]) == NormalizationParams(
        bpp=(0.25, 40.0), ppm=(3.0, 3.0), ppf=(5.0, 5.0)
    )
    host_norm, labeled_norm = pipeline.normalize_vectors(FeatureTable.from_vectors(raw), labeled)
    _same_vectors(list(host_norm), [normalize_naive(v, params) for v in raw])
    _same_vectors(list(labeled_norm), [normalize_naive(v, params) for v in labeled])
    assert [v.bpp for v in labeled_norm] == [0.0, 1.0]
    assert {v.ppm for v in [*host_norm, *labeled_norm]} == {0.0}
    # Python's min() and max() keep the first of equal extremes: so do the table bounds
    zeros = [make_vector(host="p", bpp=0.0), make_vector(host="n", bpp=-0.0)]
    assert repr(fit_normalizer(zeros).bpp) == repr(fit_normalizer_naive(zeros).bpp)
    assert repr(fit_normalizer(zeros[::-1]).bpp) == repr(fit_normalizer_naive(zeros[::-1]).bpp)
    with pytest.raises(AlreadyNormalizedError, match="'lo' is already normalized"):
        fit_normalizer(raw, labeled_norm)


def fit_normalizer_naive(vectors):
    """fit_normalizer as it was: Python's min() and max() of each raw feature."""
    values = {name: [getattr(v, name) for v in vectors] for name in ("bpp", "ppm", "ppf")}
    return NormalizationParams(**{name: (min(x), max(x)) for name, x in values.items()})


#: feature vectors with every awkward host cell, multi-byte UTF-8 included
_AWKWARD_VECTORS = [
    make_vector(host=host, bpp=0.1 * i, ppm=1e300 if i % 2 else 5e-324, label=list(Label)[i % 3])
    for i, host in enumerate(_HOSTS + _PADDED_HOSTS + ["hôst", "主机"])
]


@pytest.mark.parametrize("chunk_rows", [None, 1, 3])
@pytest.mark.parametrize("n_vectors", [0, 1, 3, len(_AWKWARD_VECTORS)])
def test_features_sha256_hashes_the_bytes_of_features_to_csv(monkeypatch, chunk_rows, n_vectors):
    vectors = _AWKWARD_VECTORS[:n_vectors]
    if chunk_rows is not None:
        monkeypatch.setattr(flow_model, "_CHUNK_ROWS", chunk_rows)
    text = features_to_csv(vectors)
    assert text == features_to_csv_writer(vectors)
    assert flow_model.features_sha256(vectors) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_only_flow_model_builds_csv_readers_and_writers():
    # every table is read and written by flow_model.CsvTable and flow_model.csv_text,
    # so the row rules live in one place
    package = Path(flow_model.__file__).parent
    builders = re.compile(r"\bcsv\.(reader|writer)\(")
    offenders = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "flow_model.py" and builders.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []



@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("feature", ["bpp", "ppm", "ppf"])
def test_raw_feature_must_be_finite(feature, value):
    with pytest.raises(ValueError, match="finite"):
        make_vector(**{feature: float(value)})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("feature", ["bpp", "ppm", "ppf"])
def test_feature_csv_rejects_non_finite_raw_feature_with_line_number(feature, value):
    lines = features_to_csv([make_vector(host=h) for h in "abc"]).splitlines()
    cells = lines[2].split(",")
    cells[1 + FEATURE_ORDER.index(feature)] = value
    lines[2] = ",".join(cells)
    with pytest.raises(MalformedRowError, match="finite") as exc:
        parse_feature_csv("\n".join(lines) + "\n")
    assert exc.value.line_no == 3
