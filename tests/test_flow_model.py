import random

import pytest

from minedetect import flow_model
from minedetect.errors import (
    AlreadyNormalizedError,
    EmptyInputError,
    MalformedRowError,
    MissingColumnError,
    NoFlowsError,
)
from minedetect.flow_model import (
    FEATURE_ORDER,
    FeatureVector,
    FlowRecord,
    Label,
    Protocol,
    aggregate_host_features,
    features_to_csv,
    fit_normalizer,
    flows_to_csv,
    normalize,
    parse_feature_csv,
    parse_flow_csv,
)

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
    doubled = [
        FlowRecord(
            **{
                **f.__dict__,
                "packets": f.packets * 2,
            }
        )
        for f in flows
    ]
    v1 = aggregate_host_features(flows, "h1", (0.0, 60.0))
    v2 = aggregate_host_features(doubled, "h1", (0.0, 60.0))
    assert v2.ppm == pytest.approx(2 * v1.ppm)
    assert v2.ppf == pytest.approx(2 * v1.ppf)
    for name in ("ackpush_all", "req_all", "syn_all", "rst_all", "fin_all"):
        assert getattr(v2, name) == getattr(v1, name)


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


def test_feature_csv_rejects_wrong_order():
    header = "host," + ",".join(reversed(FEATURE_ORDER)) + ",class\n"
    with pytest.raises(MissingColumnError):
        parse_feature_csv(header)
