"""Flow records, per-host traffic features and feature normalization.

A flow is one unidirectional conversation summary (endpoints, timing,
packet/byte counts, TCP flags). Per host and time window the eight
traffic statistics below are derived; KNN classification and cluster
centroids both run on these eight numbers:

    bpp          total bytes / total packets
    ppm          total packets per minute of window
    ppf          total packets / flow count
    ackpush_all  flows carrying both ACK and PUSH / flow count
    req_all      flows initiated by the host / flow count
    syn_all      flows carrying SYN / flow count
    rst_all      flows carrying RST / flow count
    fin_all      flows carrying FIN / flow count

The three unbounded statistics (bpp, ppm, ppf) are min-max scaled to
[0, 1]; the five ratios are already in [0, 1] and pass through unchanged.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .errors import (
    AlreadyNormalizedError,
    EmptyInputError,
    MalformedRowError,
    MissingColumnError,
    NoFlowsError,
)

FLAG_NAMES = ("SYN", "ACK", "PUSH", "RST", "FIN")

#: Feature column order used everywhere (CSV files, centroids, KNN distance).
FEATURE_ORDER = (
    "bpp",
    "ppm",
    "ppf",
    "ackpush_all",
    "req_all",
    "syn_all",
    "rst_all",
    "fin_all",
)

#: Raw (unbounded) features that need min-max scaling.
RAW_FEATURES = ("bpp", "ppm", "ppf")

FLOW_FIELDS = (
    "src_host",
    "dst_host",
    "src_port",
    "dst_port",
    "protocol",
    "start_time",
    "end_time",
    "packets",
    "bytes",
    "flags",
    "is_request",
)


class Protocol(str, enum.Enum):
    TCP = "TCP"
    UDP = "UDP"


class Label(str, enum.Enum):
    MINER = "Miner"
    NOT_MINER = "NotMiner"
    UNLABELED = "Unlabeled"


_LABEL_ALIASES = {
    "miner": Label.MINER,
    "not-miner": Label.NOT_MINER,
    "notminer": Label.NOT_MINER,
    "not_miner": Label.NOT_MINER,
    "unlabeled": Label.UNLABELED,
    "": Label.UNLABELED,
}


def parse_label(text: str) -> Label:
    """Parse a class column value; accepts 'miner' / 'not-miner' spellings."""
    key = text.strip().lower()
    if key not in _LABEL_ALIASES:
        raise ValueError(f"unknown class label {text!r}")
    return _LABEL_ALIASES[key]


@dataclass(frozen=True)
class FlowRecord:
    """One unidirectional network flow."""

    src_host: str
    dst_host: str
    src_port: int
    dst_port: int
    protocol: Protocol
    start_time: float
    end_time: float
    packets: int
    bytes: int
    flags: frozenset[str]
    is_request: bool

    def __post_init__(self):
        if not (0 <= self.src_port <= 65535 and 0 <= self.dst_port <= 65535):
            raise ValueError("port outside 0-65535")
        if not (math.isfinite(self.start_time) and math.isfinite(self.end_time)):
            raise ValueError(
                f"times must be finite, got start_time {self.start_time}, end_time {self.end_time}"
            )
        if self.end_time < self.start_time:
            raise ValueError(
                f"end_time {self.end_time} before start_time {self.start_time}"
            )
        if self.packets < 1:
            raise ValueError("packets must be >= 1")
        if self.bytes < 0:
            raise ValueError("bytes must be >= 0")
        bad = set(self.flags) - set(FLAG_NAMES)
        if bad:
            raise ValueError(f"unknown TCP flags {sorted(bad)}")
        if self.protocol is Protocol.UDP and self.flags:
            raise ValueError("UDP flow cannot carry TCP flags")

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def involves(self, host: str) -> bool:
        return self.src_host == host or self.dst_host == host


@dataclass(frozen=True)
class FeatureVector:
    """Per-host traffic statistics, raw or min-max normalized."""

    host: str
    bpp: float
    ppm: float
    ppf: float
    ackpush_all: float
    req_all: float
    syn_all: float
    rst_all: float
    fin_all: float
    label: Label = Label.UNLABELED
    normalized: bool = False

    def __post_init__(self):
        for name in ("ackpush_all", "req_all", "syn_all", "rst_all", "fin_all"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name}={v} outside [0, 1]")
        if self.normalized:
            for name in RAW_FEATURES:
                v = getattr(self, name)
                if not (0.0 <= v <= 1.0):
                    raise ValueError(f"normalized {name}={v} outside [0, 1]")
        else:
            for name in RAW_FEATURES:
                if getattr(self, name) < 0.0:
                    raise ValueError(f"{name} must be >= 0")

    def values(self) -> tuple[float, ...]:
        """The eight features in FEATURE_ORDER."""
        return tuple(getattr(self, name) for name in FEATURE_ORDER)


@dataclass(frozen=True)
class NormalizationParams:
    """Per-feature (min, max) over a training set, for the raw features."""

    bpp: tuple[float, float]
    ppm: tuple[float, float]
    ppf: tuple[float, float]

    def __post_init__(self):
        for name in RAW_FEATURES:
            lo, hi = getattr(self, name)
            if hi < lo:
                raise ValueError(f"{name}: max {hi} < min {lo}")


# ---------------------------------------------------------------------------
# flow CSV parsing / serialization
# ---------------------------------------------------------------------------

def _parse_flags(text: str) -> frozenset[str]:
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(part.strip().upper() for part in text.split("|"))


def _parse_bool(text: str) -> bool:
    key = text.strip().lower()
    if key in ("1", "true", "yes"):
        return True
    if key in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def parse_flow_csv(
    text: str | Iterable[str],
    schema: Mapping[str, str] | None = None,
) -> list[FlowRecord]:
    """Parse a flow CSV into FlowRecord values.

    ``schema`` maps FlowRecord field names to CSV column names; by default
    columns carry the field names themselves. Flags are '|'-joined names,
    times are decimal seconds. Rows violating a flow invariant raise
    MalformedRowError with the 1-based line number.
    """
    columns = dict(schema) if schema else {f: f for f in FLOW_FIELDS}
    for field in FLOW_FIELDS:
        columns.setdefault(field, field)

    if isinstance(text, str):
        text = io.StringIO(text)
    reader = csv.reader(text)
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumnError("empty input: no header row")
    header = [h.strip() for h in header]
    position = {name: i for i, name in enumerate(header)}

    missing = [columns[f] for f in FLOW_FIELDS if columns[f] not in position]
    if missing:
        raise MissingColumnError(f"columns absent from header: {missing}")
    idx = {f: position[columns[f]] for f in FLOW_FIELDS}

    flows = []
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < len(header):
            raise MalformedRowError(line_no, f"expected {len(header)} fields, got {len(row)}")
        try:
            flows.append(
                FlowRecord(
                    src_host=row[idx["src_host"]].strip(),
                    dst_host=row[idx["dst_host"]].strip(),
                    src_port=int(row[idx["src_port"]]),
                    dst_port=int(row[idx["dst_port"]]),
                    protocol=Protocol(row[idx["protocol"]].strip().upper()),
                    start_time=float(row[idx["start_time"]]),
                    end_time=float(row[idx["end_time"]]),
                    packets=int(row[idx["packets"]]),
                    bytes=int(row[idx["bytes"]]),
                    flags=_parse_flags(row[idx["flags"]]),
                    is_request=_parse_bool(row[idx["is_request"]]),
                )
            )
        except (ValueError, KeyError) as exc:
            raise MalformedRowError(line_no, str(exc)) from exc
    return flows


def format_flags(flags: frozenset[str]) -> str:
    return "|".join(f for f in FLAG_NAMES if f in flags)


def flows_to_csv(flows: Sequence[FlowRecord]) -> str:
    """Serialize flows back to the canonical CSV schema (round-trips exactly)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FLOW_FIELDS)
    for f in flows:
        writer.writerow(
            [
                f.src_host,
                f.dst_host,
                f.src_port,
                f.dst_port,
                f.protocol.value,
                f.start_time,
                f.end_time,
                f.packets,
                f.bytes,
                format_flags(f.flags),
                int(f.is_request),
            ]
        )
    return out.getvalue()


# ---------------------------------------------------------------------------
# per-host aggregation
# ---------------------------------------------------------------------------

def hosts_in(flows: Iterable[FlowRecord]) -> set[str]:
    hosts: set[str] = set()
    for f in flows:
        hosts.add(f.src_host)
        hosts.add(f.dst_host)
    return hosts


def aggregate_host_features(
    flows: Iterable[FlowRecord],
    host: str,
    window: tuple[float, float],
) -> FeatureVector:
    """Aggregate one host's flows inside [t0, t1) into a raw FeatureVector.

    A flow belongs to the window when its start_time falls inside it.
    Raises NoFlowsError when the host has no flows there; callers decide
    whether to skip the host (the pipeline does) or substitute.
    """
    t0, t1 = window
    if not t1 > t0:
        raise ValueError("window length must be > 0")

    mine = [
        f
        for f in flows
        if t0 <= f.start_time < t1 and f.involves(host)
    ]
    if not mine:
        raise NoFlowsError(f"host {host!r} has no flows in [{t0}, {t1})")

    n = len(mine)
    total_packets = sum(f.packets for f in mine)
    total_bytes = sum(f.bytes for f in mine)
    minutes = (t1 - t0) / 60.0

    def flag_ratio(*required: str) -> float:
        need = set(required)
        return sum(1 for f in mine if need <= f.flags) / n

    return FeatureVector(
        host=host,
        bpp=total_bytes / total_packets,
        ppm=total_packets / minutes,
        ppf=total_packets / n,
        ackpush_all=flag_ratio("ACK", "PUSH"),
        req_all=sum(1 for f in mine if f.is_request and f.src_host == host) / n,
        syn_all=flag_ratio("SYN"),
        rst_all=flag_ratio("RST"),
        fin_all=flag_ratio("FIN"),
    )


def full_span(flows: Sequence[FlowRecord]) -> tuple[float, float]:
    """The window [earliest start, latest end + 1e-6) holding every flow."""
    return min(f.start_time for f in flows), max(f.end_time for f in flows) + 1e-6


def host_vectors(flows: Sequence[FlowRecord]) -> list[FeatureVector]:
    """Raw vectors of every host, sorted by host, each over the full span."""
    span = full_span(flows)
    return [aggregate_host_features(flows, host, span) for host in sorted(hosts_in(flows))]


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def fit_normalizer(vectors: Sequence[FeatureVector]) -> NormalizationParams:
    """Per-feature min/max over a non-empty set of raw vectors."""
    if not vectors:
        raise EmptyInputError("fit_normalizer needs at least one vector")
    for v in vectors:
        if v.normalized:
            raise AlreadyNormalizedError(f"vector for {v.host!r} is already normalized")
    spans = {}
    for name in RAW_FEATURES:
        values = [getattr(v, name) for v in vectors]
        spans[name] = (min(values), max(values))
    return NormalizationParams(**spans)


def normalize(v: FeatureVector, params: NormalizationParams) -> FeatureVector:
    """Min-max scale the raw features of ``v`` into [0, 1].

    Features with max == min map to 0. Values outside the fitted range are
    clamped so the normalized-vector invariant (all fields in [0, 1]) holds
    for any input. Ratio features pass through unchanged.
    """
    if v.normalized:
        raise AlreadyNormalizedError(f"vector for {v.host!r} is already normalized")
    scaled = {}
    for name in RAW_FEATURES:
        lo, hi = getattr(params, name)
        x = getattr(v, name)
        if hi == lo:
            scaled[name] = 0.0
        else:
            scaled[name] = min(1.0, max(0.0, (x - lo) / (hi - lo)))
    return replace(v, normalized=True, **scaled)


# ---------------------------------------------------------------------------
# feature CSV
# ---------------------------------------------------------------------------

def feature_csv_header(with_host: bool = True) -> list[str]:
    cols = list(FEATURE_ORDER) + ["class"]
    return (["host"] + cols) if with_host else cols


def features_to_csv(vectors: Sequence[FeatureVector]) -> str:
    """One row per host: a host id column followed by the eight features and class."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(feature_csv_header())
    for v in vectors:
        writer.writerow([v.host, *v.values(), v.label.value])
    return out.getvalue()


def parse_feature_csv(text: str | Iterable[str], normalized: bool = False) -> list[FeatureVector]:
    """Parse a feature CSV.

    The eight feature columns plus 'class' must appear in canonical order;
    a leading 'host' column is optional (rows without one get synthetic ids
    'row<N>' and cannot be joined to graph features later).
    """
    if isinstance(text, str):
        text = io.StringIO(text)
    reader = csv.reader(text)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise MissingColumnError("empty input: no header row")

    with_host = bool(header) and header[0] == "host"
    expected = feature_csv_header(with_host=with_host)
    if header != expected:
        raise MissingColumnError(
            f"feature CSV header must be {expected}, got {header}"
        )

    vectors = []
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            if with_host:
                host, rest = row[0].strip(), row[1:]
            else:
                host, rest = f"row{line_no - 1}", row
            feats = [float(x) for x in rest[: len(FEATURE_ORDER)]]
            label = parse_label(rest[len(FEATURE_ORDER)])
            vectors.append(
                FeatureVector(
                    host=host,
                    **dict(zip(FEATURE_ORDER, feats)),
                    label=label,
                    normalized=normalized,
                )
            )
        except (ValueError, IndexError) as exc:
            raise MalformedRowError(line_no, str(exc)) from exc
    return vectors
