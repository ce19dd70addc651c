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
import hashlib
import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    AlreadyNormalizedError,
    EmptyInputError,
    MalformedRowError,
    MissingColumnError,
    NoFlowsError,
)

FLAG_NAMES = ("SYN", "ACK", "PUSH", "RST", "FIN")
_FLAG_SET = frozenset(FLAG_NAMES)

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


def parse_class_label(text: str, table: str) -> Label:
    """Parse a label cell of a ``table`` that knows every host's class: Miner or NotMiner only."""
    label = parse_label(text)
    if label is Label.UNLABELED:
        raise ValueError(f"{table} label must be Miner or NotMiner, got {text!r}")
    return label


@dataclass(frozen=True, slots=True, init=False)
class FlowRecord:
    """One unidirectional network flow.

    Slotted: a record has no ``__dict__`` and takes no extra attributes.
    """

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

    def __init__(
        self,
        src_host: str,
        dst_host: str,
        src_port: int,
        dst_port: int,
        protocol: Protocol,
        start_time: float,
        end_time: float,
        packets: int,
        bytes: int,
        flags: frozenset[str],
        is_request: bool,
    ):
        # every check runs before any field is stored; the frozen class's
        # __setattr__ refuses all stores, so they go through the slots'
        # descriptors
        if not (0 <= src_port <= 65535 and 0 <= dst_port <= 65535):
            raise ValueError("port outside 0-65535")
        if not (math.isfinite(start_time) and math.isfinite(end_time)):
            raise ValueError(
                f"times must be finite, got start_time {start_time}, end_time {end_time}"
            )
        if end_time < start_time:
            raise ValueError(f"end_time {end_time} before start_time {start_time}")
        if packets < 1:
            raise ValueError("packets must be >= 1")
        if bytes < 0:
            raise ValueError("bytes must be >= 0")
        if not _FLAG_SET.issuperset(flags):
            raise ValueError(f"unknown TCP flags {sorted(set(flags) - _FLAG_SET)}")
        if protocol is Protocol.UDP and flags:
            raise ValueError("UDP flow cannot carry TCP flags")
        (
            set_src_host, set_dst_host, set_src_port, set_dst_port, set_protocol,
            set_start_time, set_end_time, set_packets, set_bytes, set_flags,
            set_is_request,
        ) = _FLOW_SLOT_SETTERS
        set_src_host(self, src_host)
        set_dst_host(self, dst_host)
        set_src_port(self, src_port)
        set_dst_port(self, dst_port)
        set_protocol(self, protocol)
        set_start_time(self, start_time)
        set_end_time(self, end_time)
        set_packets(self, packets)
        set_bytes(self, bytes)
        set_flags(self, flags)
        set_is_request(self, is_request)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def involves(self, host: str) -> bool:
        return self.src_host == host or self.dst_host == host


_FLOW_SLOT_SETTERS = tuple(vars(FlowRecord)[name].__set__ for name in FLOW_FIELDS)


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
                v = getattr(self, name)
                if not (0.0 <= v < math.inf):
                    raise ValueError(f"{name}={v} must be finite and >= 0")

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


def _csv_lines(text: str | Iterable[str]) -> Iterator[str]:
    """The lines of a CSV text, one at a time, newline kept.

    A ``str`` is split exactly as ``io.StringIO(text)`` splits it (on "\\n"
    only) without copying the whole text; any other iterable of lines is
    passed through unchanged.
    """
    if not isinstance(text, str):
        yield from text
        return
    find, start, size = text.find, 0, len(text)
    while start < size:
        end = find("\n", start) + 1 or size
        yield text[start:end]
        start = end


class CsvTable:
    """A CSV table read row by row: every table the tool reads goes through here.

    ``header`` is the header row, each cell stripped; empty input raises
    MissingColumnError. rows() then yields the data rows.
    """

    def __init__(self, text: str | Iterable[str]):
        self._reader = csv.reader(_csv_lines(text))
        try:
            self.header = [h.strip() for h in next(self._reader)]
        except StopIteration:
            raise MissingColumnError("empty input: no header row")

    def require_columns(self, columns: Sequence[str], table: str) -> None:
        """Raise MissingColumnError naming ``table`` unless the header starts with ``columns``.

        Columns after them are ignored.
        """
        if self.header[: len(columns)] != list(columns):
            raise MissingColumnError(
                f"{table} header must start with {','.join(columns)}, got {self.header}"
            )

    def rows(self, width: int, unique_host: bool = False) -> Iterator[tuple[int, int, list[str]]]:
        """Each data row as (record number, physical line, cells).

        Blank and whitespace-only rows are skipped but still numbered as
        records; the line is the row's last physical line, as a quoted cell
        may span lines. A row of fewer than ``width`` cells raises
        MalformedRowError, and so does a repeated first (host) cell when
        ``unique_host`` is set. Extra cells are passed on.
        """
        reader = self._reader
        first_line: dict[str, int] = {}
        for record_no, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            line_no = reader.line_num
            if len(row) < width:
                raise MalformedRowError(line_no, f"expected {width} fields, got {len(row)}")
            if unique_host:
                host = row[0].strip()
                if host in first_line:
                    raise MalformedRowError(
                        line_no, f"duplicate host {host!r} (first on line {first_line[host]})"
                    )
                first_line[host] = line_no
            yield record_no, line_no, row


#: Most rows one chunk of a written table holds.
_CHUNK_ROWS = 1 << 10


class _Lines(list):
    """The rows ``csv.writer`` writes, one str each: an ``io.StringIO`` may take 4 B a character."""

    write = list.append


def _csv_chunks(header: Sequence, rows: Iterable[Sequence]) -> Iterator[str]:
    """The table as ``csv.writer`` writes it, "\\n" ending each row.

    The header comes first, then chunks of at most ``_CHUNK_ROWS`` rows.
    """
    lines = _Lines()
    writer = csv.writer(lines, lineterminator="\n")
    writer.writerow(header)
    rows = iter(rows)
    while lines:
        yield "".join(lines)
        lines.clear()
        writer.writerows(islice(rows, _CHUNK_ROWS))


def csv_text(header: Sequence, rows: Iterable[Sequence] = ()) -> str:
    """The whole CSV text of a table: every table the tool writes goes through here."""
    return "".join(_csv_chunks(header, rows))


def _sha256(chunks: Iterable[str]) -> str:
    """Hex sha256 of the UTF-8 bytes of the joined chunks, holding one chunk at a time."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode("utf-8"))
        del chunk  # so the next chunk is not built while this one is held
    return digest.hexdigest()


def parse_flow_csv(
    text: str | Iterable[str],
    schema: Mapping[str, str] | None = None,
) -> list[FlowRecord]:
    """Parse a flow CSV into FlowRecord values.

    ``schema`` maps FlowRecord field names to CSV column names; by default
    columns carry the field names themselves. Flags are '|'-joined names,
    times are decimal seconds. Rows violating a flow invariant raise
    MalformedRowError with the 1-based line number.

    Equal host ids share one ``str`` and equal flags cells one ``frozenset``
    across the returned records.
    """
    columns = dict(schema) if schema else {f: f for f in FLOW_FIELDS}
    for field in FLOW_FIELDS:
        columns.setdefault(field, field)

    table = CsvTable(text)
    position = {name: i for i, name in enumerate(table.header)}

    missing = [columns[f] for f in FLOW_FIELDS if columns[f] not in position]
    if missing:
        raise MissingColumnError(f"columns absent from header: {missing}")
    (
        i_src, i_dst, i_sport, i_dport, i_proto, i_start,
        i_end, i_packets, i_bytes, i_flags, i_request,
    ) = (position[columns[f]] for f in FLOW_FIELDS)

    # Parses memoised by raw cell text. A bad cell raises before it is
    # stored, so it raises again on every row that carries it; the
    # FlowRecord checks run on every row whatever the memo holds.
    hosts: dict[str, str] = {}
    protocols: dict[str, Protocol] = {}
    flag_sets: dict[str, frozenset[str]] = {}
    requests: dict[str, bool] = {}

    flows = []
    for _, line_no, row in table.rows(len(table.header)):
        try:
            # same order as the fields, so a row with two bad cells reports
            # the first
            src = row[i_src].strip()
            dst = row[i_dst].strip()
            src_port = int(row[i_sport])
            dst_port = int(row[i_dport])
            cell = row[i_proto]
            protocol = protocols.get(cell)
            if protocol is None:
                protocol = protocols[cell] = Protocol(cell.strip().upper())
            start_time = float(row[i_start])
            end_time = float(row[i_end])
            packets = int(row[i_packets])
            n_bytes = int(row[i_bytes])
            cell = row[i_flags]
            flags = flag_sets.get(cell)
            if flags is None:
                flags = flag_sets[cell] = _parse_flags(cell)
            cell = row[i_request]
            is_request = requests.get(cell)
            if is_request is None:
                is_request = requests[cell] = _parse_bool(cell)
            flows.append(
                FlowRecord(
                    hosts.setdefault(src, src),
                    hosts.setdefault(dst, dst),
                    src_port,
                    dst_port,
                    protocol,
                    start_time,
                    end_time,
                    packets,
                    n_bytes,
                    flags,
                    is_request,
                )
            )
        except ValueError as exc:
            raise MalformedRowError(line_no, str(exc)) from exc
    return flows


def format_flags(flags: frozenset[str]) -> str:
    return "|".join(f for f in FLAG_NAMES if f in flags)


class _CsvCells(dict):
    """Text -> its cell as ``csv.writer`` writes it, quoted once per text."""

    def __missing__(self, text: str) -> str:
        # a one-field row of "" would be written quoted, so add a second field
        cell = self[text] = csv_text((text, ""))[:-2]
        return cell


def _flow_csv_chunks(flows: Sequence[FlowRecord]) -> Iterator[str]:
    """The canonical flow CSV in pieces: the header, then at most ``_CHUNK_ROWS`` rows each.

    The bytes are those ``csv.writer`` writes. Each row is one f-string:
    numbers appear as ``csv.writer`` formats them, and each distinct host,
    protocol and flags text is written by ``csv.writer`` once.
    """
    hosts, protocols, flag_cells = _CsvCells(), _CsvCells(), _CsvCells()
    flag_text = {flags: flag_cells[format_flags(flags)] for flags in {f.flags for f in flows}}
    yield ",".join(FLOW_FIELDS) + "\n"
    size = _CHUNK_ROWS
    for lo in range(0, len(flows), size):
        # csv.writer writes a float by its repr and an int by its str
        yield "".join([
            f"{hosts[f.src_host]},{hosts[f.dst_host]},{f.src_port},{f.dst_port},"
            f"{protocols[f.protocol]},{f.start_time!r},{f.end_time!r},{f.packets},{f.bytes},"
            f"{flag_text[f.flags]},{int(f.is_request)}\n"
            for f in flows[lo : lo + size]
        ])


def flows_to_csv(flows: Sequence[FlowRecord]) -> str:
    """Serialize flows back to the canonical CSV schema (round-trips exactly).

    The bytes are those ``csv.writer`` writes; the text is built whole, for
    export. flows_sha256 hashes the same bytes without building it.
    """
    return "".join(_flow_csv_chunks(flows))


def flows_sha256(flows: Sequence[FlowRecord]) -> str:
    """Hex sha256 of the UTF-8 bytes of ``flows_to_csv(flows)``, hashed chunk by chunk."""
    return _sha256(_flow_csv_chunks(flows))


# ---------------------------------------------------------------------------
# per-host aggregation
# ---------------------------------------------------------------------------

def hosts_in(flows: Iterable[FlowRecord]) -> set[str]:
    hosts: set[str] = set()
    for f in flows:
        hosts.add(f.src_host)
        hosts.add(f.dst_host)
    return hosts


def flows_by_host(flows: Iterable[FlowRecord]) -> dict[str, list[FlowRecord]]:
    """Host -> the flows it takes part in, built in one pass over the flows.

    Each list keeps input order; a loopback flow is filed once under its
    host. The keys are exactly ``hosts_in(flows)``.
    """
    index: dict[str, list[FlowRecord]] = {}
    for f in flows:
        index.setdefault(f.src_host, []).append(f)
        if f.dst_host != f.src_host:
            index.setdefault(f.dst_host, []).append(f)
    return index


def aggregate_host_features(
    flows: Iterable[FlowRecord],
    host: str,
    window: tuple[float, float],
) -> FeatureVector:
    """Aggregate one host's flows inside [t0, t1) into a raw FeatureVector.

    A flow belongs to the window when its start_time falls inside it.
    Raises NoFlowsError when the host has no flows there; callers decide
    whether to skip the host (the pipeline does) or substitute.

    All eight statistics are accumulated in one loop over ``flows``, which
    may hold other hosts' flows and flows outside the window.
    """
    t0, t1 = window
    if not t1 > t0:
        raise ValueError("window length must be > 0")

    n = total_packets = total_bytes = requests = ackpush = syn = rst = fin = 0
    for f in flows:
        src = f.src_host
        if (src == host or f.dst_host == host) and t0 <= f.start_time < t1:
            n += 1
            total_packets += f.packets
            total_bytes += f.bytes
            if f.is_request and src == host:
                requests += 1
            flags = f.flags
            if "ACK" in flags and "PUSH" in flags:
                ackpush += 1
            if "SYN" in flags:
                syn += 1
            if "RST" in flags:
                rst += 1
            if "FIN" in flags:
                fin += 1
    if not n:
        raise NoFlowsError(f"host {host!r} has no flows in [{t0}, {t1})")

    minutes = (t1 - t0) / 60.0
    return FeatureVector(
        host=host,
        bpp=total_bytes / total_packets,
        ppm=total_packets / minutes,
        ppf=total_packets / n,
        ackpush_all=ackpush / n,
        req_all=requests / n,
        syn_all=syn / n,
        rst_all=rst / n,
        fin_all=fin / n,
    )


def full_span(flows: Sequence[FlowRecord]) -> tuple[float, float]:
    """The window [earliest start, just past the latest end) holding every flow.

    Its end is latest end + 1e-6, or the next float above the latest end
    where adding 1e-6 rounds back to it (times beyond about 2**34 s, such
    as epoch milliseconds).
    """
    end = max(f.end_time for f in flows)
    return min(f.start_time for f in flows), max(end + 1e-6, math.nextafter(end, math.inf))


def host_vectors(flows: Sequence[FlowRecord]) -> list[FeatureVector]:
    """Raw vectors of every host, sorted by host, each over the full span.

    Each host's vector is aggregated from its own flows in ``flows_by_host``,
    so the whole call reads every flow once per endpoint, not once per host.
    """
    span = full_span(flows)
    index = flows_by_host(flows)
    return [aggregate_host_features(index[host], host, span) for host in sorted(index)]


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


def _feature_csv_chunks(vectors: Sequence[FeatureVector]) -> Iterator[str]:
    return _csv_chunks(
        feature_csv_header(), ([v.host, *v.values(), v.label.value] for v in vectors)
    )


def features_to_csv(vectors: Sequence[FeatureVector]) -> str:
    """One row per host: a host id column followed by the eight features and class."""
    return "".join(_feature_csv_chunks(vectors))


def features_sha256(vectors: Sequence[FeatureVector]) -> str:
    """Hex sha256 of the UTF-8 bytes of ``features_to_csv(vectors)``, hashed chunk by chunk."""
    return _sha256(_feature_csv_chunks(vectors))


def parse_feature_csv(text: str | Iterable[str], normalized: bool = False) -> list[FeatureVector]:
    """Parse a feature CSV.

    The eight feature columns plus 'class' must appear in canonical order
    (later columns are ignored); a leading 'host' column is optional (rows
    without one get synthetic ids 'row<N>' and cannot be joined to graph
    features later).
    """
    table = CsvTable(text)
    with_host = table.header[:1] == ["host"]
    expected = feature_csv_header(with_host=with_host)
    table.require_columns(expected, "feature CSV")

    vectors = []
    for row_no, line_no, row in table.rows(len(expected), unique_host=with_host):
        try:
            if with_host:
                host, rest = row[0].strip(), row[1:]
            else:
                host, rest = f"row{row_no}", row
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
        except ValueError as exc:
            raise MalformedRowError(line_no, str(exc)) from exc
    return vectors
