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
import operator
from dataclasses import FrozenInstanceError, dataclass
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    AlreadyNormalizedError,
    EmptyInputError,
    InvalidConfigError,
    MalformedRowError,
    MissingColumnError,
    NoFlowsError,
)

FLAG_NAMES = ("SYN", "ACK", "PUSH", "RST", "FIN")
_FLAG_SET = frozenset(FLAG_NAMES)
#: Largest packet or byte count of a flow: flow exports keep them in signed
#: 64-bit counters, and the bound keeps every per-host ratio a finite float.
_COUNT_MAX = 2**63 - 1

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
        # every check runs before any field is stored
        if not (0 <= src_port <= 65535 and 0 <= dst_port <= 65535):
            raise ValueError("port outside 0-65535")
        if not (math.isfinite(start_time) and math.isfinite(end_time)):
            raise ValueError(
                f"times must be finite, got start_time {start_time}, end_time {end_time}"
            )
        if end_time < start_time:
            raise ValueError(f"end_time {end_time} before start_time {start_time}")
        if not 1 <= packets <= _COUNT_MAX:
            raise ValueError("packets must be >= 1" if packets < 1 else "packets must be < 2**63")
        if not 0 <= bytes <= _COUNT_MAX:
            raise ValueError("bytes must be >= 0" if bytes < 0 else "bytes must be < 2**63")
        if not _FLAG_SET.issuperset(flags):
            raise ValueError(f"unknown TCP flags {sorted(set(flags) - _FLAG_SET)}")
        if protocol is Protocol.UDP and flags:
            raise ValueError("UDP flow cannot carry TCP flags")
        # the frozen class refuses stores, so self takes the class of its
        # store-accepting twin while the fields are stored
        object.__setattr__(self, "__class__", _FlowSlots)
        self.src_host = src_host
        self.dst_host = dst_host
        self.src_port = src_port
        self.dst_port = dst_port
        self.protocol = protocol
        self.start_time = start_time
        self.end_time = end_time
        self.packets = packets
        self.bytes = bytes
        self.flags = flags
        self.is_request = is_request
        self.__class__ = FlowRecord

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def involves(self, host: str) -> bool:
        return self.src_host == host or self.dst_host == host


class _FlowSlots:
    """FlowRecord's slots with plain stores: FlowRecord.__init__ fills a record through it.

    Python swaps an object's class only for one with the same slots.
    """

    __slots__ = FLOW_FIELDS


@dataclass(frozen=True, slots=True, init=False)
class FeatureVector:
    """Per-host traffic statistics, raw or min-max normalized.

    Slotted, like FlowRecord: a vector has no ``__dict__`` and takes no
    extra attributes. Every check runs in ``__init__`` before any field is
    stored, so ``dataclasses.replace`` re-runs them all: the five ratios
    must lie in [0, 1]; bpp, ppm and ppf in [0, 1] when ``normalized``, else
    finite and >= 0; and ``label`` must be a Label member.
    """

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

    def __init__(
        self,
        host: str,
        bpp: float,
        ppm: float,
        ppf: float,
        ackpush_all: float,
        req_all: float,
        syn_all: float,
        rst_all: float,
        fin_all: float,
        label: Label = Label.UNLABELED,
        normalized: bool = False,
    ):
        # one comparison per group in the common case; the per-name loops
        # only word the error, naming the first bad field in FEATURE_ORDER
        if not (
            0.0 <= ackpush_all <= 1.0 and 0.0 <= req_all <= 1.0 and 0.0 <= syn_all <= 1.0
            and 0.0 <= rst_all <= 1.0 and 0.0 <= fin_all <= 1.0
        ):
            ratios = (ackpush_all, req_all, syn_all, rst_all, fin_all)
            for name, v in zip(FEATURE_ORDER[3:], ratios):
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"{name}={v} outside [0, 1]")
        if normalized:
            if not (0.0 <= bpp <= 1.0 and 0.0 <= ppm <= 1.0 and 0.0 <= ppf <= 1.0):
                for name, v in zip(RAW_FEATURES, (bpp, ppm, ppf)):
                    if not 0.0 <= v <= 1.0:
                        raise ValueError(f"normalized {name}={v} outside [0, 1]")
        elif not (0.0 <= bpp < math.inf and 0.0 <= ppm < math.inf and 0.0 <= ppf < math.inf):
            for name, v in zip(RAW_FEATURES, (bpp, ppm, ppf)):
                if not 0.0 <= v < math.inf:
                    raise ValueError(f"{name}={v} must be finite and >= 0")
        if not isinstance(label, Label):
            raise ValueError(f"label for {host!r} must be a Label member, got {label!r}")
        object.__setattr__(self, "__class__", _VectorSlots)
        self.host = host
        self.bpp = bpp
        self.ppm = ppm
        self.ppf = ppf
        self.ackpush_all = ackpush_all
        self.req_all = req_all
        self.syn_all = syn_all
        self.rst_all = rst_all
        self.fin_all = fin_all
        self.label = label
        self.normalized = normalized
        self.__class__ = FeatureVector

    def values(self) -> tuple[float, ...]:
        """The eight features in FEATURE_ORDER."""
        return _feature_values(self)


class _VectorSlots:
    """FeatureVector's slots with plain stores: FeatureVector.__init__ fills a vector through it."""

    __slots__ = ("host", *FEATURE_ORDER, "label", "normalized")


_feature_values = operator.attrgetter(*FEATURE_ORDER)


def _refuse_store(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# The frozen __setattr__/__delattr__ that dataclass generates refer to the
# class that slots=True replaces, so for a name that is not a field they
# raise TypeError from super(); these refuse every name. __init__ stores
# through the record's twin class, pickling and copy through
# object.__setattr__.
for _cls in (FlowRecord, FeatureVector):
    _cls.__setattr__, _cls.__delattr__ = _refuse_store, _refuse_delete
del _cls


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


#: Characters the split reader cuts from a text at a time, up to the next line end
_PIECE_CHARS = 1 << 16


def _split_rows(text: str) -> Iterator[list[str]]:
    """The rows ``csv.reader`` reads from a text holding no '"', "\\r" or NUL.

    Without a quote no cell spans lines, so a row is one "\\n" line split at
    commas. The text is split a piece at a time, each about ``_PIECE_CHARS``
    long and cut at a line end. A blank first line reads as [], as
    csv.reader reads it; a later one reads as [''], which CsvTable.rows
    skips alike. A cell longer than ``csv.field_size_limit()`` raises
    MalformedRowError with csv.reader's message; only a piece longer than
    the limit can hold one, so only such a piece has its cells measured.
    """
    if not text:
        return
    start = line_no = 0
    if text[0] == "\n":  # a blank header, which require_columns would print
        yield []
        start = line_no = 1
    stop = len(text) - text.endswith("\n")  # where the last line ends
    find = text.find
    while start <= stop:
        end = find("\n", start + _PIECE_CHARS)
        if end < 0:
            end = stop
        lines = text[start:end].split("\n")
        rows = map(str.split, lines, repeat(","))
        limit = csv.field_size_limit()
        if end - start > limit:
            for line, row in enumerate(rows, line_no + 1):
                if max(map(len, row)) > limit:
                    raise MalformedRowError(line, f"field larger than field limit ({limit})")
                yield row
        else:
            yield from rows
        line_no += len(lines)
        start = end + 1


class CsvTable:
    """A CSV table read row by row: every table the tool reads goes through here.

    ``header`` is the header row, each cell stripped; empty input raises
    MissingColumnError. rows() then yields the data rows.

    The text picks the reader. A ``str`` holding no '"', "\\r" or NUL has no
    quoted cell, so _split_rows reads it with ``str.split``; any other text,
    and any iterable of lines, goes to ``csv.reader``. Both give the same
    rows, line numbers and errors: a ``csv.Error``, such as a cell longer
    than ``csv.field_size_limit()``, raises MalformedRowError naming its
    line.
    """

    def __init__(self, text: str | Iterable[str]):
        if isinstance(text, str) and not ('"' in text or "\r" in text or "\0" in text):
            self._reader, self._csv_reader = _split_rows(text), None
        else:
            self._reader = self._csv_reader = csv.reader(_csv_lines(text))
        try:
            self.header = [h.strip() for h in next(self._reader)]
        except StopIteration:
            raise MissingColumnError("empty input: no header row")
        except csv.Error as exc:
            raise MalformedRowError(self._csv_reader.line_num, str(exc)) from exc

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
        reader, csv_reader = self._reader, self._csv_reader
        first_line: dict[str, int] = {}
        try:
            for record_no, row in enumerate(reader, start=1):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                # a split row is one line, after the header's line 1
                line_no = record_no + 1 if csv_reader is None else csv_reader.line_num
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
        except csv.Error as exc:
            raise MalformedRowError(csv_reader.line_num, str(exc)) from exc


#: Most rows one chunk of a written table holds.
_CHUNK_ROWS = 1 << 10


class _Lines(list):
    """The rows ``csv.writer`` writes, one str each: an ``io.StringIO`` may take 4 B a character."""

    write = list.append  # a C call per row, not a Python one


#: A row as csv.writer writes it, without its "\r\n" end
_row_body = operator.itemgetter(slice(None, -2))


def _csv_chunks(header: Sequence | None, rows: Iterable[Sequence]) -> Iterator[str]:
    """The table as ``csv.writer`` writes it, in chunks of at most ``_CHUNK_ROWS`` rows.

    The header row comes first; a None ``header`` writes the rows alone.
    """
    lines = _Lines()
    writer = csv.writer(lines)
    rows = iter(rows) if header is None else chain([header], rows)
    for block in iter(lambda: list(islice(rows, _CHUNK_ROWS)), []):
        writer.writerows(block)
        # the writer's "\r\n" row end makes it quote a cell holding "\r"; a row ends in "\n"
        yield "\n".join(map(_row_body, lines)) + "\n"
        lines.clear()


def csv_text(header: Sequence | None, rows: Iterable[Sequence] = ()) -> str:
    """The whole CSV text of a table: every table the tool writes goes through here.

    A cell holding a comma, a quote or a line break is quoted.
    """
    return "".join(_csv_chunks(header, rows))


def _sha256(chunks: Iterable[str]) -> str:
    """Hex sha256 of the UTF-8 bytes of the joined chunks, holding one chunk at a time."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode("utf-8"))
        del chunk  # so the next chunk is not built while this one is held
    return digest.hexdigest()


def flow_columns(schema: Mapping[str, str] | None = None) -> dict[str, str]:
    """Each FlowRecord field -> the CSV column it reads: its ``schema`` entry, else its own name.

    Two fields reading one column raise InvalidConfigError naming both: one
    would silently copy the other (``dst_host`` read from ``src_host`` makes
    every flow a loopback).
    """
    columns = {f: (schema or {}).get(f, f) for f in FLOW_FIELDS}
    reader: dict[str, str] = {}
    for field, column in columns.items():
        first = reader.setdefault(column, field)
        if first != field:
            raise InvalidConfigError(
                f"flow fields {first!r} and {field!r} both read column {column!r}"
            )
    return columns


def parse_flow_csv(
    text: str | Iterable[str],
    schema: Mapping[str, str] | None = None,
) -> list[FlowRecord]:
    """Parse a flow CSV into FlowRecord values.

    ``schema`` maps FlowRecord field names to CSV column names (see
    flow_columns); by default columns carry the field names themselves.
    Flags are '|'-joined names, times are decimal seconds. Rows violating a
    flow invariant raise MalformedRowError with the 1-based line number.

    Equal host ids share one ``str``, equal ``dst_port`` cells one ``int``
    and equal flags cells one ``frozenset`` across the returned records.
    """
    columns = flow_columns(schema)
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
    # FlowRecord checks run on every row whatever the memo holds. Source
    # ports and byte counts are mostly distinct: a memo of them would share
    # nothing and hold an entry per flow until the parse ends.
    hosts: dict[str, str] = {}
    dst_ports: dict[str, int] = {}
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
            cell = row[i_dport]
            dst_port = dst_ports.get(cell)
            if dst_port is None:
                dst_port = dst_ports[cell] = int(cell)
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
    """Text -> its cell as ``csv.writer`` writes it, quoted once per text.

    The caches of one table share one writer, ``writerow``, and its sink:
    a writer per text cost microseconds a miss, and each writer holds a
    record buffer of 128 KiB once it has written a row.
    """

    def __init__(self, writerow, sink: _Lines):
        super().__init__()
        self.writerow, self.sink = writerow, sink

    def __missing__(self, text: str) -> str:
        # a one-field row of "" would be written quoted, so add a second
        # field; the cell is the row without its ",\r\n"
        self.writerow((text, ""))
        cell = self[text] = self.sink.pop()[:-3]
        return cell


def _flow_csv_chunks(flows: Sequence[FlowRecord]) -> Iterator[str]:
    """The canonical flow CSV in pieces: the header, then at most ``_CHUNK_ROWS`` rows each.

    The bytes are those ``csv.writer`` writes. Each row is one f-string:
    numbers appear as ``csv.writer`` formats them, and each distinct host,
    protocol and flags text is written by ``csv.writer`` once.
    """
    sink = _Lines()
    writerow = csv.writer(sink).writerow
    hosts, protocols, flag_cells = (_CsvCells(writerow, sink) for _ in range(3))
    flag_text = {flags: flag_cells[format_flags(flags)] for flags in {f.flags for f in flows}}
    yield csv_text(FLOW_FIELDS)
    for lo in range(0, len(flows), _CHUNK_ROWS):
        # csv.writer writes a float by its repr and an int by its str
        yield "".join([
            f"{hosts[f.src_host]},{hosts[f.dst_host]},{f.src_port},{f.dst_port},"
            f"{protocols[f.protocol]},{f.start_time!r},{f.end_time!r},{f.packets},{f.bytes},"
            f"{flag_text[f.flags]},{int(f.is_request)}\n"
            for f in flows[lo : lo + _CHUNK_ROWS]
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
        host,
        total_bytes / total_packets,
        total_packets / minutes,
        total_packets / n,
        ackpush / n,
        requests / n,
        syn / n,
        rst / n,
        fin / n,
    )


def full_span(flows: Sequence[FlowRecord]) -> tuple[float, float]:
    """The window [earliest start, just past the latest end) holding every flow.

    Its end is latest end + 1e-6, or the next float above the latest end
    where adding 1e-6 rounds back to it (times beyond about 2**34 s, such
    as epoch milliseconds). A capture without a flow has no span:
    EmptyInputError.
    """
    if not flows:
        raise EmptyInputError("full_span needs at least one flow")
    end = max(f.end_time for f in flows)
    return min(f.start_time for f in flows), max(end + 1e-6, math.nextafter(end, math.inf))


def host_vectors(flows: Sequence[FlowRecord]) -> list[FeatureVector]:
    """Raw vectors of every host, sorted by host, each over the full span.

    Each host's vector is aggregated from its own flows in ``flows_by_host``,
    so the whole call reads every flow once per endpoint, not once per host.
    A capture without a flow has no host and gives no vector.
    """
    index = flows_by_host(flows)
    if not index:
        return []
    span = full_span(flows)
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
    bpp, ppm, ppf = [
        0.0 if hi == lo else min(1.0, max(0.0, (x - lo) / (hi - lo)))
        for x, (lo, hi) in zip((v.bpp, v.ppm, v.ppf), (params.bpp, params.ppm, params.ppf))
    ]
    return FeatureVector(
        v.host, bpp, ppm, ppf, v.ackpush_all, v.req_all, v.syn_all, v.rst_all, v.fin_all,
        v.label, True,
    )


# ---------------------------------------------------------------------------
# feature CSV
# ---------------------------------------------------------------------------

_FEATURE_HEADER = ("host", *FEATURE_ORDER, "class")


def _feature_csv_chunks(vectors: Sequence[FeatureVector]) -> Iterator[str]:
    return _csv_chunks(_FEATURE_HEADER, ([v.host, *v.values(), v.label.value] for v in vectors))


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
    expected = _FEATURE_HEADER if with_host else _FEATURE_HEADER[1:]
    table.require_columns(expected, "feature CSV")

    vectors = []
    for row_no, line_no, row in table.rows(len(expected), unique_host=with_host):
        try:
            if with_host:
                host, rest = row[0].strip(), row[1:]
            else:
                host, rest = f"row{row_no}", row
            # the feature cells parse before the class cell, so a row bad in
            # both reports its feature
            vectors.append(
                FeatureVector(
                    host,
                    *map(float, rest[: len(FEATURE_ORDER)]),
                    parse_label(rest[len(FEATURE_ORDER)]),
                    normalized,
                )
            )
        except ValueError as exc:
            raise MalformedRowError(line_no, str(exc)) from exc
    return vectors
