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

A parsed or generated capture is a FlowTable: int-coded numpy columns,
read or drawn without building a FlowRecord per flow. host_vectors
(every host at once) and aggregate_host_features (one host, any window)
compute the statistics from the columns and share the final divisions;
the tests hold both to brute-force record oracles.
"""

from __future__ import annotations

import csv
import enum
import functools
import hashlib
import math
import operator
from collections.abc import Sequence as SequenceABC
from dataclasses import FrozenInstanceError, dataclass
from itertools import chain, compress, count, islice, repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    AlreadyNormalizedError,
    EmptyInputError,
    InvalidConfigError,
    MalformedRowError,
    MissingColumnError,
    NoFlowsError,
    UnnormalizedInputError,
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
        self, src_host: str, dst_host: str, src_port: int, dst_port: int, protocol: Protocol,
        start_time: float, end_time: float, packets: int, bytes: int, flags: frozenset[str],
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
        if not isinstance(protocol, Protocol):
            raise ValueError(f"protocol must be a Protocol member, got {protocol!r}")
        if protocol is Protocol.UDP and flags:
            raise ValueError("UDP flow cannot carry TCP flags")
        if not isinstance(is_request, bool):
            raise ValueError(f"is_request must be a bool, got {is_request!r}")
        # the frozen class refuses stores, so self takes the class of its
        # store-accepting twin while the fields are stored
        object.__setattr__(self, "__class__", _FlowSlots)
        _FlowSlots.__init__(
            self, src_host, dst_host, src_port, dst_port, protocol, start_time, end_time, packets,
            bytes, flags, is_request,
        )
        self.__class__ = FlowRecord

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def involves(self, host: str) -> bool:
        return self.src_host == host or self.dst_host == host


class _FlowSlots:
    """FlowRecord's slots with plain stores: FlowRecord.__init__ fills a record through it.

    Python swaps an object's class only for one with the same slots. Built
    by position, it stores its fields unchecked: FlowTable builds its
    records so, from rows that passed every check, then swaps their class.
    """

    __slots__ = FLOW_FIELDS

    def __init__(
        self, src_host, dst_host, src_port, dst_port, protocol, start_time, end_time, packets,
        bytes, flags, is_request,
    ):
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
        self, host: str, bpp: float, ppm: float, ppf: float, ackpush_all: float, req_all: float,
        syn_all: float, rst_all: float, fin_all: float, label: Label = Label.UNLABELED,
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
        self.host, self.bpp, self.ppm, self.ppf, self.label = host, bpp, ppm, ppf, label
        self.ackpush_all, self.req_all, self.syn_all, self.rst_all, self.fin_all, self.normalized = (
            ackpush_all, req_all, syn_all, rst_all, fin_all, normalized
        )
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
# feature tables
# ---------------------------------------------------------------------------

#: The Label of each label code, in code order
LABELS = tuple(Label)


class _RowTable(SequenceABC):
    """A Sequence of the rows its _rows() builds on first read; equal to a list or table of equal rows."""

    __slots__ = ()

    def __getitem__(self, index):
        return self._rows()[index]

    def __iter__(self) -> Iterator:
        return iter(self._rows())

    def __eq__(self, other):
        if not isinstance(other, (type(self), list)):
            return NotImplemented
        return self._rows() == list(other)

    __hash__ = None


class FeatureTable(_RowTable):
    """Feature vectors as one read-only float64 matrix, a row per host.

    ``hosts`` holds the row ids in row order (sorted by host_vectors, in
    file order by parse_feature_csv), ``matrix`` the C-ordered (n, 8)
    features in FEATURE_ORDER and ``label`` each row's index into LABELS.
    Every row is raw, or every row normalized, as ``normalized`` says, and
    passed every FeatureVector check. The vectors of the Sequence are built
    on the first iteration or index; steps 2-8 read the matrix and build none.
    """

    __slots__ = ("hosts", "matrix", "label", "normalized", "_vectors")

    def __init__(self, hosts: Sequence[str], matrix: np.ndarray, label: Sequence, normalized: bool = False):
        self.hosts = tuple(hosts)
        self.matrix = np.ascontiguousarray(matrix, np.float64).reshape(len(self.hosts), len(FEATURE_ORDER))
        self.label = np.asarray(label, np.int8).reshape(len(self.hosts))
        self.matrix.flags.writeable = self.label.flags.writeable = False
        self.normalized = normalized
        self._vectors: list[FeatureVector] | None = None

    @classmethod
    def from_vectors(cls, vectors: Iterable[FeatureVector]) -> FeatureTable:
        """The table of ``vectors``, in order (a table as it is); ValueError if raw and normalized mix."""
        if isinstance(vectors, FeatureTable):
            return vectors
        vectors = list(vectors)
        kinds = {v.normalized for v in vectors}
        if len(kinds) > 1:
            raise ValueError("a feature table holds raw or normalized vectors, not both")
        values, labels = [v.values() for v in vectors], [LABELS.index(v.label) for v in vectors]
        return cls([v.host for v in vectors], np.array(values), labels, kinds == {True})

    def _rows(self) -> list[FeatureVector]:
        if self._vectors is None:
            labels = map(LABELS.__getitem__, self.label.tolist())
            columns = self.matrix.T.tolist()
            self._vectors = list(map(FeatureVector, self.hosts, *columns, labels, repeat(self.normalized)))
        return self._vectors

    def __len__(self) -> int:
        return len(self.hosts)


def feature_table(vectors: Iterable[FeatureVector], normalized: bool) -> FeatureTable:
    """``vectors`` as a FeatureTable, all normalized or all raw as ``normalized`` says.

    The first other vector (a table: its first row) raises UnnormalizedInputError or AlreadyNormalizedError.
    """
    if isinstance(vectors, FeatureTable):
        odd = vectors.hosts[:1] if vectors.normalized != normalized else ()
    else:
        vectors = list(vectors)
        odd = [v.host for v in vectors if v.normalized != normalized]
    if odd:
        error = UnnormalizedInputError if normalized else AlreadyNormalizedError
        raise error(f"vector for {odd[0]!r} is {'not' if normalized else 'already'} normalized")
    return FeatureTable.from_vectors(vectors)


#: Each raw feature's largest value in FEATURE_ORDER: any finite float, or 1 for a ratio
_RAW_TOP = np.where(np.isin(FEATURE_ORDER, RAW_FEATURES), np.finfo(np.float64).max, 1.0)


def _raw_rows_valid(matrix: np.ndarray) -> np.ndarray:
    """Whether each row of raw features passes FeatureVector's checks (a NaN fails them)."""
    return ((matrix >= 0.0) & (matrix <= _RAW_TOP)).all(axis=1)


# ---------------------------------------------------------------------------
# flow tables
# ---------------------------------------------------------------------------

#: The Protocol of each protocol code, in code order
PROTOCOLS = tuple(Protocol)
_PROTOCOL_CODE = {p: code for code, p in enumerate(PROTOCOLS)}

#: FlowTable's numpy columns, one per FlowRecord field in FLOW_FIELDS order, and their dtypes
_COLUMNS = (
    ("src", np.int32),
    ("dst", np.int32),
    ("src_port", np.int32),
    ("dst_port", np.int32),
    ("protocol", np.int8),
    ("start_time", np.float64),
    ("end_time", np.float64),
    ("packets", np.int64),
    ("bytes", np.int64),
    ("flags", np.uint8),
    ("is_request", np.bool_),
)


class FlowTable(_RowTable):
    """A read-only flow capture: one row per flow, in int-coded numpy columns.

    ``hosts`` holds each host id once, in first-seen order (a flow's source,
    then its destination), and the ``src`` and ``dst`` columns hold host
    numbers into it. ``protocol`` holds indices into PROTOCOLS, ``flags``
    indices into ``flag_sets`` and ``is_request`` bools; every other column
    holds its FlowRecord field, times as float64 and counts as int64. Every
    row passed every FlowRecord check. No column can be written.

    A table is also a Sequence of FlowRecord. The records are built on the
    first iteration or index, and kept; equal host ids share one ``str``,
    equal ``dst_port`` values one ``int`` and equal flags sets one
    ``frozenset``. The pipeline steps read the columns and build none.
    """

    __slots__ = ("hosts", "flag_sets", *(name for name, _ in _COLUMNS), "_records", "_host_cache")

    def __init__(
        self,
        hosts: tuple[str, ...],
        flag_sets: tuple[frozenset[str], ...],
        columns: Sequence[np.ndarray],
        host_cache: dict | None = None,
    ):
        self.hosts = hosts
        self.flag_sets = flag_sets
        for (name, _), column in zip(_COLUMNS, columns, strict=True):
            column.flags.writeable = False
            setattr(self, name, column)
        self._records: list[FlowRecord] | None = None
        # host_order()'s and host_number()'s lookups once computed, one dict
        # shared with every table taken from this one
        self._host_cache = {} if host_cache is None else host_cache

    @classmethod
    def from_records(cls, records: Iterable[FlowRecord]) -> FlowTable:
        """The table of ``records``, in order; a FlowTable is returned as it is."""
        if isinstance(records, FlowTable):
            return records
        builder = _TableBuilder()
        builder.add_records(records)
        return builder.table()

    @classmethod
    def from_columns(
        cls,
        hosts: Sequence[str],
        flag_sets: Sequence[frozenset[str]],
        pieces: Iterable[Sequence[np.ndarray]],
    ) -> FlowTable:
        """The table of rows given a piece at a time, as one array per FlowRecord field in
        FLOW_FIELDS order; the source, destination and flags are indices into ``hosts`` and
        ``flag_sets``, protocols PROTOCOLS codes. The table numbers hosts and flag sets in
        first-seen order, as parse_flow_csv does. ValueError unless every row passes every
        FlowRecord check.
        """
        builder = _TableBuilder()
        for columns in pieces:
            builder.add_columns(hosts, flag_sets, columns)
        return builder.table()

    def take(self, rows: np.ndarray | slice) -> FlowTable:
        """The table of the given rows, sharing this table's hosts and flag sets."""
        columns = [getattr(self, name)[rows] for name, _ in _COLUMNS]
        return FlowTable(self.hosts, self.flag_sets, columns, self._host_cache)

    def host_order(self) -> tuple[list[str], np.ndarray]:
        """The host ids sorted, and the position of each host number among them."""
        if "order" not in self._host_cache:
            order = sorted(range(len(self.hosts)), key=self.hosts.__getitem__)
            position = np.empty(len(order), np.int64)
            position[order] = np.arange(len(order))
            self._host_cache["order"] = ([self.hosts[i] for i in order], position)
        return self._host_cache["order"]

    def host_number(self, host: str) -> int:
        """The number of ``host`` in ``hosts``, or -1 (which no row holds) for a host not there."""
        if "number" not in self._host_cache:
            self._host_cache["number"] = dict(zip(self.hosts, count()))
        return self._host_cache["number"].get(host, -1)

    def _rows(self) -> list[FlowRecord]:
        if self._records is None:
            hosts, ports = self.hosts.__getitem__, {}
            dst_port = self.dst_port.tolist()
            # every row passed FlowRecord's checks, so each record is filled
            # unchecked through its twin class, which then gives way to FlowRecord
            records = list(map(
                _FlowSlots,
                map(hosts, self.src.tolist()),
                map(hosts, self.dst.tolist()),
                self.src_port.tolist(),
                map(ports.setdefault, dst_port, dst_port),  # one int per distinct port
                map(PROTOCOLS.__getitem__, self.protocol.tolist()),
                self.start_time.tolist(),
                self.end_time.tolist(),
                self.packets.tolist(),
                self.bytes.tolist(),
                map(self.flag_sets.__getitem__, self.flags.tolist()),
                self.is_request.tolist(),
            ))
            for record in records:
                record.__class__ = FlowRecord
            self._records = records
        return self._records

    def __len__(self) -> int:
        return len(self.start_time)

    def __repr__(self) -> str:
        return f"<FlowTable: {len(self)} flows, {len(self.hosts)} hosts>"


class Memo(dict):
    """Key -> ``compute(key)``, computed on the key's first lookup; a key that raises is not kept."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def numbering() -> Memo:
    """Key -> its number: 0, 1, 2, ... in the order the keys are first looked up."""
    return Memo(lambda _, numbers=count(): next(numbers))


_ENDPOINTS = operator.attrgetter("src_host", "dst_host")
_FIELDS = {name: operator.attrgetter(name) for name in FLOW_FIELDS}


class _TableBuilder:
    """Fills a FlowTable a piece at a time, from records or from raw CSV cells."""

    def __init__(self):
        self.hosts = numbering()
        self.flag_sets = numbering()
        self.pieces: list[list[np.ndarray | None]] = []
        # each distinct raw cell of a column read with few distinct values -> its code or
        # value; no memo refers to the builder, so a builder is freed as soon as it is dropped
        hosts, flag_sets = self.hosts, self.flag_sets

        def flag_code(cell: str) -> int:
            flags = _parse_flags(cell)
            if not _FLAG_SET.issuperset(flags):
                raise ValueError("unknown TCP flags")  # the row-by-row read words it
            return flag_sets[flags]

        self.host_cells = Memo(lambda cell: hosts[cell.strip()])
        self.port_cells = Memo(int)
        self.protocol_cells = Memo(lambda cell: _PROTOCOL_CODE[_parse_protocol(cell)])
        self.flag_cells = Memo(flag_code)
        self.request_cells = Memo(_parse_bool)

    def add_records(self, records: Iterable[FlowRecord]) -> None:
        """Append records, which passed every check when they were built."""
        if not isinstance(records, (list, tuple)):
            records = list(records)
        n = len(records)
        if not n:
            return
        # numbered a flow's source, then its destination, so new hosts number in first-seen order
        hosts = np.fromiter(
            map(self.hosts.__getitem__, chain.from_iterable(map(_ENDPOINTS, records))), np.int32, 2 * n
        )
        coded = {"protocol": _PROTOCOL_CODE.__getitem__, "flags": self.flag_sets.__getitem__}
        columns = []
        for name, (_, dtype) in zip(FLOW_FIELDS[2:], _COLUMNS[2:]):
            values = map(_FIELDS[name], records)
            columns.append(np.fromiter(map(coded[name], values) if name in coded else values, dtype, n))
        self._add(hosts[0::2], hosts[1::2], *columns)

    def add_cells(self, rows: list[list[str]], positions: Sequence[int]) -> bool:
        """Append rows of raw cells if every row passes every FlowRecord check.

        ``positions`` holds the cell of each field, in FLOW_FIELDS order;
        every row has a cell there. Each cell reads as parse_flow_csv's
        row-by-row path reads it: numbers by ``int()`` and ``float()``, one
        column at a time, and each distinct host, destination port,
        protocol, flags and request cell once. False, with nothing appended,
        when a cell does not read or a row fails a check; the caller then
        reads the rows one at a time, so that the first bad row raises.
        """
        columns = list(zip(*rows))
        src, dst, src_port, dst_port, protocol, start, end, packets, n_bytes, flags, request = (
            columns[i] for i in positions
        )
        n = len(rows)

        def read(cells, memo, dtype):
            return np.fromiter(map(memo.__getitem__, cells), dtype, n)

        try:
            hosts = np.fromiter(
                map(self.host_cells.__getitem__, chain.from_iterable(zip(src, dst))), np.int32, 2 * n
            )
            src_port, packets, n_bytes = (
                np.fromiter(map(int, cells), np.int64, n) for cells in (src_port, packets, n_bytes)
            )
            dst_port = read(dst_port, self.port_cells, np.int64)
            start, end = (np.fromiter(map(float, cells), np.float64, n) for cells in (start, end))
            protocol = read(protocol, self.protocol_cells, np.int8)
            flags = read(flags, self.flag_cells, np.uint8)
            request = read(request, self.request_cells, np.bool_)
        except (ValueError, OverflowError):  # a number too large for int64 is out of range
            return False
        if not _rows_pass(src_port, dst_port, protocol, start, end, packets, n_bytes, flags, self.flag_sets):
            return False
        self._add(
            hosts[0::2], hosts[1::2], src_port, dst_port, protocol, start, end, packets, n_bytes,
            flags, request,
        )
        return True

    def add_columns(
        self,
        hosts: Sequence[str],
        flag_sets: Sequence[frozenset[str]],
        columns: Sequence[np.ndarray],
    ) -> None:
        """Append a piece of FlowTable.from_columns; ValueError, with nothing appended, unless
        every row passes every FlowRecord check (int64 packets and bytes are below the bound).
        """
        src, dst, src_port, dst_port, protocol, start, end, packets, n_bytes, flags, request = columns
        if not _rows_pass(src_port, dst_port, protocol, start, end, packets, n_bytes, flags, flag_sets):
            raise ValueError("a flow fails a FlowRecord check")
        ends = np.empty(2 * len(src), np.int64)
        ends[0::2], ends[1::2] = src, dst  # a flow's source, then its destination
        host_code = _first_seen_codes(self.hosts, hosts, ends, np.int32)
        flag_code = _first_seen_codes(self.flag_sets, flag_sets, flags, np.uint8)
        self._add(
            host_code[src], host_code[dst], src_port, dst_port, protocol, start, end, packets, n_bytes,
            flag_code[flags], request,
        )

    def _add(self, *columns: np.ndarray) -> None:
        """Append a piece, one column per FlowRecord field in FLOW_FIELDS order, in FlowTable's dtypes."""
        self.pieces.append([c.astype(t, copy=False) for c, (_, t) in zip(columns, _COLUMNS, strict=True)])

    def table(self) -> FlowTable:
        columns = []
        for i, (_, dtype) in enumerate(_COLUMNS):
            # each piece's column is dropped once joined, so the join holds one extra column
            columns.append(np.concatenate([piece[i] for piece in self.pieces] or [np.empty(0, dtype)]))
            for piece in self.pieces:
                piece[i] = None
        return FlowTable(tuple(self.hosts), tuple(self.flag_sets), columns)


def _rows_pass(src_port, dst_port, protocol, start, end, packets, n_bytes, flags, flag_sets) -> bool:
    """Whether every row of the columns passes FlowRecord's checks; flags index ``flag_sets``."""
    has_flags = np.array(list(map(bool, flag_sets)), bool)
    return bool(
        ((0 <= src_port) & (src_port <= 65535) & (0 <= dst_port) & (dst_port <= 65535)).all()
        and np.isfinite(start).all()
        and np.isfinite(end).all()
        and (start <= end).all()
        and (packets >= 1).all()
        and (n_bytes >= 0).all()
        and not (has_flags[flags] & (protocol == _PROTOCOL_CODE[Protocol.UDP])).any()
    )


def _first_seen_codes(numbers: Memo, keys: Sequence, codes: np.ndarray, dtype) -> np.ndarray:
    """Code -> the number ``numbers`` gives its key; keys are looked up in first-seen order of their codes."""
    seen, first = np.unique(codes, return_index=True)
    seen = seen[np.argsort(first)]
    number = np.zeros(len(keys), dtype)
    number[seen] = [numbers[keys[c]] for c in seen.tolist()]
    return number


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


def _parse_protocol(text: str) -> Protocol:
    return Protocol(text.strip().upper())


#: How a flow CSV cell reads, per FlowRecord field in FLOW_FIELDS order
_CELL_READERS = (
    str.strip, str.strip, int, int, _parse_protocol, float, float, int, int, _parse_flags, _parse_bool,
)


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

#: Rows csv.reader reads into one piece
_CSV_PIECE_ROWS = 1 << 10

#: A piece of a table: each row's physical line number (a range when the
#: rows are consecutive lines), and the rows
Piece = tuple[Sequence[int], list[list[str]]]


def _splits(text: str) -> bool:
    """Whether _split_pieces reads ``text`` as csv.reader does.

    It does when the text holds no '"' or NUL, so no cell is quoted and no
    row spans lines, and every "\\r" starts a "\\r\\n" line end.
    """
    if '"' in text or "\0" in text:
        return False
    return "\r" not in text or text.count("\r") == text.count("\r\n")


def _split_pieces(text: str) -> Iterator[Piece]:
    """The rows ``csv.reader`` reads from a text that _splits, a piece at a time.

    A row is one line split at commas, without its "\\n" or "\\r\\n" end.
    Each piece is about ``_PIECE_CHARS`` long and cut at a line end. A blank
    first line reads as [], as csv.reader reads it; a later one reads as
    [''], which CsvTable skips alike. A cell longer than
    ``csv.field_size_limit()`` raises MalformedRowError with csv.reader's
    message, once the rows before it are passed on; only a piece longer
    than the limit can hold one, so only such a piece has its cells
    measured.
    """
    if not text:
        return
    crlf = "\r" in text  # then every "\r" ends a line
    start = line_no = 0
    if text[0] == "\n" or text.startswith("\r\n"):  # a blank header, which require_columns would print
        yield range(1, 2), [[]]
        start, line_no = 1 + (text[0] == "\r"), 1
    stop = len(text) - text.endswith("\n")  # where the last line ends
    find = text.find
    while start <= stop:
        end = find("\n", start + _PIECE_CHARS)
        if end < 0:
            end = stop
        piece = text[start:end]
        if crlf:
            piece = piece.replace("\r\n", "\n").removesuffix("\r")
        rows = list(map(str.split, piece.split("\n"), repeat(",")))
        lines = range(line_no + 1, line_no + 1 + len(rows))
        limit = csv.field_size_limit()
        if len(piece) > limit:
            for k, row in enumerate(rows):
                if max(map(len, row)) > limit:
                    if k:
                        yield lines[:k], rows[:k]
                    raise MalformedRowError(lines[k], f"field larger than field limit ({limit})")
        line_no += len(rows)
        start = end + 1
        yield lines, rows
        del rows, piece  # so the next piece is not built while this one is held


def _csv_pieces(reader) -> Iterator[Piece]:
    """The rows of a ``csv.reader``, ``_CSV_PIECE_ROWS`` at a time, each with its last physical line.

    A ``csv.Error`` raises MalformedRowError naming its line, once the rows
    before it are passed on.
    """
    while True:
        lines, rows = [], []
        try:
            for row in islice(reader, _CSV_PIECE_ROWS):
                rows.append(row)
                lines.append(reader.line_num)
        except csv.Error as exc:
            error = MalformedRowError(reader.line_num, str(exc))
            if rows:
                yield lines, rows
            raise error from exc
        if not rows:
            return
        yield lines, rows


def _is_blank(row: list[str]) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


class CsvTable:
    """A CSV table read a piece at a time: every table the tool reads goes through here.

    ``header`` is the header row, each cell stripped; empty input raises
    MissingColumnError. rows() then yields the data rows one at a time, or
    pieces() a piece of rows at a time.

    The text picks the reader. A ``str`` holding no '"' or NUL, in which
    every "\\r" starts a "\\r\\n", has no quoted cell, so _split_pieces
    reads it with ``str.split``; any other text, and any iterable of lines,
    goes to ``csv.reader``. Both give the same rows, line numbers and
    errors: a ``csv.Error``, such as a cell longer than
    ``csv.field_size_limit()``, raises MalformedRowError naming its line.
    """

    def __init__(self, text: str | Iterable[str]):
        if isinstance(text, str) and _splits(text):
            self._pieces = _split_pieces(text)
        else:
            self._pieces = _csv_pieces(csv.reader(_csv_lines(text)))
        try:
            lines, rows = next(self._pieces)
        except StopIteration:
            raise MissingColumnError("empty input: no header row")
        self.header = [h.strip() for h in rows[0]]
        self._first = (lines[1:], rows[1:])  # the data rows of the header's piece

    def pieces(self) -> Iterator[Piece]:
        """The data rows a piece at a time, blank rows included, each row with its physical line.

        A row's line is its last physical line, as a quoted cell may span
        lines.
        """
        first, self._first = self._first, None
        yield first
        del first  # so the next piece is not built while this one is held
        yield from self._pieces

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
        first_line: dict[str, int] = {}
        record_no = 0
        for lines, rows in self.pieces():
            for line_no, row in zip(lines, rows):
                record_no += 1
                if _is_blank(row):
                    continue
                _check_width(row, width, line_no)
                if unique_host:
                    host = row[0].strip()
                    if host in first_line:
                        raise MalformedRowError(
                            line_no, f"duplicate host {host!r} (first on line {first_line[host]})"
                        )
                    first_line[host] = line_no
                yield record_no, line_no, row


def _check_width(row: list[str], width: int, line_no: int) -> None:
    if len(row) < width:
        raise MalformedRowError(line_no, f"expected {width} fields, got {len(row)}")


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
) -> FlowTable:
    """Parse a flow CSV into a FlowTable.

    ``schema`` maps FlowRecord field names to CSV column names (see
    flow_columns); by default columns carry the field names themselves.
    Flags are '|'-joined names, times are decimal seconds. Rows violating a
    flow invariant raise MalformedRowError with the 1-based line number, and
    so does a header naming a column that a field reads twice (line 1).

    The table is filled a piece of rows at a time, each column of a piece
    read with ``int()`` or ``float()`` and checked at numpy cost. A piece
    that holds a blank row or fails a check is read again one row at a
    time through FlowRecord, so the first bad row raises what a row-by-row
    parse raises.
    """
    columns = flow_columns(schema)
    table = CsvTable(text)
    position: dict[str, int] = {}
    for i, name in enumerate(table.header):
        first = position.setdefault(name, i)
        if first != i and name in columns.values():
            raise MalformedRowError(
                1, f"header names column {name!r} twice (cells {first + 1} and {i + 1})"
            )

    missing = [columns[f] for f in FLOW_FIELDS if columns[f] not in position]
    if missing:
        raise MissingColumnError(f"columns absent from header: {missing}")
    positions = [position[columns[f]] for f in FLOW_FIELDS]
    width = len(table.header)
    builder = _TableBuilder()
    for lines, rows in table.pieces():
        filled = rows
        if min(map(len, filled), default=width) < width:
            filled = [row for row in rows if not _is_blank(row)]
        if min(map(len, filled), default=width) < width or (
            filled and not builder.add_cells(filled, positions)
        ):
            builder.add_records(_flow_records(lines, rows, positions, width))
        del rows, filled  # so the next piece is not read while this one is held
    return builder.table()


def _flow_records(
    lines: Sequence[int], rows: list[list[str]], positions: Sequence[int], width: int
) -> list[FlowRecord]:
    """The records of a piece of rows, read one row at a time: the first bad row raises."""
    records = []
    for line_no, row in zip(lines, rows):
        if _is_blank(row):
            continue
        _check_width(row, width, line_no)
        try:
            # the cells read in field order, so a row with two bad cells reports the first
            records.append(FlowRecord(*[read(row[i]) for read, i in zip(_CELL_READERS, positions)]))
        except ValueError as exc:
            raise MalformedRowError(line_no, str(exc)) from exc
    return records


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


#: One canonical flow row from its cells: csv.writer writes an int by its
#: str and a float by its repr, which is its str
_FLOW_ROW = ",".join(["%s"] * len(FLOW_FIELDS)) + "\n"


#: Most rows of one block of a table's flow CSV: formatting a block holds
#: a Python object per cell, about 0.25 MiB for 256 rows
_FLOW_BLOCK_ROWS = 1 << 8


def _flow_csv_chunks(flows: FlowTable | Iterable[FlowRecord]) -> Iterator[str]:
    """The canonical flow CSV in pieces: the header, then blocks of at most ``_CHUNK_ROWS`` rows.

    The bytes are those ``csv.writer`` writes: numbers as it formats them
    (a float by its repr, an int by its str), and each distinct host,
    protocol and flags text written by ``csv.writer`` once. A table's rows
    are formatted from its columns, ``_FLOW_BLOCK_ROWS`` at a time; records
    are formatted one f-string each: putting them into tables first made
    the benchmark's set-up, which writes generated records, about 5%
    slower. Either way a time is written as the float a table holds, so a
    record and its table give the same bytes.
    """
    sink = _Lines()
    cells = _CsvCells(csv.writer(sink).writerow, sink)
    yield csv_text(FLOW_FIELDS)
    if not isinstance(flows, FlowTable):
        flag_text = Memo(lambda flags: cells[format_flags(flags)])
        records = iter(flows)
        while block := list(islice(records, _CHUNK_ROWS)):
            yield "".join([
                f"{cells[f.src_host]},{cells[f.dst_host]},{f.src_port},{f.dst_port},"
                f"{cells[f.protocol]},{float(f.start_time)!r},{float(f.end_time)!r},{f.packets},{f.bytes},"
                f"{flag_text[f.flags]},{int(f.is_request)}\n"
                for f in block
            ])
        return
    names = list(map(cells.__getitem__, flows.hosts))
    protocols = [cells[p.value] for p in PROTOCOLS]
    flags = [cells[format_flags(s)] for s in flows.flag_sets]
    rows = min(_FLOW_BLOCK_ROWS, _CHUNK_ROWS)
    for lo in range(0, len(flows), rows):
        block = flows.take(slice(lo, lo + rows))
        yield "".join(map(_FLOW_ROW.__mod__, zip(
            map(names.__getitem__, block.src.tolist()),
            map(names.__getitem__, block.dst.tolist()),
            block.src_port.tolist(),
            block.dst_port.tolist(),
            map(protocols.__getitem__, block.protocol.tolist()),
            block.start_time.tolist(),
            block.end_time.tolist(),
            block.packets.tolist(),
            block.bytes.tolist(),
            map(flags.__getitem__, block.flags.tolist()),
            block.is_request.view(np.uint8).tolist(),
        )))


def flows_to_csv(flows: FlowTable | Iterable[FlowRecord]) -> str:
    """Serialize flows back to the canonical CSV schema (round-trips exactly).

    The bytes are those ``csv.writer`` writes; the text is built whole, for
    export. flows_sha256 hashes the same bytes without building it.
    """
    return "".join(_flow_csv_chunks(flows))


def flows_sha256(flows: FlowTable | Iterable[FlowRecord]) -> str:
    """Hex sha256 of the UTF-8 bytes of ``flows_to_csv(flows)``, hashed chunk by chunk."""
    return _sha256(_flow_csv_chunks(flows))


# ---------------------------------------------------------------------------
# per-host aggregation
# ---------------------------------------------------------------------------

def hosts_in(flows: FlowTable | Iterable[FlowRecord]) -> set[str]:
    """Every host id that is a flow's source or destination, read from a table's columns."""
    table = FlowTable.from_records(flows)
    # a taken table shares the hosts of the table it was taken from, rowless ones too
    in_rows = np.zeros(len(table.hosts), bool)
    in_rows[table.src] = in_rows[table.dst] = True
    return set(compress(table.hosts, in_rows.tolist()))


def full_span(flows: FlowTable | Iterable[FlowRecord]) -> tuple[float, float]:
    """The window [earliest start, just past the latest end) holding every flow.

    Its end is latest end + 1e-6, or the next float above the latest end
    where adding 1e-6 rounds back to it (times beyond about 2**34 s, such
    as epoch milliseconds). A capture without a flow has no span:
    EmptyInputError; one whose length overflows a float (flows at -1e308
    and 1e308), over which every rate would read 0, raises ValueError.
    """
    table = FlowTable.from_records(flows)
    if not len(table):
        raise EmptyInputError("full_span needs at least one flow")
    end = float(table.end_time.max())
    span = float(table.start_time.min()), max(end + 1e-6, math.nextafter(end, math.inf))
    _window_minutes(span)
    return span


def _window_minutes(window: tuple[float, float]) -> float:
    """The length of ``window`` in minutes; ValueError naming the window unless finite and > 0."""
    t0, t1 = window
    if not 0.0 < t1 - t0 < math.inf:  # a bound that is not finite makes the length inf or NaN
        raise ValueError(f"window [{t0}, {t1}) needs a finite length > 0, got {t1 - t0}")
    return (t1 - t0) / 60.0


#: The flags each flag count of a vector needs, in FEATURE_ORDER: ackpush_all, syn_all, rst_all, fin_all
_COUNTED_FLAGS = tuple(map(frozenset, (("ACK", "PUSH"), ("SYN",), ("RST",), ("FIN",))))


def _flag_counts(by_set: np.ndarray, flag_sets: tuple[frozenset[str], ...]) -> list:
    """Flow counts by flags set along the last axis -> per _COUNTED_FLAGS entry, its count(s)."""
    return (by_set @ _carries(flag_sets)).T.tolist()


@functools.lru_cache(maxsize=64)  # asked for by every aggregate_host_features call
def _carries(flag_sets: tuple[frozenset[str], ...]) -> np.ndarray:
    """A 0/1 column per _COUNTED_FLAGS entry: whether each flags set carries its flags (read-only)."""
    carries = np.array([[need <= s for need in _COUNTED_FLAGS] for s in flag_sets], np.int64)
    carries.flags.writeable = False
    return carries.reshape(-1, len(_COUNTED_FLAGS))


def _raw_row(flows, packets, n_bytes, requests, ackpush, syn, rst, fin, minutes) -> tuple[float, ...]:
    """A host's raw features from its int counts over a window: the eight divisions, made once here."""
    return (
        n_bytes / packets, packets / minutes, packets / flows,
        ackpush / flows, requests / flows, syn / flows, rst / flows, fin / flows,
    )


def aggregate_host_features(
    flows: FlowTable | Iterable[FlowRecord],
    host: str,
    window: tuple[float, float],
) -> FeatureVector:
    """Aggregate one host's flows inside [t0, t1) into a raw FeatureVector.

    A flow belongs to the window when its start_time falls inside it; a
    loopback flow counts once. Raises NoFlowsError when the host has no
    flows there (callers decide whether to skip the host or substitute),
    and ValueError when the window's length is not finite and > 0.

    The statistics are read from a table's columns: one mask picks the
    host's rows, and the sums, counts and divisions are host_vectors' own,
    so the vector is bit-identical to host_vectors' vector of the host over
    the same window. A call costs O(flows) at numpy cost and builds no
    FlowRecord. Records are put into a table on every call, so a caller
    that asks for many hosts of one list of records converts it once, with
    FlowTable.from_records. The pipeline does not call this.
    """
    t0, t1 = window
    minutes = _window_minutes(window)
    table = FlowTable.from_records(flows)
    h = table.host_number(host)
    rows = np.flatnonzero(
        ((table.src == h) | (table.dst == h)) & (t0 <= table.start_time) & (table.start_time < t1)
    )
    if not len(rows):
        raise NoFlowsError(f"host {host!r} has no flows in [{t0}, {t1})")
    one_group = np.zeros(len(rows), np.int64)
    (packets,) = _exact_sums(one_group, table.packets[rows], 1)
    (n_bytes,) = _exact_sums(one_group, table.bytes[rows], 1)
    requests = int(np.count_nonzero(table.is_request[rows] & (table.src[rows] == h)))
    by_set = np.bincount(table.flags[rows], minlength=len(table.flag_sets))
    flags = _flag_counts(by_set, table.flag_sets)  # ackpush, syn, rst, fin
    return FeatureVector(host, *_raw_row(len(rows), packets, n_bytes, requests, *flags, minutes))


def host_vectors(flows: FlowTable | Iterable[FlowRecord]) -> FeatureTable:
    """The raw table of every host, sorted by host, each row over the full span.

    Each row equals aggregate_host_features of the host over full_span(flows),
    computed for every host at once from the table's columns: a flow counts
    once per distinct endpoint, so a loopback flow once. The packet and
    byte sums are exact integers (_exact_sums), and one np.bincount over
    (host, flags set) pairs gives the flow and flag counts; the final
    divisions are _raw_row's, which aggregate_host_features makes of the
    same ints, so every float is the one a per-host call gives. A host of
    ``hosts`` without a flow in the table, as a table taken from a larger
    one can hold, gives no row; so a capture without a flow gives none.
    A row that fails a FeatureVector check raises its ValueError.
    """
    table = FlowTable.from_records(flows)
    if not len(table):
        return FeatureTable((), np.empty((0, len(FEATURE_ORDER))), ())
    minutes = _window_minutes(full_span(table))
    n, n_sets = len(table.hosts), len(table.flag_sets)
    apart = table.src != table.dst

    def at_both_ends(column: np.ndarray) -> np.ndarray:
        # each flow's value at its source, then at its destination unless that is the source
        return np.concatenate([column, column[apart]])

    ends = np.concatenate([table.src, table.dst[apart]]).astype(np.int64)
    packets = _exact_sums(ends, at_both_ends(table.packets), n)
    n_bytes = _exact_sums(ends, at_both_ends(table.bytes), n)
    requests = np.bincount(table.src[table.is_request], minlength=n).tolist()
    by_set = np.bincount(ends * n_sets + at_both_ends(table.flags), minlength=n * n_sets)
    by_set = by_set.reshape(n, n_sets)
    flow_counts = by_set.sum(axis=1)
    rows = sorted(np.flatnonzero(flow_counts).tolist(), key=table.hosts.__getitem__)
    hosts = [table.hosts[i] for i in rows]
    # a list per count, not per host: with 600 lists of four a 600-host run() measured 3% slower
    counts = (flow_counts.tolist(), packets, n_bytes, requests, *_flag_counts(by_set, table.flag_sets))
    raw = chain.from_iterable(map(_raw_row, *(map(c.__getitem__, rows) for c in counts), repeat(minutes)))
    matrix = np.fromiter(raw, np.float64, len(rows) * len(FEATURE_ORDER)).reshape(len(rows), -1)
    for bad in np.flatnonzero(~_raw_rows_valid(matrix))[:1].tolist():
        FeatureVector(hosts[bad], *matrix[bad].tolist())  # raises the row's ValueError
    return FeatureTable(hosts, matrix, [LABELS.index(Label.UNLABELED)] * len(hosts))


#: Bits of each of the three limbs _exact_sums cuts a count into
_LIMB_BITS = 21


def _exact_sums(groups: np.ndarray, values: np.ndarray, n: int) -> list[int]:
    """Each group's sum of the non-negative int64 ``values``, as an exact Python int.

    np.bincount sums in float64, which is exact while every partial sum
    stays below 2**53. When the values could pass that, each is cut into
    three 21-bit limbs, summed per group alike: a sum of fewer than 2**32
    limbs stays below 2**53, however large the counts, and the limbs' sums
    are then joined as ints.
    """
    if int(values.max(initial=0)) * len(values) < 2**53:
        return np.bincount(groups, weights=values, minlength=n).astype(np.int64).tolist()
    sums = [0] * n
    mask = (1 << _LIMB_BITS) - 1
    for shift in (2 * _LIMB_BITS, _LIMB_BITS, 0):
        limb = np.bincount(groups, weights=(values >> shift) & mask, minlength=n)
        sums = [(s << _LIMB_BITS) + int(t) for s, t in zip(sums, limb.tolist())]
    return sums


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def fit_normalizer(vectors: Iterable[FeatureVector], *more: Iterable[FeatureVector]) -> NormalizationParams:
    """Per-feature min/max of the raw features over one or more sets (tables or vectors), as one set.

    Of equal extremes, such as 0.0 and -0.0, a bound is the first, as min() and max() pick it.
    """
    raw = np.concatenate([feature_table(v, False).matrix[:, : len(RAW_FEATURES)] for v in (vectors, *more)])
    if not len(raw):
        raise EmptyInputError("fit_normalizer needs at least one vector")
    lo, hi = (raw[first(axis=0), range(len(RAW_FEATURES))].tolist() for first in (raw.argmin, raw.argmax))
    return NormalizationParams(*zip(lo, hi))


def normalize(vectors: FeatureTable | FeatureVector | Iterable[FeatureVector], params: NormalizationParams):
    """The normalized table of a raw table (a vector: its normalized vector).

    A raw feature x of span (lo, hi) becomes (x - lo) / (hi - lo), clamped
    as ``min(1.0, max(0.0, ...))`` clamps it, or 0 where hi == lo, so every
    feature lies in [0, 1]. Ratio features pass through unchanged.
    """
    if isinstance(vectors, FeatureVector):
        return normalize([vectors], params)[0]
    table = feature_table(vectors, normalized=False)
    lo, hi = np.array([params.bpp, params.ppm, params.ppf], np.float64).T
    raw, ratios = np.hsplit(table.matrix, [len(RAW_FEATURES)])
    with np.errstate(all="ignore"):  # an inf span, or 0 / 0 where hi == lo, is masked below
        scaled = (raw - lo) / (hi - lo)
        # max(0.0, s) keeps 0.0 unless s > 0.0, so NaN and -0.0 become 0.0
        scaled = np.where(hi == lo, 0.0, np.where(scaled > 0.0, np.minimum(scaled, 1.0), 0.0))
    return FeatureTable(table.hosts, np.hstack([scaled, ratios]), table.label, True)


# ---------------------------------------------------------------------------
# feature CSV
# ---------------------------------------------------------------------------

_FEATURE_HEADER = ("host", *FEATURE_ORDER, "class")


def _feature_csv_chunks(vectors: Sequence[FeatureVector]) -> Iterator[str]:
    if isinstance(vectors, FeatureTable):  # from the matrix, building no vector
        names = [label.value for label in LABELS]
        cells = zip(vectors.hosts, vectors.matrix.tolist(), vectors.label.tolist())
        return _csv_chunks(_FEATURE_HEADER, ([host, *x, names[code]] for host, x, code in cells))
    return _csv_chunks(_FEATURE_HEADER, ([v.host, *v.values(), v.label.value] for v in vectors))


def features_to_csv(vectors: Sequence[FeatureVector]) -> str:
    """One row per host: a host id column followed by the eight features and class."""
    return "".join(_feature_csv_chunks(vectors))


def features_sha256(vectors: Sequence[FeatureVector]) -> str:
    """Hex sha256 of the UTF-8 bytes of ``features_to_csv(vectors)``, hashed chunk by chunk."""
    return _sha256(_feature_csv_chunks(vectors))


def parse_feature_csv(text: str | Iterable[str]) -> FeatureTable:
    """Parse a feature CSV into a raw FeatureTable, in row order.

    The eight feature columns plus 'class' must appear in canonical order
    (later columns are ignored); a leading 'host' column is optional (rows
    without one get synthetic ids 'row<N>' and cannot be joined to graph
    features later).

    The cells are read a column at a time and checked at numpy cost. When a
    cell or row fails, the rows up to it are read again one at a time, so the
    first bad row raises what a row-by-row parse raises.
    """
    table = CsvTable(text)
    with_host = table.header[:1] == ["host"]
    expected = _FEATURE_HEADER if with_host else _FEATURE_HEADER[1:]
    table.require_columns(expected, "feature CSV")

    hosts, lines, rows = [], [], []
    labels = Memo(lambda cell: LABELS.index(parse_label(cell)))
    try:
        for row_no, line_no, row in table.rows(len(expected), unique_host=with_host):
            hosts.append(row[0].strip() if with_host else f"row{row_no}")
            lines.append(line_no)
            rows.append(row[int(with_host) : len(expected)])  # the feature and class cells
        *features, classes = list(zip(*rows)) or [()] * (len(FEATURE_ORDER) + 1)
        matrix = np.array([list(map(float, cells)) for cells in features]).T
        codes = np.fromiter(map(labels.__getitem__, classes), np.int8, len(rows))
    except (MalformedRowError, ValueError):
        _feature_rows(hosts, lines, rows)  # raises for a bad row read before the error, if one is
        raise
    if not _raw_rows_valid(matrix).all():
        _feature_rows(hosts, lines, rows)
    return FeatureTable(hosts, matrix, codes)


def _feature_rows(hosts: list[str], lines: list[int], rows: list[list[str]]) -> None:
    """Read each row's cells as a FeatureVector, in order: the first bad row raises MalformedRowError."""
    for host, line_no, (*features, label) in zip(hosts, lines, rows):
        try:
            # the feature cells parse before the class cell: a row bad in both reports its feature
            FeatureVector(host, *map(float, features), parse_label(label))
        except ValueError as exc:
            raise MalformedRowError(line_no, str(exc)) from exc
