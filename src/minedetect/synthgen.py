"""Deterministic synthetic traffic scenarios with ground truth.

Benign background: hosts sit on a Watts-Strogatz style small-world graph
(ring lattice plus random rewiring) and exchange short flows with their
topology neighbors every window, so the benign communication graph is
static across windows. A planted mining pool grows on top of it; each
recruited victim walks the lifecycle:

    window r      registration: short SYN flows to two external pool
                  servers (the external degree jumps by 2)
    window r+1    coordination: joins the pool mesh (flows to every
                  already-meshed victim and to the primary pool server;
                  the backup server is dropped)
    window >= r+2 active mining: long-lived ACK+PUSH flows to the primary
                  pool server on the mining port, every window, while the
                  mesh connections persist

Everything is drawn from one SplitMix64 stream (see rng.py) in the fixed
order implemented here (generate and each flow kind's docstring list the
draws), so a (config, seed) pair reproduces the flow list bit for bit.
The topology and the victims are drawn one value at a time; each window's
flows are drawn as arrays from the window's run of outputs, with the
scalar draws' arithmetic, and generate returns them as a FlowTable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import kvconfig
from .errors import InvalidConfigError, MalformedRowError, WindowOutOfRangeError
from .flow_model import PROTOCOLS, CsvTable, FlowTable, Label, Protocol, csv_text, parse_class_label
from .kvconfig import Key, comma_list
from .rng import SplitMix64, below, randint_of, uniform_of
from .snn_cluster import State

_BENIGN_FLAG_COMBOS = (
    frozenset({"SYN", "ACK"}),
    frozenset({"SYN", "ACK", "FIN"}),
    frozenset({"ACK"}),
    frozenset({"ACK", "PUSH"}),
    frozenset({"ACK", "FIN"}),
    frozenset({"ACK", "RST"}),
)
_BENIGN_TCP_PORTS = np.array((80, 443, 22, 8080, 8443, 993), np.int64)
_BENIGN_UDP_PORTS = np.array((53, 123), np.int64)
_COORDINATION_PORT = 7777
_SYN = frozenset({"SYN"})
_ACK = frozenset({"ACK"})
_ACK_PUSH = frozenset({"ACK", "PUSH"})
_TRUTH_HEADER = ("host", "label", "recruitment_window")


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of one synthetic scenario; the seed is mandatory."""

    seed: int
    n_hosts: int = 200
    ring_degree: int = 6
    rewire_prob: float = 0.1
    n_windows: int = 6
    window_length: float = 60.0
    recruitment_schedule: tuple[int, ...] = (0, 4, 4, 2)
    pool_hosts: tuple[str, ...] = ("pool0", "pool1")
    mining_port: int = 3333
    mining_flow_duration: float = 45.0
    mining_flows_per_window: int = 10
    benign_rate: int = 2

    def __post_init__(self):
        if self.n_hosts < 3:
            raise InvalidConfigError("n_hosts must be >= 3")
        if self.ring_degree % 2 != 0 or not (0 < self.ring_degree < self.n_hosts):
            raise InvalidConfigError("ring_degree must be even and in (0, n_hosts)")
        if not (0.0 <= self.rewire_prob <= 1.0):
            raise InvalidConfigError("rewire_prob must be in [0, 1]")
        if self.n_windows < 1:
            raise InvalidConfigError("n_windows must be >= 1")
        if not 0 < self.window_length < math.inf:
            raise InvalidConfigError("window_length must be finite and > 0")
        if len(self.recruitment_schedule) > self.n_windows:
            raise InvalidConfigError("recruitment schedule longer than n_windows")
        if any(r < 0 for r in self.recruitment_schedule):
            raise InvalidConfigError("recruitment counts must be >= 0")
        if sum(self.recruitment_schedule) > self.n_hosts:
            raise InvalidConfigError("cannot recruit more victims than hosts")
        if len(self.pool_hosts) < 2:
            raise InvalidConfigError("pool_hosts needs a primary and a backup pool host")
        kvconfig.check_list_entries("pool_hosts", self.pool_hosts, InvalidConfigError)
        if len(set(self.pool_hosts)) != len(self.pool_hosts):
            raise InvalidConfigError(f"pool_hosts ids must be distinct, got {self.pool_hosts!r}")
        if self.benign_rate < 1:
            raise InvalidConfigError("benign_rate must be >= 1")
        if not 0 < self.mining_flow_duration < math.inf:
            raise InvalidConfigError("mining_flow_duration must be finite and > 0")
        if self.mining_flows_per_window < 1:
            raise InvalidConfigError("mining_flows_per_window must be >= 1")
        if not 0 <= self.mining_port <= 65535:
            raise InvalidConfigError("mining_port must be in 0-65535")

    @property
    def n_victims(self) -> int:
        return sum(self.recruitment_schedule)

    def host_id(self, i: int) -> str:
        width = len(str(self.n_hosts - 1))
        return f"host{i:0{width}d}"

    def to_kv(self) -> dict[str, str]:
        return kvconfig.encode(self, SCENARIO_KEYS)

    @classmethod
    def from_kv(cls, kv: Mapping[str, str]) -> "ScenarioConfig":
        """A scenario from bare or 'scenario.'-prefixed keys; the seed is required."""
        if not {"seed", "scenario.seed"} & kv.keys():
            raise InvalidConfigError("scenario config must set a seed")
        return kvconfig.decode(cls, SCENARIO_KEYS, kv, "scenario config", prefix="scenario.")


SCENARIO_KEYS = (
    Key("seed", parse=int),
    Key("n_hosts", parse=int),
    Key("ring_degree", parse=int),
    Key("rewire_prob", parse=float),
    Key("n_windows", parse=int),
    Key("window_length", parse=float),
    Key("recruitment_schedule", parse=comma_list(int)),
    Key("pool_hosts", parse=comma_list()),
    Key("mining_port", parse=int),
    Key("mining_flow_duration", parse=float),
    Key("mining_flows_per_window", parse=int),
    Key("benign_rate", parse=int),
)


@dataclass(frozen=True)
class GroundTruth:
    """Per-host labels and the recruitment schedule behind them."""

    labels: dict[str, Label]
    recruitment_window: dict[str, int]
    n_windows: int

    def __post_init__(self):
        for host, label in self.labels.items():
            if label is Label.MINER:
                r = self.recruitment_window.get(host)
                if r is None or not (0 <= r < self.n_windows):
                    raise ValueError(f"miner {host!r} needs a recruitment window < n_windows")

    @property
    def miners(self) -> list[str]:
        return sorted(h for h, label in self.labels.items() if label is Label.MINER)


def _state_at(recruited: int, window: int) -> State:
    """Lifecycle state at ``window`` of a victim recruited at ``recruited``."""
    offset = window - recruited
    return State.S0 if offset < 0 else (State.S1, State.S2, State.S3)[min(offset, 2)]


def expected_states(truth: GroundTruth, window: int) -> dict[str, State]:
    """Idealized lifecycle state of every labeled host at one window.

    S0 before recruitment, S1 at the recruitment window, S2 while the
    victim is joining the pool mesh, S3 once sustained mining flows are
    active; ``generate`` emits flows by the same schedule. ``window`` means
    the graph snapshot arriving at that index.
    """
    if not (0 <= window < truth.n_windows):
        raise WindowOutOfRangeError(f"window {window} outside [0, {truth.n_windows})")
    return {
        host: _state_at(truth.recruitment_window[host], window) if label is Label.MINER else State.S0
        for host, label in truth.labels.items()
    }


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

def small_world_edges(n: int, ring_degree: int, rewire_prob: float, rng: SplitMix64) -> list[tuple[int, int]]:
    """Ring lattice with per-edge rewiring; edge count is preserved.

    Each clockwise ring edge (i, i+j) is rewired with probability
    ``rewire_prob`` to a uniformly drawn non-adjacent target; when no valid
    target is found in n attempts the edge stays put.
    """
    half = ring_degree // 2
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(1, half + 1):
            b = (i + j) % n
            adjacency[i].add(b)
            adjacency[b].add(i)

    for i in range(n):
        for j in range(1, half + 1):
            b = (i + j) % n
            if b not in adjacency[i]:
                continue  # already rewired away
            if rng.uniform() >= rewire_prob:
                continue
            for _ in range(n):
                target = rng.randbelow(n)
                if target != i and target not in adjacency[i]:
                    adjacency[i].remove(b)
                    adjacency[b].discard(i)
                    adjacency[i].add(target)
                    adjacency[target].add(i)
                    break

    return sorted(
        (i, b) for i in range(n) for b in adjacency[i] if i < b
    )


# ---------------------------------------------------------------------------
# flow emission
# ---------------------------------------------------------------------------

#: Every flags set a generated flow carries; the flags column indexes it
_FLAG_SETS = (*_BENIGN_FLAG_COMBOS, frozenset(), _SYN)
_NO_FLAGS = _FLAG_SETS.index(frozenset())
_TCP, _UDP = PROTOCOLS.index(Protocol.TCP), PROTOCOLS.index(Protocol.UDP)
_REGISTRATION, _COORDINATION, _MINING = range(3)  # the lifecycle flow kinds
#: Draws of one benign flow whose protocol draw picks UDP (it skips the flags draw), or TCP
_UDP_DRAWS, _TCP_DRAWS = 8, 9
_LIFECYCLE_DRAWS = 5


def _benign(out: np.ndarray, a: np.ndarray, b: np.ndarray, window_start: float, window_len: float):
    """The columns of one window's benign flows, one between a[i] and b[i] each, and the
    number of draws they take from the head of ``out``.

    Draw order of a flow: direction, start offset, duration, packets, bytes
    per packet, protocol, flags (TCP only), destination port, source port.
    A flow therefore takes 9 draws, or 8 when its protocol draw picks UDP;
    one pass over those picks finds the first draw of every flow, and each
    field is then drawn for all flows at once.
    """
    draws = np.where(below(out[5:], 10) == 0, _UDP_DRAWS, _TCP_DRAWS).tolist()
    first, p = [], 0
    for _ in range(len(a)):
        first.append(p)
        p += draws[p]  # draws[p] reads the protocol draw of the flow starting at p
    s = np.array(first, np.int64)
    forward = below(out[s], 2) == 0
    start = window_start + uniform_of(out[s + 1], 0.0, window_len * 0.8)
    duration = uniform_of(out[s + 2], 0.5, 15.0)
    packets = randint_of(out[s + 3], 5, 60)
    n_bytes = packets * randint_of(out[s + 4], 200, 1200)
    udp = below(out[s + 5], 10) == 0
    columns = (
        np.where(forward, a, b),
        np.where(forward, b, a),
        randint_of(out[s + np.where(udp, 7, 8)], 1024, 65535),
        np.where(udp, _BENIGN_UDP_PORTS[below(out[s + 6], 2)], _BENIGN_TCP_PORTS[below(out[s + 7], 6)]),
        np.where(udp, _UDP, _TCP),
        start,
        start + duration,
        packets,
        n_bytes,
        np.where(udp, _NO_FLAGS, below(out[s + 6], 6)),
    )
    return columns, p


def _lifecycle_kinds(config: ScenarioConfig) -> dict[str, np.ndarray]:
    """Per lifecycle flow kind (registration, coordination, mining), its parameters and the
    position of its packets, source port and duration draws among its five."""
    d = config.mining_flow_duration
    kinds = (
        # start offset span, packets, duration, bytes per packet, flags, destination port, draws
        (10.0, (2, 6), (0.2, 2.0), (40, 120), _SYN, config.mining_port, (1, 2, 3)),
        (20.0, (10, 40), (3.0, 8.0), (80, 300), _ACK, _COORDINATION_PORT, (1, 2, 3)),
        (5.0, (150, 400), (d * 0.9, d * 1.2), (60, 140), _ACK_PUSH, config.mining_port, (2, 3, 1)),
    )
    span, packets, duration, per_packet, flags, port, draws = zip(*kinds)
    return {
        "span": np.array(span),
        "packets": np.array(packets, np.int64),
        "duration": np.array(duration),
        "per_packet": np.array(per_packet, np.int64),
        "flags": np.array([_FLAG_SETS.index(f) for f in flags], np.int64),
        "port": np.array(port, np.int64),
        "draws": np.array(draws, np.int64),
    }


def _lifecycle(out: np.ndarray, kind: np.ndarray, src: np.ndarray, dst: np.ndarray,
               window_start: float, kinds: dict[str, np.ndarray]):
    """The columns of one window's lifecycle flows from the ``5 * len(kind)`` draws ``out``.

    Every flow takes five draws. A registration or coordination flow draws
    its start offset, packets, source port, duration and bytes per packet;
    a mining flow draws its start offset, duration, packets, source port and
    bytes per packet.
    """
    x = out.reshape(len(kind), _LIFECYCLE_DRAWS)
    row = np.arange(len(kind))
    i_packets, i_src_port, i_duration = kinds["draws"][kind].T
    lo, hi = kinds["packets"][kind].T
    packets = randint_of(x[row, i_packets], lo, hi)
    lo, hi = kinds["per_packet"][kind].T
    n_bytes = packets * randint_of(x[:, 4], lo, hi)
    start = window_start + uniform_of(x[:, 0], 0.0, kinds["span"][kind])
    lo, hi = kinds["duration"][kind].T
    return (
        src,
        dst,
        randint_of(x[row, i_src_port], 1024, 65535),
        kinds["port"][kind],
        np.full(len(kind), _TCP),
        start,
        start + uniform_of(x[row, i_duration], lo, hi),
        packets,
        n_bytes,
        kinds["flags"][kind],
    )


def _windows(config: ScenarioConfig, rng: SplitMix64, topology, victims: list[int], recruited: list[int]):
    """Each window's flow columns in turn, hosts numbered as generate's ``names``: the
    config's host numbers, then the primary and the backup pool."""
    primary, backup = config.n_hosts, config.n_hosts + 1
    plans = {  # (kind, destination) of each flow a victim in that state sends
        State.S0: [],
        State.S1: [(_REGISTRATION, primary)] * 4 + [(_REGISTRATION, backup)] * 4,
        State.S2: [(_COORDINATION, primary)],
        State.S3: [(_MINING, primary)] * config.mining_flows_per_window,
    }
    kinds = _lifecycle_kinds(config)
    a, b = np.array(topology, np.int64).reshape(-1, 2).repeat(config.benign_rate, axis=0).T
    length = config.window_length
    for w in range(config.n_windows):
        window_start = w * length
        states = [_state_at(r, w) for r in recruited]
        sent = [plans[state] for state in states]
        kind, dst = np.array([f for plan in sent for f in plan], np.int64).reshape(-1, 2).T
        src = np.repeat(np.array(victims, np.int64), list(map(len, sent)))
        # the pool mesh: host ids share one width, so id order is number order
        meshed = np.array([v for v, s in zip(victims, states) if s in (State.S2, State.S3)], np.int64)
        i, j = np.triu_indices(len(meshed), 1)
        kind = np.concatenate([kind, np.full(len(i), _COORDINATION)])
        src = np.concatenate([src, np.minimum(meshed[i], meshed[j])])
        dst = np.concatenate([dst, np.maximum(meshed[i], meshed[j])])

        n_lifecycle = _LIFECYCLE_DRAWS * len(kind)
        out = rng.peek(_TCP_DRAWS * len(a) + n_lifecycle)
        with np.errstate(over="ignore", invalid="ignore"):  # a time past the floats fails the row checks
            benign, used = _benign(out, a, b, window_start, length)
            lifecycle = _lifecycle(out[used : used + n_lifecycle], kind, src, dst, window_start, kinds)
        rng.advance(used + n_lifecycle)
        columns = [np.concatenate(pair) for pair in zip(benign, lifecycle)]
        yield [*columns, np.ones(len(columns[0]), np.bool_)]


def generate(config: ScenarioConfig, seed: int | None = None) -> tuple[FlowTable, GroundTruth]:
    """Emit the scenario's flows plus ground truth; deterministic per seed.

    Draw order: topology, victim selection, then window by window the
    benign flows over sorted topology edges (``benign_rate`` flows per
    edge), the lifecycle flows of each victim's ``_state_at`` state over
    victims in recruitment order, and the pool-mesh flows over meshed
    pairs. In its recruitment window a victim sends four registration flows
    to the primary pool and four to the backup; in the next, one
    coordination flow to the primary; from then on ``mining_flows_per_window``
    mining flows to the primary. Each meshed pair sends one coordination
    flow, from the lesser host id to the greater.

    The topology and the victims are drawn one value at a time; each
    window's flows are drawn as arrays from its run of outputs (``peek``,
    then ``advance`` past the draws taken), so they are the flows that
    drawing one value at a time in the order above gives, bit for bit. They
    come back as a FlowTable, hosts and flag sets numbered in first-seen
    order, as parse_flow_csv numbers them; ValueError when a flow fails a
    FlowRecord check (a time past the floats).
    """
    rng = SplitMix64(config.seed if seed is None else seed)
    hosts = [config.host_id(i) for i in range(config.n_hosts)]
    if set(config.pool_hosts) & set(hosts):
        raise InvalidConfigError("pool host ids collide with generated host ids")

    topology = small_world_edges(config.n_hosts, config.ring_degree, config.rewire_prob, rng)

    # victim selection: distinct uniform draws, assigned to recruitment
    # windows in schedule order
    taken: dict[int, None] = {}  # insertion-ordered set
    while len(taken) < config.n_victims:
        taken[rng.randbelow(config.n_hosts)] = None
    victims = list(taken)
    recruited = [w for w, count in enumerate(config.recruitment_schedule) for _ in range(count)]
    labels = {h: Label.NOT_MINER for h in hosts}
    for v in victims:
        labels[hosts[v]] = Label.MINER
    truth = GroundTruth(
        labels=labels,
        recruitment_window={hosts[v]: w for v, w in zip(victims, recruited)},
        n_windows=config.n_windows,
    )
    names = (*hosts, *config.pool_hosts[:2])
    windows = _windows(config, rng, topology, victims, recruited)
    return FlowTable.from_columns(names, _FLAG_SETS, windows), truth


# ---------------------------------------------------------------------------
# ground-truth CSV
# ---------------------------------------------------------------------------

def truth_to_csv(truth: GroundTruth) -> str:
    rows = (
        (host, truth.labels[host].value, truth.recruitment_window.get(host, ""))
        for host in sorted(truth.labels)
    )
    return csv_text(_TRUTH_HEADER, rows)


def parse_truth_csv(text: str | Iterable[str]) -> GroundTruth:
    """Parse a ground-truth CSV; every host needs a Miner or NotMiner label.

    A Miner row needs a recruitment window >= 0; a row without one, or with
    a negative one, raises MalformedRowError naming its line. ``n_windows``
    is the latest recruitment window in the file + 1.
    """
    table = CsvTable(text)
    table.require_columns(_TRUTH_HEADER, "ground truth")
    labels: dict[str, Label] = {}
    recruit: dict[str, int] = {}
    max_window = -1
    for _, line_no, row in table.rows(2, unique_host=True):
        host = row[0].strip()
        try:
            labels[host] = parse_class_label(row[1], "ground truth")
            if len(row) > 2 and row[2].strip():
                recruit[host] = int(row[2])
                max_window = max(max_window, recruit[host])
        except ValueError as exc:
            raise MalformedRowError(line_no, str(exc)) from exc
        window = recruit.get(host)
        if labels[host] is Label.MINER and window is None:
            raise MalformedRowError(line_no, f"miner {host!r} has no recruitment window")
        if labels[host] is Label.MINER and window < 0:
            raise MalformedRowError(line_no, f"miner {host!r} has recruitment window {window} < 0")
    return GroundTruth(
        labels=labels,
        recruitment_window=recruit,
        n_windows=max_window + 1,
    )
