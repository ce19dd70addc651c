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
order implemented here (each flow kind's docstring lists its draws), so a
(config, seed) pair reproduces the flow list bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from . import kvconfig
from .errors import InvalidConfigError, MalformedRowError, WindowOutOfRangeError
from .flow_model import CsvTable, FlowRecord, Label, Protocol, csv_text, parse_class_label
from .kvconfig import Key, comma_list
from .rng import SplitMix64
from .snn_cluster import State

_BENIGN_FLAG_COMBOS = (
    frozenset({"SYN", "ACK"}),
    frozenset({"SYN", "ACK", "FIN"}),
    frozenset({"ACK"}),
    frozenset({"ACK", "PUSH"}),
    frozenset({"ACK", "FIN"}),
    frozenset({"ACK", "RST"}),
)
_BENIGN_TCP_PORTS = (80, 443, 22, 8080, 8443, 993)
_BENIGN_UDP_PORTS = (53, 123)
_COORDINATION_PORT = 7777
_SYN = frozenset({"SYN"})
_ACK = frozenset({"ACK"})
_ACK_PUSH = frozenset({"ACK", "PUSH"})
# the two short lifecycle flow kinds drawn by _Emitter.short:
# (start offset span, packets, duration, bytes per packet, flags)
_REGISTRATION = (10.0, (2, 6), (0.2, 2.0), (40, 120), _SYN)
_COORDINATION = (20.0, (10, 40), (3.0, 8.0), (80, 300), _ACK)
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
            raise InvalidConfigError("need a primary and a backup pool host")
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

class _Emitter:
    def __init__(self, rng: SplitMix64):
        self.rng = rng
        self.flows: list[FlowRecord] = []

    def _flow(self, src: str, dst: str, src_port: int, dst_port: int, start: float, end: float,
              packets: int, bytes_: int, flags: frozenset[str], protocol: Protocol = Protocol.TCP) -> None:
        self.flows.append(FlowRecord(
            src_host=src, dst_host=dst, src_port=src_port, dst_port=dst_port, protocol=protocol,
            start_time=start, end_time=end, packets=packets, bytes=bytes_, flags=flags, is_request=True,
        ))

    def benign(self, a: str, b: str, window_start: float, window_len: float) -> None:
        """Draw order: direction, start offset, duration, packets, bytes per
        packet, protocol, flags (TCP only), destination port, source port."""
        rng = self.rng
        src, dst = (a, b) if rng.randbelow(2) == 0 else (b, a)
        start = window_start + rng.uniform(0.0, window_len * 0.8)
        duration = rng.uniform(0.5, 15.0)
        packets = rng.randint(5, 60)
        bytes_ = packets * rng.randint(200, 1200)
        if rng.randbelow(10) == 0:
            proto, flags = Protocol.UDP, frozenset()
            dst_port = rng.choice(_BENIGN_UDP_PORTS)
        else:
            proto = Protocol.TCP
            flags = rng.choice(_BENIGN_FLAG_COMBOS)
            dst_port = rng.choice(_BENIGN_TCP_PORTS)
        src_port = rng.randint(1024, 65535)
        self._flow(src, dst, src_port, dst_port, start, start + duration, packets, bytes_, flags, proto)

    def short(self, src: str, dst: str, port: int, window_start: float, kind: tuple) -> None:
        """A registration or coordination flow (``kind``). Draw order: start
        offset, packets, source port, duration, bytes per packet."""
        start_span, packets, duration, per_packet, flags = kind
        rng = self.rng
        start = window_start + rng.uniform(0.0, start_span)
        n_packets = rng.randint(*packets)
        src_port = rng.randint(1024, 65535)
        end = start + rng.uniform(*duration)
        bytes_ = n_packets * rng.randint(*per_packet)
        self._flow(src, dst, src_port, port, start, end, n_packets, bytes_, flags)

    def mining(self, victim: str, pool: str, port: int, window_start: float, duration: float) -> None:
        """Draw order: start offset, duration, packets, source port, bytes per packet."""
        rng = self.rng
        start = window_start + rng.uniform(0.0, 5.0)
        length = rng.uniform(duration * 0.9, duration * 1.2)
        packets = rng.randint(150, 400)
        src_port = rng.randint(1024, 65535)
        bytes_ = packets * rng.randint(60, 140)
        self._flow(victim, pool, src_port, port, start, start + length, packets, bytes_, _ACK_PUSH)


def generate(config: ScenarioConfig, seed: int | None = None) -> tuple[list[FlowRecord], GroundTruth]:
    """Emit the scenario's flows plus ground truth; deterministic per seed.

    Draw order: topology, victim selection, then window by window the
    benign flows over sorted topology edges, the lifecycle flows of each
    victim's ``_state_at`` state over victims in recruitment order, and the
    pool-mesh flows over meshed pairs.
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
    victims = [hosts[i] for i in taken]
    windows = [w for w, count in enumerate(config.recruitment_schedule) for _ in range(count)]
    recruit_at = dict(zip(victims, windows))

    primary, backup = config.pool_hosts[0], config.pool_hosts[1]
    emit = _Emitter(rng)
    length = config.window_length

    for w in range(config.n_windows):
        window_start = w * length
        for a, b in topology:
            for _ in range(config.benign_rate):
                emit.benign(hosts[a], hosts[b], window_start, length)

        states = [_state_at(recruit_at[v], w) for v in victims]
        meshed = [v for v, state in zip(victims, states) if state in (State.S2, State.S3)]
        for victim, state in zip(victims, states):
            if state is State.S1:
                for pool in (primary, backup):
                    for _ in range(4):
                        emit.short(victim, pool, config.mining_port, window_start, _REGISTRATION)
            elif state is State.S2:
                emit.short(victim, primary, _COORDINATION_PORT, window_start, _COORDINATION)
            elif state is State.S3:
                for _ in range(config.mining_flows_per_window):
                    emit.mining(
                        victim, primary, config.mining_port, window_start,
                        config.mining_flow_duration,
                    )
        # pool mesh: one coordination flow per meshed pair per window
        for i, a in enumerate(meshed):
            for b in meshed[i + 1 :]:
                src, dst = (a, b) if a <= b else (b, a)
                emit.short(src, dst, _COORDINATION_PORT, window_start, _COORDINATION)

    labels = {h: Label.NOT_MINER for h in hosts}
    for v in victims:
        labels[v] = Label.MINER
    truth = GroundTruth(
        labels=labels,
        recruitment_window=recruit_at,
        n_windows=config.n_windows,
    )
    return emit.flows, truth


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

    ``n_windows`` is the latest recruitment window in the file + 1.
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
    return GroundTruth(
        labels=labels,
        recruitment_window=recruit,
        n_windows=max_window + 1,
    )
