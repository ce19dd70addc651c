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
order implemented here, so a (config, seed) pair reproduces the flow list
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from . import kvconfig
from .errors import InvalidConfigError, MalformedRowError, MissingColumnError, WindowOutOfRangeError
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


def expected_states(truth: GroundTruth, window: int) -> dict[str, State]:
    """Idealized lifecycle state of every labeled host at one window.

    S0 before recruitment, S1 at the recruitment window, S2 while the
    victim is joining the pool mesh, S3 once sustained mining flows are
    active. ``window`` means the graph snapshot arriving at that index.
    """
    if not (0 <= window < truth.n_windows):
        raise WindowOutOfRangeError(f"window {window} outside [0, {truth.n_windows})")
    states: dict[str, State] = {}
    for host, label in truth.labels.items():
        if label is not Label.MINER:
            states[host] = State.S0
            continue
        r = truth.recruitment_window[host]
        if window < r:
            states[host] = State.S0
        elif window == r:
            states[host] = State.S1
        elif window == r + 1:
            states[host] = State.S2
        else:
            states[host] = State.S3
    return states


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

    def benign(self, a: str, b: str, window_start: float, window_len: float) -> None:
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
        self.flows.append(
            FlowRecord(
                src_host=src,
                dst_host=dst,
                src_port=rng.randint(1024, 65535),
                dst_port=dst_port,
                protocol=proto,
                start_time=start,
                end_time=start + duration,
                packets=packets,
                bytes=bytes_,
                flags=flags,
                is_request=True,
            )
        )

    def registration(self, victim: str, pool: str, port: int, window_start: float) -> None:
        rng = self.rng
        for _ in range(4):
            start = window_start + rng.uniform(0.0, 10.0)
            packets = rng.randint(2, 6)
            self.flows.append(
                FlowRecord(
                    src_host=victim,
                    dst_host=pool,
                    src_port=rng.randint(1024, 65535),
                    dst_port=port,
                    protocol=Protocol.TCP,
                    start_time=start,
                    end_time=start + rng.uniform(0.2, 2.0),
                    packets=packets,
                    bytes=packets * rng.randint(40, 120),
                    flags=frozenset({"SYN"}),
                    is_request=True,
                )
            )

    def coordination(self, src: str, dst: str, port: int, window_start: float) -> None:
        rng = self.rng
        start = window_start + rng.uniform(0.0, 20.0)
        packets = rng.randint(10, 40)
        self.flows.append(
            FlowRecord(
                src_host=src,
                dst_host=dst,
                src_port=rng.randint(1024, 65535),
                dst_port=port,
                protocol=Protocol.TCP,
                start_time=start,
                end_time=start + rng.uniform(3.0, 8.0),
                packets=packets,
                bytes=packets * rng.randint(80, 300),
                flags=frozenset({"ACK"}),
                is_request=True,
            )
        )

    def mining(self, victim: str, pool: str, port: int, window_start: float, duration: float) -> None:
        rng = self.rng
        start = window_start + rng.uniform(0.0, 5.0)
        length = rng.uniform(duration * 0.9, duration * 1.2)
        packets = rng.randint(150, 400)
        self.flows.append(
            FlowRecord(
                src_host=victim,
                dst_host=pool,
                src_port=rng.randint(1024, 65535),
                dst_port=port,
                protocol=Protocol.TCP,
                start_time=start,
                end_time=start + length,
                packets=packets,
                bytes=packets * rng.randint(60, 140),
                flags=frozenset({"ACK", "PUSH"}),
                is_request=True,
            )
        )


def generate(config: ScenarioConfig, seed: int | None = None) -> tuple[list[FlowRecord], GroundTruth]:
    """Emit the scenario's flows plus ground truth; deterministic per seed.

    Draw order: topology, victim selection, then window by window the
    benign flows over sorted topology edges followed by the pool lifecycle
    flows over victims in recruitment order.
    """
    rng = SplitMix64(config.seed if seed is None else seed)
    hosts = [config.host_id(i) for i in range(config.n_hosts)]
    if set(config.pool_hosts) & set(hosts):
        raise InvalidConfigError("pool host ids collide with generated host ids")

    topology = small_world_edges(config.n_hosts, config.ring_degree, config.rewire_prob, rng)

    # victim selection: distinct uniform draws, assigned to recruitment
    # windows in schedule order
    victims: list[str] = []
    taken: set[int] = set()
    for _ in range(config.n_victims):
        while True:
            i = rng.randbelow(config.n_hosts)
            if i not in taken:
                taken.add(i)
                victims.append(hosts[i])
                break
    recruit_at: dict[str, int] = {}
    cursor = 0
    for window, count in enumerate(config.recruitment_schedule):
        for victim in victims[cursor : cursor + count]:
            recruit_at[victim] = window
        cursor += count

    primary, backup = config.pool_hosts[0], config.pool_hosts[1]
    emit = _Emitter(rng)
    length = config.window_length

    for w in range(config.n_windows):
        window_start = w * length
        for a, b in topology:
            for _ in range(config.benign_rate):
                emit.benign(hosts[a], hosts[b], window_start, length)

        meshed = [v for v in victims if recruit_at[v] + 1 <= w]
        for victim in victims:
            r = recruit_at[victim]
            if w == r:
                emit.registration(victim, primary, config.mining_port, window_start)
                emit.registration(victim, backup, config.mining_port, window_start)
            elif w == r + 1:
                emit.coordination(victim, primary, _COORDINATION_PORT, window_start)
            elif w >= r + 2:
                for _ in range(config.mining_flows_per_window):
                    emit.mining(
                        victim, primary, config.mining_port, window_start,
                        config.mining_flow_duration,
                    )
        # pool mesh: one coordination flow per meshed pair per window
        for i, a in enumerate(meshed):
            for b in meshed[i + 1 :]:
                src, dst = (a, b) if a <= b else (b, a)
                emit.coordination(src, dst, _COORDINATION_PORT, window_start)

    labels = {h: Label.NOT_MINER for h in hosts}
    for v in victims:
        labels[v] = Label.MINER
    truth = GroundTruth(
        labels=labels,
        recruitment_window=dict(recruit_at),
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
    return csv_text(("host", "label", "recruitment_window"), rows)


def parse_truth_csv(text: str | Iterable[str], n_windows: int | None = None) -> GroundTruth:
    """Parse a ground-truth CSV; every host needs a Miner or NotMiner label."""
    table = CsvTable(text)
    header = table.header
    if header[:3] != ["host", "label", "recruitment_window"]:
        raise MissingColumnError(
            f"ground truth header must be host,label,recruitment_window, got {header}"
        )
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
        n_windows=n_windows if n_windows is not None else max_window + 1,
    )
