"""A fixed speed probe, to divide the host's momentary speed out of timings.

The benchmark runs on shared virtual machines whose speed changes from
second to second by a third or more (other tenants, cache and memory
contention). A wall time taken under such a host says as much about the
neighbours as about the program. The probe is a fixed piece of work, shaped
like the program's own hot loops (string keys, tuples, grouping rows into a
dict of lists, a sort) but sharing no code with it, so a change to
``src/minedetect`` cannot change what the probe costs. It runs before and
after every timed unit of work; the unit's time is divided by the mean of
the two probes around it and multiplied by REFERENCE_S. The result is in
seconds at the reference speed: the speed at which one probe takes
REFERENCE_S seconds.
"""

from __future__ import annotations

import gc
from time import perf_counter

# seconds one probe takes at reference speed; a round figure near what the
# machine in README.md gives (0.12-0.15 s), fixed so results stay comparable
REFERENCE_S = 0.1

ROWS = 80_000


def _work() -> int:
    rows = [(f"10.0.{i % 251}.{i % 199}", i * 0.37, i % 7) for i in range(ROWS)]
    by_key: dict[str, list[float]] = {}
    for key, t, _ in rows:
        by_key.setdefault(key, []).append(t)
    ordered = sorted(by_key, key=lambda k: (len(by_key[k]), k))
    return len(ordered) + sum(len(v) for v in by_key.values())


EXPECTED = _work()


def timed_probe() -> float:
    """Seconds one probe takes now.

    The collector is off while it runs, so its cost does not grow with the
    live heap of the program being measured.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        result = _work()
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError(f"speed probe computed {result}, expected {EXPECTED}")
    return elapsed


def normalize(times: list[float], probes: list[float]) -> list[float]:
    """Each time at reference speed; ``probes`` has one more entry than ``times``,
    ``probes[i]`` and ``probes[i + 1]`` being the probes on either side of ``times[i]``."""
    if len(probes) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} probes, got {len(probes)}")
    return [
        t * REFERENCE_S / ((before + after) / 2)
        for t, before, after in zip(times, probes, probes[1:])
    ]
