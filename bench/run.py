"""minedetect benchmark: capture-to-report time, memory and detection quality.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, no threads or workers. The workload seed drives synthgen; the
program sees only the generated CSV text. With ``--trace 0`` the run
reports the end-to-end metrics, all measured with tracing off; with
``--trace 1`` it reports the per-layer metrics of one traced pass. Times
of set-ups and untraced passes are divided by the host's momentary speed,
measured with a fixed probe around each of them (probe.py). Every
pass is checked (see checks.py) and counted. Human-readable lines go
first; the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import statistics
import sys
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    from minedetect.pipeline import PipelineConfig

    import checks
    import probe
    import tracer
    import workloads
except ImportError as exc:
    print(f"bench: cannot import minedetect from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)

MIN_PASSES = 3  # timed passes per run, even when one pass outlasts --seconds
SETUP_REPEATS = 3
MAX_LOGGED_FAILURES = 5


class Ledger:
    """Attempted and failed passes, and the outputs every pass must repeat."""

    def __init__(self, hosts: frozenset[str]):
        self.hosts = hosts
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None  # report sha256 without generated_at
        self.report: dict | None = None  # first report that passed its checks
        self._tables = None

    def fail(self, label: str, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if self.failed <= MAX_LOGGED_FAILURES:
            print(f"bench: {label} failed: {message}", file=sys.stderr)

    def record(self, label: str, outcome) -> None:
        """Count one pass; ``outcome`` is its Outputs or the exception it raised."""
        if isinstance(outcome, Exception):
            self.fail(label, "".join(traceback.format_exception(outcome)))
            return
        try:
            problems, report = checks.check_outputs(outcome, self.hosts)
            digest = checks.report_digest(report) if report is not None else None
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            problems, report = [f"malformed report: {exc!r}"], None
        if not problems:
            tables = (outcome.clusters_csv, outcome.metrics_csv)
            if self.digest is None:
                self.digest, self.report, self._tables = digest, report, tables
            elif (digest, tables) != (self.digest, self._tables):
                problems.append("outputs differ from the first checked pass")
        if problems:
            self.fail(label, "; ".join(problems))
        else:
            self.attempted += 1


def timed(run_pass):
    """(seconds, Outputs or the exception the pass raised)."""
    gc.collect()
    start = perf_counter()
    try:
        outputs = run_pass()
    except Exception as exc:  # a failing pass is counted, not fatal
        return perf_counter() - start, exc
    return perf_counter() - start, outputs


def timed_passes(ledger: Ledger, run_pass, seconds: float) -> tuple[list[float], list[float]]:
    """Untraced passes until ``seconds`` have gone and MIN_PASSES were made.

    Returns the wall time of each pass and the speed probes around them
    (one more probe than passes; see probe.py).
    """
    times: list[float] = []
    probes = [probe.timed_probe()]
    deadline = perf_counter() + seconds
    while len(times) < MIN_PASSES or perf_counter() < deadline:
        elapsed, outcome = timed(run_pass)
        probes.append(probe.timed_probe())
        ledger.record(f"timed pass {len(times)}", outcome)
        times.append(elapsed)
    return times, probes


def memory_pass(ledger: Ledger, run_pass) -> float:
    """tracemalloc peak above the pre-run baseline, in MiB, for one pass."""
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, outcome = timed(run_pass)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ledger.record("memory pass", outcome)
    return (peak - baseline) / 2**20


def repeated_setup(workload, seed: int) -> tuple[workloads.Inputs, list[float]]:
    """Set-up SETUP_REPEATS times; the inputs and each set-up's time at reference speed."""
    inputs, times, probes = None, [], [probe.timed_probe()]
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = perf_counter()
        built = workloads.build_inputs(workload, seed)
        times.append(perf_counter() - start)
        probes.append(probe.timed_probe())
        if inputs is not None and built != inputs:
            raise RuntimeError("set-up gave different inputs for the same seed")
        inputs = built
    return inputs, probe.normalize(times, probes)


def check_untraced(ledger: Ledger, label: str, *tracers) -> None:
    """Fail the run if a wrapper or tracemalloc outlived its pass."""
    leftover = [name for t in tracers for name in t.unrestored()] + tracer.installed()
    if leftover:
        ledger.fail(label, f"wrappers left installed: {sorted(set(leftover))}")
    if tracemalloc.is_tracing():
        ledger.fail(label, "tracemalloc left running")


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    digest: str | None
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def measure(workload: workloads.Workload, seed: int, seconds: float, trace: bool) -> Result:
    config = PipelineConfig()
    notes = []
    if trace:
        with tracer.Tracer() as setup_trace:
            inputs = workloads.build_inputs(workload, seed)
    else:
        inputs, setup_times = repeated_setup(workload, seed)
        notes.append(f"setup_s samples at reference speed: {' '.join(f'{t:.4f}' for t in setup_times)}")
    ledger = Ledger(inputs.hosts)
    if trace:
        check_untraced(ledger, "traced set-up", setup_trace)
    run_pass = functools.partial(workloads.capture_to_report, inputs, config)

    walls, probes = timed_passes(ledger, run_pass, seconds)
    run_s = statistics.median(probe.normalize(walls, probes))
    wall_s = statistics.median(walls)
    notes.append(
        f"run_s: median of {len(walls)} passes at reference speed; wall median {wall_s:.4f}, "
        f"min {min(walls):.4f}, max {max(walls):.4f}; probe median {statistics.median(probes):.4f}"
    )

    if trace:
        with tracer.Tracer() as run_trace:
            with run_trace.span("bench.pass"):
                traced_s, outcome = timed(run_pass)
        ledger.record("traced pass", outcome)
        check_untraced(ledger, "traced pass", run_trace)
        metrics = run_trace.layer_metrics()
        metrics["synthgen.generate_s"] = (setup_trace.totals()[0]["synthgen.generate"], "s")
        metrics["trace.overhead_s"] = (traced_s - wall_s, "s")
        metrics["bench.run_wall_s"] = (wall_s, "s")
        metrics["bench.probe_s"] = (statistics.median(probes), "s")
    else:
        peak_mb = memory_pass(ledger, run_pass)
        check_untraced(ledger, "memory pass")
        report = ledger.report
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "peak_mem_mb": (peak_mb, "MiB"),
            "miner_f1": (checks.miner_f1(report) if report else 0.0, "ratio"),
            "state_recall": (checks.state_recall(report) if report else 0.0, "ratio"),
            "success_rate": ((ledger.attempted - ledger.failed) / ledger.attempted, "ratio"),
        }
    notes.insert(0, f"{inputs.n_flows} flows, {len(inputs.hosts)} hosts")
    notes.append(f"error_rate: {ledger.failed}/{ledger.attempted} passes failed")
    return Result(
        correct=ledger.failed == 0,
        attempted=ledger.attempted,
        failed=ledger.failed,
        metrics=metrics,
        digest=ledger.digest,
        notes=notes,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(f"bench: workload={args.workload} seed={args.seed} trace={args.trace}")
    for note in result.notes:
        print(f"bench: {note}")
    print(f"bench: report_sha256={result.digest}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(result.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
