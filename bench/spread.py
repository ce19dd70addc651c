"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads reference,pool_mesh --seeds 1-10 --out spread.json

Reads the command, ``run_seconds`` and the bounds from BENCHMARK.json and
runs each (workload, seed) pair in turn, one process at a time. For every
workload and metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median next to the metric's bound. ``--out`` also keeps every
value and each run's report sha256.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [
        *spec["command"],
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    digest = next(
        (l.split("=", 1)[1] for l in lines if l.startswith("bench: report_sha256=")), None
    )
    return {"result": json.loads(lines[-1]), "digest": digest, "wall_s": wall}


def summarize(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated names (default: all)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full summary JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for workload in names:
        runs = {}
        for seed in parse_seeds(args.seeds):
            runs[seed] = run_once(spec, workload, seed, args.trace)
            r = runs[seed]["result"]
            print(
                f"{workload} seed {seed}: correct={r['correct']} "
                f"failed={r['failed']}/{r['attempted']} wall={runs[seed]['wall_s']:.1f}s",
                flush=True,
            )
        metrics = {}
        for name in runs[next(iter(runs))]["result"]["metrics"]:
            values = [run["result"]["metrics"][name]["value"] for run in runs.values()]
            metrics[name] = {"values": values, **summarize(values, bounds.get(name))}
            s = metrics[name]
            limit = "" if s["bound"] is None else f"  bound {s['bound']}  {'ok' if s['spread'] <= s['bound'] / 3 else 'WIDE'}"
            print(
                f"  {name:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                f"  spread {s['spread']:.4f}{limit}"
            )
        summary[workload] = {
            "seeds": list(runs),
            "correct": all(run["result"]["correct"] for run in runs.values()),
            "report_sha256": {str(seed): run["digest"] for seed, run in runs.items()},
            "wall_s": [run["wall_s"] for run in runs.values()],
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
