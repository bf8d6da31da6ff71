"""One round of one workload, run inside a fresh measured process.

Prints one JSON line: set-up seconds, the wall seconds of the timed
operations, peak RSS at the end of the last timed operation, the
operation counts, any failed checks, and with --trace the layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from array import array
from pathlib import Path

import spinlab

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


class Clock:
    """Context manager timing one operation; the checks between
    operations are neither timed nor traced.  `laps` cuts the timed time
    into consecutive segments, split at every layer boundary (spans.py)."""

    def __init__(self):
        self.laps = array("d")      # compact: a round has up to ~50,000 laps
        self.peak_rss_mb = 0.0
        self._start = None

    @property
    def running(self) -> bool:
        return self._start is not None

    @property
    def total(self) -> float:
        return sum(self.laps)

    def split(self) -> None:
        now = time.perf_counter()
        self.laps.append(now - self._start)
        self._start = now

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.split()
        self._start = None
        # ru_maxrss is in KiB on Linux
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return False


def main(launched: float, ready: float, argv) -> int:
    ap = argparse.ArgumentParser(prog="sample.py")
    ap.add_argument("--probe", action="store_true", help="measure set-up only")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    if Path(spinlab.__file__).resolve().parent != SRC / "spinlab":
        print(f"spinlab was imported from {spinlab.__file__}, not from {SRC}")
        return 2
    result = {"setup_s": ready - launched}
    if args.probe:
        print(json.dumps(result))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    clock = Clock()
    tracer = Tracer(clock, record=args.trace)
    tracer.install()
    scratch = OUT / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    attempted, failed, problems = workloads.WORKLOADS[args.workload](clock, args.seed, scratch)
    result.update(wall_s=clock.total, laps=clock.laps.tolist(), peak_rss_mb=clock.peak_rss_mb,
                  attempted=attempted, failed=failed, problems=problems)
    if args.trace:
        result["layers"] = tracer.layer_metrics(clock.total)
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(spans_dir / f"{args.workload}-seed{args.seed}-round{args.round}.jsonl")
    print(json.dumps(result))
    return 0
