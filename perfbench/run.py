#!/usr/bin/env python3
"""Benchmark for spinlab, run from the root of a source checkout:

    python3 perfbench/run.py --workload scan-grid|certify|tits \\
        --seed N --seconds S --trace 0|1

Every round of a workload runs in a fresh interpreter (perfbench/sample.py),
so no module cache of the package carries over from one round to the next.
Before the rounds come one untimed warm-up start, which fills the bytecode
cache, and a few set-up probes.  Rounds repeat until the next one would end
after S seconds.

--trace 0 prints the end-to-end metrics: wall_s (the sum over laps, cut at
every layer boundary, of each lap's fastest time across rounds), setup_s
(median over all starts) and peak_rss_mb (median over rounds).  --trace 1
alternates untraced and traced rounds and prints the per-layer metrics,
the medians over traced rounds.  The last line of standard output is one
JSON object; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("scan-grid", "certify", "tits")
SETUP_PROBES = 8
FIRST_START_TIMEOUT_S = 600      # compiles the bytecode of numpy, scipy and spinlab
SAMPLE_TIMEOUT_S = 120      # a hung round is killed well inside 180 s


class SampleFailed(RuntimeError):
    pass


def child_env() -> dict:
    """The same environment for every measured process: the checkout's
    sources first, bytecode kept under perfbench/out (nothing is written
    under src/), a fixed hash seed, and no SPINLAB_CACHE disk cache."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "SPINLAB_"))}
    env.update(PYTHONPATH=str(ROOT / "src"),
               PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
               PYTHONHASHSEED="0")
    return env


def run_sample(args, timeout=SAMPLE_TIMEOUT_S) -> dict:
    cmd = [sys.executable, str(HERE / "sample.py"), repr(time.monotonic()), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleFailed(f"{' '.join(args)} exited {proc.returncode}: {out.strip()[-400:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool):
    run_sample(["--probe"], timeout=FIRST_START_TIMEOUT_S)      # untimed warm-up
    start = time.monotonic()
    setups = [run_sample(["--probe"])["setup_s"] for _ in range(SETUP_PROBES)]
    rounds, durations = [], []
    while True:
        traced = trace and len(rounds) % 2 == 1
        args = ["--workload", workload, "--seed", str(seed), "--round", str(len(rounds))]
        t0 = time.monotonic()
        res = run_sample(args + ["--trace"] * traced)
        durations.append(time.monotonic() - t0)
        rounds.append((traced, res))
        print(f"round {len(rounds)}{' traced' if traced else ''} ({durations[-1]:.2f} s): "
              f"wall {res['wall_s']:.3f} s in {len(res['laps'])} laps, setup {res['setup_s']:.3f} s, "
              f"{res['attempted']} ops, {res['failed']} failed", file=sys.stderr)
        elapsed = time.monotonic() - start
        if len(rounds) >= 1 + trace and elapsed + statistics.median(durations) > seconds:
            break
    return setups, rounds


def fastest(rounds) -> float:
    """Sum over laps of each lap's fastest time across rounds.  Rounds do
    the same work, so their laps line up; if they do not, the fastest
    round."""
    if len({len(r["laps"]) for r in rounds}) != 1:
        print("rounds have different lap counts; using the fastest round", file=sys.stderr)
        return min(r["wall_s"] for r in rounds)
    return sum(min(times) for times in zip(*(r["laps"] for r in rounds)))


def summarize(setups, rounds, trace: bool) -> dict:
    plain = [r for traced, r in rounds if not traced]
    setups = setups + [r["setup_s"] for _, r in rounds]
    problems = [p for _, r in rounds for p in r["problems"]]
    if trace:
        traced = [r for t, r in rounds if t]
        names = traced[0]["layers"].keys()
        metrics = {n: (statistics.median(r["layers"][n] for r in traced), "s")
                   if n.endswith("_s") else
                   (statistics.median_low(r["layers"][n] for r in traced), "count")
                   for n in names}
        # as many untraced rounds as traced ones: a minimum over more rounds reads lower
        metrics["trace.overhead_s"] = (fastest(traced) - fastest(plain[:len(traced)]), "s")
    else:
        metrics = {
            "wall_s": (fastest(plain), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MiB"),
        }
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for _, r in rounds),
        "failed": sum(r["failed"] for _, r in rounds),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "spinlab" / "__init__.py").is_file():
        print(f"no spinlab sources under {ROOT / 'src'}: run from a spinlab checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # on SIGTERM unwind through run_sample, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        setups, rounds = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SampleFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    result = summarize(setups, rounds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{args.workload:10} {name:36} {m['value']:12.6f} {m['unit']}")
    print(f"{args.workload:10} attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
