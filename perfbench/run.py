"""Benchmark driver: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs passes of one workload, each in a fresh interpreter (``worker.py``)
started from this process, one at a time.  Passes repeat while another one,
a quarter longer than the longest so far, would end within ``--seconds``;
there is always at least one.
Every pass's output is checked against the independent reference outside
the timed region.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
passes: ``wall_s``, ``setup_s`` (interpreter start, ``import ecsquares`` and
input generation, from set-up-only starts after the passes) and
``peak_rss_mib``.  With ``--trace 1`` passes alternate untraced and traced;
the metrics are the per-layer ones from the traced passes and the tracing
overhead against the untraced ``wall_s``.

The host's CPU share for this machine swings by up to 1.7x over seconds to
minutes, so the times are given at a nominal host speed: each pass's wall
time is scaled by ``NOMINAL_UNIT_S`` over the mean time of the fixed work
slice the worker timed during that pass (``worker.HostSampler``), and each
set-up time by the slices a set-up-only worker times right after set-up.
The raw times go to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 11         # set-up-only starts per run, for the setup_s median
NOMINAL_UNIT_S = 1.0e-3    # about worker.host_unit's mean time during a pass on a 2-core host
RUN_LIMIT_S = 170          # every run must end within 180 s
ROUND_MARGIN = 1.25        # the next pass may be this much slower than the slowest so far


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (no program, a worker died)."""


def start_worker(workload: str, seed: int, *, trace: bool = False,
                 setup_only: bool = False, timeout: float) -> tuple[dict, float]:
    """Run one worker; return its JSON result and its set-up seconds."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--out-dir", str(OUT_DIR / workload)]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result, result["first_call"] - spawned


def read_outputs(workload: str, seed: int, exits: list) -> list[checks.Output]:
    outputs = []
    for command, code in zip(workloads.commands(workload, seed), exits, strict=True):
        base = OUT_DIR / workload / command.name
        outputs.append(checks.Output(
            command, code,
            base.with_suffix(".out").read_text(encoding="utf-8"),
            base.with_suffix(".err").read_text(encoding="utf-8")))
    return outputs


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    begin = time.perf_counter()
    expect = checks.Expectations(workload, seed)
    verdict = checks.Verdict()
    walls = {False: [], True: []}
    raw_walls, units = [], []
    rss, setups, raw_setups, layers = [], [], [], []
    modes = (False, True) if trace else (False,)
    longest_round = 0.0
    # Whole rounds only, so every run attempts the same operations per round.
    while (not walls[False]
           or time.perf_counter() - begin + ROUND_MARGIN * longest_round <= seconds):
        round_start = time.perf_counter()
        for traced in modes:
            remaining = RUN_LIMIT_S - (time.perf_counter() - begin)
            result, _ = start_worker(workload, seed, trace=traced, timeout=remaining)
            verdict.merge(checks.check_pass(expect, read_outputs(workload, seed, result["exits"])))
            walls[traced].append(result["wall_s"] * NOMINAL_UNIT_S / result["host_unit_s"])
            raw_walls.append(result["wall_s"])
            units.append(result["host_unit_s"])
            if traced:
                layers.append(tracing.layer_metrics(result["spans"], result["counters"]))
            else:
                rss.append(result["peak_rss_mib"])
        longest_round = max(longest_round, time.perf_counter() - round_start)
    if not trace:
        for _ in range(SETUP_SAMPLES):
            result, setup = start_worker(workload, seed, setup_only=True, timeout=30)
            raw_setups.append(setup)
            setups.append(setup * NOMINAL_UNIT_S / result["host_unit_s"])

    if trace:
        metrics = {name: {"value": statistics.median(m[name][0] for m in layers),
                          "unit": unit}
                   for name, (_, unit) in layers[0].items()}
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
        metrics["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(rss), "unit": "MiB"},
        }
    for line in verdict.errors + verdict.failures:
        print(f"check: {line}", file=sys.stderr)
    print(f"{workload}: {len(raw_walls)} passes, walls "
          f"{[round(w, 3) for w in walls[False]]} traced {[round(w, 3) for w in walls[True]]}; "
          f"raw walls {[round(w, 3) for w in raw_walls]}, "
          f"host units {[round(u * 1e3, 3) for u in units]} ms, "
          f"raw setups {[round(s, 3) for s in raw_setups]} s", file=sys.stderr)
    return {"correct": not verdict.errors, "attempted": verdict.attempted,
            "failed": verdict.failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
