"""One pass of a workload in a fresh interpreter.

Run by ``run.py``, never imported by it.  The worker imports ``ecsquares``
from the checkout's ``src``, makes the workload's inputs, and runs its CLI
commands in this one process through ``ecsquares.cli.main`` with stdout and
stderr captured to files.  It prints one JSON line: the monotonic time of the
first timed call (so the parent can measure set-up across processes), the
wall time of the commands, the host-speed samples taken during them, the
process's own peak RSS, each command's exit code, and with ``--trace`` the
span table.

The field contexts, realization tables and embeddings that ``ecsquares``
caches live in this process and die with it, as they do for a CLI user.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SAMPLE_PERIOD_S = 0.05     # one host-speed sample per 50 ms of wall time
SETUP_PROBE_UNITS = 20     # host-speed samples after a set-up-only start


def host_unit() -> int:
    """A fixed slice of work, about 1 ms: a big-integer Lucas recurrence.

    Of the slices tried, its time followed the passes of all three
    workloads most closely as the host's load changed; a loop on small
    integers followed the oracle's passes less well.
    """
    for _ in range(4):
        x, y = 2, 11
        for _ in range(700):
            x, y = y, 11 * y - 47 * x
    return y


class HostSampler:
    """Times ``host_unit`` every ``SAMPLE_PERIOD_S`` of wall time, in this process.

    The host gives this machine a CPU share that changes from second to
    second, and the program cannot see it: a slice of fixed work, timed
    between the program's own bytecodes, measures that share over exactly
    the interval the program runs.  ``run.py`` scales the pass's wall time
    by it.  A SIGALRM handler runs on the main thread, so this starts no
    thread and no process.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, *_):
        start = time.perf_counter()
        host_unit()
        self.samples.append(time.perf_counter() - start)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def import_program():
    """``ecsquares.cli`` from the checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC_DIR))
    import ecsquares.cli

    if Path(ecsquares.__file__).resolve().parent != SRC_DIR / "ecsquares":
        raise ImportError(f"ecsquares imported from {ecsquares.__file__}, not {SRC_DIR}")
    return ecsquares.cli


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli = import_program()
    import workloads

    commands = workloads.commands(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    first_call = time.monotonic()
    if args.setup_only:
        # The host's speed right after set-up, to scale this set-up time by:
        # its CPU share holds for about a second at a time.
        sampler = HostSampler()
        for _ in range(SETUP_PROBE_UNITS):
            sampler.sample()
        print(json.dumps({"first_call": first_call, "host_unit_s": sampler.mean()}))
        return 0

    args.out_dir.mkdir(parents=True, exist_ok=True)
    exits = []
    start = time.perf_counter()
    with HostSampler() as sampler:
        for command in commands:
            out_path = args.out_dir / f"{command.name}.out"
            err_path = args.out_dir / f"{command.name}.err"
            with open(out_path, "w", encoding="utf-8") as out, \
                    open(err_path, "w", encoding="utf-8") as err, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    exits.append(cli.main(list(command.argv)))
                except Exception:
                    traceback.print_exc()
                    exits.append(None)
    # The program's share of the pass: the samples' own time is taken out.
    wall = time.perf_counter() - start - sum(sampler.samples)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"first_call": first_call, "wall_s": wall,
              "host_unit_s": sampler.mean(),
              "peak_rss_mib": peak_rss_kib / 1024, "exits": exits}
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.span_table()
        result["counters"] = dict(tracer.counters)
        (args.out_dir / "trace.json").write_text(json.dumps(result["spans"], indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
