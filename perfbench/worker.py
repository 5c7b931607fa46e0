"""Workload process: runs rounds of one workload's scenarios and times them.

Started by ``run.py`` with one BLAS/OpenMP thread and decoq's sources on the
path.  Each round loads every scenario file of the workload and runs it
through ``decoq.runner.run`` with ``workers = 1``, in a closed loop: a round
starts when the previous one ends, as long as a round of the median length
so far still ends within ``--seconds``.  Untraced rounds give the end-to-end times.  With ``--trace 1`` the
rounds alternate untraced and traced, so the tracing overhead is measured
in the same process.  Results go to ``result.json`` in the run directory.

    python3 perfbench/worker.py --rundir DIR --seconds S --trace 0|1 NAME...
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

import decoq.runner
import decoq.scenario

from workloads import ROW_FILES, ROW_PREFIX


def _count_rows(out_dir: str) -> int:
    rows = 0
    for name in os.listdir(out_dir):
        if name in ROW_FILES or (name.startswith(ROW_PREFIX) and name.endswith(".csv")):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                rows += sum(1 for _ in fh) - 1
    return rows


class Rounds:
    def __init__(self, rundir: str, names: list[str]):
        self.rundir = rundir
        self.names = names
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []
        self.reference: dict[str, dict[str, str]] = {}
        self.rows = 0
        self.bytes_written = 0

    def run_once(self, label: str) -> tuple[float, float]:
        """One round; returns (wall seconds, CPU seconds) and checks the outputs repeat."""
        self.bytes_written = 0
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        for name in self.names:
            out_dir = os.path.join(self.rundir, "out", name)
            self.attempted += 1
            try:
                scenario = decoq.scenario.load_scenario(os.path.join(self.rundir, "scenarios", name + ".cfg"))
                manifest = decoq.runner.run(scenario, out_dir=out_dir, workers=1)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                self.errors.append(f"{label} {name}: {type(exc).__name__}: {exc}")
                continue
            files = dict(manifest.files)
            self.bytes_written += sum(os.path.getsize(os.path.join(out_dir, f)) for f in files)
            first = self.reference.setdefault(name, files)
            if files != first:
                drift = sorted(f for f in set(files) | set(first) if files.get(f) != first.get(f))
                self.problems.append(f"{label} {name}: output differs from the first round in {drift}")
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if not self.rows:
            self.rows = sum(_count_rows(os.path.join(self.rundir, "out", n)) for n in self.names)
        return wall, cpu


def _room_for(durations: list[float], started: float, seconds: float) -> bool:
    """Whether one more round of the median length so far still ends within ``seconds``."""
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--rundir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("names", nargs="+")
    args = parser.parse_args(argv)

    rounds = Rounds(args.rundir, args.names)
    result: dict = {}
    started = time.perf_counter()
    if not args.trace:
        walls, cpus = [], []
        while not walls or _room_for(walls, started, args.seconds):
            wall, cpu = rounds.run_once(f"round {len(walls) + 1}")
            walls.append(wall)
            cpus.append(cpu)
        result.update(walls=walls, cpus=cpus)
    else:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        untraced, traced, per_round = [], [], []
        while not traced or _room_for([u + t for u, t in zip(untraced, traced)], started, args.seconds):
            untraced.append(rounds.run_once(f"untraced round {len(untraced) + 1}")[0])
            begin, tallies = len(tracer.spans), Counter(tracer.tallies)
            tracer.install()
            try:
                traced.append(rounds.run_once(f"traced round {len(traced) + 1}")[0])
            finally:
                tracer.uninstall()
            totals = tracer.layer_totals(begin, len(tracer.spans))
            per_round.append(layer_metrics(totals, tracer.tallies - tallies, rounds.bytes_written))
        tracer.write(os.path.join(args.rundir, "spans.csv"))
        layers = {}
        for key in per_round[0]:
            values = [r[key] for r in per_round]
            if isinstance(values[0], int):
                if len(set(values)) != 1:
                    rounds.problems.append(f"count {key} differs between traced rounds: {values}")
                layers[key] = values[0]
            else:
                layers[key] = statistics.median(values)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        result.update(walls=untraced, traced_walls=traced, layers=layers, missing=tracer.missing)

    result.update(
        attempted=rounds.attempted,
        failed=rounds.failed,
        errors=rounds.errors,
        problems=rounds.problems,
        rows_per_round=rounds.rows,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    with open(os.path.join(args.rundir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
