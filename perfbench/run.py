"""Benchmark of decoq, end to end and per layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

runs from the root of a checkout.  It writes the workload's scenario files
for the seed, times set-up in fresh interpreters, starts ``worker.py`` with
one BLAS/OpenMP thread to run rounds of the workload for ``--seconds``,
checks the outputs against ``oracle``, and prints one line per metric and,
as its last line, a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones from traced rounds.  ``--workload all`` runs every
workload in turn and prefixes each metric with the workload's name.
See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from workloads import WORKLOADS, scenarios  # noqa: E402

SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 150
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "points_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


def _setup_seconds(files: list[str], env: dict[str, str]) -> list[float]:
    """Fresh-interpreter set-up times; the first, which may compile bytecode, is dropped."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), *files],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.split()[-1]) - start)
    return times[1:]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("bytes_written") else "count"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import checks

    rundir = os.path.join(HERE, "runs", workload)
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(os.path.join(rundir, "scenarios"))
    names, files = [], []
    for name, text in scenarios(workload, seed):
        path = os.path.join(rundir, "scenarios", name + ".cfg")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        names.append(name)
        files.append(path)

    env = _child_env()
    setup = _setup_seconds(files, env) if not trace else []
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--rundir", rundir,
         "--seconds", str(seconds), "--trace", str(trace), *names],
        env=env, timeout=WORKER_TIMEOUT_S, check=True,
    )
    with open(os.path.join(rundir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)

    problems = list(result["problems"])
    if result["failed"] < result["attempted"]:
        problems += checks.check(workload, rundir, seed)
    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in result["layers"].items()}
    else:
        wall = statistics.median(result["walls"])
        values = {
            "wall_s": wall,
            "points_per_s": result["rows_per_round"] / wall,
            "cpu_s": statistics.median(result["cpus"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "rounds": len(result["walls"]) + len(result.get("traced_walls", [])),
        "problems": problems,
        "errors": result["errors"],
        "missing": result.get("missing", []),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "decoq", "__init__.py")):
        print(f"no decoq sources under {SRC}; run from the root of a decoq checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in selected}
    for workload, res in results.items():
        for name, m in res["metrics"].items():
            print(f"{workload:9s} {name:30s} {m['value']:>16.6f} {m['unit']}")
        print(f"{workload:9s} rounds {res['rounds']}, attempted {res['attempted']}, failed {res['failed']}")
        for line in res["errors"] + res["problems"]:
            print(f"{workload:9s} {line}")
        if res["missing"]:
            print(f"{workload:9s} not traced (absent in this decoq): {', '.join(res['missing'])}")

    if len(results) == 1:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
