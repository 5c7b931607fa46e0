"""One round of each benchmark workload, run through ``decoq.runner.run``, passes the benchmark's own checks.

The checks read what the benchmark takes from decoq: the environment draw
(``random_environment(...).couplings``, ``.h_env`` and ``.rho0.array``),
``verify_manifest``, and the columns and values of every output CSV.  The
benchmark's modules are imported from ``perfbench/`` as they are, the way
``perfbench/tests`` imports them.
"""

import pathlib
import sys

import pytest

from decoq.runner import run
from decoq.scenario import load_scenario

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 1  # the default --seed of perfbench/run.py


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_round_passes_the_benchmark_checks(tmp_path, workload):
    (tmp_path / "scenarios").mkdir()
    for name, text in workloads.scenarios(workload, SEED):
        cfg = tmp_path / "scenarios" / f"{name}.cfg"
        cfg.write_text(text, encoding="utf-8")
        run(load_scenario(str(cfg)), out_dir=str(tmp_path / "out" / name), workers=1)
    assert checks.check(workload, str(tmp_path), SEED) == []
