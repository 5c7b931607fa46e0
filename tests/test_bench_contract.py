"""One round of each benchmark workload, run through ``decoq.runner.run``, passes the benchmark's own checks.

The checks read what the benchmark takes from decoq: the environment draw
(``random_environment(...).couplings``, ``.h_env`` and ``.rho0.array``),
``verify_manifest``, and the columns and values of every output CSV.  The
benchmark's modules are imported from ``perfbench/`` as they are, the way
``perfbench/tests`` imports them.  The tracer's wrapped names are checked
against those decoq still has.
"""

import pathlib
import sys

import pytest

from decoq.runner import run
from decoq.scenario import load_scenario

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
import tracing  # noqa: E402
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


# The names the benchmark's tracer wraps that decoq no longer has, each as "span name:attribute".  A rename
# that adds to this set leaves a layer untraced without a word; fixing the tracer may only shrink it.
UNTRACED = {
    "dynamics.model:interaction_matrix",
    "dynamics.model:single_flip_hamiltonian",
    "dynamics.model:pair_flip_hamiltonian",
    "dynamics.model:operator_norm",
    "metrics.error_eval:error_direct",
    "codes.recovery_unitary:recovery_unitary",
    "metrics.periodic:periodic_correction_decay",
    "codes.recovery_channel:recovery_channel",
    "dynamics.evolve:evolve",
}


def test_tracer_misses_no_new_name():
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert set(tracer.missing) <= UNTRACED
    finally:
        tracer.uninstall()
