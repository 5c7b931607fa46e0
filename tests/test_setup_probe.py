"""The benchmark's set-up probe still runs against the package: it imports decoq names by path.

Those imports load the model modules alone: importing ``decoq`` does not pull in the rest of the package."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


def test_setup_probe_runs_on_the_shipped_scenarios():
    configs = sorted(str(p) for p in (ROOT / "scenarios").glob("*.cfg"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), *configs],
        cwd=ROOT, env=ENV, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    float(done.stdout.splitlines()[-1])


def test_model_imports_leave_metrics_runner_and_svg_unloaded():
    script = "import sys, decoq.codes, decoq.dynamics, decoq.scenario; print(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=ENV, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "decoq.scenario" in loaded
    assert not loaded & {"decoq.metrics", "decoq.runner", "decoq.svg"}
