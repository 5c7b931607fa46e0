"""The benchmark's set-up probe still runs against the package: it imports decoq names by path."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_setup_probe_runs_on_the_shipped_scenarios():
    configs = sorted(str(p) for p in (ROOT / "scenarios").glob("*.cfg"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), *configs],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    float(done.stdout.splitlines()[-1])
