"""Write the output tree that two versions of decoq are compared on.

    python scripts/snapshot_outputs.py OUT

Runs, with plots on, the six shipped scenarios (``scenarios/*.cfg``) at seed
42 into ``OUT/<name>/``, every scenario text of the three benchmark
workloads at benchmark seed 131 (``perfbench/workloads.scenarios``) into
``OUT/<workload>/<name>/``, and ``CONTACT_SWEEP`` into
``OUT/contact_sweep/``.  decoq is imported from this checkout's ``src``.
Take one tree per checkout, then compare the two with
``python scripts/compare_outputs.py OLD NEW``.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from decoq.runner import run  # noqa: E402
from decoq.scenario import load_scenario, parse_scenario  # noqa: E402
import workloads  # noqa: E402

SHIPPED_SEED = 42
WORKLOAD_SEED = 131

# A scaling_sweep under a contact interaction, pair flips on repetition-5 (order 1, exponent 4): no shipped
# scenario or workload text builds a contact interaction outside intro_example.
CONTACT_SWEEP = """\
[scenario]
kind = scaling_sweep
code = repetition-5

[interaction]
kind = contact
terms = 0.8:x1 x2, 0.7:x1 x3, 0.65:x2 x3, 1.05:x3 x4, 0.95:x4 x5

[time_grid]
start = 1e-3
end = 2e-2
points = 12
"""


def snapshot(out: str) -> None:
    """Run every shipped scenario, every workload text and the contact sweep into ``out``."""
    folder = os.path.join(ROOT, "scenarios")
    for name in sorted(os.listdir(folder)):
        if name.endswith(".cfg"):
            scenario = load_scenario(os.path.join(folder, name))
            run(scenario, out_dir=os.path.join(out, name[: -len(".cfg")]), seed=SHIPPED_SEED, plots=True)
    for workload in workloads.WORKLOADS:
        for name, text in workloads.scenarios(workload, WORKLOAD_SEED):
            run(parse_scenario(text), out_dir=os.path.join(out, workload, name), plots=True)
    run(parse_scenario(CONTACT_SWEEP), out_dir=os.path.join(out, "contact_sweep"), plots=True)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/snapshot_outputs.py OUT (an output directory)", file=sys.stderr)
        return 2
    snapshot(argv[0])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
