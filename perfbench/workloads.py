"""The benchmark's workloads: the scenario files each one hands to decoq.

Each workload is a list of (name, scenario text) built from the benchmark
seed.  One round of a workload runs every scenario once, in order, through
``decoq.runner.run``.  The texts are kept here rather than read from the
repository's ``scenarios/`` so that the work measured stays fixed while the
shipped examples evolve.
"""

from __future__ import annotations

EXPONENT_LAW = """\
[scenario]
kind = scaling_sweep
code = five_qubit
seed = {seed}

[environment]
d_e = 2
coupling_bound = 1.0

[time_grid]
start = 5e-4
end = 8e-3
points = 14

[state_grid]
n_theta = 12
n_phi = 12
"""

WATCHDOG_BASELINE = """\
[scenario]
kind = scaling_sweep
code = identity
seed = {seed}

[environment]
d_e = 2
coupling_bound = 1.0

[time_grid]
start = 0.004
end = 0.12
points = 16

[state_grid]
n_theta = 12
n_phi = 12
"""

# d_e = 8 puts the joint space with the ancilla at 8 x 32 x 16 = 4096, the
# default cap; three times keep one round near the length of a sweep round.
WIDE_BOUND_CHECK = """\
[scenario]
kind = bound_check
code = five_qubit
seed = {seed}

[environment]
d_e = 8
coupling_bound = 1.0

[time_grid]
start = 2e-3
end = 1.6e-2
points = 3

[state_grid]
n_theta = 12
n_phi = 12
"""

PERIODIC_CORRECTION = """\
[scenario]
kind = periodic_correction
code = five_qubit
seed = {seed}

[environment]
d_e = 2
coupling_bound = 1.0

[correction]
dt = 0.12
cycles = 40
halvings = 2

[state]
theta = 1.2
phi = 0.5
"""

INTRO_EXAMPLE = """\
[scenario]
kind = intro_example
code = repetition-5

[time_grid]
start = 0.02
end = 0.2
points = 14

[single_flip]
omegas = 0.9, 1.1, 0.75, 1.3, 0.85

[pair_flip]
pairs = 1-2:0.8, 3-4:1.05, 2-3:0.65, 4-5:0.95, 1-3:0.7

[state]
theta = 1.2
phi = 0.5
"""

BOUNDS_TABLE = """\
[scenario]
kind = bounds_table

[bounds]
n_min = 1
n_max = 20
k_min = 0
k_max = 3
"""

# Environment seeds per round of `periodic`; four draws make a round long
# enough that its median is steady.
PERIODIC_SEEDS = 4


def scenarios(workload: str, seed: int) -> list[tuple[str, str]]:
    """(name, scenario text) for one round of ``workload`` at benchmark seed ``seed``."""
    if workload == "sweep":
        return [
            ("exponent_law", EXPONENT_LAW.format(seed=seed)),
            ("watchdog_baseline", WATCHDOG_BASELINE.format(seed=seed)),
        ]
    if workload == "wide_env":
        return [("wide_bound_check", WIDE_BOUND_CHECK.format(seed=seed))]
    if workload == "periodic":
        runs = [
            (f"periodic_correction_{i}", PERIODIC_CORRECTION.format(seed=PERIODIC_SEEDS * seed + i))
            for i in range(PERIODIC_SEEDS)
        ]
        return runs + [("intro_example", INTRO_EXAMPLE), ("bounds_table", BOUNDS_TABLE)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("sweep", "wide_env", "periodic")

# Result rows: one per t of a sweep, one per cycle (cycle 0 included) of a
# periodic decay.  Counted from these files after a round.
ROW_FILES = ("sweep.csv", "bound_check.csv", "single_flip.csv", "pair_flip.csv")
ROW_PREFIX = "periodic_"
