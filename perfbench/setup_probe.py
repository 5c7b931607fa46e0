"""One set-up from a fresh interpreter, timed by the process that starts it.

Imports decoq (the package import loads every module), loads the given
scenario files, and builds the code, the environment, the interaction and the
free Hamiltonian of the first scenario that has an environment.  It then prints ``time.monotonic()``, which the
parent subtracts from its own reading taken before starting this process.

    python3 perfbench/setup_probe.py FILE.cfg...
"""

import sys
import time

from decoq.codes import build_code
from decoq.dynamics import build_noncontact, free_hamiltonian, random_environment
from decoq.scenario import load_scenario

scenarios = [load_scenario(path) for path in sys.argv[1:]]
first = next(s for s in scenarios if s.kind in ("scaling_sweep", "bound_check", "periodic_correction"))
code = build_code(first.code)
env = random_environment(code.n, first.env_dim, first.coupling_bound, first.beta, first.seed)
build_noncontact(env)
free_hamiltonian(env)
print(repr(time.monotonic()))
