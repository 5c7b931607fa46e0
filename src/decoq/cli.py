"""Command line entry point.

Exit codes: 0 success, 2 configuration problems (including a file that is
not UTF-8 text, an output directory that is empty, that the manifest's
scenario text could not carry back, or that cannot be created or written, and
a nan or infinite number), 3 sizing guard (environment x
register dimension above max_dim, or a count over its budget in
``decoq.scenario``) or running out of memory, 4 validation, fit,
linear-algebra or floating-point (overflow, invalid value) failures at run
time.

CSV columns by file:
    sweep.csv                t, E, bound, argmax_theta, argmax_phi
    bound_check.csv          t, E, bound, stab_bound, ok
    threshold.csv            coupling_bound, x0, threshold_time
    single_flip.csv          t, E
    pair_flip.csv            t, E
    fit_summary.csv          scenario, exponent, log_coefficient,
                             window_min, window_max, residual
    periodic_<i>_<tag>.csv   cycle, total_t, fidelity   (tag: on | off)
    rates.csv                dt, corrected, rate
    bounds.csv               n, k, hamming_ok, gv_ok

Floats are %.16e, line endings LF; manifest.json lists a sha256 per file.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .codes import asymptotic_x0
from .errors import ConfigError, FitError, ShapeError, SizingError, ValidationError
from .runner import BOUNDS_HEADER, bounds_rows, format_csv, run
from .scenario import Scenario, load_scenario


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    out_dir = scenario.out if args.out is None else args.out
    try:
        manifest = run(scenario, out_dir=args.out, seed=args.seed, plots=False if args.no_svg else None)
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or out_dir}: {exc.strerror or exc}") from None
    print(f"wrote {len(manifest.files)} files to {out_dir} (seed {manifest.seed})")
    for warning in manifest.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_bounds(args) -> int:
    table = Scenario(kind="bounds_table", n_max=args.n_max, k_max=args.k_max)  # validates and sizes the span
    sys.stdout.write(format_csv(BOUNDS_HEADER, bounds_rows(table.n_min, table.n_max, table.k_min, table.k_max)))
    return 0


def _cmd_x0(args) -> int:
    print(repr(asymptotic_x0()))  # shortest decimal that reads back as the converged double
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="decoq", description="desk-scale decoherence and recovery experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to a scenario config")
    p_run.add_argument("--out", default=None, help="output directory (overrides the scenario)")
    p_run.add_argument("--seed", type=int, default=None, help="seed override")
    p_run.add_argument("--no-svg", action="store_true", help="skip plot emission")
    p_run.set_defaults(func=_cmd_run)

    p_bounds = sub.add_parser("bounds", help="print the packing and covering feasibility table")
    p_bounds.add_argument("--k-max", type=int, default=3)
    p_bounds.add_argument("--n-max", type=int, default=20)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_x0 = sub.add_parser("x0", help="print the asymptotic rate constant")
    p_x0.set_defaults(func=_cmd_x0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SizingError as exc:
        print(f"sizing error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"sizing error: out of memory: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ShapeError, FitError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
