"""Output checks of each workload against the reference computations in ``oracle``.

``check(workload, rundir, seed)`` reads the CSVs that the last round left in
``rundir/out`` and returns a list of problems; an empty list means every
check passed.  The thresholds below are fixed before any run:

* the E at a reported (theta, phi) agrees with the reference to POINT_RTOL;
* the reported supremum is at most the exact one (plus SUP_SLACK) and at
  least (1 - SUP_GAP) of it.  SUP_GAP is wide because decoq takes the maximum
  over a 12 x 12 grid plus a local refinement, a lower bound that fell short
  by up to 4.9e-3 over 740 environment seeds;
* the fitted exponents lie in EXPONENTS.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np
from scipy import linalg, stats

import oracle
from workloads import PERIODIC_SEEDS

POINT_RTOL = 1e-8
SUP_SLACK = 1e-8
SUP_GAP = 2e-2
ENVELOPE_RTOL = 1e-9
FIDELITY_ATOL = 1e-10
EXPONENTS = {
    "scaling_sweep:five_qubit": (4.0, 0.1),
    "scaling_sweep:identity": (2.0, 0.05),
    "single_flip": (6.0, 0.2),
    "pair_flip": (4.0, 0.2),
}


def _rows(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class _Report:
    def __init__(self):
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _model(code_name: str, env_dim: int, seed: int):
    """Reference code, joint Hamiltonian, ||V|| and decoq's environment draw for the seed."""
    from decoq.dynamics import random_environment  # the environment draw is the model's input

    code = oracle.make_code(code_name)
    env = random_environment(code.n, env_dim, 1.0, 0.0, seed)
    v = oracle.interaction(env.couplings, code.n)
    h = v + np.kron(env.h_env, np.eye(2 ** code.n))
    return code, h, float(linalg.norm(v, 2)), env


def _check_manifest(report: _Report, out_dir: str) -> None:
    from decoq.runner import verify_manifest

    report.expect(verify_manifest(out_dir) == [], f"{out_dir}: manifest hashes drifted")


def _check_fit(report: _Report, out_dir: str) -> None:
    for row in _rows(os.path.join(out_dir, "fit_summary.csv")):
        want, tol = EXPONENTS[row["scenario"]]
        got = float(row["exponent"])
        report.expect(abs(got - want) <= tol, f"{out_dir}: {row['scenario']} exponent {got} not within {want} +- {tol}")


def _check_sweep_rows(report, label, rows, code, h, v_norm, rho_env, with_argmax: bool) -> None:
    for row in rows:
        t, e, bound = float(row["t"]), float(row["E"]), float(row["bound"])
        where = f"{label} t={t:.6g}"
        report.expect(0.0 <= e <= 1.0, f"{where}: E = {e} outside [0, 1]")
        want_bound = oracle.error_bound(t, code.k, v_norm)
        report.expect(_close(bound, want_bound, ENVELOPE_RTOL), f"{where}: envelope {bound} != {want_bound}")
        report.expect(want_bound >= 1.0 or e <= want_bound, f"{where}: E = {e} above the envelope {want_bound}")
        sup, _, fit_residual, evaluate = oracle.code_error_supremum(code, h, rho_env, t)
        report.expect(fit_residual <= 1e-7, f"{where}: reference quadratic fits only to {fit_residual:.2e}")
        report.expect(e <= sup * (1.0 + SUP_SLACK), f"{where}: E = {e} above the exact supremum {sup}")
        report.expect(e >= sup * (1.0 - SUP_GAP), f"{where}: E = {e} more than {SUP_GAP} below the supremum {sup}")
        if with_argmax:
            at = evaluate(float(row["argmax_theta"]), float(row["argmax_phi"]))
            report.expect(_close(e, at, POINT_RTOL), f"{where}: E = {e} but the reference gives {at} at its argmax")


def _check_sweep(report: _Report, rundir: str, seed: int) -> None:
    for name, code_name in (("exponent_law", "five_qubit"), ("watchdog_baseline", "identity")):
        out_dir = os.path.join(rundir, "out", name)
        code, h, v_norm, env = _model(code_name, 2, seed)
        rows = _rows(os.path.join(out_dir, "sweep.csv"))
        report.expect(len(rows) == (14 if code_name == "five_qubit" else 16), f"{name}: {len(rows)} sweep rows")
        _check_sweep_rows(report, name, rows, code, h, v_norm, env.rho0.array, with_argmax=True)
        _check_fit(report, out_dir)
        _check_manifest(report, out_dir)


def _check_wide_env(report: _Report, rundir: str, seed: int) -> None:
    out_dir = os.path.join(rundir, "out", "wide_bound_check")
    code, h, v_norm, env = _model("five_qubit", 8, seed)
    rows = _rows(os.path.join(out_dir, "bound_check.csv"))
    report.expect(len(rows) == 3, f"wide_bound_check: {len(rows)} rows")
    _check_sweep_rows(report, "wide_bound_check", rows, code, h, v_norm, env.rho0.array, with_argmax=False)
    x0 = oracle.asymptotic_x0()
    coupling = max(float(linalg.norm(h_l, 2)) for triple in env.couplings for h_l in triple)
    for row in rows:
        t = float(row["t"])
        report.expect(row["ok"] == "true", f"wide_bound_check t={t:.6g}: row not ok")
        want = oracle.stabilization_bound(t, coupling, code.n, x0)
        report.expect(_close(float(row["stab_bound"]), want, ENVELOPE_RTOL), f"t={t:.6g}: stab_bound != {want}")
    (threshold,) = _rows(os.path.join(out_dir, "threshold.csv"))
    got = float(threshold["coupling_bound"])
    report.expect(_close(got, coupling, ENVELOPE_RTOL), f"threshold coupling {got} != {coupling}")
    report.expect(_close(float(threshold["x0"]), x0, ENVELOPE_RTOL), f"x0 {threshold['x0']} != {x0}")
    want = x0 / (coupling * math.e)
    report.expect(_close(float(threshold["threshold_time"]), want, ENVELOPE_RTOL), f"threshold != {want}")
    _check_manifest(report, out_dir)


def _check_periodic_run(report: _Report, out_dir: str, env_seed: int) -> None:
    code, h, _, env = _model("five_qubit", 2, env_seed)
    psi_l = oracle.bloch_amplitudes(1.2, 0.5)
    rates = _rows(os.path.join(out_dir, "rates.csv"))
    report.expect(len(rates) == 6, f"{out_dir}: {len(rates)} rate rows")
    by_dt: dict[float, dict[bool, float]] = {}
    for level in range(3):
        dt = 0.12 / 2 ** level
        for tag, corrected in (("on", True), ("off", False)):
            rows = _rows(os.path.join(out_dir, f"periodic_{level}_{tag}.csv"))
            want = [1.0] + oracle.periodic_fidelities(code, h, env.rho0.array, psi_l, dt, 40, corrected)
            got = [float(r["fidelity"]) for r in rows]
            report.expect(
                len(got) == len(want) and max(abs(a - b) for a, b in zip(got, want)) <= FIDELITY_ATOL,
                f"{out_dir} level {level} {tag}: fidelities differ from the reference",
            )
            times = [m * dt for m in range(len(want))]
            rate = -stats.linregress(times, np.log(want)).slope
            (row,) = [r for r in rates if float(r["dt"]) == dt and r["corrected"] == ("true" if corrected else "false")]
            report.expect(_close(float(row["rate"]), rate, 1e-6), f"{out_dir} dt={dt}: rate {row['rate']} != {rate}")
            by_dt.setdefault(dt, {})[corrected] = float(row["rate"])
    dts = sorted(by_dt, reverse=True)
    for dt in dts:
        report.expect(by_dt[dt][True] < by_dt[dt][False], f"{out_dir} dt={dt}: correction does not lower the rate")
    corrected = [by_dt[dt][True] for dt in dts]
    report.expect(all(b < a for a, b in zip(corrected, corrected[1:])), f"{out_dir}: corrected rate does not fall as dt halves")
    _check_manifest(report, out_dir)


def _check_intro(report: _Report, out_dir: str) -> None:
    code = oracle.make_code("repetition-5")
    omegas = (0.9, 1.1, 0.75, 1.3, 0.85)
    pairs = {(1, 2): 0.8, (3, 4): 1.05, (2, 3): 0.65, (4, 5): 0.95, (1, 3): 0.7}
    single = sum(w * oracle.pauli_word("I" * (l - 1) + "X" + "I" * (5 - l)) for l, w in enumerate(omegas, start=1))
    pair = sum(
        w * oracle.pauli_word("".join("X" if q in (k, l) else "I" for q in range(1, 6))) for (k, l), w in pairs.items()
    )
    for label, h in (("single_flip", single), ("pair_flip", pair)):
        for row in _rows(os.path.join(out_dir, f"{label}.csv")):
            t, e = float(row["t"]), float(row["E"])
            want = oracle.ErrorAtTime(code, h, np.eye(1), t)(1.2, 0.5)
            report.expect(_close(e, want, POINT_RTOL), f"intro {label} t={t:.6g}: E = {e} != {want}")
    _check_fit(report, out_dir)
    _check_manifest(report, out_dir)


def _check_bounds(report: _Report, out_dir: str) -> None:
    rows = _rows(os.path.join(out_dir, "bounds.csv"))
    want = [(n, k) for n in range(1, 21) for k in range(0, min(3, n) + 1)]
    report.expect([(int(r["n"]), int(r["k"])) for r in rows] == want, "bounds table rows differ from n 1..20, k 0..3")
    for r in rows:
        hamming, gv = oracle.bounds_row(int(r["n"]), int(r["k"]))
        got = (r["hamming_ok"] == "true", r["gv_ok"] == "true")
        report.expect(got == (hamming, gv), f"bounds n={r['n']} k={r['k']}: {got} != {(hamming, gv)}")
    _check_manifest(report, out_dir)


def _check_periodic(report: _Report, rundir: str, seed: int) -> None:
    for i in range(PERIODIC_SEEDS):
        _check_periodic_run(report, os.path.join(rundir, "out", f"periodic_correction_{i}"), PERIODIC_SEEDS * seed + i)
    _check_intro(report, os.path.join(rundir, "out", "intro_example"))
    _check_bounds(report, os.path.join(rundir, "out", "bounds_table"))


def check(workload: str, rundir: str, seed: int) -> list[str]:
    report = _Report()
    {"sweep": _check_sweep, "wide_env": _check_wide_env, "periodic": _check_periodic}[workload](report, rundir, seed)
    return report.problems
