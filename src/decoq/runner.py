"""Scenario execution: sweeps, tables, plots, and a hashed run manifest.

Every run writes CSV tables with LF line endings and floats at 17 significant
digits, so identical inputs produce byte-identical files.  The manifest
records the canonical scenario, the effective seed, the package version, and
a sha256 per output file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .errors import ShapeError, ValidationError
from .scenario import Scenario, serialize_scenario
from .codes import asymptotic_x0, build_code, hamming_gv_check
from .dynamics import (
    build_noncontact,
    contact_hamiltonian,
    free_hamiltonian,
    random_environment,
    trivial_environment,
)
from .metrics import (
    _bloch_pair,
    _CorrectionPipeline,
    _sphere_suprema,
    _state_error,
    error_bound,
    fit_power_law,
    stabilization_bound,
    threshold_time,
)
from .svg import AxesSpec, emit_svg

BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class RunManifest:
    scenario: str
    seed: int
    version: str
    duration_s: float
    files: dict[str, str]
    warnings: tuple[str, ...]


def _bool_cell(x) -> str:
    return "true" if x else "false"


_FLOAT_CELL = "{:.16e}".format


def _cell_format(t: type):
    """The formatter of a CSV cell of type ``t``; bool is tested before int, which it subclasses."""
    if issubclass(t, (bool, np.bool_)):
        return _bool_cell
    if issubclass(t, (int, np.integer)):
        return str
    if issubclass(t, (float, np.floating)):
        return _FLOAT_CELL
    return str


def _cell(x) -> str:
    return _cell_format(type(x))(x)


def _column_cells(column: tuple) -> list[str]:
    """The cells of one column, with one formatter for a column whose cell types share one and ``_cell`` otherwise."""
    formats = {_cell_format(t) for t in set(map(type, column))}
    return list(map(formats.pop() if len(formats) == 1 else _cell, column))


def format_csv(header: list[str], rows) -> str:
    """CSV text with a header line, LF endings and the fixed cell formats, built a column at a time."""
    rows = list(rows)
    widths = set(map(len, rows)) - {len(header)}
    if widths:
        raise ShapeError(f"CSV rows of {sorted(widths)} cells for {len(header)} columns")
    columns = [_column_cells(column) for column in zip(*rows)]
    lines = [",".join(header), *map(",".join, zip(*columns))]
    return "\n".join(lines) + "\n"


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _materialize(scenario: Scenario):
    """Build the code, the environment, the interaction V and the joint Hamiltonian H = h_env (x) 1 + V."""
    code = build_code(scenario.code)
    if scenario.interaction_kind == "contact":
        env = trivial_environment(code.n)
        terms = []
        for omega, factors in scenario.contact_terms:
            string = [0] * code.n
            for axis, pos in factors:
                string[pos - 1] = axis
            terms.append((omega, string))
        v = contact_hamiltonian(terms, code.n)
    else:
        env = random_environment(code.n, scenario.env_dim, scenario.coupling_bound, scenario.beta, scenario.seed)
        v = build_noncontact(env)
    return code, env, v, free_hamiltonian(env) + v


def _overwrite(path: str, data: bytes) -> None:
    """Make ``data`` the whole content of ``path``, written in place and then cut to length.

    Like ``open(path, "wb")`` it creates the file with the umask's permissions
    or rewrites the existing inode (so links are written through), and raises
    its ``OSError``.  It does not truncate to zero first: ext4 (with its
    default ``auto_da_alloc``) flushes a file cut to zero when it is closed,
    which costs a rerun far more than the write.  ``O_BINARY``, which only
    Windows has, keeps LF endings as written there.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


class _Outputs:
    """Writes each output file once and keeps the sha256 of the bytes written, and the warnings, for the manifest."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.files: dict[str, str] = {}
        self.warnings: list[str] = []

    def write(self, name: str, text: str) -> None:
        data = text.encode("utf-8")
        _overwrite(os.path.join(self.out_dir, name), data)
        self.files[name] = hashlib.sha256(data).hexdigest()

    def csv(self, name: str, header: list[str], rows) -> None:
        self.write(name, format_csv(header, rows))

    def svg(self, name: str, series, axes: AxesSpec) -> None:
        text, dropped = emit_svg(series, axes)
        self.write(name, text)
        if dropped:
            self.warnings.append(f"{name}: dropped {dropped} non-positive points on log axes")


def _fit_rows(label: str, samples) -> list[tuple]:
    fit = fit_power_law(samples)
    return [(label, fit.exponent, fit.log_coefficient, fit.window[0], fit.window[1], fit.max_residual)]


_FIT_HEADER = ["scenario", "exponent", "log_coefficient", "window_min", "window_max", "residual"]


def _run_scaling(scenario: Scenario, out: _Outputs, check_bounds: bool) -> None:
    code, env, v, h = _materialize(scenario)
    pipeline = _CorrectionPipeline(code, env, h)
    ts = scenario.times().tolist()
    sups = _sphere_suprema(pipeline.covariances(ts))
    points = [(t, sup.value, sup.theta, sup.phi) for t, sup in zip(ts, sups)]
    v_norm = float(np.max(np.abs(np.linalg.eigvalsh(v))))  # V is checked Hermitian when built
    k = code.k_corr

    if check_bounds:
        coupling = env.coupling_bound
        x0 = asymptotic_x0()
        rows = []
        violations = 0
        for t, e, _, _ in points:
            rigorous = error_bound(t, k, v_norm)
            asymptotic = stabilization_bound(t, coupling, code.n, x0)
            ok = (rigorous > 1.0) or (e <= rigorous + BOUND_SLACK)
            violations += 0 if ok else 1
            rows.append((t, e, rigorous, asymptotic, ok))
        out.csv("bound_check.csv", ["t", "E", "bound", "stab_bound", "ok"], rows)
        out.csv(
            "threshold.csv",
            ["coupling_bound", "x0", "threshold_time"],
            [(coupling, x0, threshold_time(coupling, x0))],
        )
        if scenario.plots:
            out.svg(
                "bound_check.svg",
                [
                    ("measured", [(t, e) for t, e, *_ in rows]),
                    ("bound", [(t, b) for t, _, b, *_ in rows]),
                ],
                AxesSpec("t", "E", xlog=True, ylog=True, title="error vs rigorous envelope"),
            )
        if violations:
            raise ValidationError(f"{violations} sweep points exceed the rigorous error envelope")
        return

    sweep_rows = [(t, e, error_bound(t, k, v_norm), theta, phi) for t, e, theta, phi in points]
    out.csv("sweep.csv", ["t", "E", "bound", "argmax_theta", "argmax_phi"], sweep_rows)
    out.csv(
        "fit_summary.csv",
        _FIT_HEADER,
        _fit_rows(f"{scenario.kind}:{scenario.code}", [(t, e) for t, e, *_ in points]),
    )
    if scenario.plots:
        out.svg(
            "sweep.svg",
            [
                ("E", [(t, e) for t, e, *_ in points]),
                ("bound", [(t, b) for t, _, b, *_ in sweep_rows]),
            ],
            AxesSpec("t", "E", xlog=True, ylog=True, title=f"{scenario.code} error sweep"),
        )


def _run_intro(scenario: Scenario, out: _Outputs) -> None:
    code = build_code(scenario.code)
    n = code.n
    env = trivial_environment(n)
    psi = _bloch_pair(scenario.state_theta, scenario.state_phi)
    ts = scenario.times().tolist()
    drives = {  # sum_l omega_l sigma_x^l and sum over pairs omega_kl sigma_x^k sigma_x^l, as contact terms
        "single_flip": [(w, [int(i == l) for i in range(n)]) for l, w in enumerate(scenario.single_flip_omegas)],
        "pair_flip": [(w, [int(i in (k, l)) for i in range(1, n + 1)]) for k, l, w in scenario.pair_flip],
    }

    curves = {}
    for label, terms in drives.items():
        pipeline = _CorrectionPipeline(code, env, contact_hamiltonian(terms, n))
        curves[label] = list(zip(ts, _state_error(pipeline.covariances(ts), psi).tolist()))
        out.csv(f"{label}.csv", ["t", "E"], curves[label])
    fit_rows = _fit_rows("single_flip", curves["single_flip"]) + _fit_rows("pair_flip", curves["pair_flip"])
    out.csv("fit_summary.csv", _FIT_HEADER, fit_rows)
    if scenario.plots:
        out.svg(
            "flip_curves.svg",
            [(label, samples) for label, samples in curves.items()],
            AxesSpec("t", "E", xlog=True, ylog=True, title=f"{scenario.code} under flip drives"),
        )


BOUNDS_HEADER = ["n", "k", "hamming_ok", "gv_ok"]


def bounds_rows(n_min: int, n_max: int, k_min: int, k_max: int) -> list[tuple[int, int, bool, bool]]:
    """Feasibility rows for n in n_min..n_max and k in k_min..min(k_max, n)."""
    rows = []
    for n in range(n_min, n_max + 1):
        for k in range(k_min, min(k_max, n) + 1):
            row = hamming_gv_check(n, k)
            rows.append((row.n, row.k, row.hamming_ok, row.gv_ok))
    return rows


def _run_bounds(scenario: Scenario, out: _Outputs) -> None:
    rows = bounds_rows(scenario.n_min, scenario.n_max, scenario.k_min, scenario.k_max)
    out.csv("bounds.csv", BOUNDS_HEADER, rows)


def _run_periodic(scenario: Scenario, out: _Outputs) -> None:
    code, env, _, h = _materialize(scenario)
    pipeline = _CorrectionPipeline(code, env, h)
    psi = _bloch_pair(scenario.state_theta, scenario.state_phi)
    dts = [math.ldexp(scenario.dt, -i) for i in range(scenario.halvings + 1)]
    on, off = (pipeline.decay(dts, scenario.cycles, psi, apply_correction=corrected) for corrected in (True, False))
    rate_rows = []
    plot_series = []
    for i, dt in enumerate(dts):
        for corrected, decay in ((True, on[i]), (False, off[i])):
            tag = "on" if corrected else "off"
            out.csv(f"periodic_{i}_{tag}.csv", ["cycle", "total_t", "fidelity"], decay.samples)
            rate_rows.append((dt, corrected, decay.rate))
            if not abs(decay.rate) > decay.rate_floor:
                out.warnings.append(
                    f"rates.csv: the {'corrected' if corrected else 'uncorrected'} rate {decay.rate:.3e} at "
                    f"dt = {dt!r} is not above its rounding floor {decay.rate_floor:.3e}"
                )
            if corrected:
                plot_series.append((f"dt={dt:.6g}", [(t, f) for _, t, f in decay.samples]))
    out.csv("rates.csv", ["dt", "corrected", "rate"], rate_rows)
    if scenario.plots:
        out.svg(
            "periodic.svg",
            plot_series,
            AxesSpec("total time", "fidelity", title=f"{scenario.code} under periodic recovery"),
        )


def run(
    scenario: Scenario,
    out_dir: str | None = None,
    seed: int | None = None,
    workers: int = 1,
    plots: bool | None = None,
) -> RunManifest:
    """Execute a scenario and return the manifest (also written as manifest.json).

    ``out_dir``, ``seed`` and ``plots`` override the scenario's values; the
    run reads them from the one scenario record they produce.  ``workers``
    is accepted for compatibility and ignored: a sweep runs serially from
    one pipeline built per scenario.
    """
    started = time.monotonic()
    given = {"out": (out_dir, str), "seed": (seed, int), "plots": (plots, bool)}
    scenario = replace(scenario, **{key: cast(value) for key, (value, cast) in given.items() if value is not None})
    os.makedirs(scenario.out, exist_ok=True)
    out = _Outputs(scenario.out)

    with np.errstate(all="raise", under="ignore"):  # an overflow, NaN or division by zero raises FloatingPointError
        if scenario.kind in ("scaling_sweep", "bound_check"):
            _run_scaling(scenario, out, check_bounds=scenario.kind == "bound_check")
        elif scenario.kind == "intro_example":
            _run_intro(scenario, out)
        elif scenario.kind == "bounds_table":
            _run_bounds(scenario, out)
        else:  # periodic_correction, the last of the kinds Scenario accepts
            _run_periodic(scenario, out)

    manifest = RunManifest(
        scenario=serialize_scenario(scenario),
        seed=scenario.seed,
        version=__version__,
        duration_s=time.monotonic() - started,
        files=dict(sorted(out.files.items())),
        warnings=tuple(out.warnings),
    )
    manifest_text = json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
    _overwrite(os.path.join(scenario.out, "manifest.json"), manifest_text.encode("utf-8"))
    return manifest


def verify_manifest(out_dir: str) -> list[str]:
    """Re-hash the files listed in a run manifest; returns the names that drifted."""
    with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    drifted = []
    for name, digest in sorted(payload["files"].items()):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path) or _sha256(path) != digest:
            drifted.append(name)
    return drifted
