import hashlib
import json
import os
import pathlib
import re
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

import decoq.cli
import decoq.metrics
import decoq.runner
import decoq.tensor
from decoq.codes import asymptotic_bound_gap, interaction_order
from decoq.dynamics import build_noncontact, free_hamiltonian, random_environment
from decoq.metrics import error_bound
from decoq.pauli import pauli_sum

from decoq.cli import main
from decoq.errors import ShapeError, SizingError
from decoq.runner import _cell, format_csv, run, verify_manifest
from decoq.scenario import Scenario, load_scenario, parse_scenario, serialize_scenario
from decoq.svg import AxesSpec, emit_svg

SWEEP = Scenario(
    kind="scaling_sweep",
    code="identity",
    seed=42,
    env_dim=2,
    t_start=0.004, t_end=0.12, t_points=10, t_spacing="log",
)

BOUNDS = Scenario(kind="bounds_table", n_min=1, n_max=12, k_min=1, k_max=2, plots=False)
SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def read(path):
    return path.read_bytes()


class TestBoundsTable:
    def test_reference_rows_present(self, tmp_path):
        run(BOUNDS, out_dir=str(tmp_path))
        text = (tmp_path / "bounds.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "n,k,hamming_ok,gv_ok"
        assert "5,1,true,true" in lines
        assert "10,2,true,true" in lines
        assert "4,1,false,true" in lines

    def test_row_count(self, tmp_path):
        run(BOUNDS, out_dir=str(tmp_path))
        lines = (tmp_path / "bounds.csv").read_text().strip().split("\n")
        # k in {1, 2} for every n in 1..12, minus the n=1 row where k=2 > n
        assert len(lines) == 1 + 23


class TestScalingSweep:
    def test_outputs_and_fit(self, tmp_path):
        manifest = run(SWEEP, out_dir=str(tmp_path))
        assert set(manifest.files) == {"sweep.csv", "fit_summary.csv", "sweep.svg"}
        header = (tmp_path / "sweep.csv").read_text().split("\n")[0]
        assert header == "t,E,bound,argmax_theta,argmax_phi"
        fit_line = (tmp_path / "fit_summary.csv").read_text().strip().split("\n")[1]
        exponent = float(fit_line.split(",")[1])
        assert exponent == pytest.approx(2.0, abs=0.05)

    def test_csv_float_format(self, tmp_path):
        run(SWEEP, out_dir=str(tmp_path))
        line = (tmp_path / "sweep.csv").read_text().split("\n")[1]
        first = line.split(",")[0]
        assert re.fullmatch(r"-?\d\.\d{16}e[+-]\d{2,3}", first)

    def test_determinism_byte_identical(self, tmp_path):
        run(SWEEP, out_dir=str(tmp_path / "a"))
        run(SWEEP, out_dir=str(tmp_path / "b"), workers=2)
        for name in ("sweep.csv", "fit_summary.csv", "sweep.svg"):
            assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)


    def test_manifest_payload(self, tmp_path):
        manifest = run(SWEEP, out_dir=str(tmp_path), seed=7)
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert payload["seed"] == 7
        assert payload["version"] == manifest.version
        assert "seed = 7" in payload["scenario"]
        assert set(payload["files"]) == set(manifest.files)

    def test_no_svg_toggle(self, tmp_path):
        manifest = run(SWEEP, out_dir=str(tmp_path), plots=False)
        assert "sweep.svg" not in manifest.files
        assert not (tmp_path / "sweep.svg").exists()

    def test_shipped_watchdog_argmax_in_the_upper_hemisphere(self, tmp_path):
        # identity with beta = 0 has E(r) = E(-r): every row reports the z >= 0 maximiser, not a rounding pick
        from decoq.scenario import load_scenario

        run(load_scenario(str(SCENARIO_DIR / "watchdog_baseline.cfg")), out_dir=str(tmp_path), plots=False)
        thetas = [float(line.split(",")[3]) for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert len(thetas) == 16
        assert all(theta <= np.pi / 2 for theta in thetas)

    def test_contact_sweep_argmax_phi_below_two_pi(self, tmp_path):
        # the first row's maximiser lies on the equator with y of about -1e-17, whose atan2 mod 2 pi rounds to 2 pi
        text = (
            "[scenario]\nkind = scaling_sweep\ncode = five_qubit\nplots = false\n"
            "[interaction]\nkind = contact\nterms = 0.9:x1 x2, -0.25:z3, 0.4:y2 z4 x5\n"
            "[time_grid]\nstart = 0.01\nend = 0.3\npoints = 12\n"
        )
        run(parse_scenario(text), out_dir=str(tmp_path))
        phis = [float(line.split(",")[4]) for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert len(phis) == 12
        assert all(0.0 <= phi < 2.0 * np.pi for phi in phis), phis
        assert phis[0] == 0.0

    @pytest.mark.parametrize("kind", ["scaling_sweep", "bound_check"])
    def test_one_covariance_stack_and_one_search(self, tmp_path, monkeypatch, kind):
        calls = []

        def counted(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)
            return wrapper

        pipeline = decoq.metrics._CorrectionPipeline
        monkeypatch.setattr(pipeline, "covariances", counted("covariances", pipeline.covariances))
        monkeypatch.setattr(decoq.metrics, "_sphere_suprema", counted("suprema", decoq.metrics._sphere_suprema))
        run(Scenario(kind=kind, code="identity", t_start=0.004, t_end=0.12, t_points=10, plots=False), out_dir=str(tmp_path))
        assert calls == ["covariances", "suprema"]


def csv_columns(path, *names):
    """The named columns of a runner CSV, as floats."""
    header, *lines = path.read_text().splitlines()
    index = [header.split(",").index(name) for name in names]
    return [[float(line.split(",")[i]) for i in index] for line in lines]


class TestInteractionOrder:
    def test_repetition_bound_check_uses_order_zero(self, tmp_path, capsys):
        # y and z pass a repetition code, so E falls as t^2 and the envelope is (t ||V||)^2
        cfg = tmp_path / "rep.cfg"
        cfg.write_text((SCENARIO_DIR / "bound_check.cfg").read_text().replace("code = five_qubit", "code = repetition-3"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        v_norm = float(np.max(np.abs(np.linalg.eigvalsh(build_noncontact(random_environment(3, 2, seed=42))))))
        rows = csv_columns(tmp_path / "out" / "bound_check.csv", "t", "E", "bound")
        assert len(rows) == 14
        for t, e, bound in rows:
            assert bound == error_bound(t, 0, v_norm)
            assert e <= bound

    def test_pair_flip_contact_sweep_stays_under_its_bound(self, tmp_path):
        # weight-2 x terms on repetition-5 (k_corr = 2) have order 1: E falls as t^4, under (t ||V||)^4 / 4
        text = (
            "[scenario]\nkind = scaling_sweep\ncode = repetition-5\nplots = false\n"
            "[interaction]\nkind = contact\nterms = 0.8:x1 x2, 0.7:x1 x3, 0.65:x2 x3, 1.05:x3 x4, 0.95:x4 x5\n"
            "[time_grid]\nstart = 5e-4\nend = 8e-3\npoints = 14\n"
        )
        run(parse_scenario(text), out_dir=str(tmp_path))
        rows = csv_columns(tmp_path / "sweep.csv", "E", "bound")
        assert len(rows) == 14
        assert all(e <= bound for e, bound in rows), max(e / bound for e, bound in rows)


KINDS = {
    "scaling_sweep": (SWEEP, "sweep.csv"),
    "bound_check": (Scenario(kind="bound_check", code="identity", t_start=0.004, t_end=0.12, t_points=10), "bound_check.csv"),
    "intro_example": (Scenario(kind="intro_example", code="repetition-3", single_flip_omegas=(0.9, 1.1, 0.75),
                               pair_flip=((1, 2, 0.8), (2, 3, 0.65))), "pair_flip.csv"),
    "bounds_table": (BOUNDS, "bounds.csv"),
    "periodic_correction": (Scenario(kind="periodic_correction", code="repetition-3", cycles=10, halvings=1),
                            "periodic_1_off.csv"),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_manifest_hashes_verify(tmp_path, kind):
    # the hashes taken from the bytes in memory are those of the files on disk
    scenario, tampered = KINDS[kind]
    assert scenario.kind == kind
    manifest = run(scenario, out_dir=str(tmp_path))
    assert tampered in manifest.files
    assert verify_manifest(str(tmp_path)) == []
    (tmp_path / tampered).write_text("tampered\n")
    assert verify_manifest(str(tmp_path)) == [tampered]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_rerun_rewrites_longer_files_in_place(tmp_path, kind):
    # every output name already holds longer junk: the rerun writes each file in place and cuts it to length
    scenario, _ = KINDS[kind]
    fresh_dir, rerun_dir = tmp_path / "fresh", tmp_path / "rerun"
    fresh = run(scenario, out_dir=str(fresh_dir))
    names = [*fresh.files, "manifest.json"]
    rerun_dir.mkdir()
    (tmp_path / "links").mkdir()
    for name in names:
        (rerun_dir / name).write_bytes(b"junk," * (len(read(fresh_dir / name)) // 5 + 2))
        os.link(rerun_dir / name, tmp_path / "links" / name)  # the old inodes stay alive, so no number is reused
    inodes = {name: (rerun_dir / name).stat().st_ino for name in names}
    rerun = run(scenario, out_dir=str(rerun_dir))
    assert rerun.files == fresh.files
    for name in fresh.files:
        assert read(rerun_dir / name) == read(fresh_dir / name)
    text = (rerun_dir / "manifest.json").read_text(encoding="utf-8")
    payload = json.loads(text)  # trailing junk would not parse
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert (payload["files"], payload["scenario"]) == (fresh.files, rerun.scenario)
    assert verify_manifest(str(rerun_dir)) == []
    assert {name: (rerun_dir / name).stat().st_ino for name in names} == inodes
    assert all(read(tmp_path / "links" / name) == read(rerun_dir / name) for name in names)


def test_outputs_written_through_symlinks_with_open_permissions(tmp_path):
    # a symlinked output is rewritten where it points, and a new file gets the mode open("wb") gives
    out = tmp_path / "out"
    out.mkdir()
    (tmp_path / "target.csv").write_text("stale\n", encoding="utf-8")
    (out / "bounds.csv").symlink_to(tmp_path / "target.csv")
    manifest = run(BOUNDS, out_dir=str(out))
    assert (out / "bounds.csv").is_symlink()
    assert hashlib.sha256(read(tmp_path / "target.csv")).hexdigest() == manifest.files["bounds.csv"]
    with open(tmp_path / "by_open.csv", "wb"):
        pass
    fresh = run(BOUNDS, out_dir=str(tmp_path / "fresh"))
    assert fresh.files == manifest.files
    written, opened = (stat.S_IMODE(p.stat().st_mode) for p in (tmp_path / "fresh" / "bounds.csv", tmp_path / "by_open.csv"))
    assert written == opened


def cell_joined_csv(header, rows) -> str:
    """Reference CSV text: every cell through ``_cell``, one row at a time."""
    lines = [",".join(header)] + [",".join(_cell(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


class TestFormatCsv:
    def test_numpy_bools_print_like_python_bools(self):
        assert _cell(np.True_) == _cell(True) == "true"
        assert _cell(np.False_) == _cell(False) == "false"
        assert format_csv(["ok"], [(np.True_,), (np.False_,)]) == "ok\ntrue\nfalse\n"

    def test_columns_match_per_cell_join(self):
        header = ["int", "np_int", "float", "np_float", "bool", "np_bool", "str", "mixed", "np_mixed"]
        rows = [
            (3, np.int64(-4), 0.1, np.float64(-0.0), True, np.True_, "five_qubit", 7, np.float64(2.5)),
            (-12, np.int64(0), -0.0, np.float64(1e-300), False, np.False_, "a:b", 2.5, 3),
            (0, np.int64(2 ** 40), 1e300, np.float64(np.inf), True, np.False_, "", True, "x"),
            (2 ** 70, np.int64(-1), float("nan"), np.float64(-7.25), False, np.True_, "true", "s", np.True_),
            (1, np.int32(5), np.float32(0.1), np.float64(3.0), True, np.True_, "z", np.int64(9), 1.5),
        ]
        assert format_csv(header, rows) == cell_joined_csv(header, rows)
        assert format_csv(header, iter(rows)) == cell_joined_csv(header, rows)
        assert format_csv(header, []) == ",".join(header) + "\n"

    def test_cell_formats(self):
        text = format_csv(["a", "b", "c", "d"], [(-0.0, 7, True, "s"), (0.1, np.int64(-3), False, "t")])
        assert text == (
            "a,b,c,d\n-0.0000000000000000e+00,7,true,s\n1.0000000000000001e-01,-3,false,t\n"
        )

    def test_row_width_must_match_header(self):
        with pytest.raises(ShapeError, match="cells for 2 columns"):
            format_csv(["a", "b"], [(1, 2), (3,)])


class TestSizingGuard:
    def test_rejects_oversized_joint_space(self, tmp_path):
        with pytest.raises(SizingError, match="exceeds the cap"):
            big = Scenario(kind="scaling_sweep", code="five_qubit", env_dim=2, max_dim=32)
            run(big, out_dir=str(tmp_path))
        assert not (tmp_path / "sweep.csv").exists()

    def test_intro_guard(self, tmp_path):
        with pytest.raises(SizingError):
            s = Scenario(kind="intro_example", code="repetition-5", max_dim=16)
            run(s, out_dir=str(tmp_path))

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "scaling_sweep"},
            {"kind": "bound_check"},
            {"kind": "periodic_correction"},
            {"kind": "scaling_sweep", "interaction_kind": "contact", "contact_terms": ((0.9, ((1, 1), (1, 2))),),
             "max_dim": 16},
        ],
        ids=["scaling_sweep", "bound_check", "periodic_correction", "contact"],
    )
    def test_refused_before_anything_is_built(self, tmp_path, monkeypatch, fields):
        # five_qubit at d_e = 8 asks for 8 x 32 = 256 > 64: the refusal must precede every build
        def built(*args, **kwargs):
            raise AssertionError("built before the sizing guard")

        for name in ("build_code", "random_environment", "build_noncontact", "contact_environment"):
            monkeypatch.setattr(decoq.runner, name, built)
        with pytest.raises(SizingError, match="exceeds the cap"):
            s = Scenario(**{"code": "five_qubit", "env_dim": 8, "max_dim": 64, **fields})
            run(s, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()


PAIR_FLIP_SWEEP = (
    "[scenario]\nkind = scaling_sweep\ncode = repetition-5\n[interaction]\nkind = contact\n"
    "terms = 0.8:x1 x2, 0.7:x1 x3, 0.65:x2 x3, 1.05:x3 x4, 0.95:x4 x5\n[time_grid]\nstart = 1e-3\nend = 2e-2\npoints = 12\n"
)


class TestInteractionRecords:
    """Every V the runner builds is the pauli_sum of a record's terms: bit for bit the V of the strings built by hand."""

    def test_contact_terms_of_a_scenario(self):
        scenario = parse_scenario(
            "[scenario]\nkind = scaling_sweep\ncode = five_qubit\n[interaction]\nkind = contact\n"
            "terms = 0.9:x1 x2, -0.25:z3, 0.4:z5 y2, 1.3:y1 y3 x4\n"
        )
        code, env, v, q = decoq.runner._materialize(scenario)
        strings = [[0] * 5 for _ in scenario.contact_terms]  # one letter per (axis, position) factor
        for string, (_, factors) in zip(strings, scenario.contact_terms):
            for axis, pos in factors:
                string[pos - 1] = axis
        want = pauli_sum([(float(w), tuple(s)) for (w, _), s in zip(scenario.contact_terms, strings)], 1, 5)
        assert v.tobytes() == want.tobytes()
        assert env.strings == tuple(map(tuple, strings)) and q == interaction_order(code, strings)

    def test_intro_flip_drives(self, tmp_path, monkeypatch):
        # sum_l omega_l sigma_x^l in [single_flip] order and sum omega_kl sigma_x^k sigma_x^l in [pair_flip] order
        built = []

        def keep(env):
            built.append(build_noncontact(env))
            return built[-1].copy()

        monkeypatch.setattr(decoq.runner, "build_noncontact", keep)
        scenario = load_scenario(str(SCENARIO_DIR / "intro_example.cfg"))
        run(scenario, out_dir=str(tmp_path), plots=False)
        n = 5
        single = pauli_sum([(w, [int(i == l) for i in range(n)]) for l, w in enumerate(scenario.single_flip_omegas)], 1, n)
        pair = pauli_sum([(w, [int(i in (k, l)) for i in range(1, n + 1)]) for k, l, w in scenario.pair_flip], 1, n)
        assert [v.tobytes() for v in built] == [single.tobytes(), pair.tobytes()]

    @pytest.mark.parametrize("text, d", [
        ((SCENARIO_DIR / "exponent_law.cfg").read_text(), 64),
        ((SCENARIO_DIR / "periodic_correction.cfg").read_text(), 64),
        (PAIR_FLIP_SWEEP, 32),
    ], ids=["non_contact_sweep", "periodic", "contact_sweep"])
    def test_one_joint_hermiticity_pass_per_run(self, tmp_path, monkeypatch, text, d):
        # V summed from Hermitian terms is exactly Hermitian, so only the pipeline checks the joint H
        sizes = []
        defect = decoq.tensor.hermiticity_defect

        def counted(a):
            sizes.append(len(a))
            return defect(a)

        monkeypatch.setattr(decoq.tensor, "hermiticity_defect", counted)
        run(parse_scenario(text), out_dir=str(tmp_path), plots=False)
        assert sizes.count(d) == 1 and max(sizes) == d


class TestPeriodicKind:
    def test_outputs(self, tmp_path):
        s = Scenario(
            kind="periodic_correction",
            code="repetition-3",
            env_dim=2,
            dt=0.05,
            cycles=10,
            halvings=0,
            plots=False,
        )
        manifest = run(s, out_dir=str(tmp_path))
        assert set(manifest.files) == {"periodic_0_on.csv", "periodic_0_off.csv", "rates.csv"}
        rates = (tmp_path / "rates.csv").read_text().strip().split("\n")
        assert rates[0] == "dt,corrected,rate"
        assert len(rates) == 3
        on = float(rates[1].split(",")[2])
        off = float(rates[2].split(",")[2])
        assert on < off

    def test_one_pipeline_per_scenario(self, tmp_path, monkeypatch):
        builds = []
        original = decoq.metrics._CorrectionPipeline.__init__

        def counted(self, *args, **kwargs):
            builds.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(decoq.metrics._CorrectionPipeline, "__init__", counted)
        s = Scenario(kind="periodic_correction", code="repetition-3", cycles=10, halvings=2, plots=False)
        manifest = run(s, out_dir=str(tmp_path))
        assert len(manifest.files) == 7
        assert len(builds) == 1

    @pytest.mark.parametrize("halvings", [0, 2])
    def test_two_decay_calls_per_scenario(self, tmp_path, monkeypatch, halvings):
        calls = []
        pipeline = decoq.metrics._CorrectionPipeline
        original = pipeline.decay

        def counted(self, dts, *args, **kwargs):
            calls.append(list(dts))
            return original(self, dts, *args, **kwargs)

        monkeypatch.setattr(pipeline, "decay", counted)
        s = Scenario(kind="periodic_correction", code="repetition-3", cycles=10, halvings=halvings, plots=False)
        run(s, out_dir=str(tmp_path))
        dts = [0.12 / 2 ** i for i in range(halvings + 1)]
        assert calls == [dts, dts]

    def test_rates_within_rounding_floor_warn(self, tmp_path):
        # identity at d_e = 1 decays at O(dt); at dt = 1e-30 the rates are drift / dt, of order 1e13
        s = Scenario(kind="periodic_correction", code="identity", env_dim=1, seed=1, dt=1e-30, cycles=12,
                     halvings=0, plots=False)
        manifest = run(s, out_dir=str(tmp_path))
        floor = 12 * sys.float_info.epsilon / 1e-30
        rates = [float(line.split(",")[2]) for line in (tmp_path / "rates.csv").read_text().splitlines()[1:]]
        assert all(abs(rate) <= floor for rate in rates)
        assert len(manifest.warnings) == 2
        assert all("is not above its rounding floor" in w for w in manifest.warnings)
        assert "the corrected rate" in manifest.warnings[0] and "the uncorrected rate" in manifest.warnings[1]

    def test_shipped_scenario_rates_clear_the_floor(self, tmp_path):
        from decoq.scenario import load_scenario

        manifest = run(load_scenario(str(SCENARIO_DIR / "periodic_correction.cfg")), out_dir=str(tmp_path))
        assert manifest.warnings == ()

    def test_more_halvings_keep_the_leading_files(self, tmp_path):
        for halvings in (1, 2):
            s = Scenario(kind="periodic_correction", code="five_qubit", cycles=20, halvings=halvings, plots=False)
            run(s, out_dir=str(tmp_path / str(halvings)))
        for name in ("periodic_0_on.csv", "periodic_0_off.csv", "periodic_1_on.csv", "periodic_1_off.csv"):
            assert read(tmp_path / "1" / name) == read(tmp_path / "2" / name), name
        rates = [(tmp_path / h / "rates.csv").read_text().split("\n") for h in ("1", "2")]
        assert rates[1][:5] == rates[0][:5]  # the header and the on/off rows of both shared intervals


class TestIntroKind:
    def test_one_covariance_stack_per_drive(self, tmp_path, monkeypatch):
        calls = []
        pipeline = decoq.metrics._CorrectionPipeline
        original = pipeline.covariances

        def counted(self, times):
            calls.append(len(times))
            return original(self, times)

        monkeypatch.setattr(pipeline, "covariances", counted)
        s = Scenario(kind="intro_example", code="repetition-5", t_start=0.02, t_end=0.2, t_points=14, plots=False)
        run(s, out_dir=str(tmp_path))
        assert calls == [14, 14]

    def test_one_readout_per_scenario(self, tmp_path, monkeypatch):
        seen = []
        original = decoq.metrics._CorrectionPipeline.__init__

        def recorded(self, code, *args):
            original(self, code, *args)
            seen.append((code, self.readout))

        monkeypatch.setattr(decoq.metrics._CorrectionPipeline, "__init__", recorded)
        s = Scenario(kind="intro_example", code="repetition-5", t_start=0.02, t_end=0.2, t_points=14, plots=False)
        manifest = run(s, out_dir=str(tmp_path))
        assert set(manifest.files) == {"single_flip.csv", "pair_flip.csv", "fit_summary.csv"}
        (code, first), (other, second) = seen  # one pipeline per drive
        assert code is other and first is second is code.readout


    def test_repetition_seven_single_flip_exponent(self, tmp_path):
        # k = 3: the single-flip error starts at t^8; the grid keeps E above FIT_FLOOR
        s = Scenario(
            kind="intro_example",
            code="repetition-7",
            t_start=0.05, t_end=0.3, t_points=14,
            single_flip_omegas=(0.9, 1.1, 0.75, 1.3, 0.85, 1.0, 0.95),
            plots=False,
        )
        run(s, out_dir=str(tmp_path))
        rows = (tmp_path / "fit_summary.csv").read_text().splitlines()
        single = next(r.split(",") for r in rows if r.startswith("single_flip,"))
        assert float(single[1]) == pytest.approx(8.0, abs=0.1)
        e_min = min(float(r.split(",")[1]) for r in (tmp_path / "single_flip.csv").read_text().splitlines()[1:])
        assert e_min > 1e-13


class TestSvg:
    def test_single_series_single_polyline(self):
        text, _ = emit_svg([("E", [(0.1, 1.0), (0.2, 4.0)])], AxesSpec("t", "E"))
        assert text.count("<polyline") == 1

    def test_log_axes_drop_count(self):
        _, dropped = emit_svg(
            [("E", [(0.0, 1.0), (0.1, 0.0), (0.2, 4.0), (0.3, 9.0)])],
            AxesSpec("t", "E", xlog=True, ylog=True),
        )
        assert dropped == 2

    def test_empty_after_filter_rejected(self):
        with pytest.raises(ShapeError):
            emit_svg(
                [("E", [(0.0, 1.0)])],
                AxesSpec("t", "E", xlog=True),
            )

    def test_byte_identical_rerun(self):
        series = [("a", [(1.0, 2.0), (2.0, 3.0)]), ("b", [(1.0, 5.0)])]
        axes = AxesSpec("x", "y", title="twice")
        assert emit_svg(series, axes) == emit_svg(series, axes)

    def test_runner_records_drop_warning(self, tmp_path):
        # a linear time grid starting at zero yields E = 0 there, which the
        # log-log plot must drop and report
        s = Scenario(
            kind="scaling_sweep",
            code="identity",
            env_dim=2,
            t_start=0.0, t_end=0.12, t_points=13, t_spacing="linear",
        )
        manifest = run(s, out_dir=str(tmp_path))
        assert any("dropped" in w for w in manifest.warnings)


class TestCli:
    def test_run_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "[scenario]\nkind = bounds_table\n[bounds]\nn_max = 6\nk_max = 1\n",
            encoding="utf-8",
        )
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "bounds.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_workers_flag_gone(self, tmp_path, capsys):
        # sweeps run serially and take no worker count: argparse rejects the flag with its usage exit code
        with pytest.raises(SystemExit) as exc:
            main(["run", str(tmp_path / "s.cfg"), "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scenario]\nkind = brownian\n", encoding="utf-8")
        assert main(["run", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2
        capsys.readouterr()

    def test_sizing_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(
            "[scenario]\nkind = scaling_sweep\ncode = five_qubit\nmax_dim = 16\n",
            encoding="utf-8",
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert "sizing error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_exit_3(self, tmp_path, capsys, monkeypatch):
        # a joint space under max_dim can still be too large to allocate; the stub stands in for that allocation
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.18 TiB for an array")

        monkeypatch.setattr(decoq.runner, "random_environment", exhausted)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("[scenario]\nkind = bound_check\ncode = five_qubit\nmax_dim = 1000000000\n", encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "sizing error: out of memory: Unable to allocate 2.18 TiB for an array\n"

    def test_negative_beta_runs(self, tmp_path, capsys):
        # exp(1000 i) overflowed the Gibbs weights, whose normalization then divided inf by inf
        cfg = tmp_path / "cold.cfg"
        cfg.write_text((SCENARIO_DIR / "exponent_law.cfg").read_text().replace("d_e = 2", "d_e = 2\nbeta = -1000"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert "beta = -1000" in (tmp_path / "out" / "manifest.json").read_text()
        capsys.readouterr()

    def test_fit_failure_exit_4(self, tmp_path, capsys):
        # enough points, but every error sits below the fit floor
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "[scenario]\nkind = scaling_sweep\ncode = identity\n"
            "[time_grid]\nstart = 1e-9\nend = 1e-8\npoints = 10\n",
            encoding="utf-8",
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert "only 0 samples above the floor" in capsys.readouterr().err

    def test_bounds_command(self, capsys):
        assert main(["bounds", "--n-max", "5", "--k-max", "1"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "n,k,hamming_ok,gv_ok"
        assert "5,1,true,true" in out

    def test_x0_command(self, capsys):
        assert main(["x0"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(0.09464481245761588, abs=1e-12)
        root = brentq(asymptotic_bound_gap, 1e-12, 0.5, xtol=1e-16, rtol=1e-15) / 2.0
        assert value == pytest.approx(root, abs=1e-15)

    def test_bounds_command_matches_table(self, tmp_path, capsys):
        s = Scenario(kind="bounds_table", n_min=1, n_max=12, k_min=0, k_max=2, plots=False)
        run(s, out_dir=str(tmp_path))
        assert main(["bounds", "--n-max", "12", "--k-max", "2"]) == 0
        printed = capsys.readouterr().out
        assert printed == (tmp_path / "bounds.csv").read_text()
        rows = [tuple(map(int, line.split(",")[:2])) for line in printed.strip().split("\n")[1:]]
        assert rows == [(n, k) for n in range(1, 13) for k in range(0, min(2, n) + 1)]

    @pytest.mark.parametrize(
        "section",
        ["[correction]\ncycles = 5", "[correction]\nhalvings = -1", "[bounds]\nn_min = 0"],
    )
    def test_bad_value_exit_2(self, tmp_path, capsys, section):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[scenario]\nkind = periodic_correction\ncode = repetition-3\n{section}\n", encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "[scenario]\nkind = bounds_table\nkind = intro_example\n",
            "[scenario]\nkind = intro_example\ncode = repetition-3\n[pair_flip]\npairs = 1-2:0.8, 1-2:0.5\n",
            "[scenario]\nkind = intro_example\ncode = repetition-3\n[pair_flip]\npairs = 1-2:0.8, 2-1:0.3\n",
            "[scenario]\nkind = intro_example\ncode = repetition-3\n[pair_flip]\npairs = 1-1:0.8\n",
            "[scenario]\nkind = scaling_sweep\ncode = identity\n[time_grid]\npoints = 5\n",
            "[scenario]\nkind = intro_example\ncode = repetition-3\n[time_grid]\npoints = 7\n",
            "[scenario]\nkind = scaling_sweep\ncode = five_qubit\n[interaction]\nkind = contact\nterms = -inf:x1 x2\n",
            "[scenario]\nkind = scaling_sweep\ncode = five_qubit\n[interaction]\nkind = contact\nterms = 0.9:x1 x9\n",
            "[scenario]\nkind = periodic_correction\ncode = five_qubit\n[interaction]\nkind = contact\nterms = 0.9:x1 x1\n",
            "[scenario]\nkind = scaling_sweep\ncode = five_qubit\n[interaction]\nkind = contact\nterms =\n",
            "[scenario]\nkind = intro_example\ncode = five_qubit\n",
            "[scenario]\nkind = intro_example\ncode = repetition-5\n[single_flip]\nomegas = 0.9, 1.1, 0.75\n",
            "[scenario]\nkind = intro_example\ncode = repetition-5\n[pair_flip]\npairs = 1-6:0.8\n",
            "[scenario]\nkind = bound_check\ncode = five_qubit\n[interaction]\nkind = contact\nterms = 0.9:x1 x2\n",
            "[scenario]\nkind = bound_check\ncode = five_qubit\n[environment]\ncoupling_bound = 0.0\n",
            "[scenario]\nkind = scaling_sweep\ncode = identity\nseed = -1\n",
            "[scenario]\nkind = scaling_sweep\ncode = identity\n[environment]\ncoupling_bound = -1\n",
            "[scenario]\nkind = periodic_correction\ncode = identity\n[environment]\nd_e = 1\n[correction]\nhalvings = 1100\n",
            "[scenario]\nkind = scaling_sweep\ncode = identity\n[time_grid]\nstart = -0.01\nspacing = linear\n",
            "[scenario]\nkind = bound_check\ncode = identity\n[time_grid]\nstart = -0.01\nspacing = linear\n",
        ],
        ids=[
            "repeated_key", "repeated_pair", "reversed_pair", "self_pair", "sweep_points_5", "intro_points_7",
            "contact_weight_inf", "contact_qubit_9", "contact_repeated_qubit", "contact_no_terms",
            "intro_five_qubit", "intro_three_omegas", "intro_pair_1_6", "bound_check_contact",
            "bound_check_zero_coupling", "negative_seed", "negative_coupling", "halvings_underflow",
            "sweep_negative_start", "bound_check_negative_start",
        ],
    )
    def test_rejected_config_exit_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("[scenario]\nkind = scaling_sweep\ncode = identity\n", encoding="utf-8")
        assert main(["run", str(cfg), "--seed", "-5", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: seed must be non-negative") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "shipped, old, new",
        [
            ("exponent_law", "coupling_bound = 1.0", "coupling_bound = nan"),
            ("exponent_law", "coupling_bound = 1.0", "coupling_bound = inf"),
            ("exponent_law", "end = 8e-3", "end = inf"),
            ("periodic_correction", "coupling_bound = 1.0", "coupling_bound = nan"),
            ("periodic_correction", "dt = 0.12", "dt = inf"),
            ("intro_example", "theta = 1.2", "theta = nan"),
            ("intro_example", "omegas = 0.9,", "omegas = nan,"),
            ("intro_example", "pairs = 1-2:0.8", "pairs = 1-2:nan"),
        ],
        ids=[
            "sweep_coupling_nan", "sweep_coupling_inf", "sweep_end_inf", "periodic_coupling_nan",
            "periodic_dt_inf", "intro_theta_nan", "intro_omega_nan", "intro_pair_nan",
        ],
    )
    def test_non_finite_exit_2(self, tmp_path, capsys, shipped, old, new):
        text = (SCENARIO_DIR / f"{shipped}.cfg").read_text(encoding="utf-8")
        assert old in text
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace(old, new), encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: line") and "finite" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_linalg_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(decoq.cli, "run", fail)
        cfg = tmp_path / "s.cfg"
        cfg.write_text("[scenario]\nkind = bounds_table\n", encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == "error: Eigenvalues did not converge\n"

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("[scenario]\nkind = bounds_table\n", encoding="utf-8")
        (tmp_path / "plain").write_text("not a directory", encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(tmp_path / "plain" / "sub")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write") and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["bounds.csv", "manifest.json"])
    def test_output_name_taken_by_directory_exit_2(self, tmp_path, capsys, name):
        # the output directory exists but one output cannot be opened for writing
        cfg = tmp_path / "s.cfg"
        cfg.write_text("[scenario]\nkind = bounds_table\n", encoding="utf-8")
        (tmp_path / "out" / name).mkdir(parents=True)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {tmp_path / 'out' / name}: ") and err.count("\n") == 1

    def test_no_svg_flag(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "[scenario]\nkind = scaling_sweep\ncode = identity\n"
            "[time_grid]\nstart = 0.004\nend = 0.12\npoints = 10\n"
            "[state_grid]\nn_theta = 8\nn_phi = 8\n",
            encoding="utf-8",
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--no-svg"]) == 0
        assert not (tmp_path / "out" / "sweep.svg").exists()

    def test_linear_grid_from_zero(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "[scenario]\nkind = scaling_sweep\ncode = five_qubit\n"
            "[time_grid]\nstart = 0\nend = 0.02\npoints = 12\nspacing = linear\n",
            encoding="utf-8",
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 13 and rows[1].startswith("0.0000000000000000e+00,")
        assert "dropped" in capsys.readouterr().err


def test_seed_override_changes_data(tmp_path):
    run(SWEEP, out_dir=str(tmp_path / "a"))
    run(SWEEP, out_dir=str(tmp_path / "b"), seed=43)
    assert read(tmp_path / "a" / "sweep.csv") != read(tmp_path / "b" / "sweep.csv")


@pytest.mark.parametrize(
    "scenario",
    [
        SWEEP,
        Scenario(kind="bound_check", code="five_qubit", env_dim=1, t_start=0.01, t_end=0.1, t_points=4),
        Scenario(kind="periodic_correction", code="repetition-3", cycles=12, halvings=1),
    ],
    ids=lambda s: s.kind,
)
def test_seed_override_matches_seed_in_the_scenario(tmp_path, scenario):
    overridden = run(scenario, out_dir=str(tmp_path / "a"), seed=43)
    in_file = run(parse_scenario(serialize_scenario(replace(scenario, seed=43))), out_dir=str(tmp_path / "b"))
    assert overridden.seed == in_file.seed == 43
    assert overridden.files == in_file.files
    assert all(read(tmp_path / "a" / name) == read(tmp_path / "b" / name) for name in in_file.files)


def test_parse_then_run_matches_direct_scenario(tmp_path):
    text = (
        "[scenario]\nkind = scaling_sweep\ncode = identity\nseed = 42\n"
        "[environment]\nd_e = 2\n"
        "[time_grid]\nstart = 0.004\nend = 0.12\npoints = 10\n"
        "[state_grid]\nn_theta = 8\nn_phi = 8\n"
    )
    run(parse_scenario(text), out_dir=str(tmp_path / "a"))
    run(SWEEP, out_dir=str(tmp_path / "b"))
    assert read(tmp_path / "a" / "sweep.csv") == read(tmp_path / "b" / "sweep.csv")


def test_runtime_needs_numpy_only(tmp_path):
    # the package imports and sweeps without pulling in scipy
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        "from decoq.runner import run\n"
        "from decoq.scenario import Scenario\n"
        "s = Scenario(kind='scaling_sweep', code='identity', plots=False,"
        " t_start=0.004, t_end=0.12, t_points=10, t_spacing='log')\n"
        f"run(s, out_dir={str(tmp_path)!r})\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "sweep.csv").exists()


def traced_bytes(call):
    """The result of ``call()`` and the peak and held bytes it adds, as tracemalloc sees numpy's array data."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - base, held - base


class TestJointArrays:
    """At d = 256 the interaction V is the one joint array the runner makes: H is built in V's own array."""

    WIDE = Scenario(kind="bound_check", code="five_qubit", env_dim=8, t_start=2e-3, t_end=1.6e-2, t_points=3, plots=False)
    UNIT = 256 * 256 * 16  # bytes of one complex d x d array

    def test_interaction_build_peaks_below_two_arrays(self):
        env = random_environment(5, 8, seed=1)
        v, peak, _ = traced_bytes(lambda: build_noncontact(env))
        assert v.shape == (256, 256)
        assert peak <= 1.75 * self.UNIT

    def test_materialize_holds_one_array(self):
        def joint():
            _, env, v, _ = decoq.runner._materialize(self.WIDE)
            return env, v, free_hamiltonian(env, onto=v)  # as the runner turns V into H

        (env, v, h), peak, held = traced_bytes(joint)
        assert h is v
        assert peak <= 1.75 * self.UNIT
        assert held <= 1.05 * self.UNIT
        assert h.tobytes() == (free_hamiltonian(env) + build_noncontact(env)).tobytes()
