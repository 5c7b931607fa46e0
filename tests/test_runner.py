import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

import decoq.cli
import decoq.metrics
import decoq.runner
from decoq.codes import asymptotic_bound_gap

from decoq.cli import main
from decoq.errors import ShapeError, SizingError
from decoq.runner import run, verify_manifest
from decoq.scenario import Scenario, TimeGrid, parse_scenario
from decoq.svg import AxesSpec, emit_svg

SWEEP = Scenario(
    kind="scaling_sweep",
    code="identity",
    seed=42,
    env_dim=2,
    time_grid=TimeGrid(0.004, 0.12, 10, "log"),
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

    def test_manifest_hashes_verify(self, tmp_path):
        run(SWEEP, out_dir=str(tmp_path))
        assert verify_manifest(str(tmp_path)) == []
        (tmp_path / "sweep.csv").write_text("tampered\n")
        assert verify_manifest(str(tmp_path)) == ["sweep.csv"]

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

        for name in ("build_code", "random_environment", "build_noncontact", "interaction_matrix"):
            monkeypatch.setattr(decoq.runner, name, built)
        with pytest.raises(SizingError, match="exceeds the cap"):
            s = Scenario(**{"code": "five_qubit", "env_dim": 8, "max_dim": 64, **fields})
            run(s, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()


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


class TestIntroKind:
    def test_one_readout_per_scenario(self, tmp_path, monkeypatch):
        calls = []
        original = decoq.metrics._logical_readout

        def counted(code):
            calls.append(code.name)
            return original(code)

        for module in (decoq.metrics, decoq.runner):  # the pipeline's default and the runner's shared call
            monkeypatch.setattr(module, "_logical_readout", counted)
        s = Scenario(kind="intro_example", code="repetition-5", time_grid=TimeGrid(0.02, 0.2, 14), plots=False)
        manifest = run(s, out_dir=str(tmp_path))
        assert set(manifest.files) == {"single_flip.csv", "pair_flip.csv", "fit_summary.csv"}
        assert calls == ["repetition-5"]


    def test_repetition_seven_single_flip_exponent(self, tmp_path):
        # k = 3: the single-flip error starts at t^8; the grid keeps E above FIT_FLOOR
        s = Scenario(
            kind="intro_example",
            code="repetition-7",
            time_grid=TimeGrid(0.05, 0.3, 14),
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
    def test_single_series_single_polyline(self, tmp_path):
        path = tmp_path / "one.svg"
        emit_svg([("E", [(0.1, 1.0), (0.2, 4.0)])], AxesSpec("t", "E"), str(path))
        assert path.read_text().count("<polyline") == 1

    def test_log_axes_drop_count(self, tmp_path):
        path = tmp_path / "log.svg"
        dropped = emit_svg(
            [("E", [(0.0, 1.0), (0.1, 0.0), (0.2, 4.0), (0.3, 9.0)])],
            AxesSpec("t", "E", xlog=True, ylog=True),
            str(path),
        )
        assert dropped == 2

    def test_empty_after_filter_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            emit_svg(
                [("E", [(0.0, 1.0)])],
                AxesSpec("t", "E", xlog=True),
                str(tmp_path / "x.svg"),
            )

    def test_byte_identical_rerun(self, tmp_path):
        series = [("a", [(1.0, 2.0), (2.0, 3.0)]), ("b", [(1.0, 5.0)])]
        axes = AxesSpec("x", "y", title="twice")
        emit_svg(series, axes, str(tmp_path / "p.svg"))
        emit_svg(series, axes, str(tmp_path / "q.svg"))
        assert read(tmp_path / "p.svg") == read(tmp_path / "q.svg")

    def test_runner_records_drop_warning(self, tmp_path):
        # a linear time grid starting at zero yields E = 0 there, which the
        # log-log plot must drop and report
        s = Scenario(
            kind="scaling_sweep",
            code="identity",
            env_dim=2,
            time_grid=TimeGrid(0.0, 0.12, 13, "linear"),
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
        ],
        ids=[
            "repeated_key", "repeated_pair", "reversed_pair", "self_pair", "sweep_points_5", "intro_points_7",
            "contact_weight_inf", "contact_qubit_9", "contact_repeated_qubit", "contact_no_terms",
            "intro_five_qubit", "intro_three_omegas", "intro_pair_1_6", "bound_check_contact",
            "bound_check_zero_coupling", "negative_seed", "negative_coupling",
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


def test_seed_override_changes_data(tmp_path):
    run(SWEEP, out_dir=str(tmp_path / "a"))
    run(SWEEP, out_dir=str(tmp_path / "b"), seed=43)
    assert read(tmp_path / "a" / "sweep.csv") != read(tmp_path / "b" / "sweep.csv")


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
        "from decoq.scenario import Scenario, TimeGrid\n"
        "s = Scenario(kind='scaling_sweep', code='identity', plots=False,"
        " time_grid=TimeGrid(0.004, 0.12, 10, 'log'))\n"
        f"run(s, out_dir={str(tmp_path)!r})\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "sweep.csv").exists()
