"""Every bad scenario value ends in one stderr line and exit 2, 3 or 4.

Regression cases for counts past their sizing budgets and for values whose
arithmetic overflows, and a property test that runs the shipped scenarios
with hostile values put in through ``decoq run``.
"""

import contextlib
import io
import json
import math
import pathlib
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from decoq.cli import main
from decoq.errors import SizingError
from decoq.metrics import error_bound, stabilization_bound
from decoq.scenario import _SCHEMA, BOUNDS_BUDGET, ROW_BUDGET, SAMPLE_BUDGET, Scenario

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SCENARIO_DIR.glob("*.cfg"))}
HOSTILE = ("", "nan", "1e400", "1e308", "5e-324", "99999999999999999999", "0x10", "x1 x9")
HUGE = 99999999999999999999


def with_value(text: str, section: str, key: str, value: str) -> str:
    """``text`` with ``key = value`` in ``[section]``: the key's line replaced where the section sets it, else appended."""
    lines, current = text.splitlines(), None
    for i, line in enumerate(lines):
        bare = line.split("#", 1)[0].strip()
        if bare.startswith("[") and bare.endswith("]"):
            current = bare[1:-1].strip()
        elif current == section and bare.split("=", 1)[0].strip() == key:
            lines[i] = f"{key} = {value}"
            return "\n".join(lines) + "\n"
    return "\n".join(lines) + f"\n[{section}]\n{key} = {value}\n"


def run_cli(text: str) -> tuple[int, list[str], list[warnings.WarningMessage]]:
    """Exit code, stderr lines and warnings of ``decoq run`` on ``text``, in process, writing into a temporary folder."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = pathlib.Path(tmp) / "s.cfg"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--out", str(pathlib.Path(tmp) / "out"), "--no-svg"])
    return code, err.getvalue().splitlines(), caught


@pytest.mark.parametrize(
    "name, section, key, value, exit_code, message",
    [
        ("exponent_law", "time_grid", "points", HUGE, 3, "time points exceed the cap"),
        ("bound_check", "time_grid", "points", ROW_BUDGET + 1, 3, "time points exceed the cap"),
        ("periodic_correction", "correction", "cycles", HUGE, 3, "cycles exceed 262144 samples"),
        ("periodic_correction", "correction", "cycles", SAMPLE_BUDGET // 3, 3, "cycles exceed 262144 samples"),
        ("bounds_table", "bounds", "n_max", 20000, 3, "exceeds 268435456"),
        ("watchdog_baseline", "environment", "coupling_bound", 1e308, 4, "error: "),
        ("bound_check", "environment", "coupling_bound", 1e308, 4, "error: overflow"),
        ("bound_check", "time_grid", "end", 1e308, 4, "error: overflow"),
        ("periodic_correction", "correction", "dt", 1e308, 4, "error: overflow"),
    ],
    ids=[
        "points_huge", "points_over_rows", "cycles_huge", "cycles_over_samples", "bounds_span",
        "watchdog_coupling_1e308", "bound_check_coupling_1e308", "grid_end_1e308", "dt_1e308",
    ],
)
def test_hostile_value_ends_in_one_line(name, section, key, value, exit_code, message):
    code, err, caught = run_cli(with_value(SHIPPED[name], section, key, str(value)))
    assert (code, len(err), caught) == (exit_code, 1, [])
    assert message in err[0]


@pytest.mark.parametrize(
    "fields",
    [
        dict(kind="bounds_table", n_max=HUGE),
        dict(kind="bounds_table", n_max=2000, k_max=2000),
        dict(kind="periodic_correction", code="five_qubit", env_dim=128, halvings=4),
        dict(kind="scaling_sweep", code="five_qubit", env_dim=128),
    ],
    ids=["bounds_huge", "bounds_wide", "halvings_over_block", "points_over_block"],
)
def test_counts_over_budget_raise_before_anything_is_built(fields):
    with pytest.raises(SizingError):
        Scenario(**fields)


def test_non_utf8_scenario_file_ends_in_one_line(tmp_path, capsys):
    path = tmp_path / "s.cfg"
    path.write_bytes(SHIPPED["bounds_table"].encode("utf-8") + b"# \xff\xfe\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--no-svg"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: cannot read scenario file {path}: 'utf-8' codec can't decode byte 0xff")


def test_byte_order_mark_reads_as_the_plain_file(tmp_path, capsys):
    written = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        path = tmp_path / f"{name}.cfg"
        path.write_bytes(prefix + SHIPPED["bounds_table"].encode("utf-8"))
        out = tmp_path / name
        assert main(["run", str(path), "--out", str(out), "--no-svg"]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        outputs = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        written.append((outputs, manifest["files"], manifest["warnings"]))
    assert written[0] == written[1]
    assert written[0][0]


@pytest.mark.parametrize(
    "text, flags",
    [(with_value(SHIPPED["bounds_table"], "scenario", "out", ""), []), (SHIPPED["bounds_table"], ["--out", ""])],
    ids=["file", "flag"],
)
def test_empty_output_directory_ends_in_one_line(tmp_path, capsys, text, flags):
    path = tmp_path / "s.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--no-svg", *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: [scenario] out, the output directory (also set by --out), must not be empty"]


def test_budgets_admit_their_edges():
    Scenario(kind="scaling_sweep", code="identity", t_points=ROW_BUDGET)
    Scenario(kind="periodic_correction", cycles=SAMPLE_BUDGET // 3 - 1, halvings=2)
    Scenario(kind="bounds_table", n_min=BOUNDS_BUDGET // 2, n_max=BOUNDS_BUDGET // 2, k_max=0)  # 2 terms at n = 2^27


def test_bounds_command_is_sized_like_the_scenario(capsys):
    assert main(["bounds", "--n-max", "20000"]) == 3
    assert capsys.readouterr().err.startswith("sizing error: bounds table over n = 1..20000, k = 0..3")


def test_cold_environment_runs_without_overflow():
    # at d_e = 3, -beta i passes -1.8e308 at i = 2: that weight is exactly 0, not an overflow
    text = with_value(with_value(SHIPPED["exponent_law"], "environment", "d_e", "3"), "environment", "beta", "1e308")
    assert run_cli(text) == (0, [], [])


def test_envelopes_past_the_largest_float_are_inf():
    assert error_bound(1.0, 1, 1e308) == math.inf
    assert error_bound(1e-3, 1, 1e308) == math.inf  # (1e305)^4 overflows, where 1e305 itself does not
    assert stabilization_bound(1.0, 1e308, 5) == math.inf
    assert error_bound(1e-3, 1, 1.0) == 1e-3 ** 4 / 4  # unchanged below the overflow


_KEYS = [(section, key) for section, keys in _SCHEMA.items() for key in keys]


@settings(max_examples=200, deadline=5000, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(sorted(SHIPPED)),
    st.lists(st.tuples(st.sampled_from(_KEYS), st.sampled_from(HOSTILE)), min_size=1, max_size=2),
)
def test_hostile_values_exit_cleanly(name, edits):
    # every count value drawn here is either small or HUGE, which its guard stops before any build
    text = SHIPPED[name]
    for (section, key), value in edits:
        text = with_value(text, section, key, value)
    code, err, caught = run_cli(text)
    assert code in (0, 2, 3, 4)
    assert caught == []
    if code:
        assert len(err) == 1, err
