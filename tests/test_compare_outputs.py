import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_outputs.py"
SNAPSHOT = ROOT / "scripts" / "snapshot_outputs.py"
BYTES_AGAINST = ROOT / "scripts" / "bytes_against.py"

CSV = "t,E,ok\n1.0000000000000000e-03,2.0000000000000000e-06,true\n2.0000000000000000e-03,3.2000000000000000e-05,true\n"


def make_tree(root, csv_text, svg_text="<svg/>\n", duration=0.5, warnings=()):
    scenario = root / "sweep"
    scenario.mkdir(parents=True)
    (scenario / "sweep.csv").write_text(csv_text)
    (scenario / "sweep.svg").write_text(svg_text)
    manifest = {"duration_s": duration, "files": {"sweep.csv": "aa", "sweep.svg": "bb"}, "warnings": list(warnings)}
    (scenario / "manifest.json").write_text(json.dumps(manifest))
    return root


def compare(old, new):
    done = subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)], capture_output=True, text=True)
    return done.returncode, done.stdout.splitlines()


def test_identical_trees(tmp_path):
    old = make_tree(tmp_path / "old", CSV)
    new = make_tree(tmp_path / "new", CSV, duration=7.0)  # the run time is not compared
    assert compare(old, new) == (
        0,
        ["sweep/manifest.json: identical", "sweep/sweep.csv: identical", "sweep/sweep.svg: identical"],
    )


def test_perturbed_cell_reports_its_column(tmp_path):
    old = make_tree(tmp_path / "old", CSV)
    moved = CSV.replace("3.2000000000000000e-05,true", "3.2000000320000000e-05,false")
    new = make_tree(tmp_path / "new", moved, svg_text="<svg></svg>\n", warnings=["dropped 1 point"])
    status, lines = compare(old, new)
    assert status == 1
    assert lines == [
        "sweep/manifest.json: warnings differs",
        "sweep/sweep.csv: E 1.000e-08; ok text differs",
        "sweep/sweep.svg: bytes differ",
    ]


def test_file_in_one_tree_only(tmp_path):
    old = make_tree(tmp_path / "old", CSV)
    new = make_tree(tmp_path / "new", CSV)
    (new / "sweep" / "rates.csv").write_text("dt,rate\n")
    status, lines = compare(old, new)
    assert status == 1 and "sweep/rates.csv: only in NEW" in lines


def test_two_snapshots_compare_identical(tmp_path):
    for side in ("old", "new"):
        done = subprocess.run([sys.executable, str(SNAPSHOT), str(tmp_path / side)], capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
    status, lines = compare(tmp_path / "old", tmp_path / "new")
    assert status == 0
    shipped = {path.stem for path in (ROOT / "scenarios").glob("*.cfg")}
    assert {line.split("/")[0] for line in lines} == shipped | {"sweep", "wide_env", "periodic", "contact_sweep"}



def test_bytes_against_needs_one_revision():
    done = subprocess.run([sys.executable, str(BYTES_AGAINST)], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: python scripts/bytes_against.py REV")


@pytest.mark.skipif(not (ROOT / ".git").exists() or not shutil.which("git"), reason="needs a git checkout")
def test_bytes_against_unknown_revision_exits_2():
    done = subprocess.run([sys.executable, str(BYTES_AGAINST), "no-such-revision"], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("cannot archive 'no-such-revision': ")
