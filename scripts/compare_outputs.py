"""Compare two decoq output trees, one directory per scenario.

    python scripts/compare_outputs.py OLD NEW

Every CSV and SVG under either tree is reported as identical, or, for a CSV
that differs, with the largest relative difference |new - old| / max(|old|,
|new|) of each numeric column that moved (a column of text cells that moved
is reported as such).  ``manifest.json`` is compared on its ``files`` and
``warnings`` only, since its duration and output path differ between any
two runs.  The exit status is 0 when nothing differs and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np


def _files(root: str) -> set[str]:
    """Paths of the CSV, SVG and manifest files under ``root``, relative to it."""
    found = set()
    for folder, _, names in os.walk(root):
        for name in names:
            if name.endswith((".csv", ".svg")) or name == "manifest.json":
                found.add(os.path.relpath(os.path.join(folder, name), root))
    return found


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _numeric(cells: list[str]) -> np.ndarray | None:
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        return None


def _csv_moves(old: bytes, new: bytes) -> list[str]:
    """One note per column of two CSV texts that differ: its largest relative move, or that its text moved."""
    old_rows = [line.split(",") for line in old.decode("utf-8").splitlines()]
    new_rows = [line.split(",") for line in new.decode("utf-8").splitlines()]
    if old_rows[:1] != new_rows[:1] or len(old_rows) != len(new_rows):
        return ["header or row count differs"]
    if any(len(row) != len(old_rows[0]) for row in old_rows + new_rows):
        return ["ragged rows"]
    notes = []
    for name, a, b in zip(old_rows[0], zip(*old_rows[1:]), zip(*new_rows[1:])):
        if a == b:
            continue
        x, y = _numeric(list(a)), _numeric(list(b))
        if x is None or y is None:
            notes.append(f"{name} text differs")
            continue
        scale = np.maximum(np.abs(x), np.abs(y))
        rel = np.divide(np.abs(y - x), scale, out=np.zeros_like(scale), where=scale > 0.0)
        notes.append(f"{name} {float(rel.max()):.3e}")
    return notes


def _manifest_moves(old: bytes, new: bytes) -> list[str]:
    a, b = json.loads(old), json.loads(new)
    return [f"{key} differs" for key in ("files", "warnings") if a.get(key) != b.get(key)]


def compare(old_root: str, new_root: str) -> list[str]:
    """One report line per file of either tree, in path order."""
    old_files, new_files = _files(old_root), _files(new_root)
    lines = []
    for rel in sorted(old_files | new_files):
        if rel not in new_files or rel not in old_files:
            lines.append(f"{rel}: only in {'OLD' if rel in old_files else 'NEW'}")
            continue
        old, new = _read(os.path.join(old_root, rel)), _read(os.path.join(new_root, rel))
        if rel.endswith("manifest.json"):
            moves = _manifest_moves(old, new)
        elif old == new:
            moves = []
        elif rel.endswith(".csv"):
            moves = _csv_moves(old, new)
        else:
            moves = ["bytes differ"]
        lines.append(f"{rel}: {'; '.join(moves) if moves else 'identical'}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(path) for path in argv):
        print("usage: python scripts/compare_outputs.py OLD NEW (two output directories)", file=sys.stderr)
        return 2
    lines = compare(*argv)
    print("\n".join(lines))
    return 0 if all(line.endswith(": identical") for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
