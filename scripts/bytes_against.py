"""Check that this checkout writes the same output bytes as another revision.

    python scripts/bytes_against.py REV

Extracts revision REV of this repository with ``git archive`` into a
temporary directory and copies this checkout's ``snapshot_outputs.py`` into
that tree, so revisions older than the script still work.  Then it snapshots
both trees (``scripts/snapshot_outputs.py``, one BLAS thread each), compares
them with ``scripts/compare_outputs.py``, deletes the temporary directory and
exits with the comparison's status: 0 when every file is identical, 1
otherwise.  A REV that git cannot archive exits with status 2.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def bytes_against(rev: str) -> int:
    """Snapshot REV and this checkout into a temporary directory and return the comparison's exit status."""
    env = {**os.environ, **ONE_THREAD}
    with tempfile.TemporaryDirectory(prefix="bytes_against_") as tmp:
        old = os.path.join(tmp, "rev")
        os.makedirs(os.path.join(old, "scripts"))
        archive = os.path.join(tmp, "rev.tar")
        made = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", "-o", archive, rev], capture_output=True, text=True)
        if made.returncode:
            print(f"cannot archive {rev!r}: {made.stderr.strip()}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-xf", archive, "-C", old], check=True)
        shutil.copy(os.path.join(SCRIPTS, "snapshot_outputs.py"), os.path.join(old, "scripts", "snapshot_outputs.py"))
        for tree, out in ((old, "OLD"), (ROOT, "NEW")):
            snapshot = os.path.join(tree, "scripts", "snapshot_outputs.py")
            subprocess.run([sys.executable, snapshot, os.path.join(tmp, out)], env=env, check=True)
        compare = [sys.executable, os.path.join(SCRIPTS, "compare_outputs.py"), os.path.join(tmp, "OLD"), os.path.join(tmp, "NEW")]
        return subprocess.run(compare).returncode


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/bytes_against.py REV (a git revision of this repository)", file=sys.stderr)
        return 2
    return bytes_against(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
