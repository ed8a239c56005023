"""The README's code runs as written, so a renamed or deleted public name
fails here instead of leaving the docs stale."""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from conftest import DATA

ROOT = Path(__file__).resolve().parent.parent


def test_the_readme_python_block_runs_cleanly(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    shutil.copy(DATA / "monoid.eqt", tmp_path / "monoid.eqt")
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "-c", block],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "record MonoidSig" in done.stdout
