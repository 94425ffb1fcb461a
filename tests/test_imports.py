"""scipy is imported on the first sparse operation, not with the package.

The test process has imported scipy already, so every check runs in a fresh
interpreter under ``-X importtime``, which lists each module it imports.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SMALL = """
[material]
variant = full
c_e = isotropic 1.0 -1.0

[mesh]
resolution = 2 2 2

[analysis]
k_samples = 0.0 0.5 1.0 1.5 2.0
"""


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    imported = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    }
    return proc, {name for name in imported if name.split(".")[0] == "scipy"}


def test_import_and_parse_need_no_scipy(tmp_path):
    code = (
        "import micromorph\nfrom micromorph.config import parse_config\n"
        f"parse_config({SMALL!r})\n"
    )
    proc, scipy_modules = _run(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert scipy_modules == set()


def test_dispersion_command_needs_no_scipy(tmp_path):
    (tmp_path / "small.ini").write_text(SMALL)
    proc, scipy_modules = _run(
        ["-m", "micromorph", "dispersion", "--config", "small.ini", "--out", "o"],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert scipy_modules == set()
    assert (tmp_path / "o" / "dispersion.csv").is_file()


def test_check_command_imports_scipy_on_first_use(tmp_path):
    (tmp_path / "small.ini").write_text(SMALL)
    proc, scipy_modules = _run(
        ["-m", "micromorph", "check", "--config", "small.ini", "--out", "o"],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "scipy.sparse.linalg" in scipy_modules
    assert (tmp_path / "o" / "moduli.csv").is_file()
