"""Every narrative script in ``demos/`` and the README's library example run
to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from micromorph.cli import main
from micromorph.config import parse_config

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demo scripts found"


def _run(script: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script, tmp_path):
    proc = _run(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    """The README's library example uses only names the package still has."""
    readme = (ROOT / "README.md").read_text()
    [block] = re.findall(
        r"^## Library quick start\n\n```python\n(.*?)^```", readme, re.S | re.M
    )
    script = tmp_path / "quick_start.py"
    script.write_text(block)
    proc = _run(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_ini_example_checks(tmp_path):
    """The README's configuration example parses and passes ``check``."""
    readme = (ROOT / "README.md").read_text()
    [block] = re.findall(r"^```ini\n(.*?)^```", readme, re.S | re.M)
    parse_config(block)
    config = tmp_path / "example.ini"
    config.write_text(block)
    out = tmp_path / "out"
    assert main(["check", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "moduli.csv").is_file()
