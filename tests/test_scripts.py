"""The scripts under scripts/ still load against the package and parse
their options; none of their searches or sweeps run here."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qclattice

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# every script is tested, so none can be added or deleted without its tests
NAMES = sorted(p.stem for p in SCRIPTS.glob("*.py"))


def _load(name: str):
    # imported under its own name, so the __main__ block does not run
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", NAMES)
def test_loads(name):
    assert callable(_load(name).main)


@pytest.mark.parametrize("name", NAMES)
def test_help_exits_zero(name):
    env = dict(os.environ)
    src_dir = str(Path(qclattice.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py"), "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
