"""Each demo script runs to completion against the public API, which is
exactly what the modules' ``__all__`` lists."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hspstats

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    src = str(Path(hspstats.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_package_exports_exactly_the_modules_all():
    modules = ("analytic", "model", "montecarlo", "optimize", "verify")
    listed = set().union(*(importlib.import_module(f"hspstats.{m}").__all__ for m in modules))
    exported = {name for name, value in vars(hspstats).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)
                and not (isinstance(value, type) and issubclass(value, hspstats.HspsError))}
    assert exported == listed
