"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracing.py`` wraps named functions of hspstats in spans; a name
that the package no longer has would break only a traced benchmark run.
Here the tracer is installed around one ``moments`` command instead.
"""

import importlib
import sys
from pathlib import Path

from hspstats import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_a_cli_call(monkeypatch, capsys):
    # import the tracer from its directory without writing bytecode there
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")

    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._patched)
    try:
        status = cli.main(["moments", "--stat", "poisson", "--mu", "0.01", "--eta-h", "0.5",
                           "--eta-s", "0.5", "--dark", "1e-4"])
    finally:
        tracer.uninstall()
    assert status == 0 and capsys.readouterr().out

    names = {span[1] for span in tracer.spans}
    assert {"cli.main", "cli.cmd_moments", "analytic.moments_closed_form"} <= names
    # every traced name was wrapped in its own module, and every wrapper undone
    traced = {f"{layer}.{name}" for table in (tracing.SPANNED, tracing.COUNTED)
              for layer, fnames in table.items() for name in fnames}
    assert traced <= {f"{module.__name__.removeprefix('hspstats.')}.{attr}"
                      for module, attr, _ in patched}
    assert all(getattr(module, attr) is original for module, attr, original in patched)
