"""Spans around the public functions of hspstats, recorded from outside.

:class:`Tracer` replaces each traced function in every loaded ``hspstats``
module that holds it (so calls through ``analytic.signal_pmf`` and through
``from .analytic import signal_pmf`` are both seen) with a wrapper that
records a span: name, start, end, parent span and a few attributes of the
call.  Spans stay in memory until :meth:`Tracer.dump`.  ``analytic.xi`` runs
once per pmf term, so it is counted, not spanned.

Run as a script, this file is the traced form of one CLI call::

    PYTHONPATH=src python perfbench/tracing.py SPANS.json pmf --mu 0.01 ...

It installs the tracer, runs ``hspstats.cli.main(argv)``, writes the spans
to SPANS.json and exits with the CLI's status.
"""

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# module -> public functions wrapped in a span; "model" and "errors" hold
# value types and are not timed
SPANNED = {
    "cli": ("main", "cmd_pmf", "cmd_moments", "cmd_optimize", "cmd_sweep", "cmd_simulate"),
    "records": ("render", "parse"),
    "analytic": (
        "signal_pmf", "moments_closed_form", "moments_from_pmf",
        "conditional_pmf_series", "herald_filter_convolution_oracle",
    ),
    "optimize": ("sweep", "optimize_mu"),
    "montecarlo": ("simulate",),
    "verify": ("run_verification",),
}
COUNTED = {"analytic": ("xi",)}

# filter branch -> signal_pmf configuration label
_BRANCH_LABEL = {"signal": "signal_filtered", "herald": "herald_filtered"}


def _arg(args, kwargs, index, name):
    """Argument ``name`` of a call, passed by position ``index`` or by keyword."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _attributes(name, args, kwargs, result) -> dict:
    """Per-call attributes that the layer metrics need."""
    if name == "analytic.signal_pmf":
        branch = _arg(args, kwargs, 2, "filt")
        branch = "none" if branch is None else branch.branch.value
        config = _BRANCH_LABEL.get(branch, _arg(args, kwargs, 0, "stat").value)
        return {"config": config, "terms": len(result.probs)}
    if name == "analytic.conditional_pmf_series":
        return {"config": _arg(args, kwargs, 0, "stat").value, "terms": len(result.probs)}
    if name == "analytic.herald_filter_convolution_oracle":
        return {"terms": len(result.probs)}
    if name == "optimize.optimize_mu":
        return {"evaluations": result.evaluations}
    if name == "montecarlo.simulate":
        config = args[0] if args else kwargs["config"]
        return {"trials": result.trials_used, "heralded": result.heralded,
                "config": config_key(config)}
    return {}


def config_key(config) -> str:
    """Stable text key of a Monte Carlo configuration (without its seed)."""
    p = config.params
    return (f"{config.stat.value}|{config.filt.branch.value}|{config.filt.f!r}|"
            f"{p.mu!r}|{p.eta_h!r}|{p.eta_s!r}|{p.d_h!r}")


class Tracer:
    """In-memory span recorder for one process, single-threaded."""

    def __init__(self):
        self.spans = []          # [id, name, start, end, parent, attributes]
        self.counts = Counter()
        self._stack = []
        self._patched = []       # (module, attribute, original)

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(self.spans), name, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, {}]
            self.spans.append(span)
            self._stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            span[5] = _attributes(name, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap the traced functions wherever a loaded hspstats module holds them."""
        layers = {layer: importlib.import_module(f"hspstats.{layer}") for layer in SPANNED}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hspstats" or n.startswith("hspstats."))]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for layer, names in table.items():
                source = layers[layer]
                for fname in names:
                    original = getattr(source, fname)
                    wrapper = make(f"{layer}.{fname}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def extend(self, spans, counts):
        """Append spans recorded by another process, renumbering their ids."""
        offset = len(self.spans)
        for sid, name, start, end, parent, attrs in spans:
            self.spans.append([sid + offset, name, start, end,
                               None if parent is None else parent + offset, attrs])
        self.counts.update(counts)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans) -> list:
    """Self time of each span: its duration minus the time its children cover."""
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_self_seconds(spans) -> dict:
    """Total self time per layer (the module part of each span name)."""
    out = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        out[span[1].split(".")[0]] += own
    return dict(out)


def _main(argv):
    spans_path, cli_argv = argv[0], argv[1:]
    from hspstats import cli

    tracer = Tracer()
    tracer.install()
    try:
        status = cli.main(cli_argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
