"""Per-layer metrics of a traced run, and the probe pass behind them.

Times (``_ms``, ``_us``, ``_s``) are per call.  They are taken from the
calls the workload's traced rounds made; for a function the workload never
calls they come from the probe pass, which calls every layer once on small
inputs, so every time has a value on every workload.  Counts (``calls``,
``terms``, ``evaluations``) are per traced round of the workload itself and
read 0 where the workload does not call the function.

The ``cli.*`` and ``records.*`` metrics are always probes: fresh
interpreters for start-up and import, and in-process ``cli.main(argv)`` with
standard output captured for the commands and their records.
"""

import contextlib
import io
import re
import statistics
import subprocess
import sys
import time

import tracing

SIGNAL_PMF_CONFIGS = ("poisson", "thermal", "signal_filtered", "herald_filtered")
CLI_COMMANDS = ("pmf", "moments", "optimize", "sweep", "simulate")


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _spawn(args, env):
    subprocess.run([sys.executable, *args], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _numpy_import_ms(env) -> float:
    """numpy's cumulative import time under ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hspstats"],
                          env=env, check=True, capture_output=True, text=True)
    match = re.search(r"^import time:\s+\d+ \|\s+(\d+) \|\s+numpy$", proc.stderr, re.M)
    return int(match.group(1)) / 1e3


def cli_probes(calls, env) -> dict:
    """Start-up, import and in-process command times, and the records."""
    from hspstats import cli, records

    out = {
        "cli.interpreter_ms": 1e3 * _median_time(lambda: _spawn(["-c", "pass"], env), 5),
        "cli.import_ms": 1e3 * _median_time(
            lambda: _spawn(["-c", "import hspstats"], env), 5),
        "cli.import_numpy_ms": statistics.median(_numpy_import_ms(env) for _ in range(3)),
    }
    texts = []
    for command in CLI_COMMANDS:
        argv = next(argv for label, argv in calls if label.split(".")[0] == command)
        buf = io.StringIO()

        def run_main():
            buf.seek(0)
            buf.truncate()
            with contextlib.redirect_stdout(buf):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"cli.main{argv!r} failed")

        out[f"cli.main.{command}_ms"] = 1e3 * _median_time(run_main, 3)
        texts.append(buf.getvalue())

    parsed = [(records.parse(t), "json" if t.lstrip().startswith("{") else "csv")
              for t in texts]
    out["records.parse_us"] = 1e6 * _median_time(
        lambda: [records.parse(t) for t in texts], 20) / len(texts)
    out["records.render_us"] = 1e6 * _median_time(
        lambda: [records.render(r, fmt) for r, fmt in parsed], 20) / len(texts)
    out["records.bytes"] = sum(len(t.encode()) for t in texts) / len(texts)
    return out


def probe_spans(seed) -> tracing.Tracer:
    """One traced call of every spanned function, on small inputs."""
    import hspstats as hs
    from hspstats import verify

    tracer = tracing.Tracer()
    tracer.install()
    try:
        params = hs.SourceParams(0.5, 0.5, 0.5, 1e-4)
        pois = hs.PairStatistics.POISSON
        for stat, branch in (("poisson", "none"), ("thermal", "none"),
                             ("poisson", "signal"), ("poisson", "herald")):
            filt = hs.FilterSpec(hs.FilterBranch(branch), 0.3 if branch != "none" else 1.0)
            hs.moments_from_pmf(hs.signal_pmf(hs.PairStatistics(stat), params, filt))
        hs.moments_closed_form(params)
        hs.sweep(params, pois, hs.NO_FILTER, "mu", (1e-3, 1e-2, 1e-1, 1.0))
        hs.optimize_mu(0.5, 0.5, 1e-4)
        hs.conditional_pmf_series(pois, params)
        hs.conditional_pmf_series(hs.PairStatistics.THERMAL, params)
        hs.herald_filter_convolution_oracle(params, 0.3)
        verify.run_verification("tiny", seed=seed, with_mc=False)
        for index, (_, stat, p, filt) in enumerate(verify.mc_acceptance_matrix()):
            hs.simulate(hs.McConfig(params=p, stat=stat, filt=filt, trials=1 << 17,
                                    seed=seed * 1000 + index))
    finally:
        tracer.uninstall()
    return tracer


def _mc_keys() -> dict:
    import hspstats as hs
    from hspstats import verify

    return {name: tracing.config_key(hs.McConfig(params=p, stat=stat, filt=filt))
            for name, stat, p, filt in verify.mc_acceptance_matrix()}


class _Spans:
    """Spans of one tracer, selectable by name and attributes."""

    def __init__(self, tracer):
        self.spans = tracer.spans
        self.counts = tracer.counts
        self.own = tracing.self_times(tracer.spans)

    def select(self, name, **attrs):
        return [(s, own) for s, own in zip(self.spans, self.own)
                if s[1] == name and all(s[5].get(k) == v for k, v in attrs.items())]


def layer_metrics(tracer, probe_tracer, rounds, overhead_s, cli) -> dict:
    """Every per-layer metric, by name: ``tracer`` holds the spans
    of ``rounds`` traced rounds of the workload, ``probe_tracer`` those of
    :func:`probe_spans` and ``cli`` the result of :func:`cli_probes`."""
    out = dict(cli)
    work, probe = _Spans(tracer), _Spans(probe_tracer)

    def per_call(name, scale, own=False, **attrs):
        picked = work.select(name, **attrs) or probe.select(name, **attrs)
        return scale * statistics.fmean(o if own else s[3] - s[2] for s, o in picked)

    def per_round(name, attr=None, **attrs):
        picked = work.select(name, **attrs)
        total = len(picked) if attr is None else sum(s[5][attr] for s, _ in picked)
        return total / rounds

    for config in SIGNAL_PMF_CONFIGS:
        out[f"analytic.signal_pmf.{config}_ms"] = per_call(
            "analytic.signal_pmf", 1e3, config=config)
    out["analytic.signal_pmf.calls"] = per_round("analytic.signal_pmf")
    out["analytic.signal_pmf.terms"] = per_round("analytic.signal_pmf", "terms")
    out["analytic.xi.calls"] = work.counts["analytic.xi"] / rounds
    out["analytic.moments_closed_form_us"] = per_call("analytic.moments_closed_form", 1e6)
    out["analytic.moments_from_pmf_us"] = per_call("analytic.moments_from_pmf", 1e6)
    out["optimize.sweep.self_ms"] = per_call("optimize.sweep", 1e3, own=True)
    out["optimize.optimize_mu_ms"] = per_call("optimize.optimize_mu", 1e3)
    out["optimize.optimize_mu.evaluations"] = per_round("optimize.optimize_mu", "evaluations")
    series = "analytic.conditional_pmf_series"
    for stat in ("poisson", "thermal"):
        out[f"{series}.{stat}_ms"] = per_call(series, 1e3, config=stat)
        out[f"{series}.{stat}.calls"] = per_round(series, config=stat)
        out[f"{series}.{stat}.terms"] = per_round(series, "terms", config=stat)
    conv = "analytic.herald_filter_convolution_oracle"
    out[f"{conv}_ms"] = per_call(conv, 1e3)
    out[f"{conv}.calls"] = per_round(conv)
    out[f"{conv}.terms"] = per_round(conv, "terms")
    out["verify.run_verification_s"] = per_call("verify.run_verification", 1.0)
    for name, key in _mc_keys().items():
        picked = (work.select("montecarlo.simulate", config=key)
                  or probe.select("montecarlo.simulate", config=key))
        trials = sum(s[5]["trials"] for s, _ in picked)
        out[f"montecarlo.simulate.{name}_trials_per_s"] = trials / sum(
            s[3] - s[2] for s, _ in picked)
        out[f"montecarlo.simulate.{name}.herald_yield"] = sum(
            s[5]["heralded"] for s, _ in picked) / trials
    out["trace.overhead_s"] = overhead_s
    return out
