"""One benchmark workload in its own process, from a single thread.

    python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                               --t0 T [--setup-only]

``run.py`` starts this from the checkout root.  The worker builds its
inputs from the seed, sets up (imports and one warm-up pass), then repeats
whole rounds of the same operations for about ``--seconds``.  Every
round runs the same calls on the same inputs, so later rounds must return
exactly the outputs of the first; the worker keeps the first round's
outputs for ``run.py`` to check and a digest of every round.  Between
rounds it starts fresh copies of itself with ``--setup-only`` to time more
set-ups.

With ``--trace 1`` untraced and traced rounds alternate (their difference
is the tracing overhead), and a probe pass then calls every layer once on
small inputs, so that each layer metric has a value on every workload.

The last line of standard output is one JSON object with the result.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import layers
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC)

# Monte Carlo configurations with mu above this count as bright
DIM_MU = 0.05
# set-up-only starts spread over the measured run, next to the run's own
# set-up: the machine's speed changes over seconds, and set-ups made one
# after another all share the speed of one moment
SETUPS = 8


def _logspace(start, stop, points):
    ratio = (stop / start) ** (1.0 / (points - 1))
    grid = [start * ratio**i for i in range(points)]
    grid[-1] = stop
    return tuple(grid)


def _rate(ops, cls):
    """Units of work per second over the operations of class ``cls``."""
    return (sum(u for c, _, u, _, _ in ops if c == cls)
            / sum(s for c, s, _, _, _ in ops if c == cls))


class Log:
    """Timings of one round: (class, seconds, units, in latency, ok) per op."""

    def __init__(self):
        self.ops = []

    def call(self, cls, units, in_latency, fn, *args):
        """Time one operation; an exception marks it failed instead of
        ending the run, so every round attempts the same operations."""
        start = time.perf_counter()
        try:
            out, ok = fn(*args), True
        except Exception:
            out, ok = {"error": traceback.format_exc()}, False
        self.ops.append((cls, time.perf_counter() - start, units, in_latency, ok))
        return out

    def latencies(self):
        return [s for _, s, _, lat, _ in self.ops if lat]

    def failed(self):
        return sum(1 for *_, ok in self.ops if not ok)


# ---------------------------------------------------------------- workloads

class CliCold:
    """Sequential ``python -m hspstats`` calls, one fresh interpreter each.

    light: calls per second of the commands that need no numpy (pmf,
    moments, optimize, sweep);
    heavy: ``simulate`` calls per second; latency: every call."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.params = {
            "mu": 10 ** rng.uniform(-3, -1), "eta_h": rng.uniform(0.3, 0.9),
            "eta_s": rng.uniform(0.3, 0.9), "d_h": 10 ** rng.uniform(-5, -3),
            "f": rng.uniform(0.05, 0.5),
        }
        self.sim_params = dict(self.params, mu=10 ** rng.uniform(-2, -1))
        self.sim_seed = seed
        self.calls = self._calls()
        self.tracer = None

    @staticmethod
    def _physics(p):
        return ["--mu", repr(p["mu"]), "--eta-h", repr(p["eta_h"]),
                "--eta-s", repr(p["eta_s"]), "--dark", repr(p["d_h"])]

    def _calls(self):
        p, f = self._physics(self.params), repr(self.params["f"])
        configs = {
            "poisson": ["--stat", "poisson"],
            "thermal": ["--stat", "thermal"],
            "signal_filtered": ["--stat", "poisson", "--filter", "signal", "--f", f],
            "herald_filtered": ["--stat", "poisson", "--filter", "herald", "--f", f],
        }
        calls = [(f"pmf.{name}.{fmt}", ["pmf", *flags, *p, "--format", fmt])
                 for name, flags in configs.items() for fmt in ("csv", "json")]
        calls += [
            ("moments", ["moments", "--stat", "poisson", *p]),
            ("optimize", ["optimize", "--eta-h", "0.5", "--eta-s", "0.5", "--dark", "1e-4",
                          "--mu-lo", "1e-5", "--mu-hi", "1"]),
            ("sweep", ["sweep", "--stat", "poisson", *p, "--axis", "mu",
                       "--logspace", "1e-4", "1", "20", "--format", "json"]),
            ("simulate", ["simulate", "--stat", "poisson", *self._physics(self.sim_params),
                          "--trials", "200000", "--seed", str(self.sim_seed),
                          "--format", "json"]),
        ]
        return calls

    def inputs(self):
        return {"params": self.params, "sim_params": self.sim_params,
                "sim_seed": self.sim_seed, "sim_trials": 200000,
                "calls": [label for label, _ in self.calls]}

    def _run(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "hspstats", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "tracing.py"), self._spans_path(), *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout

    def _spans_path(self):
        return os.path.join(OUT, f"cli-child-{os.getpid()}.json")

    def setup(self):
        self._run(self.calls[0][1])

    def start_trace(self, tracer):
        """Run the following calls through the traced CLI wrapper."""
        self.tracer = tracer

    def stop_trace(self, tracer):
        self.tracer = None

    def round(self, log):
        outputs = {}
        for label, argv in self.calls:
            cls = "heavy" if label == "simulate" else "light"
            outputs[label] = log.call(cls, 1, True, self._run, argv)
            if self.tracer is not None and os.path.exists(self._spans_path()):
                with open(self._spans_path(), encoding="utf-8") as fh:
                    child = json.load(fh)
                self.tracer.extend(child["spans"], child["counts"])
                os.remove(self._spans_path())
        return outputs

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class InProcess:
    """A workload that calls hspstats in this process."""

    def setup(self):
        import hspstats
        from hspstats import verify

        self.hs, self.verify = hspstats, verify
        self.warm_up()

    def start_trace(self, tracer):
        tracer.install()

    def stop_trace(self, tracer):
        tracer.uninstall()

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class DesignSweep(InProcess):
    """The paper's design study: sweeps along mu and f for the four
    configurations at several loss and dark-count settings, and optimize_mu
    over a grid of (eta_h, eta_s, d_h).

    light: unfiltered sweep points per second; heavy: filtered sweep points
    per second; latency: the optimize_mu grid of a round."""

    MU_GRID = _logspace(1e-4, 20.0, 32)
    F_GRID = _logspace(0.05, 1.0, 12)
    CONFIGS = ("poisson", "thermal", "signal_filtered", "herald_filtered")

    def __init__(self, seed):
        # eta_s, f and the base mu set the pmf lengths, hence the cost of a
        # round: they stay near fixed levels so that seeds change the inputs
        # but not the amount of work
        rng = random.Random(seed)
        self.settings = [
            {"mu": mu * rng.uniform(0.98, 1.02), "eta_h": min(1.0, eh * rng.uniform(0.9, 1.1)),
             "eta_s": es * rng.uniform(0.99, 1.01), "d_h": d * 10 ** rng.uniform(-0.3, 0.3),
             "f": f * rng.uniform(0.99, 1.01)}
            for mu, eh, es, d, f in ((0.05, 0.3, 0.5, 1e-5, 0.2), (0.3, 0.6, 0.7, 1e-4, 0.4),
                                     (1.5, 0.9, 0.9, 1e-3, 0.6))
        ]
        self.opt_grid = [
            {"eta_h": min(1.0, eh * rng.uniform(0.9, 1.1)),
             "eta_s": min(1.0, es * rng.uniform(0.9, 1.1)),
             "d_h": d * 10 ** rng.uniform(-0.2, 0.2)}
            for eh in (0.25, 0.5, 0.9) for es in (0.25, 0.5, 0.9) for d in (1e-5, 1e-4, 1e-3)
        ]

    def inputs(self):
        return {"settings": self.settings, "opt_grid": self.opt_grid,
                "mu_grid": self.MU_GRID, "f_grid": self.F_GRID}

    def warm_up(self):
        for index in range(len(self.settings)):
            for config in self.CONFIGS:
                self._sweep(index, config, "mu", self.MU_GRID[:4])
        self._optimize(self.opt_grid[0])

    def _sweep(self, index, config, axis, grid):
        hs, s = self.hs, self.settings[index]
        branch = {"signal_filtered": "signal", "herald_filtered": "herald"}.get(config, "none")
        stat = hs.PairStatistics.THERMAL if config == "thermal" else hs.PairStatistics.POISSON
        filt = hs.FilterSpec(hs.FilterBranch(branch), s["f"] if branch != "none" else 1.0)
        params = hs.SourceParams(s["mu"], s["eta_h"], s["eta_s"], s["d_h"])
        result = hs.sweep(params, stat, filt, axis, grid)
        return {
            "config": config, "axis": axis, "setting": index,
            "rows": [[r.value, r.error] if r.error is not None else
                     [r.value, r.error, r.moments.mean, r.moments.variance, *r.pmf_head]
                     for r in result.rows],
        }

    def _optimize(self, point):
        r = self.hs.optimize_mu(point["eta_h"], point["eta_s"], point["d_h"])
        return {"mu_opt": r.mu_opt, "fano_opt": r.fano_opt, "evaluations": r.evaluations}

    def round(self, log):
        sweeps = []
        for index in range(len(self.settings)):
            for config in self.CONFIGS:
                cls = "heavy" if config.endswith("filtered") else "light"
                for axis, grid in (("mu", self.MU_GRID), ("f", self.F_GRID)):
                    sweeps.append(log.call(cls, len(grid), False,
                                           self._sweep, index, config, axis, grid))
        # one operation: a single optimize_mu run takes about 0.1 ms, too
        # short to time steadily on its own
        optima = log.call(None, len(self.opt_grid), True,
                          lambda: [self._optimize(p) for p in self.opt_grid])
        return {"sweeps": sweeps, "optima": optima}


class OracleScan(InProcess):
    """The cross-checks behind the closed forms: ``run_verification`` over
    the sampling box (mu <= 1) and a high-mu corner beyond it, where each
    configuration runs the four closed forms, both series oracles and the
    convolution oracle.

    light: box configurations per second; heavy: corner configurations per
    second; latency: one corner configuration."""

    CORNER = [(mu, f) for mu in (5.0, 10.0, 20.0) for f in (0.5, 1.0)]
    # (eta_h, eta_s) levels, cycled over the corner
    LEVELS = ((0.4, 0.9), (0.8, 0.2), (0.6, 0.5))
    # the box is verified this many times per round: one pass takes about
    # 0.2 s, and a run of 25 s holds only about seven rounds
    BOX_PASSES = 3

    def __init__(self, seed):
        # eta_h and eta_s change the oracles' work on a corner configuration
        # by up to 60%: they stay within 3% of fixed levels so that seeds
        # change the inputs but not the amount of work; d_h barely changes it
        rng = random.Random(seed)
        self.corner = [
            {"mu": mu, "f": f, "eta_h": eh * rng.uniform(0.97, 1.03),
             "eta_s": es * rng.uniform(0.97, 1.03), "d_h": 10 ** rng.uniform(-6, -2)}
            for (mu, f), (eh, es) in zip(self.CORNER, self.LEVELS * 2)
        ]

    def inputs(self):
        return {"corner": self.corner}

    def warm_up(self):
        self.verify.run_verification("tiny", with_mc=False)
        self._corner({"mu": 1.0, "f": 0.5, "eta_h": 0.5, "eta_s": 0.5, "d_h": 1e-4})

    def _verify(self):
        # the box sample is verify's own default: its cost depends on the
        # sampled mu values, and 200 configurations do not average that out
        results = self.verify.run_verification("default", with_mc=False)
        return [[r.check, r.cases, r.max_deviation, r.tolerance, r.passed] for r in results]

    def _corner(self, c):
        hs = self.hs
        params = hs.SourceParams(c["mu"], c["eta_h"], c["eta_s"], c["d_h"])
        pois, ther = hs.PairStatistics.POISSON, hs.PairStatistics.THERMAL
        sig = hs.FilterSpec(hs.FilterBranch.SIGNAL, c["f"])
        her = hs.FilterSpec(hs.FilterBranch.HERALD, c["f"])
        pmfs = {
            "poisson": hs.signal_pmf(pois, params),
            "thermal": hs.signal_pmf(ther, params),
            "signal_filtered": hs.signal_pmf(pois, params, sig),
            "herald_filtered": hs.signal_pmf(pois, params, her),
            "series.poisson": hs.conditional_pmf_series(pois, params),
            "series.thermal": hs.conditional_pmf_series(ther, params),
            "convolution.herald_filtered": hs.herald_filter_convolution_oracle(params, c["f"]),
        }
        return {k: [list(p.probs), p.tail_bound] for k, p in pmfs.items()}

    def round(self, log):
        box = self.verify.MATRIX_SIZES["default"][0]
        checks = [log.call("light", box, False, self._verify) for _ in range(self.BOX_PASSES)]
        corner = [log.call("heavy", 1, True, self._corner, c) for c in self.corner]
        return {"verify": checks, "corner": corner}


class McSimulate(InProcess):
    """``simulate`` on the six configurations of the verify acceptance
    matrix, 2^21 trials each.

    light: trials per second of the five dim configurations (mu <= 0.05);
    heavy: trials per second of bright_source; latency: one simulate call."""

    TRIALS = 1 << 21

    def __init__(self, seed):
        self.seed = seed

    def inputs(self):
        return {"seed": self.seed, "trials": self.TRIALS}

    def warm_up(self):
        self.matrix = self.verify.mc_acceptance_matrix()
        for index in range(len(self.matrix)):
            self._simulate(index, 1 << 16)

    def _simulate(self, index, trials):
        _, stat, params, filt = self.matrix[index]
        config = self.hs.McConfig(params=params, stat=stat, filt=filt, trials=trials,
                                  seed=self.seed * 1000 + index)
        est = self.hs.simulate(config)
        return {
            "stat": stat.value, "branch": filt.branch.value, "f": filt.f,
            "mu": params.mu, "eta_h": params.eta_h, "eta_s": params.eta_s, "d_h": params.d_h,
            "trials": est.trials_used, "heralded": est.heralded, "seed": config.seed,
            "counts": [round(p * est.heralded) for p in est.pmf_hat],
        }

    def round(self, log):
        outputs = {}
        for index, (name, _, params, _) in enumerate(self.matrix):
            cls = "light" if params.mu <= DIM_MU else "heavy"
            outputs[name] = log.call(cls, self.TRIALS, True, self._simulate, index, self.TRIALS)
        return outputs


WORKLOADS = {
    "cli_cold": CliCold,
    "design_sweep": DesignSweep,
    "oracle_scan": OracleScan,
    "mc_simulate": McSimulate,
}


# ---------------------------------------------------------------- measuring

def _digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def setup_seconds(args) -> float:
    """Set-up time of a fresh worker, from spawn to the end of its warm-up."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
         "--t0", repr(t0)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def measure(workload, seconds, setup, tracer=None):
    """Whole rounds while the next one is expected to end within
    ``seconds``, and at least two, so that every run replays its inputs;
    with a tracer, untraced and traced rounds alternate.  Between rounds,
    ``setup()`` is called :data:`SETUPS` times at even intervals of the run
    (any still due after the last round follow it)."""
    rounds, first, digests, setups = [], None, [], []
    due = [seconds * (i + 0.5) / SETUPS for i in range(SETUPS)]
    minimum = 2
    start = time.perf_counter()
    while len(rounds) < minimum or (time.perf_counter() - start
                                    + statistics.fmean(r["wall_s"] for r in rounds) <= seconds):
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            workload.start_trace(tracer)
        log = Log()
        t = time.perf_counter()
        try:
            outputs = workload.round(log)
        finally:
            if traced:
                workload.stop_trace(tracer)
        rounds.append({"wall_s": time.perf_counter() - t, "traced": traced, "log": log})
        digests.append(_digest(outputs))
        if first is None:
            first = outputs
        while due and time.perf_counter() - start >= due[0]:
            due.pop(0)
            setups.append(setup())
    setups += [setup() for _ in due]
    return rounds, first, digests, setups


def end_to_end(rounds):
    """metric -> (value, samples).

    Every round runs the same operations in the same order, so each
    operation has one time per round.  Each operation counts with its
    fastest time over the rounds: interference from the rest of the
    machine only adds time, and on the machine this was built on the same
    round ran up to twice as slow at some moments as at others, so the
    fastest time is the steadiest estimate of what the program costs.
    Round time and the light and heavy rates are computed from these
    times; the latency is their median over the operations that count as
    latency.  The samples, one per round (or per operation), show the
    spread within the run."""
    ops = [r["log"].ops for r in rounds]
    best = [(col[0][0], min(op[1] for op in col), col[0][2], col[0][3], True)
            for col in zip(*ops)]
    latencies = [1e3 * s for _, s, _, lat, _ in best if lat]
    return {
        "wall_s": (sum(op[1] for op in best), [r["wall_s"] for r in rounds]),
        "op_p50_ms": (statistics.median(latencies),
                      [1e3 * s for r in rounds for s in r["log"].latencies()]),
        "light_ops_per_s": (_rate(best, "light"), [_rate(o, "light") for o in ops]),
        "heavy_ops_per_s": (_rate(best, "heavy"), [_rate(o, "heavy") for o in ops]),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="perf_counter reading taken by the parent just before spawning")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    # numpy seeds must be non-negative; any integer seed maps to one
    seed = args.seed % (1 << 32)
    workload = WORKLOADS[args.workload](seed)
    workload.setup()
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    rounds, outputs, digests, setups = measure(workload, args.seconds,
                                               lambda: setup_seconds(args), tracer)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setups_s": [setup_s, *setups],
        "inputs": workload.inputs(),
        "outputs": outputs,
        "digests": digests,
        "attempted": sum(len(r["log"].ops) for r in rounds),
        "failed": sum(r["log"].failed() for r in rounds),
        "rounds": len(rounds),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    plain = [r for r in rounds if not r["traced"]]
    result["end_to_end"] = end_to_end(plain)
    if tracer is not None:
        traced = [r for r in rounds if r["traced"]]
        overhead = end_to_end(traced)["wall_s"][0] - end_to_end(plain)["wall_s"][0]
        probe = layers.probe_spans(seed)
        cli = layers.cli_probes(CliCold(seed).calls, CHILD_ENV)
        result["layers"] = layers.layer_metrics(tracer, probe, len(traced), overhead, cli)
        result["layer_self_ms_per_round"] = {
            layer: 1e3 * seconds / len(traced)
            for layer, seconds in sorted(tracing.layer_self_seconds(tracer.spans).items())
        }
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
        probe.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}-probe.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
