import math
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hspstats.montecarlo as mc
from hspstats import (
    NO_FILTER,
    FilterBranch,
    FilterSpec,
    McConfig,
    NoHeraldSamplesError,
    PairStatistics,
    SourceParams,
    ValidationError,
    herald_click_probability,
    signal_pmf,
    simulate,
)
from hspstats.verify import mc_acceptance_matrix, mc_deviation

REF = SourceParams(0.01, 0.5, 0.5, 1e-4)
POISSON = PairStatistics.POISSON
THERMAL = PairStatistics.THERMAL

CONFIGS = [
    (POISSON, NO_FILTER),
    (THERMAL, NO_FILTER),
    (POISSON, FilterSpec(FilterBranch.SIGNAL, 0.1)),
    (POISSON, FilterSpec(FilterBranch.HERALD, 0.1)),
]


class TestConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValidationError):
            McConfig(params=REF, trials=0)

    def test_rejects_small_cap(self):
        with pytest.raises(ValidationError):
            McConfig(params=REF, n_cap=4)

    def test_rejects_seed_outside_unsigned_64_bits(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValidationError):
                McConfig(params=REF, seed=seed)

    def test_rejects_mu_beyond_the_count_range(self):
        McConfig(params=SourceParams(mc.MAX_MU, 0.5, 0.5, 0.0))
        with pytest.raises(ValidationError):
            McConfig(params=SourceParams(1e300, 0.5, 0.5, 0.0))

    @pytest.mark.parametrize("field,value", [("trials", 2.5e5), ("trials", 1000.0),
                                             ("n_cap", 8.5), ("seed", 1.5), ("seed", "1")])
    def test_rejects_non_integral_counts_and_seed(self, field, value):
        with pytest.raises(ValidationError, match=field):
            McConfig(params=REF, **{field: value})

    def test_accepts_numpy_integers(self):
        config = McConfig(params=REF, trials=np.int64(1000), n_cap=np.int32(8),
                           seed=np.uint64(2**64 - 1))
        assert simulate(config) == simulate(McConfig(params=REF, trials=1000, n_cap=8,
                                                     seed=2**64 - 1))

    def test_rejects_thermal_filter(self):
        with pytest.raises(ValidationError):
            McConfig(params=REF, stat=THERMAL, filt=FilterSpec(FilterBranch.HERALD, 0.5))


class TestDeterminism:
    def test_bit_identical_replay(self):
        config = McConfig(params=REF, trials=200_000, seed=1234)
        a = simulate(config)
        b = simulate(config)
        assert a == b

    def test_seed_changes_stream(self):
        a = simulate(McConfig(params=REF, trials=200_000, seed=1))
        b = simulate(McConfig(params=REF, trials=200_000, seed=2))
        assert a.pmf_hat != b.pmf_hat

    def test_chunked_merge_independent_of_grouping(self, monkeypatch):
        # simulate() must equal any grouping of its per-chunk histograms,
        # which is what distributing chunks over workers would produce
        monkeypatch.setattr(mc, "CHUNK_TRIALS", 1000)
        config = McConfig(params=REF, trials=3500, seed=77)
        est = simulate(config)

        pieces = [mc._simulate_chunk(config, i, size) for i, size in mc._chunks(3500)]
        assert [size for _, size in mc._chunks(3500)] == [1000, 1000, 1000, 500]
        for split in ([[0], [1], [2], [3]], [[0, 1], [2, 3]], [[0, 1, 2, 3]]):
            hist = np.zeros(config.n_cap + 1, dtype=np.int64)
            heralds = 0
            for group in split:
                for i in group:
                    hist += pieces[i][0]
                    heralds += pieces[i][1]
            assert heralds == est.heralded
            assert (hist / heralds == np.asarray(est.pmf_hat)).all()

    @pytest.mark.parametrize("stat,filt", CONFIGS)
    def test_threaded_run_equals_serial_fold(self, monkeypatch, stat, filt):
        # three workers, eight chunks, the last one partial: whatever the
        # machine, simulate() must equal the in-order fold of its chunks
        monkeypatch.setattr(mc, "CHUNK_TRIALS", 1000)
        monkeypatch.setattr(mc, "_cpus", lambda: 3)
        config = McConfig(params=SourceParams(0.5, 0.5, 0.5, 1e-2), stat=stat, filt=filt,
                          trials=7321, seed=88)
        assert [size for _, size in mc._chunks(config.trials)] == [1000] * 7 + [321]

        hist = np.zeros(config.n_cap + 1, dtype=np.int64)
        heralds = 0
        for index, size in mc._chunks(config.trials):
            h, k = mc._simulate_chunk(config, index, size)
            hist += h
            heralds += k
        est = simulate(config)
        assert est.heralded == heralds
        assert est.pmf_hat == tuple((hist / heralds).tolist())


def _run_python(code: str, timeout: float) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    package; on timeout kill its whole process group, forks included, and
    fail."""
    src = str(Path(mc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"no exit within {timeout} s")
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


class TestThreads:
    FORK = """
import os, sys
import hspstats.montecarlo as mc
from hspstats import McConfig, SourceParams, simulate
mc.CHUNK_TRIALS = 4096
mc._cpus = lambda: 2
config = McConfig(params=SourceParams(0.5, 0.5, 0.5, 1e-3), trials=5 * 4096 + 7, seed=21)
parent = simulate(config)
pid = os.fork()
if pid == 0:
    try:
        os._exit(0 if simulate(config) == parent else 1)
    finally:
        os._exit(2)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_forked_child_still_simulates(self):
        # the child inherits the parent's pool object but none of its threads
        proc = _run_python(self.FORK, timeout=30)
        assert proc.returncode == 0, proc.stderr

    def test_one_chunk_stays_on_the_calling_thread(self):
        # what a CLI call pays for: no concurrent.futures import, no thread
        proc = _run_python("""
import sys, threading
from hspstats import McConfig, SourceParams, simulate
simulate(McConfig(params=SourceParams(0.01, 0.5, 0.5, 1e-4), trials=200_000, seed=1))
print("concurrent.futures" in sys.modules, threading.active_count())
""", timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "1"]

    def test_bright_chunk_working_set(self):
        # each chunk in flight holds its peak; at the parent it was 25.1 MiB
        _, stat, params, filt = next(c for c in mc_acceptance_matrix()
                                     if c[0] == "bright_source")
        config = McConfig(params=params, stat=stat, filt=filt, trials=1 << 20, seed=3)
        tracemalloc.start()
        try:
            mc._simulate_chunk(config, 0, 1 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestExactCases:
    def test_vacuum_certain_dark(self):
        est = simulate(McConfig(params=SourceParams(0.0, 0.5, 0.5, 1.0), trials=50_000))
        assert est.herald_rate == 1.0
        assert est.pmf_hat[0] == 1.0
        assert sum(est.pmf_hat[1:]) == 0.0

    def test_perfect_source_never_heralds_vacuum(self):
        est = simulate(
            McConfig(params=SourceParams(0.01, 1.0, 1.0, 0.0), trials=400_000, seed=5)
        )
        assert est.pmf_hat[0] == 0.0

    def test_no_herald_samples(self):
        with pytest.raises(NoHeraldSamplesError) as info:
            simulate(McConfig(params=SourceParams(0.0, 0.5, 0.5, 0.0), trials=1000))
        assert info.value.herald_rate == 0.0

    def test_normalization_and_stderr(self):
        est = simulate(McConfig(params=REF, trials=300_000, seed=9))
        assert math.fsum(est.pmf_hat) == pytest.approx(1.0, abs=1e-12)
        n = est.pmf_hat.index(max(est.pmf_hat))
        expected = math.sqrt(est.pmf_hat[n] * (1 - est.pmf_hat[n]) / est.heralded)
        assert est.stderr[n] == pytest.approx(expected, rel=1e-12)


class TestAgreementWithClosedForm:
    @pytest.mark.parametrize(
        "stat,filt",
        [
            (POISSON, None),
            (THERMAL, None),
            (POISSON, FilterSpec(FilterBranch.SIGNAL, 0.1)),
            (POISSON, FilterSpec(FilterBranch.HERALD, 0.1)),
        ],
    )
    def test_within_five_sigma(self, stat, filt):
        filt = filt or FilterSpec()
        config = McConfig(params=REF, stat=stat, filt=filt, trials=800_000, seed=42)
        est = simulate(config)
        pmf = signal_pmf(stat, REF, filt)
        for n in range(len(est.pmf_hat) - 1):
            p = pmf.prob(n)
            if p < 1e-6:
                continue
            sigma = math.sqrt(p * (1 - p) / est.heralded)
            assert abs(est.pmf_hat[n] - p) <= 5 * sigma

    def test_clamp_mass_negligible_at_defaults(self):
        est = simulate(McConfig(params=REF, trials=1_000_000, seed=3))
        assert est.cap_mass < 1e-9

    def test_clamp_mass_accounted_when_forced(self):
        params = SourceParams(30.0, 0.5, 1.0, 1.0)
        est = simulate(McConfig(params=params, trials=20_000, n_cap=8, seed=3))
        assert est.cap_mass > 0.5
        assert est.pmf_hat[8] == est.cap_mass
        assert math.fsum(est.pmf_hat) == pytest.approx(1.0, abs=1e-12)


class TestHeraldRate:
    @staticmethod
    def rate_and_error(config):
        rate = simulate(config).herald_rate
        return rate, math.sqrt(rate * (1.0 - rate) / config.trials)

    def test_certain_dark(self):
        rate, err = self.rate_and_error(
            McConfig(params=SourceParams(0.5, 0.5, 0.5, 1.0), trials=10_000)
        )
        assert rate == 1.0
        assert err == 0.0

    def test_dark_counts_only(self):
        config = McConfig(params=SourceParams(0.0, 0.5, 0.5, 1e-4), trials=2_000_000, seed=11)
        rate, err = self.rate_and_error(config)
        assert abs(rate - 1e-4) <= 5 * max(err, math.sqrt(1e-4 / config.trials))

    def test_reference_rate_matches_closed_form(self):
        config = McConfig(params=REF, trials=2_000_000, seed=12)
        rate, err = self.rate_and_error(config)
        expected = herald_click_probability(POISSON, REF)
        assert abs(rate - expected) <= 5 * max(err, 1e-9)


class TestSparseSampler:
    """The sampler draws only the occupied bins, from the input laws given
    N >= 1; these checks hold it exact in law at real trial counts."""

    @pytest.mark.parametrize("name,stat,params,filt", mc_acceptance_matrix(),
                             ids=[c[0] for c in mc_acceptance_matrix()])
    def test_acceptance_configurations_exact_in_law(self, name, stat, params, filt):
        trials = 1 << 22
        est = simulate(McConfig(params=params, stat=stat, filt=filt, trials=trials, seed=8))
        # every bin with p >= 1e-6 within 5 sigma of the closed form
        assert mc_deviation(est, stat, params, filt) <= 1.0
        rate = herald_click_probability(stat, params, filt)
        assert abs(est.herald_rate - rate) <= 5 * math.sqrt(rate * (1 - rate) / trials)

    @pytest.mark.parametrize("stat,filt", CONFIGS)
    @pytest.mark.parametrize("d_h", [0.3, 1.0])
    def test_vacuum_heralds_only_by_dark_counts(self, stat, filt, d_h):
        trials = 100_000
        est = simulate(McConfig(params=SourceParams(0.0, 0.5, 0.5, d_h), stat=stat,
                                filt=filt, trials=trials, seed=3))
        assert est.pmf_hat[0] == 1.0
        assert abs(est.herald_rate - d_h) <= 5 * math.sqrt(d_h * (1 - d_h) / trials)

    @pytest.mark.parametrize("branch", [FilterBranch.SIGNAL, FilterBranch.HERALD])
    def test_full_mode_fraction_has_no_extra_pairs(self, branch):
        config = McConfig(params=REF, filt=FilterSpec(branch, 1.0), trials=300_000, seed=4)
        assert mc._describe(config)[:2] == (REF.mu, 0.0)
        # with no extra bins the draws are those of the thermal source
        assert simulate(config) == simulate(
            McConfig(params=REF, stat=THERMAL, trials=300_000, seed=4))

    # (stream, numpy major.minor) and, per configuration at REF, seed 2026 and
    # 2^16 trials: heralded trials and the nonzero histogram bins.  A change
    # to the draw order fails here unless it moves STREAM_VERSION and
    # records its own stream.
    PINNED_STREAM = (2, "2.4")
    PINNED = [(369, {0: 205, 1: 164}), (325, {0: 159, 1: 165, 2: 1}),
              (374, {0: 354, 1: 20}), (51, {0: 27, 1: 24})]

    def test_pinned_stream(self):
        stream, numpy_version = self.PINNED_STREAM
        if mc.STREAM_VERSION != stream:
            pytest.skip(f"stream {mc.STREAM_VERSION} has no pinned record")
        if ".".join(np.__version__.split(".")[:2]) != numpy_version:
            pytest.skip(f"stream pinned under numpy {numpy_version}")
        for (stat, filt), (heralded, hist) in zip(CONFIGS, self.PINNED):
            est = simulate(McConfig(params=REF, stat=stat, filt=filt, trials=1 << 16,
                                    seed=2026))
            counts = [round(p * est.heralded) for p in est.pmf_hat]
            assert est.heralded == heralded
            assert {n: c for n, c in enumerate(counts) if c} == hist
