import math
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

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

    @pytest.mark.parametrize("n_cap", [100_001, 10**15])
    def test_rejects_cap_above_the_term_cap(self, n_cap):
        with pytest.raises(ValidationError, match="n_cap"):
            McConfig(params=REF, n_cap=n_cap)

    def test_accepts_the_term_cap(self):
        assert McConfig(params=REF, n_cap=100_000).n_cap == 100_000

    def test_rejects_seed_outside_unsigned_64_bits(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValidationError):
                McConfig(params=REF, seed=seed)

    def test_rejects_mu_beyond_the_count_range(self):
        McConfig(params=SourceParams(mc.MAX_MU, 0.5, 0.5, 0.0))
        for mu in (1001.0, 1e300):
            with pytest.raises(ValidationError, match="pair-count table past 44,384 entries"):
                McConfig(params=SourceParams(mu, 0.5, 0.5, 0.0))

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

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_every_thread_count_gives_the_serial_estimate(self, monkeypatch, cpus):
        # batches of one chunk per thread, from one to more than the chunks
        monkeypatch.setattr(mc, "CHUNK_TRIALS", 1000)
        config = McConfig(params=SourceParams(0.5, 0.5, 0.5, 1e-2),
                          filt=FilterSpec(FilterBranch.HERALD, 0.1), trials=7321, seed=88)
        hist, heralds = np.zeros(config.n_cap + 1, dtype=np.int64), 0
        for index, size in mc._chunks(config.trials):
            h, k = mc._simulate_chunk(config, index, size)
            hist, heralds = hist + h, heralds + k
        monkeypatch.setattr(mc, "_cpus", lambda: cpus)
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

    def test_import_leaves_numpy_random_unloaded(self):
        # every command imports montecarlo; numpy.random would add about
        # 2.7 MB of resident memory and its import time to each of them
        proc = _run_python("import sys, hspstats\nprint('numpy.random' in sys.modules)",
                           timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    # (name, stat, params, filt, bound in MiB) of chunks at the verify box's
    # brightest point and far above it
    WORKING_SETS = [
        ("bright_source",) + next(c for c in mc_acceptance_matrix()
                                  if c[0] == "bright_source")[1:] + (6,),
        ("herald_filtered_mu5", POISSON, SourceParams(5.0, 0.3, 0.5, 1e-3),
         FilterSpec(FilterBranch.HERALD, 0.5), 18),
    ]

    @staticmethod
    def traced_peak(config, run) -> int:
        # a first small chunk imports numpy.random (0.7 MiB), which the
        # bounds leave out: they bound the chunks' own arrays
        mc._simulate_chunk(config, 0, 1000)
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name,stat,params,filt,bound", WORKING_SETS,
                             ids=[w[0] for w in WORKING_SETS])
    def test_chunk_working_set(self, name, stat, params, filt, bound):
        # each chunk in flight holds its peak.  bright_source, traced with
        # numpy.random's import: 13.7 MiB under stream 2, then 10.6 MiB under
        # streams 3 and 4 drawn as whole arrays.  Without it: 9.85 MiB as
        # whole arrays, 4.73 MiB drawn in blocks of bins, 4.74 MiB under
        # stream 5.  The mu 5 herald filter: 32.2 MiB whole, 16.2 MiB in
        # blocks and under stream 5, mostly the pair counts
        config = McConfig(params=params, stat=stat, filt=filt, trials=1 << 20, seed=3)
        peak = self.traced_peak(config, lambda: mc._simulate_chunk(config, 0, 1 << 20))
        assert peak <= bound * 2**20

    def test_two_chunks_in_flight(self, monkeypatch):
        # two threads hold at most two bright chunks at once, which sets the
        # resident peak of a multi-chunk run
        monkeypatch.setattr(mc, "_cpus", lambda: 2)
        mc._pool()  # thread pool and its imports outside the trace
        _, stat, params, filt, bound = self.WORKING_SETS[0]
        config = McConfig(params=params, stat=stat, filt=filt, trials=1 << 21, seed=3)
        assert self.traced_peak(config, lambda: simulate(config)) <= 2 * bound * 2**20

    @pytest.mark.parametrize("name", ["dark_dominated", "bright_source"])
    def test_thread_count_keeps_full_chunks(self, monkeypatch, name):
        # full-size chunks, about 1,000 and 412,000 occupied bins each
        _, stat, params, filt = next(c for c in mc_acceptance_matrix() if c[0] == name)
        config = McConfig(params=params, stat=stat, filt=filt, trials=2 * mc.CHUNK_TRIALS,
                          seed=4)
        estimates = []
        for cpus in (1, 2):
            monkeypatch.setattr(mc, "_cpus", lambda cpus=cpus: cpus)
            estimates.append(simulate(config))
        assert estimates[0] == estimates[1]


class TestBlocks:
    """The exponential and thinning draws of a chunk run over blocks of
    BLOCK_BINS occupied bins with the numbers of whole-array draws: the
    stream does not depend on the block size.  At mu = 0.5 a filtered chunk of 5,000 trials
    holds about 150 kept-only, 90 both and 1,700 extra-only bins."""

    @pytest.mark.parametrize("stat,filt", CONFIGS)
    @pytest.mark.parametrize("params", [SourceParams(0.5, 0.5, 0.5, 1e-2),
                                        SourceParams(0.5, 0.5, 0.5, 1.0),
                                        SourceParams(0.5, 1.0, 0.5, 1e-2),
                                        SourceParams(0.5, 0.5, 0.0, 1e-2)],
                             ids=["mu0.5", "d_h1", "eta_h1", "eta_s0"])
    def test_block_size_keeps_the_stream(self, monkeypatch, stat, filt, params):
        config = McConfig(params=params, stat=stat, filt=filt, trials=5000, seed=31)
        monkeypatch.setattr(mc, "BLOCK_BINS", 5000)
        hist, heralds = mc._simulate_chunk(config, 2, 5000)
        for block in (1, 7, 1000):
            monkeypatch.setattr(mc, "BLOCK_BINS", block)
            h, k = mc._simulate_chunk(config, 2, 5000)
            assert k == heralds
            assert h.tolist() == hist.tolist()


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
        with pytest.raises(NoHeraldSamplesError, match="no heralded trials out of 1000"):
            simulate(McConfig(params=SourceParams(0.0, 0.5, 0.5, 0.0), trials=1000))

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


def assert_exact_in_law(config):
    """Every bin with p >= 1e-6 and the herald rate within 5 sigma of the
    closed forms; returns the estimate."""
    est = simulate(config)
    assert mc_deviation(est, config.stat, config.params, config.filt) <= 1.0
    rate = herald_click_probability(config.stat, config.params, config.filt)
    assert abs(est.herald_rate - rate) <= 5 * math.sqrt(rate * (1 - rate) / config.trials)
    return est


class TestOneUniformHerald:
    """Each occupied bin heralds by one draw against its no-click
    probability (1 - d_h)(1 - eta_h)^h: a uniform up to stream 3, one
    standard exponential against the miss hazard -log(1 - d_h) - h log(1 -
    eta_h) since stream 4.  At eta_h = 1 the extra-only bins behind a herald
    filter have h = 0, where that probability is 1 - d_h."""

    HERALD = FilterSpec(FilterBranch.HERALD, 0.3)

    @pytest.mark.parametrize("d_h", [0.0, 1.0])
    def test_perfect_herald_with_photonless_herald_bins(self, d_h):
        config = McConfig(params=SourceParams(0.5, 1.0, 0.5, d_h), filt=self.HERALD,
                          trials=1 << 18, seed=6)
        # one chunk, on this thread: 0 * log(0) would raise here
        with np.errstate(divide="raise", invalid="raise"):
            est = assert_exact_in_law(config)
        assert not any(math.isnan(x) for x in est.pmf_hat + est.stderr + (est.herald_rate,))
        if d_h == 1.0:
            assert est.herald_rate == 1.0

    def test_dark_free_perfect_herald_never_heralds_vacuum(self):
        # a heralded bin holds a kept pair, and every signal photon is detected
        est = simulate(McConfig(params=SourceParams(0.5, 1.0, 1.0, 0.0), filt=self.HERALD,
                                trials=1 << 18, seed=7))
        assert est.heralded > 0
        assert est.pmf_hat[0] == 0.0

    @pytest.mark.parametrize("stat,filt", CONFIGS)
    @pytest.mark.parametrize("eta_h", [0.5, 1.0])
    def test_certain_dark_count_heralds_every_bin(self, stat, filt, eta_h):
        # an infinite hazard, also beside the h = 0 bins of the herald filter
        config = McConfig(params=SourceParams(0.5, eta_h, 0.5, 1.0), stat=stat, filt=filt,
                          trials=1 << 16, seed=5)
        with np.errstate(divide="raise", invalid="raise"):
            est = simulate(config)
        assert est.herald_rate == 1.0
        assert not any(math.isnan(x) for x in est.pmf_hat + est.stderr)

    @pytest.mark.parametrize("stat,filt", CONFIGS)
    def test_blind_signal_branch_puts_every_herald_in_bin_zero(self, stat, filt):
        est = simulate(McConfig(params=SourceParams(0.5, 0.5, 0.0, 1e-2), stat=stat,
                                filt=filt, trials=1 << 16, seed=5))
        assert est.heralded > 0
        assert est.pmf_hat[0] == 1.0

    def test_signal_filter_at_perfect_herald(self):
        assert_exact_in_law(McConfig(params=SourceParams(0.5, 1.0, 0.5, 1e-3),
                                     filt=FilterSpec(FilterBranch.SIGNAL, 0.3),
                                     trials=1 << 20, seed=9))


class TestBeyondTheVerifyBox:
    """Exact in law at mu well above the verify sampling box (mu <= 1).  At
    mu = 50 with 1 - eta_h = 2^-40, (1 - eta_h)^h underflows to 0 for every
    bin with h >= 27, nearly all of them."""

    @pytest.mark.parametrize("stat,params,filt", [
        (POISSON, SourceParams(5.0, 0.5, 0.5, 1e-3), NO_FILTER),
        (POISSON, SourceParams(50.0, 0.05, 0.5, 1e-3), NO_FILTER),
        (POISSON, SourceParams(50.0, 1.0 - 2.0**-40, 0.3, 0.0), NO_FILTER),
        (THERMAL, SourceParams(5.0, 0.5, 0.5, 1e-3), NO_FILTER),
        (POISSON, SourceParams(5.0, 0.3, 0.5, 1e-3), FilterSpec(FilterBranch.SIGNAL, 0.5)),
        (POISSON, SourceParams(5.0, 0.3, 0.5, 1e-3), FilterSpec(FilterBranch.HERALD, 0.5)),
    ], ids=["poisson_mu5", "poisson_mu50", "poisson_mu50_underflow", "thermal_mu5",
            "signal_filtered_mu5", "herald_filtered_mu5"])
    def test_exact_in_law(self, stat, params, filt):
        # one chunk, on this thread: a NaN from 0 * inf or inf - inf would raise here
        with np.errstate(divide="raise", invalid="raise"):
            assert_exact_in_law(McConfig(params=params, stat=stat, filt=filt, trials=1 << 20,
                                         seed=10))


class TestPairCounts:
    """Each group's pair counts are one multinomial histogram over the
    group's count table, expanded in sorted order; the both bins' extra
    counts are shuffled against their kept counts.  The laws here come from
    scipy, not from the sampler's tables."""

    GROUP = 1 << 18  # bins in each of the kept-only, both and extra-only groups
    TAIL = stats.norm.sf(5.0)  # one-sided mass beyond 5 sigma

    @staticmethod
    def law(thermal: bool, m: float, k: np.ndarray) -> np.ndarray:
        """P(N = k | N >= 1) of a thermal or Poisson count of mean m."""
        if thermal:
            return stats.geom.pmf(k, 1.0 / (1.0 + m))
        return stats.poisson.pmf(k, m) / stats.poisson.sf(0, m)

    def assert_in_tails(self, observed, n, p):
        """Observed binomial(n, p) counts inside their exact 5-sigma tails."""
        assert (stats.binom.cdf(observed, n, p) >= self.TAIL).all()
        assert (stats.binom.sf(observed - 1, n, p) >= self.TAIL).all()

    def assert_group_follows(self, counts, thermal, m):
        # every count k with an expected number >= 1 of bins, and the bins
        # of all other counts as one number
        hist = np.bincount(counts)
        assert len(counts) == self.GROUP and hist[0] == 0
        k = np.arange(1, len(hist) + 10 * int(m + 1))  # well past the largest count drawn
        p = self.law(thermal, m, k)
        seen = np.zeros(len(k), dtype=np.int64)
        seen[:len(hist) - 1] = hist[1:]
        tested = self.GROUP * p >= 1.0
        assert tested.any()
        self.assert_in_tails(seen[tested], self.GROUP, p[tested])
        self.assert_in_tails(np.array([self.GROUP - seen[tested].sum()]), self.GROUP,
                             max(1.0 - math.fsum(p[tested]), 0.0))

    @pytest.mark.parametrize("m", [1e-3, 0.5, 5.0, 50.0, mc.MAX_MU])
    def test_groups_follow_their_laws(self, m):
        rng = np.random.Generator(np.random.PCG64(2026))
        n = self.GROUP
        kept, extra = mc._pair_counts(rng, m, m, n, n, n)
        assert len(kept) == len(extra) == 2 * n
        for counts, thermal in ((kept[:n], True), (kept[n:], True),
                                (extra[:n], False), (extra[n:], False)):
            self.assert_group_follows(counts, thermal, m)
        # the both bins pair their counts independently: comonotone pairs
        # would put min(P_kept(1), P_extra(1)) of them at (1, 1)
        ones = np.count_nonzero((kept[n:] == 1) & (extra[:n] == 1))
        p_kept, p_extra = self.law(True, m, 1), self.law(False, m, 1)
        self.assert_in_tails(np.array([ones]), n, p_kept * p_extra)

    def test_no_pair_means_one_entry(self):
        # mean 0, or so small that a second pair is below the table's tail
        for m in (0.0, 5e-324, 1e-20):
            for thermal in (True, False):
                assert mc._count_table(m, thermal).tolist() == [1.0]

    @pytest.mark.parametrize("branch", [FilterBranch.SIGNAL, FilterBranch.HERALD])
    def test_unshuffled_both_bins_fail_the_filter_check(self, monkeypatch, branch):
        # without the shuffle the both bins pair sorted kept counts with
        # sorted extra counts.  The mu 5 checks of TestBeyondTheVerifyBox,
        # which pass with it, then read 4.5 (signal filter pmf; its herald
        # rate 12.6) and 11.4 (herald filter pmf) times their 5-sigma gates
        class NoShuffle(np.random.Generator):
            def shuffle(self, x, axis=0):
                pass

        monkeypatch.setattr(np.random, "Generator", NoShuffle)
        config = McConfig(params=SourceParams(5.0, 0.3, 0.5, 1e-3),
                          filt=FilterSpec(branch, 0.5), trials=1 << 20, seed=10)
        with pytest.raises(AssertionError):
            assert_exact_in_law(config)


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

    def test_one_photon_thinning_fault_fails_the_gate(self, monkeypatch):
        # 3% fewer kept photons in the one count that thins every heralded
        # one-photon bin; the same run without it passes the gate above
        _, stat, params, filt = next(c for c in mc_acceptance_matrix()
                                     if c[0] == "bright_source")

        class OnePhotonFault(np.random.Generator):
            def binomial(self, n, p, size=None):
                if np.ndim(n) == 0 and p == params.eta_s:  # not the dark count's d_h
                    p *= 0.97
                return super().binomial(n, p, size)

        monkeypatch.setattr(np.random, "Generator", OnePhotonFault)
        est = simulate(McConfig(params=params, stat=stat, filt=filt, trials=1 << 22, seed=8))
        assert mc_deviation(est, stat, params, filt) > 1.0

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
    PINNED_STREAM = (5, "2.4")
    PINNED = [(363, {0: 169, 1: 193, 2: 1}), (363, {0: 192, 1: 168, 2: 3}),
              (376, {0: 355, 1: 21}), (47, {0: 26, 1: 20, 2: 1})]

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
