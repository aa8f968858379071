import math
from fractions import Fraction
import os
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import replace
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

    @pytest.mark.parametrize("trials", [2**63, 1180591620717411303424])
    def test_rejects_trials_beyond_int64_counts(self, trials):
        with pytest.raises(ValidationError, match=r"trials must lie in \[1, 2\*\*63\)"):
            McConfig(params=REF, trials=trials)

    def test_accepts_the_largest_int64_trial_count(self):
        est = simulate(McConfig(params=REF, trials=2**63 - 1, seed=1))
        assert est.trials_used == 2**63 - 1 and est.heralded > 0

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


class TestResources:
    def test_run_stays_on_the_calling_thread(self):
        # one generator per run: no concurrent.futures import and no thread,
        # also at a trial count that stream 5 split into four chunks
        proc = _run_python("""
import sys, threading
from hspstats import McConfig, SourceParams, simulate
simulate(McConfig(params=SourceParams(0.5, 0.9, 0.8, 1e-4), trials=1 << 22, seed=1))
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

    # (name, stat, params, filt, bound in KiB) of runs of 2^20 trials at the
    # verify box's brightest point, far above it, and at MAX_MU
    WORKING_SETS = [
        ("bright_source",) + next(c for c in mc_acceptance_matrix()
                                  if c[0] == "bright_source")[1:] + (32,),
        ("herald_filtered_mu5", POISSON, SourceParams(5.0, 0.3, 0.5, 1e-3),
         FilterSpec(FilterBranch.HERALD, 0.5), 64),
        ("signal_filtered_mu1000", POISSON, SourceParams(1000.0, 0.5, 0.5, 1e-3),
         FilterSpec(FilterBranch.SIGNAL, 0.5), 14 * 1024),
    ]

    @staticmethod
    def traced_peak(config) -> int:
        # a first small run imports numpy.random (0.7 MiB), which the bounds
        # leave out: they bound the run's own arrays
        simulate(replace(config, trials=1000))
        tracemalloc.start()
        try:
            simulate(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name,stat,params,filt,bound", WORKING_SETS,
                             ids=[w[0] for w in WORKING_SETS])
    def test_run_working_set(self, name, stat, params, filt, bound):
        # by tracemalloc, stream 6 (stream 5 per 2^20-trial chunk):
        # bright_source 20.3 KiB (4.74 MiB), the mu 5 herald filter 39.5 KiB
        # (16.2 MiB), the mu 1000 signal filter 11.6 MiB (19.0 MiB), whose
        # kept rows hold up to 717 extra counts each
        config = McConfig(params=params, stat=stat, filt=filt, trials=1 << 20, seed=3)
        assert self.traced_peak(config) <= bound * 1024

    def test_bright_source_at_2_40_trials_keeps_its_working_set(self):
        # a run's arrays follow its count tables, not its trial count
        name, stat, params, filt, bound = self.WORKING_SETS[0]
        config = McConfig(params=params, stat=stat, filt=filt, trials=1 << 40, seed=3)
        assert self.traced_peak(config) <= bound * 1024

    @pytest.mark.parametrize("stat,filt,trials,n_cap", [
        (POISSON, FilterSpec(FilterBranch.SIGNAL, 0.5), 1 << 40, 64),
        (THERMAL, NO_FILTER, 1 << 26, 1000)], ids=["signal_filtered", "thermal_n_cap_1000"])
    def test_mu_1000_keeps_its_working_set_at_any_trial_count(self, stat, filt, trials, n_cap):
        # the filter draws 16 million cells, the thermal run thins 4,208
        # signal counts over laws of 1,001 entries: in batches they hold
        # 11.6 and 9.2 MiB.  In one piece the filter held 129 MiB, the laws
        # alone 32 MiB, and 5.3 GiB at n_cap 100,000 and 2^63 - 1 trials
        config = McConfig(params=SourceParams(1000.0, 0.5, 0.5, 1e-3), stat=stat, filt=filt,
                          trials=trials, seed=3, n_cap=n_cap)
        assert self.traced_peak(config) <= 14 * 2**20

    @pytest.mark.parametrize("per_row", [False, True])
    def test_batches_cover_the_rows_within_the_budget(self, monkeypatch, per_row):
        monkeypatch.setattr(mc, "BATCH", 100)
        widths = np.array([1, 3, 3, 10, 10, 40, 99, 100, 101, 250, 250])
        batches = list(mc._batches(widths, per_row=per_row))
        assert [i for b in batches for i in range(len(widths))[b]] == list(range(len(widths)))
        for b in batches:
            cost = widths[b].sum() if per_row else len(widths[b]) * widths[b][-1]
            assert cost <= 100 or len(widths[b]) == 1


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


class TestHeraldProbability:
    """A cell with h pairs on the herald branch heralds with probability
    1 - (1 - d_h)(1 - eta_h)^h, taken as -expm1 of minus the miss hazard
    -log(1 - d_h) - h log(1 - eta_h).  At eta_h = 1 the extra-only cells
    behind a herald filter have h = 0, where it is d_h."""

    HERALD = FilterSpec(FilterBranch.HERALD, 0.3)

    @pytest.mark.parametrize("d_h", [0.0, 1.0])
    def test_perfect_herald_with_photonless_herald_bins(self, d_h):
        config = McConfig(params=SourceParams(0.5, 1.0, 0.5, d_h), filt=self.HERALD,
                          trials=1 << 18, seed=6)
        # 0 * log(0) or 0 * inf would raise here
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

    @pytest.mark.parametrize("d_h,eta_h", [(0.0, 0.5), (1e-3, 1.0), (1.0, 0.5), (1.0, 1.0),
                                           (1e-300, 1e-300), (0.5, 1.0 - 2.0**-53)])
    def test_probability_is_exact_and_finite(self, d_h, eta_h):
        h = np.arange(60)
        with np.errstate(all="raise"):
            p = mc._herald_probability(h, d_h, eta_h)
        exact = [1 - (1 - Fraction(d_h)) * (1 - Fraction(eta_h)) ** int(n) for n in h]
        assert p.tolist() == pytest.approx([float(x) for x in exact], rel=1e-15, abs=0)

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
        # a NaN from 0 * inf or inf - inf would raise here
        with np.errstate(divide="raise", invalid="raise"):
            assert_exact_in_law(McConfig(params=params, stat=stat, filt=filt, trials=1 << 20,
                                         seed=10))

    @pytest.mark.parametrize("eta_h,eta_s,d_h", [(0.5, 0.5, 1e-3), (0.9, 0.8, 1e-4)])
    def test_bright_poisson_source_exact_in_law(self, eta_h, eta_s, d_h):
        # the Poisson count table must reach 20 standard deviations past a
        # mean of 300: cut at mean + 20/sqrt(mean) + 50 it reads 23 and 52
        # gate units here, where the clean code read 0.44 to 0.74 (seeds 0-10)
        assert_exact_in_law(McConfig(params=SourceParams(300.0, eta_h, eta_s, d_h),
                                     trials=1 << 31, n_cap=1024, seed=10))


class TestCells:
    """Steps 1-3 of the draw order: the bins of a run over the (k, e) cells
    of a thermal kept count k and a Poisson extra count e, as one multinomial
    row per kept count that holds at least as many bins as the extra table
    has entries and one uniform per bin elsewhere, in batches of at most
    ``BATCH`` cells or bins.  The laws here come from scipy, not from the
    sampler's tables."""

    TRIALS = 1 << 18
    TAIL = stats.norm.sf(5.0)  # one-sided mass beyond 5 sigma

    def assert_in_tails(self, observed, n, p):
        """Observed binomial(n, p) counts inside their exact 5-sigma tails."""
        assert (stats.binom.cdf(observed, n, p) >= self.TAIL).all()
        assert (stats.binom.sf(observed - 1, n, p) >= self.TAIL).all()

    # (kept mean, extra mean, rows drawn by multinomials, bins drawn by uniforms)
    @pytest.mark.parametrize("kept_mean,extra_mean,rows,uniforms", [
        (0.0, 0.5, True, False), (0.5, 0.0, True, False), (0.05, 0.45, True, True),
        (25.0, 25.0, True, True), (100.0, 100.0, True, True)])
    @pytest.mark.parametrize("batch", [mc.BATCH, 64])
    def test_cells_follow_the_product_law(self, monkeypatch, batch, kept_mean, extra_mean,
                                          rows, uniforms):
        monkeypatch.setattr(mc, "BATCH", batch)
        kept_table, extra_table = mc._count_table(kept_mean, True), mc._count_table(extra_mean,
                                                                                   False)
        width = len(extra_table)
        rng = np.random.Generator(np.random.PCG64(2026))
        seen = np.zeros(len(kept_table) * width, dtype=np.int64)  # bins of cell k * width + e
        kinds = set()
        for k, e, bins in mc._cells(rng, self.TRIALS, kept_table, extra_table):
            assert bins.size <= max(batch, width)  # a batch, or one row of the extra table
            kinds.add(bins.ndim)
            np.add.at(seen, np.broadcast_to(k * width + e, bins.shape), bins)
        assert (2 in kinds, 1 in kinds) == (rows, uniforms)
        assert seen.sum() == self.TRIALS
        # every cell with an expected number >= 1 of bins, and the others as one number
        k, e = np.divmod(np.arange(len(seen)), width)
        p = stats.geom.pmf(k + 1, 1.0 / (1.0 + kept_mean)) * stats.poisson.pmf(e, extra_mean)
        tested = self.TRIALS * p >= 1.0
        self.assert_in_tails(seen[tested], self.TRIALS, p[tested])
        self.assert_in_tails(np.array([self.TRIALS - seen[tested].sum()]), self.TRIALS,
                             max(1.0 - math.fsum(p[tested]), 0.0))

    def test_tables_hold_the_empty_count(self):
        for m in (1e-3, 0.5, 50.0):
            assert mc._count_table(m, True)[0] == pytest.approx(1.0 / (1.0 + m), rel=1e-15)
            assert mc._count_table(m, False)[0] == pytest.approx(math.exp(-m), rel=1e-12)

    def test_no_pair_means_one_entry(self):
        # mean 0, or so small that a pair is below the table's tail
        for m in (0.0, 5e-324, 1e-20):
            for thermal in (True, False):
                assert mc._count_table(m, thermal).tolist() == [1.0]

    @pytest.mark.parametrize("branch", [FilterBranch.SIGNAL, FilterBranch.HERALD])
    def test_extra_pairs_on_the_wrong_branch_fail_the_filter_check(self, monkeypatch, branch):
        # the extra pairs' photons sent to the filtered branch in place of the
        # unfiltered one.  The mu 5 checks of TestBeyondTheVerifyBox, which
        # pass without it, then read 89 (signal filter pmf; its herald rate
        # 139) and 278 (herald filter pmf; its rate 125) times their gates
        describe = mc._describe

        def wrong_branch(config):
            kept_mean, extra_mean, extra_herald, extra_signal = describe(config)
            return kept_mean, extra_mean, extra_signal, extra_herald

        monkeypatch.setattr(mc, "_describe", wrong_branch)
        config = McConfig(params=SourceParams(5.0, 0.3, 0.5, 1e-3),
                          filt=FilterSpec(branch, 0.5), trials=1 << 20, seed=10)
        with pytest.raises(AssertionError):
            assert_exact_in_law(config)


class TestThinningLaw:
    """Step 4's law of min(Binomial(s, eta), cap), against scipy."""

    @pytest.mark.parametrize("eta", [1e-6, 0.05, 0.5, 0.8, 0.999, 1.0 - 1e-12])
    @pytest.mark.parametrize("cap", [8, 64, 1000])
    def test_rows_follow_the_binomial_law(self, eta, cap):
        s = np.array([2, 3, 7, 8, 9, 30, 64, 65, 200, 999, 1000, 1001, 5000])
        law = mc._thinning_law(s, eta, cap)[:, ::-1]
        j = np.arange(law.shape[1])
        assert law.shape == (len(s), min(s.max(), cap) + 1)
        assert np.allclose(law.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        for row, count in zip(law, s):
            ref = stats.binom.pmf(j, count, eta)
            if count > j[-1]:  # the clamped tail: measured worst 1.5e-13 relative
                ref[-1] = stats.binom.sf(j[-1] - 1, count, eta)
                if ref[-1] >= 1e-250:
                    assert abs(row[-1] - ref[-1]) <= 1e-12 * ref[-1]
                else:
                    assert row[-1] <= 1e-240
                row, ref = row[:-1], ref[:-1]
            # measured worst 1.0e-11 relative, at cap 1000 and s 5000
            big = ref >= 1e-250
            assert np.allclose(row[big], ref[big], rtol=1e-10, atol=0)
            assert (row[~big] <= 1e-240).all()

    def test_certain_loss_and_certain_keeping(self):
        s = np.array([2, 9, 70])
        assert mc._thinning_law(s, 0.0, 64)[:, -1].tolist() == [1.0] * 3
        assert np.flatnonzero(mc._thinning_law(s, 1.0, 64)[:, ::-1].ravel() == 1.0).tolist() == [
            2, 65 + 9, 2 * 65 + 64]


class TestSparseSampler:
    """The sampler draws counts of bins per cell, never one bin at a time
    where a cell holds many; these checks hold it exact in law at trial
    counts that a per-bin sampler could not afford."""

    @pytest.mark.parametrize("name,stat,params,filt", mc_acceptance_matrix(),
                             ids=[c[0] for c in mc_acceptance_matrix()])
    def test_acceptance_configurations_exact_in_law(self, name, stat, params, filt):
        trials = 1 << 28
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
    PINNED_STREAM = (7, "2.4")
    PINNED = [(333, {0: 149, 1: 183, 2: 1}), (331, {0: 149, 1: 180, 2: 2}),
              (345, {0: 331, 1: 14}), (30, {0: 17, 1: 13})]

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
