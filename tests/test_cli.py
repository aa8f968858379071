import dataclasses
import json
import math
import re
from pathlib import Path

import numpy
import pytest

from hspstats import (FilterBranch, FilterSpec, PairStatistics, SourceParams,
                      herald_click_probability, moments_closed_form, moments_from_pmf, records,
                      signal_pmf, xi)
from hspstats import analytic, cli, verify
from hspstats.analytic import heralded_terms, unconditioned_terms
from hspstats.cli import main
from hspstats.montecarlo import STREAM_VERSION

REF_FLAGS = ["--mu", "0.01", "--eta-h", "0.5", "--eta-s", "0.5", "--dark", "1e-4"]


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestPmfCommand:
    def test_infinite_tol_is_a_domain_error(self, capsys):
        # refused as the tolerance it is, not by the tail_bound it would give
        code, out, err = run(capsys, "pmf", "--mu", "0.1", "--tol", "inf")
        assert code == 2 and out == ""
        assert "tolerance must be finite" in err and "tail_bound" not in err

    def test_reference_source_table(self, capsys):
        code, out, _ = run(capsys, "pmf", "--stat", "poisson", *REF_FLAGS)
        assert code == 0
        rec = records.parse(out)
        assert rec.command == "pmf"
        assert rec.inputs["mu"] == 0.01
        row1 = rec.rows[1]
        assert row1["n"] == 1
        assert row1["p_heralded"] == pytest.approx(0.49026529939294700, rel=1e-12)
        assert row1["xi"] == pytest.approx(98.544552886558932, rel=1e-12)
        assert row1["p_heralded"] == pytest.approx(row1["p_unheralded"] * row1["xi"], rel=1e-12)

    def test_herald_filter_table(self, capsys):
        code, out, _ = run(capsys, "pmf", *REF_FLAGS, "--filter", "herald", "--f", "0.1",
                           "--nmax", "6")
        assert code == 0
        rec = records.parse(out)
        assert len(rec.rows) == 7
        # multi-photon terms sit far above the unfiltered thermal tail
        assert rec.rows[4]["p_heralded"] > 1e-9

    @pytest.mark.parametrize("config", [
        ["--stat", "thermal"],
        ["--filter", "signal", "--f", "0.3"],
        ["--filter", "herald", "--f", "0.3"],
    ])
    def test_dark_signal_branch(self, capsys, config):
        # eta_s = 0: p(0) = 1 used to round one ulp above 1 and exit 2
        code, out, _ = run(capsys, "pmf", *config, "--mu", "0.5", "--eta-h", "0.5",
                           "--eta-s", "0", "--dark", "1e-4")
        assert code == 0
        rows = records.parse(out).rows
        assert len(rows) == 1
        assert rows[0]["p_heralded"] == pytest.approx(1.0, abs=1e-15)
        assert rows[0]["p_heralded"] <= 1.0

    @pytest.mark.parametrize("filt", ["none", "signal", "herald"])
    def test_rows_equal_single_factors(self, capsys, filt):
        code, out, _ = run(capsys, "pmf", *REF_FLAGS, "--filter", filt, "--f", "0.1",
                           "--nmax", "12")
        assert code == 0
        params = SourceParams(0.01, 0.5, 0.5, 1e-4)
        spec = FilterSpec(FilterBranch(filt), 0.1 if filt != "none" else 1.0)
        for n, row in enumerate(records.parse(out).rows):
            assert row["xi"] == xi(PairStatistics.POISSON, params, spec, n)

    @pytest.mark.parametrize("filt", ["none", "herald"])
    def test_rows_beyond_the_pmf(self, capsys, filt):
        # from n = 116 the herald-filtered p(n) and Th(a, n) underflow to 0
        # while xi(n) stays near 6.5e3; the rows used to end in an error
        code, out, _ = run(capsys, "pmf", *REF_FLAGS, "--filter", filt, "--f", "0.3",
                           "--nmax", "120")
        assert code == 0
        rows = records.parse(out).rows
        assert len(rows) == 121
        spec = FilterSpec(FilterBranch(filt), 0.3 if filt != "none" else 1.0)
        pmf = signal_pmf(PairStatistics.POISSON, SourceParams(0.01, 0.5, 0.5, 1e-4), spec)
        assert tuple(row["p_heralded"] for row in rows[: len(pmf)]) == pmf.probs
        assert all(math.isfinite(row["xi"]) and row["xi"] > 0.0 for row in rows)

    def test_unheralded_column_behind_a_herald_filter(self, capsys):
        # the unheralded law counts the extraneous photons too: p(0) = 0.675,
        # where the kept-mode law alone gave 0.893
        code, out, _ = run(capsys, "pmf", "--mu", "0.5", "--eta-h", "0.5", "--eta-s", "0.8",
                           "--dark", "1e-4", "--filter", "herald", "--f", "0.3")
        assert code == 0
        rows = records.parse(out).rows
        assert round(rows[0]["p_unheralded"], 3) == 0.675
        assert tuple(row["p_unheralded"] for row in rows) == unconditioned_terms(
            PairStatistics.POISSON, SourceParams(0.5, 0.5, 0.8, 1e-4),
            FilterSpec(FilterBranch.HERALD, 0.3), len(rows))

    @pytest.mark.parametrize("nmax", [-2, 100_001, 10**20])
    def test_negative_nmax_is_usage_error(self, capsys, nmax):
        code, out, err = run(capsys, "pmf", *REF_FLAGS, "--nmax", str(nmax))
        assert code == 1 and out == "" and "--nmax" in err

    def test_xi_finite_where_p_over_the_kept_mode_law_left_double_range(self, capsys):
        # p(n)/Th(a, n) passes 1.8e308 at n = 69 while the pmf is finite to
        # n = 113; xi(n) = p(n)/U(n) stays at most 1/P_click in every row
        flags = ["--mu", "30", "--eta-h", "0.5", "--eta-s", "0.5", "--dark", "1e-4",
                 "--filter", "herald", "--f", "1e-6"]
        params = SourceParams(30, 0.5, 0.5, 1e-4)
        spec = FilterSpec(FilterBranch.HERALD, 1e-6)
        sup = 1.0 / herald_click_probability(PairStatistics.POISSON, params, spec)
        code, out, _ = run(capsys, "pmf", *flags)
        assert code == 0
        rows = records.parse(out).rows
        pmf = signal_pmf(PairStatistics.POISSON, params, spec)
        assert len(rows) == len(pmf) > 70
        assert tuple(row["p_heralded"] for row in rows) == pmf.probs
        assert [row["xi"] for row in rows] == [
            xi(PairStatistics.POISSON, params, spec, n) for n in range(len(pmf))]
        assert all(0.0 < row["xi"] <= sup for row in rows)

        # beyond the pmf, p_heralded continues with the exact terms and xi
        # stays finite
        code, out, _ = run(capsys, "pmf", *flags, "--nmax", "150")
        assert code == 0
        rows = records.parse(out).rows
        assert len(rows) == 151
        terms = heralded_terms(PairStatistics.POISSON, params, spec, 151)
        assert tuple(row["p_heralded"] for row in rows) == terms
        assert terms[:len(pmf)] == pmf.probs
        assert all(0.0 <= p < 1e-12 for p in terms[len(pmf):])
        assert all(0.0 < row["xi"] <= sup for row in rows)

    @pytest.mark.parametrize("mu", ["5e-324", "1e-318"])
    def test_xi_where_the_kept_mode_underflows(self, capsys, mu):
        # a = mu*f*eta_s underflows to 0 behind the herald filter: every
        # signal photon is extraneous, so xi(n) = xi(0) <= 1/P_click; this
        # used to raise ZeroDivisionError, then printed null for n >= 1
        flags = ["--mu", mu, "--eta-h", "0.5", "--eta-s", "1", "--dark", "0.1",
                 "--filter", "herald", "--f", "1e-6", "--nmax", "3"]
        code, out, err = run(capsys, "pmf", *flags)
        assert code == 0 and err == ""
        rows = records.parse(out).rows
        sup = 1.0 / herald_click_probability(
            PairStatistics.POISSON, SourceParams(float(mu), 0.5, 1.0, 0.1),
            FilterSpec(FilterBranch.HERALD, 1e-6))
        assert len(rows) == 4
        assert 0.0 < rows[0]["xi"] <= sup
        assert all(row["xi"] == rows[0]["xi"] for row in rows)

    def test_tolerance_above_one_is_a_domain_error(self, capsys):
        # tol 20 printed a tail_bound of 2.98; tol 1 is the largest accepted
        code, out, err = run(capsys, "pmf", "--mu", "0.1", "--tol", "20")
        assert code == 2 and out == ""
        assert "tolerance must be finite and >= 1e-13 and <= 1" in err
        code, out, _ = run(capsys, "pmf", "--mu", "0.1", "--tol", "1")
        assert code == 0 and records.parse(out).inputs["tail_bound"] <= 1.0

    def test_rows_beyond_the_pmf_need_no_moments(self, capsys):
        # the moments of this source leave double range, its pmf terms do not;
        # the rows past the pmf used to take the moments along and exit 2
        flags = ["--stat", "thermal", "--mu", "1e200", "--eta-s", "1e-200", "--eta-h", "0.5",
                 "--dark", "1e-4"]
        code, out, _ = run(capsys, "pmf", *flags)
        assert code == 0
        head = records.parse(out).rows
        code, out, err = run(capsys, "pmf", *flags, "--nmax", "60")
        assert (code, err) == (0, "")
        rows = records.parse(out).rows
        assert (len(head), len(rows)) == (41, 61)
        assert rows[:41] == head

    def test_thermal_vacuum(self, capsys):
        code, out, _ = run(capsys, "pmf", "--stat", "thermal", "--mu", "0",
                           "--eta-h", "0.5", "--eta-s", "0.5", "--dark", "1e-4")
        assert code == 0
        rec = records.parse(out)
        assert rec.rows[0]["p_heralded"] == pytest.approx(1.0, abs=1e-12)

    def test_bright_poisson_source(self, capsys):
        # a Poisson law that sums short of 1 by more than its tail bound is refused
        code, out, err = run(capsys, "pmf", "--mu", "1000", "--eta-h", "0.5", "--eta-s", "0.5",
                             "--dark", "1e-3")
        assert code == 0 and err == ""
        assert records.parse(out).rows

    def test_no_herald_is_domain_error(self, capsys):
        code, _, err = run(capsys, "pmf", "--mu", "0", "--dark", "0")
        assert code == 2
        assert "herald" in err

    @pytest.mark.parametrize("config", [["--filter", "none"], ["--filter", "signal", "--f", "0.5"]])
    def test_herald_rate_whose_reciprocal_overflows_is_refused(self, capsys, config):
        # P_click = 5e-319: p(0) was inf or nan, and Pmf refused it as no probability
        code, out, err = run(capsys, "pmf", "--mu", "1e-318", "--eta-h", "0.5", "--dark", "0",
                             *config)
        assert code == 2 and out == ""
        assert "is too small: 1/P_click leaves double range" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "pmf", "--mu", "0.01", "--bogus", "1")
        assert code == 1

    def test_missing_mu_is_usage_error(self, capsys):
        code, _, err = run(capsys, "pmf")
        assert code == 1
        assert "--mu" in err


@pytest.mark.parametrize("argv", [["pmf"], ["moments"], ["sweep", "--grid", "0.01,0.1"]],
                         ids=["pmf", "moments", "sweep"])
def test_thermal_source_behind_a_filter_is_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv, *REF_FLAGS, "--stat", "thermal",
                         "--filter", "herald", "--f", "0.5")
    assert code == 2 and out == "" and "requires Poisson pair statistics" in err


class TestFormats:
    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "pmf", *REF_FLAGS, "--format", "json")
        assert code == 0
        rec = records.parse(out)
        assert records.parse(records.render(rec, "json")) == rec

    def test_csv_round_trip(self, capsys):
        code, out, _ = run(capsys, "pmf", *REF_FLAGS, "--format", "csv")
        assert code == 0
        rec = records.parse(out)
        assert records.parse(records.render(rec, "csv")) == rec

    def test_csv_and_json_encode_identical_values(self, capsys):
        _, csv_out, _ = run(capsys, "pmf", *REF_FLAGS, "--format", "csv")
        _, json_out, _ = run(capsys, "pmf", *REF_FLAGS, "--format", "json")
        a = records.parse(csv_out)
        b = records.parse(json_out)
        assert a.rows == b.rows
        assert a.inputs == b.inputs

    def test_csv_full_precision(self, capsys):
        _, out, _ = run(capsys, "pmf", *REF_FLAGS)
        value = records.parse(out).rows[1]["p_heralded"]
        pmf = signal_pmf(PairStatistics.POISSON, SourceParams(0.01, 0.5, 0.5, 1e-4))
        assert value == pmf.prob(1)              # bit-exact through the text

    def test_csv_uses_lf_and_header(self, capsys):
        _, out, _ = run(capsys, "pmf", *REF_FLAGS)
        assert "\r" not in out
        header = [l for l in out.splitlines() if not l.startswith("#")][0]
        assert header.split(",") == ["n", "p_heralded", "p_unheralded", "xi"]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "pmf.json"
        code, out, _ = run(capsys, "pmf", *REF_FLAGS, "--format", "json",
                           "--out", str(path))
        assert code == 0 and out == ""
        rec = records.parse(path.read_text())
        assert rec.command == "pmf"

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "pmf", *REF_FLAGS, "--out", str(path))
        assert code == 1 and out == ""
        assert str(path) in err and "Traceback" not in err


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "source.cfg"
        cfg.write_text("mu = 0.01\neta_h = 0.5\neta_s = 0.5\ndark = 1e-4\n")
        code, out, _ = run(capsys, "pmf", "--config", str(cfg))
        assert code == 0
        assert records.parse(out).rows[1]["p_heralded"] == pytest.approx(0.4903, abs=1e-4)

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "source.cfg"
        cfg.write_text("mu = 0.01\neta_h = 0.5\neta_s = 0.5\ndark = 1e-4\n")
        code, out, _ = run(capsys, "moments", "--config", str(cfg), "--dark", "1")
        assert code == 0
        assert records.parse(out).rows[0]["fano"] == pytest.approx(1.0, rel=1e-12)

    def test_blank_and_comment_lines_are_skipped(self, capsys, tmp_path):
        cfg = tmp_path / "source.cfg"
        cfg.write_text("# the reference source\n\nmu = 0.01\n   \n  # eta_h = 0.1\n")
        code, out, _ = run(capsys, "moments", "--config", str(cfg))
        assert code == 0 and out == run(capsys, "moments", "--mu", "0.01")[1]

    def test_line_without_equals_sign_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "source.cfg"
        cfg.write_text("mu = 0.01\neta_h 0.5\n")
        code, out, err = run(capsys, "moments", "--config", str(cfg))
        assert code == 1 and out == ""
        assert f"{cfg}:2: expected key=value, got 'eta_h 0.5'" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "source.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(capsys, "pmf", "--config", str(cfg))
        assert code == 1
        assert "bogus" in err

    def test_bad_value_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "source.cfg"
        cfg.write_text("mu = 0.01\ntrials = abc\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert "trials" in err and "Traceback" not in err

    def test_key_of_another_command_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "source.cfg"
        cfg.write_text("mu = 0.01\ntrials = 5\nmatrix = tiny\n")
        code, out, _ = run(capsys, "moments", "--config", str(cfg))
        assert code == 0 and records.parse(out).rows[0]["mean"] > 0.0

    def test_switches_and_logspace(self, capsys, tmp_path):
        # no command takes a switch, so a no_mc key is unknown
        cfg = tmp_path / "source.cfg"
        cfg.write_text("eta_h = 0.5\neta_s = 0.5\ndark = 1e-4\nmatrix = tiny\n"
                       "mu = 0.01\naxis = mu\nlogspace = 1e-3, 1, 4\n")
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 0 and out == run(capsys, "verify", "--matrix", "tiny")[1]
        assert any(r["check"].startswith("mc_") for r in records.parse(out).rows)
        code, out, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 0 and len(records.parse(out).rows) == 4
        cfg.write_text("matrix = tiny\nno_mc = yes\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 1 and out == "" and "unknown config key 'no_mc'" in err


class TestMomentsCommand:
    def test_reference_source_sub_poisson(self, capsys):
        code, out, _ = run(capsys, "moments", *REF_FLAGS)
        assert code == 0
        row = records.parse(out).rows[0]
        assert row["fano"] < 1.0
        assert row["g2"] < 1.0
        want = moments_closed_form(SourceParams(0.01, 0.5, 0.5, 1e-4))
        assert row == {"mean": want.mean, "variance": want.variance,
                       "fano": want.fano, "g2": want.g2}

    def test_certain_darks_poissonian(self, capsys):
        code, out, _ = run(capsys, "moments", "--mu", "0.016", "--eta-h", "0.5",
                           "--eta-s", "0.5", "--dark", "1")
        row = records.parse(out).rows[0]
        assert row["fano"] == pytest.approx(1.0, rel=1e-12)

    def test_optimal_pump_value(self, capsys):
        code, out, _ = run(capsys, "moments", "--mu", "0.016", "--eta-h", "0.5",
                           "--eta-s", "0.5", "--dark", "1e-4")
        row = records.parse(out).rows[0]
        assert row["fano"] == pytest.approx(0.512, abs=1e-3)

    def test_thermal_agrees_with_pmf_moments(self, capsys):
        code, out, _ = run(capsys, "moments", "--stat", "thermal", *REF_FLAGS)
        row = records.parse(out).rows[0]
        assert row["fano"] < 1.0
        params = SourceParams(0.01, 0.5, 0.5, 1e-4)
        assert row == dataclasses.asdict(moments_closed_form(params, PairStatistics.THERMAL))
        direct = moments_from_pmf(signal_pmf(PairStatistics.THERMAL, params, tol=1e-13))
        for key in ("mean", "variance", "fano", "g2"):
            assert row[key] == pytest.approx(getattr(direct, key), rel=1e-9)

    @pytest.mark.parametrize("config", [
        ["--stat", "poisson"], ["--stat", "thermal"],
        ["--filter", "signal", "--f", "0.5"], ["--filter", "herald", "--f", "0.5"]])
    def test_subnormal_pump_stays_finite(self, capsys, config):
        # mu*eta_h subnormal with d_h = 0: the herald is a pair; the mean
        # once overflowed to inf and g2 to nan
        code, out, _ = run(capsys, "moments", "--mu", "1e-310", "--eta-h", "0.5",
                           "--eta-s", "0.5", "--dark", "0", *config)
        assert code == 0
        row = records.parse(out).rows[0]
        mean, variance = (0.25, 0.1875) if "signal" in config else (0.5, 0.25)
        assert row["mean"] == pytest.approx(mean, rel=1e-12)
        assert row["variance"] == pytest.approx(variance, rel=1e-12)
        assert row["fano"] == pytest.approx(variance / mean, rel=1e-12)
        assert 0.0 <= row["g2"] < 1e-300


class TestOptimizeCommand:
    def test_reference_result(self, capsys):
        code, out, _ = run(capsys, "optimize", "--eta-h", "0.5", "--eta-s", "0.5",
                           "--dark", "1e-4", "--mu-lo", "1e-5", "--mu-hi", "1")
        assert code == 0
        row = records.parse(out).rows[0]
        assert 0.014 <= row["mu_opt"] <= 0.018

    def test_tight_bracket_idempotent(self, capsys):
        _, out1, _ = run(capsys, "optimize", "--eta-h", "0.5", "--eta-s", "0.5",
                         "--dark", "1e-4", "--mu-lo", "1e-5", "--mu-hi", "1")
        _, out2, _ = run(capsys, "optimize", "--eta-h", "0.5", "--eta-s", "0.5",
                         "--dark", "1e-4", "--mu-lo", "0.012", "--mu-hi", "0.02")
        a = records.parse(out1).rows[0]["mu_opt"]
        b = records.parse(out2).rows[0]["mu_opt"]
        assert b == pytest.approx(a, rel=1e-3)

    def test_failed_probe_falls_back_to_the_scan(self, capsys):
        code, out, _ = run(capsys, "optimize", "--eta-h", "0.5", "--eta-s", "0.5",
                           "--dark", "1e-4", "--mu-lo", "1e-6", "--mu-hi", "1")
        assert code == 0
        assert 0.014 <= records.parse(out).rows[0]["mu_opt"] <= 0.018

    def test_pre_scan_flag_is_gone(self, capsys):
        code, _, err = run(capsys, "optimize", "--eta-h", "0.5", "--eta-s", "0.5",
                           "--dark", "1e-4", "--pre-scan")
        assert code == 1 and "--pre-scan" in err

    @pytest.mark.parametrize("flags", [("--eta-h", "0.5", "--dark", "1"),
                                       ("--eta-h", "0", "--dark", "1e-4")])
    def test_herald_without_information_is_a_domain_error(self, capsys, flags):
        code, _, err = run(capsys, "optimize", "--eta-s", "0.5", *flags)
        assert code == 2
        assert "does not depend on the pair number" in err
        assert "widen the bracket" not in err

    def test_zero_darks_documented_error(self, capsys):
        code, _, err = run(capsys, "optimize", "--eta-h", "0.5", "--eta-s", "0.5",
                           "--dark", "0")
        assert code == 2
        assert "d_h" in err


class TestSweepCommand:
    def test_mu_sweep_reproduces_dimming_curve(self, capsys):
        code, out, _ = run(capsys, "sweep", *REF_FLAGS, "--axis", "mu",
                           "--logspace", "1e-4", "1", "25")
        assert code == 0
        rows = records.parse(out).rows
        fanos = [r["fano"] for r in rows]
        k = fanos.index(min(fanos))
        assert 0 < k < len(fanos) - 1

    def test_grid_flag(self, capsys):
        code, out, _ = run(capsys, "sweep", *REF_FLAGS, "--axis", "eta_s",
                           "--grid", "0.25,0.5,0.75")
        assert code == 0
        assert [r["eta_s"] for r in records.parse(out).rows] == [0.25, 0.5, 0.75]

    def test_empty_grid_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", *REF_FLAGS, "--axis", "mu", "--grid", "")
        assert code == 1

    def test_non_numeric_grid_usage_error(self, capsys):
        code, out, err = run(capsys, "sweep", *REF_FLAGS, "--axis", "mu", "--grid", "0.1,x")
        assert code == 1 and out == "" and "bad --grid" in err

    def test_missing_grid_usage_error(self, capsys):
        code, _, _ = run(capsys, "sweep", *REF_FLAGS, "--axis", "mu")
        assert code == 1

    def test_f_axis_without_filter_usage_error(self, capsys):
        code, out, err = run(capsys, "sweep", *REF_FLAGS, "--axis", "f",
                             "--grid", "0.5,1")
        assert code == 1 and out == "" and "--filter" in err

    @pytest.mark.parametrize("grid", ["0.5,0.1", "0.1,nan,0.5"])
    def test_grid_not_strictly_increasing_domain_error(self, capsys, grid):
        code, out, err = run(capsys, "sweep", *REF_FLAGS, "--axis", "mu", "--grid", grid)
        assert code == 2 and out == "" and "strictly increasing" in err

    @pytest.mark.parametrize("logspace", [("a", "1", "5"), ("nan", "1", "3"), ("1e-3", "nan", "3")],
                             ids=["non-numeric", "nan-start", "nan-stop"])
    def test_bad_logspace_usage_error(self, capsys, logspace):
        # a nan START or STOP once passed the order check and printed nan rows
        code, out, err = run(capsys, "sweep", *REF_FLAGS, "--axis", "mu",
                             "--logspace", *logspace)
        assert code == 1 and out == "" and "logspace" in err

    @pytest.mark.parametrize("points", [100_001, 10**20])
    def test_logspace_points_above_the_cap_usage_error(self, capsys, points):
        code, out, err = run(capsys, "sweep", *REF_FLAGS, "--axis", "mu",
                             "--logspace", "1e-3", "1", str(points))
        assert code == 1 and out == "" and "POINTS" in err


    def test_herald_rate_whose_reciprocal_overflows_fails_its_points(self, capsys):
        # p0..p3 printed inf and nan with status 0
        code, out, _ = run(capsys, "sweep", "--mu", "1e-318", "--eta-h", "0.5", "--dark", "0",
                           "--axis", "eta_s", "--grid", "0.5,1")
        assert code == 0
        rows = records.parse(out).rows
        assert len(rows) == 2
        for row in rows:
            assert row["error"] == "herald rate 5e-319 is too small: 1/P_click leaves double range"
            assert [row[f"p{i}"] for i in range(4)] == [None] * 4


    def test_point_whose_pmf_head_is_refused_keeps_its_moments(self, capsys):
        # a subnormal P_click refuses the pmf terms but not the closed moments
        physics = ["--filter", "herald", "--f", "1e-6", "--mu", "30", "--eta-h", "1e-300",
                   "--eta-s", "0.5", "--dark", "0"]
        code, out, _ = run(capsys, "sweep", *physics, "--axis", "mu",
                           "--logspace", "1e-4", "20", "5")
        assert code == 0
        rows = records.parse(out).rows
        refused = [row for row in rows if row["error"] is not None]
        assert len(refused) == 2
        for row in refused:
            assert "1/P_click leaves double range" in row["error"]
            assert [row[f"p{i}"] for i in range(4)] == [None] * 4
            code, out, _ = run(capsys, "moments", *physics[:4], "--mu", repr(row["mu"]),
                               *physics[6:])
            assert code == 0
            moments = records.parse(out).rows[0]
            assert [row[k] for k in ("mean", "variance", "fano", "g2")] == [
                moments[k] for k in ("mean", "variance", "fano", "g2")]
        assert refused[0]["mu"] == 1e-4 and refused[0]["mean"] == pytest.approx(0.50005, rel=1e-6)


class TestSimulateCommand:
    def test_fixed_seed_bit_identical(self, capsys):
        argv = ["simulate", *REF_FLAGS, "--trials", "100000", "--seed", "42"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_agrees_with_closed_form(self, capsys):
        code, out, _ = run(capsys, "simulate", *REF_FLAGS,
                           "--trials", "400000", "--seed", "7")
        assert code == 0
        rows = records.parse(out).rows
        pmf = signal_pmf(PairStatistics.POISSON, SourceParams(0.01, 0.5, 0.5, 1e-4))
        heralded = rows[0]["heralded"]
        for row in rows[:-1]:
            p = pmf.prob(row["n"])
            if p < 1e-6:
                continue
            sigma = math.sqrt(p * (1 - p) / heralded)
            assert abs(row["pmf_hat"] - p) <= 5 * sigma

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stream_provenance_round_trips(self, capsys, fmt):
        code, out, _ = run(capsys, "simulate", *REF_FLAGS, "--trials", "20000",
                           "--format", fmt)
        assert code == 0
        rec = records.parse(out)
        assert rec.inputs["stream"] == STREAM_VERSION
        assert type(rec.inputs["stream"]) is int
        assert rec.inputs["numpy"] == numpy.__version__
        assert records.render(rec, fmt) == out

    def test_zero_trials_domain_error(self, capsys):
        # refused by McConfig, like a trial count beyond int64
        code, out, err = run(capsys, "simulate", *REF_FLAGS, "--trials", "0")
        assert code == 2 and out == "" and "trials must lie in [1, 2**63), got 0" in err

    def test_negative_trials_domain_error(self, capsys):
        # the CLI has no range check of its own: McConfig refuses every end
        code, out, err = run(capsys, "simulate", *REF_FLAGS, "--trials", "-1")
        assert code == 2 and out == "" and "trials must lie in [1, 2**63), got -1" in err

    def test_no_herald_domain_error(self, capsys):
        code, _, _ = run(capsys, "simulate", "--mu", "0", "--dark", "0",
                         "--trials", "1000")
        assert code == 2

    @pytest.mark.parametrize("n_cap", [100_001, 10**15])
    def test_huge_cap_domain_error(self, capsys, n_cap):
        code, out, err = run(capsys, "simulate", *REF_FLAGS, "--trials", "10",
                             "--n-cap", str(n_cap))
        assert code == 2 and out == "" and "n_cap" in err and "Traceback" not in err

    def test_trials_beyond_int64_counts_domain_error(self, capsys):
        code, out, err = run(capsys, "simulate", *REF_FLAGS, "--trials", "1180591620717411303424")
        assert code == 2 and out == "" and "Traceback" not in err
        assert "trials must lie in [1, 2**63)" in err

    def test_mu_above_the_count_table_domain_error(self, capsys):
        code, out, err = run(capsys, "simulate", "--mu", "1001", "--eta-h", "0.5",
                             "--eta-s", "0.5", "--dark", "1e-4", "--trials", "1000")
        assert code == 2 and out == "" and "Traceback" not in err
        assert "mu above 1000 would grow the thermal pair-count table past 44,384 entries" in err

    @pytest.mark.parametrize("stat", list(PairStatistics))
    def test_largest_mu_runs(self, capsys, stat):
        code, out, _ = run(capsys, "simulate", "--stat", stat.value, "--mu", "1000",
                           "--eta-h", "0.5", "--eta-s", "0.5", "--dark", "1e-4",
                           "--trials", "1000")
        assert code == 0
        rows = records.parse(out).rows
        rate = herald_click_probability(stat, SourceParams(1000.0, 0.5, 0.5, 1e-4))
        assert abs(rows[0]["herald_rate"] - rate) <= 5 * math.sqrt(rate * (1 - rate) / 1000)
        assert math.fsum(row["pmf_hat"] for row in rows) == pytest.approx(1.0, abs=1e-12)

    def test_negative_seed_domain_error(self, capsys):
        code, out, err = run(capsys, "simulate", *REF_FLAGS,
                             "--trials", "1000", "--seed", "-1")
        assert code == 2 and out == ""
        assert "seed" in err and "Traceback" not in err


class TestVerifyCommand:
    def test_tiny_matrix_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--matrix", "tiny")
        assert code == 0
        rows = records.parse(out).rows
        assert all(r["status"] == "pass" for r in rows)
        assert {r["check"] for r in rows} >= {
            "poisson_closed_vs_series",
            "thermal_closed_vs_series",
            "herald_filtered_vs_convolution",
            "mc_vs_closed_pmf",
        }

    def test_planted_fault_fails_with_status_3(self, capsys, monkeypatch):
        # the closed moments report a mean 1e-8 relative high, ten times MOMENT_TOL
        moments = analytic._moments

        def faulty(desc, params):
            closed = moments(desc, params)
            return dataclasses.replace(closed, mean=closed.mean * (1.0 + 1e-8))

        monkeypatch.setattr(analytic, "_moments", faulty)
        code, out, _ = run(capsys, "verify", "--matrix", "tiny")
        assert code == 3
        failed = [r["check"] for r in records.parse(out).rows if r["status"] == "fail"]
        assert failed == ["moments_closed_vs_pmf"]

    def test_negative_seed_domain_error(self, capsys):
        code, out, err = run(capsys, "verify", "--matrix", "tiny", "--seed", "-1")
        assert code == 2 and out == "" and "seed" in err

    def test_report_columns(self, capsys):
        _, out, _ = run(capsys, "verify", "--matrix", "tiny")
        row = records.parse(out).rows[0]
        assert set(row) == {"check", "cases", "max_deviation", "tolerance", "status"}

    def test_default_seed_is_the_library_default(self, capsys):
        # the command and run_verification sample the same configurations
        _, out, _ = run(capsys, "verify", "--matrix", "tiny")
        rec = records.parse(out)
        assert rec.inputs["seed"] == verify.DEFAULT_SEED
        library = verify.run_verification("tiny")
        assert [r["max_deviation"] for r in rec.rows] == [r.max_deviation for r in library]

    def test_default_matrix_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        rows = records.parse(out).rows
        assert len(rows) == 8
        assert all(r["status"] == "pass" for r in rows)


class TestHelp:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0

    def test_json_output_is_valid_json(self, capsys):
        _, out, _ = run(capsys, "moments", *REF_FLAGS, "--format", "json")
        payload = json.loads(out)
        assert payload["schema_version"] == "1"


class TestCommandTable:
    def test_every_subcommand_has_one_handler(self):
        handlers = {name[len("cmd_"):] for name in vars(cli) if name.startswith("cmd_")}
        assert handlers == set(cli.build_parser().commands)

    @pytest.mark.parametrize("argv", [
        ["verify", "--matrix", "tiny", "--trials", "100000"],
        ["verify", "--matrix", "tiny", "--no-mc"],
        ["verify", "--matrix", "tiny", "--tolerance", "0"],
        ["optimize", "--eta-h", "0.5", "--eta-s", "0.5", "--dark", "1e-4", "--rel-tol", "1e-4"]],
        ids=["verify-trials", "verify-no-mc", "verify-tolerance", "optimize-rel-tol"])
    def test_retired_flags_are_usage_errors(self, capsys, argv):
        # every Monte Carlo check runs MC_TRIALS trials and none can be skipped;
        # each check keeps its own tolerance, and the search its REL_TOL
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "unrecognized arguments" in err

    @pytest.mark.parametrize("command,key", [("verify", "tolerance"), ("optimize", "rel_tol")])
    def test_retired_config_keys_are_unknown(self, capsys, tmp_path, command, key):
        cfg = tmp_path / "source.cfg"
        cfg.write_text(f"eta_h = 0.5\neta_s = 0.5\ndark = 1e-4\nmatrix = tiny\n{key} = 1e-4\n")
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 1 and out == "" and f"unknown config key {key!r}" in err

    @pytest.mark.parametrize("argv,key", [
        (["verify", "--matrix", "tiny"], "tolerance"),
        (["optimize", "--eta-h", "0.5", "--eta-s", "0.5", "--dark", "1e-4"], "rel_tol")],
        ids=["verify-tolerance", "optimize-rel_tol"])
    def test_records_echo_no_retired_input(self, capsys, argv, key):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and key not in records.parse(out).inputs

    def test_readme_names_every_flag_and_no_retired_one(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        named = lambda flag: re.search(re.escape(flag) + r"(?![\w-])", readme) is not None
        flags = {option for sub in cli.build_parser().commands.values()
                 for action in sub._actions for option in action.option_strings
                 if option.startswith("--") and option != "--help"}
        assert sorted(flag for flag in flags if not named(flag)) == []
        assert [flag for flag in ("--tolerance", "--rel-tol") if named(flag)] == []

    def test_main_calls_the_handler_attribute(self, capsys, monkeypatch):
        # tracers wrap cmd_* by replacing the module attribute: main must call the wrapper
        seen = []
        original = cli.cmd_moments

        def wrapper(s):
            seen.append(s["mu"])
            return original(s)

        monkeypatch.setattr(cli, "cmd_moments", wrapper)
        code, out, _ = run(capsys, "moments", *REF_FLAGS)
        assert (code, seen) == (0, [0.01])
        assert records.parse(out).command == "moments"
