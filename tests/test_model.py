import dataclasses
import math
import pickle

import numpy
import pytest

from hspstats import (
    NO_FILTER,
    FilterBranch,
    FilterSpec,
    McConfig,
    MomentSummary,
    PairStatistics,
    Pmf,
    SourceParams,
    ValidationError,
    effective_dark_count,
    herald_filter_convolution_oracle,
)
from hspstats import records
from hspstats.model import to_record
from hspstats.montecarlo import McEstimate
from hspstats.optimize import SweepRow


class TestSourceParams:
    def test_accepts_reference_configuration(self):
        p = SourceParams(mu=0.01, eta_h=0.5, eta_s=0.5, d_h=1e-4)
        assert (p.mu, p.eta_h, p.eta_s, p.d_h) == (0.01, 0.5, 0.5, 1e-4)

    def test_accepts_boundary_values(self):
        SourceParams(0.0, 1.0, 1.0, 0.0)
        SourceParams(0.0, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu=0.01, eta_h=1.2, eta_s=0.5, d_h=0.0),
            dict(mu=-0.01, eta_h=0.5, eta_s=0.5, d_h=0.0),
            dict(mu=0.01, eta_h=0.5, eta_s=-0.1, d_h=0.0),
            dict(mu=0.01, eta_h=0.5, eta_s=0.5, d_h=2.0),
            dict(mu=math.nan, eta_h=0.5, eta_s=0.5, d_h=0.0),
            dict(mu=math.inf, eta_h=0.5, eta_s=0.5, d_h=0.0),
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValidationError):
            SourceParams(**kwargs)

    def test_error_names_the_field(self):
        with pytest.raises(ValidationError, match="eta_h"):
            SourceParams(0.01, 1.2, 0.5, 0.0)

    def test_immutable(self):
        p = SourceParams(0.01, 0.5, 0.5, 1e-4)
        with pytest.raises(AttributeError):
            p.mu = 0.02


class TestFilterSpec:
    def test_defaults_to_no_filter(self):
        assert NO_FILTER.branch is FilterBranch.NONE
        assert NO_FILTER.f == 1.0

    def test_rejects_zero_fraction(self):
        with pytest.raises(ValidationError):
            FilterSpec(FilterBranch.HERALD, 0.0)

    def test_rejects_below_minimum_fraction(self):
        with pytest.raises(ValidationError):
            FilterSpec(FilterBranch.HERALD, 1e-9)

    def test_accepts_minimum_fraction(self):
        FilterSpec(FilterBranch.HERALD, 1e-6)

    def test_rejects_a_branch_that_is_not_a_filter_branch(self):
        with pytest.raises(ValidationError, match="branch must be a FilterBranch, got 'herald'"):
            FilterSpec("herald", 0.5)

    def test_rejects_fraction_above_one(self):
        with pytest.raises(ValidationError):
            FilterSpec(FilterBranch.SIGNAL, 1.5)

    @pytest.mark.parametrize("f", [0.0, 1e-9, 1.5, math.nan])
    @pytest.mark.parametrize("entry", [
        lambda f: FilterSpec(FilterBranch.SIGNAL, f),
        lambda f: effective_dark_count(SourceParams(0.3, 0.5, 0.5, 1e-4), f),
        lambda f: herald_filter_convolution_oracle(SourceParams(0.3, 0.5, 0.5, 1e-4), f),
    ], ids=["FilterSpec", "effective_dark_count", "herald_filter_convolution_oracle"])
    def test_one_domain_and_message_for_f(self, entry, f):
        # every entry point that takes a bare f validates it through FilterSpec
        with pytest.raises(ValidationError, match=r"must lie in \[1e-06, 1\], got"):
            entry(f)


class TestPmf:
    def test_valid(self):
        pmf = Pmf((0.5, 0.25, 0.125), 0.125)
        assert len(pmf) == 3
        assert pmf.prob(2) == 0.125
        assert pmf.prob(17) == 0.0

    def test_rejects_no_terms(self):
        with pytest.raises(ValidationError, match="at least one term"):
            Pmf((), 1.0)

    @pytest.mark.parametrize("tail", [-1e-300, math.nan, math.inf])
    def test_rejects_a_tail_bound_that_is_not_finite_and_non_negative(self, tail):
        with pytest.raises(ValidationError, match="tail_bound must be finite and >= 0"):
            Pmf((1.0,), tail)

    def test_prob_refuses_a_negative_photon_number(self):
        with pytest.raises(ValidationError, match="photon number must be >= 0, got -1"):
            Pmf((1.0,), 0.0).prob(-1)

    def test_rejects_negative_probability(self):
        with pytest.raises(ValidationError):
            Pmf((1.1, -0.1), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.0 + 2**-52, -5e-324])
    def test_rejects_non_probability_naming_the_first_bad_term(self, bad):
        with pytest.raises(ValidationError, match=r"^p\(1\) = "):
            Pmf((0.5, bad, 0.25, bad), 0.5)

    def test_accepts_the_unit_interval_ends(self):
        assert Pmf((0.0, 1.0, -0.0), 0.0).probs == (0.0, 1.0, -0.0)
        assert Pmf(["0.25", 0.75], 0.0).probs == (0.25, 0.75)

    def test_rejects_mass_outside_window(self):
        with pytest.raises(ValidationError):
            Pmf((0.5, 0.25), 0.1)  # mass 0.75 but tail bound only 0.1

    def test_rejects_mass_above_one(self):
        with pytest.raises(ValidationError):
            Pmf((0.7, 0.7), 0.5)


class TestMomentSummary:
    def test_rejects_negative_variance(self):
        with pytest.raises(ValidationError):
            MomentSummary(1.0, -0.5, None, None)


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        # the CLI echoes to_record into every output record's inputs
        p = SourceParams(0.0123456789012345678, 0.5, 1.0 / 3.0, 1e-4)
        filt = FilterSpec(FilterBranch.HERALD, 0.1)
        for fmt in records.FORMATS:
            rec = records.OutputRecord(records.SCHEMA_VERSION, "pmf", to_record(p, filt), [])
            back = records.parse(records.render(rec, fmt)).inputs
            assert SourceParams(back["mu"], back["eta_h"], back["eta_s"], back["d_h"]) == p
            assert FilterSpec(FilterBranch(back["filter_branch"]), back["f"]) == filt

    def test_accepts_string_values(self):
        p = SourceParams("0.01", "0.5", "0.5", "1e-4")
        assert p == SourceParams(0.01, 0.5, 0.5, 1e-4) and p.d_h == 1e-4
        assert FilterSpec(FilterBranch("signal"), "0.2").f == 0.2

    def test_record_keys(self):
        rec = to_record(SourceParams(0.01, 0.5, 0.5, 1e-4), NO_FILTER)
        assert set(rec) == {"mu", "eta_h", "eta_s", "d_h", "filter_branch", "f"}

    def test_pair_statistics_values(self):
        assert PairStatistics("poisson") is PairStatistics.POISSON
        assert PairStatistics("thermal") is PairStatistics.THERMAL


# (type, positional arguments, field names, default values) of each value type
# whose __init__ writes its fields straight into the instance dict
VALUE_TYPES = {
    "SourceParams": (SourceParams, (0.01, 0.5, 0.25, 1e-4), ("mu", "eta_h", "eta_s", "d_h"),
                     {}),
    "FilterSpec": (FilterSpec, (FilterBranch.HERALD, 0.3), ("branch", "f"),
                   {"branch": FilterBranch.NONE, "f": 1.0}),
    "SweepRow": (SweepRow, (0.1, MomentSummary(0.5, 0.25, 0.5, 0.0), (0.5, 0.5, 0.0, 0.0),
                            "refused"),
                 ("value", "moments", "pmf_head", "error"), {"error": None}),
    "Pmf": (Pmf, ((0.5, 0.25, 0.25), 0.0), ("probs", "tail_bound"), {}),
    "McConfig": (McConfig, (SourceParams(0.01, 0.5, 0.25, 1e-4), PairStatistics.POISSON,
                            FilterSpec(FilterBranch.HERALD, 0.3), 1000, 7, 16),
                 ("params", "stat", "filt", "trials", "seed", "n_cap"),
                 {"stat": PairStatistics.POISSON, "filt": NO_FILTER, "trials": 1_000_000,
                  "seed": 0, "n_cap": 64}),
    "McEstimate": (McEstimate, ((0.75, 0.25), (0.01, 0.01), 0.5, 1000, 500, 0.25),
                   ("pmf_hat", "stderr", "herald_rate", "trials_used", "heralded", "cap_mass"),
                   {}),
}


each_type = pytest.mark.parametrize("cls, args, names, defaults", list(VALUE_TYPES.values()),
                                    ids=list(VALUE_TYPES))


class TestValueTypes:
    @each_type
    def test_positional_and_keyword_construction_agree(self, cls, args, names, defaults):
        a, b = cls(*args), cls(**dict(zip(names, args)))
        assert a == b and hash(a) == hash(b)
        assert tuple(getattr(a, name) for name in names) == args

    @each_type
    def test_fields_and_asdict_are_unchanged(self, cls, args, names, defaults):
        fields = dataclasses.fields(cls)
        assert tuple(f.name for f in fields) == names
        assert {f.name: f.default for f in fields if f.default is not dataclasses.MISSING} \
            == defaults
        obj = cls(*args)
        assert dataclasses.asdict(obj) == {
            name: dataclasses.asdict(v) if dataclasses.is_dataclass(v) else v
            for name, v in zip(names, args)}

    def test_defaults(self):
        assert FilterSpec() == NO_FILTER
        assert SweepRow(0.1, None, None).error is None

    def test_replace_substitutes_one_field(self):
        row = SweepRow(0.1, None, None, "refused")
        assert dataclasses.replace(row, error=None) == SweepRow(0.1, None, None, None)
        params = SourceParams(0.01, 0.5, 0.5, 1e-4)
        assert dataclasses.replace(params, eta_s=0.75) == SourceParams(0.01, 0.5, 0.75, 1e-4)
        filt = FilterSpec(FilterBranch.HERALD, 0.3)
        assert dataclasses.replace(filt, f=0.5) == FilterSpec(FilterBranch.HERALD, 0.5)
        assert dataclasses.replace(Pmf((1.0,), 0.0), tail_bound=0.5) == Pmf((1.0,), 0.5)
        config = McConfig(params, seed=3)
        assert dataclasses.replace(config, n_cap=8) == McConfig(params, seed=3, n_cap=8)

    @pytest.mark.parametrize("obj, field, bad, message", [
        (SourceParams(0.01, 0.5, 0.5, 1e-4), "mu", -1.0, "mu must be finite and >= 0, got -1.0"),
        (SourceParams(0.01, 0.5, 0.5, 1e-4), "eta_s", 1.5, "eta_s must lie in [0, 1], got 1.5"),
        (SourceParams(0.01, 0.5, 0.5, 1e-4), "d_h", math.nan, "d_h must lie in [0, 1], got nan"),
        (FilterSpec(FilterBranch.SIGNAL, 0.5), "f", 0.0,
         "mode fraction f must lie in [1e-06, 1], got 0.0"),
        (FilterSpec(FilterBranch.SIGNAL, 0.5), "branch", "signal",
         "branch must be a FilterBranch, got 'signal'"),
        (Pmf((1.0,), 0.0), "probs", (0.5,), "pmf mass 0.5 outside [1 - 0.0, 1 + 1e-12]"),
        (McConfig(SourceParams(0.01, 0.5, 0.5, 1e-4)), "trials", 0,
         "trials must lie in [1, 2**63), got 0"),
        (McConfig(SourceParams(0.01, 0.5, 0.5, 1e-4), filt=FilterSpec(FilterBranch.HERALD, 0.5)),
         "stat", PairStatistics.THERMAL, "a mode filter requires Poisson pair statistics"),
    ])
    def test_replace_still_validates_and_names_the_field(self, obj, field, bad, message):
        with pytest.raises(ValidationError) as exc:
            dataclasses.replace(obj, **{field: bad})
        assert str(exc.value) == message

    def test_checks_run_in_field_order(self):
        with pytest.raises(ValidationError, match="^mu "):
            SourceParams(-1.0, 2.0, 2.0, 2.0)
        with pytest.raises(ValidationError, match="^eta_h "):
            SourceParams(1.0, 2.0, 2.0, 2.0)
        with pytest.raises(ValidationError, match="^eta_s "):
            SourceParams(1.0, 0.5, 2.0, 2.0)
        with pytest.raises(ValidationError, match="^branch "):
            FilterSpec(None, 0.0)
        with pytest.raises(ValidationError, match="^a pmf needs"):
            Pmf((), -1.0)
        with pytest.raises(ValidationError, match="^tail_bound "):
            Pmf((0.5,), -1.0)

    @each_type
    def test_assignment_raises(self, cls, args, names, defaults):
        obj = cls(*args)
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, args[0])
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
        assert tuple(getattr(obj, name) for name in names) == args

    @each_type
    def test_pickle_round_trip(self, cls, args, names, defaults):
        obj = cls(*args)
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and hash(back) == hash(obj) and type(back) is cls

    @pytest.mark.parametrize("obj, text", [
        (SourceParams(0.01, 0.5, 0.25, 1e-4),
         "SourceParams(mu=0.01, eta_h=0.5, eta_s=0.25, d_h=0.0001)"),
        (FilterSpec(FilterBranch.HERALD, 0.3),
         "FilterSpec(branch=<FilterBranch.HERALD: 'herald'>, f=0.3)"),
        (SweepRow(0.1, None, None, "refused"),
         "SweepRow(value=0.1, moments=None, pmf_head=None, error='refused')"),
        (Pmf((0.5, 0.25, 0.25), 0.0), "Pmf(probs=(0.5, 0.25, 0.25), tail_bound=0.0)"),
        (McConfig(SourceParams(0.01, 0.5, 0.25, 1e-4), seed=7),
         "McConfig(params=SourceParams(mu=0.01, eta_h=0.5, eta_s=0.25, d_h=0.0001), "
         "stat=<PairStatistics.POISSON: 'poisson'>, filt=FilterSpec(branch=<FilterBranch.NONE: "
         "'none'>, f=1.0), trials=1000000, seed=7, n_cap=64)"),
        (McEstimate((1.0,), (0.0,), 0.5, 2, 1, 1.0),
         "McEstimate(pmf_hat=(1.0,), stderr=(0.0,), herald_rate=0.5, trials_used=2, heralded=1, "
         "cap_mass=1.0)"),
    ], ids=list(VALUE_TYPES))
    def test_repr(self, obj, text):
        assert repr(obj) == text

    @pytest.mark.parametrize("raw", [1, numpy.float64(0.5), "0.5"], ids=["int", "float64", "str"])
    def test_numbers_are_stored_as_float(self, raw):
        params = SourceParams(raw, raw, raw, raw)
        filt = FilterSpec(FilterBranch.SIGNAL, raw)
        for value in (params.mu, params.eta_h, params.eta_s, params.d_h, filt.f):
            assert type(value) is float and value == float(raw)
