"""Random argv over every command: the CLI ends with a documented exit
status and never lets an exception escape.

Flags come from the real parser, values mix valid and invalid ones.  Work
is bounded: --trials <= 1e5, --n-cap <= 256, --nmax <= 500, at most 8 sweep
points, and verify runs only as ``--matrix tiny --no-mc``.  --n-cap, --nmax
and the --logspace point count are also drawn above the 100,000 cap, where
they are refused before any work.  ``--help`` leaves through
``SystemExit(0)``, as argparse does; ``test_cli`` covers it.
"""

import argparse
import contextlib
import io
import itertools
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from hspstats import cli, records
from hspstats.model import TERM_CAP

VALID = ["0", "1e-6", "0.01", "0.3", "0.5", "1"]
INVALID = ["-1", "1.5", "30", "1e300", "nan", "inf", "-inf", "abc", ""]
INT_BOUNDS = {"--trials": 100_000, "--n-cap": 256, "--nmax": 500, "--seed": 2**65}
ABOVE_CAP = st.integers(TERM_CAP + 1, 10**20).map(str)
VERIFY_FIXED = ["--matrix", "tiny", "--no-mc"]


def floats():
    return st.one_of(st.sampled_from(VALID), st.floats(0, 1).map(repr),
                     st.sampled_from(INVALID), st.floats(-1e3, 1e3).map(repr))


def ints(flag):
    top = INT_BOUNDS.get(flag, 100)
    return st.one_of(st.integers(-(2**65), top).map(str), st.integers(-2, 12).map(str),
                     st.sampled_from(["abc", "1.5", "", "1e3"]),
                     *([ABOVE_CAP] if flag in ("--n-cap", "--nmax") else []))


def values(flag, action, paths):
    """Strategy for the argv words of one flag: [] for a switch, else the
    flag with one value (or three for --logspace)."""
    if action.nargs == 0:
        return st.just([flag])
    if flag == "--logspace":
        points = st.one_of(st.integers(-1, 8).map(str), st.sampled_from(["x", "2.5"]), ABOVE_CAP)
        return st.tuples(floats(), floats(), points).map(lambda v: [flag, *v])
    if flag == "--grid":
        return st.lists(floats(), max_size=8).map(lambda v: [flag, ",".join(v)])
    if flag in ("--out", "--config"):
        return st.sampled_from(paths[flag]).map(lambda v: [flag, v])
    if action.choices:
        return st.sampled_from([*action.choices, "bogus"]).map(lambda v: [flag, v])
    if action.type is int:
        return ints(flag).map(lambda v: [flag, v])
    return floats().map(lambda v: [flag, v])


def argv_strategy(paths):
    per_command = []
    for name, sub in cli.build_parser().commands.items():
        flags = {a.option_strings[0]: a for a in sub._actions
                 if a.option_strings and not isinstance(a, argparse._HelpAction)}
        if name == "verify":
            for fixed in ("--matrix", "--no-mc"):
                flags.pop(fixed)
        words = st.lists(st.sampled_from(sorted(flags)), max_size=6, unique=True).flatmap(
            lambda chosen, flags=flags: st.tuples(
                *(values(f, flags[f], paths) for f in chosen)))
        extra = VERIFY_FIXED if name == "verify" else []
        per_command.append(words.map(
            lambda groups, name=name, extra=extra: [name, *extra,
                                                    *(w for g in groups for w in g)]))
    return st.one_of(per_command)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    good = root / "good.cfg"
    good.write_text("mu = 0.01\neta_h = 0.5\ndark = 1e-4\ntrials = 1000\n")
    bad = root / "bad.cfg"
    bad.write_text("mu = abc\nno equals sign\n")
    return {"--out": [str(root / "out.txt"), str(root / "missing" / "out.txt")],
            "--config": [str(good), str(bad), str(root / "absent.cfg")]}


def test_random_argv_ends_in_a_documented_status(paths):
    @settings(max_examples=80)
    @given(argv_strategy(paths))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue()

    run()


CORNER_COMMANDS = [["pmf", "--nmax", "4"], ["moments"], ["sweep", "--grid", "1e-318,0.1"]]


def _run(argv):
    """(exit status, stdout, stderr) of one CLI call that must end documented."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    return code, out.getvalue(), err.getvalue()


def _corners():
    """Subnormal means and efficiencies, with and without dark counts,
    behind every filter."""
    for mu, eta_s, dark, branch, f in itertools.product(
            ["5e-324", "1e-318"], ["1e-318", "1"], ["0", "0.1"],
            ["none", "signal", "herald"], ["1e-6", "0.5"]):
        yield ["--mu", mu, "--eta-h", "0.5", "--eta-s", eta_s, "--dark", dark,
               "--filter", branch, "--f", f]


@pytest.mark.parametrize("command", CORNER_COMMANDS, ids=lambda c: c[0])
def test_subnormal_corners_end_in_a_documented_status(command):
    # a kept-mode mean that underflows to 0 beside a nonzero extraneous one
    # used to escape from pmf as ZeroDivisionError
    assert 0 in {_run([*command, *flags])[0] for flags in _corners()}


# |p_heralded - xi p_unheralded| was at most 3.2e-15 p_heralded where
# p_heralded >= 1e-290, and 1.0e-305 below, over 800 random pmf --nmax 200
# tables of the four configurations and the subnormal corners
XI_RTOL, XI_ATOL = 1e-14, 1e-300
PMF_CONFIGURATIONS = [["--stat", "poisson"], ["--stat", "thermal"],
                      ["--filter", "signal"], ["--filter", "herald"]]


def _rows_multiply_out(argv) -> bool:
    """Whether the pmf table printed; its every row has a finite xi with
    p_heralded = xi p_unheralded."""
    code, out, _ = _run(argv)
    for row in records.parse(out).rows if code == 0 else ():
        p, u, x = row["p_heralded"], row["p_unheralded"], row["xi"]
        assert type(x) is float and math.isfinite(x), (argv, row)
        assert abs(p - x * u) <= XI_RTOL * p + XI_ATOL, (argv, row)
    return code == 0


@pytest.mark.parametrize("mu, f", [("0.01", "0.3"), ("0.5", "0.3"), ("30", "1e-6")])
@pytest.mark.parametrize("config", PMF_CONFIGURATIONS, ids=lambda c: c[-1])
def test_pmf_rows_multiply_out(config, mu, f):
    # at mu 30, f 1e-6 behind a herald filter p(n)/Th(a, n) left double range
    assert _rows_multiply_out(["pmf", *config, "--mu", mu, "--eta-h", "0.5", "--eta-s", "0.8",
                               "--dark", "1e-4", "--f", f, "--nmax", "150"])


def test_pmf_rows_multiply_out_at_subnormal_corners():
    # where the kept-mode mean underflowed, xi(n >= 1) used to print null
    printed = [_rows_multiply_out(["pmf", "--nmax", "4", *flags]) for flags in _corners()]
    assert sum(printed) >= 24


# floats in [0, 1], log-uniform down to the smallest subnormal, plus 0 and 1
UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(math.log(5e-324), 0.0).map(math.exp))


@st.composite
def physics_argv(draw):
    """pmf, moments or sweep argv of one of the four configurations."""
    command = draw(st.sampled_from(["pmf", "moments", "sweep"]))
    config = draw(st.sampled_from(PMF_CONFIGURATIONS))
    argv = [command, *config, *(w for flag in ("--mu", "--eta-h", "--eta-s", "--dark")
                                for w in (flag, repr(draw(UNIT))))]
    if "--filter" in config:
        argv += ["--f", repr(draw(st.floats(math.log(1e-6), 0.0).map(math.exp)))]
    if command == "sweep":
        axes = ["mu", "eta_h", "eta_s", "d_h", *(["f"] if "--filter" in config else [])]
        grid = sorted(set(draw(st.lists(UNIT, min_size=1, max_size=4))))
        argv += ["--axis", draw(st.sampled_from(axes)), "--grid", ",".join(map(repr, grid))]
    return argv


@settings(max_examples=200)
@given(physics_argv())
def test_physics_at_any_scale_ends_finite_or_refused(argv):
    # a subnormal herald rate printed inf and nan sweep cells with status 0,
    # and made pmf refuse its own p(0) = nan
    code, out, err = _run(argv)
    assert re.search(r"p\(0\) = (inf|nan)", err) is None, (argv, err)
    if code == 0:
        record = records.parse(out)
        for value in [*record.inputs.values(), *(v for row in record.rows for v in row.values())]:
            assert not isinstance(value, float) or math.isfinite(value), (argv, value)
