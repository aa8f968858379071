"""Command-line surface: pmf, moments, optimize, sweep, simulate, verify.

Each command is one ``cmd_<command>`` function that returns its echoed
inputs and its rows; ``main`` looks it up by name when it runs and alone
builds the :class:`~hspstats.records.OutputRecord`, written as CSV or JSON
(``--format``) to stdout or ``--out``.  Physical inputs are flags; a
flat ``key = value`` config file (``--config``) may supply defaults, with
flags taking precedence.

Exit statuses: 0 success, 1 usage error, 2 domain error (no-herald and
friends), 3 verification failure.
"""

import argparse
import dataclasses
import sys

import numpy

from . import analytic, optimize as opt, records
from .errors import HspsError
from .model import (
    TERM_CAP,
    FilterBranch,
    FilterSpec,
    PairStatistics,
    SourceParams,
    to_record,
)
from .montecarlo import STREAM_VERSION, McConfig, simulate
from .verify import DEFAULT_SEED, MATRIX_SIZES, run_verification

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3

class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exit status 1."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _add_physics_flags(p: Parser):
    p.add_argument("--stat", choices=[s.value for s in PairStatistics], default="poisson",
                   help="pair-number law")
    p.add_argument("--mu", type=float, help="mean pairs per time bin")
    _add_detection_flags(p)
    p.add_argument("--filter", choices=[b.value for b in FilterBranch], default="none",
                   help="filtered branch")
    p.add_argument("--f", type=float, default=1.0, help="transmitted mode fraction")


def _add_detection_flags(p: Parser):
    p.add_argument("--eta-h", dest="eta_h", type=float, default=1.0,
                   help="heralding-branch transmission")
    p.add_argument("--eta-s", dest="eta_s", type=float, default=1.0,
                   help="signal-branch transmission")
    p.add_argument("--dark", type=float, default=0.0, help="dark-count probability per bin")


def _add_output_flags(p: Parser):
    p.add_argument("--format", choices=list(records.FORMATS), default="csv",
                   help="output encoding")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.add_argument("--config", help="flat key=value file supplying flag defaults")


def build_parser() -> Parser:
    parser = Parser(prog="hspstats", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmf", help="heralded vs unheralded photon-number table")
    _add_physics_flags(p)
    p.add_argument("--tol", type=float, default=analytic.DEFAULT_TOL, help="pmf tail tolerance")
    p.add_argument("--nmax", type=int, help="emit rows for n = 0..nmax")
    _add_output_flags(p)

    p = sub.add_parser("moments", help="mean, variance, Fano ratio, g2")
    _add_physics_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("optimize", help="pump level minimizing the Fano ratio")
    _add_detection_flags(p)
    p.add_argument("--mu-lo", dest="mu_lo", type=float, default=1e-6, help="bracket lower end")
    p.add_argument("--mu-hi", dest="mu_hi", type=float, default=10.0, help="bracket upper end")
    _add_output_flags(p)

    p = sub.add_parser("sweep", help="moments and leading pmf terms along one axis")
    _add_physics_flags(p)
    p.add_argument("--axis", choices=list(opt.SWEEP_AXES), default="mu", help="swept parameter")
    p.add_argument("--grid", help="comma-separated grid values")
    p.add_argument("--logspace", nargs=3, metavar=("START", "STOP", "POINTS"),
                   help="log-spaced grid")
    _add_output_flags(p)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of the heralded pmf")
    _add_physics_flags(p)
    p.add_argument("--trials", type=int, default=1_000_000, help="number of simulated time bins")
    p.add_argument("--seed", type=int, default=0, help="64-bit reproducibility seed")
    p.add_argument("--n-cap", dest="n_cap", type=int, default=64, help="histogram clamp")
    _add_output_flags(p)

    p = sub.add_parser("verify", help="closed form vs series vs convolution vs MC")
    p.add_argument("--matrix", choices=sorted(MATRIX_SIZES), default="default",
                   help="matrix size")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sampling seed")
    _add_output_flags(p)
    parser.commands = sub.choices
    return parser


def _read_config(path: str) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    return out


def _config_argv(path: str, command: str, commands: dict) -> list:
    """The config file's ``key = value`` lines as flags of ``command``.

    A key that only another command takes is dropped; one that no command
    takes is a usage error.  ``logspace`` takes comma-separated values.
    """
    defaults = {name: vars(p.parse_args([])) for name, p in commands.items()}
    known = set().union(*defaults.values()) - {"config"}
    argv = []
    for key, value in _read_config(path).items():
        if key not in known:
            raise UsageError(f"unknown config key {key!r}")
        if key not in defaults[command]:
            continue
        flag = "--" + key.replace("_", "-")
        if key == "logspace":
            argv += [flag, *(v.strip() for v in value.split(","))]
        else:
            argv.append(f"{flag}={value}")
    return argv


def _physics(s: dict) -> tuple[PairStatistics, SourceParams, FilterSpec]:
    if s["mu"] is None:
        raise UsageError("--mu is required (flag or config file)")
    stat = PairStatistics(s["stat"])
    params = SourceParams(s["mu"], s["eta_h"], s["eta_s"], s["dark"])
    filt = FilterSpec(FilterBranch(s["filter"]), s["f"] if s["filter"] != "none" else 1.0)
    return stat, params, filt


def _echo_inputs(stat, params, filt, extra: dict | None = None) -> dict:
    inputs = {"stat": stat.value}
    inputs.update(to_record(params, filt))
    if extra:
        inputs.update(extra)
    return inputs


def cmd_pmf(s: dict) -> tuple[dict, list]:
    stat, params, filt = _physics(s)
    if s["nmax"] is not None and not 0 <= s["nmax"] <= TERM_CAP:
        raise UsageError(f"--nmax must lie in [0, {TERM_CAP}], got {s['nmax']}")
    pmf = analytic.signal_pmf(stat, params, filt, s["tol"])
    count = len(pmf) if s["nmax"] is None else s["nmax"] + 1
    # rows beyond the truncated pmf take the exact terms that continue it
    columns = (analytic.heralded_terms(stat, params, filt, count),
               analytic.unconditioned_terms(stat, params, filt, count),
               analytic.xi_values(stat, params, filt, count - 1))
    rows = [{"n": n, "p_heralded": p, "p_unheralded": u, "xi": x}
            for n, (p, u, x) in enumerate(zip(*columns))]
    return _echo_inputs(stat, params, filt, {"tol": s["tol"], "tail_bound": pmf.tail_bound}), rows


def cmd_moments(s: dict) -> tuple[dict, list]:
    stat, params, filt = _physics(s)
    rows = [dataclasses.asdict(analytic.moments_closed_form(params, stat, filt))]
    return _echo_inputs(stat, params, filt), rows


def cmd_optimize(s: dict) -> tuple[dict, list]:
    result = opt.optimize_mu(s["eta_h"], s["eta_s"], s["dark"], bounds=(s["mu_lo"], s["mu_hi"]))
    inputs = {"eta_h": s["eta_h"], "eta_s": s["eta_s"], "d_h": s["dark"],
              "mu_lo": s["mu_lo"], "mu_hi": s["mu_hi"]}
    return inputs, [dataclasses.asdict(result)]


def _parse_grid(s: dict) -> tuple:
    if (s["grid"] is None) == (s["logspace"] is None):
        raise UsageError("provide exactly one of --grid or --logspace")
    if s["grid"] is not None:
        try:
            grid = tuple(float(v) for v in str(s["grid"]).split(",") if v.strip())
        except ValueError as exc:
            raise UsageError(f"bad --grid: {exc}") from exc
        if not grid:
            raise UsageError("--grid must contain at least one value")
        return grid
    try:
        start, stop, points = s["logspace"]
        start, stop, points = float(start), float(stop), int(points)
    except ValueError as exc:
        raise UsageError(f"bad --logspace: {exc}") from None
    if not 0 < start < stop or not 2 <= points <= TERM_CAP:   # also true for nan
        raise UsageError(f"--logspace needs 0 < START < STOP and 2 <= POINTS <= {TERM_CAP}")
    ratio = (stop / start) ** (1.0 / (points - 1))
    return tuple(start * ratio**i for i in range(points))


def cmd_sweep(s: dict) -> tuple[dict, list]:
    stat, params, filt = _physics(s)
    if s["axis"] == "f" and filt.branch is FilterBranch.NONE:
        raise UsageError("--axis f needs a mode filter: --filter signal or herald")
    grid = _parse_grid(s)
    result = opt.sweep(params, stat, filt, s["axis"], grid)
    failed = dict.fromkeys(("mean", "variance", "fano", "g2"))
    rows = []
    for row in result.rows:
        rows.append({
            result.axis: row.value,
            **(failed if row.moments is None else dataclasses.asdict(row.moments)),
            **{f"p{i}": p for i, p in enumerate(row.pmf_head or (None,) * opt.PMF_HEAD)},
            "error": row.error,
        })
    return _echo_inputs(stat, params, filt, {"axis": s["axis"]}), rows


def cmd_simulate(s: dict) -> tuple[dict, list]:
    stat, params, filt = _physics(s)
    config = McConfig(params=params, stat=stat, filt=filt,
                      trials=s["trials"], seed=s["seed"], n_cap=s["n_cap"])
    est = simulate(config)
    rows = [
        {
            "n": n,
            "pmf_hat": est.pmf_hat[n],
            "stderr": est.stderr[n],
            "herald_rate": est.herald_rate,
            "heralded": est.heralded,
            "cap_mass": est.cap_mass,
        }
        for n in range(len(est.pmf_hat))
    ]
    return _echo_inputs(stat, params, filt,
                        {"trials": s["trials"], "seed": s["seed"], "n_cap": s["n_cap"],
                         "stream": STREAM_VERSION, "numpy": numpy.__version__}), rows


def cmd_verify(s: dict) -> tuple[dict, list]:
    results = run_verification(matrix=s["matrix"], seed=s["seed"])
    rows = [{"check": r.check, "cases": r.cases, "max_deviation": r.max_deviation,
             "tolerance": r.tolerance, "status": "pass" if r.passed else "fail"}
            for r in results]
    return {"matrix": s["matrix"], "seed": s["seed"]}, rows


def _emit(record: records.OutputRecord, s: dict):
    text = records.render(record, s["format"])
    if s["out"]:
        try:
            with open(s["out"], "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {s['out']}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def main(argv: list | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config lines go before the command-line flags, which so win
            at = argv.index(args.command) + 1
            config = _config_argv(args.config, args.command, parser.commands)
            try:
                args = parser.parse_args(argv[:at] + config + argv[at:])
            except UsageError as exc:
                raise UsageError(f"{args.config}: {exc}") from None
        s = vars(args)
        # looked up at call time, so a wrapper put on a cmd_* attribute is the one called
        inputs, rows = globals()["cmd_" + args.command](s)
        _emit(records.OutputRecord(records.SCHEMA_VERSION, args.command, inputs, rows), s)
        failed = args.command == "verify" and any(r["status"] == "fail" for r in rows)
        return EXIT_VERIFY if failed else EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HspsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
