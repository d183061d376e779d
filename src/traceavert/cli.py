"""Command-line interface.

Subcommands
-----------
``estimate``
    Run both channel-removal reconstructions on a weekly series (the bundled
    reference dataset by default) and write ``weekly.csv`` plus
    ``summary.csv`` to the output directory, echoing the summary as text.
``lambda-table``
    Print the infectivity profile, the three TAF rows, and the six per-type
    constants as CSV blocks, with deltas against the published reference
    values and the calibration-variant choice.
``simulate``
    Monte-Carlo check: empirical per-type TAF next to the analytic constants.
    The case types run in order; the first one that fails names the error.
``sweep``
    Re-run the estimate across a list of values for one parameter, one CSV
    row per value.
``validate``
    Check the effective parameters and the input series and print violations;
    then run both reconstructions, so it rejects what ``estimate`` rejects.

Exit status: 0 when everything validated, 1 when a validation report carries
violations, 2 on unusable inputs (missing files, parse errors, bad flags).
All outputs are deterministic for identical inputs, config, and seed.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import cases, counterfactual, oracle
from .infectivity import InfectivityProfile
from .params import ModelParams, apply_overrides, params_from_config, validate
from .taf import (
    CASE_TYPES,
    REFERENCE_CASE_TYPE_TAF,
    REFERENCE_LAMBDA_APP_ROW,
    REFERENCE_LAMBDA_CT_ROW,
    REFERENCE_LAMBDA_PAIR_ROW,
    LambdaTable,
)

__all__ = ["main"]

_SUMMARY_METRICS = (
    ("averted_cases", "averted cases", "{:.0f}"),
    ("averted_hospitalizations", "averted hospitalizations", "{:.0f}"),
    ("averted_icu_admissions", "averted ICU admissions", "{:.0f}"),
    ("averted_deaths", "averted deaths", "{:.0f}"),
    ("rt_reduction_avg", "average Rt reduction", "{:.4f}"),
)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand on ``argv`` (default: ``sys.argv[1:]``) and return its
    exit status; a bad flag exits 2 through ``SystemExit``.  The argument parser
    is built on the first call and reused by every later call in the process."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traceavert",
        description="Counterfactual effectiveness estimates for manual "
                    "contact tracing and app-based exposure notification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_param_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", default=None,
                       help="key = value parameter file")
        p.add_argument("--param", metavar="KEY=VALUE", action="append",
                       default=[], help="override one parameter (repeatable)")

    def add_data_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--data", metavar="PATH", default=None,
                       help="weekly series CSV (default: bundled dataset)")
        p.add_argument("--hosp", metavar="PATH", default=None,
                       help="daily hospital admissions CSV; --data then holds raw "
                            "surveillance counts, whose case types are derived")

    p_estimate = sub.add_parser("estimate", help="weekly reconstruction and summary")
    add_param_flags(p_estimate)
    add_data_flags(p_estimate)
    p_estimate.add_argument("--out", metavar="DIR", default="out",
                            help="report directory (default: out)")
    p_estimate.set_defaults(handler=_run_estimate)

    p_table = sub.add_parser("lambda-table", help="print TAF tables and constants")
    add_param_flags(p_table)
    p_table.set_defaults(handler=_run_lambda_table)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo check of the constants")
    add_param_flags(p_sim)
    p_sim.add_argument("--case-type", choices=CASE_TYPES + ("all",),
                       default="all", help="case type to simulate")
    p_sim.add_argument("--trees", type=int, default=100_000,
                       help="number of simulated index cases")
    p_sim.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_sim.set_defaults(handler=_run_simulate)

    p_sweep = sub.add_parser("sweep", help="estimate across one parameter's values")
    add_param_flags(p_sweep)
    add_data_flags(p_sweep)
    p_sweep.add_argument("--sweep", metavar="KEY=V1,V2,...", required=True,
                         help="parameter name and comma-separated values")
    p_sweep.add_argument("--out", metavar="DIR", default=None,
                         help="also write sweep.csv to this directory")
    p_sweep.set_defaults(handler=_run_sweep)

    p_validate = sub.add_parser("validate", help="check parameters and data")
    add_param_flags(p_validate)
    add_data_flags(p_validate)
    p_validate.set_defaults(handler=_run_validate)

    return parser


def _effective_params(args: argparse.Namespace) -> ModelParams:
    overrides = {}
    for item in args.param:
        key, sep, value = (part.strip() for part in item.partition("="))
        if not sep or not key:
            raise ValueError(f"--param expects KEY=VALUE, got {item!r}")
        overrides[key] = value
    return params_from_config(args.config, overrides)


def _series_reader(args: argparse.Namespace,
                   stream) -> Callable[[ModelParams], cases.CaseSeries | None]:
    """Read the inputs once; return a function from a parameter set to its series,
    or to ``None`` once the series' violations are printed to ``stream``. With
    ``--hosp``, ``--data`` holds raw counts, split per parameter set; a presplit
    series (``--data`` or the bundled one) is checked here, once."""
    def checked(series: cases.CaseSeries) -> cases.CaseSeries | None:
        bad = _report_violations(cases.validate_series(series), "series", stream)
        return None if bad else series

    if args.hosp is not None:
        if args.data is None:
            raise ValueError("--hosp needs --data, the raw weekly counts")
        raw, admissions = cases.load_raw_csv(args.data), cases.load_hospitalizations_csv(args.hosp)
        return lambda p: checked(cases.build_series_from_raw(raw, admissions, p))
    series = checked(cases.load_fixture() if args.data is None
                     else cases.load_presplit_csv(args.data))
    return lambda p: series


def _reconstruct(series: cases.CaseSeries, p: ModelParams) -> tuple[
        LambdaTable, counterfactual.CounterfactualResult, counterfactual.CounterfactualResult]:
    """The calibrated table and both channel-removal reconstructions of ``series``."""
    table = LambdaTable.build(p, InfectivityProfile.from_params(p))
    return (table, counterfactual.averted_ct(series, table.per_type, p),
            counterfactual.averted_app(series, table.per_type, p))


def _report_violations(report, label: str, stream) -> bool:
    if report.ok:
        return False
    for violation in report.violations:
        print(f"{label}: {violation}", file=stream)
    return True


def _write_text(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _run_estimate(args: argparse.Namespace) -> int:
    p = _effective_params(args)
    if _report_violations(validate(p), "params", sys.stderr):
        return 1
    series = _series_reader(args, sys.stderr)(p)
    if series is None:
        return 1

    table, ct, app = _reconstruct(series, p)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    counts = (series.total, ct.c_not_weekly, ct.s_weekly, app.c_not_weekly, app.s_weekly)
    rts = (series.observed_rt, ct.rt_weekly, app.rt_weekly)
    with (out_dir / "weekly.csv").open("w", encoding="utf-8") as handle:
        handle.write("week,c,c_not_ct,s_ct,c_not_app,s_app,rt,rt_not_ct,rt_not_app\n")
        handle.writelines(_weekly_rows(series.labels, counts, rts))

    summary_rows = _summary_rows(ct, app)
    summary = ["metric,ct,app"]
    summary.extend(f"{key},{ct_text},{app_text}" for key, _, ct_text, app_text in summary_rows)
    _write_text(out_dir / "summary.csv", summary)

    print(f"weeks: {series.labels[0]} .. {series.labels[-1]} ({len(series)})")
    print(f"calibration variant: {table.variant}")
    print()
    width = max(len(label) for _, label, _, _ in summary_rows)
    print(f"{'':<{width}}  {'manual tracing':>14}  {'app':>14}")
    for _, label, ct_text, app_text in summary_rows:
        print(f"{label:<{width}}  {ct_text:>14}  {app_text:>14}")
    print()
    print(f"wrote {out_dir / 'weekly.csv'}")
    print(f"wrote {out_dir / 'summary.csv'}")
    return 0


def _weekly_rows(labels, counts, rts) -> Iterator[str]:
    """One ``weekly.csv`` row per week: the label, the five ``counts`` arrays and
    the three ``rts`` arrays, which are one week shorter.  A count prints the
    digits of ``%.0f`` from an int, which is faster: rounded half to even, and
    ``-0`` where it rounds to negative zero."""
    columns: list[list] = []
    for rounded in map(np.rint, counts):
        columns.append(list(map(int, rounded.tolist())))
        for w in np.flatnonzero((rounded == 0.0) & np.signbit(rounded)).tolist():
            columns[-1][w] = "-0"
    rows = zip(labels, *columns, *(rt.tolist() for rt in rts))
    yield from ("%s,%s,%s,%s,%s,%s,%.4f,%.4f,%.4f\n" % row for row in rows)
    # the last week has no forward-looking Rt
    yield ",".join(map(str, (labels[-1], *(column[-1] for column in columns)))) + ",,,\n"


def _summary_rows(ct, app) -> list[tuple[str, str, str, str]]:
    """One row per ``_SUMMARY_METRICS`` entry: key, label, ct text, app text."""
    values = [(r.s_total, r.hospitalizations, r.icu_admissions, r.deaths, r.rt_reduction_avg)
              for r in (ct, app)]
    return [(key, label, fmt.format(ct_value), fmt.format(app_value))
            for (key, label, fmt), ct_value, app_value in zip(_SUMMARY_METRICS, *values)]


def _run_lambda_table(args: argparse.Namespace) -> int:
    p = _effective_params(args)
    if _report_violations(validate(p), "params", sys.stderr):
        return 1
    profile = InfectivityProfile.from_params(p)
    table = LambdaTable.build(p, profile)

    print("# infectivity profile")
    print("day,i_w,i_a,i_c")
    for day in range(1, profile.i_w.size + 1):
        print(f"{day},{profile.i_w[day - 1]:.4f},"
              f"{profile.i_a[day - 1]:.4f},{profile.i_c[day - 1]:.4f}")

    print(f"# taf rows (calibration variant: {table.variant})")
    print("day,pair,pair_ref,pair_delta,ct,ct_ref,ct_delta,app,app_ref,app_delta")
    rows = (
        (table.lambda_pair_row, REFERENCE_LAMBDA_PAIR_ROW),
        (table.lambda_ct_row, REFERENCE_LAMBDA_CT_ROW),
        (table.lambda_app_row, REFERENCE_LAMBDA_APP_ROW),
    )
    for day in range(1, 15):
        cells = [str(day)]
        for computed, reference in rows:
            value = computed[day - 1]
            ref = reference[day - 1]
            cells.extend((f"{value:.4f}", f"{ref:.4f}", f"{value - ref:+.4f}"))
        print(",".join(cells))

    print("# per-type constants")
    print("case_type,taf,reference,delta")
    for name in CASE_TYPES:
        value = table.per_type[name]
        ref = REFERENCE_CASE_TYPE_TAF[name]
        print(f"{name},{value:.4f},{ref:.4f},{value - ref:+.4f}")
    return 0


def _run_simulate(args: argparse.Namespace) -> int:
    p = _effective_params(args)
    if _report_violations(validate(p), "params", sys.stderr):
        return 1
    cfg = oracle.SimConfig(trees=args.trees, seed=args.seed)
    table = LambdaTable.build(p, InfectivityProfile.from_params(p))
    kinds = CASE_TYPES if args.case_type == "all" else (args.case_type,)
    try:
        outcomes = [oracle.empirical_case_type_taf(kind, cfg, p) for kind in kinds]
    except MemoryError as exc:
        raise ValueError(f"--trees {cfg.trees}: not enough memory to simulate "
                         f"{cfg.trees} trees") from exc

    lines = ["case_type,trees,empirical_taf,standard_error,analytic_taf,delta"]
    for kind, outcome in zip(kinds, outcomes):
        analytic = table.per_type[kind]
        lines.append(f"{kind},{cfg.trees},{outcome.empirical_taf:.4f},"
                     f"{outcome.standard_error:.6f},{analytic:.4f},"
                     f"{outcome.empirical_taf - analytic:+.4f}")
    print("\n".join(lines))  # the header only with the rows: nothing before an error
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    name, sep, values_text = args.sweep.partition("=")
    name = name.strip()
    if not sep or not name:
        raise ValueError(f"--sweep expects KEY=V1,V2,..., got {args.sweep!r}")
    values = [text.strip() for text in values_text.split(",") if text.strip()]
    if not values:
        raise ValueError(f"--sweep {name}: empty value list")

    base = _effective_params(args)
    params = []
    for text in values:
        p = apply_overrides(base, {name: text})
        if _report_violations(validate(p), f"params ({name}={text})", sys.stderr):
            return 1
        params.append(p)
    series_for = _series_reader(args, sys.stderr)
    lines = ["param,value,s_ct_total,s_app_total,"
             "hosp_ct,icu_ct,deaths_ct,hosp_app,icu_app,deaths_app,"
             "rt_reduction_ct,rt_reduction_app"]
    for text, p in zip(values, params):
        series = series_for(p)
        if series is None:
            return 1
        _, ct, app = _reconstruct(series, p)
        _, _, ct_text, app_text = zip(*_summary_rows(ct, app))
        lines.append(",".join((name, text, ct_text[0], app_text[0], *ct_text[1:4],
                               *app_text[1:4], ct_text[4], app_text[4])))
    if args.out is not None:  # written first, so that an error prints nothing
        Path(args.out).mkdir(parents=True, exist_ok=True)
        _write_text(Path(args.out) / "sweep.csv", lines)
    print("\n".join(lines))
    return 0


def _run_validate(args: argparse.Namespace) -> int:
    p = _effective_params(args)
    bad = _report_violations(validate(p), "params", sys.stdout)
    if bad and args.hosp is not None:  # a raw series is built from the parameters
        return 1
    series = _series_reader(args, sys.stdout)(p)
    if bad or series is None:
        return 1
    _reconstruct(series, p)  # the inputs must also pass estimate's reconstruction
    print("params: ok")
    print(f"series: ok ({len(series)} weeks, "
          f"{series.labels[0]} .. {series.labels[-1]})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
