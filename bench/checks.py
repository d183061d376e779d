"""Output checks for every benchmark op; a failed check counts as a failed op.

The estimate checks recompute the counterfactual from the closed form

    c_not(w) = c(w) * prod_{k<w} (1 + gap(k) / volume(k))

with numpy, taking only the six per-type constants from the library
(``LambdaTable.build(...).per_type``).  The reports print counts rounded to
whole numbers, so a printed value ``x`` must satisfy
``|x - exact| <= half a unit in its last printed digit + 1e-9 * |exact|``.
"""
from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

from traceavert.infectivity import InfectivityProfile
from traceavert.params import params_from_config
from traceavert.taf import CASE_TYPES, LambdaTable

#: relative agreement required between a report and the closed form
REL_TOL = 1e-9
#: two-sided |z| bound a correct oracle exceeds about 7 times in 10^6 checks
Z_BOUND = 4.5
#: summary.csv of ``traceavert estimate`` at the default parameters
GOLDEN_SUMMARY = (
    "metric,ct,app\n"
    "averted_cases,803079,68884\n"
    "averted_hospitalizations,10601,909\n"
    "averted_icu_admissions,2008,172\n"
    "averted_deaths,4818,413\n"
    "rt_reduction_avg,0.0093,0.0008\n"
)
WEEKLY_HEADER = "week,c,c_not_ct,s_ct,c_not_app,s_app,rt,rt_not_ct,rt_not_app"
SWEEP_HEADER = ("param,value,s_ct_total,s_app_total,hosp_ct,icu_ct,deaths_ct,"
                "hosp_app,icu_app,deaths_app,rt_reduction_ct,rt_reduction_app")
SIMULATE_HEADER = "case_type,trees,empirical_taf,standard_error,analytic_taf,delta"
_GENERATION_EXPONENT = 4.0 / 7.0


class CheckFailed(Exception):
    """An op's output disagrees with what the benchmark expects."""


class Series:
    """A presplit weekly series as arrays: labels, totals, (weeks x 6) counts."""

    def __init__(self, path: str | Path) -> None:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        self.labels = [row["week"] for row in rows]
        self.total = np.array([float(row["c_total"]) for row in rows])
        typed = np.array([[float(row[f"c_{name}"]) for name in CASE_TYPES[1:]] for row in rows])
        self.counts = np.column_stack([self.total - typed.sum(axis=1), typed])


def per_type(overrides: dict[str, str]):
    """Effective params and the library's per-type TAF vector (CASE_TYPES order)."""
    p = params_from_config(None, overrides)
    table = LambdaTable.build(p, InfectivityProfile.from_params(p))
    return p, np.array([table.per_type[name] for name in CASE_TYPES])


def counterfactual(series: Series, lam: np.ndarray, e_app: float) -> dict[str, np.ndarray]:
    """Closed-form counterfactual totals per channel."""
    miss, _, _, ct, app_minus, app_plus = (series.counts[:, i] for i in range(6))
    volume = series.counts @ lam
    fallback = e_app * lam[0] + (1.0 - e_app) * lam[3]
    gaps = {
        "ct": ct * (lam[0] - lam[3]),
        "app": app_minus * (fallback - lam[4]) + app_plus * (fallback - lam[5]),
    }
    return {
        channel: series.total * np.concatenate(([1.0], np.cumprod(1.0 + gap[:-1] / volume[:-1])))
        for channel, gap in gaps.items()
    }


def summary(series: Series, c_not: np.ndarray, p) -> dict[str, float]:
    averted = float(np.sum(c_not - series.total))
    rt = (series.total[1:] / series.total[:-1]) ** _GENERATION_EXPONENT
    rt_not = (c_not[1:] / c_not[:-1]) ** _GENERATION_EXPONENT
    return {
        "averted_cases": averted,
        "averted_hospitalizations": averted * p.ihr,
        "averted_icu_admissions": averted * p.iir,
        "averted_deaths": averted * p.ifr,
        "rt_reduction_avg": float(np.mean(rt_not - rt)),
    }


def _number(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{where}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{where}: not finite: {text!r}")
    return value


def expect_close(text: str, exact: float, where: str) -> None:
    """``text`` is ``exact`` printed to the number of decimals ``text`` shows."""
    decimals = len(text.partition(".")[2])
    if abs(_number(text, where) - exact) > 0.5 * 10.0 ** -decimals + REL_TOL * abs(exact):
        raise CheckFailed(f"{where}: printed {text}, expected {exact!r}")


def _lines(text: str, header: str, count: int, what: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"{what}: unexpected header {lines[:1]!r}")
    if len(lines) != count + 1:
        raise CheckFailed(f"{what}: {len(lines) - 1} rows, expected {count}")
    return [line.split(",") for line in lines[1:]]


def check_estimate(op: dict, series: Series, out_dir: Path) -> None:
    p, lam = per_type(op["overrides"])
    c_not = counterfactual(series, lam, p.e_app)
    try:
        weekly_text = (out_dir / "weekly.csv").read_text(encoding="utf-8")
        summary_text = (out_dir / "summary.csv").read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckFailed(f"missing report: {exc}") from None

    last = len(series.labels) - 1
    for w, cells in enumerate(_lines(weekly_text, WEEKLY_HEADER, len(series.labels), "weekly.csv")):
        where = f"weekly.csv week {w}"
        if cells[0] != series.labels[w]:
            raise CheckFailed(f"{where}: label {cells[0]!r}, expected {series.labels[w]!r}")
        expect_close(cells[1], series.total[w], f"{where} c")
        for column, channel in ((2, "ct"), (4, "app")):
            expect_close(cells[column], c_not[channel][w], f"{where} c_not_{channel}")
            expect_close(cells[column + 1], c_not[channel][w] - series.total[w], f"{where} s_{channel}")
        for text in cells[6:]:
            if w < last or text:
                _number(text, f"{where} rt")

    if op.get("golden"):
        if summary_text != GOLDEN_SUMMARY:
            raise CheckFailed("summary.csv differs from the golden default-parameter summary")
        return
    expected = {channel: summary(series, c_not[channel], p) for channel in c_not}
    for key, ct_text, app_text in _lines(summary_text, "metric,ct,app", 5, "summary.csv"):
        if key not in expected["ct"]:
            raise CheckFailed(f"summary.csv: unexpected metric {key!r}")
        expect_close(ct_text, expected["ct"][key], f"summary.csv {key} ct")
        expect_close(app_text, expected["app"][key], f"summary.csv {key} app")


def check_sweep(op: dict, series: Series, stdout: str) -> None:
    rows = _lines(stdout, SWEEP_HEADER, len(op["values"]), "sweep output")
    for cells, value in zip(rows, op["values"]):
        where = f"sweep {op['param']}={value}"
        if cells[:2] != [op["param"], value]:
            raise CheckFailed(f"{where}: row starts {cells[:2]!r}")
        p, lam = per_type({op["param"]: value})
        c_not = counterfactual(series, lam, p.e_app)
        expected = {channel: summary(series, c_not[channel], p) for channel in c_not}
        # columns: s_ct, s_app, then hosp/icu/deaths for ct, the same for app, then rt ct/app
        severity = ("averted_hospitalizations", "averted_icu_admissions", "averted_deaths")
        for i, channel in enumerate(("ct", "app")):
            expect_close(cells[2 + i], expected[channel]["averted_cases"], f"{where} s_{channel}_total")
            for j, key in enumerate(severity):
                expect_close(cells[4 + 3 * i + j], expected[channel][key], f"{where} {key} {channel}")
            expect_close(cells[10 + i], expected[channel]["rt_reduction_avg"], f"{where} rt {channel}")


def check_simulate(op: dict, analytic: np.ndarray, stdout: str) -> None:
    rows = _lines(stdout, SIMULATE_HEADER, len(CASE_TYPES), "simulate output")
    for cells, name, exact in zip(rows, CASE_TYPES, analytic):
        where = f"simulate {name}"
        if cells[0] != name or cells[1] != str(op["trees"]):
            raise CheckFailed(f"{where}: row starts {cells[:2]!r}")
        empirical = _number(cells[2], f"{where} empirical_taf")
        error = _number(cells[3], f"{where} standard_error")
        if error <= 0.0:
            raise CheckFailed(f"{where}: nonpositive standard error {error}")
        z = (empirical - exact) / error
        if abs(z) >= Z_BOUND:
            raise CheckFailed(f"{where}: |z| = {abs(z):.2f} >= {Z_BOUND}")
