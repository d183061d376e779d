"""Acceptance gate: one test per release criterion.

Each ``test_criterion_*`` function checks one criterion end to end against
the published reference values for the Dutch 2020-42..2021-19 analysis, so a
verbose test run reads as a per-criterion pass/fail report.

Known red: criterion 4's app-channel weekly column. The manual-tracing
channel reproduces the published averted-case column within a few percent,
but the same reconstruction applied to the app channel overshoots the
published column by ~50%. The discrepancy is documented in README.md; the
test states the numbers rather than hiding them behind a widened tolerance.
"""
from __future__ import annotations

import csv
import time
from pathlib import Path

import pytest

from traceavert import cases, cli, oracle
from traceavert.cases import rt_series
from traceavert.counterfactual import averted_app, averted_ct
from traceavert.params import apply_overrides
from traceavert.taf import _VARIANT, _Days

# --------------------------------------------------------------------------
# published reference values
#
# Table rows for the infectivity profile (criterion 1), per-type constants
# (criterion 2), cumulative-exposure rows (criterion 3), and the weekly
# averted-case columns (criterion 4) as published for this epidemic window.

GOLDEN_I_W = (0.0, 0.0, 0.22, 0.22, 0.18, 0.13, 0.08,
              0.05, 0.04, 0.02, 0.02, 0.02, 0.01, 0.0)
GOLDEN_I_A = (0.0, 0.0, 0.22, 0.22, 0.18, 0.13, 0.08,
              0.0325, 0.0260, 0.0130, 0.0130, 0.0130, 0.0065, 0.0)
GOLDEN_I_C = (0.0, 0.0, 0.22, 0.44, 0.62, 0.75, 0.83,
              0.8625, 0.8885, 0.9015, 0.9145, 0.9275, 0.9340, 0.9340)

REFERENCE_CONSTANTS = {
    "miss": 0.87, "sym": 0.70, "pers": 0.36,
    "ct": 0.60, "app_plus": 0.60, "app_minus": 0.27,
}

PUBLISHED_S_CT_TOTAL = 773_599.0
PUBLISHED_S_APP_TOTAL = 45_088.0

PUBLISHED_WEEKLY_S_CT = (
    0, 344, 676, 1284, 1783, 2490, 3200, 5054, 8005, 11507, 15524, 17071,
    16629, 18161, 19141, 20087, 20882, 21999, 23455, 25579, 28940, 34590,
    43354, 47195, 50219, 51608, 61769, 66047, 59076, 52754, 45177,
)
PUBLISHED_WEEKLY_S_APP = (
    0, 64, 173, 239, 260, 305, 332, 479, 728, 1023, 1358, 1431, 1323, 1365,
    1379, 1390, 1410, 1433, 1486, 1563, 1705, 1978, 2412, 2542, 2615, 2621,
    3074, 3201, 2789, 2413, 1996,
)


def test_criterion_1_infectivity_golden_rows(profile):
    """All 42 profile entries match the published rows within 5e-5."""
    for day in range(14):
        assert profile.i_w[day] == pytest.approx(GOLDEN_I_W[day], abs=5e-5)
        assert profile.i_a[day] == pytest.approx(GOLDEN_I_A[day], abs=5e-5)
        assert profile.i_c[day] == pytest.approx(GOLDEN_I_C[day], abs=5e-5)


def test_criterion_2_per_type_constants(lambdas):
    """Six constants within 0.03 of reference; miss exact at 4 decimals."""
    for name, reference in REFERENCE_CONSTANTS.items():
        assert lambdas[name] == pytest.approx(reference, abs=0.03), name
    assert round(lambdas["miss"], 4) == 0.8724


def test_criterion_3_cumulative_exposure_rows(table):
    """Pair/ct/app rows within 0.03 of reference for days 3..13; variant set."""
    from traceavert.taf import (
        REFERENCE_LAMBDA_APP_ROW,
        REFERENCE_LAMBDA_CT_ROW,
        REFERENCE_LAMBDA_PAIR_ROW,
    )

    assert table.variant == "table"
    rows = (
        (table.lambda_pair_row, REFERENCE_LAMBDA_PAIR_ROW, "pair"),
        (table.lambda_ct_row, REFERENCE_LAMBDA_CT_ROW, "ct"),
        (table.lambda_app_row, REFERENCE_LAMBDA_APP_ROW, "app"),
    )
    for computed, reference, name in rows:
        for day in range(3, 14):
            assert computed[day - 1] == pytest.approx(
                reference[day - 1], abs=0.03), f"{name} day {day}"


def _run_estimate(tmp_path: Path) -> tuple[float, list[dict], dict]:
    out_dir = tmp_path / "acceptance"
    started = time.perf_counter()
    code = cli.main(["estimate", "--out", str(out_dir)])
    elapsed = time.perf_counter() - started
    assert code == 0
    with open(out_dir / "weekly.csv", newline="", encoding="utf-8") as fh:
        weekly = list(csv.DictReader(fh))
    with open(out_dir / "summary.csv", newline="", encoding="utf-8") as fh:
        summary = {row["metric"]: row for row in csv.DictReader(fh)}
    return elapsed, weekly, summary


def test_criterion_4_counterfactual_totals(tmp_path):
    """Estimate totals within 5%, weekly values (w >= 2) within 10%.

    The manual-tracing column passes.  The app column is a known red: the
    reconstruction overshoots the published reference by ~50%, far outside
    the band, and no parameter choice consistent with the other criteria
    closes the gap.
    """
    elapsed, weekly, summary = _run_estimate(tmp_path)
    assert elapsed < 1.0, f"estimate took {elapsed:.2f}s (budget 1s)"
    assert len(weekly) == 31

    s_ct_total = float(summary["averted_cases"]["ct"])
    s_app_total = float(summary["averted_cases"]["app"])
    s_ct = [float(row["s_ct"]) for row in weekly]
    s_app = [float(row["s_app"]) for row in weekly]

    # manual-tracing half
    assert s_ct_total == pytest.approx(PUBLISHED_S_CT_TOTAL, rel=0.05), (
        f"S_CT total {s_ct_total:.0f} vs published "
        f"{PUBLISHED_S_CT_TOTAL:.0f}")
    for w in range(2, 31):
        assert s_ct[w] == pytest.approx(
            PUBLISHED_WEEKLY_S_CT[w], rel=0.10), (
            f"S_CT week {w}: {s_ct[w]:.0f} vs {PUBLISHED_WEEKLY_S_CT[w]}")

    # app half — honest red, stated with the numbers
    app_total_dev = s_app_total / PUBLISHED_S_APP_TOTAL - 1.0
    app_weekly_dev = max(
        abs(s_app[w] / PUBLISHED_WEEKLY_S_APP[w] - 1.0)
        for w in range(2, 31))
    if abs(app_total_dev) > 0.05 or app_weekly_dev > 0.10:
        pytest.fail(
            f"app column outside tolerance: total {s_app_total:.0f} vs "
            f"published {PUBLISHED_S_APP_TOTAL:.0f} "
            f"({app_total_dev:+.1%}, band 5%); worst weekly deviation "
            f"{app_weekly_dev:+.1%} (band 10%). The identical recurrence "
            f"reproduces the manual-tracing column within "
            f"{max(abs(s_ct[w] / PUBLISHED_WEEKLY_S_CT[w] - 1.0) for w in range(2, 31)):.1%}, "
            f"and constant app Δs (app_minus 0.246, app_plus 0.137) reproduce "
            f"the published app column within 1% weekly, so the gap lies in the "
            f"app Δ formula of averted_app. Which side's formula is at fault is "
            f"not shown; see README.md.")


def test_criterion_5_severity_outcomes(params, series, lambdas):
    """Exact severity products, and reference totals render as published."""
    for result in (averted_ct(series, lambdas, params),
                   averted_app(series, lambdas, params)):
        assert result.hospitalizations == result.s_total * params.ihr
        assert result.icu_admissions == result.s_total * params.iir
        assert result.deaths == result.s_total * params.ifr

    assert round(PUBLISHED_S_CT_TOTAL * params.ihr) == 10_212
    assert round(PUBLISHED_S_CT_TOTAL * params.iir) == 1_934
    assert round(PUBLISHED_S_CT_TOTAL * params.ifr) == 4_642
    assert round(PUBLISHED_S_APP_TOTAL * params.ihr) == 595
    assert round(PUBLISHED_S_APP_TOTAL * params.iir) == 113
    assert round(PUBLISHED_S_APP_TOTAL * params.ifr) == 271


def test_criterion_6_rt_reduction_bands(params, series, lambdas):
    """Mean Rt reduction inside the published bands for both channels."""
    ct = averted_ct(series, lambdas, params)
    app = averted_app(series, lambdas, params)
    assert 0.006 <= ct.rt_reduction_avg <= 0.013, ct.rt_reduction_avg
    assert 0.0002 <= app.rt_reduction_avg <= 0.0008, app.rt_reduction_avg


def test_criterion_7_oracle_agreement(params, lambdas):
    """Monte-Carlo TAFs agree with the analytics at 1e5 trees, seed 0."""
    cfg = oracle.SimConfig(trees=100_000, seed=0)
    started = time.perf_counter()
    outcomes = {
        kind: oracle.empirical_case_type_taf(kind, cfg, params)
        for kind in ("miss", "pers", "ct", "app_minus")
    }
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"simulation took {elapsed:.1f}s (budget 30s)"

    miss = outcomes["miss"]
    assert abs(miss.empirical_taf - 0.8724) <= 2.0 * miss.standard_error, (
        f"miss TAF {miss.empirical_taf:.4f} +/- {miss.standard_error:.4f}")
    assert (outcomes["app_minus"].empirical_taf
            < outcomes["pers"].empirical_taf
            < outcomes["ct"].empirical_taf
            < outcomes["miss"].empirical_taf)


def test_criterion_8_property_suite(params, profile, series, lambdas):
    """Deterministic spot checks of the five model invariants."""
    # homogeneity: scaling counts by k scales S by k and leaves Rt unchanged
    scaled = cases.CaseSeries(series.labels, series.total * 3.0, series.counts * 3.0)
    base = averted_ct(series, lambdas, params)
    tripled = averted_ct(scaled, lambdas, params)
    assert tripled.s_total == pytest.approx(3.0 * base.s_total, rel=1e-9)
    assert rt_series(scaled.total, scaled.labels) == pytest.approx(
        rt_series(series.total, series.labels), rel=1e-12)

    # no detection advantage (lambda_ct == lambda_miss) averts nothing
    flat = dict(lambdas)
    flat["ct"] = flat["miss"]
    no_gain = averted_ct(series, flat, params)
    assert max(abs(s) for s in no_gain.s_weekly) < 1e-6

    # zero app uptake collapses the mixture onto the manual-tracing average
    no_app = apply_overrides(params, {"u_app": 0.0})
    days = _Days(profile)
    rows = days.rows(no_app, _VARIANT)
    for l, h, b in ((1, 7, 0), (2, 2, 5), (4, 5, 0)):
        assert days.mix(no_app, rows, l, h, b) == pytest.approx(
            days.mean(rows[0], l, h, b), rel=1e-12)

    # fixed seed means identical outputs
    cfg = oracle.SimConfig(trees=2_000, seed=42)
    first = oracle.empirical_case_type_taf("ct", cfg, params)
    second = oracle.empirical_case_type_taf("ct", cfg, params)
    assert first == second

    # per-type counts partition every weekly total exactly
    for label, total, counts in zip(series.labels, series.total, series.counts):
        assert sum(counts) == pytest.approx(total, abs=1e-6), label
