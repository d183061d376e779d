import math

import numpy as np
import pytest
from test_acceptance import PUBLISHED_S_CT_TOTAL, PUBLISHED_WEEKLY_S_APP, PUBLISHED_WEEKLY_S_CT

from traceavert.cases import CaseSeries, rt_series
from traceavert.counterfactual import averted_app, averted_ct, reconstruct
from traceavert.taf import CASE_TYPES

# full-precision results on the bundled dataset with default parameters,
# frozen from an independent reimplementation
FROZEN_S_CT_TOTAL = 803078.8165549415
FROZEN_S_APP_TOTAL = 68883.73886516415
FROZEN_RT_REDUCTION_CT = 0.009270439548827013
FROZEN_RT_REDUCTION_APP = 0.0007973920365536902
FROZEN_VOLUME_WEEK0 = 106785.11109689607

FROZEN_S_CT_WEEKLY = (
    0, 356, 701, 1332, 1847, 2577, 3312, 5231, 8285, 11921, 16104, 17712,
    17252, 18844, 19858, 20839, 21660, 22815, 24322, 26525, 30012, 35875,
    44973, 48968, 52124, 53582, 64155, 68622, 61403, 54859, 47011,
)
FROZEN_S_APP_WEEKLY = (
    0, 82, 220, 304, 331, 386, 421, 607, 957, 1408, 1944, 2082, 1943, 2024,
    2060, 2093, 2133, 2174, 2265, 2392, 2618, 3051, 3749, 3963, 4094, 4126,
    4870, 5084, 4447, 3857, 3200,
)


def _series(rows):
    """A series of consecutive ISO weeks from 2020-40; totals are the row sums."""
    labels = [f"2020-{40 + w:02d}" for w in range(len(rows))]
    return CaseSeries(labels, [sum(row) for row in rows], rows)


def _flat_series(weeks, counts):
    return _series([counts] * weeks)


class TestTafVolume:
    """The week's TAF volume, ``counts · λ``, is what the extra transmission
    of the reverted cases is divided by: with a unit gap on one type, the
    averted cases of week 1 are ``c(1) · count / volume(0)``."""

    def test_empty_week_is_zero(self, lambdas, params):
        empty = CaseSeries(("2020-42", "2020-43"), [100.0, 100.0], [[0.0] * 6, [100.0] + [0.0] * 5])
        with pytest.raises(ValueError, match="week 2020-42: nonpositive transmission volume 0.0"):
            averted_ct(empty, lambdas, params)

    def test_single_type(self, lambdas, params):
        series = _flat_series(2, (100.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        result = reconstruct(series, lambdas, {"miss": 1.0}, "unit", params)
        # one type: the volume is 100 x 0.8724 = 87.24
        assert result.s_weekly[1] == pytest.approx(100.0 * 100.0 / 87.24, rel=1e-4)

    def test_fixture_week0(self, series, lambdas, params):
        result = reconstruct(series, lambdas, {"ct": 1.0}, "unit", params)
        c_ct = series.counts[0, 3]
        assert result.s_weekly[1] == pytest.approx(
            series.total[1] * c_ct / FROZEN_VOLUME_WEEK0, rel=1e-12
        )


class TestAvertedCt:
    def test_total_frozen(self, series, lambdas, params):
        result = averted_ct(series, lambdas, params)
        assert result.s_total == pytest.approx(FROZEN_S_CT_TOTAL, rel=1e-9)

    def test_weekly_frozen(self, series, lambdas, params):
        result = averted_ct(series, lambdas, params)
        for got, want in zip(result.s_weekly, FROZEN_S_CT_WEEKLY):
            assert got == pytest.approx(want, abs=1.0)

    def test_week1_near_published(self, series, lambdas, params):
        result = averted_ct(series, lambdas, params)
        assert result.s_weekly[1] == pytest.approx(344, rel=0.10)

    def test_invariants(self, series, lambdas, params):
        result = averted_ct(series, lambdas, params)
        assert result.s_weekly[0] == 0.0
        assert all(s >= 0 for s in result.s_weekly)
        for c_not, total in zip(result.c_not_weekly, series.total):
            assert c_not >= total - 1e-9
        assert result.s_total == pytest.approx(sum(result.s_weekly))

    def test_severity_consistent_with_total(self, series, lambdas, params):
        result = averted_ct(series, lambdas, params)
        assert result.hospitalizations == result.s_total * params.ihr
        assert result.icu_admissions == result.s_total * params.iir
        assert result.deaths == result.s_total * params.ifr

    def test_no_traced_cases_no_aversion(self, lambdas, params):
        series = _flat_series(5, (80.0, 15.0, 3.0, 0.0, 1.0, 1.0))
        result = averted_ct(series, lambdas, params)
        assert all(s == pytest.approx(0.0, abs=1e-12) for s in result.s_weekly)
        for c_not, total in zip(result.c_not_weekly, series.total):
            assert c_not == pytest.approx(total)

    def test_equal_lambdas_no_aversion(self, series, lambdas, params):
        flat = dict(lambdas, ct=lambdas["miss"])
        result = averted_ct(series, flat, params)
        assert all(s == pytest.approx(0.0, abs=1e-9) for s in result.s_weekly)

    def test_needs_two_weeks(self, series, lambdas, params):
        short = CaseSeries(series.labels[:1], series.total[:1], series.counts[:1])
        with pytest.raises(ValueError, match="2 weeks"):
            averted_ct(short, lambdas, params)

    @pytest.mark.parametrize("delta, named", [
        ({"CT": 0.25}, "'CT'"), ({"ct": 0.25, "app": 0.1, 3: 0.0}, "'app', 3"),
    ], ids=["misspelt", "unknown"])
    def test_delta_key_that_is_no_case_type_is_named(self, series, lambdas, params, delta, named):
        # such a key used to weigh 0: {"CT": 0.25} averted nothing, without an error
        with pytest.raises(ValueError, match=rf"^ct counterfactual: delta names unknown case "
                                             rf"type\(s\) {named} \(expected miss, sym, "):
            reconstruct(series, lambdas, delta, "ct", params)

    def test_lambdas_lacking_a_case_type_are_named(self, series, lambdas, params):
        # a missing type used to weigh 0 in the volume and move the total without an error
        partial = {name: lambdas[name] for name in CASE_TYPES if name not in ("sym", "app_plus")}
        with pytest.raises(ValueError, match=r"^ct counterfactual: lambdas lacks case type\(s\) "
                                             r"sym, app_plus$"):
            reconstruct(series, partial, {"ct": 0.25}, "ct", params)

    @pytest.mark.parametrize("averted, channel", [(averted_ct, "ct"), (averted_app, "app")])
    @pytest.mark.parametrize("dropped", CASE_TYPES)
    def test_channel_names_the_case_type_lambdas_lacks(self, series, table, params, averted,
                                                       channel, dropped):
        # both channels read miss and ct (and the app its two types) before the
        # replay: a missing one raised a bare KeyError
        partial = {name: value for name, value in table.per_type.items() if name != dropped}
        with pytest.raises(ValueError, match=rf"^{channel} counterfactual: lambdas lacks case "
                                             rf"type\(s\) {dropped}$"):
            averted(series, partial, params)

    @pytest.mark.parametrize("totals, miss, message", [
        ((100.0, math.nan, 100.0), 50.0, "nonpositive case total nan"),
        ((100.0, 100.0, 100.0), math.nan, "nonpositive transmission volume nan"),
        ((100.0, 0.0), 50.0, "nonpositive case total 0.0"),
    ], ids=["total", "count", "zero_total_in_last_week"])
    def test_nan_midseries_names_its_week(self, lambdas, params, totals, miss, message):
        row = (50.0, 30.0, 10.0, 5.0, 3.0, 2.0)
        weeks = len(totals)
        series = CaseSeries(["2020-40", "2020-41", "2020-42"][:weeks], totals,
                            [row, (miss, *row[1:]), row][:weeks])
        with pytest.raises(ValueError, match=f"^week 2020-41: {message}"):
            averted_ct(series, lambdas, params)

    def test_result_carries_counterfactual_rt(self, series, lambdas, params):
        result = averted_ct(series, lambdas, params)
        assert result.rt_weekly.tolist() == rt_series(result.c_not_weekly, series.labels).tolist()
        gaps = (result.rt_weekly - series.observed_rt).tolist()
        assert result.rt_reduction_avg == sum(gaps) / len(gaps)


class TestOverflow:
    # totals near the largest double: the first replayed week overflows
    HUGE = [(0.2e308, 0.0, 0.0, 0.8e308, 0.0, 0.0), (0.3e308, 0.0, 0.0, 1.2e308, 0.0, 0.0)]

    def test_overflow_names_channel_and_week(self, lambdas, params):
        series = _series(self.HUGE)
        assert series.total.tolist() == [1e308, 1.5e308]
        with pytest.raises(ValueError, match=r"^ct counterfactual overflows: week 2020-41 reaches inf$"):
            averted_ct(series, lambdas, params)

    def test_overflowing_total_rejected(self, lambdas, params):
        # every week is finite, but the averted cases add up beyond the largest double
        # the unit gap-to-volume ratio of week 0 doubles the counterfactual,
        # and the later weeks, which do not revert, carry it at 0.6e308
        rows = [(1.0, 0.0, 0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)]
        rows += [(0.0, 0.6e308, 0.0, 0.0, 0.0, 0.0)] * 4
        result = reconstruct(_series(rows[:4]), lambdas, {"miss": lambdas["miss"]}, "miss", params)
        assert result.c_not_weekly.tolist() == [1.0, 2.0, 1.2e308, 1.2e308]
        with pytest.raises(ValueError, match=r"^miss counterfactual overflows: its totals are not finite$"):
            reconstruct(_series(rows), lambdas, {"miss": lambdas["miss"]}, "miss", params)

    def test_counterfactual_growth_past_the_float_range_is_named(self, lambdas, params):
        # the observed growth, 1e307, is finite; the replay multiplies it by 1 + 100 / λ_ct
        series = _series([(0.0, 0.0, 0.0, 1e-300, 0.0, 0.0), (1e7, 0.0, 0.0, 0.0, 0.0, 0.0)])
        with pytest.raises(ValueError, match=r"^ct counterfactual: week 2020-40: case growth to "
                                             r"week 2020-41 is not finite \(1e-300 -> "):
            reconstruct(series, lambdas, {"ct": 100.0}, "ct", params)

    def test_nonpositive_counterfactual_keeps_the_rt_error(self, lambdas, params):
        # Δ = -λ_ct zeroes the replay from week 1; a nonpositive total is not an overflow
        series = _series([(0.0, 0.0, 0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                          (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)])
        with pytest.raises(ValueError, match=r"^ct counterfactual: week 2020-41: nonpositive case "
                                             r"total 0\.0 breaks the growth recurrence$"):
            reconstruct(series, lambdas, {"ct": -lambdas["ct"]}, "ct", params)


class TestAvertedApp:
    def test_total_frozen(self, series, lambdas, params):
        result = averted_app(series, lambdas, params)
        assert result.s_total == pytest.approx(FROZEN_S_APP_TOTAL, rel=1e-9)

    def test_weekly_frozen(self, series, lambdas, params):
        result = averted_app(series, lambdas, params)
        for got, want in zip(result.s_weekly, FROZEN_S_APP_WEEKLY):
            assert got == pytest.approx(want, abs=1.0)

    def test_no_app_cases_no_aversion(self, lambdas, params):
        series = _flat_series(5, (80.0, 15.0, 3.0, 2.0, 0.0, 0.0))
        result = averted_app(series, lambdas, params)
        assert all(s == pytest.approx(0.0, abs=1e-12) for s in result.s_weekly)


class TestSeverity:
    def test_published_renders_ct(self, params):
        assert round(773599 * params.ihr) == 10212
        assert round(773599 * params.iir) == 1934
        assert round(773599 * params.ifr) == 4642

    def test_published_renders_app(self, params):
        assert round(45088 * params.ihr) == 595
        assert round(45088 * params.iir) == 113
        assert round(45088 * params.ifr) == 271

    def test_zero(self, lambdas, params):
        # a flat series with no reverting type replays exactly: nothing is averted
        result = reconstruct(_flat_series(3, (80.0, 15.0, 3.0, 2.0, 0.0, 0.0)), lambdas, {},
                             "none", params)
        assert result.s_total == 0.0
        assert (result.hospitalizations, result.icu_admissions, result.deaths) == (0, 0, 0)

    def test_exact_products(self, series, lambdas, params):
        result = averted_app(series, lambdas, params)
        assert result.hospitalizations == result.s_total * params.ihr
        assert result.icu_admissions == result.s_total * params.iir
        assert result.deaths == result.s_total * params.ifr


class TestRtReduction:
    def test_identical_series_zero(self, lambdas, params):
        series = _series([(100.0,) + (0.0,) * 5, (110.0,) + (0.0,) * 5, (99.0,) + (0.0,) * 5])
        result = reconstruct(series, lambdas, {"ct": 1.0}, "ct", params)
        assert result.rt_weekly.tolist() == rt_series(series.total, series.labels).tolist()
        assert result.rt_reduction_avg == 0.0

    def test_fixture_ct(self, series, lambdas, params):
        result = averted_ct(series, lambdas, params)
        assert result.rt_reduction_avg == pytest.approx(0.0091, abs=0.003)
        assert result.rt_reduction_avg == pytest.approx(
            FROZEN_RT_REDUCTION_CT, rel=1e-9
        )

    def test_fixture_app(self, series, lambdas, params):
        result = averted_app(series, lambdas, params)
        assert result.rt_reduction_avg == pytest.approx(0.0005, abs=0.0003)
        assert result.rt_reduction_avg == pytest.approx(
            FROZEN_RT_REDUCTION_APP, rel=1e-9
        )


class TestHomogeneity:
    def test_scaling_counts_scales_averted(self, series, lambdas, params):
        result = averted_ct(series, lambdas, params)
        scaled = averted_ct(CaseSeries(series.labels, series.total * 3.0, series.counts * 3.0),
                            lambdas, params)
        assert scaled.s_total == pytest.approx(3 * result.s_total)
        for a, b in zip(scaled.s_weekly, result.s_weekly):
            assert a == pytest.approx(3 * b)

    def test_scaling_leaves_rt_reduction_unchanged(self, series, lambdas, params):
        result = averted_app(series, lambdas, params)
        scaled = averted_app(CaseSeries(series.labels, series.total * 0.25, series.counts * 0.25),
                             lambdas, params)
        assert scaled.rt_reduction_avg == pytest.approx(result.rt_reduction_avg)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="documented manual-to-app averted-case factor band is [12, 22]; "
    "the reconstruction that reproduces the manual-tracing column lands "
    "just below it",
)
def test_documented_averted_factor_band(series, lambdas, params):
    ct = averted_ct(series, lambdas, params)
    app = averted_app(series, lambdas, params)
    assert 12 <= ct.s_total / app.s_total <= 22


class TestPublishedColumnsFromConstantDeltas:
    """A diagnostic of criterion 4: the recurrence and the data reproduce both
    published averted-case columns, given constant per-type TAF differences
    (fallback minus actual).  So the app gap lies in how ``averted_app`` derives
    its two differences, not in the replay."""

    @staticmethod
    def _worst_week(s_weekly, published):
        """The largest relative deviation, over the weeks with a published value above 0."""
        published = np.asarray(published, dtype=float)
        shown = published > 0
        return np.abs(s_weekly[..., shown] / published[shown] - 1.0).max(axis=-1)

    def test_one_ct_delta_fits_the_published_column(self, series, lambdas, params):
        low, high = 0.0, 1.0  # the total grows with the difference: bisect on it
        for _ in range(50):
            middle = (low + high) / 2
            total = reconstruct(series, lambdas, {"ct": middle}, "ct", params).s_total
            low, high = (middle, high) if total < PUBLISHED_S_CT_TOTAL else (low, middle)
        assert low == pytest.approx(0.24612, abs=1e-5)
        s_weekly = reconstruct(series, lambdas, {"ct": low}, "ct", params).s_weekly
        assert self._worst_week(s_weekly, PUBLISHED_WEEKLY_S_CT) < 0.01

    def test_two_app_deltas_fit_the_published_column(self, series, lambdas, params):
        # the worst weekly deviation on a 0.001 grid, replayed as reconstruct does
        plus, minus = np.meshgrid(np.arange(100, 201) / 1000, np.arange(200, 301) / 1000,
                                  indexing="ij")
        c, counts = series.total, series.counts[:-1]
        volume = counts @ [lambdas[name] for name in CASE_TYPES]
        gap = (plus[..., None] * counts[:, CASE_TYPES.index("app_plus")]
               + minus[..., None] * counts[:, CASE_TYPES.index("app_minus")])
        growth = np.cumprod(1.0 + gap / volume, axis=-1)
        s_weekly = c * np.concatenate((np.ones(plus.shape + (1,)), growth), axis=-1) - c
        worst = self._worst_week(s_weekly, PUBLISHED_WEEKLY_S_APP)
        best = np.unravel_index(worst.argmin(), worst.shape)
        delta = {"app_plus": plus[best], "app_minus": minus[best]}
        assert delta == pytest.approx({"app_plus": 0.137, "app_minus": 0.246})
        s_weekly = reconstruct(series, lambdas, delta, "app", params).s_weekly
        assert self._worst_week(s_weekly, PUBLISHED_WEEKLY_S_APP) < 0.01

    def test_hypothesis_h1_fit_is_as_the_readme_states(self, series, lambdas, params):
        # H1 (README, "Known red"): app-warned cases counted as if tracing had
        # found them; stated there with this fit, and not adopted
        gap = lambdas["miss"] - lambdas["ct"]
        h1 = reconstruct(series, lambdas, {"app_plus": params.e_app * gap, "app_minus": gap},
                         "app", params)
        assert round(h1.s_total) == 47_673
        ratios = np.asarray(h1.s_weekly[1:]) / np.asarray(PUBLISHED_WEEKLY_S_APP[1:])
        assert 1.053 <= ratios.min() and ratios.max() <= 1.079
        assert ratios[1:].max() <= 1.075  # without week 2020-43, published 64
        ct = averted_ct(series, lambdas, params)
        assert ct.s_total / h1.s_total == pytest.approx(16.8, abs=0.05)
        assert h1.rt_reduction_avg == pytest.approx(0.00053, abs=1e-5)
