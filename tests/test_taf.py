import dataclasses
import itertools
import math
import re

import pytest
from test_oracle import _expected_taf

from traceavert.infectivity import WEIBULL_PROFILE, InfectivityProfile
from traceavert.oracle import SimConfig, empirical_case_type_taf
from traceavert.params import apply_overrides
from traceavert.taf import (
    CASE_TYPES,
    REFERENCE_LAMBDA_APP_ROW,
    REFERENCE_LAMBDA_CT_ROW,
    VARIANTS,
    LambdaTable,
    _Days,
)


@pytest.fixture(scope="module")
def days(profile):
    return _Days(profile)


@pytest.fixture(scope="module")
def rows(days, params):
    return days.rows(params, "table")


# unrounded per-type constants with default parameters, frozen from an
# independent reimplementation of the whole calculus
FROZEN_CONSTANTS = {
    "miss": 0.872356,
    "sym": 0.69380825,
    "pers": 0.3792598554216867,
    "ct": 0.6181604563253013,
    "app_minus": 0.25272950476190476,
    "app_plus": 0.5909731483870967,
}


def _build(params, **fields):
    p = dataclasses.replace(params, **fields)
    return LambdaTable.build(p, InfectivityProfile.from_params(p))


class TestChannels:
    """Each channel row reads its delay and warn fraction (adherence times reach)."""

    def test_ct_channel_fields(self, days, params, rows):
        wf = params.a_ct * params.f_ct
        assert wf == pytest.approx(0.3375)
        assert rows[0].tolist() == days.row(params.t_ct, wf, "table").tolist()

    def test_app_channel_fields(self, days, params, rows):
        wf = params.a_app * params.f_app
        assert rows[1].tolist() == days.row(params.t_app, wf, "table").tolist()

    @pytest.mark.parametrize("field", ["f_ct", "a_ct", "f_app", "a_app"])
    def test_fraction_outside_unit_interval_named(self, params, profile, field):
        # an adherence equals its symptomatic part at f_sym = 1, and the error
        # names the part that was set, since the adherence itself is derived
        name = f"{field}_plus" if field.startswith("a_") else field
        p = dataclasses.replace(params, f_sym=1.0, **{name: 1.5})
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\], got 1.5$"):
            LambdaTable.build(p, profile)


class TestIcx:
    """``_Days.icx``: ``i_c`` on days 0..27 under the model's boundary rules."""

    def test_boundary_values(self, days, profile):
        assert days.icx.size == 28
        assert days.icx[0] == 0.0
        assert days.icx[1] == 0.0
        assert days.icx[4] == pytest.approx(0.44)
        assert days.icx[5] == pytest.approx(0.62)
        assert days.icx[1:13].tolist() == profile.i_c[:12].tolist()
        assert days.icx[13] == pytest.approx(0.9340, abs=1e-12)
        assert days.icx[13:].tolist() == [profile.i_c_inf] * 15


class TestLambdaPair:
    """``_Days.pair``: the convolution at span ``l + h``."""

    def test_published_row_entry_day5(self, table):
        # the published zero-latency row indexes entries as day x = span 1 + x
        assert table.lambda_pair_row[4] == pytest.approx(0.0484)

    def test_zero_below_day_five(self, table):
        assert table.lambda_pair_row[1] == 0.0
        assert table.lambda_pair_row[3] == 0.0

    def test_short_spans_are_zero(self, days):
        for span in (1, 2, 3):
            assert days.pair[span] == 0.0

    def test_known_value_l3_h7(self, days):
        assert days.pair[3 + 7] == pytest.approx(0.5340)


class TestRow:
    """``_Days.row``: the channel row over isolation days."""

    def test_ct_day7_near_published(self, table):
        got = table.lambda_ct_row[6]
        assert got == pytest.approx(0.6992, abs=0.03)
        assert got == pytest.approx(0.69380825, abs=1e-9)

    def test_zero_reach_degenerates_to_unimpeded(self, days, profile):
        got = days.row(3, 0.0, "table")[9]  # reach 0: nobody is warned
        assert got == pytest.approx(profile.i_c[9 - 1] * profile.i_c_inf)

    def test_text_variant_differs(self, days, params):
        delay, wf = params.t_ct, params.a_ct * params.f_ct
        assert days.row(delay, wf, "text")[5] != pytest.approx(days.row(delay, wf, "table")[5])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_huge_delays_read_the_saturated_spans(self, days, variant):
        saturated = days.row(27, 0.5, variant).tolist()
        for delay in (28, 40, 10**12, 2**63, 10**30):
            assert days.row(delay, 0.5, variant).tolist() == saturated


class TestPublishedPlateau:
    """The published ct and app rows coincide on days 12-14, although their
    delays differ (3 and 2) at equal warn fractions."""

    def test_published_rows_coincide_below_the_missed_constant(self, lambdas):
        assert REFERENCE_LAMBDA_CT_ROW[11:] == REFERENCE_LAMBDA_APP_ROW[11:] == (
            0.8577, 0.8607, 0.8607)
        assert round(lambdas["miss"], 4) == 0.8724
        assert max(REFERENCE_LAMBDA_CT_ROW + REFERENCE_LAMBDA_APP_ROW) < lambdas["miss"]

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP.md item 4: the warned term reads pair at a "
                       "span shifted by the delay, so the computed rows differ by 0.0120, "
                       "0.0095 and 0.0064 on days 12-14")
    def test_computed_rows_coincide_on_days_12_to_14(self, table):
        assert table.lambda_ct_row[11:] == pytest.approx(table.lambda_app_row[11:], abs=5e-5)


class TestMean:
    """``_Days.mean``: a channel row averaged over an infection window."""

    def test_single_day_window_collapses(self, days, rows):
        assert days.mean(rows[0], 4, 1, 2) == pytest.approx(rows[0][5])

    def test_huge_windows_are_clipped(self, days, rows, params):
        assert days.mean(rows[0], 10**21, 10**21, 0) == days.mean(rows[0], 100, 100, 0)
        assert days.mean(rows[0], 3, 10**12, 0) == days.mean(rows[0], 3, 10**9, 0)
        with pytest.raises(ValueError, match=r"^t_sym must be <= 12, got 1000000000000000000000$"):
            _build(params, t_sym=10**21)


class TestMix:
    """``_Days.mix``: the app-usage mix of the two channels' window means."""

    def test_no_uptake_degenerates_to_ct(self, days, params, rows):
        p = apply_overrides(params, {"u_app": "0"})
        assert days.mix(p, rows, 3, 5, 0) == pytest.approx(days.mean(rows[0], 3, 5, 0))

    def test_full_uptake_degenerates_to_app(self, days, params, rows):
        p = apply_overrides(params, {"u_app": "1"})
        assert days.mix(p, rows, 3, 5, 0) == pytest.approx(days.mean(rows[1], 3, 5, 0))


class TestCaseTypeConstants:
    def test_frozen_values(self, lambdas):
        for name, want in FROZEN_CONSTANTS.items():
            assert lambdas[name] == pytest.approx(want, abs=1e-9), name

    def test_missed_constant_is_saturation_squared(self, profile, lambdas):
        assert lambdas["miss"] == pytest.approx(profile.i_c_inf**2)
        assert round(lambdas["miss"], 4) == 0.8724

    def test_covers_every_case_type(self, lambdas):
        assert set(lambdas) == set(CASE_TYPES)

    def test_true_ordering_with_defaults(self, lambdas):
        assert (
            lambdas["app_minus"]
            < lambdas["pers"]
            < lambdas["app_plus"]
            < lambdas["ct"]
            < lambdas["sym"]
            < lambdas["miss"]
        )

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="documented ordering chain puts the manual-tracing constant "
        "at or below app_plus; unrounded values land the other way around",
    )
    def test_documented_ordering_chain(self, lambdas):
        assert lambdas["ct"] <= lambdas["app_plus"]


class TestCalibration:
    def test_table_variant_wins_with_defaults(self, table):
        assert table.variant == "table"
        assert table.scores["table"] < table.scores["text"]
        assert table.scores["table"] <= 0.03

    def test_rows_have_fourteen_days(self, table):
        assert len(table.lambda_pair_row) == 14
        assert len(table.lambda_ct_row) == 14
        assert len(table.lambda_app_row) == 14

    def test_rows_nondecreasing_and_bounded(self, table, profile):
        ceiling = profile.i_c_inf**2 + 0.01
        for row in (table.lambda_pair_row, table.lambda_ct_row, table.lambda_app_row):
            assert all(b >= a for a, b in zip(row, row[1:]))
            assert all(0.0 <= v <= ceiling for v in row)

    def test_table_keeps_both_variant_scores(self, params, table):
        assert tuple(table.scores) == VARIANTS
        p = apply_overrides(params, {"t_plan": 4, "u_app": 0.5})
        assert LambdaTable.build(p, InfectivityProfile.from_params(p)).scores == table.scores

    def test_each_table_owns_its_scores(self, params, profile):
        LambdaTable.build(params, profile).scores["text"] = 0.0
        assert LambdaTable.build(params, profile).scores["text"] > 0.1


class TestDomain:
    """``LambdaTable.build`` checks its parameters once, naming the fields."""

    @pytest.mark.parametrize("overrides, message", [
        ({"u_app": 1.5}, "u_app must lie in [0, 1], got 1.5"),
        ({"t_sym": 5.0}, "t_sym must be an integer number of days >= 0, got 5.0"),
        ({"t_ct": math.nan}, "t_ct must be an integer number of days >= 0, got nan"),
        # app_plus isolates on day t_sym
        ({"t_sym": 0, "t_plan": 3}, "t_sym must be >= 1, got 0"),
        # the app_minus window starts on day t_sym + 1, past the last infectious day
        ({"t_sym": 20}, "t_sym must be <= 12, got 20"),
        # the app_minus window is t_plan days wide
        ({"t_plan": 0}, "t_plan must be >= 1, got 0"),
        ({"t_app": 0}, "t_app must be >= 1, got 0"),
        ({"t_sym": 0, "t_plan": 0}, "t_sym must be >= 1, got 0; t_plan must be >= 1, got 0; "
                                    "t_sym + t_plan must be >= 3, got 0"),
    ], ids=lambda arg: ("-".join(f"{field}-{value}" for field, value in arg.items())
                        if isinstance(arg, dict) else None))
    def test_validate_violations_are_raised(self, params, overrides, message):
        """Each message whole: ``validate``'s violations and the delay domain's."""
        with pytest.raises(ValueError) as info:
            _build(params, **overrides)
        assert str(info.value) == message

    def test_only_validate_violations_when_there_are_any(self, params):
        # t_ct=0 is out of the domain, but the bounds compare delays, and the
        # non-integer t_sym fails validate first
        with pytest.raises(ValueError) as info:
            _build(params, t_sym=2.5, u_app=-1.0, t_ct=0)
        assert str(info.value) == ("u_app must lie in [0, 1], got -1.0; "
                                   "t_sym must be an integer number of days >= 0, got 2.5")

    def test_domain_rules(self, params):
        """The domain is what the README states, and every set in it builds
        finite constants; i_w is nonzero on days 3 to 13 and on no other day.
        The oracle accepts the same sets and rejects the rest with the same text.
        A tree's ratio has no upper bound, so the oracle's mean is held to its
        exact expectation, which lies in [0, 1): |z| < 4.5, or equality where
        the standard error is 0 (the pers sets that quarantine before day 3)."""
        # the 12 and 3 of the domain are exact for these infectious days alone
        assert [day for day, w in enumerate(WEIBULL_PROFILE, start=1) if w] == list(range(3, 14))
        cfg = SimConfig(trees=1000)
        for t_sym, t_plan, t_ct, t_app in itertools.product(range(16), range(5), range(2),
                                                            range(2)):
            delays = dict(t_sym=t_sym, t_plan=t_plan, t_ct=t_ct, t_app=t_app)
            p = dataclasses.replace(params, **delays)
            inside = (min(t_ct, t_app, t_plan) >= 1 and 1 <= t_sym <= 12
                      and t_sym + t_plan >= 3)
            try:
                table = _build(params, **delays)
            except ValueError as exc:
                assert not inside, delays
                assert "\n" not in str(exc) and re.search(r"\bt_(sym|plan|ct|app)\b", str(exc))
                for kind in CASE_TYPES:
                    with pytest.raises(ValueError) as info:
                        empirical_case_type_taf(kind, cfg, p)
                    assert str(info.value) == str(exc), (delays, kind)
            else:
                assert inside, delays
                assert all(0.0 <= value < 1.0 for value in table.per_type.values()), delays
                for kind in CASE_TYPES:
                    expected = _expected_taf(kind, p)
                    assert 0.0 <= expected < 1.0, (delays, kind)
                    outcome = empirical_case_type_taf(kind, cfg, p)
                    if outcome.standard_error == 0.0:
                        assert outcome.empirical_taf == expected, (delays, kind)
                    else:
                        z = (outcome.empirical_taf - expected) / outcome.standard_error
                        assert abs(z) < 4.5, (delays, kind, z)

    @pytest.mark.parametrize("field", ["t_plan", "t_ct", "t_app", "t_pers"])
    @pytest.mark.parametrize("t_sym", [5, 12])
    def test_huge_delays_build(self, params, field, t_sym):
        huge = _build(params, t_sym=t_sym, **{field: 10**30})
        assert huge == _build(params, t_sym=t_sym, **{field: 100})
