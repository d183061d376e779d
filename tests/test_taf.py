import pytest

from traceavert.infectivity import InfectivityProfile
from traceavert.params import apply_overrides
from traceavert.taf import (
    CASE_TYPES,
    VARIANTS,
    LambdaTable,
    WarningChannel,
    app_channel,
    capital_lambda,
    ct_channel,
    delta_mix,
    lambda_alpha,
    lambda_pair,
)

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


class TestChannels:
    def test_ct_channel_fields(self, params):
        ch = ct_channel(params)
        assert ch.kind == "ct"
        assert ch.delay == params.t_ct
        assert ch.warn_fraction == pytest.approx(params.a_ct * params.f_ct)
        assert ch.warn_fraction == pytest.approx(0.3375)

    def test_app_channel_fields(self, params):
        ch = app_channel(params)
        assert ch.kind == "app"
        assert ch.delay == params.t_app
        assert ch.warn_fraction == pytest.approx(params.a_app * params.f_app)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            WarningChannel(kind="fax", delay=1, reach=0.5, adherence=0.5)


class TestLambdaPair:
    def test_published_row_entry_day5(self, profile):
        # the published zero-latency row indexes entries as day x = (1, x)
        assert lambda_pair(1, 5, profile) == pytest.approx(0.0484)

    def test_zero_below_day_five(self, profile):
        assert lambda_pair(1, 2, profile) == 0.0
        assert lambda_pair(1, 4, profile) == 0.0

    def test_short_spans_are_zero(self, profile):
        for l, h in ((1, 0), (1, 1), (2, 1), (3, 0)):
            assert lambda_pair(l, h, profile) == 0.0

    def test_known_value_l3_h7(self, profile):
        assert lambda_pair(3, 7, profile) == pytest.approx(0.5340)

    def test_rejects_nonpositive_latency(self, profile):
        with pytest.raises(ValueError, match="l"):
            lambda_pair(0, 5, profile)


class TestLambdaAlpha:
    def test_ct_day7_near_published(self, params, profile):
        got = lambda_alpha(7, ct_channel(params), profile)
        assert got == pytest.approx(0.6992, abs=0.03)
        assert got == pytest.approx(0.69380825, abs=1e-9)

    def test_app_day3_near_published(self, params, profile):
        got = lambda_alpha(3, app_channel(params), profile)
        assert got == pytest.approx(0.1269, abs=0.03)

    def test_zero_reach_degenerates_to_unimpeded(self, params, profile):
        ch = WarningChannel(kind="ct", delay=3, reach=0.0, adherence=0.7)
        got = lambda_alpha(9, ch, profile)
        assert got == pytest.approx(profile.i_c_at(9) * profile.i_c_inf)

    def test_rejects_day_below_one(self, params, profile):
        with pytest.raises(ValueError, match="x"):
            lambda_alpha(0, ct_channel(params), profile)

    def test_unknown_variant_rejected(self, params, profile):
        with pytest.raises(ValueError, match="variant"):
            lambda_alpha(5, ct_channel(params), profile, variant="middle")

    def test_text_variant_differs(self, params, profile):
        ch = ct_channel(params)
        assert lambda_alpha(5, ch, profile, variant="text") != pytest.approx(
            lambda_alpha(5, ch, profile, variant="table")
        )


class TestCapitalLambda:
    def test_ct_window_near_published(self, params, profile):
        got = capital_lambda(3, 7, 0, ct_channel(params), profile)
        assert got == pytest.approx(0.60, abs=0.03)

    def test_personal_warning_near_published(self, params, profile):
        got = capital_lambda(1, 7, 0, ct_channel(params), profile)
        assert got == pytest.approx(0.36, abs=0.03)

    def test_single_day_window_collapses(self, params, profile):
        ch = ct_channel(params)
        assert capital_lambda(4, 1, 2, ch, profile) == pytest.approx(
            lambda_alpha(5, ch, profile)
        )

    def test_zero_weight_window_rejected(self, params, profile):
        with pytest.raises(ValueError, match="weight"):
            capital_lambda(1, 2, 20, ct_channel(params), profile)

    def test_rejects_empty_window(self, params, profile):
        with pytest.raises(ValueError, match="h"):
            capital_lambda(1, 0, 0, ct_channel(params), profile)


class TestDeltaMix:
    def test_app_plus_arguments_near_published(self, params, profile):
        assert delta_mix(4, 5, 0, params, profile) == pytest.approx(0.60, abs=0.03)

    def test_app_minus_arguments_near_published(self, params, profile):
        assert delta_mix(2, 2, 5, params, profile) == pytest.approx(0.27, abs=0.03)

    def test_no_uptake_degenerates_to_ct(self, params, profile):
        p = apply_overrides(params, {"u_app": "0"})
        assert delta_mix(3, 5, 0, p, profile) == pytest.approx(
            capital_lambda(3, 5, 0, ct_channel(p), profile)
        )

    def test_full_uptake_degenerates_to_app(self, params, profile):
        p = apply_overrides(params, {"u_app": "1"})
        assert delta_mix(3, 5, 0, p, profile) == pytest.approx(
            capital_lambda(3, 5, 0, app_channel(p), profile)
        )


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

    def test_build_records_variant(self, table):
        assert table.variant == "table"

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

    @pytest.mark.parametrize("overrides", [
        {"f_app": 1.0}, {"t_sym": 1}, {"t_sym": 2}, {"t_sym": 3},
        {"t_ct": 1, "t_app": 1}, {"t_ct": 2, "t_app": 1},
    ])
    def test_calibration_is_fixed_at_the_defaults(self, params, table, overrides):
        """Parameter sets whose own rows sit closer to the text pairing keep
        the pairing calibrated at the default parameters."""
        p = apply_overrides(params, overrides)
        profile = InfectivityProfile.from_params(p)
        t = LambdaTable.build(p, profile)
        assert t.variant == "table"
        assert t.scores == table.scores
        span = p.t_sym + p.t_plan
        assert t.per_type["sym"] == lambda_alpha(span, ct_channel(p), profile, "table")

    def test_zero_delay_channel_rejected(self, params, profile):
        ch = WarningChannel(kind="app", delay=0, reach=0.5, adherence=0.5)
        with pytest.raises(ValueError, match="app warning delay"):
            lambda_alpha(5, ch, profile)
