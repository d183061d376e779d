"""Property-based checks over the model's structural invariants."""
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from traceavert.cases import CaseSeries, CaseWeek, WeeklyRawRecord, derive_case_types, scale_series
from traceavert.counterfactual import averted_app, averted_ct, rt_series
from traceavert.oracle import SimConfig, empirical_case_type_taf
from traceavert.params import apply_overrides, dump_config, params_from_config
from traceavert.infectivity import InfectivityProfile
from traceavert.taf import (
    CASE_TYPES,
    VARIANTS,
    app_channel,
    capital_lambda,
    ct_channel,
    delta_mix,
    lambda_alpha,
    lambda_pair,
)

_count = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
_positive_count = st.floats(min_value=1.0, max_value=1e6, allow_nan=False, allow_infinity=False)

# always at least one missed case so weekly totals and TAF volumes stay positive
_week_counts = st.tuples(_positive_count, _count, _count, _count, _count, _count)


def _series_from_counts(rows):
    weeks = []
    for index, (c_miss, c_sym, c_pers, c_ct, c_am, c_ap) in enumerate(rows):
        total = c_miss + c_sym + c_pers + c_ct + c_am + c_ap
        weeks.append(CaseWeek(f"w{index}", index, total, c_miss, c_sym,
                              c_pers, c_ct, c_am, c_ap))
    return CaseSeries(tuple(weeks))


@given(k=st.floats(min_value=0.01, max_value=1000.0, allow_nan=False, allow_infinity=False))
def test_homogeneity_scales_averted_and_fixes_rt(k, series, lambdas, params):
    base_ct = averted_ct(series, lambdas, params)
    base_app = averted_app(series, lambdas, params)
    scaled = scale_series(series, k)
    scaled_ct = averted_ct(scaled, lambdas, params)
    scaled_app = averted_app(scaled, lambdas, params)
    assert scaled_ct.s_total == pytest.approx(k * base_ct.s_total, rel=1e-9)
    assert scaled_app.s_total == pytest.approx(k * base_app.s_total, rel=1e-9)
    assert rt_series(scaled.column("c_total")) == pytest.approx(
        rt_series(series.column("c_total")), rel=1e-9
    )
    assert scaled_ct.rt_reduction_avg == pytest.approx(
        base_ct.rt_reduction_avg, rel=1e-6, abs=1e-12
    )


@given(rows=st.lists(_week_counts, min_size=2, max_size=8))
def test_equal_missed_and_traced_fractions_avert_nothing(rows, lambdas, params):
    series = _series_from_counts(rows)
    leveled = dict(lambdas, ct=lambdas["miss"])
    result = averted_ct(series, leveled, params)
    assert all(abs(s) < 1e-6 for s in result.s_weekly)


@given(
    l=st.integers(min_value=1, max_value=8),
    h=st.integers(min_value=1, max_value=8),
    b=st.integers(min_value=0, max_value=8),
)
def test_no_app_uptake_collapses_mixture_to_manual_tracing(l, h, b, params, profile):
    assume(b + h >= 3)
    p = apply_overrides(params, {"u_app": "0"})
    assert delta_mix(l, h, b, p, profile) == pytest.approx(
        capital_lambda(l, h, b, ct_channel(p), profile), rel=1e-12
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    case_type=st.sampled_from(CASE_TYPES),
)
def test_simulation_deterministic_for_fixed_seed(seed, case_type, params, profile):
    cfg = SimConfig(trees=400, seed=seed)
    first = empirical_case_type_taf(case_type, cfg, params, profile)
    second = empirical_case_type_taf(case_type, cfg, params, profile)
    assert first == second


@given(
    sym=_count, ct_found=_count, app_sym=_count, app_nosym=_count,
    slack=st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
def test_derived_case_types_partition_total(sym, ct_found, app_sym, app_nosym, slack, params):
    raw = WeeklyRawRecord("2020-42", sym, ct_found, app_sym, app_nosym, 0.1)
    total = sym + ct_found + app_sym + app_nosym + slack
    week = derive_case_types(raw, total, params)
    parts = (week.c_miss + week.c_sym + week.c_pers + week.c_ct
             + week.c_app_minus + week.c_app_plus)
    assert parts == pytest.approx(week.c_total, rel=1e-9, abs=1e-6)
    assert week.c_miss >= -1e-6


@given(h=st.integers(min_value=0, max_value=11), l=st.integers(min_value=1, max_value=6))
def test_longer_exposure_windows_leak_weakly_more(h, l, profile):
    assert lambda_pair(l, h + 1, profile) >= lambda_pair(l, h, profile) - 1e-12


@given(
    u_app=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    t_ct=st.integers(min_value=0, max_value=10),
)
def test_config_file_roundtrip_is_exact(u_app, t_ct, params, tmp_path_factory):
    p = apply_overrides(params, {"u_app": u_app, "t_ct": t_ct})
    path = tmp_path_factory.mktemp("conf") / "model.conf"
    dump_config(p, path)
    assert params_from_config(path) == p


# Literal transcriptions of the TAF formulas as the taf docstrings state them,
# one scalar term at a time; the array calculus must reproduce them.


def _i_w(profile, day):
    return float(profile.i_w[day - 1]) if 1 <= day <= profile.i_w.size else 0.0


def _i_c(profile, day):
    if day <= 0:
        return 0.0
    if day >= 13:
        return profile.i_c_inf
    return float(profile.i_c[day - 1])


def _loop_pair(l, h, profile):
    return sum(_i_w(profile, x) * _i_c(profile, l + h - x) for x in range(1, l + h))


def _loop_alpha(x, channel, profile, variant):
    horizon = x if variant == "table" else channel.delay + x
    wf = channel.warn_fraction
    return (wf * _loop_pair(channel.delay, horizon, profile)
            + (1.0 - wf) * _i_c(profile, x) * profile.i_c_inf)


def _loop_capital(l, h, b, channel, profile, variant):
    weights = [_i_w(profile, x + b) for x in range(1, h + 1)]
    total = sum(
        w * _loop_alpha(l + h + 1 - x, channel, profile, variant)
        for x, w in zip(range(1, h + 1), weights)
    )
    return total / sum(weights)


_fraction = st.floats(min_value=0.05, max_value=0.95)


@settings(deadline=None)
@given(
    fractions=st.tuples(_fraction, _fraction, _fraction, _fraction),
    delays=st.tuples(*(st.integers(min_value=1, max_value=7) for _ in range(4))),
    l=st.integers(min_value=1, max_value=7),
    h=st.integers(min_value=1, max_value=12),
    b=st.integers(min_value=0, max_value=10),
    x=st.integers(min_value=1, max_value=30),
    variant=st.sampled_from(VARIANTS),
)
def test_array_calculus_matches_scalar_formulas(fractions, delays, l, h, b, x, variant, params):
    u_app, f_ct, f_app, a_sym = fractions
    t_ct, t_app, t_sym, t_plan = delays
    p = apply_overrides(params, {
        "u_app": u_app, "f_ct": f_ct, "f_app": f_app, "a_sym": a_sym,
        "t_ct": t_ct, "t_app": t_app, "t_sym": t_sym, "t_plan": t_plan,
    })
    profile = InfectivityProfile.from_params(p)
    close = dict(rel=1e-12, abs=1e-12)
    assert lambda_pair(l, h, profile) == pytest.approx(_loop_pair(l, h, profile), **close)
    for channel in (ct_channel(p), app_channel(p)):
        assert lambda_alpha(x, channel, profile, variant) == pytest.approx(
            _loop_alpha(x, channel, profile, variant), **close)
    assume(any(_i_w(profile, d + b) > 0.0 for d in range(1, h + 1)))
    lam_ct = _loop_capital(l, h, b, ct_channel(p), profile, variant)
    lam_app = _loop_capital(l, h, b, app_channel(p), profile, variant)
    assert capital_lambda(l, h, b, ct_channel(p), profile, variant) == pytest.approx(lam_ct, **close)
    assert delta_mix(l, h, b, p, profile, variant) == pytest.approx(
        p.u_app * lam_app + (1.0 - p.u_app) * lam_ct, **close)
