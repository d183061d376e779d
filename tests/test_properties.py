"""Property-based checks over the model's structural invariants."""
import dataclasses
import datetime as dt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_loader_corpus import _quoted
from test_oracle import _expected_taf

from traceavert.cases import (
    CaseSeries,
    build_series_from_raw,
    load_presplit_csv,
    rt_series,
    validate_series,
)
from traceavert.counterfactual import averted_app, averted_ct
from traceavert.oracle import SimConfig, empirical_case_type_taf
from traceavert.params import (
    ModelParams,
    apply_overrides,
    default_params,
    params_from_config,
    validate,
)
from traceavert.infectivity import InfectivityProfile
from traceavert.taf import CASE_TYPES, VARIANTS, LambdaTable, _Days

_count = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
_positive_count = st.floats(min_value=1.0, max_value=1e6, allow_nan=False, allow_infinity=False)

# always at least one missed case so weekly totals and TAF volumes stay positive
_week_counts = st.tuples(_positive_count, _count, _count, _count, _count, _count)


def _series_from_counts(rows):
    labels = [f"w{index}" for index in range(len(rows))]
    return CaseSeries(labels, [sum(row) for row in rows], rows)


@given(k=st.floats(min_value=0.01, max_value=1000.0, allow_nan=False, allow_infinity=False))
def test_homogeneity_scales_averted_and_fixes_rt(k, series, lambdas, params):
    base_ct = averted_ct(series, lambdas, params)
    base_app = averted_app(series, lambdas, params)
    scaled = CaseSeries(series.labels, series.total * k, series.counts * k)
    scaled_ct = averted_ct(scaled, lambdas, params)
    scaled_app = averted_app(scaled, lambdas, params)
    assert scaled_ct.s_total == pytest.approx(k * base_ct.s_total, rel=1e-9)
    assert scaled_app.s_total == pytest.approx(k * base_app.s_total, rel=1e-9)
    assert rt_series(scaled.total, scaled.labels) == pytest.approx(
        rt_series(series.total, series.labels), rel=1e-9
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
    days = _Days(profile)
    rows = days.rows(p, "table")
    assert days.mix(p, rows, l, h, b) == pytest.approx(days.mean(rows[0], l, h, b), rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    case_type=st.sampled_from(CASE_TYPES),
)
def test_simulation_deterministic_for_fixed_seed(seed, case_type, params):
    cfg = SimConfig(trees=400, seed=seed)
    first = empirical_case_type_taf(case_type, cfg, params)
    second = empirical_case_type_taf(case_type, cfg, params)
    assert first == second


_fraction = st.sampled_from((0.0, 1.0)) | st.floats(min_value=0.0, max_value=1.0)


def _scalar_split(row, total, e_ct, presym_fraction):
    """The six-way split of one week, one scalar term at a time."""
    sym, ct_found, app_sym, app_nosym = row[:4]
    c_pers = e_ct * ct_found
    c_ct = (1.0 - e_ct) * ct_found
    c_app_minus = presym_fraction * app_nosym
    c_app_plus = app_sym + (1.0 - presym_fraction) * app_nosym
    c_miss = total - (sym + c_pers + c_ct + c_app_minus + c_app_plus)
    return [max(c_miss, 0.0), sym, c_pers, c_ct, c_app_minus, c_app_plus]


@given(
    weeks=st.lists(st.tuples(_count, _count, _count, _count, _count), min_size=1, max_size=8),
    e_ct=_fraction, presym_fraction=_fraction,
)
def test_derived_case_types_partition_total(weeks, e_ct, presym_fraction, params):
    # consecutive weeks have back-to-back admission windows; with ihr = 1 each
    # week's total is exactly the admissions on the first day of its window
    first = dt.date(2020, 10, 12)  # Monday of 2020-42
    mondays = [first + dt.timedelta(weeks=w) for w in range(len(weeks))]
    labels = ["%04d-%02d" % monday.isocalendar()[:2] for monday in mondays]
    counts = np.array([row[:4] + (0.1,) for row in weeks])
    totals = [sym + ct + app_sym + app_nosym + slack
              for sym, ct, app_sym, app_nosym, slack in weeks]
    values = np.zeros(7 * len(weeks))
    values[::7] = totals
    days = first.toordinal() + 5 + np.arange(values.size)
    p = apply_overrides(params, {"ihr": 1.0, "e_ct": e_ct, "presym_fraction": presym_fraction})
    series = build_series_from_raw((labels, counts), (days, values), p)
    assert series.total.tolist() == totals
    assert series.counts.tolist() == [_scalar_split(row, total, e_ct, presym_fraction)
                                      for row, total in zip(weeks, totals)]
    # relative, with an absolute floor for subnormal totals
    np.testing.assert_allclose(series.counts.sum(axis=1), series.total, rtol=1e-9, atol=1e-300)
    assert validate_series(series).ok


@given(h=st.integers(min_value=0, max_value=11), l=st.integers(min_value=1, max_value=6))
def test_longer_exposure_windows_leak_weakly_more(h, l, profile):
    pair = _Days(profile).pair
    assert pair[l + h + 1] >= pair[l + h] - 1e-12


@given(
    u_app=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    t_ct=st.integers(min_value=0, max_value=10),
)
def test_config_file_roundtrip_is_exact(u_app, t_ct, params, tmp_path_factory):
    p = apply_overrides(params, {"u_app": u_app, "t_ct": t_ct})
    path = tmp_path_factory.mktemp("conf") / "model.conf"
    path.write_text("".join(f"{f.name} = {getattr(p, f.name)!r}\n"
                            for f in dataclasses.fields(p)), encoding="utf-8")
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


def _warn_channels(p):
    """Warning delay and warn fraction (adherence times reach) of manual
    tracing and of the app."""
    return (p.t_ct, p.a_ct * p.f_ct), (p.t_app, p.a_app * p.f_app)


def _loop_pair(l, h, profile):
    return sum(_i_w(profile, x) * _i_c(profile, l + h - x) for x in range(1, l + h))


def _loop_alpha(x, delay, wf, profile, variant):
    horizon = x if variant == "table" else delay + x
    return (wf * _loop_pair(delay, horizon, profile)
            + (1.0 - wf) * _i_c(profile, x) * profile.i_c_inf)


def _loop_capital(l, h, b, channel, profile, variant):
    weights = [_i_w(profile, x + b) for x in range(1, h + 1)]
    total = sum(
        w * _loop_alpha(l + h + 1 - x, *channel, profile, variant)
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
    days, channels = _Days(profile), _warn_channels(p)
    rows = days.rows(p, variant)
    close = dict(rel=1e-12, abs=1e-12)
    assert days.pair[l + h] == pytest.approx(_loop_pair(l, h, profile), **close)
    for row, channel in zip(rows, channels):
        # rows are constant from day 27, where they end
        assert row[min(x, 27)] == pytest.approx(_loop_alpha(x, *channel, profile, variant), **close)
    assume(any(_i_w(profile, d + b) > 0.0 for d in range(1, h + 1)))
    lam_ct = _loop_capital(l, h, b, channels[0], profile, variant)
    lam_app = _loop_capital(l, h, b, channels[1], profile, variant)
    assert days.mean(rows[0], l, h, b) == pytest.approx(lam_ct, **close)
    assert days.mix(p, rows, l, h, b) == pytest.approx(
        p.u_app * lam_app + (1.0 - p.u_app) * lam_ct, **close)


_DELAYS = ("t_sym", "t_plan", "t_ct", "t_app", "t_pers")
#: every field but the delays
_FRACTIONS = tuple(f.name for f in dataclasses.fields(ModelParams)
                   if f.name not in _DELAYS)
_ANY_FRACTION = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0))


def _example_at(**overrides):
    """An ``@example`` of the default parameters with ``overrides`` applied."""
    p = apply_overrides(default_params(), overrides)
    return example(fractions=tuple(getattr(p, name) for name in _FRACTIONS),
                   delays=tuple(getattr(p, name) for name in _DELAYS))


@settings(deadline=None)
# parameter sets whose own rows sit closer to the text pairing than to the table one
@_example_at(f_app=1.0)
@_example_at(t_sym=1)
@_example_at(t_sym=2)
@_example_at(t_sym=3)
@_example_at(t_ct=1, t_app=1)
@_example_at(t_ct=2, t_app=1)
@given(
    fractions=st.tuples(*(_ANY_FRACTION for _ in _FRACTIONS)),
    delays=st.tuples(*(st.integers(min_value=1, max_value=12) for _ in _DELAYS)),
)
def test_every_table_uses_the_default_calibration(fractions, delays, params, table):
    """The pairing and its scores are those of the default parameters, so a
    sweep never switches formula partway through."""
    p = apply_overrides(params, {**dict(zip(_FRACTIONS, fractions)), **dict(zip(_DELAYS, delays))})
    assume(validate(p).ok and p.t_sym + p.t_plan >= 3)  # days 1-2 carry no infectivity
    profile = InfectivityProfile.from_params(p)
    t = LambdaTable.build(p, profile)
    assert t.variant == table.variant == "table"
    assert t.scores == table.scores
    days = _Days(profile)
    rows = days.rows(p, "table")
    assert t.per_type["sym"] == rows[0][p.t_sym + p.t_plan]
    assert t.per_type["app_minus"] == days.mix(p, rows, p.t_app, p.t_plan, p.t_sym)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP.md item 2: the warned term of a channel row "
                          "reads pair at span x + delay and weighs by i_w, not i_a")
@settings(deadline=None)
@_example_at()
@given(
    fractions=st.tuples(*(_ANY_FRACTION for _ in _FRACTIONS)),
    delays=st.tuples(*(st.integers(min_value=1, max_value=12) for _ in _DELAYS)),
)
def test_no_channel_row_exceeds_the_unwarned_row(fractions, delays, params):
    """A warning can only shorten a contact's run: on days 1..14 no channel row
    exceeds the row of a contact nobody warns, icx(x) * i_c_inf."""
    p = apply_overrides(params, {**dict(zip(_FRACTIONS, fractions)), **dict(zip(_DELAYS, delays))})
    assume(validate(p).ok and p.t_sym + p.t_plan >= 3)  # days 1-2 carry no infectivity
    profile = InfectivityProfile.from_params(p)
    table = LambdaTable.build(p, profile)
    icx = np.where(np.arange(1, 15) >= 13, profile.i_c_inf, profile.i_c)
    unwarned = icx * profile.i_c_inf
    assert (np.array(table.lambda_ct_row) <= unwarned).all()
    assert (np.array(table.lambda_app_row) <= unwarned).all()


# Literal transcription of the product form the counterfactual docstring
# states, c_not(w) = c(w) · Π_{k<w} (1 + gap(k)/volume(k)), one week and one
# term at a time; np.cumprod multiplies in the same order, so the array version
# must reproduce it bit for bit, since the reports print every digit of c_not.


def _left_to_right(terms):
    terms = list(terms)
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _loop_replay(c, rows, lambdas, gap):
    c_not, m = [c[0]], 1.0
    for w in range(len(c) - 1):
        volume = _left_to_right(lambdas[name] * rows[w][j] for j, name in enumerate(CASE_TYPES))
        m *= 1.0 + gap(rows[w]) / volume
        c_not.append(c[w + 1] * m)
    return c_not


@given(rows=st.lists(_week_counts, min_size=2, max_size=12),
       e_app=st.floats(min_value=0.0, max_value=1.0))
def test_replay_matches_scalar_recurrence(rows, e_app, lambdas, params):
    series = _series_from_counts(rows)
    p = apply_overrides(params, {"e_app": e_app})
    c = series.total.tolist()
    fallback = p.e_app * lambdas["miss"] + (1.0 - p.e_app) * lambdas["ct"]
    channels = (
        (averted_ct(series, lambdas, p),
         lambda row: row[3] * (lambdas["miss"] - lambdas["ct"])),
        (averted_app(series, lambdas, p),
         lambda row: row[4] * (fallback - lambdas["app_minus"])
         + row[5] * (fallback - lambdas["app_plus"])),
    )
    for result, gap in channels:
        c_not = _loop_replay(c, rows, lambdas, gap)
        s_weekly = [cn - cw for cn, cw in zip(c_not, c)]
        assert result.c_not_weekly.tolist() == c_not
        assert result.s_weekly.tolist() == s_weekly
        assert result.s_total == sum(s_weekly)
        assert result.rt_weekly.tolist() == [(b / a) ** (4 / 7) for a, b in zip(c_not, c_not[1:])]


@settings(deadline=None)
@given(rows=st.lists(st.tuples(st.lists(_count, min_size=5, max_size=5), _count),
                     min_size=1, max_size=10))
def test_presplit_loader_matches_row_by_row_parse(rows, tmp_path_factory):
    monday = dt.date(2020, 12, 21)
    lines = ["week,c_total,c_sym,c_pers,c_ct,c_app_minus,c_app_plus"]
    expected = []
    for w, (typed, slack) in enumerate(rows):
        year, week, _ = (monday + dt.timedelta(weeks=w)).isocalendar()
        total = _left_to_right(typed) + slack
        lines.append(",".join([f"{year}-{week:02d}", repr(total), *map(repr, typed)]))
        expected.append([total - _left_to_right(typed), *typed])
    directory = tmp_path_factory.mktemp("presplit")
    plain, quoted = directory / "weekly.csv", directory / "quoted.csv"
    plain.write_text("\n".join(lines) + "\n", encoding="utf-8")
    quoted.write_text(_quoted("\n".join(lines) + "\n"), encoding="utf-8")
    series = load_presplit_csv(plain)
    assert series.labels == tuple(line.split(",")[0] for line in lines[1:])
    assert series.total.tolist() == [float(line.split(",")[1]) for line in lines[1:]]
    assert series.counts.tolist() == expected
    # an all-quoted copy reads to the same labels and array bytes
    again = load_presplit_csv(quoted)
    assert again.labels == series.labels
    assert again.total.tobytes() == series.total.tobytes()
    assert again.counts.tobytes() == series.counts.tobytes()


#: parameter sets the oracle is checked on against the exact expectation of its
#: model: the defaults, an app-heavy set, the sets of
#: test_oracle.py::TestAwayFromDefaults, detection windows on both sides of the
#: oracle's 16-day cut, no adherence, and warnings by the app alone
_FIXED_SETS = [
    {},
    {"u_app": 1, "t_app": 3, "t_ct": 5},
    {"t_ct": 2, "t_app": 3},
    {"t_ct": 4},
    {"t_app": 8},
    {"t_sym": 3, "t_plan": 1, "t_ct": 4, "t_app": 4, "t_pers": 1},
    {"t_plan": 20},
    {"t_plan": 40},
    {"a_sym": 0},
    {"f_ct": 0, "f_app": 1},
]


def test_oracle_matches_the_exact_expectation_on_fixed_sets(params):
    # one-sample |z| < 4.5, written as a gap within 4.5 standard errors so that
    # a set with no transmission (mean and standard error 0) passes
    outside = []
    for index, overrides in enumerate(_FIXED_SETS):
        p = apply_overrides(params, overrides)
        for target in CASE_TYPES:
            drawn = empirical_case_type_taf(target, SimConfig(trees=20_000, seed=index), p)
            gap = drawn.empirical_taf - _expected_taf(target, p)
            if abs(gap) > 4.5 * drawn.standard_error:
                outside.append((overrides, target, gap, drawn.standard_error))
    assert not outside
