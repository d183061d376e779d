import csv
import dataclasses
import datetime as dt
import io
import os
import re
from importlib import resources

import numpy as np
import pytest
from test_loader_corpus import _quoted

from traceavert import cases, counterfactual
from traceavert.cases import (
    CaseSeries,
    _week_mondays,
    build_series_from_raw,
    load_fixture,
    load_hospitalizations_csv,
    load_presplit_csv,
    load_raw_csv,
    validate_series,
)
from traceavert.taf import CASE_TYPES

COLUMN = {name: index for index, name in enumerate(CASE_TYPES)}
HEADER = "week,c_total,c_sym,c_pers,c_ct,c_app_minus,c_app_plus\n"
RAW_HEADER = "week,sym_positives,ct_found,app_with_symptoms,app_without_symptoms,k_app\n"


MONDAY = dt.date(2020, 10, 12)  # of ISO week 2020-42
#: a valid label and a NUL: numpy's fixed-width strings drop trailing NULs and
#: keep only as many characters as they hold
NUL_LABELS = ("2020-42\0", "2020-42\0\0", "2020-42\0x")


def _nul_error(text: str, label: str) -> str:
    """The pattern of a loader's message on ``label``, a label with a NUL, in
    ``text``: csv's own error before Python 3.11, which csv reads NULs from on."""
    try:
        list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        return re.escape(str(exc))
    return re.escape(f"invalid ISO week label {label!r} (expected YYYY-WW)")


def _flat_admissions(start: dt.date, days: int, value: float) -> tuple[np.ndarray, np.ndarray]:
    return start.toordinal() + np.arange(days), np.full(days, value)


def _one_week(counts=(0.0, 0.0, 0.0, 0.0, 0.1), label="2020-42"):
    return (label,), np.array([counts], dtype=float)


class TestRawPipeline:
    """``build_series_from_raw`` and the week-label arithmetic it reads."""

    def test_flat_series(self, params):
        series = build_series_from_raw(_one_week(), _flat_admissions(MONDAY, 20, 10.0), params)
        assert series.total[0] == pytest.approx(70 / 0.0132)

    def test_window_is_five_through_eleven(self, params):
        days, values = _flat_admissions(MONDAY, 20, 0.0)
        values[[5, 11, 4, 12]] = [33.0, 11.0, 1000.0, 1000.0]
        series = build_series_from_raw(_one_week(), (days, values), params)
        assert series.total[0] == pytest.approx(44 / 0.0132)

    def test_all_zero(self, params):
        # the loader accepts "-0" admissions; the total is still +0.0, not "-0" in a report
        series = build_series_from_raw(_one_week(), _flat_admissions(MONDAY, 20, -0.0), params)
        assert series.total[0] == 0.0 and not np.signbit(series.total[0])

    def test_missing_day_names_date(self, params):
        days, values = _flat_admissions(MONDAY, 20, 5.0)
        missing = MONDAY + dt.timedelta(days=8)
        keep = days != missing.toordinal()
        with pytest.raises(ValueError, match=missing.isoformat()):
            build_series_from_raw(_one_week(), (days[keep], values[keep]), params)

    @pytest.mark.parametrize("order, named", [
        ([0, 1, 2, 3, 4, 5, 6, 7, 9, 8, 10, 11, 12, 13], "2020-03-10"),
        (list(range(13, -1, -1)), "2020-03-14"),
        ([0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 9, 10, 11, 12, 13], "2020-03-10"),
    ], ids=["swapped", "reversed", "repeated"])
    def test_admission_days_must_increase(self, params, order, named):
        # sorted, the week's total is 4242.4; swapped days gave 4393.9 and reversed
        # ones an IndexError, both without naming the input
        raw = _one_week(label="2020-10")
        days, values = dt.date(2020, 3, 2).toordinal() + np.arange(14), np.arange(14.0)
        total = build_series_from_raw(raw, (days, values), params).total[0]
        assert total == pytest.approx(4242.4, abs=0.05)
        with pytest.raises(ValueError, match=rf"^admission day {named} is not after the day before "
                                             rf"it \(days must be strictly increasing\)$"):
            build_series_from_raw(raw, (days[order], values[order]), params)

    def test_zero_ihr_is_a_named_error(self, params):
        p = dataclasses.replace(params, ihr=0.0)
        with pytest.raises(ValueError, match="ihr"):
            build_series_from_raw(_one_week(), _flat_admissions(MONDAY, 20, 5.0), p)

    def test_non_finite_total_names_week_and_ihr(self, params):
        p = dataclasses.replace(params, ihr=5e-324)
        with np.errstate(all="raise"), pytest.raises(
                ValueError, match=r"week 2020-42: estimated total inf is not finite .*5e-324"):
            build_series_from_raw(_one_week(), _flat_admissions(MONDAY, 20, 5.0), p)

    def test_linear_in_admissions(self, params):
        one = build_series_from_raw(_one_week(), _flat_admissions(MONDAY, 14, 3.0), params)
        two = build_series_from_raw(_one_week(), _flat_admissions(MONDAY, 14, 6.0), params)
        assert two.total[0] == pytest.approx(2 * one.total[0])

    def _split(self, params, total, sym=0.0, ct_found=0.0, app_sym=0.0, app_nosym=0.0):
        """One week's counts, its total set exactly through ``ihr = 1``."""
        days, values = _flat_admissions(MONDAY, 14, 0.0)
        values[5] = total
        series = build_series_from_raw(_one_week((sym, ct_found, app_sym, app_nosym, 0.1)),
                                       (days, values), dataclasses.replace(params, ihr=1.0))
        assert series.total[0] == total
        return series.counts[0].tolist()

    def test_tracing_split(self, params):
        _, _, c_pers, c_ct, _, _ = self._split(params, 10_000, ct_found=2500)
        assert c_pers == pytest.approx(1500)
        assert c_ct == pytest.approx(1000)

    def test_app_split(self, params):
        *_, c_app_minus, c_app_plus = self._split(params, 10_000, app_sym=300, app_nosym=100)
        assert c_app_minus == pytest.approx(20)
        assert c_app_plus == pytest.approx(380)

    def test_partition_reconstructs_total(self, params):
        counts = self._split(params, 5_000, sym=500, ct_found=200, app_sym=30, app_nosym=10)
        assert len(counts) == len(CASE_TYPES)
        assert sum(counts) == pytest.approx(5_000)

    def test_total_below_reported_rejected(self, params):
        with pytest.raises(ValueError, match="below"):
            self._split(params, 50, sym=100)

    def test_build_series_from_raw(self, params):
        raw = (("2020-42", "2020-43"), np.array([[500.0, 200.0, 30.0, 10.0, 8.4],
                                                   [600.0, 250.0, 40.0, 20.0, 8.0]]))
        series = build_series_from_raw(raw, _flat_admissions(MONDAY, 25, 10.0), params)
        assert series.labels == ("2020-42", "2020-43")
        total = 70 / params.ihr
        assert series.total.tolist() == [total, total]
        assert series.counts[0].tolist() == pytest.approx(
            [total - 740, 500, 120, 80, 2, 38])
        assert validate_series(series).ok

    def test_week_mondays(self):
        assert _week_mondays(["2020-42", "2021-19"]).tolist() == [
            dt.date(2020, 10, 12).toordinal(), dt.date(2021, 5, 10).toordinal()]

    def test_week_mondays_check_each_label_length(self):
        # 6 and 8 characters average 7, so only the length of each label tells
        assert _week_mondays(["2020-4", "2020-42\0", "2020-43"]).tolist() == [
            -1, -1, dt.date(2020, 10, 19).toordinal()]

    def test_bad_week_label(self, params):
        with pytest.raises(ValueError, match="label '2020/42'"):
            build_series_from_raw(_one_week(label="2020/42"),
                                  _flat_admissions(MONDAY, 20, 5.0), params)

    def test_window_past_the_last_date_names_the_day_and_week(self, params):
        # the window starts on 1 January 10000, past the range of datetime.date
        with pytest.raises(ValueError, match=r"^hospitalization series does not cover 3652060 "
                                             r"\(needed for week starting 9999-12-27\)$"):
            build_series_from_raw(_one_week(label="9999-52"),
                                  _flat_admissions(dt.date(9999, 12, 27), 5, 5.0), params)

    def test_week_mondays_match_iso_calendar(self):
        labels, expected = [], []
        for year in (1, 4, 100, 400, 1900, 2000, 2004, 2020, 2021, 2100, 9999):
            for week in range(1, 54):
                labels.append(f"{year:04d}-{week:02d}")
                try:
                    expected.append(dt.date.fromisocalendar(year, week, 1).toordinal())
                except ValueError:
                    expected.append(-1)
        assert _week_mondays(labels).tolist() == expected


class TestFixture:
    def test_shape(self, series):
        assert len(series) == 31
        assert series.labels[0] == "2020-42"
        assert series.labels[-1] == "2021-19"
        assert series.total.shape == (31,)
        assert series.counts.shape == (31, len(CASE_TYPES))

    def test_first_row_values(self, series):
        assert series.total[0] == 134772
        assert series.counts[0, 1:].tolist() == [53531, 1760, 1029, 0, 344]

    def test_last_row_total(self, series):
        assert series.total[-1] == 74386

    def test_app_columns_week_2020_49(self, series):
        assert series.labels[7] == "2020-49"
        assert series.counts[7, COLUMN["app_minus"]] == 106
        assert series.counts[7, COLUMN["app_plus"]] == 447

    def test_column_totals(self, series):
        assert sum(series.total) == 3453079
        column_totals = {"sym": 955654, "pers": 269774, "ct": 173517,
                         "app_minus": 3916, "app_plus": 10345}
        for name, total in column_totals.items():
            assert sum(series.counts[:, COLUMN[name]]) == total, name

    def test_missed_is_residual(self, series):
        others = series.counts[:, 1:].sum(axis=1)
        assert series.counts[:, COLUMN["miss"]] == pytest.approx(series.total - others)
        assert (series.counts[:, COLUMN["miss"]] >= 0).all()

    def test_validates_clean(self, series):
        assert validate_series(series).ok


def _series(labels, total=60.0, counts=(10.0,) * 6):
    """A series with the same total and counts in every week."""
    return CaseSeries(labels, [total] * len(labels), [counts] * len(labels))


class TestCaseSeries:
    def test_holds_float_arrays(self):
        series = CaseSeries(["2020-42"], [60], [[10, 10, 10, 10, 10, 10]])
        assert series.labels == ("2020-42",)
        assert series.total.dtype == np.float64
        assert series.counts.dtype == np.float64
        assert len(series) == 1

    @pytest.mark.parametrize("total, counts", [
        ([60.0, 60.0], [[10.0] * 6]),
        ([60.0], [[10.0] * 5]),
        ([60.0], [10.0] * 6),
    ])
    def test_shape_mismatch_rejected(self, total, counts):
        with pytest.raises(ValueError, match="count array"):
            CaseSeries(["2020-42"], total, counts)


class TestObservedRt:
    """``CaseSeries.observed_rt`` and the ``rt_series`` it computes."""

    LABELS = ("2020-42", "2020-43", "2020-44")

    def test_constant_series(self):
        assert cases.rt_series([100.0, 100.0, 100.0], self.LABELS) == pytest.approx([1.0, 1.0])

    def test_doubling(self):
        got = cases.rt_series([100.0, 200.0], self.LABELS)
        assert got == pytest.approx([2 ** (4 / 7)])
        assert got[0] == pytest.approx(1.486, abs=0.001)

    def test_fixture_first_transition(self, series):
        rt = cases.rt_series(series.total, series.labels)
        assert rt[0] == pytest.approx((145302 / 134772) ** (4 / 7))
        assert rt[0] == pytest.approx(1.044, abs=0.001)

    def test_length(self, series):
        assert len(cases.rt_series(series.total, series.labels)) == len(series) - 1

    def test_is_rt_series_of_the_totals_computed_once(self):
        series = load_fixture()
        rt = series.observed_rt
        assert rt.tolist() == cases.rt_series(series.total, series.labels).tolist()
        assert series.observed_rt is rt

    def test_counterfactual_reexports_rt_series(self):
        assert counterfactual.rt_series is cases.rt_series

    @pytest.mark.parametrize("totals, week, text", [
        ((100.0, 0.0, np.nan), "2020-43", "0.0"),
        ((100.0, np.nan, -1.0), "2020-43", "nan"),
        ((-1.0, 100.0, 100.0), "2020-42", "-1.0"),
        ((100.0, 100.0, np.nan), "2020-44", "nan"),
        ((1e-300, 1e300, 0.0), "2020-44", "0.0"),  # before any growth past the float range
    ])
    def test_first_nonpositive_week_is_named(self, totals, week, text):
        series = CaseSeries(self.LABELS, totals, np.zeros((3, 6)))
        message = f"week {week}: nonpositive case total {text} breaks the growth recurrence"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            series.observed_rt

    @pytest.mark.parametrize("totals, week, text", [
        ((1.0, 1e-300, 1e300), "2020-43: case growth to week 2020-44", "1e-300 -> 1e+300"),
    ])
    def test_growth_that_is_not_finite_is_named(self, totals, week, text):
        series = CaseSeries(self.LABELS, totals, np.zeros((3, 6)))
        message = f"week {week} is not finite ({text})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            series.observed_rt

    @pytest.mark.parametrize("totals, week", [
        ((np.inf, np.inf, 1.0), "2020-42"),
        ((1.0, 1e-300, np.inf), "2020-44"),  # before any growth past the float range
        ((np.inf, 5.0, 6.0), "2020-42"),  # the growth from it, 0, is finite
    ])
    def test_infinite_total_is_named(self, totals, week):
        series = CaseSeries(self.LABELS, totals, np.ones((3, 6)))
        with pytest.raises(ValueError, match=f"^week {week}: case total inf is not finite$"):
            series.observed_rt

    def test_infinite_total_is_named_before_the_replay(self, lambdas, params):
        # the observed week is named, not a counterfactual that reaches inf
        series = CaseSeries(self.LABELS, (np.inf, 5.0, 6.0), np.ones((3, 6)))
        with pytest.raises(ValueError, match="^week 2020-42: case total inf is not finite$"):
            counterfactual.averted_ct(series, lambdas, params)


class TestValidateSeries:
    def test_negative_count_flagged(self, series):
        bad = CaseSeries(("2020-42",), [100], [[-5, 50, 20, 20, 5, 10]])
        report = validate_series(bad)
        assert report.violations == ("week 2020-42: c_miss is negative (-5.0)",)

    def test_non_finite_values_named_by_week_and_column(self):
        # a NaN passes every comparison, so neither the partition nor the sign flags it
        bad = CaseSeries(("2020-42", "2020-43", "2020-44"), [np.nan, 100, 100],
                         [[50, 30, 10, 5, 3, 2], [np.nan, 50, 20, 20, 5, 5],
                          [50, 30, 10, 5, 3, -np.inf]])
        assert validate_series(bad).violations == (
            "week 2020-42: c_total is not finite (nan)",
            "week 2020-43: c_miss is not finite (nan)",
            "week 2020-44: typed counts sum to -inf but c_total is 100.0",
            "week 2020-44: c_app_plus is not finite (-inf)",
        )

    def test_partition_break_flagged(self):
        report = validate_series(_series(("2020-42",), total=1000.0))
        assert any("c_total" in v for v in report.violations)

    def test_index_gap_flagged(self):
        report = validate_series(_series(("2020-42", "2020-44")))
        assert report.violations == (
            "week 2020-44: does not follow 2020-42 (ISO weeks must be consecutive)",)

    def test_duplicate_week_flagged(self):
        report = validate_series(_series(("2020-42", "2020-43", "2020-43")))
        assert report.violations == (
            "week 2020-43: repeats 2020-43 (ISO weeks must be consecutive)",)

    def test_weeks_out_of_order_flagged(self):
        report = validate_series(_series(("2020-43", "2020-42")))
        assert report.violations == (
            "week 2020-42: does not follow 2020-43 (ISO weeks must be consecutive)",)

    @pytest.mark.parametrize("labels", [
        ("2020-52", "2020-53", "2021-01"),  # 2020 has 53 ISO weeks
        ("2021-51", "2021-52", "2022-01"),  # 2021 has 52
    ])
    def test_year_boundaries_are_consecutive(self, labels):
        assert validate_series(_series(labels)).ok

    def test_invalid_label_flagged(self):
        report = validate_series(_series(("2021-52", "2021-53")))
        assert report.violations == ("week '2021-53': not an ISO YYYY-WW week label",)

    @pytest.mark.parametrize("label", NUL_LABELS)
    def test_nul_after_label_flagged(self, label):
        report = validate_series(_series(("2020-41", label)))
        assert report.violations == (f"week {label!r}: not an ISO YYYY-WW week label",)

    def test_non_string_label_flagged(self):
        report = validate_series(_series(("2020-41", 2020)))
        assert report.violations == ("week 2020: not an ISO YYYY-WW week label",)

    def test_rounding_slack_tolerated(self):
        assert validate_series(_series(("2020-42",), total=61.5)).ok

    def test_violations_listed_week_by_week(self):
        bad = CaseSeries(("2020-42", "2020-44"), [100, 1000],
                         [[-5, 50, 20, 20, 5, 10], [10] * 6])
        assert validate_series(bad).violations == (
            "week 2020-42: c_miss is negative (-5.0)",
            "week 2020-44: does not follow 2020-42 (ISO weeks must be consecutive)",
            "week 2020-44: typed counts sum to 60.0 but c_total is 1000.0",
        )


class TestCsvLoaders:
    def test_presplit_missing_column_named(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text("week,c_total,c_sym\n2020-42,10,5\n")
        with pytest.raises(ValueError, match="c_pers"):
            load_presplit_csv(path)

    def test_presplit_unexpected_column_rejected(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text(
            "week,c_total,c_sym,c_pers,c_ct,c_app_minus,c_app_plus,extra\n"
        )
        with pytest.raises(ValueError, match="extra"):
            load_presplit_csv(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_presplit_error_from_a_pipe_names_the_bad_cell(self):
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, (HEADER + "2020-42,100,1,1,1,1,1\n2020-43,abc,1,1,1,1,1\n").encode())
            os.close(write_end)
            with pytest.raises(ValueError, match=r":3: column 'c_total': not a number: 'abc'"):
                load_presplit_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)

    def test_presplit_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text(HEADER.strip() + ",c_total\n2020-42,100,1,1,1,1,1,5\n")
        with pytest.raises(ValueError, match="repeated column"):
            load_presplit_csv(path)

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_bytes(HEADER.encode() + b"2020-42,100,1,1,1,1,1\n2020-43,\xff,1,1,1,1,1\n")
        with pytest.raises(ValueError, match=r"weekly.csv: 'utf-8' codec can't decode"):
            load_presplit_csv(path)

    def test_presplit_bad_number_names_line(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text(
            "week,c_total,c_sym,c_pers,c_ct,c_app_minus,c_app_plus\n"
            "2020-42,100,1,1,1,1,1\n"
            "2020-43,abc,1,1,1,1,1\n"
        )
        with pytest.raises(ValueError, match=r"weekly.csv:3: column 'c_total': not a number: 'abc'$"):
            load_presplit_csv(path)

    def test_presplit_overfull_partition_rejected(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text(
            "week,c_total,c_sym,c_pers,c_ct,c_app_minus,c_app_plus\n"
            "2020-42,10,20,0,0,0,0\n"
        )
        with pytest.raises(ValueError, match=r"weekly.csv:2: typed counts exceed c_total "
                                             r"\(residual missed count -10\.0\)$"):
            load_presplit_csv(path)

    #: each loader's file name, its text with one cell to fill and that cell's column
    NON_FINITE = {
        "presplit": (load_presplit_csv, "weekly.csv", HEADER + "2020-42,100,{},1,1,1,1\n", "c_sym"),
        "raw": (load_raw_csv, "raw.csv", RAW_HEADER + "2020-42,1,{},3,4,0.5\n", "ct_found"),
        "hospitalizations": (load_hospitalizations_csv, "hosp.csv",
                             "date,admissions\n2020-10-12,{}\n", "admissions"),
    }

    @pytest.mark.parametrize("kind", list(NON_FINITE))
    def test_non_finite_number_names_line_and_column(self, tmp_path, kind):
        load, name, template, column = self.NON_FINITE[kind]
        path = tmp_path / name
        for text in ("nan", "inf", "-inf"):
            path.write_text(template.format(text))
            with pytest.raises(ValueError) as info:
                load(path)
            assert str(info.value) == f"{path}:2: column '{column}': not a finite number: '{text}'"

    def test_presplit_blank_line_keeps_physical_line_number(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text(HEADER + "2020-42,100,1,1,1,1,1\n\n2020-43,abc,1,1,1,1,1\n")
        with pytest.raises(ValueError, match=r"weekly.csv:4: column 'c_total': not a number: 'abc'"):
            load_presplit_csv(path)

    def test_presplit_multiline_row_named_by_its_first_line(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text(HEADER + '2020-42,100,1,1,1,1,1\n2020-43,"1\n00",1,1,1,1,1\n')
        with pytest.raises(ValueError, match=r"weekly.csv:3: column 'c_total': not a number"):
            load_presplit_csv(path)

    def test_presplit_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text(HEADER + "\n2020-42,100,1,1,1,1,1\n\n2020-43,90,1,1,1,1,1\n\n")
        series = load_presplit_csv(path)
        assert series.labels == ("2020-42", "2020-43")
        assert series.total.tolist() == [100.0, 90.0]

    def test_presplit_columns_in_any_order(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text("c_app_plus,c_app_minus,c_ct,c_pers,c_sym,c_total,week\n"
                        "6,5,4,3,2,100,2020-42\n")
        series = load_presplit_csv(path)
        assert series.labels == ("2020-42",)
        assert series.counts.tolist() == [[80.0, 2.0, 3.0, 4.0, 5.0, 6.0]]

    @pytest.mark.parametrize("row, got", [("2020-43,100,1,1,1,1", 6),
                                          ("2020-43,100,1,1,1,1,1,1", 8)])
    def test_presplit_ragged_row_rejected(self, tmp_path, row, got):
        path = tmp_path / "weekly.csv"
        path.write_text(HEADER + "2020-42,100,1,1,1,1,1\n" + row + "\n")
        with pytest.raises(ValueError, match=rf"weekly.csv:3: expected 7 fields, got {got}$"):
            load_presplit_csv(path)

    @pytest.mark.parametrize("row, got", [("2020-42,1,1,1,1", 5), ("2020-42,1,1,1,1,0.5,9", 7)])
    def test_raw_ragged_row_rejected(self, tmp_path, row, got):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEADER + row + "\n")
        with pytest.raises(ValueError, match=rf"raw.csv:2: expected 6 fields, got {got}$"):
            load_raw_csv(path)

    @pytest.mark.parametrize("row, got", [("2020-10-12", 1), ("2020-10-12,5,5", 3)])
    def test_hospitalizations_ragged_row_rejected(self, tmp_path, row, got):
        path = tmp_path / "hosp.csv"
        path.write_text("date,admissions\n2020-10-11,4\n" + row + "\n")
        with pytest.raises(ValueError, match=rf"hosp.csv:3: expected 2 fields, got {got}$"):
            load_hospitalizations_csv(path)

    def test_oversized_field_is_an_input_error(self, tmp_path):
        # the field reads as 100.0, but csv refuses it
        path = tmp_path / "weekly.csv"
        path.write_text(HEADER + "2020-42,100,1,1,1,1,1\n"
                        "2020-43," + "0" * csv.field_size_limit() + "100,1,1,1,1,1\n")
        with pytest.raises(ValueError, match=r"weekly.csv:3: field larger than field limit"):
            load_presplit_csv(path)

    def test_line_over_the_field_limit_with_fields_within_it_loads(self, tmp_path):
        # csv limits the length of a field, not of a line
        path = tmp_path / "weekly.csv"
        path.write_text(HEADER + "2020-42," + "0" * (csv.field_size_limit() - 3) + "100,1,1,1,1,1\n")
        assert load_presplit_csv(path).total.tolist() == [100.0]

    @pytest.mark.parametrize("load, header", [(load_presplit_csv, HEADER),
                                              (load_raw_csv, RAW_HEADER),
                                              (load_hospitalizations_csv, "date,admissions\n")])
    @pytest.mark.parametrize("blank", ["", "\n\n", "\r\n"])
    def test_header_only_file_has_no_data_rows(self, tmp_path, load, header, blank):
        path = tmp_path / "input.csv"
        path.write_bytes((header + blank).encode())
        with pytest.raises(ValueError, match=r"input.csv: no data rows$"):
            load(path)

    def test_crlf_blank_line_and_no_final_newline_load(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_bytes((HEADER + "2020-42,100,1,1,1,1,1\r\n\n2020-43,90,1,1,1,1,1").encode())
        assert load_presplit_csv(path).labels == ("2020-42", "2020-43")

    @pytest.fixture
    def row_passes(self, monkeypatch) -> list:
        """One entry per csv read of a file (a call of ``_rows``)."""
        calls = []
        rows = cases._rows
        monkeypatch.setattr(cases, "_rows", lambda *args: calls.append(1) or rows(*args))
        return calls

    @pytest.mark.parametrize("text, expected", [
        (HEADER.replace("\n", "\r") + "2020-42,100,1,1,1,1,1\r2020-43,90,1,1,1,1,1\r",
         ("2020-42", "2020-43")),
        # csv ends the row at the CR; float() would read "100\r"
        (HEADER + "2020-42,100\r,1,1,1,1,1\n", "weekly.csv:2: expected 7 fields, got 2"),
    ])
    def test_lone_cr_is_read_row_by_row(self, tmp_path, row_passes, text, expected):
        path = tmp_path / "weekly.csv"
        path.write_bytes(text.encode())
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=rf"{expected}$"):
                load_presplit_csv(path)
            assert row_passes == [1]  # the one pass names the first error
        else:
            assert load_presplit_csv(path).labels == expected
            assert row_passes == [1]

    def test_nul_is_read_row_by_row(self, tmp_path, row_passes):
        label = NUL_LABELS[0]
        text = HEADER + label + ",100,1,1,1,1,1\n2020-43,90,1,1,1,1,1\n"
        path = tmp_path / "weekly.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=rf"weekly.csv:2: {_nul_error(text, label)}$"):
            load_presplit_csv(path)
        assert row_passes == [1]  # the one pass names the first error

    @pytest.mark.parametrize("rewrite", [
        _quoted,
        # the week column moved to the end of every line
        lambda text: "\n".join(",".join(line.split(",")[1:] + line.split(",")[:1]) if line else line
                               for line in text.split("\n")),
    ], ids=["quoted", "reordered"])
    def test_quoted_or_reordered_file_loads_in_one_pass(self, tmp_path, row_passes, rewrite):
        plain = load_fixture()
        bundled = resources.files("traceavert").joinpath("data", "weekly_cases.csv")
        path = tmp_path / "weekly.csv"
        path.write_text(rewrite(bundled.read_text(encoding="utf-8")), encoding="utf-8")
        series = load_presplit_csv(path)
        assert row_passes == [1, 1]  # one for the plain file, one for the rewritten
        assert series.labels == plain.labels
        assert series.total.tobytes() == plain.total.tobytes()
        assert series.counts.tobytes() == plain.counts.tobytes()

    @pytest.mark.parametrize("rewrite", [lambda text: text, _quoted], ids=["plain", "quoted"])
    def test_file_names_its_first_error_after_one_pass(self, tmp_path, row_passes, rewrite):
        # the ragged row on line 5 ends the read; the label on line 3 is named
        path = tmp_path / "weekly.csv"
        path.write_text(rewrite(HEADER + "2020-42,100,1,1,1,1,1\n"
                                "bogus,100,1,1,1,1,1\n"
                                "2020-44,100,1,1,1,1,1\n"
                                "2020-45,100,1,1,1,1\n"))
        with pytest.raises(ValueError, match=r"weekly.csv:3: invalid ISO week label 'bogus' "
                                             r"\(expected YYYY-WW\)$"):
            load_presplit_csv(path)
        assert row_passes == [1]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        bom = "\ufeff"
        presplit = HEADER + "2020-42,100,1,1,1,1,1\n2020-43,90,1,1,1,1,1\n"
        raw = RAW_HEADER + "2020-42,500,200,30,10,0.4\n"
        hosp = "date,admissions\n2020-10-12,5\n2020-10-14,7.5\n"
        loaded = []
        for prefix in ("", bom):
            (tmp_path / "weekly.csv").write_text(prefix + presplit, encoding="utf-8")
            (tmp_path / "raw.csv").write_text(prefix + raw, encoding="utf-8")
            (tmp_path / "hosp.csv").write_text(prefix + hosp, encoding="utf-8")
            series = load_presplit_csv(tmp_path / "weekly.csv")
            labels, counts = load_raw_csv(tmp_path / "raw.csv")
            days, admissions = load_hospitalizations_csv(tmp_path / "hosp.csv")
            loaded.append((series.labels, series.total.tolist(), series.counts.tolist(),
                           labels, counts.tolist(), days.tolist(), admissions.tolist()))
        assert (tmp_path / "weekly.csv").read_bytes().startswith(b"\xef\xbb\xbfweek,")
        assert loaded[0] == loaded[1]

    @pytest.mark.parametrize("label", ["bogus", "2020-54", "2021-53", "2020-00", "20-42",
                                       "2020-042", "2020/42", " 2020-42", "0000-01"])
    def test_presplit_bad_week_label_names_line(self, tmp_path, label):
        path = tmp_path / "weekly.csv"
        path.write_text(HEADER + "2020-41,100,1,1,1,1,1\n" + label + ",100,1,1,1,1,1\n")
        with pytest.raises(ValueError, match=rf"weekly.csv:3: invalid ISO week label '{label}'"):
            load_presplit_csv(path)

    def test_presplit_first_offending_line_wins(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text(HEADER + "2020-42,100,1,1,1,1,1\n"
                        "2020-43,100,1,inf,1,1,1\n"
                        "bogus,100,1,1,1,1,1\n"
                        "2020-45,abc,1,1,1,1\n")
        with pytest.raises(ValueError, match=r"weekly.csv:3: column 'c_pers': not a finite"):
            load_presplit_csv(path)

    def test_presplit_residual_checked_in_row_order(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text(HEADER + "2020-42,3,1,1,1,1,1\n2020-43,abc,1,1,1,1,1\n")
        with pytest.raises(ValueError, match=r"weekly.csv:2: typed counts exceed c_total"):
            load_presplit_csv(path)

    @pytest.mark.parametrize("column", range(1, 5))
    def test_raw_negative_count_rejected(self, tmp_path, column):
        cells = ["2020-42", "500", "200", "30", "10", "0.4"]
        cells[column] = "-3"
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEADER + ",".join(cells) + "\n")
        name = RAW_HEADER.strip().split(",")[column]
        with pytest.raises(ValueError, match=rf"raw.csv:2: column '{name}': negative count: '-3'"):
            load_raw_csv(path)

    def test_raw_bad_week_label_names_line(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEADER + "2020-42,1,1,1,1,0.5\n2020-W43,1,1,1,1,0.5\n")
        with pytest.raises(ValueError, match=r"raw.csv:3: invalid ISO week label '2020-W43'"):
            load_raw_csv(path)

    @pytest.mark.parametrize("label", NUL_LABELS)
    def test_raw_nul_after_week_label_names_line(self, tmp_path, label):
        text = RAW_HEADER + "2020-42,1,1,1,1,0.5\n" + label + ",1,1,1,1,0.5\n"
        path = tmp_path / "raw.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"raw.csv:3: {_nul_error(text, label)}$"):
            load_raw_csv(path)

    @pytest.mark.parametrize("cell, message", [
        ("inf", "column 'app_with_symptoms': not a finite number: 'inf'"),
        ("-1", "column 'app_with_symptoms': negative count: '-1'"),
    ])
    def test_raw_first_offending_line_wins(self, tmp_path, cell, message):
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEADER + "2020-42,1,1,1,1,0.5\n"
                        f"2020-43,1,1,{cell},1,0.5\n"
                        "bogus,1,1,1,1,0.5\n"
                        "2020-45,abc,1,1,1\n")
        with pytest.raises(ValueError, match=rf"raw.csv:3: {message}$"):
            load_raw_csv(path)

    def test_raw_labels_are_parsed_once(self, tmp_path, monkeypatch):
        calls = []
        week_mondays = cases._week_mondays

        def counted(labels):
            calls.append(len(labels))
            return week_mondays(labels)

        monkeypatch.setattr(cases, "_week_mondays", counted)
        weeks = [(MONDAY + dt.timedelta(weeks=w)).isocalendar() for w in range(200)]
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEADER + "".join(f"{year}-{week:02d},1,1,1,1,0.5\n"
                                             for year, week, _ in weeks))
        assert len(load_raw_csv(path)[0]) == 200
        assert calls == [200]

    def test_raw_roundtrip(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            "week,sym_positives,ct_found,app_with_symptoms,app_without_symptoms,k_app\n"
            "2020-42,500,200,30,10,8.4\n"
        )
        labels, counts = load_raw_csv(path)
        assert labels == ("2020-42",)
        assert counts.dtype == float
        assert counts.tolist() == [[500.0, 200.0, 30.0, 10.0, 8.4]]

    def test_raw_columns_in_any_order(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("k_app,app_without_symptoms,app_with_symptoms,ct_found,sym_positives,week\n"
                        "0.5,4,3,2,1,2020-42\n")
        assert load_raw_csv(path)[1].tolist() == [[1.0, 2.0, 3.0, 4.0, 0.5]]

    def test_hospitalizations_roundtrip_keeps_gaps(self, tmp_path):
        path = tmp_path / "hosp.csv"
        path.write_text("admissions,date\n5,2020-10-12\n7.5,2020-10-14\n")
        days, admissions = load_hospitalizations_csv(path)
        assert days.tolist() == [dt.date(2020, 10, 12).toordinal(), dt.date(2020, 10, 14).toordinal()]
        assert admissions.tolist() == [5.0, 7.5]

    def test_hospitalizations_strictly_increasing(self, tmp_path):
        path = tmp_path / "hosp.csv"
        path.write_text("date,admissions\n2020-10-12,5\n2020-10-12,6\n")
        with pytest.raises(ValueError, match=r"hosp.csv:3: dates must be strictly increasing$"):
            load_hospitalizations_csv(path)

    def test_hospitalizations_negative_rejected(self, tmp_path):
        path = tmp_path / "hosp.csv"
        path.write_text("date,admissions\n2020-10-12,-5\n")
        with pytest.raises(ValueError, match=r"hosp.csv:2: negative admissions -5\.0$"):
            load_hospitalizations_csv(path)

    def test_hospitalizations_bad_date_named(self, tmp_path):
        path = tmp_path / "hosp.csv"
        # the ragged row on line 4 ends the read; the date on line 3 is named
        path.write_text("date,admissions\n2020-10-11,4\nyesterday,5\n2020-10-13,6,7\n")
        with pytest.raises(ValueError, match=r"hosp.csv:3: invalid date 'yesterday'$"):
            load_hospitalizations_csv(path)

    @pytest.mark.parametrize("text", ["20201012", "2020-W42-1", "2021-02-30", "0000-01-01"])
    def test_hospitalizations_date_is_yyyy_mm_dd(self, tmp_path, text):
        # Python 3.11 and later read both compact forms with date.fromisoformat;
        # the last two have the form but name no day
        path = tmp_path / "hosp.csv"
        path.write_text(f"date,admissions\n2020-10-11,4\n{text},5\n")
        with pytest.raises(ValueError, match=f"hosp.csv:3: invalid date '{text}'$"):
            load_hospitalizations_csv(path)
