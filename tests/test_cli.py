"""End-to-end tests of the command-line interface.

Every test drives :func:`traceavert.cli.main` with an argv list and checks
exit status, the files written, and the text printed — the same surface a
shell user sees.
"""
from __future__ import annotations

import contextlib
import dataclasses
import datetime as dt
import io
import math
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_loader_corpus import _quoted, mutated

from traceavert import cases, cli, counterfactual, load_fixture
from traceavert.params import ModelParams, apply_overrides, default_params, validate
from traceavert.taf import CASE_TYPES

# --------------------------------------------------------------------------
# helpers


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    """Run the CLI once and return ``(exit_code, stdout, stderr)``."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_presplit(path, rows) -> str:
    lines = ["week,c_total,c_sym,c_pers,c_ct,c_app_minus,c_app_plus"]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


RAW_HEADER = "week,sym_positives,ct_found,app_with_symptoms,app_without_symptoms,k_app"


def write_raw_inputs(directory, rows=("2020-10,100,50,10,5,0.5", "2020-11,120,60,12,6,0.5"),
                     admissions=None) -> tuple[str, str]:
    """Raw weekly counts plus admissions covering both week windows."""
    raw = directory / "raw.csv"
    raw.write_text("\n".join((RAW_HEADER, *rows)) + "\n", encoding="utf-8")
    if admissions is None:
        admissions = ["1.32" if offset < 7 else "2.64" for offset in range(14)]
    lines = ["date,admissions"]
    for offset, value in enumerate(admissions):
        day = dt.date(2020, 3, 7) + dt.timedelta(days=offset)
        lines.append(f"{day.isoformat()},{value}")
    hosp = directory / "hosp.csv"
    hosp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(raw), str(hosp)


#: ``summary.csv`` of ``estimate`` at the default parameters on the bundled data
DEFAULT_SUMMARY = [
    "metric,ct,app",
    "averted_cases,803079,68884",
    "averted_hospitalizations,10601,909",
    "averted_icu_admissions,2008,172",
    "averted_deaths,4818,413",
    "rt_reduction_avg,0.0093,0.0008",
]


# --------------------------------------------------------------------------
# estimate


class TestEstimate:
    def test_default_run_writes_both_reports(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "estimate", "--out", str(out_dir))
        assert code == 0
        assert err == ""
        assert (out_dir / "weekly.csv").is_file()
        assert (out_dir / "summary.csv").is_file()
        assert "calibration variant: table" in out
        assert "weeks: 2020-42 .. 2021-19 (31)" in out

    def test_weekly_csv_shape_and_first_row(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "estimate", "--out", str(out_dir))
        assert code == 0
        lines = (out_dir / "weekly.csv").read_text().splitlines()
        assert lines[0] == "week,c,c_not_ct,s_ct,c_not_app,s_app,rt,rt_not_ct,rt_not_app"
        assert len(lines) == 1 + 31
        assert lines[1] == "2020-42,134772,134772,0,134772,0,1.0439,1.0454,1.0443"
        # growth rates are forward-looking, so the final week has none
        assert lines[-1].startswith("2021-19,") and lines[-1].endswith(",,,")

    def test_summary_values(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "estimate", "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "summary.csv").read_text().splitlines() == DEFAULT_SUMMARY

    def test_output_is_deterministic(self, tmp_path, capsys):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run_cli(capsys, "estimate", "--out", str(first))[0] == 0
        assert run_cli(capsys, "estimate", "--out", str(second))[0] == 0
        for name in ("weekly.csv", "summary.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_presplit_file_via_data_flag(self, tmp_path, capsys):
        data = write_presplit(tmp_path / "mini.csv", [
            ("2020-10", 1000, 300, 40, 60, 5, 10),
            ("2020-11", 1100, 320, 44, 66, 6, 11),
            ("2020-12", 1210, 350, 48, 72, 7, 12),
        ])
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "estimate", "--data", data, "--out", str(out_dir))
        assert code == 0
        assert "weeks: 2020-10 .. 2020-12 (3)" in out
        lines = (out_dir / "weekly.csv").read_text().splitlines()
        assert len(lines) == 1 + 3


    def test_observed_rt_is_computed_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        rt_series = counterfactual.rt_series

        def counted(totals, labels):
            calls.append(totals)
            return rt_series(totals, labels)

        # rt_series is defined in cases and imported into counterfactual
        for module in (cases, counterfactual):
            monkeypatch.setattr(module, "rt_series", counted)
        assert run_cli(capsys, "estimate", "--out", str(tmp_path))[0] == 0
        observed = load_fixture().total
        assert [np.array_equal(totals, observed) for totals in calls].count(True) == 1
        assert len(calls) == 3  # the observed series and each counterfactual


#: ties, negative zeros, and the integers around 2**53 (from 2**53 up every float is an
#: integer): each prints as %.0f prints it, though the cells print from ints
_COUNT_CELLS = (2.0**53, -(2.0**53), 2.0**53 - 1, -(2.0**53 - 1), 0.5, 1.5, -0.4, -0.0, 1e79)


class TestWeeklyRows:
    @pytest.mark.parametrize("shift", range(len(_COUNT_CELLS)))
    def test_counts_print_as_percent_0f(self, shift):
        cells = (_COUNT_CELLS * 2)[shift:shift + 5]  # each value in each column
        counts = [np.full(2, x) for x in cells]
        first, last = cli._weekly_rows(("2020-01", "2020-02"), counts, [np.zeros(1)] * 3)
        text = ",".join("%.0f" % x for x in cells)
        assert first == f"2020-01,{text},0.0000,0.0000,0.0000\n"
        assert last == f"2020-02,{text},,,\n"


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: counts near zero, half-integer ties, and any finite float up to 1.8e308
_COUNT = st.one_of(st.floats(min_value=-3.0, max_value=3.0), _FINITE,
                   st.integers(-2**60, 2**60).map(lambda n: n / 2))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), weeks=st.integers(min_value=1, max_value=5))
def test_weekly_rows_print_each_cell_as_percent_formats(data, weeks):
    column = st.lists(_COUNT, min_size=weeks, max_size=weeks).map(np.array)
    counts = [data.draw(column) for _ in range(5)]
    rts = [data.draw(st.lists(_FINITE, min_size=weeks - 1, max_size=weeks - 1).map(np.array))
           for _ in range(3)]
    labels = [f"2020-{w + 10}" for w in range(weeks)]
    rows = list(cli._weekly_rows(labels, counts, rts))
    assert len(rows) == weeks
    for w, row in enumerate(rows):
        rt_cells = ["%.4f" % rt[w] for rt in rts] if w < weeks - 1 else ["", "", ""]
        assert row == ",".join([labels[w], *("%.0f" % c[w] for c in counts), *rt_cells]) + "\n"


class TestEstimateErrors:
    @pytest.mark.parametrize("flags, message", [
        (["--param", "a_ct=0.67"], "error: unknown parameter(s): a_ct\n"),
        (["--config", "model.conf"], "error: model.conf:1: unknown parameter 'a_base'\n"),
    ], ids=["param", "config"])
    def test_derived_composite_is_not_a_parameter(self, tmp_path, capsys, monkeypatch,
                                                  flags, message):
        monkeypatch.chdir(tmp_path)
        Path("model.conf").write_text("a_base = 0.35\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "estimate", *flags, "--out", "out")
        assert (code, out, err) == (2, "", message)
        assert not Path("out").exists()

    def test_param_without_equals_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--param", "u_app")
        assert code == 2
        assert "KEY=VALUE" in err

    def test_blank_param_key_exits_2_naming_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--param", " =0")
        assert (code, out, err) == (2, "", "error: --param expects KEY=VALUE, got ' =0'\n")

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code, _, err = run_cli(capsys, "estimate", "--data", str(missing))
        assert code == 2
        assert "nope.csv" in err

    @pytest.mark.parametrize("command", ["estimate", "sweep", "validate"])
    def test_hosp_without_data_exits_2(self, tmp_path, capsys, command):
        extra = {"estimate": ["--out", str(tmp_path / "out")], "sweep": ["--sweep", "u_app=0.1"]}
        code, out, err = run_cli(capsys, command, *extra.get(command, []),
                                 "--hosp", str(tmp_path / "missing.csv"))
        assert code == 2
        assert out == ""
        assert err == "error: --hosp needs --data, the raw weekly counts\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("hosp, missing", [
        (False, "c_total, c_sym, c_pers, c_ct, c_app_minus, c_app_plus"),
        (True, "sym_positives, ct_found, app_with_symptoms, app_without_symptoms, k_app"),
    ], ids=["raw_without_hosp", "presplit_with_hosp"])
    def test_data_file_must_match_hosp(self, tmp_path, capsys, hosp, missing):
        """``--hosp`` alone says that ``--data`` holds raw counts."""
        raw, admissions = write_raw_inputs(tmp_path)
        data = write_presplit(tmp_path / "weekly.csv", [("2020-10", 1000, 300, 40, 60, 5, 10)])
        argv = ("--data", data, "--hosp", admissions) if hosp else ("--data", raw)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "estimate", *argv, "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert err == f"error: {argv[1]}: missing required column(s): {missing}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("line", [" = 5", "u_app ="], ids=["no_key", "no_value"])
    def test_config_line_without_key_or_value_exits_2(self, tmp_path, capsys, monkeypatch,
                                                      line):
        monkeypatch.chdir(tmp_path)
        Path("model.conf").write_text(f"# model\n{line}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "estimate", "--config", "model.conf", "--out", "out")
        assert (code, out) == (2, "")
        assert err == f"error: model.conf:2: expected 'key = value', got {line!r}\n"
        assert not Path("out").exists()

    def test_config_byte_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("model.conf").write_bytes(b"u_app = 0.\xff\n")
        code, out, err = run_cli(capsys, "estimate", "--config", "model.conf", "--out", "out")
        assert (code, out) == (2, "")
        assert err.startswith("error: model.conf: 'utf-8' codec can't decode byte 0xff")
        assert not Path("out").exists()


#: each command that builds the TAF table; ``estimate`` writes to ./out by default
_TABLE_COMMANDS = pytest.mark.parametrize(
    "argv", [("lambda-table",), ("simulate", "--trees", "10"), ("estimate",)],
    ids=["lambda-table", "simulate", "estimate"])


@_TABLE_COMMANDS
@pytest.mark.parametrize("delays, message", [
    (("t_plan=0",), "t_plan must be >= 1, got 0"),
    (("t_sym=13",), "t_sym must be <= 12, got 13"),
    (("t_sym=1", "t_plan=1"), "t_sym + t_plan must be >= 3, got 2"),
    (("t_ct=0",), "t_ct must be >= 1, got 0"),
], ids=["same_day_testing", "late_symptoms", "short_span", "zero_tracing_delay"])
def test_delay_outside_the_taf_domain_exits_2_naming_it(tmp_path, capsys, monkeypatch, argv,
                                                        delays, message):
    monkeypatch.chdir(tmp_path)
    params = [arg for delay in delays for arg in ("--param", delay)]
    assert run_cli(capsys, *argv, *params) == (2, "", f"error: {message}\n")
    assert not Path("out").exists()


@_TABLE_COMMANDS
def test_out_of_range_param_exits_1(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--param", "u_app=1.5")
    assert (code, out, err) == (1, "", "params: u_app must lie in [0, 1], got 1.5\n")
    assert not Path("out").exists()


# --------------------------------------------------------------------------
# lambda-table


class TestLambdaTable:
    def test_blocks_and_reference_deltas(self, capsys):
        code, out, err = run_cli(capsys, "lambda-table")
        assert code == 0
        assert err == ""
        assert "# infectivity profile" in out
        assert "# taf rows (calibration variant: table)" in out
        assert "# per-type constants" in out
        assert "miss,0.8724,0.8700,+0.0024" in out

    def test_constants_block_covers_all_types(self, capsys):
        _, out, _ = run_cli(capsys, "lambda-table")
        tail = out.split("# per-type constants\n", 1)[1].splitlines()
        assert tail[0] == "case_type,taf,reference,delta"
        assert [line.split(",")[0] for line in tail[1:]] == list(CASE_TYPES)

    def test_zero_adherence_keeps_profile_undamped(self, capsys):
        code, out, _ = run_cli(capsys, "lambda-table", "--param", "a_sym=0")
        assert code == 0
        block = out.split("# infectivity profile\n", 1)[1]
        block = block.split("#", 1)[0].strip().splitlines()
        assert block[0] == "day,i_w,i_a,i_c"
        for line in block[1:]:
            _, i_w, i_a, _ = line.split(",")
            assert i_w == i_a


# --------------------------------------------------------------------------
# simulate


class TestSimulate:
    def test_single_case_type_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--case-type", "miss",
            "--trees", "2000", "--seed", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "case_type,trees,empirical_taf,standard_error,analytic_taf,delta")
        assert len(lines) == 2
        kind, trees, empirical, se, analytic, delta = lines[1].split(",")
        assert kind == "miss"
        assert trees == "2000"
        assert abs(float(empirical) - 0.8724) < 0.05
        assert 0.0 < float(se) < 0.05
        assert float(analytic) == pytest.approx(0.8724)
        # delta is rounded from full precision, so allow one-ulp-of-4dp slop
        # against the difference of the already-rounded cells
        assert float(delta) == pytest.approx(
            float(empirical) - float(analytic), abs=1.01e-4)

    def test_all_case_types(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--trees", "1000", "--seed", "3")
        assert code == 0
        lines = out.splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == list(CASE_TYPES)


class TestSimulateThreads:
    """``simulate`` runs its case types on one thread per usable core."""

    @staticmethod
    def cores(monkeypatch, count):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)

    @staticmethod
    def counted(monkeypatch, count):
        """An OS without CPU affinity, whose ``cpu_count`` says ``count``."""
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: count)

    @pytest.mark.parametrize("params", [
        (), ("--param", "u_app=1", "--param", "t_app=3", "--param", "t_ct=5"),
    ], ids=["defaults", "app-heavy"])
    def test_core_count_changes_no_byte(self, capsys, monkeypatch, params):
        runs = []
        for count in (1, 6):
            self.cores(monkeypatch, count)
            runs.append(run_cli(capsys, "simulate", "--trees", "3000", *params))
        assert runs[0][0] == 0
        assert runs[0] == runs[1]

    def test_one_core_starts_no_thread(self, capsys, monkeypatch):
        simulate, threads = cli.oracle.empirical_case_type_taf, set()

        def recorded(*args):
            threads.add(threading.current_thread())
            return simulate(*args)

        monkeypatch.setattr(cli.oracle, "empirical_case_type_taf", recorded)
        self.cores(monkeypatch, 1)
        assert run_cli(capsys, "simulate", "--trees", "200")[0] == 0
        self.counted(monkeypatch, None)  # no affinity and no core count: one core
        assert cli._usable_cores() == 1
        assert run_cli(capsys, "simulate", "--trees", "200")[0] == 0
        assert threads == {threading.main_thread()}
        self.counted(monkeypatch, 3)
        assert cli._usable_cores() == 3

    def test_two_cores_run_two_case_types_at_once(self, capsys, monkeypatch):
        # miss and sym each wait for the other: run one after the other, the
        # barrier breaks and the run ends in a BrokenBarrierError
        simulate, barrier = cli.oracle.empirical_case_type_taf, threading.Barrier(2, timeout=30)

        def meeting(kind, *args):
            if kind in ("miss", "sym"):
                barrier.wait()
            return simulate(kind, *args)

        monkeypatch.setattr(cli.oracle, "empirical_case_type_taf", meeting)
        self.cores(monkeypatch, 2)
        assert run_cli(capsys, "simulate", "--trees", "200")[0] == 0

    @pytest.mark.parametrize("count", [1, 6])
    def test_out_of_memory_in_one_case_type_exits_2(self, capsys, monkeypatch, count):
        simulate = cli.oracle.empirical_case_type_taf

        def app_plus_exhausted(kind, *args):
            if kind == "app_plus":
                raise MemoryError("Unable to allocate 7.45 GiB")
            return simulate(kind, *args)

        monkeypatch.setattr(cli.oracle, "empirical_case_type_taf", app_plus_exhausted)
        self.cores(monkeypatch, count)
        code, out, err = run_cli(capsys, "simulate", "--trees", "3000")
        assert (code, out) == (2, "")
        assert err == "error: --trees 3000: not enough memory to simulate 3000 trees\n"

    def test_first_failing_case_type_in_order_raises(self, capsys, monkeypatch):
        # sym fails while miss still runs; miss comes first, so its error is named
        sym_failed = threading.Event()

        def failing(kind, *args):
            if kind == "miss":
                assert sym_failed.wait(timeout=30)
            elif kind == "sym":
                sym_failed.set()
            raise ValueError(f"{kind} failed")

        monkeypatch.setattr(cli.oracle, "empirical_case_type_taf", failing)
        self.cores(monkeypatch, 6)
        assert run_cli(capsys, "simulate", "--trees", "200") == (2, "", "error: miss failed\n")

    def test_each_case_type_runs_once_under_frequent_switches(self, monkeypatch):
        # six threads on fewer cores, switching every microsecond: a case type
        # taken twice from the shared queue, or a lost result, breaks the run
        calls = []

        def recorded(kind, cfg, p):
            calls.append(kind)
            return kind

        monkeypatch.setattr(cli.oracle, "empirical_case_type_taf", recorded)
        self.cores(monkeypatch, 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                calls.clear()
                assert cli._simulate(CASE_TYPES, None, None) == list(CASE_TYPES)
                assert sorted(calls) == sorted(CASE_TYPES)
        finally:
            sys.setswitchinterval(interval)


# --------------------------------------------------------------------------
# sweep


class TestSweep:
    def test_app_uptake_sweep_is_monotone(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "sweep", "--sweep", "u_app=0.16,0.30",
            "--out", str(out_dir))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("param,value,s_ct_total,s_app_total,")
        assert len(lines) == 3
        app_totals = [float(line.split(",")[3]) for line in lines[1:]]
        assert app_totals[0] < app_totals[1]
        written = (out_dir / "sweep.csv").read_text().splitlines()
        assert written == lines

    def test_unwritable_out_prints_nothing(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("", encoding="utf-8")
        out_dir = tmp_path / "afile" / "sub"
        code, out, err = run_cli(capsys, "sweep", "--sweep", "u_app=0.1", "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(out_dir) in err

    def test_empty_value_list_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--sweep", "u_app=")
        assert code == 2
        assert "empty value list" in err

    def test_missing_equals_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--sweep", "u_app")
        assert code == 2
        assert "KEY=V1,V2" in err

    def test_raw_sweep_rows_match_single_estimates(self, tmp_path, capsys):
        raw, hosp = write_raw_inputs(tmp_path)
        code, out, _ = run_cli(
            capsys, "sweep", "--sweep", "t_ct=2,4",
            "--data", raw, "--hosp", hosp)
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 2
        for row, value in zip(rows, ("2", "4")):
            out_dir = tmp_path / f"t_ct{value}"
            assert run_cli(
                capsys, "estimate", "--param", f"t_ct={value}",
                "--data", raw, "--hosp", hosp, "--out", str(out_dir))[0] == 0
            summary = (out_dir / "summary.csv").read_text().splitlines()
            averted = dict(line.split(",", 1) for line in summary[1:])["averted_cases"]
            assert row.split(",")[2:4] == averted.split(",")

    def test_out_of_range_sweep_value_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--sweep", "u_app=0.1,1.5")
        assert code == 1
        assert "u_app=1.5" in err

    def test_repeated_week_is_reported_once(self, tmp_path, capsys):
        data = write_presplit(tmp_path / "weekly.csv", [
            ("2020-42", 1000, 300, 40, 60, 5, 10),
            ("2020-42", 1100, 320, 44, 66, 6, 11),
        ])
        code, out, err = run_cli(capsys, "sweep", "--sweep", "u_app=0.1,0.2", "--data", data)
        assert (code, out) == (1, "")
        assert err == "series: week 2020-42: repeats 2020-42 (ISO weeks must be consecutive)\n"

    def test_raw_week_gap_exits_1(self, tmp_path, capsys):
        raw, hosp = write_raw_inputs(
            tmp_path, rows=("2020-10,100,50,10,5,0.5", "2020-12,120,60,12,6,0.5"),
            admissions=["1.32"] * 21)
        code, out, err = run_cli(capsys, "sweep", "--sweep", "t_ct=2,4",
                                 "--data", raw, "--hosp", hosp)
        assert (code, out) == (1, "")
        assert err == ("series: week 2020-12: does not follow 2020-10 "
                       "(ISO weeks must be consecutive)\n")

    def test_presplit_series_is_validated_once(self, capsys, monkeypatch):
        calls = []
        validate_series = cases.validate_series

        def counted(series):
            calls.append(len(series))
            return validate_series(series)

        monkeypatch.setattr(cases, "validate_series", counted)
        assert run_cli(capsys, "sweep", "--sweep", "u_app=0.1,0.2,0.3,0.4")[0] == 0
        assert calls == [31]

    def test_raw_files_are_read_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting(name):
            load = getattr(cases, name)

            def counted(path):
                calls.append(name)
                return load(path)
            return counted

        for name in ("load_raw_csv", "load_hospitalizations_csv"):
            monkeypatch.setattr(cases, name, counting(name))
        raw, hosp = write_raw_inputs(tmp_path)
        assert run_cli(capsys, "sweep", "--sweep", "t_ct=2,4",
                       "--data", raw, "--hosp", hosp)[0] == 0
        assert sorted(calls) == ["load_hospitalizations_csv", "load_raw_csv"]

    def test_full_app_reach_keeps_the_calibrated_formula(self, capsys):
        """Manual tracing barely depends on app reach; a switch of the channel-row
        pairing at f_app=1 used to drop its averted cases by 42%."""
        code, out, _ = run_cli(capsys, "sweep", "--sweep", "f_app=0.9,1.0")
        assert code == 0
        s_ct = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
        assert s_ct[1] == pytest.approx(s_ct[0], rel=1e-3)


# --------------------------------------------------------------------------
# validate


class TestValidate:
    def test_bundled_dataset_is_clean(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        assert "params: ok" in out
        assert "series: ok (31 weeks, 2020-42 .. 2021-19)" in out

    def test_param_violation_reported_on_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--param", "u_app=1.5")
        assert code == 1
        assert "params:" in out and "u_app" in out

    def test_raw_stops_after_param_violations(self, tmp_path, capsys):
        # a raw series is built from the parameters, so a bad ihr is not used
        raw, hosp = write_raw_inputs(tmp_path)
        code, out, err = run_cli(capsys, "validate", "--data", raw, "--hosp", hosp,
                                 "--param", "ihr=-0.5")
        assert code == 1
        assert out.startswith("params: ") and "ihr" in out
        assert err == ""

    @pytest.mark.parametrize("case, message", [
        ("raw_overflow", "error: ct counterfactual overflows: week 2020-11 reaches inf"),
        ("zero_total_week", "error: week 2020-11: nonpositive case total 0.0 breaks the "
                            "growth recurrence"),
        ("zero_ct_delay", "error: t_ct must be >= 1, got 0"),
    ], ids=["raw_overflow", "zero_total_week", "zero_ct_delay"])
    def test_rejects_what_estimate_rejects(self, tmp_path, capsys, case, message):
        if case == "raw_overflow":
            # totals of 8.4e307 and 1.68e308, and a ct share that makes the
            # multiplier of week 2020-11 1.095: c · m passes the largest double
            raw, hosp = write_raw_inputs(
                tmp_path, rows=("2020-10,0,5e307,0,0,0.5", "2020-11,0,0,0,0,0.5"))
            argv = ("--data", raw, "--hosp", hosp, "--param", "ihr=1.1e-307")
        elif case == "zero_total_week":
            argv = ("--data", write_presplit(tmp_path / "weekly.csv", [
                ("2020-10", 1000, 300, 40, 60, 5, 10),
                ("2020-11", 0, 0, 0, 0, 0, 0),
                ("2020-12", 1000, 300, 40, 60, 5, 10),
            ]))
        else:
            argv = ("--param", "t_ct=0")
        code, out, err = run_cli(capsys, "validate", *argv)
        assert (code, out, err) == (2, "", message + "\n")
        out_dir = tmp_path / "out"
        assert run_cli(capsys, "estimate", *argv, "--out", str(out_dir)) == (2, "", err)
        assert not out_dir.exists()


# --------------------------------------------------------------------------
# raw-mode pipeline


class TestRawMode:
    @pytest.fixture()
    def raw_inputs(self, tmp_path):
        # admissions cover offsets +5..+11 from both week-start Mondays
        # (2020-03-02 and 2020-03-09): 2020-03-07 .. 2020-03-20
        return write_raw_inputs(tmp_path)

    def test_estimate_from_raw_counts(self, raw_inputs, tmp_path, capsys):
        raw, hosp = raw_inputs
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "estimate", "--data", raw, "--hosp", hosp,
            "--out", str(out_dir))
        assert code == 0
        assert "weeks: 2020-10 .. 2020-11 (2)" in out
        lines = (out_dir / "weekly.csv").read_text().splitlines()
        # weekly totals come from the admissions window divided by the IHR:
        # 7 * 1.32 / 0.0132 = 700 and 7 * 2.64 / 0.0132 = 1400
        assert lines[1].split(",")[1] == "700"
        assert lines[2].split(",")[1] == "1400"

    def test_validate_accepts_raw_inputs(self, raw_inputs, capsys):
        raw, hosp = raw_inputs
        code, out, _ = run_cli(
            capsys, "validate", "--data", raw, "--hosp", hosp)
        assert code == 0
        assert "series: ok (2 weeks, 2020-10 .. 2020-11)" in out


class TestZeroIhr:
    """Raw totals divide admissions by ``ihr``, so ``ihr=0`` is an input error there;
    on presplit data it only zeroes the averted hospitalizations."""

    @pytest.mark.parametrize("command, extra", [
        ("estimate", ()),
        ("sweep", ("--sweep", "u_app=0,0.16")),
        ("validate", ()),
    ])
    def test_raw_exits_2_naming_ihr(self, tmp_path, monkeypatch, capsys, command, extra):
        monkeypatch.chdir(tmp_path)  # estimate writes to ./out by default
        raw, hosp = write_raw_inputs(tmp_path)
        code, _, err = run_cli(capsys, command, "--data", raw, "--hosp", hosp,
                               "--param", "ihr=0", *extra)
        assert code == 2
        assert "ihr" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, extra", [
        ("estimate", ()),
        ("sweep", ("--sweep", "u_app=0,0.16")),
        ("validate", ()),
    ])
    def test_raw_non_finite_total_exits_2_naming_ihr(self, tmp_path, monkeypatch, capsys,
                                                     command, extra):
        monkeypatch.chdir(tmp_path)
        raw, hosp = write_raw_inputs(tmp_path)
        code, out, err = run_cli(capsys, command, "--data", raw, "--hosp", hosp,
                                 "--param", "ihr=5e-324", *extra)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: week 2020-10: estimated total inf is not finite "
            "(admissions divided by ihr = 5e-324)"]
        assert not (tmp_path / "out").exists()

    def test_presplit_zeroes_hospitalizations(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "estimate", "--param", "ihr=0", "--out", str(out_dir))
        assert code == 0
        assert err == ""
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[1] == DEFAULT_SUMMARY[1]
        assert summary[2] == "averted_hospitalizations,0,0"


# --------------------------------------------------------------------------
# unusable input files end in a named error (exit 2), never a report


@pytest.mark.parametrize("command", ["validate", "estimate"])
@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
class TestNonFiniteInput:
    """The CLI's exit path for an input file a loader rejects, for each kind of
    input file; ``test_cases.TestCsvLoaders`` pins each loader's other messages."""

    def assert_named(self, capsys, tmp_path, command, argv, where, message):
        out_dir = tmp_path / "out"
        extra = ("--out", str(out_dir)) if command == "estimate" else ()
        assert run_cli(capsys, command, *argv, *extra) == (2, "", f"error: {where}: {message}\n")
        assert not out_dir.exists()

    def test_presplit(self, capsys, tmp_path, command, text):
        data = write_presplit(tmp_path / "weekly.csv", [
            ("2020-10", 1000, 300, 40, 60, 5, 10),
            ("2020-11", 1100, text, 44, 66, 6, 11),
        ])
        self.assert_named(capsys, tmp_path, command, ("--data", data), f"{data}:3",
                          f"column 'c_sym': not a finite number: '{text}'")

    def test_raw_counts(self, capsys, tmp_path, command, text):
        raw, hosp = write_raw_inputs(
            tmp_path, rows=("2020-10,100,50,10,5,0.5", f"2020-11,120,60,{text},6,0.5"))
        self.assert_named(capsys, tmp_path, command, ("--data", raw, "--hosp", hosp), f"{raw}:3",
                          f"column 'app_with_symptoms': not a finite number: '{text}'")

    def test_raw_admissions(self, capsys, tmp_path, command, text):
        admissions = ["1.32"] * 14
        admissions[4] = text
        raw, hosp = write_raw_inputs(tmp_path, admissions=admissions)
        self.assert_named(capsys, tmp_path, command, ("--data", raw, "--hosp", hosp), f"{hosp}:6",
                          f"column 'admissions': not a finite number: '{text}'")


class TestWeekLabels:
    def test_week_gap_exits_1_naming_the_gap(self, tmp_path, capsys):
        data = write_presplit(tmp_path / "weekly.csv", [
            ("2020-42", 1000, 300, 40, 60, 5, 10),
            ("2020-44", 1100, 320, 44, 66, 6, 11),
        ])
        code, _, err = run_cli(capsys, "estimate", "--data", data, "--out", str(tmp_path / "out"))
        assert code == 1
        assert err == ("series: week 2020-44: does not follow 2020-42 "
                       "(ISO weeks must be consecutive)\n")
        assert not (tmp_path / "out").exists()

    def test_duplicate_week_exits_1(self, tmp_path, capsys):
        data = write_presplit(tmp_path / "weekly.csv", [
            ("2020-42", 1000, 300, 40, 60, 5, 10),
            ("2020-42", 1100, 320, 44, 66, 6, 11),
        ])
        code, out, _ = run_cli(capsys, "validate", "--data", data)
        assert code == 1
        assert "series: week 2020-42: repeats 2020-42 (ISO weeks must be consecutive)" in out


class TestOverflow:
    def test_overflowing_counterfactual_exits_2(self, tmp_path, capsys):
        # totals near the largest double: week 2 of the replay overflows
        data = write_presplit(tmp_path / "weekly.csv", [
            ("2020-42", "1e308", 0, 0, "0.8e308", 0, 0),
            ("2020-43", "1.5e308", 0, 0, "1.2e308", 0, 0),
        ])
        code, out, err = run_cli(capsys, "estimate", "--data", data,
                                 "--out", str(tmp_path / "out"))
        assert code == 2
        assert out == ""
        assert err == "error: ct counterfactual overflows: week 2020-43 reaches inf\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, extra", [
        ("estimate", ["--out", "{out}"]), ("validate", []),
        ("sweep", ["--sweep", "u_app=0.1", "--out", "{out}"]),
    ])
    def test_overflowing_observed_growth_exits_2_naming_the_week(self, tmp_path, capsys,
                                                                 command, extra):
        # the observed growth from 1e-300 to 1e300 is past the largest double
        data = write_presplit(tmp_path / "weekly.csv", [
            ("2020-42", "1e-300", 0, 0, 0, 0, 0),
            ("2020-43", "1e300", 0, 0, 0, 0, 0),
            ("2020-44", "1e300", 0, 0, 0, 0, 0),
        ])
        out_dir = tmp_path / "out"
        argv = [arg.format(out=out_dir) for arg in extra]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, command, "--data", data, *argv)
        assert (code, out) == (2, "")
        assert err == ("error: week 2020-42: case growth to week 2020-43 is not finite "
                       "(1e-300 -> 1e+300)\n")
        assert not out_dir.exists()

    def test_overflow_in_the_recurrence_alone_ends_in_finite_reports(self, tmp_path, capsys):
        # totals of 3.1e307 and 6.2e307: carried · gap overflowed in the week-by-week
        # recurrence, but the multiplier rounds to 1, so c · m is finite
        raw, hosp = write_raw_inputs(tmp_path)
        argv = ("--data", raw, "--hosp", hosp, "--param", "ihr=3e-307")
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(capsys, "validate", *argv)[0] == 0
            code, _, err = run_cli(capsys, "estimate", *argv, "--out", str(out_dir))
        assert (code, err) == (0, "")
        for name in ("weekly.csv", "summary.csv"):
            assert _finite_cells((out_dir / name).read_text(encoding="utf-8")), name


class TestParserReuse:
    """One parser serves every ``main`` call in a process; no call leaves state
    behind for the next."""

    def test_param_overrides_do_not_accumulate(self, tmp_path, capsys):
        # --param appends to its default list, which every call shares
        swept, plain = tmp_path / "swept", tmp_path / "plain"
        assert run_cli(capsys, "estimate", "--param", "u_app=0.9", "--out", str(swept))[0] == 0
        assert (swept / "summary.csv").read_text().splitlines() != DEFAULT_SUMMARY
        assert run_cli(capsys, "estimate", "--out", str(plain))[0] == 0
        assert (plain / "summary.csv").read_text().splitlines() == DEFAULT_SUMMARY

    def test_usage_error_leaves_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate", "--bogus"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        code, out, err = run_cli(capsys, "validate")
        assert (code, err) == (0, "")
        assert "series: ok (31 weeks, 2020-42 .. 2021-19)" in out

    def test_subcommands_dispatch_to_their_own_handlers(self, capsys):
        runs = [("sweep", "--sweep", "u_app=0.16"),
                ("simulate", "--trees", "50", "--case-type", "ct"),
                ("lambda-table",)] * 2
        heads = []
        for argv in runs:
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            heads.append(out.splitlines()[0])
        assert heads[:3] == heads[3:]
        assert heads[0].startswith("param,value,s_ct_total")
        assert heads[1] == "case_type,trees,empirical_taf,standard_error,analytic_taf,delta"
        assert heads[2] == "# infectivity profile"


class TestSimulateTrees:
    @pytest.mark.parametrize("trees", ["1", "0"])
    def test_fewer_than_two_trees_exits_2(self, capsys, trees):
        code, out, err = run_cli(capsys, "simulate", "--trees", trees, "--case-type", "ct")
        assert code == 2
        assert out == ""
        assert f"trees must be at least 2 for a standard error, got {trees}" in err

    @pytest.mark.parametrize("delay", ["t_plan=1000000000000", "t_ct=1000000000000000000000"])
    def test_huge_delay_ends_in_a_report(self, capsys, delay):
        code, out, err = run_cli(capsys, "simulate", "--trees", "50", "--param", delay)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 + len(CASE_TYPES)

    def test_delay_past_the_float_range_runs_as_a_long_one(self, tmp_path, capsys):
        def outputs(days):
            out = tmp_path / "out"
            commands = (("lambda-table",), ("simulate", "--trees", "200"),
                        ("estimate", "--out", str(out)))
            runs = [run_cli(capsys, *argv, "--param", f"t_ct={days}") for argv in commands]
            return runs, [(out / name).read_bytes() for name in ("weekly.csv", "summary.csv")]

        huge = outputs("1" + "0" * 400)
        assert [code for code, _, _ in huge[0]] == [0, 0, 0]
        assert huge == outputs("100000")

    def test_out_of_memory_exits_2_naming_trees(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 7.45 GiB")

        monkeypatch.setattr(cli.oracle, "empirical_case_type_taf", exhausted)
        code, out, err = run_cli(capsys, "simulate", "--trees", "1000000000", "--case-type", "ct")
        assert (code, out) == (2, "")
        assert err == ("error: --trees 1000000000: not enough memory to simulate "
                       "1000000000 trees\n")

    @pytest.mark.parametrize("argv, message", [
        (("--seed", "-1"), "seed must be >= 0, got -1"),
        (("--trees", "99999999999999999999999"),
         f"trees must be at most {np.iinfo(np.intp).max // 8}, got 99999999999999999999999"),
    ], ids=["negative_seed", "trees_past_numpy_size"])
    def test_bad_flag_exits_2_naming_it_before_any_output(self, capsys, argv, message):
        # both are rejected before a tree is drawn, so nothing is allocated
        code, out, err = run_cli(capsys, "simulate", "--case-type", "ct", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


# --------------------------------------------------------------------------
# any presplit file ends in finite reports (exit 0) or a message (exit 1 or 2)

_PRESPLIT_HEADER = "week,c_total,c_sym,c_pers,c_ct,c_app_minus,c_app_plus"
#: consecutive ISO weeks across the 53-week year 2020
_LABELS = ("2020-51", "2020-52", "2020-53", "2021-01", "2021-02", "2021-03", "2021-04")
_ODD_CELLS = ("nan", "inf", "-inf", "", "abc", "-5", "-0.0", "0", "1e308", "5e-324",
              " 7", "1_0", "0x10", "2.5", "1e9")
_ODD_LABELS = ("bogus", "2020-54", "2021-53", "2021-1", "", "2020-52", "2021-04", "2021-W02")


def _table_text(draw, header: str, draw_cells, labels=_LABELS, odd_labels=_ODD_LABELS) -> str:
    """A CSV of ``draw_cells(label)`` rows, one of them perhaps corrupted."""
    rows = draw(st.integers(min_value=0, max_value=len(labels)))
    corruption = draw(st.sampled_from(("none", "cell", "label", "drop", "extra", "blank")))
    corrupted = draw(st.integers(min_value=0, max_value=max(rows - 1, 0)))
    lines = [header]
    for w in range(rows):
        cells = draw_cells(labels[w])
        if w != corrupted:
            pass
        elif corruption == "cell":
            cells[draw(st.integers(1, len(cells) - 1))] = draw(st.sampled_from(_ODD_CELLS))
        elif corruption == "label":
            cells[0] = draw(st.sampled_from(odd_labels))
        elif corruption == "drop":
            del cells[draw(st.integers(0, len(cells) - 1))]
        elif corruption == "extra":
            cells.append("1")
        elif corruption == "blank":
            lines.append("")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@st.composite
def _presplit_text(draw):
    """A presplit CSV of well-formed rows, one of them perhaps corrupted."""
    def cells(label):
        typed = draw(st.lists(st.integers(min_value=0, max_value=5000), min_size=5, max_size=5))
        total = sum(typed) + draw(st.integers(min_value=0, max_value=100_000))
        return [label, str(total), *map(str, typed)]

    return _table_text(draw, _PRESPLIT_HEADER, cells)


@st.composite
def _raw_text(draw):
    """A raw CSV of well-formed rows, one of them perhaps corrupted."""
    def cells(label):
        counts = draw(st.lists(st.integers(min_value=0, max_value=5000), min_size=4, max_size=4))
        return [label, *map(str, counts), str(draw(st.floats(min_value=0.0, max_value=1.0)))]

    return _table_text(draw, RAW_HEADER, cells)


#: consecutive days across the end of February of the leap year 2020
_DATES = tuple((dt.date(2020, 2, 26) + dt.timedelta(days=d)).isoformat() for d in range(7))
_ODD_DATES = ("bogus", "20200227", "2020-02-30", "2021-02-29", "", "2020-02-26", "2020-W09-1")


@st.composite
def _hosp_text(draw):
    """A daily admissions CSV of well-formed rows, one of them perhaps corrupted."""
    def cells(date):
        return [date, str(draw(st.floats(min_value=0.0, max_value=500.0)))]

    return _table_text(draw, "date,admissions", cells, _DATES, _ODD_DATES)


def _finite_cells(text: str) -> bool:
    """Every number in a CSV report (all but the first column) is finite."""
    for line in text.splitlines()[1:]:
        for cell in line.split(",")[1:]:
            if cell and not math.isfinite(float(cell)):
                return False
    return True


@settings(max_examples=200, deadline=None)
@given(text=_presplit_text())
def test_estimate_ends_in_finite_reports_or_a_message(text):
    with tempfile.TemporaryDirectory() as work:
        data = Path(work) / "weekly.csv"
        data.write_text(text, encoding="utf-8")
        out_dir = Path(work) / "out"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["estimate", "--data", str(data), "--out", str(out_dir)])
        if code == 0:
            assert err.getvalue() == ""
            for name in ("weekly.csv", "summary.csv"):
                assert _finite_cells((out_dir / name).read_text(encoding="utf-8")), name
        else:
            assert code in (1, 2)
            prefix = "series: " if code == 1 else "error: "
            lines = err.getvalue().splitlines()
            assert lines and all(line.startswith(prefix) for line in lines)
            assert not out_dir.exists()


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(("estimate", "validate", "sweep")),
       which=st.sampled_from(("raw", "hosp", "both")), seed=st.integers(0, 2**32))
def test_mutated_raw_inputs_end_in_finite_reports_or_a_named_error(command, which, seed):
    # 1-3 bytes of the raw --data file, the --hosp file or both inserted, replaced or deleted
    with tempfile.TemporaryDirectory() as work:
        paths = write_raw_inputs(Path(work))
        for name, path in zip(("raw", "hosp"), paths):
            if which in (name, "both"):
                Path(path).write_bytes(mutated(Path(path).read_bytes(), f"{seed}-{name}"))
        out_dir = Path(work) / "out"
        argv = [command, "--data", paths[0], "--hosp", paths[1]]
        argv += {"estimate": ["--out", str(out_dir)], "sweep": ["--sweep", "t_ct=2,4"]}.get(
            command, [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(argv)  # a traceback fails the test here
        if code == 0:
            assert err.getvalue() == ""
            if command == "estimate":
                for name in ("weekly.csv", "summary.csv"):
                    assert _finite_cells((out_dir / name).read_text(encoding="utf-8")), name
            elif command == "sweep":
                assert _finite_cells(out.getvalue())
        else:
            assert code in (1, 2)
            message = out.getvalue() + err.getvalue()
            assert any(name in message for name in (*paths, "week ")), message


def _loaded(load, path):
    """Labels (or days), shape and value bytes of a file, or its error message."""
    try:
        result = load(path)
    except ValueError as exc:
        return str(exc)
    if isinstance(result, cases.CaseSeries):
        result = result.labels, np.column_stack((result.total, result.counts))
    return tuple(result[0]), result[1].shape, result[1].tobytes()


_TEXTS = {"presplit": (_presplit_text, cases.load_presplit_csv),
          "raw": (_raw_text, cases.load_raw_csv),
          "hosp": (_hosp_text, cases.load_hospitalizations_csv)}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(_TEXTS)))
def test_line_ends_and_quotes_load_the_same(data, kind):
    # CRLF line ends and quoted cells are csv syntax: every copy loads as the plain file
    draw_text, load = _TEXTS[kind]
    text = data.draw(draw_text())
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "table.csv"
        outcomes = []
        for variant in (text, text.replace("\n", "\r\n"), _quoted(text),
                        _quoted(text).replace("\n", "\r\n")):
            path.write_bytes(variant.encode())
            outcomes.append(_loaded(load, path))
        assert outcomes[1:] == outcomes[:1] * 3
        if not isinstance(outcomes[0], str):  # a valid file: columns in any order
            path.write_bytes("\n".join(",".join(line.split(",")[::-1])
                                        for line in text.split("\n")).encode())
            assert _loaded(load, path) == outcomes[0]


# --------------------------------------------------------------------------
# any parameter set that passes validate ends the same way, on either input

_DELAYS = ("t_sym", "t_plan", "t_ct", "t_app", "t_pers")
#: every field but the delays
_FRACTIONS = tuple(f.name for f in dataclasses.fields(ModelParams)
                   if f.name not in _DELAYS)
_FRACTION = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def _valid_overrides(draw):
    """``--param`` overrides whose effective parameters pass ``validate``."""
    overrides = {name: repr(draw(_FRACTION)) for name in _FRACTIONS}
    # a few huge delays, not a continuous range: should the TAF clipping regress,
    # delays near 10**9 would allocate gigabytes instead of failing at once
    delay = st.integers(0, 40) | st.sampled_from([10**12, 10**21, 2**63, 10**30])
    overrides.update((name, str(draw(delay))) for name in _DELAYS)
    assume(validate(apply_overrides(default_params(), overrides)).ok)
    return overrides


@settings(max_examples=60, deadline=None)
@given(overrides=_valid_overrides(), raw=st.booleans())
def test_valid_params_end_in_finite_reports_or_a_message(overrides, raw):
    with tempfile.TemporaryDirectory() as work:
        argv = ["estimate", "--out", str(Path(work) / "out")]
        if raw:
            data, hosp = write_raw_inputs(Path(work))
            argv += ["--data", data, "--hosp", hosp]
        for name, value in overrides.items():
            argv += ["--param", f"{name}={value}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        out_dir = Path(work) / "out"
        if code == 0:
            assert err.getvalue() == ""
            for name in ("weekly.csv", "summary.csv"):
                assert _finite_cells((out_dir / name).read_text(encoding="utf-8")), name
        else:
            assert code in (1, 2)
            prefix = "series: " if code == 1 else "error: "
            lines = err.getvalue().splitlines()
            assert lines and all(line.startswith(prefix) for line in lines)
            assert not out_dir.exists()


# --------------------------------------------------------------------------
# any --param and --sweep argv ends in exit 0, 1 or 2, an estimate that exits 0
# writes finite reports, and a failure names its cause

_FIELDS = tuple(f.name for f in dataclasses.fields(ModelParams))
#: mostly parameter names, so that many runs get past the parsing
_KEY = st.one_of(
    st.sampled_from(_FIELDS), st.sampled_from(_FIELDS), st.sampled_from(_FIELDS),
    st.sampled_from(("a_ct", "a_base", "uapp", "T_CT", "", " ", "-t_ct", " t_ct ", "=")),
    st.text(max_size=6).map("zz{}".format),  # junk: "zz" is in no message of its own
)
#: mostly values in or near a parameter's range
_VALUE = st.one_of(
    st.integers(0, 20).map(str), st.floats(0.0, 1.0).map(repr),
    st.integers(-(10**25), 10**25).map(str), st.floats().map(repr),
    st.sampled_from(("0", "1", "-0", "-1", "0.5", "5.0", "1e400", "-1e400", "1e-400", "nan",
                     "inf", "", " ", "0x10", "1_0", "\u0663", "9" * 5000, "2**63")),
    st.text(max_size=6),
)


@st.composite
def _param_argv(draw):
    """An ``estimate``, ``lambda-table``, ``validate`` or ``sweep`` argv of
    ``--param`` and ``--sweep`` items, perhaps malformed, and its keys as the CLI
    reads them; an ``estimate`` argv has no ``--out``."""
    command = draw(st.sampled_from(("estimate", "lambda-table", "validate", "sweep")))
    argv, keys = [command], []

    def item(values):
        sep = draw(st.sampled_from(("=",) * 6 + ("", "==")))
        text = draw(_KEY) + sep + ",".join(draw(values))
        keys.append(text.partition("=")[0].strip())  # the key as the CLI reads it
        return text

    for _ in range(draw(st.integers(0, 3))):
        argv += ["--param", item(_VALUE.map(lambda value: [value]))]
    if command == "sweep":
        argv += ["--sweep", item(st.lists(_VALUE, min_size=1, max_size=3))]
    argv += draw(st.sampled_from(([],) * 6 + (["--param"], ["--sweep"], ["--bogus"])))
    return argv, keys


@settings(max_examples=150, deadline=None)
@given(case=_param_argv())
def test_param_argv_ends_in_an_exit_code_that_names_its_cause(case):
    argv, keys = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out_dir = Path(work) / "out"
        reports = ["--out", str(out_dir)] if argv[0] == "estimate" else []
        try:
            code = cli.main(argv[:1] + reports + argv[1:])  # a traceback fails the test here
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        if reports:
            assert out_dir.exists() == (code == 0)
            for name in ("weekly.csv", "summary.csv") if code == 0 else ():
                assert _finite_cells((out_dir / name).read_text(encoding="utf-8")), name
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:  # the message, past argparse's usage text, names a key or flag typed
        names = [key for key in keys if key] + [arg for arg in argv if arg.startswith("--")]
        message = out.getvalue() + err.getvalue()
        if message.startswith("usage:"):
            message = message.partition(": error: ")[2]
        assert any(name in message for name in names), message


# --------------------------------------------------------------------------
# any simulate argv ends in exit 0, 1 or 2, and a failure names its cause

#: mostly valid tree counts, and small ones; the invalid ones are all rejected
#: before any allocation, and no count lies between the two, where it would
#: take gigabytes
_TREES = st.one_of(*[st.integers(2, 300).map(str)] * 8, st.sampled_from(
    ("0", "1", "-3", "2.5", "x", str(np.iinfo(np.intp).max // 8 + 1))))
_SEED = st.one_of(*[st.integers(0, 2**64).map(str)] * 4, st.sampled_from(("-1", "1.5", "x")))
_CASE_TYPE = st.sampled_from(CASE_TYPES + ("all", "bogus"))


@st.composite
def _simulate_argv(draw):
    """A ``simulate`` argv of ``--trees``, ``--seed``, ``--case-type`` and
    ``--param`` items, perhaps malformed, and the parameter keys it names;
    ``--trees`` is always given, as its default is 100,000 trees."""
    argv, keys = ["simulate", "--trees", draw(_TREES)], []
    for flag, values in (("--seed", _SEED), ("--case-type", _CASE_TYPE)):
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    for _ in range(draw(st.integers(0, 3))):
        text = f"{draw(_KEY)}={draw(_VALUE)}"
        keys.append(text.partition("=")[0].strip())  # the key as the CLI reads it
        argv += ["--param", text]
    argv += draw(st.sampled_from(([],) * 12 + (["--trees"], ["--seed"], ["--bogus"])))
    return argv, keys


@settings(max_examples=100, deadline=None)
@given(case=_simulate_argv())
def test_simulate_argv_ends_in_finite_rows_or_a_named_error(case):
    argv, keys = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)  # a traceback fails the test here
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
        lines = out.getvalue().splitlines()
        assert lines[0] == "case_type,trees,empirical_taf,standard_error,analytic_taf,delta"
        kind = argv[argv.index("--case-type") + 1] if "--case-type" in argv else "all"
        assert [line.split(",")[0] for line in lines[1:]] == (
            list(CASE_TYPES) if kind == "all" else [kind])
        assert _finite_cells(out.getvalue())
    else:  # the message, past argparse's usage text, names a field or flag typed
        flags = [arg for arg in argv if arg.startswith("--")]
        names = [key for key in keys if key] + flags + [
            flag[2:] for flag in flags if flag in ("--trees", "--seed")]
        message = out.getvalue() + err.getvalue()
        if message.startswith("usage:"):
            message = message.partition(": error: ")[2]
        assert any(name in message for name in names), message
