"""Weekly surveillance ingestion and six-way case typing.

Weekly inputs come in two shapes:

* **raw** records straight from surveillance reporting (self-reported
  positives, manual-tracing totals, app-warned positives with/without
  symptoms), which :func:`build_series_from_raw` splits into the six
  exclusive model types, estimating weekly infection totals from
  hospitalizations;
* **pre-split** rows that already carry the six per-type counts, which is the
  shape of the bundled reference dataset (Dutch epidemic, weeks 2020-42
  through 2021-19).

Either way the result is a :class:`CaseSeries`: the week labels, a vector of
weekly totals and a (weeks x 6) count matrix whose columns follow
:data:`~traceavert.taf.CASE_TYPES`: ``miss`` (never detected, the residual),
``sym`` (self-reported after symptoms), ``pers`` (personally informed by
their index before the tracing call), ``ct`` (found by a manual-tracing
call), ``app_minus`` / ``app_plus`` (app-warned, without / with symptoms at
test booking).
"""
from __future__ import annotations

import csv
import datetime as dt
import io
import math
import operator
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterator, NoReturn, Sequence, Sized

import numpy as np

from .params import ModelParams, ValidationReport
from .taf import CASE_TYPES

__all__ = [
    "CaseSeries",
    "build_series_from_raw",
    "load_fixture",
    "load_presplit_csv",
    "load_raw_csv",
    "load_hospitalizations_csv",
    "validate_series",
]

#: offsets (inclusive) of the hospitalization window used to estimate weekly
#: infections: admissions lag infection by roughly 5..11 days past week start
_HOSP_WINDOW_OFFSETS = np.arange(5, 12)

#: allowed slack, in counts, of the per-week partition identity
_PARTITION_SLACK = 2.0

_RAW_COLUMNS = (
    "week", "sym_positives", "ct_found",
    "app_with_symptoms", "app_without_symptoms", "k_app",
)
_PRESPLIT_COLUMNS = (
    "week", "c_total", "c_sym", "c_pers", "c_ct", "c_app_minus", "c_app_plus",
)
_HOSP_COLUMNS = ("date", "admissions")
#: names of the total and the six count columns, as violations print them
_COUNT_NAMES = ("c_total",) + tuple(f"c_{name}" for name in CASE_TYPES)

#: packaged default dataset (pre-split format)
_FIXTURE_RESOURCE = "weekly_cases.csv"


@dataclass(frozen=True, eq=False)
class CaseSeries:
    """A weekly series: ISO week labels, weekly totals and per-type counts.

    ``total`` has one entry per week; ``counts`` is a (weeks x 6) array whose
    columns follow :data:`~traceavert.taf.CASE_TYPES`.  Both are converted to
    float arrays.  Counts are real-valued: they come out of proportional
    splits and a hospitalization-based total estimate, and rounding them
    before the counterfactual recurrence would compound error across weeks.
    """

    labels: tuple[str, ...]
    total: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "total", np.asarray(self.total, dtype=float))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=float))
        weeks = len(self.labels)
        if self.total.shape != (weeks,) or self.counts.shape != (weeks, len(CASE_TYPES)):
            raise ValueError(f"{weeks} week labels need {weeks} totals and a {weeks} x 6 count "
                             f"array, got shapes {self.total.shape} and {self.counts.shape}")

    def __len__(self) -> int:
        return len(self.labels)


def _week_mondays(labels: Sequence[str]) -> np.ndarray:
    """Ordinal of the Monday of each ``YYYY-WW`` label (four-digit year, two-digit
    ISO week of that year), or -1 where a label is not one."""
    # Labels longer than 7 characters keep an 8th one and fail the check.
    codes = np.array(labels, dtype="U8").view(np.uint32).reshape(-1, 8).astype(np.int64)
    digits = codes - ord("0")
    numeric = digits[:, [0, 1, 2, 3, 5, 6]]
    year = digits[:, :4] @ np.array([1000, 100, 10, 1])
    week = digits[:, 5] * 10 + digits[:, 6]
    first = _iso_week_one(year)
    valid = ((codes[:, 4] == ord("-")) & (codes[:, 7] == 0)
             & ((numeric >= 0) & (numeric <= 9)).all(axis=1) & (year >= 1)
             & (week >= 1) & (7 * week <= _iso_week_one(year + 1) - first))
    return np.where(valid, first + 7 * (week - 1), -1)


def _iso_week_one(year: np.ndarray) -> np.ndarray:
    """Ordinal of the Monday of ISO week 1, the Monday on or before 4 January."""
    y = year - 1
    jan4 = 365 * y + y // 4 - y // 100 + y // 400 + 4
    return jan4 - (jan4 + 6) % 7


def build_series_from_raw(
    raw: tuple[Sequence[str], np.ndarray],
    admissions: tuple[np.ndarray, np.ndarray],
    p: ModelParams,
) -> CaseSeries:
    """Split raw weekly counts into the six exclusive case types.

    ``raw`` and ``admissions`` are as :func:`load_raw_csv` and
    :func:`load_hospitalizations_csv` return them.  A week's total is its
    admissions on days +5..+11 from its Monday, divided by ``ihr``.
    Manual-tracing positives split ``e_ct`` personal / ``1 - e_ct`` traced;
    symptomless app positives are down-corrected to the ``presym_fraction``
    share that is genuinely pre-symptomatic, the rest joining the symptomatic
    app count; the missed count is the residual against the total.  A
    ``ValueError`` names a non-positive ``ihr``, or the first invalid label,
    missing window day, or week whose total is not finite or is below its
    reported positives.
    """
    labels, counts = tuple(raw[0]), np.asarray(raw[1], dtype=float)
    days, values = np.asarray(admissions[0]), np.asarray(admissions[1], dtype=float)
    mondays = _week_mondays(labels)
    if (mondays < 0).any():
        raise ValueError(f"invalid ISO week label {labels[np.argmax(mondays < 0)]!r}")
    if p.ihr <= 0.0:
        raise ValueError(f"ihr must be > 0 to estimate cases from admissions, got {p.ihr!r}")
    window = mondays[:, None] + _HOSP_WINDOW_OFFSETS
    uncovered = ~np.isin(window, days)
    if uncovered.any():
        week, offset = divmod(int(np.argmax(uncovered)), window.shape[1])
        start, day = (dt.date.fromordinal(int(d)) for d in (mondays[week], window[week, offset]))
        raise ValueError(f"hospitalization series does not cover {day.isoformat()} "
                         f"(needed for week starting {start.isoformat()})")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite total is named below
        # left to right, and from +0.0 so that an all-zero window never gives -0.0
        total = (0.0 + np.cumsum(values[np.searchsorted(days, window)], axis=1)[:, -1]) / p.ihr
        reported = np.cumsum(counts[:, :4], axis=1)[:, -1]
        bad = ~np.isfinite(total) | (total < reported)
        sym, ct_found, app_sym, app_nosym = counts[:, :4].T
        typed = np.column_stack((sym, p.e_ct * ct_found, (1.0 - p.e_ct) * ct_found,
                                 p.presym_fraction * app_nosym,
                                 app_sym + (1.0 - p.presym_fraction) * app_nosym))
        c_miss = total - np.cumsum(typed, axis=1)[:, -1]
    if bad.any():
        week = int(np.argmax(bad))
        problem = (f"is below the {reported[week]:.1f} directly reported positives"
                   if np.isfinite(total[week]) else
                   f"is not finite (admissions divided by ihr = {p.ihr!r})")
        raise ValueError(f"week {labels[week]}: estimated total {total[week]:.1f} {problem}")
    # the clamp absorbs the rounding by which pers + ct or the two app counts
    # can exceed their raw sums
    return CaseSeries(labels, total, np.column_stack((np.maximum(c_miss, 0.0), typed)))


# ----------------------------------------------------------------------------
# CSV ingestion. All formats: header row required, UTF-8, comma separator.
# Blank lines are skipped; errors name the file line a row starts on.


def _read(path: Path) -> str:
    """The whole file; read once, so a pipe can be parsed twice."""
    try:
        with path.open("r", encoding="utf-8", newline="") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _rows(path: Path, text: str, expected: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Data rows of ``text`` as ``(line, fields)``, the fields in ``expected`` order."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, [])
        missing = [name for name in expected if name not in header]
        if missing:
            raise ValueError(f"{path}: missing required column(s): {', '.join(missing)}")
        unexpected = [name for name in header if name not in expected]
        if unexpected:
            raise ValueError(f"{path}: unexpected column(s): {', '.join(unexpected)}")
        if len(header) != len(expected):
            raise ValueError(f"{path}: repeated column(s) in header: {', '.join(header)}")
        order = [header.index(name) for name in expected]
        pick = None if order == list(range(len(expected))) else operator.itemgetter(*order)
        end = reader.line_num
        for row in reader:
            # a quoted field can span lines: name the line the row starts on
            lineno, end = end + 1, reader.line_num
            if len(row) != len(header):
                if not row:
                    continue
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            yield lineno, row if pick is None else list(pick(row))
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def _parse_number(path: Path, lineno: int, column: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: column {column!r}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: column {column!r}: not a finite number: {text!r}")
    return value


def _parse_row(path: Path, lineno: int, row: list[str], columns: Sequence[str]) -> list[float]:
    """The numbers of a row that starts with a week label, checked left to right."""
    if _week_mondays(row[:1])[0] < 0:
        raise ValueError(f"{path}:{lineno}: invalid ISO week label {row[0]!r} (expected YYYY-WW)")
    return [_parse_number(path, lineno, name, text) for name, text in zip(columns[1:], row[1:])]


def _require_rows(path: Path, rows: Sized) -> None:
    if not rows:
        raise ValueError(f"{path}: no data rows")


def load_raw_csv(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read raw weekly counts as week labels and a float (weeks x 5) array in
    file column order.  The four counts must be nonnegative; ``k_app``, the
    app-key consent rate, is metadata only and enters no computation."""
    path = Path(path)
    labels: list[str] = []
    rows: list[list[float]] = []
    for lineno, row in _rows(path, _read(path), _RAW_COLUMNS):
        values = _parse_row(path, lineno, row, _RAW_COLUMNS)
        for name, text, value in zip(_RAW_COLUMNS[1:5], row[1:5], values):  # not k_app
            if value < 0:
                raise ValueError(f"{path}:{lineno}: column {name!r}: negative count: {text!r}")
        labels.append(row[0])
        rows.append(values)
    _require_rows(path, rows)
    return tuple(labels), np.array(rows, dtype=float)


def load_presplit_csv(path: str | Path) -> CaseSeries:
    """Read an already-split weekly series; the missed count is the residual.

    The first row with an invalid label, a non-finite number or typed counts
    above ``c_total`` is reported with its line, column and text.
    """
    path = Path(path)
    text = _read(path)
    labels: list[str] = []
    cells: list[str] = []
    try:
        for _, row in _rows(path, text, _PRESPLIT_COLUMNS):
            labels.append(row[0])
            cells += row[1:]
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        _presplit_error(path, text)
    _require_rows(path, labels)
    values = values.reshape(-1, len(_PRESPLIT_COLUMNS) - 1)
    total, typed = values[:, 0], values[:, 1:]
    c_miss = total - np.cumsum(typed, axis=1)[:, -1]  # left to right, as the row check adds
    if not (np.isfinite(values).all() and (c_miss >= 0.0).all()
            and (_week_mondays(labels) >= 0).all()):
        _presplit_error(path, text)
    return CaseSeries(tuple(labels), total, np.column_stack((c_miss, typed)))


def _presplit_error(path: Path, text: str) -> NoReturn:
    """Parse a rejected presplit file again row by row and raise its first error."""
    for lineno, row in _rows(path, text, _PRESPLIT_COLUMNS):
        values = _parse_row(path, lineno, row, _PRESPLIT_COLUMNS)
        c_miss = values[0] - (values[1] + values[2] + values[3] + values[4] + values[5])
        if c_miss < 0.0:
            raise ValueError(f"{path}:{lineno}: typed counts exceed c_total "
                             f"(residual missed count {c_miss:.1f})")
    raise AssertionError(f"{path}: rejected, but every row parses")


def load_hospitalizations_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read daily admissions as strictly increasing day ordinals (gaps allowed)
    and a float array of nonnegative counts."""
    path = Path(path)
    days: list[int] = []
    admissions: list[float] = []
    previous: dt.date | None = None
    for lineno, (date_text, count_text) in _rows(path, _read(path), _HOSP_COLUMNS):
        try:
            day = dt.date.fromisoformat(date_text)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: invalid date {date_text!r}") from None
        count = _parse_number(path, lineno, "admissions", count_text)
        if count < 0:
            raise ValueError(f"{path}:{lineno}: negative admissions {count}")
        if previous is not None and day <= previous:
            raise ValueError(f"{path}:{lineno}: dates must be strictly increasing")
        previous = day
        days.append(day.toordinal())
        admissions.append(count)
    _require_rows(path, days)
    return np.array(days, dtype=np.int64), np.array(admissions, dtype=float)


def load_fixture() -> CaseSeries:
    """Load the bundled pre-split reference dataset (31 weeks)."""
    source = resources.files(__package__).joinpath("data").joinpath(_FIXTURE_RESOURCE)
    with resources.as_file(source) as path:
        return load_presplit_csv(path)


def validate_series(series: CaseSeries) -> ValidationReport:
    """Check labels, consecutive ISO weeks, the partition and nonnegativity."""
    labels = series.labels
    mondays = _week_mondays(labels)
    step = np.diff(mondays, prepend=mondays[:1] - 7)
    parts = np.cumsum(series.counts, axis=1)[:, -1]
    negative = np.column_stack((series.total, series.counts)) < 0
    broken = np.abs(parts - series.total) > _PARTITION_SLACK
    flagged = (mondays < 0) | (step != 7) | broken | negative.any(axis=1)
    violations: list[str] = []
    for w in np.flatnonzero(flagged).tolist():
        label = labels[w]
        if mondays[w] < 0:
            violations.append(f"week {label!r}: not an ISO YYYY-WW week label")
        elif w and mondays[w - 1] >= 0 and step[w] != 7:
            follow = "repeats" if step[w] == 0 else "does not follow"
            violations.append(f"week {label}: {follow} {labels[w - 1]} "
                              f"(ISO weeks must be consecutive)")
        if broken[w]:
            violations.append(f"week {label}: typed counts sum to {parts[w]:.1f} "
                              f"but c_total is {series.total[w]:.1f}")
        for name, value, bad in zip(_COUNT_NAMES, (series.total[w], *series.counts[w]),
                                    negative[w]):
            if bad:
                violations.append(f"week {label}: {name} is negative ({value:.1f})")
    return ValidationReport(tuple(violations))


def scale_series(series: CaseSeries, factor: float) -> CaseSeries:
    """Multiply every count of every week by ``factor`` (testing/sweep aid)."""
    return CaseSeries(series.labels, series.total * factor, series.counts * factor)
