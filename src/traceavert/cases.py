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
:data:`~traceavert.params.CASE_TYPES`: ``miss`` (never detected, the residual),
``sym`` (self-reported after symptoms), ``pers`` (personally informed by
their index before the tracing call), ``ct`` (found by a manual-tracing
call), ``app_minus`` / ``app_plus`` (app-warned, without / with symptoms at
test booking).
"""
from __future__ import annotations

import csv
import datetime as dt
import functools
import io
import math
import operator
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .params import CASE_TYPES, ModelParams, ValidationReport, _read

__all__ = [
    "CaseSeries",
    "build_series_from_raw",
    "load_fixture",
    "load_presplit_csv",
    "load_raw_csv",
    "load_hospitalizations_csv",
    "rt_series",
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
#: the one admission date form; date.fromisoformat reads more from Python 3.11 on
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
#: how a load error words a bad week label
_WEEK_LABEL = "ISO week label {!r} (expected YYYY-WW)"
#: names of the total and the six count columns, as violations print them
_COUNT_NAMES = ("c_total",) + tuple(f"c_{name}" for name in CASE_TYPES)

#: packaged default dataset (pre-split format)
_FIXTURE_RESOURCE = "weekly_cases.csv"

#: weekly growth is rescaled to a 4-day generation interval to give Rt
_RT_EXPONENT = 4.0 / 7.0


@dataclass(frozen=True, eq=False)
class CaseSeries:
    """A weekly series: ISO week labels, weekly totals and per-type counts.

    ``total`` has one entry per week; ``counts`` is a (weeks x 6) array whose
    columns follow :data:`~traceavert.params.CASE_TYPES`.  Both are converted to
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

    @functools.cached_property
    def observed_rt(self) -> np.ndarray:
        """The observed weekly Rt, ``rt_series(total, labels)``, computed on first
        use and kept for both reconstructions and the weekly report."""
        return rt_series(self.total, self.labels)


def rt_series(totals, labels: Sequence[str]) -> np.ndarray:
    """Weekly reproduction numbers from consecutive case totals.

    The weekly growth factor is rescaled to the generation interval:
    ``rt(w) = (c(w+1) / c(w)) ** (4/7)``, one entry fewer than the input.
    An object array applies Python's float ``**`` to each ratio; ``np.power``
    can differ from it in the last digit.

    Raises
    ------
    ValueError
        Naming by its label in ``labels`` the first week whose total is not
        positive (NaN included), else the first whose total is infinite, else
        the first whose growth to the next week is not finite.
    """
    c = np.asarray(totals, dtype=float)
    positive = c > 0.0
    if not positive.all():
        w = int(positive.argmin())
        raise ValueError(f"week {labels[w]}: nonpositive case total "
                         f"{c[w]:.1f} breaks the growth recurrence")
    infinite = np.isinf(c)
    if infinite.any():
        w = int(infinite.argmax())
        raise ValueError(f"week {labels[w]}: case total {c[w]} is not finite")
    with np.errstate(over="ignore"):  # named below
        growth = c[1:] / c[:-1]
    finite = np.isfinite(growth)
    if not finite.all():
        w = int(finite.argmin())
        raise ValueError(f"week {labels[w]}: case growth to week {labels[w + 1]} "
                         f"is not finite ({float(c[w])!r} -> {float(c[w + 1])!r})")
    return (growth.astype(object) ** _RT_EXPONENT).astype(float)


def _week_mondays(labels: Sequence[str]) -> np.ndarray:
    """Ordinal of the Monday of each ``YYYY-WW`` label (four-digit year, two-digit
    ISO week of that year), or -1 where a label is not one."""
    # numpy keeps the first 7 characters of a label, less trailing NULs
    codes = np.array(labels, dtype="U7").view(np.uint32).reshape(-1, 7).astype(np.int64)
    digits = codes - ord("0")
    numeric = digits[:, [0, 1, 2, 3, 5, 6]]
    year = digits[:, :4] @ np.array([1000, 100, 10, 1])
    week = digits[:, 5] * 10 + digits[:, 6]
    first = _iso_week_one(year)
    valid = ((codes[:, 4] == ord("-")) & ((numeric >= 0) & (numeric <= 9)).all(axis=1)
             & (year >= 1) & (week >= 1) & (7 * week <= _iso_week_one(year + 1) - first))
    # a valid label has 7 characters or more, so 7 on average means 7 each
    if not (valid.all() and sum(map(len, labels)) == 7 * len(labels)):
        valid &= np.fromiter(map(len, map(str, labels)), np.int64, len(labels)) == 7
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
    admissions on days +5..+11 from its Monday, divided by ``ihr``; the
    admission days must be strictly increasing.
    Manual-tracing positives split ``e_ct`` personal / ``1 - e_ct`` traced;
    symptomless app positives are down-corrected to the ``presym_fraction``
    share that is genuinely pre-symptomatic, the rest joining the symptomatic
    app count; the missed count is the residual against the total.  A
    ``ValueError`` names a non-positive ``ihr``, or the first invalid label,
    admission day not after the day before it, missing window day, or week whose
    total is not finite or is below its reported positives.
    """
    labels, counts = tuple(raw[0]), np.asarray(raw[1], dtype=float)
    days, values = np.asarray(admissions[0]), np.asarray(admissions[1], dtype=float)
    mondays = _week_mondays(labels)
    if (mondays < 0).any():
        raise ValueError(f"invalid ISO week label {labels[np.argmax(mondays < 0)]!r}")
    if p.ihr <= 0.0:
        raise ValueError(f"ihr must be > 0 to estimate cases from admissions, got {p.ihr!r}")
    late = np.diff(days) <= 0
    if late.any():
        day = days[1 + int(np.argmax(late))]
        shown = (dt.date.fromordinal(int(day)).isoformat()
                 if 0 < day <= dt.date.max.toordinal() else day)
        raise ValueError(f"admission day {shown} is not after the day before it "
                         f"(days must be strictly increasing)")
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
# CSV ingestion. All formats: header row required, UTF-8 (``params._read`` drops
# a leading byte-order mark), comma separator. Blank lines are skipped; errors
# name the file line a row starts on. The csv module reads each file once, and
# ``_load_table`` checks every file whole, searching a rejected one for its first
# error in one order. ``build_series_from_raw`` requires strictly increasing days.


def _rows(
    path: Path, text: str, expected: Sequence[str],
) -> tuple[list[int], list[str], ValueError | None]:
    """The data rows of ``text`` up to its first bad row: the line each starts on,
    their fields in ``expected`` order run together, and the error of that row or
    ``None``.  A bad header is raised at once."""
    reader = csv.reader(io.StringIO(text, newline=""))
    lines: list[int] = []
    cells: list[str] = []
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
        width, end = len(header), reader.line_num
        for row in reader:
            # a quoted field can span lines: name the line the row starts on
            lineno, end = end + 1, reader.line_num
            if len(row) == width:
                lines.append(lineno)
                cells += row if pick is None else pick(row)
            elif row:  # not a blank line
                return lines, cells, ValueError(f"{path}:{lineno}: expected {width} fields, "
                                                f"got {len(row)}")
    except csv.Error as exc:
        return lines, cells, ValueError(f"{path}:{reader.line_num}: {exc}")
    return lines, cells, None


def _parse_number(path: Path, lineno: int, column: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: column {column!r}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: column {column!r}: not a finite number: {text!r}")
    return value


def _number_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _date(text: str) -> int:
    """Day ordinal of a ``YYYY-MM-DD`` date, or -1 where ``text`` is not one."""
    try:
        return dt.date.fromisoformat(text).toordinal() if _ISO_DATE.fullmatch(text) else -1
    except ValueError:  # no such day, such as 2021-02-30
        return -1


def _load_table(
    path: Path, columns: Sequence[str], day_of: Callable[[list[str]], np.ndarray],
    label: str, rejects: Callable[[np.ndarray, np.ndarray], np.ndarray],
    reason: Callable[[list[str], np.ndarray], str],
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Labels, day ordinals and the float (rows x numbers) array of a file whose
    first column is a label (a week or a date) and the rest numbers.

    Read once (``_rows``), the file is accepted if ``day_of`` gives no label -1,
    every number is finite and ``rejects(values, days)`` flags no row. Otherwise
    the first error in file order is raised: in a row the label (worded by
    ``label``), the numbers left to right, then the rule (worded by ``reason``);
    a reader error after the rows read before it; "no data rows" last.
    """
    lines, cells, error = _rows(path, _read(path), columns)
    if not lines:
        raise error or ValueError(f"{path}: no data rows")
    labels = cells[::len(columns)]
    del cells[::len(columns)]
    days = day_of(labels)
    try:
        values = np.array(cells, dtype=float)  # numpy reads a str cell with float()
    except ValueError:  # NaN flags each cell that float() does not read
        values = np.array([_number_or_nan(cell) for cell in cells])
    values = values.reshape(len(lines), -1)
    with np.errstate(invalid="ignore", over="ignore"):  # at non-finite or huge numbers
        if (error is None and (days >= 0).all() and np.isfinite(values).all()
                and not rejects(values, days).any()):
            return tuple(labels), days, values
        flagged = (days < 0) | ~np.isfinite(values).all(axis=1) | rejects(values, days)
        if not flagged.any():
            raise error
        w = int(flagged.argmax())
        lineno, width = lines[w], values.shape[1]
        row = [labels[w], *cells[w * width:(w + 1) * width]]
        if days[w] < 0:
            raise ValueError(f"{path}:{lineno}: invalid {label.format(row[0])}")
        for name, cell in zip(columns[1:], row[1:]):
            _parse_number(path, lineno, name, cell)
        raise ValueError(f"{path}:{lineno}: {reason(row, values[w])}")


def _residual(values: np.ndarray) -> np.ndarray:
    """Presplit missed counts: ``c_total`` less the typed counts, added left to right."""
    return values[:, 0] - np.cumsum(values[:, 1:], axis=1)[:, -1]


def load_raw_csv(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read raw weekly counts as week labels and a float (weeks x 5) array in
    file column order.  The four counts must be nonnegative; ``k_app``, the
    app-key consent rate, is metadata only and enters no computation."""

    def reason(row: list[str], values: np.ndarray) -> str:
        column = 1 + int(np.argmax(values[:4] < 0))
        return f"column {_RAW_COLUMNS[column]!r}: negative count: {row[column]!r}"

    labels, _, values = _load_table(Path(path), _RAW_COLUMNS, _week_mondays, _WEEK_LABEL,
                                    lambda values, days: (values[:, :4] < 0).any(axis=1), reason)
    return labels, values


def load_presplit_csv(path: str | Path) -> CaseSeries:
    """Read an already-split weekly series; the missed count is the residual.

    The first row with an invalid label, a non-finite number or typed counts
    above ``c_total`` is reported with its line, column and text.
    """
    labels, _, values = _load_table(
        Path(path), _PRESPLIT_COLUMNS, _week_mondays, _WEEK_LABEL,
        lambda values, days: _residual(values) < 0.0,
        lambda row, values: (f"typed counts exceed c_total "
                             f"(residual missed count {_residual(values[None])[0]:.1f})"))
    return CaseSeries(labels, values[:, 0], np.column_stack((_residual(values), values[:, 1:])))


def load_hospitalizations_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read daily admissions as strictly increasing day ordinals (gaps allowed)
    and a float array of nonnegative counts."""
    _, days, values = _load_table(
        Path(path), _HOSP_COLUMNS,
        lambda texts: np.fromiter(map(_date, texts), np.int64, len(texts)), "date {!r}",
        lambda values, days: (values[:, 0] < 0) | (np.diff(days, prepend=days[:1] - 1) <= 0),
        lambda row, values: (f"negative admissions {float(values[0])}" if values[0] < 0
                             else "dates must be strictly increasing"))
    return days, values[:, 0]


def load_fixture() -> CaseSeries:
    """Load the bundled pre-split reference dataset (31 weeks)."""
    source = resources.files(__package__).joinpath("data").joinpath(_FIXTURE_RESOURCE)
    with resources.as_file(source) as path:
        return load_presplit_csv(path)


def validate_series(series: CaseSeries) -> ValidationReport:
    """Check labels, consecutive ISO weeks, the partition and finite, nonnegative values."""
    labels = series.labels
    mondays = _week_mondays(labels)
    step = np.diff(mondays, prepend=mondays[:1] - 7)
    values = np.column_stack((series.total, series.counts))
    bad = ~np.isfinite(values) | (values < 0)
    with np.errstate(invalid="ignore"):  # inf - inf: the infinite value is named below
        parts = np.cumsum(series.counts, axis=1)[:, -1]
        broken = np.abs(parts - series.total) > _PARTITION_SLACK
    flagged = (mondays < 0) | (step != 7) | broken | bad.any(axis=1)
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
        for name, value, flag in zip(_COUNT_NAMES, values[w], bad[w]):
            if flag:
                problem = "is negative" if np.isfinite(value) else "is not finite"
                violations.append(f"week {label}: {name} {problem} ({value:.1f})")
    return ValidationReport(tuple(violations))
