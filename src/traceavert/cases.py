"""Weekly surveillance ingestion and six-way case typing.

Weekly inputs come in two shapes:

* **raw** records straight from surveillance reporting (self-reported
  positives, manual-tracing totals, app-warned positives with/without
  symptoms), which :func:`derive_case_types` splits into the six exclusive
  model types, estimating weekly infection totals from hospitalizations;
* **pre-split** rows that already carry the six per-type counts, which is the
  shape of the bundled reference dataset (Dutch epidemic, weeks 2020-42
  through 2021-19).

Case types: ``miss`` (never detected, the residual), ``sym`` (self-reported
after symptoms), ``pers`` (personally informed by their index before the
tracing call), ``ct`` (found by a manual-tracing call), ``app_minus`` /
``app_plus`` (app-warned, without / with symptoms at test booking).
"""
from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, Sized

from .params import ModelParams, ValidationReport

__all__ = [
    "WeeklyRawRecord",
    "CaseWeek",
    "CaseSeries",
    "estimate_total_cases",
    "derive_case_types",
    "build_series_from_raw",
    "load_fixture",
    "load_presplit_csv",
    "load_raw_csv",
    "load_hospitalizations_csv",
    "validate_series",
    "week_start_date",
]

#: offsets (inclusive) of the hospitalization window used to estimate weekly
#: infections: admissions lag infection by roughly 5..11 days past week start
_HOSP_WINDOW_OFFSETS = range(5, 12)

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

#: packaged default dataset (pre-split format)
_FIXTURE_RESOURCE = "weekly_cases.csv"


@dataclass(frozen=True)
class WeeklyRawRecord:
    """One week of raw surveillance counts.

    ``k_app`` (fraction of indexes consenting to share their app key) is
    diagnostic metadata only; it never enters any computation.
    """

    week_label: str
    sym_positives: float
    ct_found: float
    app_with_symptoms: float
    app_without_symptoms: float
    k_app: float


@dataclass(frozen=True)
class CaseWeek:
    """Derived per-week case counts, one field per exclusive type.

    Counts are real-valued: they come out of proportional splits and a
    hospitalization-based total estimate, and rounding them before the
    counterfactual recurrence would compound error across weeks.
    """

    week_label: str
    week_index: int
    c_total: float
    c_miss: float
    c_sym: float
    c_pers: float
    c_ct: float
    c_app_minus: float
    c_app_plus: float


@dataclass(frozen=True)
class CaseSeries:
    """An ordered, immutable run of :class:`CaseWeek` rows."""

    weeks: tuple[CaseWeek, ...]

    def __len__(self) -> int:
        return len(self.weeks)

    def __iter__(self) -> Iterator[CaseWeek]:
        return iter(self.weeks)

    def __getitem__(self, index: int) -> CaseWeek:
        return self.weeks[index]

    def column(self, field: str) -> list[float]:
        """One named field across all weeks, in order."""
        return [getattr(week, field) for week in self.weeks]


def week_start_date(week_label: str) -> dt.date:
    """Monday of an ISO ``YYYY-WW`` week label."""
    try:
        year_text, week_text = week_label.split("-", 1)
        return dt.date.fromisocalendar(int(year_text), int(week_text), 1)
    except ValueError:
        raise ValueError(f"invalid ISO week label {week_label!r}") from None


def estimate_total_cases(
    admissions: Mapping[dt.date, float],
    week_start: dt.date,
    p: ModelParams,
) -> float:
    """Estimate total infections of a week from later hospital admissions.

    Sums admissions over the 7 days offset +5..+11 from ``week_start`` and
    divides by the infection hospitalization rate.

    Raises
    ------
    ValueError
        If any day of the window is missing from ``admissions``.
    """
    total = 0.0
    for offset in _HOSP_WINDOW_OFFSETS:
        day = week_start + dt.timedelta(days=offset)
        if day not in admissions:
            raise ValueError(
                f"hospitalization series does not cover {day.isoformat()} "
                f"(needed for week starting {week_start.isoformat()})"
            )
        total += admissions[day]
    return total / p.ihr


def derive_case_types(
    raw: WeeklyRawRecord,
    c_total: float,
    p: ModelParams,
    week_index: int = 0,
) -> CaseWeek:
    """Split raw weekly counts into the six exclusive case types.

    Manual-tracing positives split ``e_ct`` personal / ``1 - e_ct`` traced;
    symptomless app positives are down-corrected to the ``presym_fraction``
    share that is genuinely pre-symptomatic, the rest joining the symptomatic
    app count; the missed count is the residual against ``c_total``.

    Raises
    ------
    ValueError
        If ``c_total`` is smaller than the raw positives, or the residual
        missed count comes out negative.
    """
    reported = (raw.sym_positives + raw.ct_found
                + raw.app_with_symptoms + raw.app_without_symptoms)
    if c_total < reported:
        raise ValueError(
            f"week {raw.week_label}: estimated total {c_total:.1f} is below "
            f"the {reported:.1f} directly reported positives"
        )
    c_pers = p.e_ct * raw.ct_found
    c_ct = (1.0 - p.e_ct) * raw.ct_found
    c_app_minus = p.presym_fraction * raw.app_without_symptoms
    c_app_plus = raw.app_with_symptoms + (1.0 - p.presym_fraction) * raw.app_without_symptoms
    c_sym = raw.sym_positives
    c_miss = c_total - (c_sym + c_pers + c_ct + c_app_minus + c_app_plus)
    if c_miss < -1e-9 * max(1.0, c_total):
        raise ValueError(
            f"week {raw.week_label}: derived missed-case count is negative "
            f"({c_miss:.1f}); inputs are inconsistent with the total estimate"
        )
    c_miss = max(c_miss, 0.0)
    return CaseWeek(
        week_label=raw.week_label,
        week_index=week_index,
        c_total=c_total,
        c_miss=c_miss,
        c_sym=c_sym,
        c_pers=c_pers,
        c_ct=c_ct,
        c_app_minus=c_app_minus,
        c_app_plus=c_app_plus,
    )


def build_series_from_raw(
    records: Sequence[WeeklyRawRecord],
    admissions: Mapping[dt.date, float],
    p: ModelParams,
) -> CaseSeries:
    """Derive a full :class:`CaseSeries` from raw records and admissions."""
    weeks = []
    for index, record in enumerate(records):
        total = estimate_total_cases(admissions, week_start_date(record.week_label), p)
        weeks.append(derive_case_types(record, total, p, week_index=index))
    return CaseSeries(tuple(weeks))


# ----------------------------------------------------------------------------
# CSV ingestion. All formats: header row required, UTF-8, comma separator.


def _open_reader(path: Path, expected: Sequence[str]) -> Iterable[dict[str, str]]:
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [name for name in expected if name not in header]
        if missing:
            raise ValueError(f"{path}: missing required column(s): {', '.join(missing)}")
        unexpected = [name for name in header if name not in expected]
        if unexpected:
            raise ValueError(f"{path}: unexpected column(s): {', '.join(unexpected)}")
        yield from reader


def _parse_number(path: Path, lineno: int, column: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: column {column!r}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: column {column!r}: not a finite number: {text!r}")
    return value


def _require_rows(path: Path, rows: Sized) -> None:
    if not rows:
        raise ValueError(f"{path}: no data rows")


def load_raw_csv(path: str | Path) -> list[WeeklyRawRecord]:
    """Read raw weekly surveillance records."""
    path = Path(path)
    records = []
    for lineno, row in enumerate(_open_reader(path, _RAW_COLUMNS), start=2):
        values = {
            name: _parse_number(path, lineno, name, row[name])
            for name in _RAW_COLUMNS if name != "week"
        }
        records.append(WeeklyRawRecord(week_label=row["week"], **{
            "sym_positives": values["sym_positives"],
            "ct_found": values["ct_found"],
            "app_with_symptoms": values["app_with_symptoms"],
            "app_without_symptoms": values["app_without_symptoms"],
            "k_app": values["k_app"],
        }))
    _require_rows(path, records)
    return records


def load_presplit_csv(path: str | Path) -> CaseSeries:
    """Read an already-split weekly series; the missed count is the residual."""
    path = Path(path)
    weeks = []
    for lineno, row in enumerate(_open_reader(path, _PRESPLIT_COLUMNS), start=2):
        values = {
            name: _parse_number(path, lineno, name, row[name])
            for name in _PRESPLIT_COLUMNS if name != "week"
        }
        parts = (values["c_sym"] + values["c_pers"] + values["c_ct"]
                 + values["c_app_minus"] + values["c_app_plus"])
        c_miss = values["c_total"] - parts
        if c_miss < 0.0:
            raise ValueError(
                f"{path}:{lineno}: typed counts exceed c_total "
                f"(residual missed count {c_miss:.1f})"
            )
        weeks.append(CaseWeek(
            week_label=row["week"],
            week_index=len(weeks),
            c_total=values["c_total"],
            c_miss=c_miss,
            c_sym=values["c_sym"],
            c_pers=values["c_pers"],
            c_ct=values["c_ct"],
            c_app_minus=values["c_app_minus"],
            c_app_plus=values["c_app_plus"],
        ))
    _require_rows(path, weeks)
    return CaseSeries(tuple(weeks))


def load_hospitalizations_csv(path: str | Path) -> dict[dt.date, float]:
    """Read a daily admissions series; dates must be strictly increasing."""
    path = Path(path)
    admissions: dict[dt.date, float] = {}
    previous: dt.date | None = None
    for lineno, row in enumerate(_open_reader(path, _HOSP_COLUMNS), start=2):
        try:
            day = dt.date.fromisoformat(row["date"])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: invalid date {row['date']!r}") from None
        count = _parse_number(path, lineno, "admissions", row["admissions"])
        if count < 0:
            raise ValueError(f"{path}:{lineno}: negative admissions {count}")
        if previous is not None and day <= previous:
            raise ValueError(f"{path}:{lineno}: dates must be strictly increasing")
        previous = day
        admissions[day] = count
    _require_rows(path, admissions)
    return admissions


def load_fixture() -> CaseSeries:
    """Load the bundled pre-split reference dataset (31 weeks)."""
    source = resources.files(__package__).joinpath("data").joinpath(_FIXTURE_RESOURCE)
    with resources.as_file(source) as path:
        return load_presplit_csv(path)


def validate_series(series: CaseSeries) -> ValidationReport:
    """Check partition identity, nonnegativity and contiguous week indices."""
    violations: list[str] = []
    for position, week in enumerate(series):
        if week.week_index != position:
            violations.append(
                f"week {week.week_label}: index {week.week_index} breaks the "
                f"contiguous 0..n-1 numbering (expected {position})"
            )
        parts = (week.c_miss + week.c_sym + week.c_pers + week.c_ct
                 + week.c_app_minus + week.c_app_plus)
        if abs(parts - week.c_total) > _PARTITION_SLACK:
            violations.append(
                f"week {week.week_label}: typed counts sum to {parts:.1f} "
                f"but c_total is {week.c_total:.1f}"
            )
        for field in ("c_total", "c_miss", "c_sym", "c_pers", "c_ct",
                      "c_app_minus", "c_app_plus"):
            if getattr(week, field) < 0:
                violations.append(
                    f"week {week.week_label}: {field} is negative "
                    f"({getattr(week, field):.1f})"
                )
    return ValidationReport(tuple(violations))


def scale_series(series: CaseSeries, factor: float) -> CaseSeries:
    """Multiply every count of every week by ``factor`` (testing/sweep aid)."""
    weeks = tuple(
        replace(
            week,
            c_total=week.c_total * factor,
            c_miss=week.c_miss * factor,
            c_sym=week.c_sym * factor,
            c_pers=week.c_pers * factor,
            c_ct=week.c_ct * factor,
            c_app_minus=week.c_app_minus * factor,
            c_app_plus=week.c_app_plus * factor,
        )
        for week in series
    )
    return CaseSeries(weeks)
