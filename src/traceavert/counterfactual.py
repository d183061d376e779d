"""Counterfactual epidemic reconstruction and averted-outcome accounting.

Removing a tracing channel makes the cases it found behave like their
fallback type: manual-tracing cases (personally informed or called) revert to
missed cases, app-warned cases revert to the manual/missed blend that the
app-uptake share would otherwise provide.  Every such reversion raises the
tertiary attack fraction of those cases, so the counterfactual epidemic grows
faster than the observed one.

The reconstruction walks the observed series week by week.  The counterfactual
case count first grows at the observed week-over-week growth factor (the
epidemic context — seasonality, variants, behaviour — is taken as given), and
the channel's removal then adds the extra onward transmission of the reverted
cases, scaled by the observed per-case transmission volume of that week:

    carried(w+1)  = c_not(w) * g(w),          g(w) = c(w+1) / c(w)
    extra(w+1)    = carried(w+1) * gap(w) / volume(w)
    c_not(w+1)    = carried(w+1) + extra(w+1)

Both weights are linear in the week's per-type counts: ``volume(w) = counts(w)
· λ`` is the TAF-weighted case total and ``gap(w) = counts(w) · Δ``, where the
channel's Δ holds each reverted type's fallback TAF minus its actual TAF.
The growth factors cancel, so the replay is one cumulative product:

    c_not(w) = c(w) · Π_{k<w} (1 + gap(k)/volume(k))

The replay overflows where ``c(w)`` times that product is not finite, or where
the averted totals add up beyond the largest double.  Averted cases are
``c_not - c`` per week; severity outcomes are their total times fixed
infection-to-outcome rates; the Rt effect is the mean weekly gap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .cases import CaseSeries, rt_series
from .params import CASE_TYPES, ModelParams

__all__ = ["CounterfactualResult", "reconstruct", "averted_ct", "averted_app"]


@dataclass(frozen=True, eq=False)
class CounterfactualResult:
    """Full output of one channel-removal reconstruction: weekly float arrays
    (``rt_weekly``, the counterfactual Rt series, is one entry shorter) and the
    averted total ``s_total`` times each infection-to-outcome rate."""

    c_not_weekly: np.ndarray
    s_weekly: np.ndarray
    s_total: float
    hospitalizations: float
    icu_admissions: float
    deaths: float
    rt_reduction_avg: float
    rt_weekly: np.ndarray


def _weighted(counts: np.ndarray, weights: Mapping[str, float]) -> np.ndarray:
    """Per-week sum of weight x count (types not named weigh 0), added left to
    right in ``CASE_TYPES`` order so each week matches the scalar sum bit for bit."""
    return np.cumsum(counts * [weights.get(name, 0.0) for name in CASE_TYPES], axis=1)[:, -1]


def _require_case_types(lambdas: Mapping[str, float], intervention: str) -> None:
    """Raise a ``ValueError`` naming every case type ``lambdas`` lacks."""
    missing = [name for name in CASE_TYPES if name not in lambdas]
    if missing:
        raise ValueError(f"{intervention} counterfactual: lambdas lacks case type(s) "
                         f"{', '.join(missing)}")


def reconstruct(
    series: CaseSeries,
    lambdas: Mapping[str, float],
    delta: Mapping[str, float],
    intervention: str,
    p: ModelParams,
) -> CounterfactualResult:
    """Replay ``series`` without one warning channel.

    ``lambdas`` holds the six per-type TAF constants; ``delta`` maps each
    case type that reverts without the channel to its fallback TAF minus its
    actual TAF (types it does not name do not revert).

    Raises
    ------
    ValueError
        If ``delta`` names a key that is not a case type or ``lambdas`` lacks
        one of the six (the error names the keys), the series is shorter than
        2 weeks, ``series.observed_rt`` raises one of ``rt_series``'s three
        errors (a total that is not positive, an infinite total, a growth that
        is not finite, each naming its week by label), a transmission volume is not positive (NaN included), the
        replay overflows (some week's ``c(w) · Π_{k<w} (1 + gap(k)/volume(k))``
        is not finite; the error names the first such week), ``rt_series``
        raises on the counterfactual series (its error, prefixed with the
        channel: ``ct counterfactual: week ...``), or the averted totals are
        not finite.
    """
    unknown = [name for name in delta if name not in CASE_TYPES]
    if unknown:
        raise ValueError(f"{intervention} counterfactual: delta names unknown case type(s) "
                         f"{', '.join(map(repr, unknown))} (expected {', '.join(CASE_TYPES)})")
    _require_case_types(lambdas, intervention)
    if len(series) < 2:
        raise ValueError("counterfactual reconstruction needs at least 2 weeks")
    c, observed_rt = series.total, series.observed_rt
    counts = series.counts[:-1]
    volume = _weighted(counts, lambdas)
    nonpositive = np.flatnonzero(~(volume > 0.0))
    if nonpositive.size:
        w = nonpositive[0]
        raise ValueError(f"week {series.labels[w]}: nonpositive transmission "
                         f"volume {volume[w]:.1f}")
    gap = _weighted(counts, delta)

    with np.errstate(over="ignore", invalid="ignore"):  # the first non-finite week is named
        c_not = c * np.cumprod(np.concatenate(([1.0], 1.0 + gap / volume)))
    finite = np.isfinite(c_not)
    if not finite.all():
        w = int(finite.argmin())
        raise ValueError(f"{intervention} counterfactual overflows: week "
                         f"{series.labels[w]} reaches {c_not[w]}")
    s_weekly = c_not - c
    # built-in sums over Python floats: numpy's pairwise sums round differently
    s_total = sum(s_weekly.tolist())
    try:
        rt_not = rt_series(c_not, series.labels)
    except ValueError as exc:
        raise ValueError(f"{intervention} counterfactual: {exc}") from None
    rt_reduction_avg = sum((rt_not - observed_rt).tolist()) / rt_not.size
    if not (math.isfinite(s_total) and math.isfinite(rt_reduction_avg)):
        raise ValueError(f"{intervention} counterfactual overflows: its totals are not finite")
    return CounterfactualResult(
        c_not_weekly=c_not,
        s_weekly=s_weekly,
        s_total=s_total,
        hospitalizations=s_total * p.ihr,
        icu_admissions=s_total * p.iir,
        deaths=s_total * p.ifr,
        rt_reduction_avg=rt_reduction_avg,
        rt_weekly=rt_not,
    )


def averted_ct(series: CaseSeries, lambdas: dict[str, float], p: ModelParams) -> CounterfactualResult:
    """Reconstruct the epidemic without manual contact tracing.

    Only cases found by a tracing call revert: without the call they would
    never have learned of their exposure, i.e. they become missed cases.
    (Personally-informed cases are warned by their index, not by the call.)
    ``reconstruct``'s errors apply.
    """
    _require_case_types(lambdas, "ct")
    return reconstruct(series, lambdas, {"ct": lambdas["miss"] - lambdas["ct"]}, "ct", p)


def averted_app(series: CaseSeries, lambdas: dict[str, float], p: ModelParams) -> CounterfactualResult:
    """Reconstruct the epidemic without the exposure-notification app.

    App-warned cases fall back on what manual tracing would have done for
    them: a share ``e_app`` would have been missed entirely, the rest found
    by a tracing call. ``reconstruct``'s errors apply.
    """
    _require_case_types(lambdas, "app")
    fallback = p.e_app * lambdas["miss"] + (1.0 - p.e_app) * lambdas["ct"]
    delta = {name: fallback - lambdas[name] for name in ("app_minus", "app_plus")}
    return reconstruct(series, lambdas, delta, "app", p)
