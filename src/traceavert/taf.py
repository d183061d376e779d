"""The tertiary attack fraction (TAF) calculus.

A warning that reaches an index case's contacts early prevents those contacts
from passing the infection on. The TAF of a scenario is the fraction of all
*possible* third-generation infections that is still realized: 1 means nobody
ever quarantines, 0 means tertiary spread is fully suppressed.

The calculus is a little linear algebra over day-indexed arrays (entry ``d``
is day ``d``) of the 14-day profile, held by ``_Days``:

``pair``
    the convolution of ``i_w`` with ``icx``, which is ``i_c`` under the
    model's boundary rules (0 on days <= 0, ``i_c_inf`` from day 13 on):
    at span ``s`` a contact infected on day ``x`` runs free for ``s - x``
    days before the warning lands;
``row(delay, wf, variant)``
    one row per warning channel over isolation days ``x``: the fraction
    ``wf = adherence * reach`` of contacts that heeds a warning sent
    ``delay`` days late realizes ``pair`` at span ``delay + x`` (see
    VARIANTS), the rest ``icx(x) * i_c_inf``;
``mean(row, l, h, b)``
    the dot product of the infection-day weights ``i_w(b+1 .. b+h)`` with
    the row on isolation days ``l+h .. l+1`` (late infection, early
    isolation), divided by the sum of the weights;
``mix(p, rows, l, h, b)``
    the app-usage (``u_app``) mix of the app and manual-tracing means.

``i_w`` is zero after day 14 and ``icx`` is constant from day 13, so ``pair``
(terms ``i_w(x) * icx(s - x)``, ``x <= 14``) and every row are constant from
day 27 on. Day indices are clipped to these bounds before numpy sees them, so
a delay of any size reads the same entries and allocates nothing large.

:meth:`LambdaTable.build` derives from these one average TAF per surveillance
case type with one argument pairing of the channel rows (see VARIANTS), fixed
at import as the one that best reproduces the reference rows at the default
parameters, which those rows were tabulated for.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .infectivity import InfectivityProfile
from .params import ModelParams, check, default_params

__all__ = [
    "LambdaTable", "CASE_TYPES", "VARIANTS", "REFERENCE_LAMBDA_PAIR_ROW",
    "REFERENCE_LAMBDA_CT_ROW", "REFERENCE_LAMBDA_APP_ROW", "REFERENCE_CASE_TYPE_TAF",
]

#: the six exclusive surveillance case types, in reporting order
CASE_TYPES: tuple[str, ...] = ("miss", "sym", "pers", "ct", "app_minus", "app_plus")

#: the two circulating argument pairings for the warned term of a channel row:
#: ``"table"`` reads ``pair`` at span ``delay + x``, ``"text"`` at ``2 * delay + x``
VARIANTS: tuple[str, ...] = ("table", "text")

# Reference rows for the default parameter set (days 1..14), used for report
# deltas and, at the default parameters only, to calibrate the row pairing.
# Independently tabulated; entries are printed at 4 decimals.
REFERENCE_LAMBDA_PAIR_ROW: tuple[float, ...] = (
    0.0000, 0.0000, 0.0000, 0.0000, 0.0484, 0.1452, 0.2728,
    0.4092, 0.5340, 0.6452, 0.7125, 0.7700, 0.8135, 0.8491,
)
REFERENCE_LAMBDA_CT_ROW: tuple[float, ...] = (
    0.0000, 0.0000, 0.1511, 0.3221, 0.4798, 0.6085, 0.6992,
    0.7546, 0.7977, 0.8255, 0.8494, 0.8577, 0.8607, 0.8607,
)
REFERENCE_LAMBDA_APP_ROW: tuple[float, ...] = (
    0.0000, 0.0000, 0.1269, 0.2781, 0.4259, 0.5549, 0.6546,
    0.7254, 0.7712, 0.8060, 0.8338, 0.8577, 0.8607, 0.8607,
)
REFERENCE_CASE_TYPE_TAF: Mapping[str, float] = {
    "miss": 0.87, "sym": 0.70, "pers": 0.36,
    "ct": 0.60, "app_plus": 0.60, "app_minus": 0.27,
}

_Rows = tuple[np.ndarray, np.ndarray]  # the manual-tracing and app channel rows


def _sum(terms: np.ndarray) -> np.ndarray:
    """Left-to-right sum over the last axis, rounding as the scalar formulas do:
    pair-row entries such as 0.76995 sit on 4-decimal ties in printed reports."""
    return np.cumsum(terms, axis=-1)[..., -1]


class _Days:
    """The day-indexed arrays of one profile and the operations on them."""

    def __init__(self, profile: InfectivityProfile) -> None:
        self.i_c_inf = profile.i_c_inf
        self.n = n = profile.i_w.size
        self.last = 2 * n - 1  # day 27, from which pair and every row are constant
        self.iwx = np.concatenate(([0.0], profile.i_w, [0.0]))  # days 0..15
        # i_c on days 0..27: 0 on day 0, i_c_inf from the saturation day 13 on
        self.icx = np.concatenate(([0.0], profile.i_c[:n - 2], np.full(n + 1, self.i_c_inf)))
        lags = np.arange(2 * n)[:, None] - np.arange(1, n + 1)  # s - x, spans s, days x
        self.pair = _sum(profile.i_w * self.icx.take(lags, mode="clip"))  # spans 0..27

    def row(self, delay: int, wf: float, variant: str) -> np.ndarray:
        """The channel row for isolation days ``x = 0..27``: a fraction ``wf``
        of contacts is warned ``delay`` days after the index isolates."""
        # every span from x + last on reads pair[last]
        shift = min(delay if variant == "table" else 2 * delay, self.last)
        warned = self.pair.take(np.arange(self.icx.size) + shift, mode="clip")
        return wf * warned + (1.0 - wf) * (self.icx * self.i_c_inf)

    def rows(self, p: ModelParams, variant: str) -> _Rows:
        return (self.row(p.t_ct, p.a_ct * p.f_ct, variant),
                self.row(p.t_app, p.a_app * p.f_app, variant))

    def mean(self, row: np.ndarray, l: int, h: int, b: int) -> float:
        """Mean of ``row`` on days ``l+h .. l+1``, weighted by ``i_w(b+1 .. b+h)``."""
        # Weights past day n are 0 and the offset b, 0 or t_sym, is below n (params.check),
        # so the first n window days hold every nonzero one; a term dropped would add +0.0.
        width = min(h, self.n)
        weights = self.iwx.take(np.arange(b + 1, b + width + 1), mode="clip")
        # from a top day past last + width, every day read is past last
        top = min(l + h, self.last + width)
        values = row.take(np.arange(top, top - width, -1), mode="clip")
        return float(_sum(weights * values) / _sum(weights))

    def mix(self, p: ModelParams, rows: _Rows, l: int, h: int, b: int) -> float:
        lam_app, lam_ct = self.mean(rows[1], l, h, b), self.mean(rows[0], l, h, b)
        return p.u_app * lam_app + (1.0 - p.u_app) * lam_ct

    def per_type(self, p: ModelParams, rows: _Rows) -> dict[str, float]:
        span = p.t_sym + p.t_plan
        return {
            "miss": self.i_c_inf ** 2,
            "sym": float(rows[0][min(span, self.last)]),
            "pers": self.mean(rows[0], p.t_pers, span, 0),
            "ct": self.mean(rows[0], p.t_ct, span, 0),
            "app_plus": self.mix(p, rows, p.t_sym - 1, p.t_app + p.t_plan + 1, 0),
            "app_minus": self.mix(p, rows, p.t_app, p.t_plan, p.t_sym),
        }


def _calibrate() -> tuple[str, dict[str, float]]:
    """Score each pairing at the default parameters by the largest deviation of
    its channel rows from the reference rows on days 3..13; the lowest wins."""
    p, days = default_params(), np.arange(3, 14)
    grid = _Days(InfectivityProfile.from_params(p))
    reference = np.array((REFERENCE_LAMBDA_CT_ROW, REFERENCE_LAMBDA_APP_ROW))[:, days - 1]
    scores = {name: float(np.abs(np.array(grid.rows(p, name))[:, days] - reference).max())
              for name in VARIANTS}
    return min(scores, key=lambda name: (scores[name], name)), scores


#: the calibrated pairing and each pairing's score; every table gets a copy
_VARIANT, _SCORES = _calibrate()


@dataclass(frozen=True)
class LambdaTable:
    """All TAF values for one parameter set: three day rows + six constants.

    For days ``x = 1..14``, ``lambda_pair_row`` holds ``_Days.pair`` at span
    ``x + 1`` and the channel rows hold the manual-tracing and app rows of
    ``_Days.row``. ``variant`` is the argument pairing of those rows fixed at
    import and ``scores`` a copy of both pairings' calibration scores (see
    ``_calibrate``), the same for every table. ``per_type`` maps each case
    type to its average TAF, a ``_Days.mean`` of the manual-tracing row over
    the type's window unless stated otherwise:

    - ``miss``: never detected; both generations follow base adherence only,
      giving ``i_c_inf ** 2``.
    - ``sym``: self-reported after symptoms; isolates on day
      ``t_sym + t_plan`` and warns contacts via manual tracing.
    - ``pers``: personally pre-warned by their own index (lead ``t_pers``),
      so they isolate early; their contacts are still traced manually.
    - ``ct``: found by a manual-tracing call (lead ``t_ct``).
    - ``app_plus``: app-warned, symptomatic at test booking; infected during
      the pre-symptomatic window of their index.
    - ``app_minus``: app-warned while still symptomless; infected during the
      index's post-symptom planning window (offset ``t_sym``, width
      ``t_plan``), warned with app lead ``t_app``. Both app types mix warning
      channels by app usage ``u_app``.
    """

    variant: str
    lambda_pair_row: tuple[float, ...]
    lambda_ct_row: tuple[float, ...]
    lambda_app_row: tuple[float, ...]
    per_type: Mapping[str, float]
    scores: Mapping[str, float]

    @classmethod
    def build(cls, p: ModelParams, profile: InfectivityProfile) -> "LambdaTable":
        """Compute the full table with the calibrated pairing; ``params.check``
        raises a ``ValueError`` naming every field of ``p`` out of ``validate``'s
        range or, for ``profile.i_w``, out of the delay domain."""
        check(p, profile.i_w)
        days = _Days(profile)
        rows = days.rows(p, _VARIANT)
        n = profile.i_w.size
        return cls(
            variant=_VARIANT,
            lambda_pair_row=tuple(days.pair[2 : n + 2].tolist()),
            lambda_ct_row=tuple(rows[0][1 : n + 1].tolist()),
            lambda_app_row=tuple(rows[1][1 : n + 1].tolist()),
            per_type=days.per_type(p, rows),
            scores=dict(_SCORES),
        )
