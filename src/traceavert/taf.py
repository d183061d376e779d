"""The tertiary attack fraction (TAF) calculus.

A warning that reaches an index case's contacts early prevents those contacts
from passing the infection on. The TAF of a scenario is the fraction of all
*possible* third-generation infections that is still realized: 1 means nobody
ever quarantines, 0 means tertiary spread is fully suppressed.

The calculus is a little linear algebra over day-indexed arrays (entry ``d``
is day ``d``) of the 14-day profile:

``lambda_pair(l, h)``
    entry ``l + h`` of the convolution of ``i_w`` with ``icx``, which is
    ``i_c`` under the model's boundary rules (0 on days <= 0, ``i_c_inf``
    from day 13 on): a contact infected on day ``x`` runs free for
    ``l + h - x`` days before the warning lands;
``lambda_alpha(x, channel)``
    one row per channel over isolation days ``x``: the fraction
    ``wf = adherence * reach`` of contacts that heeds the warning realizes
    ``lambda_pair(delay, x)``, the rest ``icx(x) * i_c_inf``;
``capital_lambda(l, h, b, channel)``
    the dot product of the infection-day weights ``i_w(b+1 .. b+h)`` with
    that row on isolation days ``l+h .. l+1`` (late infection, early
    isolation), divided by the sum of the weights;
``delta_mix(l, h, b)``
    the app-usage (``u_app``) mix of the app and manual-tracing averages.

``i_w`` is zero after day 14 and ``icx`` is constant from day 13, so every
row is constant from day 27 on; indices clip there.

:meth:`LambdaTable.build` derives from these one average TAF per surveillance
case type with one argument pairing of ``lambda_alpha`` (see VARIANTS), fixed
at import as the one that best reproduces the reference rows at the default
parameters, which those rows were tabulated for.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .infectivity import InfectivityProfile
from .params import ModelParams, default_params

__all__ = [
    "WarningChannel", "LambdaTable", "CASE_TYPES", "VARIANTS", "ct_channel", "app_channel",
    "lambda_pair", "lambda_alpha", "capital_lambda", "delta_mix", "REFERENCE_LAMBDA_PAIR_ROW",
    "REFERENCE_LAMBDA_CT_ROW", "REFERENCE_LAMBDA_APP_ROW", "REFERENCE_CASE_TYPE_TAF",
]

#: the six exclusive surveillance case types, in reporting order
CASE_TYPES: tuple[str, ...] = ("miss", "sym", "pers", "ct", "app_minus", "app_plus")

#: the two circulating argument pairings for the warned term of lambda_alpha
VARIANTS: tuple[str, ...] = ("table", "text")

# Reference rows for the default parameter set (days 1..14), used for report
# deltas and, at the default parameters only, to calibrate the lambda_alpha
# variant. Independently tabulated; entries are printed at 4 decimals.
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

_Rows = tuple[np.ndarray, np.ndarray]  # the manual-tracing and app rows of lambda_alpha


@dataclass(frozen=True)
class WarningChannel:
    """How a warning travels from a positive index to their contacts.

    Parameters
    ----------
    kind
        ``"ct"`` (manual contact tracing) or ``"app"``.
    delay
        Days between the index isolating and the warning reaching contacts.
    reach
        Fraction of infected contacts the channel finds at all.
    adherence
        Fraction of warned contacts who actually quarantine.
    """

    kind: str
    delay: int
    reach: float
    adherence: float

    def __post_init__(self) -> None:
        if self.kind not in ("ct", "app"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.delay < 0:
            raise ValueError(f"channel delay must be >= 0, got {self.delay}")
        for name in ("reach", "adherence"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"channel {name} must lie in [0, 1], got {value}")

    @property
    def warn_fraction(self) -> float:
        """Probability that an infected contact is both reached and adheres."""
        return self.adherence * self.reach


def ct_channel(p: ModelParams) -> WarningChannel:
    """Manual contact tracing: delay ``t_ct``, reach ``f_ct``, adherence ``a_ct``."""
    return WarningChannel(kind="ct", delay=p.t_ct, reach=p.f_ct, adherence=p.a_ct)


def app_channel(p: ModelParams) -> WarningChannel:
    """Exposure-notification app: delay ``t_app``, reach ``f_app``, adherence ``a_app``."""
    return WarningChannel(kind="app", delay=p.t_app, reach=p.f_app, adherence=p.a_app)


def _sum(terms: np.ndarray) -> np.ndarray:
    """Left-to-right sum over the last axis, rounding as the scalar formulas do:
    pair-row entries such as 0.76995 sit on 4-decimal ties in printed reports."""
    return np.cumsum(terms, axis=-1)[..., -1]


def _check_day(x: int) -> None:
    if x < 1:
        raise ValueError(f"isolation day x must be >= 1, got {x}")


class _Days:
    """The day-indexed arrays of one profile and the operations on them."""

    def __init__(self, profile: InfectivityProfile) -> None:
        self.i_c_inf = profile.i_c_inf
        n = profile.i_w.size
        self.iwx = np.concatenate(([0.0], profile.i_w, [0.0]))  # days 0..15
        self.icx = profile.i_c_at(np.arange(2 * n))  # days 0..27
        lags = np.arange(2 * n)[:, None] - np.arange(1, n + 1)  # s - x, spans s, days x
        self.pair = _sum(profile.i_w * self.icx.take(lags, mode="clip"))  # lambda_pair(s)

    def row(self, channel: WarningChannel, variant: str) -> np.ndarray:
        """``lambda_alpha(x, channel)`` for isolation days ``x = 0..27``."""
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        if channel.delay < 1:
            raise ValueError(f"{channel.kind} warning delay must be >= 1 day, got {channel.delay}")
        shift = channel.delay if variant == "table" else 2 * channel.delay
        wf = channel.warn_fraction
        warned = self.pair.take(np.arange(self.icx.size) + shift, mode="clip")
        return wf * warned + (1.0 - wf) * (self.icx * self.i_c_inf)

    def rows(self, p: ModelParams, variant: str) -> _Rows:
        return self.row(ct_channel(p), variant), self.row(app_channel(p), variant)

    def mean(self, row: np.ndarray, l: int, h: int, b: int) -> float:
        """Mean of ``row`` on days ``l+h .. l+1``, weighted by ``i_w(b+1 .. b+h)``."""
        if h < 1:
            raise ValueError(f"window width h must be >= 1, got {h}")
        weights = self.iwx.take(np.arange(b + 1, b + h + 1), mode="clip")
        total = _sum(weights)
        if total <= 0.0:
            raise ValueError(f"all infectivity weights vanish for window h={h}, offset b={b}")
        _check_day(l + 1)
        return float(_sum(weights * row.take(np.arange(l + h, l, -1), mode="clip")) / total)

    def mix(self, p: ModelParams, rows: _Rows, l: int, h: int, b: int) -> float:
        lam_app, lam_ct = self.mean(rows[1], l, h, b), self.mean(rows[0], l, h, b)
        return p.u_app * lam_app + (1.0 - p.u_app) * lam_ct

    def per_type(self, p: ModelParams, rows: _Rows) -> dict[str, float]:
        span = p.t_sym + p.t_plan
        _check_day(span)
        return {
            "miss": self.i_c_inf ** 2,
            "sym": float(rows[0].take(span, mode="clip")),
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


def lambda_pair(l: int, h: int, profile: InfectivityProfile) -> float:
    """Tertiary fraction realized when contacts run loose ``l + h`` days.

    ``sum_{x=1}^{l+h-1} i_w(x) * i_c(l+h-x)``: a contact infected on day ``x``
    (weight ``i_w(x)``) realizes ``i_c(l+h-x)`` before the warning arrives.
    """
    if l < 1:
        raise ValueError(f"warning delay l must be >= 1, got {l}")
    return float(_Days(profile).pair.take(l + h, mode="clip"))


def lambda_alpha(
    x: int, channel: WarningChannel, profile: InfectivityProfile, variant: str = _VARIANT
) -> float:
    """Average TAF of an index isolating on day ``x`` who warns via ``channel``.

    ``variant`` picks the warned term (default: the calibrated one): ``"table"``
    uses ``lambda_pair(delay, x)``, ``"text"`` uses ``lambda_pair(delay, delay + x)``.
    """
    _check_day(x)
    return float(_Days(profile).row(channel, variant).take(x, mode="clip"))


def capital_lambda(
    l: int, h: int, b: int, channel: WarningChannel, profile: InfectivityProfile,
    variant: str = _VARIANT,
) -> float:
    """Infectivity-weighted average of :func:`lambda_alpha` over a window.

    The index was infected on day ``x + b`` of its infector's timeline, with
    ``x = 1..h`` and weights ``i_w(x + b)``, and isolates on day ``l + h + 1 - x``.
    """
    days = _Days(profile)
    return days.mean(days.row(channel, variant), l, h, b)


def delta_mix(
    l: int, h: int, b: int, p: ModelParams, profile: InfectivityProfile,
    variant: str = _VARIANT,
) -> float:
    """App-usage-weighted mixture of the app and manual-tracing averages."""
    days = _Days(profile)
    return days.mix(p, days.rows(p, variant), l, h, b)


@dataclass(frozen=True)
class LambdaTable:
    """All TAF values for one parameter set: three day rows + six constants.

    ``lambda_pair_row`` holds ``lambda_pair(1, x)`` for days ``x = 1..14``;
    the channel rows hold ``lambda_alpha(x, channel)``. ``variant`` is the
    argument pairing fixed at import and ``scores`` a copy of both pairings'
    calibration scores (see ``_calibrate``), the same for every table.
    ``per_type`` maps each case type to its average TAF:

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
        """Compute the full table with the calibrated pairing."""
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
