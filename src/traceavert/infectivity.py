"""Daily infectivity profiles.

The model discretizes an infected person's infectiousness over days 1..14
after their own infection into the fraction-of-transmissions profile ``i_w``
(a Weibull-shaped curve: nothing on days 1-2, the bulk on days 3-7). Two
derived curves drive everything downstream:

``i_a``
    adhering infectivity — after day ``t_sym + t_plan`` a fraction ``a_base``
    of infected people has isolated, scaling the remaining days by
    ``1 - a_base``;
``i_c``
    the running sum of ``i_a``: the expected fraction of transmission
    potential realized by someone who is left alone until day ``x`` and
    follows base adherence afterwards. ``i_c`` saturates at
    ``i_c_inf = i_c(13)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ModelParams

__all__ = ["WEIBULL_PROFILE", "InfectivityProfile"]

#: reference daily infectivity fractions, days 1..14. The curve is zero on the
#: first two days, peaks on days 3-4 and has a small tail; days 14+ are zero.
#: Note the published entries sum to 0.99, not 1.0 — they are carried verbatim
#: because every downstream constant is calibrated against them.
WEIBULL_PROFILE: tuple[float, ...] = (
    0.00, 0.00, 0.22, 0.22, 0.18, 0.13, 0.08,
    0.05, 0.04, 0.02, 0.02, 0.02, 0.01, 0.00,
)

#: day index (1-based) of each profile entry
_DAYS = np.arange(1, len(WEIBULL_PROFILE) + 1)

#: index of the saturation day of i_c (day 13; day 14 adds nothing)
_SATURATION_DAY = 13


@dataclass(frozen=True)
class InfectivityProfile:
    """The three daily curves plus the saturation value of ``i_c``.

    Attributes
    ----------
    i_w, i_a, i_c
        Arrays indexed by day-1 (entry 0 is day 1), length 14.
    i_c_inf
        Asymptotic cumulative value, ``i_c`` at day 13 onwards.
    """

    i_w: np.ndarray
    i_a: np.ndarray
    i_c: np.ndarray
    i_c_inf: float

    @classmethod
    def from_params(cls, p: ModelParams) -> "InfectivityProfile":
        i_w = np.array(WEIBULL_PROFILE)
        # up to the symptom+planning delay everyone is still out and about;
        # afterwards the base-adherent fraction has isolated
        i_a = np.where(_DAYS <= p.t_sym + p.t_plan, i_w, i_w * (1.0 - p.a_base))
        i_c = np.cumsum(i_a)
        for arr in (i_w, i_a, i_c):
            arr.flags.writeable = False
        return cls(i_w=i_w, i_a=i_a, i_c=i_c, i_c_inf=float(i_c[_SATURATION_DAY - 1]))
