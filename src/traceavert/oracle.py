"""Monte-Carlo transmission trees: an independent check on the analytic TAF.

Each tree is one index case.  On each profile day the index is still out and
about (not yet quarantined, and not yet self-isolated if it follows base
adherence) it infects a Poisson number of secondaries with mean
``_R0 * i_w(day)``.  A binomial share of them, the channel's warn fraction, is
warned and realizes the adhering infectivity ``i_c`` up to the warning day;
the rest realize all of ``i_c_inf``.  The tertiary attack fraction of the
tree is realized tertiary transmission divided by the no-intervention
potential ``_R0``.

A tree's state is its quarantine day, its warning channel and whether its
index follows base adherence: at most 16 x 2 x 2 values, and the trees are
iid.  So the trees are drawn by state, not one by one: one multinomial gives
how many trees fall in each state, the trees of a state draw one unwarned and
one warned Poisson total between them, each secondary lands on one of those
trees uniformly, and only a warned secondary is given an infection day.
These draws have the same joint distribution as per-tree, per-day ones
(``_run_trees``).

The one entry point, ``empirical_case_type_taf``, reproduces the situation of
each of the six case types, weighting the index quarantine day over the same
detection window the analytic layer integrates over.  The estimates agree
with the analytic constants within a few standard errors at the defaults and
nearby delays, but not at longer warning delays: see the strict xfails of
``tests/test_oracle.py::TestAwayFromDefaults``.  The module imports nothing
from the analytic layer: it reads only the published ``i_w`` and derives the
channel delays, warn fractions and the ``i_c`` curve from the model
parameters itself, so a fault in the analytic code cannot hide on both sides
of the cross-check.

The only array of ``n`` trees is the float ratios; the rest is per state or
per block of secondaries.  Each case type draws from its own generator seeded
with ``SimConfig.seed``, so its outcome does not depend on the other types run.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .infectivity import WEIBULL_PROFILE
from .params import CASE_TYPES, ModelParams, _is_integer, check

__all__ = [
    "SimConfig",
    "SimOutcome",
    "empirical_case_type_taf",
]

#: i_w on profile days 1..14, the only profile value the trees read
_I_W = np.array(WEIBULL_PROFILE)

#: mean secondaries per index without intervention; a tree's TAF divides by it
_R0 = 3.0

#: infectious window of the profile, in days
_PROFILE_DAYS = _I_W.size

#: day from which i_c stays at its saturation value i_c_inf
_SATURATION_DAY = 13

#: Day counts are clipped at this day before numpy sees them. Trees compare
#: quarantine and self-isolation days only with the profile days 1..14, and
#: read a warning day, quarantine day + latency - infection day (the infection
#: day <= min(quarantine day, 14)), only through i_c, flat from day 13; so any
#: value from 27 on acts as 27.
_LAST_DAY = 2 * _PROFILE_DAYS - 1

#: secondaries per block in ``_run_trees``: bounds its per-secondary temporaries
_BLOCK = 8192

#: numpy refuses a float array of more elements than this before allocating it
_MAX_TREES = np.iinfo(np.intp).max // 8

#: i_w summed over days 1..d, for d = 0..14
_CUM_I_W = np.concatenate(([0.0], np.cumsum(_I_W)))

# Bins k = floor(x * _SCALE) of the x = u * M of ``_day``; per bin, how many
# sums fall in lower bins, the one distinct sum in it (inf if none) and how
# many times it repeats (days 0-2 all sum to 0.0 and days 13-14 to 0.99)
_SCALE = 256 / _CUM_I_W[-1]
_SUM_BIN = (_CUM_I_W * _SCALE).astype(np.intp)
_BELOW = np.searchsorted(_SUM_BIN, np.arange(_SUM_BIN[-1] + 1), side="left")
_TIES = np.searchsorted(_SUM_BIN, np.arange(_SUM_BIN[-1] + 1), side="right") - _BELOW
_EDGE = np.where(_TIES > 0, _CUM_I_W.take(_BELOW, mode="clip"), np.inf)


def _day(x: np.ndarray) -> np.ndarray:
    """``np.searchsorted(_CUM_I_W, x, side="right")``, the number of sums <= x,
    for x in [0, ``_CUM_I_W[-1]``], by one bin lookup.

    ``x -> floor(x * _SCALE)`` is monotone, so a sum in a lower bin than x is
    <= x and one in a higher bin is > x. Distinct sums are at least 0.01
    apart, wider than a bin (0.0039), so a bin holds at most one distinct sum,
    and x counts its repeats when x is at least that sum.
    """
    k = (x * _SCALE).astype(np.intp)
    return _BELOW.take(k) + _TIES.take(k) * (x >= _EDGE.take(k))


@dataclass(frozen=True)
class SimConfig:
    """Simulation knobs, integers but not bools. Trees run over the profile's
    14 days; only the benchmark reads ``horizon``."""

    trees: int = 100_000
    seed: int = 0
    horizon: ClassVar[int] = 28

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.trees < 2:
            raise ValueError(f"trees must be at least 2 for a standard error, got {self.trees}")
        if self.trees > _MAX_TREES:
            raise ValueError(f"trees must be at most {_MAX_TREES}, got {self.trees}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SimOutcome:
    """Aggregated result of a batch of simulated trees."""

    empirical_taf: float
    standard_error: float


def _run_trees(
    rng: np.random.Generator,
    n: int,
    quarantine_days: np.ndarray,
    state_weights: np.ndarray,
    latency: tuple[int, int],
    warn_fraction: tuple[float, float],
    p: ModelParams,
) -> np.ndarray:
    """Per-tree realized/potential tertiary ratios.

    ``state_weights[i, c, a]`` is the probability of a tree's state: its index
    is quarantined on ``quarantine_days[i]``, at most ``_LAST_DAY + 15``; its
    contacts are warned by channel ``c``, an index into the two-entry
    ``latency`` and ``warn_fraction`` tables (0 tracing, 1 the app); and its
    index follows base adherence if ``a`` is 1.  The trees are iid, so the
    number of trees in each state is one multinomial draw of ``n``.

    The secondaries are drawn by Poisson thinning and splitting. Split by
    warning, the independent per-day counts ``Poisson(_R0 * i_w(day))`` over
    the days the index is out are two independent Poisson totals, unwarned
    and warned, with means ``_R0 * (1 - f) * M`` and ``_R0 * f * M``, where
    ``f`` is the warn fraction and ``M`` the sum of ``i_w`` over the days.
    The ``m`` trees of one state share these means, so they draw one
    unwarned and one warned total with ``m`` times the means, and each
    secondary lands on one of the ``m`` trees uniformly: the same joint law
    as ``m`` independent totals each. A uniform ``u`` picks the tree
    ``floor(u * m)``, below ``m`` as ``u <= 1 - 2**-53`` and
    ``(1 - 2**-53) * m`` rounds below ``m``. A warned secondary's infection
    day is drawn with a second uniform, weights ``i_w`` over the days the
    index is out: the number of sums ``_CUM_I_W`` at or below ``u * M``, by
    one bin lookup (``_day``), capped at the last day out as ``u * M`` can
    round up to ``M``. Its term is read from the state's table of the clipped
    ``i_c`` terms by that number, 0..15. An unwarned secondary realizes
    ``i_c_inf`` whatever its day.

    The multinomial is drawn first. Then the states with trees are walked in
    C order, each state's trees one run of the ratios after the last state's:
    its unwarned and warned totals, then one uniform per unwarned secondary
    and two per warned one (tree, then day), in blocks of ``_BLOCK``. An
    array draw reads the stream one element at a time, and ``np.add.at``
    adds each term to its tree in draw order, so every block size reads the
    same uniforms and rounds the same sums.
    """
    days = np.arange(1, _PROFILE_DAYS + 1)
    self_iso_day = min(p.t_sym + p.t_plan, _LAST_DAY)
    i_a = np.where(days <= self_iso_day, _I_W, _I_W * (1.0 - p.a_base))
    # a tertiary term of the ratio by warning day clipped to 0..13:
    # 0, i_c(1..12), i_c_inf, each over the potential _R0
    i_c = np.concatenate(([0.0], np.cumsum(i_a)[:_SATURATION_DAY])) / _R0
    # the last profile day out of an index that does not and one that does
    # follow base adherence, which self-isolates
    days_out = (_PROFILE_DAYS, min(self_iso_day, _PROFILE_DAYS))

    ratios = np.zeros(n)
    counts = rng.multinomial(n, state_weights.ravel()).reshape(state_weights.shape)
    first = 0
    for i, channel, adheres in np.argwhere(counts):
        m = int(counts[i, channel, adheres])
        quarantine = int(quarantine_days[i])
        last = min(quarantine, days_out[adheres])
        mean, f = _R0 * m * _CUM_I_W[last], warn_fraction[channel]
        unwarned, warned = rng.poisson((mean * (1.0 - f), mean * f))
        trees = ratios[first:first + m]
        first += m
        for start in range(0, unwarned, _BLOCK):
            u = rng.random(min(_BLOCK, unwarned - start))
            np.add.at(trees, (u * m).astype(np.intp), i_c[_SATURATION_DAY])
        # a warned secondary's term by its number of sums d = 0..15: it is
        # infected on day min(d, last) and warned quarantine + latency - that
        # day days later
        infected = np.minimum(np.arange(_CUM_I_W.size + 1), last)
        term = i_c.take(np.clip(quarantine + latency[channel] - infected, 0, _SATURATION_DAY))
        for start in range(0, warned, _BLOCK):
            u = rng.random((min(_BLOCK, warned - start), 2))
            day = _day(u[:, 1] * _CUM_I_W[last])
            np.add.at(trees, (u[:, 0] * m).astype(np.intp), term.take(day))
    return ratios


def empirical_case_type_taf(case_type: str, cfg: SimConfig, p: ModelParams) -> SimOutcome:
    """Empirical TAF of one case type, mirroring the analytic constants: the
    case type fixes how the index is detected and warned.

    Raises
    ------
    ValueError
        If ``case_type`` is not one of the six model types, or ``p`` fails
        ``params.check``, which names every field of ``p`` out of
        ``validate``'s range or out of the delay domain.
    """
    if case_type not in CASE_TYPES:
        raise ValueError(
            f"unknown case type {case_type!r}; expected one of {CASE_TYPES!r}"
        )
    check(p)
    # each channel's warning delay, clipped at _LAST_DAY, and adherence x reach,
    # indexed by channel: 0 manual tracing, 1 the app
    latency = (min(p.t_ct, _LAST_DAY), min(p.t_app, _LAST_DAY))
    fraction = (p.a_ct * p.f_ct, p.a_app * p.f_app)
    span = p.t_sym + p.t_plan
    if case_type == "miss":
        # a quarantine day from _LAST_DAY on is never: the index is out all 14 days
        quarantine, weights, fraction = np.array([_LAST_DAY]), np.ones(1), (0.0, 0.0)
    elif case_type == "sym":
        quarantine, weights = np.array([min(span, _LAST_DAY)]), np.ones(1)
    else:
        # (lead, window, backdate) of each detected type's detection window
        lead, window, backdate = {
            "pers": (p.t_pers, span, 0),
            "ct": (p.t_ct, span, 0),
            "app_plus": (p.t_sym - 1, p.t_app + p.t_plan + 1, 0),
            "app_minus": (p.t_app, p.t_plan, p.t_sym),
        }[case_type]
        # The index's own infection day x in the window (shifted backdate days
        # into its infector's profile) has weight i_w(backdate + x); detection
        # lags the window end by lead days, so the index is quarantined on day
        # lead + window + 1 - x. The delay domain of params.check puts an
        # infectious day in every window. i_w is padded to days 0..15, so
        # clipping gives 0 outside days 1..14 and window days past the 16th,
        # cut here, weigh 0; a quarantine day cut at _LAST_DAY + width still
        # lies at or past _LAST_DAY, and is at most _LAST_DAY + 15.
        padded = np.concatenate(([0.0], _I_W, [0.0]))
        width = min(window, padded.size)
        x = np.arange(1, width + 1)
        weights = padded.take(backdate + x, mode="clip")
        quarantine = min(lead + window + 1, _LAST_DAY + width) - x
    channel = (1.0 - p.u_app, p.u_app) if case_type.startswith("app") else (1.0, 0.0)
    states = np.multiply.outer(np.multiply.outer(weights / weights.sum(), channel),
                               (1.0 - p.a_base, p.a_base))
    rng = np.random.default_rng(cfg.seed)
    ratios = _run_trees(rng, cfg.trees, quarantine, states, latency, fraction, p)
    return SimOutcome(empirical_taf=float(ratios.mean()),
                      standard_error=float(ratios.std(ddof=1) / np.sqrt(cfg.trees)))
