"""Monte-Carlo transmission trees: an independent check on the analytic TAF.

Each tree is one index case.  On each profile day the index is still out and
about (not yet quarantined, and not yet self-isolated if it follows base
adherence) it infects a Poisson number of secondaries with mean
``_R0 * i_w(day)``.  A binomial share of them, the channel's warn fraction, is
warned and realizes the adhering infectivity ``i_c`` up to the warning day;
the rest realize all of ``i_c_inf``.  The tertiary attack fraction of the
tree is realized tertiary transmission divided by the no-intervention
potential ``_R0``.

The per-case-type entry point reproduces the situation of each of the six
case types, drawing the index quarantine day from the same detection-window
mixture the analytic layer integrates over.  The estimates agree with the
analytic constants within a few standard errors at the defaults and nearby
delays, but not at longer warning delays: see the strict xfails of
``tests/test_oracle.py::TestAwayFromDefaults``.  The module imports nothing
from the analytic layer: it reads only the published ``i_w`` and derives the
channel delays, warn fractions and the ``i_c`` curve from the model
parameters itself, so a fault in the analytic code cannot hide on both sides
of the cross-check.
Values every tree shares (a fixed quarantine day, a channel's latency and
warn fraction) stay scalars; only the drawn detection day and the app or
tracing choice are per-tree arrays.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .infectivity import WEIBULL_PROFILE
from .params import ModelParams, check

__all__ = [
    "SimConfig",
    "SimOutcome",
    "simulate_trees",
    "empirical_case_type_taf",
]

#: the six case types, in the analytic layer's reporting order
CASE_TYPES: tuple[str, ...] = ("miss", "sym", "pers", "ct", "app_minus", "app_plus")

_CHANNELS = (None, "ct", "app")

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

#: trees per block in ``_run_trees``: bounds its (trees x days) temporaries
_BLOCK = 8192

#: numpy refuses a float array of more elements than this before allocating it
_MAX_TREES = np.iinfo(np.intp).max // 8


def _is_integer(value: object) -> bool:
    """An integer of any integral type, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimConfig:
    """Simulation knobs shared by both entry points."""

    trees: int = 100_000
    seed: int = 0
    horizon: int = 28  # checked only: trees run over the profile's 14 days

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
        if self.horizon < _PROFILE_DAYS:
            raise ValueError(
                f"horizon must cover the {_PROFILE_DAYS}-day infectious "
                f"window, got {self.horizon}"
            )


@dataclass(frozen=True)
class SimOutcome:
    """Aggregated result of a batch of simulated trees."""

    empirical_taf: float
    standard_error: float


def _channels(p: ModelParams) -> dict[str | None, tuple[int, float]]:
    """Warning delay, clipped at ``_LAST_DAY``, and warn fraction (adherence
    times reach) of each channel; ``None`` warns nobody. ``params.check``
    raises one ``ValueError`` naming every field of ``p`` out of ``validate``'s
    range or, for the published ``i_w``, out of the delay domain."""
    check(p, _I_W)
    return {None: (0, 0.0), "ct": (min(p.t_ct, _LAST_DAY), p.a_ct * p.f_ct),
            "app": (min(p.t_app, _LAST_DAY), p.a_app * p.f_app)}


def _run_trees(
    rng: np.random.Generator,
    n: int,
    quarantine_day: float | np.ndarray,
    warn_latency: float | np.ndarray,
    warn_fraction: float | np.ndarray,
    p: ModelParams,
) -> np.ndarray:
    """Per-tree realized/potential tertiary ratios.

    ``quarantine_day``, ``warn_latency`` and ``warn_fraction`` are each a
    float shared by every tree or a per-tree array; ``np.inf`` as quarantine
    day means never quarantined.

    Draws are made only on the live (tree, day) cells, where the index is
    active and ``i_w`` is nonzero, in C order, and binomial draws only on the
    cells with secondaries. numpy's ``Generator`` returns 0 without reading
    the bit stream for a zero-mean Poisson draw and a zero-trial binomial
    draw, so this consumes the same stream, and gives the same values, as
    drawing on every cell of the trees × days grid.

    The grid is walked in blocks of ``_BLOCK`` trees, twice: first every
    block's Poisson draws, keeping only the cells with secondaries, then every
    block's binomial draws. An array draw reads the stream one element at a
    time, so the blocks see the same draws as one call over all trees. The
    Poisson means are read from one block's worth of cell means, laid out in
    C order like the live cells' flat indices. The binomial pass scatters each
    block's day terms into one reused day-major buffer and adds each tree's 14
    terms in the order of numpy's pairwise ``sum(axis=1)`` over a row: the
    first eight in pairs, ``((d1 + d2) + (d3 + d4)) + ((d5 + d6) + (d7 + d8))``,
    then days 9 to 14 one at a time.
    """
    days = np.arange(1, _PROFILE_DAYS + 1)
    self_iso_day = min(p.t_sym + p.t_plan, _LAST_DAY)
    i_a = np.where(days <= self_iso_day, _I_W, _I_W * (1.0 - p.a_base))
    # i_c by warning day clipped to 0..13: 0, i_c(1..12), i_c_inf
    i_c = np.concatenate(([0.0], np.cumsum(i_a)[:_SATURATION_DAY]))
    i_c_inf = i_c[_SATURATION_DAY]

    adherent = rng.random(n) < p.a_base
    # the last day the index is out, cut at the profile's end; a zero-weight
    # day sorts after it, so one comparison finds the live cells
    last_day = np.minimum(quarantine_day, np.where(
        adherent, min(self_iso_day, _PROFILE_DAYS), _PROFILE_DAYS))
    live_key = np.where(_I_W != 0.0, days, _PROFILE_DAYS + 1)
    size = min(n, _BLOCK)
    means = np.tile(_R0 * _I_W, size)
    starts = range(0, n, _BLOCK)
    hits = []  # per block: block-local cells with secondaries, and their counts
    for start in starts:
        live = np.flatnonzero(live_key <= last_day[start:start + _BLOCK, None])
        secondaries = rng.poisson(means[live])
        hit = np.flatnonzero(secondaries > 0)
        hits.append((live[hit], secondaries[hit]))
    del means  # the binomial pass sets the peak of memory

    def per_cell(value, start, rows):
        """A per-tree value at each cell's tree; a shared value stays a scalar."""
        return value[start:start + _BLOCK][rows] if np.ndim(value) else value

    ratios = np.empty(n)
    buffer = np.empty(_PROFILE_DAYS * size)
    for start, (cell, secondaries) in zip(starts, hits):
        block = ratios[start:start + _BLOCK]  # a view, written in place
        rows, cols = np.divmod(cell, _PROFILE_DAYS)
        warned = rng.binomial(secondaries, per_cell(warn_fraction, start, rows))
        warning_day = (per_cell(quarantine_day, start, rows)
                       + per_cell(warn_latency, start, rows) - (cols + 1))
        day = np.clip(warning_day, 0, _SATURATION_DAY).astype(np.intp)
        terms = buffer[:_PROFILE_DAYS * block.size]
        terms.fill(0.0)
        terms[cols * block.size + rows] = warned * i_c[day] + (secondaries - warned) * i_c_inf
        by_day = terms.reshape(_PROFILE_DAYS, block.size)
        total = (((by_day[0] + by_day[1]) + (by_day[2] + by_day[3]))
                 + ((by_day[4] + by_day[5]) + (by_day[6] + by_day[7])))
        for later in by_day[8:]:
            total += later
        block[:] = total / _R0
    return ratios


def _detection_window_mixture(
    rng: np.random.Generator,
    n: int,
    latency: int,
    window: int,
    backdate: int,
) -> np.ndarray:
    """Per-tree quarantine days for an index detected inside a window.

    The index's own infection day within the ``window``-day detection window
    (shifted ``backdate`` days into its infector's profile) is drawn with
    infectivity weights; detection then lags the window end by ``latency``
    days, so the quarantine day is ``latency + window + 1 - x``. The delay
    domain of ``params.check`` puts an infectious day in every window.
    """
    # i_w on days 0..15, zero at both ends, so clipping gives 0 outside days 1..14
    padded = np.concatenate(([0.0], _I_W, [0.0]))
    # Window days past 14 read the zero day 15. numpy's pairwise sum adds 16 or
    # more entries in 8 lanes, so the entries past the 16th add +0.0 to lanes
    # holding the same terms: cut at 16 days, the window has the same total,
    # cumulative weights and draws.
    width = min(window, padded.size)
    weights = padded.take(np.arange(backdate + 1, backdate + width + 1), mode="clip")
    x = rng.choice(np.arange(1, width + 1), size=n, p=weights / weights.sum())
    # x <= width, so a quarantine day cut here still lies at or past _LAST_DAY
    return (min(latency + window + 1, _LAST_DAY + width) - x).astype(float)


def simulate_trees(
    cfg: SimConfig,
    p: ModelParams,
    channel: str | None = None,
    quarantine_day: int | None = None,
) -> SimOutcome:
    """Simulate trees warned through ``channel`` (``"ct"``, ``"app"`` or
    ``None`` for no warning) whose index is quarantined on ``quarantine_day``
    (``None``: never).

    Raises
    ------
    ValueError
        If ``channel`` is unknown, ``quarantine_day`` is neither ``None``
        nor an integer >= 0, or ``p`` fails ``params.check``.
    """
    if channel not in _CHANNELS:
        raise ValueError(f"unknown warning channel {channel!r}; expected one of {_CHANNELS!r}")
    if quarantine_day is not None and (not _is_integer(quarantine_day) or quarantine_day < 0):
        raise ValueError(f"quarantine_day must be None or an integer >= 0, got {quarantine_day!r}")
    rng = np.random.default_rng(cfg.seed)
    quarantine = np.inf if quarantine_day is None else float(min(quarantine_day, _LAST_DAY))
    delay, fraction = _channels(p)[channel]
    return _summarize(_run_trees(rng, cfg.trees, quarantine, float(delay), fraction, p))


def empirical_case_type_taf(case_type: str, cfg: SimConfig, p: ModelParams) -> SimOutcome:
    """Empirical TAF of one case type, mirroring the analytic constants: the
    case type fixes how the index is detected and warned.

    Raises
    ------
    ValueError
        If ``case_type`` is not one of the six model types, or ``p`` fails
        ``params.check``.
    """
    if case_type not in CASE_TYPES:
        raise ValueError(
            f"unknown case type {case_type!r}; expected one of {CASE_TYPES!r}"
        )
    rng = np.random.default_rng(cfg.seed)
    n = cfg.trees
    channels = _channels(p)
    (ct_delay, ct_fraction), (app_delay, app_fraction) = channels["ct"], channels["app"]
    span = p.t_sym + p.t_plan
    latency, fraction = float(ct_delay), ct_fraction
    if case_type == "miss":
        quarantine, fraction = np.inf, 0.0
    elif case_type == "sym":
        quarantine = float(min(span, _LAST_DAY))
    else:
        # (latency, window, backdate) of each detected type's detection window
        windows = {
            "pers": (p.t_pers, span, 0),
            "ct": (p.t_ct, span, 0),
            "app_plus": (p.t_sym - 1, p.t_app + p.t_plan + 1, 0),
            "app_minus": (p.t_app, p.t_plan, p.t_sym),
        }
        quarantine = _detection_window_mixture(rng, n, *windows[case_type])
        if case_type.startswith("app"):
            via_app = rng.random(n) < p.u_app
            latency = np.where(via_app, float(app_delay), latency)
            fraction = np.where(via_app, app_fraction, ct_fraction)
    return _summarize(_run_trees(rng, n, quarantine, latency, fraction, p))


def _summarize(ratios: np.ndarray) -> SimOutcome:
    return SimOutcome(empirical_taf=float(ratios.mean()),
                      standard_error=float(ratios.std(ddof=1) / np.sqrt(ratios.size)))
