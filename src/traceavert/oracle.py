"""Monte-Carlo transmission trees: an independent check on the analytic TAF.

Each tree is one index case.  On each profile day the index is still out and
about (not yet quarantined, and not yet self-isolated if it follows base
adherence) it infects a Poisson number of secondaries with mean
``r0 * i_w(day)``.  A binomial share of them, the channel's warn fraction, is
warned and realizes the adhering infectivity ``i_c`` up to the warning day;
the rest realize all of ``i_c_inf``.  The tertiary attack fraction of the
tree is realized tertiary transmission divided by the no-intervention
potential ``r0``.

The per-case-type entry point reproduces the situation of each of the six
case types, drawing the index quarantine day from the same detection-window
mixture the analytic layer integrates over.  Estimates converge on the
analytic constants as the tree count grows, which is what the test suite
checks.  The module imports nothing from the analytic layer: it reads only
``i_w`` from the infectivity profile and derives the channel delays, warn
fractions and the ``i_c`` curve from the model parameters itself, so a fault
in the analytic code cannot hide on both sides of the cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .infectivity import InfectivityProfile
from .params import ModelParams

__all__ = [
    "SimConfig",
    "SimOutcome",
    "simulate_trees",
    "empirical_case_type_taf",
]

#: the six case types, in the analytic layer's reporting order
CASE_TYPES: tuple[str, ...] = ("miss", "sym", "pers", "ct", "app_minus", "app_plus")

_CHANNELS = (None, "ct", "app")

#: infectious window of the hardcoded profile, in days
_PROFILE_DAYS = 14

#: day from which i_c stays at its saturation value i_c_inf
_SATURATION_DAY = 13


@dataclass(frozen=True)
class SimConfig:
    """Simulation knobs shared by both entry points."""

    trees: int = 100_000
    r0: float = 3.0
    seed: int = 0
    horizon: int = 28  # checked only: trees run over the profile's 14 days

    def __post_init__(self) -> None:
        if self.trees < 2:
            raise ValueError(f"trees must be at least 2 for a standard error, got {self.trees}")
        if not self.r0 > 0.0:
            raise ValueError(f"r0 must be positive, got {self.r0}")
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


def _channel(p: ModelParams, kind: str) -> tuple[int, float]:
    """Warning delay and warn fraction (adherence times reach) of a channel.

    ``kind`` is ``"ct"`` (manual tracing) or ``"app"``. A negative delay or a
    reach or adherence outside [0, 1] raises a ``ValueError`` naming the field.
    """
    delay, reach, adherence = (
        (p.t_ct, p.f_ct, p.a_ct) if kind == "ct" else (p.t_app, p.f_app, p.a_app)
    )
    if delay < 0:
        raise ValueError(f"t_{kind} must be >= 0 days, got {delay}")
    for name, value in ((f"f_{kind}", reach), (f"a_{kind}", adherence)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return delay, adherence * reach


def _run_trees(
    rng: np.random.Generator,
    n: int,
    r0: float,
    quarantine_day: np.ndarray,
    warn_latency: np.ndarray,
    warn_fraction: np.ndarray,
    p: ModelParams,
    profile: InfectivityProfile,
) -> np.ndarray:
    """Per-tree realized/potential tertiary ratios.

    ``quarantine_day``, ``warn_latency`` and ``warn_fraction`` are per-tree
    arrays; ``np.inf`` as quarantine day means never quarantined.

    Draws are made only on the live (tree, day) cells, where the index is
    active and ``i_w`` is nonzero, in C order, and binomial draws only on the
    cells with secondaries. numpy's ``Generator`` returns 0 without reading
    the bit stream for a zero-mean Poisson draw and a zero-trial binomial
    draw, so this consumes the same stream, and gives the same values, as
    drawing on every cell of the trees × days grid.
    """
    i_w = profile.i_w
    width = i_w.size
    days = np.arange(1, width + 1)
    self_iso_day = p.t_sym + p.t_plan
    i_a = np.where(days <= self_iso_day, i_w, i_w * (1.0 - p.a_base))
    # i_c by warning day clipped to 0..13: 0, i_c(1..12), i_c_inf
    i_c = np.concatenate(([0.0], np.cumsum(i_a)[:_SATURATION_DAY]))
    i_c_inf = i_c[_SATURATION_DAY]

    adherent = rng.random(n) < p.a_base
    last_day = np.where(adherent, np.minimum(quarantine_day, self_iso_day), quarantine_day)
    live = (days <= last_day[:, None]) & (i_w != 0.0)
    cell = np.flatnonzero(live)
    secondaries = rng.poisson(np.broadcast_to(r0 * i_w, live.shape)[live])
    hit = np.flatnonzero(secondaries)
    cell, secondaries = cell[hit], secondaries[hit]
    rows, cols = np.divmod(cell, width)
    warned = rng.binomial(secondaries, warn_fraction[rows])
    warning_day = quarantine_day[rows] + warn_latency[rows] - (cols + 1)
    day = np.clip(warning_day, 0, _SATURATION_DAY).astype(np.intp)
    # scatter into the full grid so each row sums its days in the same order
    terms = np.zeros(n * width)
    terms[cell] = warned * i_c[day] + (secondaries - warned) * i_c_inf
    return terms.reshape(n, width).sum(axis=1) / r0


def _detection_window_mixture(
    rng: np.random.Generator,
    n: int,
    latency: int,
    window: int,
    backdate: int,
    profile: InfectivityProfile,
) -> np.ndarray:
    """Per-tree quarantine days for an index detected inside a window.

    The index's own infection day within the ``window``-day detection window
    (shifted ``backdate`` days into its infector's profile) is drawn with
    infectivity weights; detection then lags the window end by ``latency``
    days, so the quarantine day is ``latency + window + 1 - x``.
    """
    # i_w on days 0..15, zero at both ends, so clipping gives 0 outside days 1..14
    padded = np.concatenate(([0.0], profile.i_w, [0.0]))
    weights = padded.take(np.arange(backdate + 1, backdate + window + 1), mode="clip")
    total = weights.sum()
    if total <= 0.0:
        raise ValueError(
            f"detection window (window={window}, backdate={backdate}) has "
            f"zero infectivity weight"
        )
    x = rng.choice(np.arange(1, window + 1), size=n, p=weights / total)
    return (latency + window + 1 - x).astype(float)


def simulate_trees(
    cfg: SimConfig,
    p: ModelParams,
    profile: InfectivityProfile,
    channel: str | None = None,
    quarantine_day: int | None = None,
) -> SimOutcome:
    """Simulate trees warned through ``channel`` (``"ct"``, ``"app"`` or
    ``None`` for no warning) whose index is quarantined on ``quarantine_day``
    (``None``: never).

    Raises
    ------
    ValueError
        If ``channel`` is unknown, or it has a negative delay or a reach or
        adherence outside [0, 1].
    """
    if channel not in _CHANNELS:
        raise ValueError(f"unknown warning channel {channel!r}; expected one of {_CHANNELS!r}")
    rng = np.random.default_rng(cfg.seed)
    n = cfg.trees
    quarantine = np.full(n, np.inf if quarantine_day is None else float(quarantine_day))
    delay, fraction = (0, 0.0) if channel is None else _channel(p, channel)
    ratios = _run_trees(
        rng, n, cfg.r0, quarantine, np.full(n, float(delay)), np.full(n, fraction), p, profile,
    )
    return _summarize(ratios)


def empirical_case_type_taf(
    case_type: str,
    cfg: SimConfig,
    p: ModelParams,
    profile: InfectivityProfile,
) -> SimOutcome:
    """Empirical TAF of one case type, mirroring the analytic constants: the
    case type fixes how the index is detected and warned.

    Raises
    ------
    ValueError
        If ``case_type`` is not one of the six model types, or a channel has
        a negative delay or a reach or adherence outside [0, 1].
    """
    if case_type not in CASE_TYPES:
        raise ValueError(
            f"unknown case type {case_type!r}; expected one of {CASE_TYPES!r}"
        )
    rng = np.random.default_rng(cfg.seed)
    n = cfg.trees
    ct_delay, ct_fraction = _channel(p, "ct")
    app_delay, app_fraction = _channel(p, "app")
    latency = np.full(n, float(ct_delay))
    fraction = np.full(n, ct_fraction)
    self_report_day = p.t_sym + p.t_plan

    if case_type == "miss":
        quarantine = np.full(n, np.inf)
        fraction = np.zeros(n)
    elif case_type == "sym":
        quarantine = np.full(n, float(self_report_day))
    elif case_type in ("ct", "pers"):
        quarantine = _detection_window_mixture(
            rng, n, p.t_ct if case_type == "ct" else p.t_pers, self_report_day, 0, profile,
        )
    else:  # app_plus / app_minus
        if case_type == "app_plus":
            quarantine = _detection_window_mixture(
                rng, n, p.t_sym - 1, p.t_app + p.t_plan + 1, 0, profile,
            )
        else:
            quarantine = _detection_window_mixture(
                rng, n, p.t_app, p.t_plan, p.t_sym, profile,
            )
        via_app = rng.random(n) < p.u_app
        latency = np.where(via_app, float(app_delay), float(ct_delay))
        fraction = np.where(via_app, app_fraction, ct_fraction)
    ratios = _run_trees(rng, n, cfg.r0, quarantine, latency, fraction, p, profile)
    return _summarize(ratios)


def _summarize(ratios: np.ndarray) -> SimOutcome:
    return SimOutcome(empirical_taf=float(ratios.mean()),
                      standard_error=float(ratios.std(ddof=1) / np.sqrt(ratios.size)))
