"""Monte-Carlo transmission trees: an independent check on the analytic TAF.

Each tree is one index case.  The index transmits over its infectious window
(day-by-day Poisson draws against the infectivity profile), stopping early if
quarantined; each secondary is warned with the channel's warn fraction and,
once warned, stops transmitting from the warning day onward.  The tertiary
attack fraction of the tree is realized tertiary transmission divided by the
no-intervention potential.

The per-case-type entry point reproduces the situation of each of the six
case types, drawing the index quarantine day from the same detection-window
mixture the analytic layer integrates over.  Estimates converge on the
analytic constants as the tree count grows, which is what the test suite
checks; the module deliberately shares no code with the analytic layer
beyond the infectivity profile.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .infectivity import InfectivityProfile
from .params import ModelParams
from .taf import CASE_TYPES, app_channel, ct_channel

__all__ = [
    "SimConfig",
    "SimOutcome",
    "simulate_trees",
    "empirical_case_type_taf",
]

_CHANNELS = (None, "ct", "app")

#: infectious window of the hardcoded profile, in days
_PROFILE_DAYS = 14


@dataclass(frozen=True)
class SimConfig:
    """Simulation knobs.

    ``channel`` and ``index_quarantine_day`` configure :func:`simulate_trees`
    directly; :func:`empirical_case_type_taf` derives both from the case type
    instead.  ``index_quarantine_day`` ``None`` means the index is never
    quarantined.
    """

    trees: int = 100_000
    r0: float = 3.0
    seed: int = 0
    horizon: int = 28
    channel: str | None = None
    index_quarantine_day: int | None = None

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
        if self.channel not in _CHANNELS:
            raise ValueError(
                f"unknown warning channel {self.channel!r}; "
                f"expected one of {_CHANNELS!r}"
            )


@dataclass(frozen=True)
class SimOutcome:
    """Aggregated result of a batch of simulated trees."""

    empirical_taf: float
    standard_error: float
    tertiary_realized: float
    tertiary_potential: float


def _run_trees(
    rng: np.random.Generator,
    n: int,
    r0: float,
    quarantine_day: np.ndarray,
    warn_latency: np.ndarray,
    warn_fraction: np.ndarray,
    p: ModelParams,
    profile: InfectivityProfile,
    horizon: int,
) -> np.ndarray:
    """Per-tree realized/potential tertiary ratios.

    ``quarantine_day``, ``warn_latency`` and ``warn_fraction`` are per-tree
    arrays; ``np.inf`` as quarantine day means never quarantined. Draws run
    over the days of the horizon on which ``i_w`` can be nonzero only: a
    zero-mean Poisson or zero-trial binomial draw consumes no random numbers
    and adds nothing, so the result is the same as on the full horizon.
    """
    width = min(horizon, profile.i_w.size)
    days = np.arange(1, width + 1)
    i_w = profile.i_w[:width]
    self_iso_day = p.t_sym + p.t_plan

    adherent = rng.random(n) < p.a_base
    active = (days[None, :] <= quarantine_day[:, None]) & (
        (days[None, :] <= self_iso_day) | ~adherent[:, None]
    )
    secondaries = rng.poisson(r0 * i_w[None, :] * active)
    warned = rng.binomial(secondaries, warn_fraction[:, None])
    warning_day = quarantine_day[:, None] + warn_latency[:, None] - days[None, :]
    realized = (
        warned * profile.i_c_at(warning_day)
        + (secondaries - warned) * profile.i_c_inf
    ).sum(axis=1)
    return realized / r0


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
    weights = np.array(
        [profile.i_w_at(x + backdate) for x in range(1, window + 1)]
    )
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
) -> SimOutcome:
    """Simulate trees with one fixed channel and quarantine day."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.trees
    if cfg.index_quarantine_day is None:
        quarantine = np.full(n, np.inf)
    else:
        quarantine = np.full(n, float(cfg.index_quarantine_day))
    if cfg.channel is None:
        latency = np.zeros(n)
        fraction = np.zeros(n)
    else:
        channel = ct_channel(p) if cfg.channel == "ct" else app_channel(p)
        latency = np.full(n, float(channel.delay))
        fraction = np.full(n, channel.warn_fraction)
    ratios = _run_trees(
        rng, n, cfg.r0, quarantine, latency, fraction, p, profile, cfg.horizon,
    )
    return _summarize(ratios, cfg.r0)


def empirical_case_type_taf(
    case_type: str,
    cfg: SimConfig,
    p: ModelParams,
    profile: InfectivityProfile,
) -> SimOutcome:
    """Empirical TAF of one case type, mirroring the analytic constants.

    ``cfg.channel`` and ``cfg.index_quarantine_day`` are ignored here: the
    case type itself fixes how the index is detected and warned.

    Raises
    ------
    ValueError
        If ``case_type`` is not one of the six model types.
    """
    if case_type not in CASE_TYPES:
        raise ValueError(
            f"unknown case type {case_type!r}; expected one of {CASE_TYPES!r}"
        )
    rng = np.random.default_rng(cfg.seed)
    n = cfg.trees
    ct = ct_channel(p)
    app = app_channel(p)
    ct_latency = np.full(n, float(ct.delay))
    ct_fraction = np.full(n, ct.warn_fraction)
    self_report_day = p.t_sym + p.t_plan

    if case_type == "miss":
        ratios = _run_trees(
            rng, n, cfg.r0, np.full(n, np.inf), ct_latency, np.zeros(n),
            p, profile, cfg.horizon,
        )
    elif case_type == "sym":
        ratios = _run_trees(
            rng, n, cfg.r0, np.full(n, float(self_report_day)),
            ct_latency, ct_fraction, p, profile, cfg.horizon,
        )
    elif case_type in ("ct", "pers"):
        latency = p.t_ct if case_type == "ct" else p.t_pers
        quarantine = _detection_window_mixture(
            rng, n, latency, self_report_day, 0, profile,
        )
        ratios = _run_trees(
            rng, n, cfg.r0, quarantine, ct_latency, ct_fraction,
            p, profile, cfg.horizon,
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
        latency = np.where(via_app, float(app.delay), float(ct.delay))
        fraction = np.where(via_app, app.warn_fraction, ct.warn_fraction)
        ratios = _run_trees(
            rng, n, cfg.r0, quarantine, latency, fraction,
            p, profile, cfg.horizon,
        )
    return _summarize(ratios, cfg.r0)


def _summarize(ratios: np.ndarray, r0: float) -> SimOutcome:
    n = ratios.size
    se = float(ratios.std(ddof=1) / np.sqrt(n))
    mean = float(ratios.mean())
    return SimOutcome(
        empirical_taf=mean,
        standard_error=se,
        tertiary_realized=mean * r0,
        tertiary_potential=r0,
    )
