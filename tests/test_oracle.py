import ast
import copy
import dataclasses
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, Verbosity, given, settings
from hypothesis import strategies as st

from traceavert import cases, counterfactual, oracle
from traceavert.infectivity import WEIBULL_PROFILE, InfectivityProfile
from traceavert.oracle import SimConfig, empirical_case_type_taf
from traceavert.params import ModelParams, apply_overrides
from traceavert.taf import CASE_TYPES, LambdaTable


def _zscore(outcome, target):
    return (outcome.empirical_taf - target) / outcome.standard_error


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.trees == 100_000
        assert cfg.seed == 0
        assert cfg.horizon == 28

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(trees=0), "trees"),
            (dict(trees=1), r"^trees must be at least 2 for a standard error, got 1$"),
            (dict(seed=np.int64(-1)), r"^seed must be >= 0, got -1$"),
            (dict(trees=np.True_), r"^trees must be an integer, got "),
            (dict(seed=-1), r"^seed must be >= 0, got -1$"),
            (dict(trees=np.iinfo(np.intp).max // 8 + 1), r"^trees must be at most"),
            (dict(trees=2.5), r"^trees must be an integer, got 2\.5$"),
            (dict(trees="10"), r"^trees must be an integer, got '10'$"),
            (dict(seed=1.5), r"^seed must be an integer, got 1\.5$"),
            (dict(seed=True), r"^seed must be an integer, got True$"),
        ],
    )
    def test_rejects_bad_config(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SimConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        cfg = SimConfig(trees=np.int64(50), seed=np.uint32(7))
        assert (cfg.trees, cfg.seed) == (50, 7)

    def test_horizon_is_a_constant(self):
        assert [f.name for f in dataclasses.fields(SimConfig)] == ["trees", "seed"]
        assert SimConfig.horizon == 28
        with pytest.raises(TypeError, match="horizon"):
            SimConfig(horizon=28)


class TestSharedQuarantineDay:
    """The two case types whose trees share one quarantine day: ``miss``, whose
    index is never quarantined and warns nobody, and ``sym``, whose index is
    quarantined on day t_sym + t_plan (7 at the defaults) and whose contacts
    are warned by tracing.

    The checks against a target hold |z| < 4.5 at 200,000 trees: a 2-SE band
    at one seed fails in a few percent of seeds, so it pins one realization
    of the stream rather than the model."""

    def test_no_intervention_matches_missed_constant(self, params, lambdas):
        cfg = SimConfig(trees=200_000, seed=0)
        outcome = empirical_case_type_taf("miss", cfg, params)
        assert abs(_zscore(outcome, lambdas["miss"])) < 4.5

    def test_full_potential_without_any_adherence(self, params):
        p = apply_overrides(params, {"a_sym": "0"})
        cfg = SimConfig(trees=200_000, seed=0)
        outcome = empirical_case_type_taf("miss", cfg, p)
        # the day-by-day profile carries 0.99 of the infection potential, so
        # a fully unimpeded tree realizes 0.99 of it at both generations
        assert abs(_zscore(outcome, 0.99**2)) < 4.5

    def test_ct_channel_quarantine_day7_matches_analytic(self, params, table):
        assert params.t_sym + params.t_plan == 7
        analytic = table.lambda_ct_row[6]
        outcome = empirical_case_type_taf("sym", SimConfig(trees=200_000, seed=0), params)
        assert abs(_zscore(outcome, analytic)) < 4.5

    def test_outcome_accounting(self, params):
        cfg = SimConfig(trees=2_000, seed=5)
        outcome = empirical_case_type_taf("miss", cfg, params)
        assert 0.0 <= outcome.empirical_taf <= 1.0
        assert outcome.standard_error > 0.0

    def test_standard_error_shrinks_with_more_trees(self, params):
        ses = [
            empirical_case_type_taf("miss", SimConfig(trees=n, seed=3), params).standard_error
            for n in (1_000, 10_000, 100_000)
        ]
        for coarse, fine in zip(ses, ses[1:]):
            ratio = coarse / fine
            assert math.sqrt(10) / 2 < ratio < 2 * math.sqrt(10)

    def test_later_warnings_leak_more_transmission(self, params):
        tafs = []
        for t_ct in ("1", "5"):
            p = apply_overrides(params, {"t_ct": t_ct})
            tafs.append(empirical_case_type_taf("sym", SimConfig(trees=20_000, seed=9), p))
        gap = tafs[1].empirical_taf - tafs[0].empirical_taf
        noise = 2 * math.hypot(tafs[0].standard_error, tafs[1].standard_error)
        assert gap > -noise
        assert gap > 0  # the true effect is far larger than the noise here


class TestSplitting:
    """A state's Poisson totals spread over its trees give each tree the count
    it would draw alone. No secondary below is warned within 13 days of its
    infection, so each adds ``i_c_inf / R0`` to its tree's ratio and the count
    is read back from the ratio. The index's base adherence sets the days it
    is out, so the count is a mixture of Poissons with the per-tree means
    R0 * M: its mean, variance and share of zeros must be the mixture's."""

    @pytest.mark.parametrize("case_type, overrides, days_out", [
        # never quarantined and never warned, no adherence: one state, trees
        # out 14 days
        ("miss", {"a_sym": "0"}, (14, 7)),
        # quarantined on day 7 and warned 13 days later: a warned secondary
        # infected while its index is out (days 1..7) is warned 13 or more
        # days after its infection and realizes i_c_inf too
        ("sym", {"a_sym": "0", "t_ct": "13"}, (7, 7)),
        # two states: an index that follows base adherence self-isolates after
        # day 7, the others are out 14 days; a run of trees misplaced between
        # the states shows in the variance and the zeros
        ("miss", {}, (14, 7)),
    ], ids=["miss", "sym-warned", "miss-adherence"])
    # 200,000 trees in one run, and 1,000 runs of 2 trees, in which a total
    # off by one tree's mean shows
    @pytest.mark.parametrize("trees, seeds", [(200_000, 1), (2, 1_000)], ids=["one-group", "pairs"])
    def test_tree_counts_are_poisson(self, monkeypatch, params, case_type, overrides, days_out,
                                     trees, seeds):
        p = apply_overrides(params, overrides)
        assert p.t_sym + p.t_plan == 7
        ratios = []
        run_trees = oracle._run_trees

        def recorded(*args):
            ratios.append(run_trees(*args))
            return ratios[-1]

        monkeypatch.setattr(oracle, "_run_trees", recorded)
        for seed in range(seeds):
            empirical_case_type_taf(case_type, SimConfig(trees=trees, seed=seed), p)
        # i_c saturates on day 13; i_a is i_w less the share a_base that has
        # self-isolated after day 7
        i_c_inf = math.fsum(w * (1.0 - p.a_base if day > 7 else 1.0)
                            for day, w in enumerate(WEIBULL_PROFILE[:13], start=1))
        units = np.concatenate(ratios) * oracle._R0 / i_c_inf
        counts = np.rint(units)
        # every secondary realizes i_c_inf: none is warned within 13 days of its infection
        assert np.abs(units - counts).max() < 1e-9
        n = counts.size
        # the mixture's probabilities of 0..59 secondaries, over the index's
        # adherence (no, yes); past 59 they are below 1e-40
        k = np.arange(60)

        def poisson(days):
            mean = oracle._R0 * math.fsum(WEIBULL_PROFILE[:days])
            return math.exp(-mean) * np.cumprod(np.concatenate(([1.0], mean / k[1:])))

        pmf = (1.0 - p.a_base) * poisson(days_out[0]) + p.a_base * poisson(days_out[1])
        mean = k @ pmf
        variance = (k - mean) ** 2 @ pmf
        # the sample variance has variance (mu_4 - variance^2) / n
        mu_4 = (k - mean) ** 4 @ pmf
        z = {"mean": (counts.mean() - mean) / math.sqrt(variance / n),
             "variance": (counts.var(ddof=1) - variance) / math.sqrt((mu_4 - variance**2) / n),
             "zeros": (np.mean(counts == 0) - pmf[0]) / math.sqrt(pmf[0] * (1 - pmf[0]) / n)}
        assert max(map(abs, z.values())) < 4.5, z


class TestCaseTypeTaf:
    def test_unknown_case_type_rejected(self, params):
        with pytest.raises(ValueError, match="case type"):
            empirical_case_type_taf("mystery", SimConfig(trees=10), params)

    # |z| < 4.5 at 200,000 trees, as in TestSharedQuarantineDay
    @pytest.mark.parametrize("case_type", CASE_TYPES)
    def test_matches_analytic_within_2se(self, case_type, params, lambdas):
        cfg = SimConfig(trees=200_000, seed=5)
        outcome = empirical_case_type_taf(case_type, cfg, params)
        assert abs(_zscore(outcome, lambdas[case_type])) < 4.5

    def test_personal_warning_beats_tracing_call(self, params):
        cfg = SimConfig(trees=20_000, seed=0)
        pers = empirical_case_type_taf("pers", cfg, params)
        ct = empirical_case_type_taf("ct", cfg, params)
        assert (pers.empirical_taf + 2 * pers.standard_error
                < ct.empirical_taf - 2 * ct.standard_error)

    def test_app_minus_band_at_small_sample(self, params):
        cfg = SimConfig(trees=10_000, seed=0)
        outcome = empirical_case_type_taf("app_minus", cfg, params)
        assert 0.15 <= outcome.empirical_taf <= 0.40

    def test_simulate_output_pinned(self, params):
        # exact outcomes of numpy's seeded Generator stream: any change to which
        # draws the oracle makes, or in what order, moves them
        pinned = {
            "miss": (0.8594668, 0.007420786280443781),
            "sym": (0.6877508, 0.00641318108814315),
            "pers": (0.37358346666666664, 0.005375350761189847),
            "ct": (0.6117670000000001, 0.006286620765836109),
            "app_minus": (0.2588965333333333, 0.003966462380919448),
            "app_plus": (0.5979734666666665, 0.0060692643372436605),
        }
        cfg = SimConfig(trees=5_000, seed=21)
        for case_type, (taf, se) in pinned.items():
            outcome = empirical_case_type_taf(case_type, cfg, params)
            assert (outcome.empirical_taf, outcome.standard_error) == (taf, se), case_type

    def test_app_heavy_output_pinned(self, params):
        # everyone uses the app, whose warning is slower than at the defaults,
        # and tracing is slower still: pins the via_app latency and fraction mix
        pinned = {
            "miss": (0.8563742222222223, 0.009562393709530779),
            "sym": (0.7435427222222222, 0.008747038663947089),
            "pers": (0.41921427777777776, 0.007646723158573203),
            "ct": (0.7960171111111111, 0.009130738197379204),
            "app_minus": (0.41222577777777786, 0.006434918680576437),
            "app_plus": (0.6463564999999999, 0.008384939937459174),
        }
        p = apply_overrides(params, {"u_app": "1", "t_app": "3", "t_ct": "5"})
        cfg = SimConfig(trees=3_000, seed=21)
        for case_type, expected in pinned.items():
            outcome = empirical_case_type_taf(case_type, cfg, p)
            assert (outcome.empirical_taf, outcome.standard_error) == expected, case_type

    def test_output_pinned_across_blocks(self, params):
        # a tree has about 3 secondaries, so the 20,000 trees of a case type draw
        # several blocks of secondaries: these pin how each block's uniforms
        # place its secondaries on their trees and days
        assert 20_000 * oracle._R0 * oracle._I_W.sum() > 5 * oracle._BLOCK
        pinned = {
            "miss": (0.8707370666666666, 0.0037232347850953648),
            "sym": (0.6875015, 0.0031556111271247357),
            "pers": (0.3819369333333333, 0.0027186186101969844),
            "ct": (0.6153375166666666, 0.0031492620276903044),
            "app_minus": (0.2502335, 0.0019703206532201223),
            "app_plus": (0.5914237, 0.002967472033489125),
        }
        cfg = SimConfig(trees=20_000, seed=21)
        for case_type, expected in pinned.items():
            outcome = empirical_case_type_taf(case_type, cfg, params)
            assert (outcome.empirical_taf, outcome.standard_error) == expected, case_type


#: why the analytic constants run high away from the defaults: (a) the warned
#: term of a channel row reads the pair row at span delay + x, which counts
#: contacts infected after the index isolated on day x, while the unwarned term
#: and the oracle stop at day x; i_c is 0 on days 1-2, so this shows only for a
#: delay past 3. (b) The warned term weighs the index's infections by i_w, the
#: unwarned term and the oracle by i_a, in which a share a_base has isolated
#: after day t_sym + t_plan.
_MECHANISMS = ("(a) post-isolation contacts in the warned term, a warning delay past 3; "
               "(b) i_w instead of i_a weighting of the index's infections")


def _known_gap(overrides, reason):
    return pytest.param(overrides, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=reason))


class TestAwayFromDefaults:
    """All six constants against the oracle on fixed validated parameter sets."""

    @pytest.mark.parametrize("overrides", [
        {"t_ct": 2, "t_app": 3},
        _known_gap({"t_ct": 4}, f"app_minus z = -18.1, pers z = -11.6: {_MECHANISMS}"),
        _known_gap({"t_app": 8}, f"app_plus z = -9.1, app_minus z = -7.8: {_MECHANISMS}"),
        _known_gap({"t_sym": 3, "t_plan": 1, "t_ct": 4, "t_app": 4, "t_pers": 1},
                   f"pers z = -45.9, the worst of five types past 4.5: {_MECHANISMS}"),
    ], ids=["t_ct=2,t_app=3", "t_ct=4", "t_app=8", "t_sym=3,t_plan=1,t_ct=4,t_app=4"])
    def test_every_constant_within_4_5_se(self, params, overrides):
        p = apply_overrides(params, overrides)
        analytic = LambdaTable.build(p, InfectivityProfile.from_params(p)).per_type
        cfg = SimConfig(trees=200_000, seed=0)
        z = {kind: _zscore(empirical_case_type_taf(kind, cfg, p), analytic[kind])
             for kind in CASE_TYPES}
        assert max(map(abs, z.values())) < 4.5, z


def _expected_taf(case_type, p):
    """The exact expectation of a tree's ratio in ``empirical_case_type_taf``.

    The oracle's discrete draws become weighted sums: the detection-window day
    (weights i_w), the index's adherence (``a_base``) and, for the app types,
    the channel (``u_app``). The Poisson counts enter linearly, so a tree
    quarantined on day q, warned with latency L and warn fraction f has the
    mean ratio Σ_{d <= last day out} i_w(d)·[(1 - f)·i_c_inf + f·i_c(clip(q + L - d, 0, 13))].
    Like the oracle it reads only the published i_w and the parameters.
    """
    i_w = dict(enumerate(WEIBULL_PROFILE, start=1))
    self_iso = p.t_sym + p.t_plan
    i_a = [w if d <= self_iso else w * (1.0 - p.a_base) for d, w in i_w.items()]
    # i_c on warning days 0..13; from day 13 on it is i_c_inf
    i_c = list(itertools.accumulate(i_a, initial=0.0))[:14]

    def tree(q, latency, fraction):
        mean = 0.0
        for share, out in ((p.a_base, min(self_iso, 14)), (1.0 - p.a_base, 14)):
            mean += share * sum(i_w[d] * ((1.0 - fraction) * i_c[13]
                                          + fraction * i_c[min(max(q + latency - d, 0), 13)])
                                for d in range(1, min(q, out) + 1))
        return mean

    if case_type == "miss":  # never quarantined, warns nobody
        return tree(math.inf, 0, 0.0)
    # (share, latency, warn fraction) of each warning channel
    channels = [(1.0, p.t_ct, p.a_ct * p.f_ct)]
    if case_type.startswith("app"):
        channels = [(p.u_app, p.t_app, p.a_app * p.f_app), (1.0 - p.u_app, *channels[0][1:])]
    if case_type == "sym":
        quarantine = [(1.0, self_iso)]
    else:
        latency, window, backdate = {
            "pers": (p.t_pers, self_iso, 0), "ct": (p.t_ct, self_iso, 0),
            "app_plus": (p.t_sym - 1, p.t_app + p.t_plan + 1, 0),
            "app_minus": (p.t_app, p.t_plan, p.t_sym)}[case_type]
        weights = [i_w.get(backdate + x, 0.0) for x in range(1, window + 1)]
        quarantine = [(w / sum(weights), latency + window + 1 - x)
                      for x, w in enumerate(weights, start=1)]
    return sum(day_share * share * tree(q, latency, fraction)
               for day_share, q in quarantine for share, latency, fraction in channels)


_fraction = st.floats(min_value=0.05, max_value=0.95)

#: parameter sets that pass ``params.check``, delays up to 12 days
_validated_sets = st.builds(
    ModelParams, t_ct=st.integers(1, 12), t_app=st.integers(1, 12), t_sym=st.integers(1, 12),
    t_plan=st.integers(1, 6), t_pers=st.integers(0, 4),
    a_sym=_fraction, f_ct=_fraction, u_app=_fraction,
).filter(lambda p: p.t_sym + p.t_plan >= 3)


class TestExactExpectation:
    """The oracle and the analytic constants against the exact expectation of
    the oracle's tree model, ``_expected_taf``."""

    @pytest.mark.parametrize("overrides", [
        {}, {"t_ct": 2, "t_app": 3}, {"t_ct": 4}, {"t_app": 8},
        {"t_sym": 3, "t_plan": 1, "t_ct": 4, "t_app": 4, "t_pers": 1},
    ], ids=["defaults", "t_ct=2,t_app=3", "t_ct=4", "t_app=8", "t_sym=3,t_plan=1,t_ct=4,t_app=4"])
    def test_oracle_samples_the_model(self, params, overrides):
        p = apply_overrides(params, overrides)
        cfg = SimConfig(trees=200_000, seed=0)
        z = {kind: _zscore(empirical_case_type_taf(kind, cfg, p), _expected_taf(kind, p))
             for kind in CASE_TYPES}
        assert max(map(abs, z.values())) < 4.5, z

    def test_zero_standard_error_set(self, params):
        # every pers index quarantines on day 1 or 2, before the first infectious
        # day 3: the oracle's mean and standard error are exactly 0, which a
        # z-test cannot divide by
        p = apply_overrides(params, {"t_pers": 0, "t_sym": 3, "t_plan": 1})
        outcome = empirical_case_type_taf("pers", SimConfig(trees=20_000, seed=0), p)
        assert (outcome.empirical_taf, outcome.standard_error) == (0.0, 0.0)
        assert _expected_taf("pers", p) == 0.0
        assert LambdaTable.build(p, InfectivityProfile.from_params(p)).per_type["pers"] == 0.0

    @pytest.mark.parametrize("case_type", [CASE_TYPES[0]] + [
        pytest.param(kind, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=f"ROADMAP.md item 2: {_MECHANISMS}"))
        for kind in CASE_TYPES[1:]])
    # quiet and unshrunk, so that a strict xfail stops at its first failing set;
    # the assertion names that set
    @settings(max_examples=150, deadline=None, verbosity=Verbosity.quiet,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(p=_validated_sets)
    def test_constant_is_the_expectation(self, case_type, p):
        analytic = LambdaTable.build(p, InfectivityProfile.from_params(p)).per_type[case_type]
        expected = _expected_taf(case_type, p)
        assert abs(analytic - expected) <= 1e-12, (analytic, expected, p)


class TestBlocks:
    @pytest.mark.parametrize("overrides", [{}, {"u_app": "0.5", "t_app": "3", "t_ct": "5"}])
    def test_block_size_does_not_change_outcomes(self, monkeypatch, overrides, params):
        p = apply_overrides(params, overrides)
        cfg = SimConfig(trees=50, seed=13)

        def outcomes():
            return [empirical_case_type_taf(kind, cfg, p) for kind in CASE_TYPES]

        monkeypatch.setattr(oracle, "_BLOCK", cfg.trees)
        single_block = outcomes()
        for block in (1, 3, 7, cfg.trees + 1):
            monkeypatch.setattr(oracle, "_BLOCK", block)
            assert outcomes() == single_block, block

    def test_peak_memory_does_not_grow_with_the_days_grid(self, params):
        # 100,000 trees x 14 days: one float grid alone is 10.7 MiB
        tracemalloc.start()
        try:
            empirical_case_type_taf("miss", SimConfig(trees=100_000, seed=7), params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("case_type", CASE_TYPES)
    def test_peak_memory_per_case_type(self, case_type, params):
        # the float ratios, the only array of 100,000 trees, and the temporaries
        # of the standard error: about two 8-byte arrays of 100,000 trees (1.5
        # MiB) at once, 2.3 MiB on a process's first call
        tracemalloc.start()
        try:
            empirical_case_type_taf(case_type, SimConfig(trees=100_000, seed=0), params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20


class TestDayLookup:
    """``oracle._day`` finds a warned secondary's number of sums by one bin
    lookup; it must be ``np.searchsorted(_CUM_I_W, x, side="right")`` for
    every x = u * M in [0, ``_CUM_I_W[-1]``]."""

    @staticmethod
    def _assert_searchsorted(x):
        expected = np.searchsorted(oracle._CUM_I_W, x, side="right")
        assert np.array_equal(oracle._day(x), expected), x

    def test_every_sum_and_its_neighbours(self):
        # the sums include x = 0, which counts days 0-2, and 0.99, which days
        # 13-14 repeat
        sums = oracle._CUM_I_W
        x = np.concatenate((sums, np.nextafter(sums, -np.inf), np.nextafter(sums, np.inf)))
        self._assert_searchsorted(x[(x >= 0.0) & (x <= sums[-1])])

    def test_largest_draws_of_every_last_day(self):
        # u * M for the largest uniform, 1 - 2**-53, and M itself, which the
        # product can round up to
        top = oracle._CUM_I_W[:oracle._PROFILE_DAYS + 1]
        self._assert_searchsorted(np.concatenate(((1.0 - 2.0**-53) * top, top)))

    def test_seeded_uniforms(self):
        x = np.random.default_rng(0).random(100_000) * oracle._CUM_I_W[-1]
        self._assert_searchsorted(x)

    def test_no_bin_holds_two_distinct_sums(self):
        sums = oracle._CUM_I_W
        bins = (sums * oracle._SCALE).astype(np.intp)
        for k in np.unique(bins):
            assert np.unique(sums[bins == k]).size == 1, k


def _reference_run_trees(rng, n, quarantine_days, state_weights, latency, warn_fraction, p):
    """``oracle._run_trees`` with the warned-block arithmetic of its first
    design: ``np.searchsorted`` over the cumulative ``i_w``, capped at the last
    day out, then the warning delay clipped to 0..13 and read from ``i_c``,
    added at ``first +`` tree indices into the whole ratio array. The draws
    and the order of the additions are the module's."""
    days = np.arange(1, oracle._PROFILE_DAYS + 1)
    self_iso_day = min(p.t_sym + p.t_plan, oracle._LAST_DAY)
    i_a = np.where(days <= self_iso_day, oracle._I_W, oracle._I_W * (1.0 - p.a_base))
    i_c = np.concatenate(([0.0], np.cumsum(i_a)[:oracle._SATURATION_DAY])) / oracle._R0
    cum_i_w = np.concatenate(([0.0], np.cumsum(oracle._I_W)))
    days_out = (oracle._PROFILE_DAYS, min(self_iso_day, oracle._PROFILE_DAYS))

    ratios = np.zeros(n)
    counts = rng.multinomial(n, state_weights.ravel()).reshape(state_weights.shape)
    first = 0
    for i, channel, adheres in np.argwhere(counts):
        m = int(counts[i, channel, adheres])
        quarantine = int(quarantine_days[i])
        last = min(quarantine, days_out[adheres])
        mean, f = oracle._R0 * m * cum_i_w[last], warn_fraction[channel]
        unwarned, warned = rng.poisson((mean * (1.0 - f), mean * f))
        for start in range(0, unwarned, oracle._BLOCK):
            u = rng.random(min(oracle._BLOCK, unwarned - start))
            np.add.at(ratios, first + (u * m).astype(np.intp), i_c[oracle._SATURATION_DAY])
        for start in range(0, warned, oracle._BLOCK):
            u = rng.random((min(oracle._BLOCK, warned - start), 2))
            day = np.searchsorted(cum_i_w, u[:, 1] * cum_i_w[last], side="right")
            day = np.minimum(day, last)
            warn_delay = quarantine + latency[channel] - day
            np.add.at(ratios, first + (u[:, 0] * m).astype(np.intp),
                      i_c[np.clip(warn_delay, 0, oracle._SATURATION_DAY)])
        first += m
    return ratios


_REFERENCE_SETS = (
    [{}]
    + [{"t_ct": str(t)} for t in range(1, 8)]
    + [{"t_app": str(t)} for t in range(1, 7)]
    + [{"t_sym": "1"}, {"t_sym": "12"}]
    + [{"a_sym": "0"}, {"a_sym": "1", "f_sym": "1"}]  # a_base 0 and 1
    + [{"u_app": "0"}, {"u_app": "1"}]
)


class TestReferenceTrees:
    @pytest.mark.parametrize("block", [1, 7, 8192])
    @pytest.mark.parametrize("overrides", _REFERENCE_SETS,
                             ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()) or "defaults")
    def test_ratios_equal_the_searchsorted_reference(self, monkeypatch, params, overrides, block):
        # every tree's ratio, not only the mean and standard error; 20,000 trees
        # draw several blocks of 8,192 secondaries per case type
        p = apply_overrides(params, overrides)
        run_trees = oracle._run_trees
        runs = []

        def both(rng, *args):
            reference = _reference_run_trees(copy.deepcopy(rng), *args)
            ratios = run_trees(rng, *args)
            runs.append(np.array_equal(ratios, reference))
            return ratios

        monkeypatch.setattr(oracle, "_BLOCK", block)
        monkeypatch.setattr(oracle, "_run_trees", both)
        cfg = SimConfig(trees=20_000 if block == 8192 else 300, seed=23)
        for case_type in CASE_TYPES:
            empirical_case_type_taf(case_type, cfg, p)
        assert runs == [True] * len(CASE_TYPES)


_BAD_CHANNEL_FIELDS = [
    ("f_ct", 1.5), ("a_ct", -0.1), ("t_ct", -1),
    ("f_app", 2.0), ("a_app", -0.2), ("t_app", -3),
]


def _with(params, field, value):
    """``params`` with ``field`` at ``value``; an adherence is set through its
    symptomatic part, which it equals at f_sym = 1."""
    if field.startswith("a_"):
        p = dataclasses.replace(params, f_sym=1.0, **{f"{field}_plus": value})
    else:
        p = dataclasses.replace(params, **{field: value})
    assert getattr(p, field) == value
    return p


class TestChannelRejections:
    @pytest.mark.parametrize("field, value", _BAD_CHANNEL_FIELDS)
    @pytest.mark.parametrize("case_type", CASE_TYPES)
    def test_case_type_rejects_bad_channel_field(self, case_type, field, value, params):
        p = _with(params, field, value)
        with pytest.raises(ValueError, match=field):
            empirical_case_type_taf(case_type, SimConfig(trees=10), p)

    def test_derived_adherence_is_reported_by_the_field_set(self, params):
        p = dataclasses.replace(params, f_sym=1.0, a_ct_plus=1.5)
        with pytest.raises(ValueError, match=r"^a_ct_plus must lie in \[0, 1\], got 1\.5$"):
            empirical_case_type_taf("ct", SimConfig(trees=10), p)


class TestHugeDelays:
    @pytest.mark.parametrize("field", ["t_plan", "t_ct", "t_app", "t_pers"])
    @pytest.mark.parametrize("case_type", CASE_TYPES)
    def test_huge_delay_gives_the_trees_of_a_long_one(self, case_type, field, params):
        def outcome(days):
            p = dataclasses.replace(params, **{field: days})
            return empirical_case_type_taf(case_type, SimConfig(trees=500, seed=3), p)

        assert outcome(10**400) == outcome(60)

    def test_zero_weight_window_names_the_huge_backdate(self, params):
        p = dataclasses.replace(params, t_sym=10**21)
        with pytest.raises(ValueError, match=rf"^t_sym must be <= 12, got {10**21}$"):
            empirical_case_type_taf("app_minus", SimConfig(trees=10), p)


def _imported_names(module) -> set:
    """Every module and name the source of ``module`` imports, split at dots."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
    return imported


class TestIndependence:
    def test_imports_nothing_from_the_analytic_layer(self):
        imported = _imported_names(oracle)
        assert "taf" not in imported
        assert "InfectivityProfile" not in imported  # only the published i_w
        assert "infectivity" in imported  # the walk does see the module's imports

    @pytest.mark.parametrize("module", [cases, counterfactual], ids=lambda module: module.__name__)
    def test_ingestion_and_replay_do_not_import_the_analytic_layer(self, module):
        imported = _imported_names(module)
        assert "taf" not in imported
        assert "params" in imported  # the walk does see the module's imports

    def test_case_types_match_analytic_layer(self):
        assert oracle.CASE_TYPES is CASE_TYPES
