import ast
import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from traceavert import oracle
from traceavert.infectivity import InfectivityProfile
from traceavert.oracle import SimConfig, empirical_case_type_taf
from traceavert.params import apply_overrides
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


class TestSimulateTrees:
    """The two case types whose trees share one quarantine day: ``miss``, whose
    index is never quarantined and warns nobody, and ``sym``, whose index is
    quarantined on day t_sym + t_plan (7 at the defaults) and whose contacts
    are warned by tracing."""

    def test_determinism(self, params):
        cfg = SimConfig(trees=5_000, seed=11)
        first = empirical_case_type_taf("sym", cfg, params)
        second = empirical_case_type_taf("sym", cfg, params)
        assert first == second

    def test_no_intervention_matches_missed_constant(self, params, lambdas):
        cfg = SimConfig(trees=20_000, seed=0)
        outcome = empirical_case_type_taf("miss", cfg, params)
        assert abs(_zscore(outcome, lambdas["miss"])) < 2

    def test_full_potential_without_any_adherence(self, params):
        p = apply_overrides(params, {"a_sym": "0"})
        cfg = SimConfig(trees=20_000, seed=0)
        outcome = empirical_case_type_taf("miss", cfg, p)
        # the day-by-day profile carries 0.99 of the infection potential, so
        # a fully unimpeded tree realizes 0.99 of it at both generations
        assert abs(_zscore(outcome, 0.99**2)) < 2

    def test_ct_channel_quarantine_day7_matches_analytic(self, params, table):
        assert params.t_sym + params.t_plan == 7
        analytic = table.lambda_ct_row[6]
        outcome = empirical_case_type_taf("sym", SimConfig(trees=20_000, seed=0), params)
        assert abs(_zscore(outcome, analytic)) < 2

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


class TestCaseTypeTaf:
    def test_unknown_case_type_rejected(self, params):
        with pytest.raises(ValueError, match="case type"):
            empirical_case_type_taf("mystery", SimConfig(trees=10), params)

    @pytest.mark.parametrize("case_type", CASE_TYPES)
    def test_matches_analytic_within_2se(self, case_type, params, lambdas):
        cfg = SimConfig(trees=20_000, seed=5)
        outcome = empirical_case_type_taf(case_type, cfg, params)
        assert abs(_zscore(outcome, lambdas[case_type])) < 2

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

    def test_determinism(self, params):
        cfg = SimConfig(trees=5_000, seed=21)
        runs = [
            empirical_case_type_taf("app_plus", cfg, params)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_simulate_output_pinned(self, params):
        # exact outcomes of numpy's seeded Generator stream: any change to which
        # draws the oracle makes, or in what order, moves them
        pinned = {
            "miss": (0.8872377333333333, 0.007423858800233402),
            "sym": (0.696736, 0.006426776751254073),
            "pers": (0.38112586666666665, 0.00552465479125328),
            "ct": (0.6237358999999999, 0.006280071741664587),
            "app_minus": (0.25744613333333327, 0.004040001000985111),
            "app_plus": (0.5957609333333334, 0.006042153077152454),
        }
        cfg = SimConfig(trees=5_000, seed=21)
        for case_type, (taf, se) in pinned.items():
            outcome = empirical_case_type_taf(case_type, cfg, params)
            assert (outcome.empirical_taf, outcome.standard_error) == (taf, se), case_type

    def test_app_heavy_output_pinned(self, params):
        # everyone uses the app, whose warning is slower than at the defaults,
        # and tracing is slower still: pins the via_app latency and fraction mix
        pinned = {
            "miss": (0.876092, 0.009723672298305825),
            "sym": (0.7543591666666668, 0.008830246945277604),
            "pers": (0.43071944444444443, 0.0076311086564202595),
            "ct": (0.7939517777777777, 0.009235386167955115),
            "app_minus": (0.42368644444444437, 0.006425880787899506),
            "app_plus": (0.6541236111111112, 0.008174143071182865),
        }
        p = apply_overrides(params, {"u_app": "1", "t_app": "3", "t_ct": "5"})
        cfg = SimConfig(trees=3_000, seed=21)
        for case_type, expected in pinned.items():
            outcome = empirical_case_type_taf(case_type, cfg, p)
            assert (outcome.empirical_taf, outcome.standard_error) == expected, case_type

    def test_output_pinned_across_blocks(self, params):
        # 20,000 trees are two full blocks of the oracle and a partial third, so
        # these pin how each block's cells map back to their trees
        assert 2 * oracle._BLOCK < 20_000 < 3 * oracle._BLOCK
        pinned = {
            "miss": (0.8731187666666664, 0.003733634424826174),
            "sym": (0.6938378999999999, 0.0031863914277276157),
            "pers": (0.3739610333333333, 0.0026989908993931464),
            "ct": (0.6151759416666666, 0.0031336356218883503),
            "app_minus": (0.25006509999999993, 0.0019809599096809716),
            "app_plus": (0.5901047666666667, 0.002986014043219104),
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
    return pytest.param(overrides, marks=pytest.mark.xfail(strict=True, reason=reason))


class TestAwayFromDefaults:
    """All six constants against the oracle on fixed validated parameter sets."""

    @pytest.mark.parametrize("overrides", [
        {"t_ct": 2, "t_app": 3},
        _known_gap({"t_ct": 4}, f"app_minus z = -16.9: {_MECHANISMS}"),
        _known_gap({"t_app": 8}, f"app_plus z = -9.9: {_MECHANISMS}"),
        _known_gap({"t_sym": 3, "t_plan": 1, "t_ct": 4, "t_app": 4, "t_pers": 1},
                   f"pers z = -46.7: {_MECHANISMS}"),
    ], ids=["t_ct=2,t_app=3", "t_ct=4", "t_app=8", "t_sym=3,t_plan=1,t_ct=4,t_app=4"])
    def test_every_constant_within_4_5_se(self, params, overrides):
        p = apply_overrides(params, overrides)
        analytic = LambdaTable.build(p, InfectivityProfile.from_params(p)).per_type
        cfg = SimConfig(trees=200_000, seed=0)
        z = {kind: _zscore(empirical_case_type_taf(kind, cfg, p), analytic[kind])
             for kind in CASE_TYPES}
        assert max(map(abs, z.values())) < 4.5, z


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


class TestIndependence:
    def test_imports_nothing_from_the_analytic_layer(self):
        tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    imported.update(alias.name.split("."))
        assert "taf" not in imported
        assert "InfectivityProfile" not in imported  # only the published i_w
        assert "infectivity" in imported  # the walk does see the module's imports

    def test_case_types_match_analytic_layer(self):
        assert oracle.CASE_TYPES == CASE_TYPES
