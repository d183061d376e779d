import math

import pytest

from traceavert.params import (
    ModelParams,
    apply_overrides,
    default_params,
    dump_config,
    load_config,
    params_from_config,
    validate,
)


class TestDefaults:
    def test_documented_defaults(self, params):
        assert params.ihr == 0.0132
        assert params.iir == 0.0025
        assert params.ifr == 0.0060
        assert params.f_sym == 0.70
        assert params.a_sym == 0.50
        assert params.e_ct == 0.60
        assert params.e_app == 0.58
        assert params.f_ct == 0.50
        assert params.f_app == 0.50
        assert params.u_app == 0.16
        assert params.presym_fraction == 0.20
        assert (params.t_sym, params.t_plan, params.t_ct,
                params.t_app, params.t_pers) == (5, 2, 3, 2, 1)

    def test_composites_derived_from_constituents(self, params):
        assert params.a_base == pytest.approx(params.a_sym * params.f_sym)
        assert params.a_base == pytest.approx(0.35)
        assert params.a_ct == pytest.approx(
            params.f_sym * params.a_ct_plus + (1 - params.f_sym) * params.a_ct_minus
        )
        assert params.a_ct == pytest.approx(0.675)
        assert params.a_app == pytest.approx(0.675)

    def test_defaults_validate_clean(self, params):
        report = validate(params)
        assert report.ok
        assert report.violations == ()

    def test_params_are_immutable(self, params):
        with pytest.raises(AttributeError):
            params.u_app = 0.5


class TestOverrides:
    def test_override_simple_field(self, params):
        p = apply_overrides(params, {"u_app": "0.30"})
        assert p.u_app == 0.30
        assert p.ihr == params.ihr

    def test_unknown_key_rejected(self, params):
        with pytest.raises(ValueError, match="unknown parameter"):
            apply_overrides(params, {"uapp": "0.3"})

    def test_constituent_override_recomputes_composite(self, params):
        p = apply_overrides(params, {"a_sym": "0.6"})
        assert p.a_base == pytest.approx(0.6 * params.f_sym)

    def test_explicit_composite_override_wins(self, params):
        p = apply_overrides(params, {"a_sym": "0.6", "a_base": "0.10"})
        assert p.a_base == 0.10

    def test_delay_must_be_integer(self, params):
        with pytest.raises(ValueError, match="t_ct"):
            apply_overrides(params, {"t_ct": "2.5"})

    def test_integer_valued_float_accepted_for_delay(self, params):
        p = apply_overrides(params, {"t_ct": "4"})
        assert p.t_ct == 4 and isinstance(p.t_ct, int)

    def test_garbage_value_rejected(self, params):
        with pytest.raises(ValueError, match="u_app"):
            apply_overrides(params, {"u_app": "lots"})


class TestValidation:
    def test_fraction_out_of_range_flagged(self, params):
        p = apply_overrides(params, {"u_app": "1.5"})
        report = validate(p)
        assert not report.ok
        assert any("u_app" in v for v in report.violations)

    def test_negative_delay_flagged(self, params):
        p = apply_overrides(params, {"t_plan": "-1"})
        assert any("t_plan" in v for v in validate(p).violations)

    def test_incoherent_composite_flagged(self, params):
        p = apply_overrides(params, {"a_base": "0.9"})
        report = validate(p)
        assert any("a_base" in v for v in report.violations)

    def test_composite_within_tolerance_accepted(self, params):
        p = apply_overrides(params, {"a_base": str(0.35 + 0.004)})
        assert validate(p).ok


class TestConfigFiles:
    def test_roundtrip_exact(self, tmp_path, params):
        path = tmp_path / "model.conf"
        dump_config(params, path)
        loaded = params_from_config(path)
        assert loaded == params

    def test_file_values_applied(self, tmp_path):
        path = tmp_path / "model.conf"
        path.write_text("# scenario\nu_app = 0.30\n\nt_ct = 2\n")
        p = params_from_config(path)
        assert p.u_app == 0.30
        assert p.t_ct == 2

    def test_cli_overrides_beat_file(self, tmp_path):
        path = tmp_path / "model.conf"
        path.write_text("u_app = 0.30\n")
        p = params_from_config(path, {"u_app": "0.40"})
        assert p.u_app == 0.40

    def test_unknown_key_names_file_and_line(self, tmp_path):
        path = tmp_path / "model.conf"
        path.write_text("# ok\nnope = 1\n")
        with pytest.raises(ValueError, match=r"model\.conf:2"):
            params_from_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "model.conf"
        path.write_text("u_app = 0.1\nu_app = 0.2\n")
        with pytest.raises(ValueError, match="duplicate"):
            params_from_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "model.conf"
        path.write_text("just some words\n")
        with pytest.raises(ValueError, match=r"model\.conf:1"):
            params_from_config(path)

    def test_load_config_returns_raw_strings(self, tmp_path):
        path = tmp_path / "model.conf"
        path.write_text("u_app = 0.30\n")
        assert load_config(path) == {"u_app": "0.30"}

    def test_config_composite_recompute_from_file(self, tmp_path):
        path = tmp_path / "model.conf"
        path.write_text("a_sym = 0.6\n")
        p = params_from_config(path)
        assert p.a_base == pytest.approx(0.42)


def test_direct_construction_matches_default_factory():
    p = ModelParams()
    d = default_params()
    # the bare dataclass carries the same constituent defaults; the factory
    # additionally guarantees the composites are exactly consistent
    assert p.f_sym == d.f_sym
    assert math.isclose(p.a_base, d.a_base, abs_tol=0.005)
