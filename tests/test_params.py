import dataclasses
import sys
from fractions import Fraction

import numpy as np
import pytest

from traceavert import InfectivityProfile, LambdaTable, averted_app, averted_ct
from traceavert.oracle import SimConfig, empirical_case_type_taf
from traceavert.params import (
    ModelParams,
    apply_overrides,
    default_params,
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

    def test_delay_must_be_integer(self, params):
        with pytest.raises(ValueError, match="t_ct"):
            apply_overrides(params, {"t_ct": "2.5"})

    def test_integer_valued_float_accepted_for_delay(self, params):
        p = apply_overrides(params, {"t_ct": "4"})
        assert p.t_ct == 4 and isinstance(p.t_ct, int)

    @pytest.mark.parametrize("value, days", [
        ("100000000000000000000000", 10**23), (10**23, 10**23), ("5.0", 5), (5.0, 5),
        (np.int64(2**60 + 1), 2**60 + 1),
    ], ids=["text", "int", "float-text", "float", "numpy-int"])
    def test_whole_delay_keeps_every_digit(self, params, value, days):
        p = apply_overrides(params, {"t_sym": value})
        assert p.t_sym == days and type(p.t_sym) is int

    def test_delay_past_the_float_range_runs_as_a_long_one(self, params, series):
        def results(days):
            p = apply_overrides(params, {"t_ct": days})
            per_type = LambdaTable.build(p, InfectivityProfile.from_params(p)).per_type
            trees = [empirical_case_type_taf(kind, SimConfig(trees=200, seed=1), p)
                     for kind in per_type]
            runs = (averted_ct(series, per_type, p), averted_app(series, per_type, p))
            reports = [(r.c_not_weekly.tolist(), r.s_weekly.tolist(), r.rt_weekly.tolist())
                       for r in runs]
            return p.t_ct, per_type, trees, reports

        huge, long = results(10**400), results(100_000)
        assert huge[0] == 10**400 and type(huge[0]) is int
        assert huge[1:] == long[1:]

    @pytest.mark.parametrize("text", ["5.5", "inf", "-inf", "nan", "lots", ""])
    def test_non_integer_delay_text_is_named(self, params, text):
        with pytest.raises(ValueError, match=r"invalid value for parameter 't_ct'"):
            apply_overrides(params, {"t_ct": text})

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python converts integer text of any length")
    def test_delay_text_past_the_int_digit_limit_is_named(self, params):
        text = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ValueError, match=r"invalid value for parameter 't_ct'"):
            apply_overrides(params, {"t_ct": text})

    def test_garbage_value_rejected(self, params):
        with pytest.raises(ValueError, match="u_app"):
            apply_overrides(params, {"u_app": "lots"})

    @pytest.mark.parametrize("name, value", [("u_app", 10**400), ("t_ct", Fraction(10**400))],
                             ids=["int-u_app", "Fraction-t_ct"])
    def test_number_past_the_float_range_is_named(self, params, name, value):
        with pytest.raises(ValueError, match=rf"^invalid value for parameter '{name}'"):
            apply_overrides(params, {name: value})

    @pytest.mark.parametrize("value", [True, False, np.True_], ids=["True", "False", "numpy"])
    @pytest.mark.parametrize("name", ["t_ct", "u_app"])
    def test_bool_is_not_a_value(self, params, name, value):
        # validate rejects bools, so an override does not turn one into a number
        with pytest.raises(ValueError, match=rf"^invalid value for parameter '{name}': "):
            apply_overrides(params, {name: value})


class TestValidation:
    def test_fraction_out_of_range_flagged(self, params):
        p = apply_overrides(params, {"u_app": "1.5"})
        report = validate(p)
        assert not report.ok
        assert any("u_app" in v for v in report.violations)

    def test_negative_delay_flagged(self, params):
        p = apply_overrides(params, {"t_plan": "-1"})
        assert any("t_plan" in v for v in validate(p).violations)

    @pytest.mark.parametrize("name, value, kind", [
        ("f_ct", True, "bool"), ("u_app", False, "bool"), ("ihr", True, "bool"),
        # under NEP 50, float32 * float stays float32: the model would lose precision
        ("u_app", np.float32(0.16), "float32"),
    ], ids=["f_ct-True", "u_app-False", "ihr-True", "float32"])
    def test_fraction_of_another_type_names_it(self, params, name, value, kind):
        p = dataclasses.replace(params, **{name: value})
        assert validate(p).violations == (f"{name} must be an int or float, got {kind}",)


class TestConfigFiles:
    def test_roundtrip_exact(self, tmp_path, params):
        path = tmp_path / "model.conf"
        path.write_text("".join(f"{f.name} = {getattr(params, f.name)!r}\n"
                                for f in dataclasses.fields(params)), encoding="utf-8")
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

    @pytest.mark.parametrize("bom, end", [("\ufeff", "\n"), ("", "\r\n"), ("", "\r")],
                             ids=["byte_order_mark", "crlf", "cr"])
    def test_read_as_data_files_are(self, tmp_path, bom, end):
        # a byte-order mark is dropped; any line end counts lines as a text file does
        plain, variant = tmp_path / "plain.conf", tmp_path / "variant.conf"
        lines = ["# scenario", "u_app = 0.30", "", "t_ct = 2"]
        plain.write_text("\n".join(lines) + "\n", encoding="utf-8")
        variant.write_bytes((bom + end.join(lines) + end + "nope = 1" + end).encode())
        with pytest.raises(ValueError, match=r"variant\.conf:5: unknown parameter 'nope'$"):
            params_from_config(variant)
        variant.write_bytes((bom + end.join(lines) + end).encode())
        assert params_from_config(variant) == params_from_config(plain) != default_params()

    def test_config_composite_recompute_from_file(self, tmp_path):
        path = tmp_path / "model.conf"
        path.write_text("a_sym = 0.6\n")
        p = params_from_config(path)
        assert p.a_base == pytest.approx(0.42)


def test_direct_construction_matches_default_factory():
    assert ModelParams() == default_params() == params_from_config(None)
