import numpy as np
import pytest

from traceavert.infectivity import WEIBULL_PROFILE, InfectivityProfile
from traceavert.params import apply_overrides


def test_base_profile_mass(profile):
    # the day-by-day discretization deliberately carries 0.99 total mass
    assert profile.i_w.sum() == pytest.approx(0.99)
    assert profile.i_w.size == 14
    assert tuple(profile.i_w) == WEIBULL_PROFILE


def test_adhering_profile_truncates_after_self_isolation(params, profile):
    cut = params.t_sym + params.t_plan
    np.testing.assert_allclose(profile.i_a[:cut], profile.i_w[:cut])
    np.testing.assert_allclose(
        profile.i_a[cut:], profile.i_w[cut:] * (1 - params.a_base)
    )


def test_cumulative_profile_is_running_sum(profile):
    np.testing.assert_allclose(profile.i_c, np.cumsum(profile.i_a))
    assert np.all(np.diff(profile.i_c) >= 0)


def test_saturation_value(profile):
    assert profile.i_c_inf == pytest.approx(0.9340, abs=1e-12)
    assert profile.i_c[-1] == pytest.approx(profile.i_c_inf)


def test_i_c_at_boundaries(profile):
    assert profile.i_c_at(0) == 0.0
    assert profile.i_c_at(-3) == 0.0
    assert profile.i_c_at(1) == 0.0
    assert profile.i_c_at(5) == pytest.approx(0.62)
    assert profile.i_c_at(13) == pytest.approx(profile.i_c_inf)
    assert profile.i_c_at(20) == pytest.approx(profile.i_c_inf)
    assert profile.i_c_at(float("inf")) == pytest.approx(profile.i_c_inf)


def test_i_c_at_accepts_arrays(profile):
    days = np.array([[-1.0, 4.0], [13.0, np.inf]])
    got = profile.i_c_at(days)
    np.testing.assert_allclose(
        got, [[0.0, 0.44], [profile.i_c_inf, profile.i_c_inf]]
    )


def test_i_w_at_outside_window_is_zero(profile):
    assert profile.i_w_at(0) == 0.0
    assert profile.i_w_at(15) == 0.0
    assert profile.i_w_at(3) == pytest.approx(0.22)


def test_zero_base_adherence_leaves_profile_untouched(params):
    p = apply_overrides(params, {"a_base": "0", "a_sym": "0"})
    profile = InfectivityProfile.from_params(p)
    np.testing.assert_allclose(profile.i_a, profile.i_w)
    assert profile.i_c_inf == pytest.approx(0.99)


def test_profile_arrays_are_read_only(profile):
    with pytest.raises(ValueError):
        profile.i_w[0] = 1.0
