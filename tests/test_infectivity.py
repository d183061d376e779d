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


def test_zero_base_adherence_leaves_profile_untouched(params):
    p = apply_overrides(params, {"a_sym": "0"})
    profile = InfectivityProfile.from_params(p)
    np.testing.assert_allclose(profile.i_a, profile.i_w)
    assert profile.i_c_inf == pytest.approx(0.99)


def test_profile_arrays_are_read_only(profile):
    with pytest.raises(ValueError):
        profile.i_w[0] = 1.0


def test_profiles_compare_and_hash_without_reading_their_arrays(params):
    first, second = InfectivityProfile.from_params(params), InfectivityProfile.from_params(params)
    assert (first == second) is False
    assert (first == first) is True
    assert len({first, second, first}) == 2
