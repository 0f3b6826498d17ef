import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from urnrates.model import (
    InitialProfile,
    Path,
    Schedule,
    TruncatedState,
    config_from_dict,
    entropy_term,
    entropy_terms,
    increments,
    realize_initial,
    sigma,
    validate_path,
)


# ---------------------------------------------------------------- entropy

def test_entropy_conventions():
    assert entropy_term(0.0, 0.0) == 0.0
    assert entropy_term(0.0, 0.3) == 0.0
    assert entropy_term(0.5, 0.0) == math.inf
    assert_allclose(entropy_term(0.5, 0.25), 0.5 * math.log(2.0))


def test_entropy_terms_matches_scalar():
    x = np.array([0.0, 0.2, 0.5, 0.3])
    y = np.array([0.0, 0.0, 0.25, 0.3])
    out = entropy_terms(x, y)
    assert out[0] == 0.0
    assert out[1] == math.inf
    assert_allclose(out[2], entropy_term(0.5, 0.25))
    assert out[3] == 0.0


def test_entropy_terms_broadcasts():
    x = np.array([[0.5], [0.25]])
    y = np.array([0.5, 0.25, 0.125])
    assert entropy_terms(x, y).shape == (2, 3)


@given(st.floats(1e-9, 1.0), st.floats(1e-9, 1.0))
def test_entropy_term_convex_lower_bound(x, y):
    # x log(x/y) >= x - y, the standard tangent bound
    assert entropy_term(x, y) >= (x - y) - 1e-12


# --------------------------------------------------------------- schedule

def test_constant_schedule_bounds_are_exact():
    s = Schedule.constant(0.25, 2.0)
    assert s.p_min == s.p_max == 0.25
    assert s.beta_min == s.beta_max == 2.0


def test_two_phase_schedule_bounds_and_lookup():
    s = Schedule.from_segments([(0.0, 0.0, 8.0), (0.01, 0.0, 1.0)])
    assert s.beta_min == 1.0 and s.beta_max == 8.0
    assert_allclose(s.beta_at(np.array([0.0, 0.005, 0.01, 0.5])),
                    [8.0, 8.0, 1.0, 1.0])
    assert_allclose(s.breakpoints, [0.0, 0.01, 1.0])


def test_polynomial_schedule_sampled_bounds():
    # p(t) = 0.1 + 0.2 t on one segment
    s = Schedule.from_segments([(0.0, (0.1, 0.2), 1.0)])
    assert s.p_min == 0.1 and s.p_max == 0.1 + 0.2
    assert s.beta_min == s.beta_max == 1.0
    assert_allclose(s.p_at(np.array([0.5])), [0.2])
    assert not s.is_piecewise_constant


def test_schedule_bounds_are_certified_inside_segments():
    # p falls from 0.5 to -0.5 on a segment of width 1e-4: no sample grid
    # coarser than the segment sees it, the endpoints do
    with pytest.raises(ValueError, match="p\\(t\\) must stay in"):
        Schedule.from_segments([(0, 0, 1), (0.5, (5000.5, -10000.0), 1), (0.5001, 0, 1)])
    # p(t) = 0.5 + t - t^2 peaks inside its segment, at t = 0.5
    s = Schedule.from_segments([(0.0, (0.5, 1.0, -1.0), 1.0)])
    assert s.p_min == 0.5 and s.p_max == 0.75
    with pytest.raises(ValueError):
        Schedule.from_segments([(0.0, (0.5, 2.0, -2.0), 1.0)])     # peak p(0.5) = 1


def test_schedule_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Schedule.constant(1.0, 1.0)        # p must stay below 1
    with pytest.raises(ValueError):
        Schedule.constant(0.0, 0.0)        # beta must be positive
    with pytest.raises(ValueError):
        Schedule.constant(-0.1, 1.0)
    with pytest.raises(ValueError):
        Schedule.from_segments([(0.5, 0.0, 1.0)])   # must start at 0
    with pytest.raises(ValueError):
        Schedule.from_segments([(0.0, 0.0, 1.0), (0.0, 0.0, 2.0)])


def test_values_exact_returns_fractions():
    s = Schedule.from_segments([(0.0, Fraction(1, 3), 2), (0.5, 0.0, 1.0)])
    p, beta = s.values_exact(Fraction(1, 4))
    assert p == Fraction(1, 3) and beta == 2
    p2, _ = s.values_exact(Fraction(1, 2))
    assert p2 == 0


def test_sigma_affine_on_constant_segments():
    s = Schedule.constant(0.2, 3.0)
    prof = InitialProfile.from_masses((0.1, 0.05), c_weighted=0.2)
    t = np.linspace(0.0, 1.0, 7)
    expect = (1.0 + 3.0) * t + 0.2 + 0.15 * 3.0
    assert_allclose(sigma(s, prof, t), expect, rtol=0, atol=1e-15)
    # sigma(0) = c_weighted + c_total * beta(0)
    assert_allclose(float(sigma(s, prof, 0.0)), 0.2 + 0.15 * 3.0, rtol=1e-14)


# ---------------------------------------------------------------- profile

def test_profile_totals_and_truncation():
    prof = InitialProfile.from_masses((0.5, 0.25, 0.125, 0.0625))
    assert_allclose(prof.c_total, 0.9375)
    assert_allclose(prof.c_weighted, 0.25 + 2 * 0.125 + 3 * 0.0625)
    vec = prof.truncated(1)
    assert_allclose(vec, [0.5, 0.25, 0.1875])  # tail 0.125+0.0625 aggregated
    assert not prof.condensed_flag


def test_condensed_profile_flag():
    prof = InitialProfile.from_masses((0.5,), c_weighted=1.0)
    assert prof.condensed_flag
    with pytest.raises(ValueError):
        InitialProfile.from_masses((0.0, 0.5), c_weighted=0.1)  # below visible


def test_empty_profile():
    prof = InitialProfile.empty()
    assert prof.c_total == 0.0 and prof.c_weighted == 0.0
    assert_allclose(prof.truncated(3), np.zeros(5))


# ------------------------------------------------------------- increments

def test_increment_rows_change_urn_count_correctly():
    f = increments(3)
    assert f.shape == (5, 5)
    # every move adds exactly one urn-or-ball unit of count mass
    assert_allclose(f.sum(axis=1), np.ones(5))
    # ball into empty urn: one fewer effective empty, one more size-1
    assert list(f[0]) == [0, 1, 0, 0, 0]
    # ball into size-2 urn plus fresh empty urn
    assert list(f[2]) == [1, 0, -1, 1, 0]
    # aggregated landing only adds the fresh empty urn
    assert list(f[4]) == [1, 0, 0, 0, 0]


def test_truncated_state_validation():
    TruncatedState(n=10, j=0, counts=(2, 0, 0, 0), urn_total=2, ball_total=0)
    with pytest.raises(ValueError):
        TruncatedState(n=10, j=0, counts=(1, 0, 0, 0), urn_total=2, ball_total=0)
    with pytest.raises(ValueError):
        # aggregate slot implies at least (d+1) balls each
        TruncatedState(n=10, j=0, counts=(0, 0, 0, 1), urn_total=1, ball_total=1)


# ------------------------------------------------------------------- path

def test_path_interpolation_and_slopes():
    times = np.array([0.0, 0.25, 1.0])
    vals = np.array([[0.0, 0.0], [0.25, 0.0], [0.25, 0.75]])
    path = Path.from_knots(times, vals)
    assert path.d == 0
    assert_allclose(path.at(0.125), [0.125, 0.0])
    assert_allclose(path.at(np.array([0.5, 1.0])), [[0.25, 0.25], [0.25, 0.75]])
    assert_allclose(path.slopes, [[1.0, 0.0], [0.0, 1.0]])
    assert_allclose(path.slope_at(0.9), [0.0, 1.0])


def test_path_rejects_malformed_knots():
    with pytest.raises(ValueError):
        Path.from_knots([0.0, 0.5], [[0.0, 0.0]])
    with pytest.raises(ValueError):
        Path.from_knots([0.0, 0.5, 0.5, 1.0], np.zeros((4, 3)))
    with pytest.raises(ValueError):
        Path.from_knots([0.1, 1.0], np.zeros((2, 3)))


def test_validate_path_accepts_star_and_flags_bad_sums():
    prof = InitialProfile.empty()
    star = Path.from_knots([0.0, 1.0], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert validate_path(star, prof).is_admissible

    # slope components summing to 2 are not reachable (one ball per step)
    double = Path.from_knots([0.0, 1.0], [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    rep = validate_path(double, prof)
    assert not rep.is_admissible
    assert any(v[0] == "slope_sum" for v in rep.violations)


def test_validate_path_flags_negative_and_escape():
    prof = InitialProfile.empty()
    neg = Path.from_knots([0.0, 1.0], [[0.0, 0.0, 0.0], [-0.5, 1.5, 0.0]])
    rep = validate_path(neg, prof)
    assert any(v[0] == "nonnegative" for v in rep.violations)
    assert any(v[0] == "cumulative_slope_lower" for v in rep.violations)

    # d = 2: all visible partial sums zero gives escape rate 3 > 1
    esc = Path.from_knots([0.0, 1.0], np.array([[0.0] * 4, [0.0, 0.0, 0.0, 1.0]]))
    rep = validate_path(esc, prof)
    assert any(v[0] == "escape_rate" for v in rep.violations)
    assert rep.worst() >= 1.0 - 1e-12


def test_validate_path_initial_value_check():
    prof = InitialProfile.from_masses((0.5,))
    wrong = Path.from_knots([0.0, 1.0], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    rep = validate_path(wrong, prof)
    assert any(v[0] == "initial_value" for v in rep.violations)


# --------------------------------------------------------------- realize

def test_realize_initial_largest_remainder():
    prof = InitialProfile.from_masses((0.305, 0.305, 0.39))
    st0 = realize_initial(prof, 10, d=2)
    assert sum(st0.counts) == 10
    assert st0.counts == (3, 3, 4, 0)
    assert st0.ball_total == 3 + 2 * 4


def test_realize_initial_rescaling_error_bound():
    rng = np.random.default_rng(5)
    for _ in range(20):
        raw = rng.uniform(size=4)
        c = raw / raw.sum() * rng.uniform(0.3, 1.0)
        prof = InitialProfile.from_masses(c)
        for n in (7, 23, 100):
            state = realize_initial(prof, n, d=2)
            back = np.asarray(state.counts, dtype=float) / n
            target = prof.truncated(2)
            assert np.abs(back - target).max() <= 1.0 / n + 1e-12


def test_realize_initial_requires_some_urn():
    with pytest.raises(ValueError):
        realize_initial(InitialProfile.empty(), 100, d=2)
    st0 = realize_initial(InitialProfile.empty(), 100, d=2, seed_config=(2, 0, 0, 0))
    assert st0.counts == (2, 0, 0, 0)


def test_realize_initial_condensed_needs_aggregate_urn():
    prof = InitialProfile.from_masses((0.5,), c_weighted=1.0)
    with pytest.raises(ValueError):
        realize_initial(prof, 10, d=1)


# ---------------------------------------------------------------- config

def test_config_round_trip():
    cfg = {
        "schedule": [{"t_start": 0.0, "p": 0.0, "beta": 8.0},
                     {"t_start": 0.01, "p": 0.0, "beta": 1.0}],
        "profile": {"c": [0.1, 0.2]},
        "seed_config": [2, 0, 0, 0],
    }
    sched, prof, seed = config_from_dict(cfg)
    assert sched.beta_max == 8.0
    assert_allclose(prof.c_total, 0.3)
    assert seed == (2, 0, 0, 0)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"schedule": [], "typo": 1})
    with pytest.raises(ValueError, match="unknown schedule keys"):
        config_from_dict({"schedule": [{"t_start": 0.0, "p": 0.0, "beta": 1.0,
                                        "gamma": 2.0}]})
    with pytest.raises(ValueError, match="unknown profile keys"):
        config_from_dict({"schedule": [{"t_start": 0.0, "p": 0.0, "beta": 1.0}],
                          "profile": {"mass": [1.0]}})
    with pytest.raises(ValueError, match="schedule"):
        config_from_dict({})


# -------------------------------------------------- random-path property

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2 ** 31 - 1))
def test_sorted_simplex_slopes_always_validate(d, seed):
    """Any decreasing probability vector maps to an admissible linear path."""
    rng = np.random.default_rng(seed)
    w = np.sort(rng.dirichlet(np.ones(d + 2))[: d + 1])[::-1]
    v = np.empty(d + 2)
    v[0] = 1.0 - w[0]
    v[1: d + 1] = w[:-1] - w[1:]
    v[d + 1] = w[-1]
    path = Path.from_knots([0.0, 1.0], np.vstack([np.zeros(d + 2), v]))
    rep = validate_path(path, InitialProfile.empty())
    assert rep.is_admissible, rep.violations
