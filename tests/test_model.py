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
    _polyval,
    config_from_dict,
    entropy_terms,
    increments,
    realize_initial,
    resolve_initial,
    sigma,
    validate_path,
)


# ---------------------------------------------------------------- entropy

def test_entropy_conventions():
    assert entropy_terms(0.0, 0.0) == 0.0
    assert entropy_terms(0.0, 0.3) == 0.0
    assert entropy_terms(0.5, 0.0) == math.inf
    assert_allclose(entropy_terms(0.5, 0.25), 0.5 * math.log(2.0))


def test_entropy_terms_matches_scalar():
    x = np.array([0.0, 0.2, 0.5, 0.3])
    y = np.array([0.0, 0.0, 0.25, 0.3])
    out = entropy_terms(x, y)
    assert out[0] == 0.0
    assert out[1] == math.inf
    assert_allclose(out[2], 0.5 * math.log(2.0))
    assert out[3] == 0.0


def test_entropy_terms_broadcasts():
    x = np.array([[0.5], [0.25]])
    y = np.array([0.5, 0.25, 0.125])
    assert entropy_terms(x, y).shape == (2, 3)


def _masked_entropy_terms(x, y):
    # the conventions written out by masks, as the second route
    out = np.zeros(np.broadcast(x, y).shape)
    pos = x > 0.0
    ok = pos & (y > 0.0)
    np.divide(x, y, out=out, where=ok)
    np.log(out, out=out, where=ok)
    np.multiply(x, out, out=out, where=ok)
    np.copyto(out, np.inf, where=pos & (y <= 0.0))
    return out


def test_entropy_terms_unmasked_route_matches_masked_route():
    # the (B,1,D) slope laws against (B,15,D) natural laws, as the rate
    # quadrature calls it: x = 0 (also against y = 0), y = 0, y = +inf and
    # tiny or huge ratios, every y >= 0 as transition_law gives
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, size=(6, 1, 5))
    x[0, 0, :2] = 0.0
    x[1, 0, 3] = -0.0
    x[2, 0, 4] = 1e-300
    y = rng.uniform(0.0, 1.0, size=(6, 15, 5))
    y[:, ::2, 1] = 0.0          # x = 0 against y = 0 and y > 0
    y[3, 4:9, :] = 0.0          # x > 0 against y = 0: +inf
    y[4, :, 2] = np.inf         # x > 0 against y = inf: -inf
    y[5, 7, :] = 1e-308
    out = entropy_terms(x, y)
    assert np.isposinf(out).any() and np.isneginf(out).any()
    assert (out[0, :, :2] == 0.0).all()
    with np.errstate(divide="ignore"):
        np.testing.assert_array_equal(out, _masked_entropy_terms(x, y))


@given(st.floats(1e-9, 1.0), st.floats(1e-9, 1.0))
def test_entropy_term_convex_lower_bound(x, y):
    # x log(x/y) >= x - y, the standard tangent bound
    assert entropy_terms(x, y) >= (x - y) - 1e-12


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
    # non-finite starts and coefficients: NaN fails no comparison
    for spec in ([(0.0, math.nan, 1.0)], [(0.0, 0.0, math.nan)], [(0.0, 0.0, math.inf)],
                 [(0.0, (0.1, math.nan), 1.0)],
                 [(0.0, 0.0, 1.0), (math.nan, 0.0, 2.0)]):
        with pytest.raises(ValueError, match="finite"):
            Schedule.from_segments(spec)
    # finite coefficients whose values overflow
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        Schedule.from_segments([(0.0, 0.0, (1.0, 1e308, 1e308))])


def test_values_exact_returns_fractions():
    s = Schedule.from_segments([(0.0, Fraction(1, 3), 2), (0.5, 0.0, 1.0)])
    p, beta = s.values_exact(Fraction(1, 4))
    assert p == Fraction(1, 3) and beta == 2
    p2, _ = s.values_exact(Fraction(1, 2))
    assert p2 == 0


def test_values_exact_matches_coefficients_on_every_grid_time():
    # constant -> polynomial with p > 0 -> constant: the exact values
    # round to the float lookup's within a few ulps, and equal it where
    # the segment is constant
    s = Schedule.from_segments([(0, 0, 8), (0.3, (0.1, 0.2), (1.0, 0.5)), (0.7, 0.2, 2.0)])
    for n in range(1, 15):
        for j in range(n + 1):
            exact = s.values_exact(Fraction(j, n))
            assert all(isinstance(v, Fraction) for v in exact)
            p, beta = s.coefficients(j / n)
            for got, want in zip(exact, (float(p), float(beta))):
                assert abs(float(got) - want) <= 4 * np.spacing(want), (j, n)
            if not 0.3 <= j / n < 0.7:
                assert tuple(map(float, exact)) == (p, beta), (j, n)
    assert s.values_exact(Fraction(1, 2)) == (Fraction(0.1) + Fraction(0.2) / 2,
                                              Fraction(1) + Fraction(0.5) / 2)


def test_values_exact_resolves_breakpoints_exactly():
    # the float start 0.1 lies just above 1/10, but 1/10 rounds to it, so
    # t = 1/10 takes segment 1, as the float lookup (and the simulator)
    # at 1/10 = 0.1 does
    s = Schedule.from_segments([(0.0, 0.0, 1.0), (0.1, 0.25, 2.0)])
    assert Fraction(1, 10) < Fraction(0.1)
    assert s.values_exact(Fraction(1, 10)) == (Fraction(1, 4), 2)
    assert s.values_exact(Fraction(0.1)) == (Fraction(1, 4), 2)
    assert s.coefficients(1 / 10) == (0.25, 2.0)
    assert s.values_exact(Fraction(1, 11)) == (0, 1)
    # times outside [0, 1) take the first or last segment, as the float lookup
    assert s.values_exact(Fraction(-1, 2)) == (0, 1)
    assert s.values_exact(Fraction(5, 4)) == (Fraction(1, 4), 2)


def test_values_exact_takes_the_simulators_segment_on_figure1():
    # figure 1 switches beta at the float start 0.01, above 1/100: every
    # grid time j/n takes the segment the simulator's float lookup takes
    s = Schedule.from_segments([(0.0, 0.0, 8.0), (0.01, 0.0, 1.0)])
    for n in range(1, 201):
        p, beta = s.coefficients(np.arange(n + 1) / n)
        exact = [tuple(map(float, s.values_exact(Fraction(j, n)))) for j in range(n + 1)]
        assert exact == list(zip(p.tolist(), beta.tolist())), n


def test_one_lookup_matches_each_segment_polynomial():
    # constant -> polynomial -> constant: p_at, beta_at and coefficients
    # agree bit for bit with the polynomial of the segment holding t, which
    # is right-continuous at the breakpoints and clipped outside [0,1]
    s = Schedule.from_segments([(0, 0, 8), (0.3, (0.1, 0.2), (1.0, 0.5)), (0.7, 0.2, 2.0)])
    inner = np.array([0.3, 0.7])

    def reference(t):
        t = np.asarray(t, dtype=float)
        k = (t[..., None] >= inner).sum(axis=-1)
        return tuple(np.choose(k, [_polyval(c, t) for c in coeffs]) for coeffs in
                     ([g.p_coeffs for g in s.segments], [g.beta_coeffs for g in s.segments]))

    def same(x, y):
        return np.shape(x) == np.shape(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()

    edges = [0.0, 0.3, 0.7, np.nextafter(0.3, 0.0), np.nextafter(0.7, 0.0), -0.5, 1.0, 1.25]
    times = edges + [np.asarray(0.45), np.array(edges + [0.15, 0.5, 0.85]),
                     np.linspace(-0.1, 1.1, 24).reshape(4, 6)]
    for t in times:
        want = reference(t)
        p, beta = s.coefficients(t)
        assert same(p, want[0]) and same(beta, want[1]), t
        assert same(s.p_at(t), want[0]) and same(s.beta_at(t), want[1]), t
    assert s.beta_at(np.nextafter(0.3, 0.0)) == 8.0
    assert s.beta_at(0.3) == 1.0 + 0.5 * 0.3 and s.p_at(1.25) == 0.2


def test_sigma_affine_on_constant_segments():
    s = Schedule.constant(0.2, 3.0)
    prof = InitialProfile.from_masses((0.1, 0.05), c_weighted=0.2)
    t = np.linspace(0.0, 1.0, 7)
    expect = (1.0 + 3.0) * t + 0.2 + 0.15 * 3.0
    assert_allclose(sigma(prof, t, s.beta_at(t)), expect, rtol=0, atol=1e-15)
    # sigma(0) = c_weighted + c_total * beta(0)
    assert_allclose(float(sigma(prof, 0.0, s.beta_at(0.0))), 0.2 + 0.15 * 3.0, rtol=1e-14)


# ---------------------------------------------------------------- profile

def test_profile_totals_and_truncation():
    prof = InitialProfile.from_masses((0.5, 0.25, 0.125, 0.0625))
    assert_allclose(prof.c_total, 0.9375)
    assert_allclose(prof.c_weighted, 0.25 + 2 * 0.125 + 3 * 0.0625)
    vec = prof.truncated(1)
    assert_allclose(vec, [0.5, 0.25, 0.1875])  # tail 0.125+0.0625 aggregated
    assert not prof.condensed_flag


def test_profile_tail_is_the_sum_of_the_masses_above():
    # as a complement of the total, 0.5 + 1e-17 - 0.5 rounded the tail to 0
    tail = InitialProfile.from_masses((0.5, 1e-17)).truncated(0)
    assert tail.tolist() == [0.5, 1e-17]


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
    assert TruncatedState(counts=(2, 0, 0, 0), ball_total=0).urn_total == 2
    with pytest.raises(ValueError, match="negative count"):
        TruncatedState(counts=(2, -1, 0, 0), ball_total=0)
    with pytest.raises(ValueError):
        # aggregate slot implies at least (d+1) balls each
        TruncatedState(counts=(0, 0, 0, 1), ball_total=1)


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
    # non-finite times and values: NaN fails no comparison
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            Path.from_knots([0.0, bad, 1.0], np.zeros((3, 3)))
        with pytest.raises(ValueError, match="finite"):
            Path.from_knots([0.0, 0.5, 1.0], [[0.0] * 3, [bad, 0.25, 0.0], [0.5] * 3])


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
    st0 = resolve_initial((2, 0, 0, 0), 100, d=2)
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
