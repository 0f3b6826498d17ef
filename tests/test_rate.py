import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from urnrates.lln import dirac_law, geometric_law, solve_lln_closed, star_law
from urnrates.model import InitialProfile, Path, Schedule, increments
from urnrates.rate import (
    condensation_term,
    linear_path_rate_classical,
    linear_target_path,
    local_cost,
    minimizer_nu0,
    natural_law,
    path_rate_Id,
    path_rate_Iinf,
    project_path,
    relative_entropy,
)

CLASSICAL = Schedule.constant(0.0, 1.0)
EMPTY = InitialProfile.empty()
LOG2 = math.log(2.0)


# -------------------------------------------------------- increment laws

def test_minimizer_reproduces_slope():
    rng = np.random.default_rng(3)
    for d in (0, 2, 5):
        f = increments(d)
        for _ in range(10):
            w_target = np.sort(rng.dirichlet(np.ones(d + 2))[: d + 1])[::-1]
            v = np.empty(d + 2)
            v[0] = 1.0 - w_target[0]
            v[1 : d + 1] = w_target[:-1] - w_target[1:]
            v[d + 1] = w_target[-1]
            nu = minimizer_nu0(v)
            assert_allclose(f.T @ nu, v, atol=1e-12)
            assert_allclose(nu.sum(), 1.0, atol=1e-12)


def test_minimizer_rejects_inadmissible_slopes():
    with pytest.raises(ValueError):
        minimizer_nu0([0.5, 0.0, 0.0, 0.0])       # sums to 0.5
    with pytest.raises(ValueError):
        minimizer_nu0([1.2, -0.2, 0.0, 0.0])      # partial sum above 1
    with pytest.raises(ValueError):
        minimizer_nu0([0.0, 0.0, 0.0, 1.0])       # escape beyond one ball


def test_natural_law_hand_value():
    u = natural_law(0.5, np.array([0.3, 0.2, 0.1, 0.05]), CLASSICAL, EMPTY)
    # sigma = 2t = 1: weights 0.3, 2*0.2, 3*0.1, complement
    assert_allclose(u, [0.3, 0.4, 0.3, 0.0], atol=1e-14)
    assert_allclose(u.sum(), 1.0, atol=1e-14)


def test_natural_law_degenerate_at_zero():
    sched = Schedule.constant(0.3, 1.0)
    u = natural_law(0.0, np.zeros(4), sched, EMPTY)
    assert_allclose(u, [0.3, 0.0, 0.0, 0.7], atol=1e-15)


def test_relative_entropy_properties():
    w = np.array([0.5, 0.25, 0.25])
    assert relative_entropy(w, w) == 0.0
    assert relative_entropy(w, [0.25, 0.5, 0.25]) > 0.0
    assert relative_entropy(w, [0.5, 0.5, 0.0]) == math.inf
    with pytest.raises(ValueError):
        relative_entropy(w, [0.5, 0.25])
    with pytest.raises(ValueError):
        relative_entropy([0.7, 0.2, 0.2], w)


# --------------------------------------------------- zero-cost reference

def test_local_cost_vanishes_on_limit_slope():
    d = 6
    grid = np.linspace(0.0, 1.0, 9)
    sol = solve_lln_closed(d, CLASSICAL, EMPTY, grid=grid)
    path = sol.path()
    for t in (0.3, 0.75):
        cost = local_cost(t, path.at(t), path.slope_at(t), CLASSICAL, EMPTY)
        assert abs(cost) < 1e-13


def test_local_cost_array_matches_scalar_calls():
    rng = np.random.default_rng(8)
    d = 5
    v1 = np.array([0.5, 0.2, 0.2, 0.05, 0.05, 0.0, 0.0])
    v2 = np.array([0.4, 0.4, 0.1, 0.05, 0.03, 0.01, 0.01])
    path = Path.from_knots([0.0, 0.4, 1.0], [np.zeros(d + 2), 0.4 * v1, 0.4 * v1 + 0.6 * v2])
    ts = np.concatenate([[0.0], rng.uniform(0.0, 1.0, size=41)]).reshape(3, 2, 7)
    phi = path.at(ts)
    slope = path.slope_at(ts)
    slope[0, 1, 3] = 0.4          # one inadmissible slope row: cost +inf
    sched = Schedule.constant(0.25, 3.0)
    costs = local_cost(ts, phi, slope, sched, EMPTY)
    assert costs.shape == ts.shape
    scalar = [local_cost(t, x, v, sched, EMPTY)
              for t, x, v in zip(ts.ravel(), phi.reshape(-1, d + 2),
                                 slope.reshape(-1, d + 2))]
    assert all(isinstance(c, float) for c in scalar)
    # +inf at the bad row and at t = 0, where sigma = 0 leaves only the
    # new-urn move and the aggregate slot reachable
    assert math.isinf(costs[0, 1, 3]) and math.isinf(costs[0, 0, 0])
    assert np.isfinite(costs).sum() == ts.size - 2
    # same arithmetic per entry; allow a few ulps for vectorized math kernels
    assert_allclose(costs.ravel(), scalar, rtol=1e-14, atol=1e-15)


def test_rate_of_straight_path_is_its_constant_cost():
    # from the empty state under a constant schedule phi/sigma and the
    # slope are constant along a straight path, so is the integrand
    sched = Schedule.constant(0.25, 3.0)
    for law in (geometric_law(), [0.5, 0.3, 0.2]):
        path = linear_target_path(law, 6)
        rep = path_rate_Id(path, sched, EMPTY)
        for t in (0.1, 0.37, 0.9):
            cost = local_cost(t, path.at(t), path.slope_at(t), sched, EMPTY)
            assert_allclose(rep.value, cost, rtol=1e-12)


def test_rate_vanishes_on_limit_path():
    sol = solve_lln_closed(6, CLASSICAL, EMPTY, grid=np.linspace(0.0, 1.0, 9))
    rep = path_rate_Id(sol.path(), CLASSICAL, EMPTY)
    assert not rep.diverged
    assert abs(rep.value) < 1e-12


def test_rate_positive_off_the_limit():
    rep = path_rate_Id(linear_target_path(geometric_law(), 8), CLASSICAL, EMPTY)
    assert rep.value > 0.18
    assert rep.error < 1e-9


# ----------------------------------------------------------- star target

def test_star_rate_independent_of_truncation():
    for d in (0, 1, 4, 17):
        rep = path_rate_Id(linear_target_path(star_law(), d), CLASSICAL, EMPTY)
        assert_allclose(rep.value, LOG2, rtol=1e-13)


def test_star_rate_general_parameters():
    sched = Schedule.constant(0.25, 3.0)
    rep = path_rate_Id(linear_target_path(star_law(), 5), sched, EMPTY)
    assert_allclose(rep.value, math.log((1.0 + 3.0) / (1.0 - 0.25)), rtol=1e-13)


def test_star_cost_is_pure_condensation():
    path = linear_target_path(star_law(), 6)
    assert_allclose(condensation_term(path, CLASSICAL, EMPTY), LOG2, rtol=1e-13)
    # 1000 pieces: the panels span several evaluation blocks
    grid = np.linspace(0.0, 1.0, 1001)
    fine = Path.from_knots(grid, path.at(grid))
    assert abs(condensation_term(fine, CLASSICAL, EMPTY) - LOG2) <= 1e-13
    series = linear_path_rate_classical(star_law())
    assert_allclose(series.value, LOG2, rtol=1e-14)
    assert series.series_part == 0.0
    assert_allclose(series.condensation_part, LOG2, rtol=1e-14)
    assert_allclose(series.escape_mass, 1.0)


# ----------------------------------------------------------- road target

def test_road_rate_is_infinite():
    # all-singleton growth needs empty-urn hits at rate 1, but the natural
    # law never places mass there once phi_0 = 0
    rep = path_rate_Id(linear_target_path(dirac_law(2), 3), CLASSICAL, EMPTY)
    assert math.isinf(rep.value) and rep.diverged
    out = path_rate_Iinf(dirac_law(2), CLASSICAL, EMPTY)
    assert math.isinf(out.value) and out.converged
    series = linear_path_rate_classical(dirac_law(2))
    assert math.isinf(series.value)


# ------------------------------------------------------ geometric target

def geometric_reference_value():
    return LOG2 - math.fsum(2.0 ** -(i + 1) * math.log(i + 1.0)
                            for i in range(1, 80))


def test_geometric_series_closed_form():
    series = linear_path_rate_classical(geometric_law())
    assert_allclose(series.value, geometric_reference_value(), rtol=1e-13)
    assert series.condensation_part == 0.0   # unit ball mass, nothing escapes
    assert series.escape_mass == 0.0
    assert series.truncation_error < 1e-12


def test_geometric_limit_matches_series():
    out = path_rate_Iinf(geometric_law(), CLASSICAL, EMPTY, tol=1e-7)
    assert out.converged
    assert_allclose(out.value, geometric_reference_value(), atol=1e-6)
    # truncated rates increase towards the limit
    vals = [v for _, v in out.trace]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert out.escape_mass < 1e-9


def test_iinf_accepts_callable_target():
    direct = path_rate_Iinf(geometric_law(), CLASSICAL, EMPTY, tol=1e-7)
    via_paths = path_rate_Iinf(lambda d: linear_target_path(geometric_law(), d),
                               CLASSICAL, EMPTY, tol=1e-7)
    assert via_paths.converged
    assert_allclose(via_paths.value, direct.value, atol=1e-7)


# ------------------------------------------------------------ truncation

def test_projection_folds_counts():
    vals = np.array([[0.0] * 7, [0.1, 0.2, 0.3, 0.1, 0.1, 0.1, 0.1]])
    path = Path.from_knots([0.0, 1.0], vals)
    proj = project_path(path, 2)
    assert proj.d == 2
    assert_allclose(proj.values[1], [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError):
        project_path(path, 9)


def test_rate_monotone_under_projection():
    fine = linear_target_path(geometric_law(), 9)
    coarse = project_path(fine, 4)
    r_fine = path_rate_Id(fine, CLASSICAL, EMPTY)
    r_coarse = path_rate_Id(coarse, CLASSICAL, EMPTY)
    assert r_coarse.value <= r_fine.value + 1e-10


# ----------------------------------------------------- input validation

def test_target_profile_rejections():
    with pytest.raises(ValueError):
        linear_target_path([0.4, 0.4], 3)          # sums to 0.8
    with pytest.raises(ValueError):
        linear_target_path([-0.1, 1.1], 3)
    with pytest.raises(ValueError):
        linear_path_rate_classical([0.0, 0.0, 1.0])  # two balls per urn


def test_slope_sum_noise_tolerance():
    # quadrature-scale slope noise is renormalized away ...
    near = Path.from_knots([0.0, 1.0], [[0.0] * 4, [1.0 + 3e-7, 0.0, 0.0, 0.0]])
    rep = path_rate_Id(near, CLASSICAL, EMPTY)
    assert_allclose(rep.value, LOG2, atol=1e-5)
    # ... but slopes genuinely off the simplex charge +inf
    off = Path.from_knots([0.0, 1.0], [[0.0] * 4, [1.01, 0.0, 0.0, 0.0]])
    rep = path_rate_Id(off, CLASSICAL, EMPTY)
    assert math.isinf(rep.value) and rep.diverged
