import json
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from urnrates import cli, rate
from urnrates.lln import (
    dirac_law,
    geometric_law,
    solve_lln_closed,
    star_law,
    stretched_exponential,
)
from urnrates.model import InitialProfile, Path, Schedule, entropy_terms, increments
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
    paths = [linear_target_path(law, 6) for law in (geometric_law(), [0.5, 0.3, 0.2])]
    # 1,000 pieces: more panels than one evaluation block, and levels 3..6
    # stay exactly empty only if nu0 is formed without cancellation
    grid = np.linspace(0.0, 1.0, 1001)
    paths.append(Path.from_knots(grid, paths[-1].at(grid)))
    for path in paths:
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


def random_admissible_path(d, times, seed):
    """Piecewise-linear path from the empty state whose every piece has
    an admissible slope: decreasing escape weights summing below 1."""
    rng = np.random.default_rng(seed)
    vals = [np.zeros(d + 2)]
    for dt in np.diff(times):
        w = np.sort(rng.dirichlet(np.ones(d + 2))[: d + 1])[::-1]
        v = np.concatenate([[1.0 - w[0]], w[:-1] - w[1:], [w[-1]]])
        vals.append(vals[-1] + dt * v)
    return Path.from_knots(times, vals)


@pytest.mark.parametrize("sched", [
    Schedule.from_segments([(0.0, 0.0, 8.0), (0.01, 0.0, 1.0)]),
    Schedule.from_segments([(0.0, (0.1, 0.2), (1.0, 0.0, 2.0))]),
], ids=["figure1", "polynomial"])
def test_condensation_charge_matches_quad(sched):
    # second route: scipy's quad of the aggregate slot's term alone, piece
    # by piece and split at the schedule's breakpoints
    path = random_admissible_path(4, [0.0, 0.3, 0.65, 1.0], seed=8)
    cuts = np.union1d(path.times, sched.breakpoints)

    def charge(t):
        nu0 = minimizer_nu0(path.slope_at(t))
        u = natural_law(t, path.at(t), sched, EMPTY)
        return float(entropy_terms(nu0[-1], u[..., -1]))

    reference = math.fsum(quad(charge, lo, hi, epsabs=1e-15, epsrel=1e-14, limit=200)[0]
                          for lo, hi in zip(cuts[:-1], cuts[1:]))
    rep = path_rate_Id(path, sched, EMPTY)
    assert not rep.diverged and rep.deepest > 0   # refined panels carry it too
    assert abs(rep.condensation - reference) <= 1e-12
    assert condensation_term(path, sched, EMPTY) == rep.condensation


def test_one_quadrature_pass_per_rate(tmp_path, monkeypatch):
    calls = []
    panels = rate._panels
    monkeypatch.setattr(rate, "_panels", lambda *args: calls.append(1) or panels(*args))
    path_csv = tmp_path / "path.csv"
    path_csv.write_text("t,x_0,x_1,x_bar\n0,0,0,0\n0.5,0.25,0.25,0\n1,0.75,0,0.25\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rate": {"path_csv": str(path_csv)}}))
    assert cli.main(["rate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    calls.clear()
    out = path_rate_Iinf(geometric_law(), CLASSICAL, EMPTY, tol=1e-7)
    assert len(calls) == len(out.trace)


# ----------------------------------------------------------- road target

def test_road_rate_is_infinite():
    # all-singleton growth needs empty-urn hits at rate 1, but the natural
    # law never places mass there once phi_0 = 0
    rep = path_rate_Id(linear_target_path(dirac_law(2), 3), CLASSICAL, EMPTY)
    assert math.isinf(rep.value) and rep.diverged
    assert math.isinf(rep.condensation)
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


def test_empty_levels_above_the_profile_cost_nothing():
    # u_i = 0 above the last occupied level, so nu0_i must be exactly 0 there
    for gamma in ((0.7, 0.1, 0.1, 0.1), (0.7, 0.1, 0.1, 0.1, 0.0, 0.0)):
        series = linear_path_rate_classical(gamma)
        rep = path_rate_Id(linear_target_path(gamma, 6), CLASSICAL, EMPTY)
        assert math.isfinite(series.value)
        assert_allclose(rep.value, series.value, rtol=1e-12)


def test_stretched_series_matches_exact_suffix_sums():
    law = stretched_exponential(0.7)
    gamma = np.asarray(law.values)
    exact = [Fraction(x) for x in gamma] + [Fraction(law.tail_mass)]
    above, acc = [], Fraction(0)
    for x in exact[:0:-1]:
        acc += x
        above.append(float(acc))
    u = 0.5 * (np.arange(gamma.size) + 1.0) * gamma    # classical schedule
    reference = math.fsum(entropy_terms(np.array(above[::-1]), u))
    series = linear_path_rate_classical(law)
    assert series.escape_mass == 0.0
    assert_allclose(series.value, reference, rtol=1e-13)


# -------------------------------------------------- adaptive refinement

# phi_1 reaches 0 at t = 1 while nu0_1 = 0.5: a log singularity at the end
SINGULAR = Path.from_knots([0.0, 0.5, 1.0],
                           [(0.0, 0.0, 0.0), (0.25, 0.25, 0.0), (0.75, 0.0, 0.25)])


def singular_reference():
    def cost(t):
        return local_cost(t, SINGULAR.at(t), SINGULAR.slope_at(t), CLASSICAL, EMPTY)
    return sum(quad(cost, lo, hi, epsabs=1e-14, epsrel=1e-14, limit=200)[0]
               for lo, hi in ((0.0, 0.5), (0.5, 1.0)))


def test_deep_refinement_matches_quad():
    rep = path_rate_Id(SINGULAR, CLASSICAL, EMPTY)
    assert (rep.deepest, rep.num_panels, rep.floor_hits) == (45, 48, 0)
    assert not rep.diverged
    assert abs(rep.value - singular_reference()) <= 1e-12


def test_depth_limit_counts_floor_hit_within_error():
    rep = path_rate_Id(SINGULAR, CLASSICAL, EMPTY, max_depth=10)
    assert rep.floor_hits == 1 and rep.deepest == 10
    assert abs(rep.value - singular_reference()) <= rep.error


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


def test_rate_arguments_are_checked():
    path = linear_target_path(star_law(), 2)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            path_rate_Id(path, CLASSICAL, EMPTY, tol=bad)
        with pytest.raises(ValueError, match="tol"):
            path_rate_Iinf(star_law(), CLASSICAL, EMPTY, tol=bad)
        with pytest.raises(ValueError, match="quad_tol"):
            path_rate_Iinf(star_law(), CLASSICAL, EMPTY, quad_tol=bad)
    with pytest.raises(ValueError, match="max_depth"):
        path_rate_Id(path, CLASSICAL, EMPTY, max_depth=-1)
    for d_min, d_max in ((5, 4), (-1, 3)):
        with pytest.raises(ValueError, match="d_min"):
            path_rate_Iinf(star_law(), CLASSICAL, EMPTY, d_min=d_min, d_max=d_max)
    # the boundary values stay accepted
    assert path_rate_Id(path, CLASSICAL, EMPTY, max_depth=0).deepest == 0
    assert len(path_rate_Iinf(star_law(), CLASSICAL, EMPTY, d_min=0, d_max=0).trace) == 1


def test_slope_sum_noise_tolerance():
    # quadrature-scale slope noise is renormalized away ...
    near = Path.from_knots([0.0, 1.0], [[0.0] * 4, [1.0 + 3e-7, 0.0, 0.0, 0.0]])
    rep = path_rate_Id(near, CLASSICAL, EMPTY)
    assert_allclose(rep.value, LOG2, atol=1e-5)
    # ... but slopes genuinely off the simplex charge +inf
    off = Path.from_knots([0.0, 1.0], [[0.0] * 4, [1.01, 0.0, 0.0, 0.0]])
    rep = path_rate_Id(off, CLASSICAL, EMPTY)
    assert math.isinf(rep.value) and rep.diverged
