import json
import math
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path as FsPath

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

from urnrates import cli, rate
from urnrates.lln import (
    ReferenceLaw,
    dirac_law,
    geometric_law,
    solve_lln_closed,
    star_law,
    stretched_exponential,
)
from urnrates.model import (
    PATH_TOL,
    InitialProfile,
    Path,
    Schedule,
    _nu0_rows,
    config_from_dict,
    entropy_terms,
    increments,
    validate_path,
)
from urnrates.rate import (
    MIN_TOL,
    condensation_term,
    linear_path_rate_classical,
    linear_target_path,
    local_cost,
    natural_law,
    path_rate,
    path_rate_exact,
    path_rate_Id,
    path_rate_Iinf,
    project_path,
)
from urnrates.verify import _random_admissible_path, classical_schedule, figure1_schedule

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
            nu, total, ok = _nu0_rows(v)
            assert ok and abs(total - 1.0) <= 1e-15
            assert_allclose(f.T @ nu, v, atol=1e-12)
            assert_allclose(nu.sum(), 1.0, atol=1e-12)


def test_minimizer_rejects_inadmissible_slopes():
    _, _, ok = _nu0_rows(np.array([
        [0.5, 0.0, 0.0, 0.0],       # sums to 0.5
        [1.2, -0.2, 0.0, 0.0],      # partial sum above 1
        [0.0, 0.0, 0.0, 1.0],       # escape beyond one ball
        [0.5, 0.25, 0.0, 0.25],     # admissible
    ]))
    assert_array_equal(ok, [False, False, False, True])


def _concatenated_nu0_rows(v):
    """nu0 rows of the rows rescaled to total 1, as a reversed cumsum view
    and a concatenated copy (an earlier form of _nu0_rows, which held three
    arrays the size of v), the row totals and the admissibility mask."""
    total = v.sum(axis=-1, keepdims=True)
    r = v / total
    w = np.cumsum(r[..., :0:-1], axis=-1)[..., ::-1]
    w = np.concatenate([w, 1.0 - w.sum(axis=-1, keepdims=True)], axis=-1)
    total = total[..., 0]
    return w, total, (np.abs(total - 1.0) <= PATH_TOL) & np.all(w >= -PATH_TOL, axis=-1)


def _assert_same_rows(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert_array_equal(got[2], want[2])


def test_nu0_rows_match_the_cumsum_form_on_criterion_1_paths():
    # tall inputs (more pieces than slots): the quotients summed in place
    # make the same IEEE operations, in the same order, as a cumsum of the
    # rescaled rows
    for path, _, _ in criterion_1_paths():
        slopes = path.slopes
        _assert_same_rows(_nu0_rows(slopes), _concatenated_nu0_rows(slopes))


@pytest.mark.parametrize("d", [0, 1, 5, 8, 20, 230])
def test_nu0_rows_written_in_place_match_the_concatenated_form(d):
    # suffix sums written backwards into one array give the same bits, on
    # Dirichlet rows, rows nudged off the simplex (and off total 1), a
    # single row, a few rows (wide at d = 230), a stack of rows and a
    # column slice of it (criterion 8 costs such slices)
    rng = np.random.default_rng(d)
    v = rng.dirichlet(np.ones(d + 2), size=500)
    v[::3] += rng.normal(scale=1e-9, size=v[::3].shape)
    stack = v.reshape(20, 25, d + 2)
    for slopes in (v, v[0], v[:50], stack, stack[..., : max(2, d // 2)]):
        _assert_same_rows(_nu0_rows(slopes), _concatenated_nu0_rows(slopes))


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
    # KL(w | u) as the local cost sums it: the entropy terms over the moves
    w = np.array([0.5, 0.25, 0.25])
    assert entropy_terms(w, w).sum() == 0.0
    assert entropy_terms(w, np.array([0.25, 0.5, 0.25])).sum() > 0.0
    assert entropy_terms(w, np.array([0.5, 0.5, 0.0])).sum() == math.inf


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


def test_local_cost_on_path_stacks_matches_per_path_calls():
    # times (T,) against phi and slope (paths, T, d+2), as criterion 8
    # calls it: bit for bit the per-path calls
    rng = np.random.default_rng(5)
    ts = np.concatenate([[0.0], (np.arange(31) + 0.5) / 31])
    sched = Schedule.from_segments([(0.0, 0.25, 3.0), (0.5, 0.1, 0.75)])
    paths = [_random_admissible_path(rng, 6) for _ in range(7)]
    costs = local_cost(ts, np.stack([p.at(ts) for p in paths]),
                       np.stack([p.slope_at(ts) for p in paths]), sched, EMPTY)
    per_path = np.stack([local_cost(ts, p.at(ts), p.slope_at(ts), sched, EMPTY)
                         for p in paths])
    assert costs.shape == (7, ts.size)
    assert np.isinf(costs[:, 0]).all() and np.isfinite(costs[:, 1:]).all()
    assert np.array_equal(costs, per_path)


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
        nu0 = _nu0_rows(path.slope_at(t))[0]
        u = natural_law(t, path.at(t), sched, EMPTY)
        return float(entropy_terms(nu0[-1], u[..., -1]))

    reference = math.fsum(quad(charge, lo, hi, epsabs=1e-15, epsrel=1e-14, limit=200)[0]
                          for lo, hi in zip(cuts[:-1], cuts[1:]))
    rep = path_rate_Id(path, sched, EMPTY)
    assert not rep.diverged and rep.deepest > 0   # refined panels carry it too
    assert abs(rep.condensation - reference) <= 1e-12
    # the route path_rate picks (the closed form on figure 1) carries it too,
    # and condensation_term reads it from there
    picked = path_rate(path, sched, EMPTY)
    assert abs(picked.condensation - reference) <= 1e-12
    assert condensation_term(path, sched, EMPTY) == picked.condensation


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


@pytest.mark.parametrize("law", [
    pytest.param(star_law, id="star"),
    pytest.param(geometric_law, id="geometric"),
    pytest.param(lambda: stretched_exponential(0.5), id="stretched-0.5"),
])
def test_iinf_ladder_takes_the_route_path_rate_picks(law):
    # each rung is path_rate on the projected straight path: the closed form
    # on a constant schedule, Kronrod at the ladder's quad_tol on a
    # polynomial one, bit for bit against the explicit ladders
    law = law()
    depth = law.values.size - 1
    full = linear_target_path(law, depth)
    rungs = sorted({0, depth} | {2 ** k for k in range(depth.bit_length())})
    out = path_rate_Iinf(law, CLASSICAL, EMPTY)
    assert out.method == "exact"
    assert out.trace == [(d, path_rate_exact(project_path(full, d), CLASSICAL, EMPTY).value)
                         for d in rungs]
    poly = Schedule.from_segments([(0.0, (0.1, 0.2), (1.0, 0.5))])
    out = path_rate_Iinf(law, poly, EMPTY, tol=1e-6)
    assert out.method == "kronrod"
    assert out.trace == [(d, path_rate_Id(project_path(full, d), poly, EMPTY, tol=1e-9).value)
                         for d in rungs]


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
    assert out.converged and out.method == "exact"
    assert_allclose(out.value, geometric_reference_value(), atol=1e-6)
    # truncated rates increase towards the limit
    vals = [v for _, v in out.trace]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert out.escape_mass < 1e-9


@pytest.mark.parametrize("law", [
    pytest.param(lambda: stretched_exponential(0.5), id="stretched-0.5"),
    pytest.param(lambda: stretched_exponential(0.7), id="stretched-0.7"),
    pytest.param(lambda: stretched_exponential(0.8), id="stretched-0.8"),
    pytest.param(geometric_law, id="geometric"),
    pytest.param(star_law, id="star"),
])
def test_iinf_matches_series_under_constant_schedule(law):
    # two routes to one sum: the quadrature at the law's depth and the
    # closed series over the same stored levels plus the tail
    law = law()
    out = path_rate_Iinf(law, CLASSICAL, EMPTY, tol=1e-6)
    series = linear_path_rate_classical(law)
    assert out.converged
    assert abs(out.value - series.value) <= 1e-6
    assert out.trace[-1] == (law.values.size - 1, out.value)


@pytest.mark.parametrize("p, beta", [(0.0, 1.0), (0.3, 2.5)])
@pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
def test_partial_condensation_matches_series(p, beta, a):
    # (1-a) geometric + a delta_0: a fraction a of the ball supply
    # condenses, which the aggregate slot charges a log((1+beta)/(1-p))
    geo = geometric_law()
    values = (1.0 - a) * geo.values
    values[0] += a
    law = ReferenceLaw("partial", {"a": a}, values,
                       (1.0 - a) * geo.tail_mass, (1.0 - a) * geo.tail_mean)
    out = path_rate_Iinf(law, Schedule.constant(p, beta), EMPTY)
    assert out.converged
    assert abs(out.value - linear_path_rate_classical(law, p, beta).value) <= 1e-14
    assert abs(out.condensation - a * math.log((1.0 + beta) / (1.0 - p))) <= 1e-14


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


def test_depth_limit_counts_floor_hit_within_error(monkeypatch):
    monkeypatch.setattr(rate, "MAX_DEPTH", 10)
    rep = path_rate_Id(SINGULAR, CLASSICAL, EMPTY)
    assert rep.floor_hits == 1 and rep.deepest == 10
    assert abs(rep.value - singular_reference()) <= rep.error


# ---------------------------------------- closed-form route vs Kronrod

def exact_log_affine_q(lo, hi):
    """q of rate._log_affine from 40-digit decimal logarithms."""
    with localcontext() as ctx:
        ctx.prec = 40
        small, big = sorted((Decimal(lo), Decimal(hi)))
        if small == 0:
            return 1.0
        if small == big:
            return 0.0
        r = small / big
        return float(1 + r * r.ln() / (1 - r))


@pytest.mark.parametrize("lo", [
    0.0, 1e-300, 0.25, 0.5, 0.9, 0.9000000000000001, 0.95, 1.0 - 1e-3, 1.0 - 1e-9,
    1.0 - 2 ** -52, 1.0,
])
def test_log_affine_matches_decimal_logarithms(lo):
    # relative accuracy in q on both sides of the series threshold, the
    # endpoint zero (q = 1) and a constant function (q = 0), in either order
    for ends in ((lo, 1.0), (3.0 * lo, 3.0)):
        want = exact_log_affine_q(*ends)
        for a, b in (ends, ends[::-1]):
            big, q = rate._log_affine(np.array([a]), np.array([b]))
            assert big[0] == max(a, b)
            assert abs(q[0] - want) <= 4e-16 * want


def criterion_1_paths():
    for sched in (classical_schedule(), figure1_schedule()):
        path = solve_lln_closed(20, sched, EMPTY).path()
        for d in (0, 5, 20):
            yield project_path(path, d), sched, EMPTY


def profile_lln_paths():
    for c_weighted in (None, 1.0):
        profile = InitialProfile.from_masses((0.3, 0.1, 0.05), c_weighted=c_weighted)
        yield solve_lln_closed(2, CLASSICAL, profile, rel_spacing=2e-3).path(), CLASSICAL, profile


def straight_paths():
    for law in (geometric_law(), star_law(), stretched_exponential(0.5)):
        for d in (0, 5, 40):
            for sched in (CLASSICAL, figure1_schedule()):
                yield linear_target_path(law, d), sched, EMPTY


def assert_routes_agree(path, sched, profile):
    exact = path_rate_exact(path, sched, profile)
    quad = path_rate_Id(path, sched, profile)
    assert not exact.diverged and not quad.diverged
    assert abs(exact.value - quad.value) <= 1e-13
    assert abs(exact.condensation - quad.condensation) <= 1e-13
    assert exact.renormalized == quad.renormalized
    assert (exact.error, exact.deepest, exact.floor_hits) == (0.0, 0, 0)


@pytest.mark.parametrize("cases", [criterion_1_paths, profile_lln_paths, straight_paths],
                         ids=["criterion-1", "profile-lln", "straight"])
def test_exact_route_matches_kronrod(cases):
    for path, sched, profile in cases():
        assert_routes_agree(path, sched, profile)


def test_exact_route_matches_kronrod_on_benchmark_paths(monkeypatch):
    # the rate workload's seeded 2,000-piece path at d = 20 and its d = 5
    # projection
    monkeypatch.syspath_prepend(str(FsPath(__file__).resolve().parent.parent / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)    # read perfbench only
    import workloads

    rng = np.random.default_rng(np.random.SeedSequence(1))
    path = Path.from_knots(*workloads.random_admissible_path(rng, workloads.PATH_KNOTS,
                                                             workloads.PATH_D))
    for p in (path, project_path(path, workloads.PROJ_D)):
        assert_routes_agree(p, CLASSICAL, EMPTY)


def test_exact_route_diverges_where_kronrod_does():
    # phi_1 starts 1e-13 below 0 while mass escapes past level 1: within
    # PATH_TOL, so both routes rate the projection, which starts at 0, and
    # agree on a finite value (the sliver [0, 4e-13] below 0, where the
    # natural law cannot make that move, is not on the projection)
    start = np.array([0.0, -1e-13, 0.0])
    slope = np.array([0.5, 0.25, 0.25])
    negative = Path.from_knots([0.0, 1e-6, 1.0],
                               [start, start + 1e-6 * slope, start + slope])
    assert rate._piece_laws(negative, EMPTY)[0] is not None
    exact = path_rate_exact(negative, CLASSICAL, EMPTY)
    quad = path_rate_Id(negative, CLASSICAL, EMPTY)
    assert not exact.diverged and not quad.diverged
    assert abs(exact.value - quad.value) <= 1e-12
    # the nonempty profile's limit path at d = 8: its slopes pass
    # _piece_laws, but the aggregate slot's first-piece slope (about 3e-18)
    # is below the round-off of the complements that both routes' laws
    # read, so a panel costs +inf on both
    profile = InitialProfile.from_masses((0.3, 0.1, 0.05))
    rejected = solve_lln_closed(8, CLASSICAL, profile, rel_spacing=2e-3).path()
    assert rate._piece_laws(rejected, profile)[0] is not None
    # a path that does not start at the profile: without the start rule the
    # exact route wrote -0.3466 (phi_0 = 0.5 against sigma = 0 at t = 0)
    away = Path.from_knots([0.0, 1.0], [[0.5, 0.0, 0.0], [1.0, 0.25, 0.25]])
    assert rate._piece_laws(away, EMPTY)[0] is None
    for path, prof in ((rejected, profile), (away, EMPTY)):
        exact = path_rate_exact(path, CLASSICAL, prof)
        assert exact.diverged and math.isinf(exact.value) and math.isinf(exact.condensation)
        quad = path_rate_Id(path, CLASSICAL, prof)
        assert quad.diverged and math.isinf(quad.value)
    # the law never reads the aggregate slot's own value, only its complement
    start = np.array([0.0, 0.0, -1e-13])
    below = Path.from_knots([0.0, 1e-6, 1.0], [start, start + 1e-6 * slope, start + slope])
    exact, quad = path_rate_exact(below, CLASSICAL, EMPTY), path_rate_Id(below, CLASSICAL, EMPTY)
    assert not exact.diverged and abs(exact.value - quad.value) <= 1e-13


def test_routes_agree_on_a_sliver_below_zero():
    # phi_1 < 0 on the sliver [0, 4e-13] while w_1 = 0.25, and the start is
    # within PATH_TOL: no Kronrod node lands in the sliver, and both routes
    # rate the projection, which starts at 0 and has no sliver
    start = np.array([0.0, -1e-13, 0.0])
    sliver = Path.from_knots([0.0, 1.0], [start, start + np.array([0.5, 0.25, 0.25])])
    exact, quad = path_rate_exact(sliver, CLASSICAL, EMPTY), path_rate_Id(sliver, CLASSICAL, EMPTY)
    assert not exact.diverged and not quad.diverged
    assert exact.value == quad.value or abs(exact.value - quad.value) <= 1e-13


def test_path_rate_takes_the_exact_route_on_constant_segments():
    for path, sched, profile in criterion_1_paths():
        got = path_rate(path, sched, profile)
        assert got.method == "exact"
        assert got == path_rate_exact(path, sched, profile)


def test_path_rate_takes_kronrod_across_polynomial_segments():
    # the polynomial config of tools/fingerprint.py and its limit path at d = 2
    sched, profile, _ = config_from_dict({
        "schedule": [{"t_start": 0.0, "p": 0.0, "beta": 8.0},
                     {"t_start": 0.3, "p": [0.1, 0.2], "beta": [1.0, 0.5]},
                     {"t_start": 0.7, "p": 0.2, "beta": 2.0}],
        "profile": {"c": [0.3, 0.1, 0.05]}})
    path = solve_lln_closed(2, sched, profile, rel_spacing=2e-3).path()
    for tol in (1e-10, 1e-8):
        got = path_rate(path, sched, profile, tol=tol)
        assert got.method == "kronrod" and not got.diverged
        assert got == path_rate_Id(path, sched, profile, tol=tol)


def test_exact_route_peak_memory_is_a_few_paths():
    # figure 1's d = 20 limit path (0.41 MB of values) and its projection,
    # which the route rates: panel ends are judged _BLOCK panels at a time,
    # as the quadrature's nodes are (the batches of 1,920 panels before
    # read 8.3 values' worth; the projection adds 0.6: 3.24, measured)
    sched = figure1_schedule()
    path = solve_lln_closed(20, sched, EMPTY, rel_spacing=2e-3).path()
    want = path_rate_exact(path, sched, EMPTY)    # first-call allocations
    tracemalloc.start()
    try:
        got = path_rate_exact(path, sched, EMPTY)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 4 * path.values.nbytes


def _two_route_paths(rng):
    """Random 1-3-piece paths from the empty state at d <= 7: criterion 8's
    admissible paths, raw Dirichlet slopes (often not admissible) and
    admissible slopes moved by 1e-3 along a zero-sum direction."""
    for d in range(8):
        for _ in range(40):
            yield _random_admissible_path(rng, d)
            pieces = int(rng.integers(1, 4))
            knots = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, pieces - 1)),
                                    [1.0]])
            raw = rng.dirichlet(np.ones(d + 2), size=pieces)
            moved = _random_admissible_path(rng, d).slopes[:pieces]
            noise = rng.normal(size=moved.shape)
            noise -= noise.mean(axis=1, keepdims=True)
            moved += 1e-3 * noise / np.abs(noise).max()
            for slopes in (raw, moved):
                values = np.zeros((pieces + 1, d + 2))
                values[1:] = np.cumsum(slopes * np.diff(knots)[:, None], axis=0)
                yield Path.from_knots(knots, values)


def test_admissibility_agrees_with_the_rate_routes():
    # validate_path, _piece_laws and both I_d routes read one rule
    # (model._nu0_rows): they must draw one line, and on these paths no
    # admissible one meets an unreachable move
    verdicts = [(validate_path(path, EMPTY).is_admissible,
                 rate._piece_laws(path, EMPTY)[0] is not None,
                 not path_rate_exact(path, CLASSICAL, EMPTY).diverged,
                 not path_rate_Id(path, CLASSICAL, EMPTY).diverged)
                for path in _two_route_paths(np.random.default_rng(20261020))]
    assert [v for v in verdicts if len(set(v)) > 1] == []
    admissible = sum(v[0] for v in verdicts)
    assert 0 < admissible < len(verdicts)


# urns of every size up to 3, so each increment stays reachable
BOUNDARY_PROFILE = InitialProfile.from_masses((0.3, 0.1, 0.05, 0.05))
BOUNDARY_SCHEDULE = Schedule.constant(0.2, 1.0)


def _boundary_path(rule, delta):
    """(path, profile): a path that breaks one admissibility rule by delta.
    From BOUNDARY_PROFILE a straight path, at depth 2 a slope row (rescaled
    to total 1 unless the rule is its total) or the start, and at depth 3
    the start's aggregate slot below 0 (also off the profile); a two-piece
    path at depth 2 whose first piece draws x_2 down to -delta and whose
    second stops drawing it (drawn_slot); and a straight path from the
    empty profile that starts delta off it (empty_start)."""
    if rule == "nonnegative":
        x0 = BOUNDARY_PROFILE.truncated(3) - delta * np.eye(5)[4]
        return Path.from_knots([0.0, 1.0], [x0, x0 + np.eye(5)[0]]), BOUNDARY_PROFILE
    if rule == "empty_start":
        x0 = np.array([delta, 0.0, 0.0])
        return Path.from_knots([0.0, 1.0], [x0, x0 + [0.5, 0.25, 0.25]]), EMPTY
    x0 = BOUNDARY_PROFILE.truncated(2)
    if rule == "drawn_slot":
        q = 0.1 + 2.0 * delta         # x_2 = 0.05 - q/2 = -delta at t = 1/2
        x1 = x0 + 0.5 * np.array([q, 1.0 - q, -q, q])
        path = Path.from_knots([0.0, 0.5, 1.0], [x0, x1, x1 + [0.5, 0.0, 0.0, 0.0]])
        return path, BOUNDARY_PROFILE
    slope = {"slope_sum": [1.0 + delta, 0.0, 0.0, 0.0],
             "cumulative_slope_upper": [1.0 + delta, -delta, 0.0, 0.0],   # [v]_0 = 1 + delta
             "escape_rate": [0.0, 1.0 - delta, delta, 0.0],             # escape 1 + delta
             "initial_value": [1.0, 0.0, 0.0, 0.0]}[rule]
    if rule == "initial_value":
        x0 = x0 + [delta, 0.0, 0.0, 0.0]
    return Path.from_knots([0.0, 1.0], [x0, x0 + slope]), BOUNDARY_PROFILE


# the rules validate_path names for each row at twice the tolerance
BOUNDARY_VIOLATIONS = {"nonnegative": {"initial_value", "nonnegative"},
                       "drawn_slot": {"nonnegative"}, "empty_start": {"initial_value"}}


@pytest.mark.parametrize("rule", ["slope_sum", "cumulative_slope_upper", "escape_rate",
                                  "initial_value", "nonnegative", "drawn_slot",
                                  "empty_start"])
def test_admissibility_boundary_is_one_line(rule):
    # half the tolerance inside is admissible and costs one finite rate on
    # every route; twice the tolerance outside is named by validate_path
    # and costs +inf on every route (local_cost judges slopes alone)
    sched = BOUNDARY_SCHEDULE
    t = np.array([0.25, 0.75])
    for delta, admissible in ((0.5 * PATH_TOL, True), (2.0 * PATH_TOL, False)):
        path, prof = _boundary_path(rule, delta)
        rep = validate_path(path, prof)
        assert rep.is_admissible is admissible
        names = {v[0] for v in rep.violations}
        assert names == (set() if admissible else BOUNDARY_VIOLATIONS.get(rule, {rule}))
        assert (rate._piece_laws(path, prof)[0] is not None) is admissible
        exact, quad = path_rate_exact(path, sched, prof), path_rate_Id(path, sched, prof)
        for route in (exact, quad):
            assert route.diverged is not admissible
            assert math.isfinite(route.value) is admissible
        assert not admissible or abs(exact.value - quad.value) <= 1e-12
        cost = local_cost(t, path.at(t), path.slope_at(t), sched, prof)
        slope_rule = rule in ("slope_sum", "cumulative_slope_upper", "escape_rate")
        assert np.isfinite(cost).tolist() == [admissible or not slope_rule] * 2


def _projection_sweep(rng):
    """(path, schedule, profile) for 90 admissible paths moved by at most
    PATH_TOL/2, three kinds in turn at d = 1..5: from a nonempty profile,
    a first piece that draws slot j down to -delta at its end knot and a
    second that stops drawing it; criterion 8's path from the empty state
    shifted by a vector within delta; and that path with every slope
    scaled by 1 +- delta."""
    for n in range(90):
        d = 1 + n // 3 % 5
        delta = 0.5 * PATH_TOL * rng.uniform(0.0, 1.0)
        if n % 3 == 0:
            f = increments(d)
            j = int(rng.integers(1, d + 1))
            while True:    # until no other slot is below 0 at a knot
                c = rng.uniform(0.02, 0.1, d + 2)
                nu1, nu2 = rng.dirichlet(np.ones(d + 2), size=2)
                nu1[j - 1] = 0.0       # slot j loses nu1[j], gains nothing
                nu1[j] += 1.0
                nu1 /= nu1.sum()
                nu2[j] = 0.0
                nu2 /= nu2.sum()
                t1 = (c[j] + delta) / nu1[j]
                x1 = c + t1 * (nu1 @ f)
                x1[j] = -delta
                x2 = x1 + (1.0 - t1) * (nu2 @ f)
                if t1 < 0.95 and np.delete(np.stack([x1, x2]), j, axis=1).min() >= 0.0:
                    break
            yield (Path.from_knots([0.0, t1, 1.0], [c, x1, x2]), BOUNDARY_SCHEDULE,
                   InitialProfile.from_masses(c))
            continue
        base = _random_admissible_path(rng, d)
        if n % 3 == 1:
            values = base.values + rng.uniform(-delta, delta, d + 2)
        else:
            values = base.values * (1.0 + rng.choice([-delta, delta]))
        yield Path.from_knots(base.times, values), CLASSICAL, EMPTY


def test_paths_within_tolerance_rate_at_their_projection():
    # every path is admissible, and both routes rate its projection (start
    # on the profile, knots clipped at 0) to one finite value
    for path, sched, prof in _projection_sweep(np.random.default_rng(39)):
        assert validate_path(path, prof).is_admissible
        exact, quad = path_rate_exact(path, sched, prof), path_rate_Id(path, sched, prof)
        assert not exact.diverged and not quad.diverged
        assert abs(exact.value - quad.value) <= 1e-12


def test_exact_route_rejects_polynomial_schedules():
    polynomial = Schedule.from_segments([(0.0, 0.0, 8.0), (0.5, (0.1, 0.2), 1.0)])
    path = linear_target_path(geometric_law(), 3)
    with pytest.raises(ValueError, match="piecewise-constant"):
        path_rate_exact(path, polynomial, EMPTY)
    assert math.isfinite(path_rate_Id(path, polynomial, EMPTY).value)


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
    # a law object gets the same tolerance as a sequence
    heavy = ReferenceLaw("dirac", {}, np.array([0.5, 0.5 + 1e-6]), 0.0, 0.0)
    with pytest.raises(ValueError, match="sum to 1"):
        linear_target_path(heavy, 3)


def test_rate_arguments_are_checked():
    path = linear_target_path(star_law(), 2)
    # 1e-300 would split every panel down to the width floor: rejected
    # before any panel is evaluated
    for bad in (0.0, -1.0, math.nan, math.inf, 1e-300, 0.5 * MIN_TOL):
        with pytest.raises(ValueError, match="tol"):
            path_rate_Id(path, CLASSICAL, EMPTY, tol=bad)
        with pytest.raises(ValueError, match="tol"):
            path_rate_Iinf(star_law(), CLASSICAL, EMPTY, tol=bad)
        # on either route, and before anything is computed
        with pytest.raises(ValueError, match="tol"):
            path_rate(path, CLASSICAL, EMPTY, tol=bad)
        with pytest.raises(ValueError, match="tol"):
            rate.check_tol(bad)
    # the floor itself is met: no panel is split down to the width floor
    assert path_rate_Id(path, CLASSICAL, EMPTY, tol=MIN_TOL).floor_hits == 0


def test_slope_sum_noise_tolerance():
    # slope totals within PATH_TOL of 1 are rescaled, and rate as before ...
    near = Path.from_knots([0.0, 1.0], [[0.0] * 4, [1.0 + 5e-10, 0.0, 0.0, 0.0]])
    assert path_rate_exact(near, CLASSICAL, EMPTY).value == 0.6931471810599453
    assert path_rate_Id(near, CLASSICAL, EMPTY).value == 0.6931471810599452
    # ... but slopes further off the simplex charge +inf on every route
    for total in (1.0 + 2e-9, 1.0 + 3e-7, 1.01):
        off = Path.from_knots([0.0, 1.0], [[0.0] * 4, [total, 0.0, 0.0, 0.0]])
        for rep in (path_rate_exact(off, CLASSICAL, EMPTY), path_rate_Id(off, CLASSICAL, EMPTY)):
            assert math.isinf(rep.value) and rep.diverged
        assert math.isinf(local_cost(0.5, off.at(0.5), off.slopes[0], CLASSICAL, EMPTY))
        assert not validate_path(off, EMPTY).is_admissible
