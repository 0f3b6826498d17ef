import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from urnrates import lln
from urnrates.lln import (
    EnvelopeParams,
    b_sequence,
    b_sequence_gamma,
    constant_coefficient_solution,
    dirac_law,
    geometric_law,
    graded_grid,
    power_law_envelopes,
    solve_lln_closed,
    solve_lln_numeric,
    star_law,
    stretched_exponential,
    weighted_sum_check,
)
from urnrates.model import InitialProfile, Schedule, sigma, validate_path
from urnrates.rate import project_path

CLASSICAL = Schedule.constant(0.0, 1.0)
TWO_PHASE = Schedule.from_segments([(0.0, 0.0, 8.0), (0.01, 0.0, 1.0)])
POLY = Schedule.from_segments([(0.0, (0.1, 0.3), (1.0, 0.0, 2.0))])
THREE = Schedule.from_segments([(0, 0, 8), (0.3, (0.1, 0.2), (1.0, 0.5)), (0.7, 0.2, 2.0)])
EMPTY = InitialProfile.empty()
HOMOG = EnvelopeParams(0.0, 0.0, 1.0, 1.0, 0.0)


# ------------------------------------------------------ homogeneous case

def test_homogeneous_slopes_closed_form():
    # p = 0, beta = 1: b_i = 4 / ((i+1)(i+2)(i+3))
    i = np.arange(9, dtype=float)
    assert_allclose(b_sequence(HOMOG, 8), 4.0 / ((i + 1) * (i + 2) * (i + 3)),
                    rtol=1e-14)


def test_homogeneous_solution_is_linear():
    d = 8
    grid = np.linspace(0.0, 1.0, 11)
    sol = solve_lln_closed(d, CLASSICAL, EMPTY, grid=grid)
    b = b_sequence(HOMOG, d)
    assert_allclose(sol.values[:, : d + 1], np.outer(grid, b), atol=1e-13)
    # aggregate slot drains level d at rate (d+1) b_d / 2
    assert_allclose(sol.values[:, d + 1], grid * 2.0 / ((d + 2) * (d + 3)),
                    atol=1e-13)
    assert sol.mass_deviation(EMPTY) < 1e-12


def test_homogeneous_tail_complement():
    # 1 - [zeta]_k(1) = 2 / ((k+2)(k+3)); the terminal occupancies decay
    # with density exponent 3
    d = 40
    sol = solve_lln_closed(d, CLASSICAL, EMPTY, grid=np.array([0.0, 1.0]))
    comp = 1.0 - np.cumsum(sol.values[-1, : d + 1])
    k = np.arange(d + 1, dtype=float)
    assert_allclose(comp, 2.0 / ((k + 2) * (k + 3)), rtol=1e-10, atol=1e-13)


# ------------------------------------------------------ dual-route check

def test_closed_vs_ode_constant_schedule():
    grid = np.array([0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 1.0])
    a = solve_lln_closed(12, CLASSICAL, EMPTY, grid=grid)
    b = solve_lln_numeric(12, CLASSICAL, EMPTY, grid=grid)
    assert a.method != b.method
    assert_allclose(a.values, b.values, atol=1e-12)


def test_closed_vs_ode_two_phase():
    grid = np.array([0.0, 0.005, 0.01, 0.05, 0.3, 1.0])
    a = solve_lln_closed(12, TWO_PHASE, EMPTY, grid=grid)
    b = solve_lln_numeric(12, TWO_PHASE, EMPTY, grid=grid)
    assert_allclose(a.values, b.values, atol=1e-8)


def test_closed_vs_ode_polynomial_coefficients():
    # time-varying p and beta, from positive mass (sigma(0) > 0) and from
    # empty (the ODE is seeded at t0 from the coefficients at t = 0); at
    # d = 0 the aggregate slot also receives the new-urn ball
    grid = np.array([0.0, 0.1, 0.4, 0.8, 1.0])
    for prof in (InitialProfile.from_masses((0.2, 0.1)), EMPTY):
        for d, mass_tol in ((6, 1e-7), (0, 5e-7)):
            a = solve_lln_closed(d, POLY, prof, grid=grid)
            b = solve_lln_numeric(d, POLY, prof, grid=grid)
            assert_allclose(a.values, b.values, atol=5e-7)
            assert a.mass_deviation(prof) < mass_tol


def test_ode_route_does_not_call_closed_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the ODE route must not use the closed-form solver")
    monkeypatch.setattr(lln, "solve_lln_closed", refuse)
    for d in (0, 1, 6):
        sol = solve_lln_numeric(d, POLY, EMPTY)
        assert sol.mass_deviation(EMPTY) < 1e-12


def test_closed_vs_ode_mixed_constant_and_polynomial_segments():
    # both kinds of step (one propagator per constant segment, one series
    # per step on a polynomial one) in one solve
    grid = np.array([0.0, 0.05, 0.3, 0.5, 0.7, 0.85, 1.0])
    for prof in (EMPTY, InitialProfile.from_masses((0.3, 0.1, 0.05))):
        for d in (1, 6):
            a = solve_lln_closed(d, THREE, prof, grid=grid)
            b = solve_lln_numeric(d, THREE, prof, grid=grid)
            assert_allclose(a.values, b.values, atol=1e-7)
            assert a.mass_deviation(prof) < 1e-7


# ------------------------------------------------------ the ODE integrator

PROFILE = InitialProfile.from_masses((0.3, 0.1, 0.05))


def _scipy_route(d, sched, prof, grid):
    """The ODE route's trajectory by scipy's RK45: the same right side, seed
    and restarts at the breakpoints, read off scipy's dense output.  That
    interpolant has no error control of its own (at the route's tolerances
    it reads up to 4e-9 off at d = 0), so the tolerances are tighter and no
    step is longer than the grid spacing."""
    from scipy.integrate import solve_ivp

    if prof.c_total == 0.0:
        left, y = lln.SEED_T0, lln._start_slopes(sched, d) * lln.SEED_T0
    else:
        left, y = 0.0, prof.truncated(d)
    out = np.empty((grid.size, d + 2))
    out[grid < left] = np.outer(grid[grid < left] / left, y)
    for seg, right in zip(sched.segments, sched.breakpoints[1:]):
        if right <= left:
            continue
        inside = (grid >= left) & (grid <= right)
        res = solve_ivp(lln._rhs, (left, right), y, method="RK45", dense_output=True,
                        rtol=1e-12, atol=1e-15, max_step=0.01, args=(seg, prof, d))
        assert res.success
        out[inside] = res.sol(grid[inside]).T
        y, left = res.y[:, -1], right
    return out


@pytest.mark.parametrize("sched, prof, d", [
    *((CLASSICAL, EMPTY, d) for d in (0, 6, 30)),
    *((TWO_PHASE, EMPTY, d) for d in (0, 6, 30)),
    *((THREE, prof, d) for prof in (EMPTY, PROFILE) for d in (0, 6))],
    ids=[*(f"classical-d{d}" for d in (0, 6, 30)), *(f"figure1-d{d}" for d in (0, 6, 30)),
         *(f"polynomial-{p}-d{d}" for p in ("empty", "profile") for d in (0, 6))])
def test_ode_route_matches_scipy_rk45(sched, prof, d):
    # second route for the Dormand-Prince integrator: scipy's solve_ivp
    grid = np.linspace(0.0, 1.0, 101)
    got = solve_lln_numeric(d, sched, prof, grid=grid)
    assert_allclose(got.values, _scipy_route(d, sched, prof, grid), rtol=0, atol=1e-11)


@pytest.mark.parametrize("p, beta", [(0.0, 1.0), (0.3, 1.5)])
def test_ode_route_is_exact_on_linear_levels(p, beta):
    # from empty on a constant schedule the levels are b_i t: every stage
    # of a step lies on that line, so only round-off leaves it, and the
    # step control holds that within the absolute tolerance
    d = 30
    grid = np.linspace(0.0, 1.0, 101)
    sol = solve_lln_numeric(d, Schedule.constant(p, beta), EMPTY, grid=grid)
    b = b_sequence(EnvelopeParams(p, p, beta, beta, 0.0), d)
    assert_allclose(sol.values[:, : d + 1], np.outer(grid, b), rtol=1e-13,
                    atol=lln.ODE_ATOL)
    assert_allclose(sol.values[:, d + 1], grid * (1.0 - b.sum()), rtol=1e-13,
                    atol=lln.ODE_ATOL)


def test_ode_rows_are_steps_ending_at_the_requested_times():
    # each row is the state at which a step's last stage was evaluated,
    # at exactly its requested time: stepped, not interpolated
    d = 6
    seen = []

    def rhs(t, y):
        seen.append((t, y.copy()))
        return lln._rhs(t, y, POLY.segments[0], PROFILE, d)

    times = np.array([1e-3, 0.0123, 0.2, 0.2 + 1e-9, 0.7, 1.0])
    rows = lln._dormand_prince(rhs, 0.0, PROFILE.truncated(d), times)
    for t, row in zip(times, rows):
        assert any(s == t and np.array_equal(y, row) for s, y in seen)
    grid = np.concatenate([[0.0], times])
    sol = solve_lln_numeric(d, POLY, PROFILE, grid=grid)
    assert_array_equal(sol.grid, grid)
    assert_array_equal(sol.values[1:], rows)


@pytest.mark.parametrize("sched, prof", [(TWO_PHASE, EMPTY), (THREE, PROFILE)],
                         ids=["figure1", "polynomial"])
def test_ode_stages_read_their_own_segment(monkeypatch, sched, prof):
    # each interval between breakpoints is stepped on its own segment's
    # polynomials, including the stages that land on the interval's end,
    # where a lookup by time would read the next segment
    starts, ends = sched.breakpoints[:-1], sched.breakpoints[1:]
    calls = []
    rhs = lln._rhs

    def spy(t, y, segment, profile, d):
        calls.append((float(t), next(k for k, s in enumerate(sched.segments) if s is segment)))
        return rhs(t, y, segment, profile, d)

    monkeypatch.setattr(lln, "_rhs", spy)
    solve_lln_numeric(6, sched, prof, grid=np.linspace(0.0, 1.0, 101))
    assert all(starts[k] <= t <= ends[k] for t, k in calls)
    assert {k for _, k in calls} == set(range(len(sched.segments)))
    # every interval but the last ends on a breakpoint its stages reach
    for k in range(len(sched.segments) - 1):
        assert (float(ends[k]), k) in calls


def test_ode_step_cap_raises_naming_the_interval(monkeypatch):
    monkeypatch.setattr(lln, "ODE_MAX_STEPS", 5)
    with pytest.raises(RuntimeError, match=r"on \[0\.0, 1\.0\]: more than 5 steps"):
        solve_lln_numeric(6, CLASSICAL, PROFILE)


@pytest.mark.parametrize("sched", [CLASSICAL, TWO_PHASE], ids=["homogeneous", "figure1"])
def test_empty_start_first_cell_is_the_linear_solution(sched):
    # from an empty profile on a constant first segment the limit is
    # zeta_i = b_i t exactly up to the first breakpoint t1: every value
    # there, levels and aggregate slot, is slope * t to the last bit, on
    # graded_grid's knots and on requested times inside (0, t1)
    t1 = sched.breakpoints[1]
    p0, beta0 = (float(v) for v in sched.coefficients(0.0))
    requested = np.array([0.0, 0.002, 0.005, 0.01, 0.3, 0.55, 1.0])
    for grid, inside in ((None, 0), (requested, 2)):
        for d in (0, 5, 20):
            sol = solve_lln_closed(d, sched, EMPTY, grid=grid, rel_spacing=2e-3)
            b = b_sequence(EnvelopeParams(p0, p0, beta0, beta0, 0.0), d)
            # the aggregate slot gains level d's outflow, and at d = 0 the
            # new-urn ball
            bar = (1.0 - p0) * (d + beta0) * b[d] / (1.0 + beta0) + (p0 if d == 0 else 0.0)
            first = sol.grid <= t1
            assert np.count_nonzero((sol.grid > 0.0) & (sol.grid < t1)) >= inside
            assert_array_equal(sol.values[first], np.outer(sol.grid[first], np.append(b, bar)))


def test_linear_first_segment_has_no_cells(monkeypatch):
    # graded_grid places no knot inside a linear first segment, and a
    # one-segment constant schedule from empty expands no series at all
    assert_array_equal(graded_grid(TWO_PHASE, EMPTY)[:2], [0.0, 0.01])

    def refuse(*args):
        raise AssertionError("a linear schedule expands no series")
    monkeypatch.setattr(lln, "_taylor", refuse)
    sol = solve_lln_closed(20, CLASSICAL, EMPTY)
    assert_array_equal(sol.grid, [0.0, 1.0])


TWO_STEP = Schedule.from_segments([(0.0, 0.2, 1.5), (0.4, 0.05, 0.5)])


@pytest.mark.parametrize("grid", [None, np.array([0.0, 0.005, 0.01, 0.3, 0.55, 1.0])],
                         ids=["own", "requested"])
@pytest.mark.parametrize("prof", [EMPTY, PROFILE], ids=["empty", "profile"])
@pytest.mark.parametrize("sched", [CLASSICAL, TWO_PHASE, POLY, THREE, TWO_STEP],
                         ids=["homogeneous", "figure1", "polynomial", "three", "two-step"])
def test_kernel_meets_no_singular_intermediate(sched, prof, grid):
    # the series divides only by sigma away from its roots (a Frobenius
    # start solves at sigma(0) = 0 instead), so solving and truncating
    # divide by no zero and overflow or lose nothing to nan
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        path = solve_lln_closed(20, sched, prof, grid=grid).path()
        for d in (0, 5, 20):
            assert np.all(np.isfinite(project_path(path, d).values))


def test_graded_grid_floors_a_polynomial_first_segment():
    # from empty, a polynomial first segment is not linear: the grading
    # still resolves t = 0 with floor cells
    grid = graded_grid(POLY, EMPTY, rel_spacing=2e-3)
    assert grid[1] - grid[0] < 1e-9
    assert grid.size > 10_000


# project_path to depth d of a depth-20 limit path against the path of the
# solve at depth d, whose steps reach further (the reach shrinks with the
# depth): within 3.4e-16 on these cases, measured
TRUNCATION_ATOL = 1e-15


@pytest.mark.parametrize("grid", [None, np.array([0.0, 0.005, 0.01, 0.3, 0.55, 1.0])],
                         ids=["fine", "requested"])
@pytest.mark.parametrize("sched, prof", [
    (TWO_PHASE, EMPTY), (THREE, InitialProfile.from_masses((0.3, 0.1, 0.05)))],
    ids=["figure1", "polynomial"])
def test_one_kernel_matches_separate_solves(sched, prof, grid):
    # one solve at the deepest depth serves every shallower one through
    # project_path, in any order, repeats included
    deep = solve_lln_closed(20, sched, prof, grid=grid).path()
    for d in (20, 0, 5, 20):
        got = project_path(deep, d)
        want = solve_lln_closed(d, sched, prof, grid=grid).path()
        assert got.d == d
        assert_array_equal(got.times, want.times)
        assert_allclose(got.values, want.values, rtol=0, atol=TRUNCATION_ATOL)
    assert_array_equal(project_path(deep, 20).values, deep.values)
    with pytest.raises(ValueError, match="depth"):
        project_path(deep, 21)


@pytest.mark.parametrize("prof, spacing", [(EMPTY, 2e-3), (PROFILE, 2e-4)],
                         ids=["empty-2e-3", "profile-2e-4"])
def test_series_peak_is_the_values_and_a_few_row_arrays(prof, spacing):
    # above the values it returns, a solve at d = 20 on figure 1's graded
    # knots holds the Horner pass' two (times, d+2) arrays, the Taylor
    # coefficients of the steps that hold a time and per-time indices:
    # 2.81 values' worth at 2e-3 (2,307 knots) and 2.22 at 2e-4 (6,995),
    # measured
    solve_lln_closed(20, TWO_PHASE, prof, rel_spacing=spacing)    # first-call allocations
    tracemalloc.start()
    try:
        sol = solve_lln_closed(20, TWO_PHASE, prof, rel_spacing=spacing)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept <= 3.5 * sol.values.nbytes


SCHEDULES = {"homogeneous": CLASSICAL, "figure1": TWO_PHASE, "polynomial": POLY,
             "three": THREE, "two-step": TWO_STEP}
# every breakpoint of these schedules and its upper ulp neighbour
ROUTE_TIMES = np.unique(np.concatenate([np.linspace(0.0, 1.0, 21),
                                        [np.nextafter(t, 1.0) for t in (0.01, 0.3, 0.4, 0.7)]]))


def _dop853_route(d, sched, prof, grid):
    """scipy's DOP853 at rtol 1e-13, atol 1e-16 on _rhs, segment by
    segment.  From an empty profile it starts from the linear solution at
    t1 after a constant first segment (where it is exact) and at 1e-8 on
    a polynomial one (within O(1e-16) there)."""
    from scipy.integrate import solve_ivp

    left, y = 0.0, prof.truncated(d)
    if prof.c_total == 0.0:
        left = sched.breakpoints[1] if sched.segments[0].is_constant else 1e-8
        y = lln._start_slopes(sched, d) * left
    out = np.empty((grid.size, d + 2))
    known = grid <= left
    out[known] = np.outer(grid[known] / left, y) if left > 0.0 else y
    for seg, right in zip(sched.segments, sched.breakpoints[1:]):
        if right <= left:
            continue
        res = solve_ivp(lln._rhs, (left, right), y, method="DOP853", dense_output=True,
                        rtol=1e-13, atol=1e-16, args=(seg, prof, d))
        assert res.success
        inside = (grid > left) & (grid <= right)
        if inside.any():
            out[inside] = res.sol(grid[inside]).T
        y, left = res.y[:, -1], right
    return out


@pytest.mark.parametrize("d", [0, 5, 30, 120])
@pytest.mark.parametrize("prof", [EMPTY, PROFILE], ids=["empty", "profile"])
@pytest.mark.parametrize("name", SCHEDULES)
def test_series_matches_dop853_and_the_ode_route(name, prof, d):
    # the series against two other routes, every slot (the aggregate
    # included) at ROUTE_TIMES.  Measured: within 8.9e-15 of DOP853 at
    # d <= 30, but 4.8e-13 on the polynomial schedule from empty at d = 0,
    # where the reference starts at 1e-8, and within 1.2e-14 at d = 120
    # but 8.2e-13 on figure 1 from empty (on 101 times DOP853 reads 4.9e-12
    # off both LLN routes there, which agree within 6.8e-13); within
    # 2.9e-11 of the ODE route, whose tolerances are 1e-10 and 1e-13; mass
    # deviation at most 6.7e-16
    sched = SCHEDULES[name]
    got = solve_lln_closed(d, sched, prof, grid=ROUTE_TIMES)
    start_at_root = prof is EMPTY and name == "polynomial"
    bound = 2e-14 if d <= 30 and not start_at_root else 1e-12
    assert_allclose(got.values, _dop853_route(d, sched, prof, ROUTE_TIMES), rtol=0, atol=bound)
    ode = solve_lln_numeric(d, sched, prof, grid=ROUTE_TIMES)
    assert_allclose(got.values, ode.values, rtol=0, atol=1e-10)
    assert got.mass_deviation(prof) <= 1e-15


@pytest.mark.parametrize("sched, prof, d, t", [(THREE, EMPTY, 5, 0.7), (TWO_STEP, PROFILE, 1, 0.4)],
                         ids=["three-empty", "two-step-profile"])
def test_requested_time_one_ulp_past_a_breakpoint(sched, prof, d, t):
    # a time one ulp above a breakpoint is one more Horner evaluation on
    # its step: within 7.4e-13 and 1.1e-12 of the ODE route, measured
    grid = np.array([0.0, t, np.nextafter(t, 1.0), 0.71, 1.0])
    got = solve_lln_closed(d, sched, prof, grid=grid)
    want = solve_lln_numeric(d, sched, prof, grid=grid)
    assert_allclose(got.values, want.values, rtol=0, atol=5e-12)


@pytest.mark.parametrize("solve", [solve_lln_closed, solve_lln_numeric],
                         ids=["closed", "numeric"])
@pytest.mark.parametrize("bad", [2.0, -0.5, np.nan, np.inf])
def test_times_outside_unit_interval_are_rejected(solve, bad):
    # both routes used to return clamped or uninitialised rows for them
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        solve(3, CLASSICAL, EMPTY, grid=[0.5, 1.0, bad])


def test_new_urn_ball_reaches_aggregate_slot_at_d0():
    # at d = 0 the aggregate slot holds the urns with at least one ball, so
    # it gains p + (1-p) beta zeta_0 / sigma: zetabar = (1 - b_0) t
    sched = Schedule.constant(0.3, 1.0)
    grid = np.linspace(0.0, 1.0, 11)
    a = solve_lln_closed(0, sched, EMPTY, grid=grid)
    b = solve_lln_numeric(0, sched, EMPTY, grid=grid)
    b0 = b_sequence(EnvelopeParams(0.3, 0.3, 1.0, 1.0, 0.0), 0)[0]
    assert_allclose(a.values[:, 1], grid * (1.0 - b0), atol=1e-12)
    assert a.mass_deviation(EMPTY) < 1e-12
    assert b.mass_deviation(EMPTY) < 1e-12
    assert_allclose(a.values, b.values, atol=1e-12)


def test_grid_restriction_matches_superset_solve():
    # the steps do not depend on the requested times, and each time reads
    # its own step's series, so a subset of the times gets the same bits
    grid = np.array([0.0, 0.25, 0.5, 1.0])
    for sched, prof in ((TWO_PHASE, EMPTY), (THREE, PROFILE), (THREE, EMPTY)):
        coarse = solve_lln_closed(5, sched, prof, grid=grid)
        finer = solve_lln_closed(5, sched, prof,
                                 grid=np.array([0.0, 0.1, 0.25, 0.5, 0.9, 1.0]))
        assert_array_equal(coarse.grid, grid)
        assert_array_equal(coarse.values, finer.values[[0, 2, 3, 5]])
        own = solve_lln_closed(5, sched, prof)
        assert_array_equal(solve_lln_closed(5, sched, prof, grid=own.grid[::7]).values,
                           own.values[::7])


def test_lln_path_is_admissible():
    sol = solve_lln_closed(15, TWO_PHASE, EMPTY)
    rep = validate_path(sol.path(), EMPTY)
    assert rep.is_admissible, rep.violations


# --------------------------------------------------------- weight ledger

def test_weight_deficit_shrinks_with_truncation():
    grid = np.linspace(0.0, 1.0, 11)
    prev = np.inf
    for d in (5, 10, 20):
        sol = solve_lln_closed(d, CLASSICAL, EMPTY, grid=grid)
        check = weighted_sum_check(sol, EMPTY)
        assert np.all(check.adjusted >= -1e-12)
        # homogeneous case: deficit above the tail minimum is 2t/(d+3)
        assert_allclose(check.adjusted, 2.0 * grid / (d + 3), atol=1e-12)
        assert check.max_adjusted < prev
        prev = check.max_adjusted


# -------------------------------------------- constant-coefficient family

def test_b_sequence_recursion_matches_gamma_form():
    params = EnvelopeParams(0.3, 0.1, 2.5, 1.7, 0.4)
    a = b_sequence(params, 50)
    b = b_sequence_gamma(params, 50)
    assert_allclose(a, b, rtol=1e-12)


def test_chi_solution_exactness():
    params = EnvelopeParams(0.3, 0.1, 2.5, 1.7, 0.4)
    prof = InitialProfile.from_masses((0.15, 0.1, 0.05))
    grid = np.linspace(0.0, 1.0, 41)
    chi = constant_coefficient_solution(params, prof, grid, d=6)
    assert_allclose(chi.values[0], prof.truncated(6)[:7], atol=1e-15)


@pytest.mark.parametrize("d", [0, 5, 24, 60, 230])
def test_chi_solution_matches_ode_route(d):
    # with o1 = o2 = p, o3 = o4 = beta and o5 = sigma(0)/(1+beta), the
    # comparison system is the limit ODE system on a constant schedule
    p, beta = 0.2, 1.5
    o5 = float(sigma(PROFILE, 0.0, beta)) / (1.0 + beta)
    grid = np.linspace(0.0, 1.0, 101)
    chi = constant_coefficient_solution(EnvelopeParams(p, p, beta, beta, o5),
                                        PROFILE, grid, d)
    sol = solve_lln_numeric(d, Schedule.constant(p, beta), PROFILE, grid=grid)
    assert_allclose(chi.values, sol.values[:, : d + 1], rtol=0, atol=1e-10)


def _comparison_rhs(t, chi, params):
    """The comparison system as EnvelopeParams states it."""
    o1, o2, o3, o4, o5 = params.o1, params.o2, params.o3, params.o4, params.o5
    drain = (1.0 - o2) * (np.arange(chi.size) + o3) * chi / ((1.0 + o4) * (t + o5))
    dchi = -drain
    dchi[1:] += drain[:-1]
    dchi[0] += 1.0 - o1
    dchi[1:2] += o1             # level 1's source, when d >= 1
    return dchi


@pytest.mark.parametrize("d", [6, 60])
def test_chi_solution_matches_scipy_dop853(d):
    # second route with o1 != o2: scipy's DOP853 on the comparison system
    from scipy.integrate import solve_ivp

    params = EnvelopeParams(0.3, 0.1, 2.5, 1.7, 0.4)
    prof = InitialProfile.from_masses((0.15, 0.1, 0.05))
    grid = np.linspace(0.0, 1.0, 41)
    chi = constant_coefficient_solution(params, prof, grid, d)
    res = solve_ivp(_comparison_rhs, (0.0, 1.0), prof.truncated(d)[: d + 1],
                    method="DOP853", t_eval=grid, rtol=1e-13, atol=1e-15, args=(params,))
    assert res.success
    assert_allclose(chi.values, res.y.T, rtol=0, atol=1e-12)


def test_chi_zero_offset_needs_empty_profile():
    params = EnvelopeParams(0.2, 0.2, 1.0, 1.0, 0.0)
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        constant_coefficient_solution(params, InitialProfile.from_masses((0.5,)),
                                      grid, d=3)
    chi = constant_coefficient_solution(params, EMPTY, grid, d=3)
    assert_allclose(chi.values, np.outer(grid, chi.b), atol=1e-15)


def test_envelope_params_validation():
    with pytest.raises(ValueError):
        EnvelopeParams(1.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        EnvelopeParams(0.0, 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        EnvelopeParams(0.0, 0.0, 1.0, 1.0, -0.1)


def test_envelopes_bracket_partial_sums():
    grid = np.linspace(0.0, 1.0, 21)
    d = 10
    sol = solve_lln_closed(d, TWO_PHASE, EMPTY, grid=grid)
    env = power_law_envelopes(TWO_PHASE, EMPTY, grid, d)
    cs = np.cumsum(sol.values[:, : d + 1], axis=1)
    assert np.all(np.cumsum(env.upper.values, axis=1) >= cs - 1e-12)
    assert np.all(np.cumsum(env.lower.values, axis=1) <= cs + 1e-12)
    # beta in [1, 8], p = 0: density exponents 1 + (1+beta)
    assert_allclose(env.upper.params.tail_exponent, 10.0)
    assert_allclose(env.lower.params.tail_exponent, 3.0)


@pytest.mark.parametrize("sched, prof", [(TWO_PHASE, EMPTY), (Schedule.constant(0.2, 1.5), PROFILE)],
                         ids=["two-phase-empty", "constant-profile"])
def test_envelopes_on_no_times_keep_slopes_and_exponents(sched, prof):
    # urnrates envelope writes only slopes and exponents, read from laws
    # solved at no times
    d = 12
    some = power_law_envelopes(sched, prof, np.linspace(0.0, 1.0, 5), d)
    none = power_law_envelopes(sched, prof, (), d)
    for got, want in ((none.upper, some.upper), (none.lower, some.lower)):
        assert got.values.shape == (0, d + 1)
        assert_array_equal(got.b, want.b)
        assert got.params == want.params


def test_envelopes_bracket_from_nonempty_profile():
    # deep levels from a profile, where the transients carry far, on both
    # LLN routes (on a constant schedule the envelopes are the limit: the
    # series' partial sums read at most 6.7e-16 above the upper one)
    d = 60
    grid = np.array([0.1, 0.5, 1.0])
    sched = Schedule.constant(0.2, 1.5)
    env = power_law_envelopes(sched, PROFILE, grid, d)
    for solve in (solve_lln_closed, solve_lln_numeric):
        cs = np.cumsum(solve(d, sched, PROFILE, grid=grid).values[:, : d + 1], axis=1)
        assert np.all(np.cumsum(env.upper.values, axis=1) >= cs - 1e-12)
        assert np.all(np.cumsum(env.lower.values, axis=1) <= cs + 1e-12)


def test_envelopes_collapse_for_constant_schedule():
    grid = np.linspace(0.0, 1.0, 9)
    d = 6
    env = power_law_envelopes(CLASSICAL, EMPTY, grid, d)
    assert_allclose(env.upper.b, env.lower.b, rtol=1e-14)
    sol = solve_lln_closed(d, CLASSICAL, EMPTY, grid=grid)
    assert_allclose(env.upper.values, sol.values[:, : d + 1], atol=1e-12)


# ----------------------------------------------------------- target laws

def test_star_and_dirac_laws():
    star = star_law()
    assert_allclose(star.values, [1.0])
    assert star.total() == 1.0 and star.mean() == 1.0
    road = dirac_law(2)
    assert_allclose(road.values, [0.0, 1.0])
    assert road.mean() == 2.0
    assert_allclose(dirac_law(1).values, star.values)
    with pytest.raises(ValueError):
        dirac_law(0)


def test_geometric_law_calibration():
    g = geometric_law()
    assert_allclose(g.total(), 1.0, atol=1e-15)
    assert_allclose(g.mean(), 2.0, atol=1e-14)
    assert_allclose(g.values[:4], [0.5, 0.25, 0.125, 0.0625])


@pytest.mark.parametrize("r", [0.5, 0.7, 0.8])
def test_stretched_exponential_calibration(r):
    law = stretched_exponential(r)
    assert abs(law.total() - 1.0) <= 1e-12
    # normalization forces mean 2: q(k)*k^r/mu telescopes to a survival sum
    assert abs(law.mean() - 2.0) <= 1e-12
    assert law.values[0] > law.values[1] > law.values[2]
    # q(k) = P_{k-1} - P_k, so the mass beyond the stored K is P_K
    mu = law.params["mu"]
    last = law.values[-1] * law.values.size ** r / mu
    assert abs(law.tail_mass - last) <= 1e-12 * last


def test_stretched_exponential_rejects_bad_r_and_long_walks(monkeypatch):
    for r in (1.0, 0.0):
        with pytest.raises(ValueError):
            stretched_exponential(r)
    # r = 0.7 needs more products than this cap allows
    monkeypatch.setattr(lln, "STRETCHED_MAX_TERMS", 1000)
    with pytest.raises(RuntimeError, match="r is too close to 1") as err:
        stretched_exponential(0.7)
    assert "max_terms" not in str(err.value)


def scalar_products(mu, r, powers=None, stop=math.inf):
    """The scalar product walk, the reference for the array walk (it takes
    the power table only to share its signature)."""
    prods = []
    append = prods.append
    term, acc = 1.0, 0.0
    for k in range(1, lln.STRETCHED_MAX_TERMS + 1):
        term /= 1.0 + mu / k ** r
        acc += term
        if acc > stop:
            return None
        append(term)
        if term * k * k < lln.STRETCHED_FLOOR:
            return np.asarray(prods)
    raise RuntimeError("r is too close to 1")


@pytest.mark.parametrize("r", [0.05, 0.3, 0.5, 0.7, 0.8])
def test_stretched_walk_matches_scalar_loop(monkeypatch, r):
    law = stretched_exponential(r)
    monkeypatch.setattr(lln, "_stretched_products", scalar_products)
    ref = stretched_exponential(r)
    assert law.params["mu"] == ref.params["mu"]
    assert law.values.tobytes() == ref.values.tobytes()
    assert law.tail_mass == ref.tail_mass and law.tail_mean == ref.tail_mean


def walk_outcome(walk, *args, **kwargs):
    try:
        prods = walk(*args, **kwargs)
    except RuntimeError:
        return "raised"
    return None if prods is None else prods.tobytes()


def test_stretched_walk_ends_as_the_loop_at_table_growth(monkeypatch):
    # at r = 0.5 the calibrated walk takes 398 products, past the table's
    # growths after 128 and 256 terms.  A stop at the running sum of k - 1
    # products ends the walk at k by the sum test, and caps of k - 1, k and
    # k + 1 products end it one product before, at and after that
    r = 0.5
    mu = stretched_exponential(r).params["mu"]
    sums = list(itertools.accumulate(scalar_products(mu, r)))
    assert len(sums) == 398
    shared = []        # one table for every walk, grown in full first, so
    lln._stretched_products(mu, r, shared)      # its runs end past the caps
    seen = set()
    for end in (127, 128, 129, 255, 256, 257, 398):
        for stop in (sums[end - 2], math.inf):
            for cap in (end - 1, end, end + 1):
                monkeypatch.setattr(lln, "STRETCHED_MAX_TERMS", cap)
                want = walk_outcome(scalar_products, mu, r, stop=stop)
                assert walk_outcome(lln._stretched_products, mu, r, [], stop=stop) == want
                assert walk_outcome(lln._stretched_products, mu, r, shared, stop=stop) == want
                seen.add(want if want in ("raised", None) else "products")
    assert seen == {"raised", None, "products"}
    # at mu = 1e12 the second product is below the floor and still raises
    # the sum: both tests fire at k = 2, and the sum test wins
    first = scalar_products(1e12, r)[0]
    for stop in (first, math.inf):
        want = walk_outcome(scalar_products, 1e12, r, stop=stop)
        assert walk_outcome(lln._stretched_products, 1e12, r, [], stop=stop) == want
    assert want is not None and walk_outcome(scalar_products, 1e12, r, stop=first) is None


# ------------------------------------------------------------------ grid

def test_graded_grid_structure():
    grid = graded_grid(TWO_PHASE, EMPTY, rel_spacing=0.05)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] == 0.0 and grid[-1] == 1.0
    for b in TWO_PHASE.breakpoints:
        assert np.min(np.abs(grid - b)) == 0.0
    # refinement right after each breakpoint: first cell well below spacing
    k = np.searchsorted(grid, 0.01)
    assert grid[k + 1] - grid[k] < 0.05 * 0.99 / 10


def test_graded_grid_extra_points_kept():
    extra = np.array([0.123456, 0.654321])
    grid = graded_grid(CLASSICAL, EMPTY, extra=extra)
    assert np.all(np.isin(extra, grid))


def test_graded_grid_profile_offsets_initial_refinement():
    # on a polynomial first segment, which empty starts still grade
    # (the first-cell bounds below are sized for rel_spacing 0.02)
    prof = InitialProfile.from_masses((0.3, 0.2))
    fine = graded_grid(POLY, profile=EMPTY, rel_spacing=0.02)
    coarse = graded_grid(POLY, profile=prof, rel_spacing=0.02)
    # positive sigma(0) means no sub-scale cells are needed at t = 0
    assert coarse.size < fine.size
    assert coarse[1] - coarse[0] > 1e-3
    assert fine[1] - fine[0] < 1e-9


def test_graded_grid_raises_rather_than_truncate():
    # 2e-4 needs about 138,000 cells from t = 0 on a polynomial first
    # segment from empty; cutting the segment short would leave one last
    # cell hundreds of times wider than its neighbour
    with pytest.raises(ValueError, match="cells"):
        graded_grid(POLY, EMPTY, rel_spacing=2e-4)
    grid = graded_grid(POLY, EMPTY, rel_spacing=5e-4)
    assert grid.size - 1 < lln.MAX_CELLS_PER_SEGMENT
    widths = np.diff(grid)
    assert np.max(widths[1:] / widths[:-1]) <= 1 + 5e-4 + 1e-9
