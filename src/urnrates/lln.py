"""Scaling-limit degree trajectories and comparison solutions.

The limit trajectory zeta solves a lower-triangular linear ODE system

    sigma zeta_0'  = (1-p) sigma - A_0 zeta_0,
    sigma zeta_i'  = A_{i-1} zeta_{i-1} - A_i zeta_i   (+ p sigma at i = 1),
    sigma zetabar' = A_d zeta_d                        (+ p sigma at d = 0),

with A_i = (1-p)(i+beta) and sigma = (1+beta) t + c_weighted + c_total
beta: level i+1 gains the flux that level i loses, the new-urn ball enters
at 1, and the aggregate slot keeps what leaves level d.  On a schedule
segment p and beta are polynomials, so the solution is analytic wherever
sigma > 0, within the distance to sigma's nearest complex root.
solve_lln_closed evaluates it by its own power series: a step writes sigma,
the A_i and the sources as Taylor coefficients in the step's scaled time
and takes the solution's order by order (_taylor), to SERIES_TERMS terms.
On a constant segment one expansion of the propagator marches every step by
one product; on a polynomial one each step is expanded (_segment_steps).
From an empty profile sigma(0) = 0: on a constant first segment the
solution there is exactly b_i t (b_sequence), taken as known, and on a
polynomial one the first step is a Frobenius start.  Each requested time
reads its step's series, all in one batched Horner pass; graded_grid's
knots are the times of a rated limit path.  Beside it are an independent
route that integrates the ODE system directly, each segment on its own
polynomials, by an adaptive Dormand-Prince 5(4) pair written here in numpy,
the constant-coefficient comparison family, power-law envelopes, and
reference target laws.  A comparison solution is linear in t plus
transients that each move by the negative-binomial law of a linear
pure-birth (Yule) process, a propagator with positive terms only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .model import InitialProfile, Path, Schedule, _polyval, sigma

# solve_lln_closed: the Taylor terms kept per step, and a step's reach as a
# fraction of the distance from its start to sigma's nearest root: at most
# SERIES_REACH, and at most SERIES_DECAY_REACH / alpha_d, where alpha_d =
# (1-p)(d+beta)/(1+beta) is level d's decay exponent, whose forward
# expansion alternates in sign with terms growing like
# binomial(n+alpha_d-1, n) * reach^n (with a reach of 1/3 alone, figure 1
# from empty read 1.4e-3 off at d = 60 and 3e146 at d = 120)
SERIES_TERMS = 40
SERIES_REACH, SERIES_DECAY_REACH = 1.0 / 3.0, 3.0

# graded_grid's default relative cell width, so that solve_lln_closed's
# no-grid knots are the rated limit path's (criterion 1, `rate --preset lln`),
# whose chords cost about h^2: 2.0e-9 on figure 1 at d = 20, 2.0e-7 at 0.02.
# graded_grid raises rather than cut a segment short at MAX_CELLS_PER_SEGMENT cells
LIMIT_PATH_SPACING = 2e-3
MAX_CELLS_PER_SEGMENT = 100_000

# solve_lln_numeric: the Runge-Kutta tolerances, the start time of the
# constant-coefficient seed when sigma(0) = 0, and the most steps, accepted
# or rejected, that one interval between breakpoints may take
ODE_RTOL, ODE_ATOL, SEED_T0 = 1e-10, 1e-13, 1e-6
ODE_MAX_STEPS = 100_000

# The Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6,
# 1980): the times of stages 2-5 as fractions of the step (stages 6 and 7 sit
# at its end), the stage weights row by row, the last row being the
# fifth-order solution (whose slope is the next step's first stage), and the
# weights of the difference between the fifth- and fourth-order steps.
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9)
_DP_A = np.array([
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
                  -1 / 40])


@dataclass(frozen=True)
class LLNSolution:
    """Limit trajectory on a time grid; values has shape (len(grid), d+2)."""

    d: int
    grid: np.ndarray
    values: np.ndarray
    method: str

    def path(self) -> Path:
        return Path.from_knots(self.grid, self.values)

    def mass_deviation(self, profile: InitialProfile) -> float:
        """max_t |sum_i zeta_i + zetabar - (t + c_total)|."""
        total = self.values.sum(axis=1)
        return float(np.abs(total - (self.grid + profile.c_total)).max())


@dataclass(frozen=True)
class WeightCheck:
    """Weight accounting for a truncated solution on its grid.

    adjusted(t)      = t + c_weighted - sum_{i<=d} i*zeta_i(t) - (d+1)*zetabar
                       (weight left over after counting every aggregated
                       urn at its minimum size)
    tail_bound(t)    = (d+1)*zetabar(t)
    """

    adjusted: np.ndarray
    tail_bound: np.ndarray
    max_adjusted: float


def weighted_sum_check(sol: LLNSolution, profile: InitialProfile) -> WeightCheck:
    d = sol.d
    visible = sol.values[:, : d + 1] @ np.arange(d + 1)
    tail_bound = (d + 1) * sol.values[:, d + 1]
    adjusted = sol.grid + profile.c_weighted - visible - tail_bound
    return WeightCheck(adjusted, tail_bound, float(np.abs(adjusted).max()))


def _linear_start(schedule: Schedule, profile: InitialProfile) -> bool:
    """Whether the limit is the linear solution zeta = slope * t
    (_start_slopes) on the whole first segment: from an empty profile,
    where sigma(0) = 0, on a constant first segment.  graded_grid then
    grades no cell there, and solve_lln_closed expands no series."""
    return (profile.c_total == 0.0 and profile.c_weighted == 0.0
            and schedule.segments[0].is_constant)


def graded_grid(schedule: Schedule, profile: InitialProfile,
                rel_spacing: float = LIMIT_PATH_SPACING, rel_floor: float = 1e-12,
                extra=None) -> np.ndarray:
    """Grid on [0,1] refined after each schedule breakpoint.

    Cell widths grow like rel_spacing * (effective age), where age is the
    distance past the segment start offset by sigma(start)/(1+beta) -- the
    scale on which the coefficients of the level equations vary.  At a
    start where sigma vanishes the age is zero and the grading bottoms out
    at rel_floor * segment length, resolving the power behavior at t=0;
    at interior breakpoints sigma is positive and the solution is smooth,
    so no sub-scale cells are produced there (slopes measured on cells far
    below the value round-off scale would be pure noise).  A first segment
    on which the limit is linear (_linear_start) keeps only its ends and
    the extra points, where the values are slope * t.  A
    segment that needs more than MAX_CELLS_PER_SEGMENT cells raises
    ValueError.
    """
    brks = schedule.breakpoints.tolist()    # Python floats step faster below
    pts = [np.asarray([] if extra is None else extra, dtype=float), np.asarray(brks)]
    skip = 1 if _linear_start(schedule, profile) else 0
    for a, b in zip(brks[skip:-1], brks[skip + 1:]):
        length = b - a
        beta_a = float(schedule.coefficients(a)[1])
        age0 = float(sigma(profile, a, beta_a)) / (1.0 + beta_a)
        floor = rel_floor * length
        nodes = [a]
        append = nodes.append
        t = a + max(rel_spacing * age0, floor)
        while t < b:
            if len(nodes) >= MAX_CELLS_PER_SEGMENT:
                raise ValueError(f"segment [{a}, {b}] needs over {MAX_CELLS_PER_SEGMENT} "
                                 f"cells at rel_spacing {rel_spacing}")
            append(t)
            step = rel_spacing * (t - a + age0)
            t += floor if floor > step else step    # max(step, floor)
        pts.append(np.asarray(nodes))
    grid = np.unique(np.concatenate(pts))
    return grid[(grid >= 0.0) & (grid <= 1.0)]


def _times(grid) -> np.ndarray:
    """grid as a float array, checked to hold only times in [0, 1]."""
    grid = np.asarray(grid, dtype=float)
    if not np.all((grid >= 0.0) & (grid <= 1.0)):    # NaN fails both
        raise ValueError(f"LLN times must be finite and lie in [0, 1] (got {grid})")
    return grid


def _taylor(sig, a, src, w0, weight) -> np.ndarray:
    """Taylor coefficients (SERIES_TERMS, K, d+2) in u of the K solutions of

        sig(u) w' = weight * src(u) + (L - I)(a(u) w),    w(0) = w0 (K, d+2),

    where L moves each slot's flux a_i w_i into slot i+1 (the aggregate
    slot's a is 0, so it keeps what it gains), sig (m,), a (m, d+2) and src
    (m, d+2) hold coefficient rows, low order first, and weight (K,) scales
    the source of each solution.  Order j comes from the orders below it:
    from the equation at order j-1, j sig_0 w_j = known terms, or where
    sig_0 = 0 (sigma's root at an empty start, a regular singular point)
    from the one at order j, the lower-bidiagonal system
    (j sig_1 + a_i) w_{j,i} - a_{i-1} w_{j,i-1} = known terms, whose
    solutions from w0 = 0 are the analytic ones (a Frobenius start).
    """
    frob = int(sig[0] == 0.0)
    w = np.empty((SERIES_TERMS,) + w0.shape)
    w[0] = w0
    for j in range(1, SERIES_TERMS):
        e = j - 1 + frob        # the order of the equation that sets w_j
        rhs = np.zeros(w0.shape)
        for k in range(frob, min(e, len(a) - 1) + 1):
            flux = a[k] * w[e - k]
            rhs -= flux
            rhs[:, 1:] += flux[:, :-1]
        if e < len(src):
            rhs += np.multiply.outer(weight, src[e])
        for k in range(1 + frob, min(e + 1, len(sig) - 1) + 1):
            rhs -= (sig[k] * (e + 1 - k)) * w[e + 1 - k]
        if not frob:
            np.divide(rhs, sig[0] * j, out=w[j])
            continue
        diag = sig[1] * j + a[0]
        w[j, :, 0] = rhs[:, 0] / diag[0]
        for i in range(1, diag.size):
            w[j, :, i] = (rhs[:, i] + a[0, i - 1] * w[j, :, i - 1]) / diag[i]
    return w


def _horner(w, u, rows) -> np.ndarray:
    """sum_n w[n, rows] u^n by Horner's rule, for Taylor coefficients w
    (SERIES_TERMS, K, d+2) and u that broadcasts against the rows."""
    out = np.take(w[-1], rows, axis=0)
    for coeffs in w[-2::-1]:
        out *= u
        out += np.take(coeffs, rows, axis=0)
    return out


def _system(P, B, S, t0, r, d):
    """(sig, a, src) of _taylor for a step from t0 in u = (t - t0)/r:
    sigma/r, the A_i, and the sources (1-p) sigma, p sigma of slots 0 and
    1 per unit r, with p, beta, sigma (the Polynomials P, B, S) composed
    with t0 + r u.  (1-p) sigma has the highest degree: p < 1."""
    X = Polynomial([t0, r])
    P, B, S = P(X), B(X), S(X)
    q, qb, s0, s1 = (x.coef for x in (1.0 - P, (1.0 - P) * B, (1.0 - P) * S, P * S))
    a = np.zeros((s0.size, d + 2))
    a[: q.size, : d + 1] = np.outer(q, np.arange(d + 1))
    a[: qb.size, : d + 1] += qb[:, None]
    src = np.zeros_like(a)
    src[:, 0], src[: s1.size, 1] = s0, s1
    return S.coef / r, a, src / r


def _segment_steps(seg, profile, a, b, z, d, times):
    """The series across the segment's [a, b] from the value z at a: the
    starts and scales of the steps that hold the times (in [a, b], b only
    at 1) or b, their Taylor coefficients (SERIES_TERMS, steps, d+2), and
    the value at b.

    A step from t0 expands in u = (t - t0)/r, where r is the distance to
    sigma's nearest root (one at t0 itself, sigma(0) = 0 at an empty
    start, excluded; b - a if there is none other), and reaches u =
    min(SERIES_REACH, SERIES_DECAY_REACH / alpha_d) with p and beta at t0.
    On a constant segment sigma = (1+beta) r (1+u) in every step,
    whose system then differs from the first's only by its source, which
    scales with r: the steps march by one product each with the
    propagator from the d+2 unit starts and the unit source, expanded
    once, and only the steps that hold a time are expanded from their
    start values.  A polynomial segment expands each step in turn.
    """
    P, B = Polynomial(seg.p_coeffs), Polynomial(seg.beta_coeffs)
    S = (1.0 + B) * Polynomial([0.0, 1.0]) + profile.c_weighted + profile.c_total * B
    # sigma > 0 for t > 0, so a zero constant term is the root at t = 0
    roots = (np.append(Polynomial(S.coef[1:]).roots(), 0.0) if S.coef[0] == 0.0
             else S.roots())
    starts, scales, reaches = [a], [], []
    while True:
        dist = np.abs(starts[-1] - roots)
        scales.append(dist[dist > 0.0].min() if np.any(dist > 0.0) else b - a)
        p, beta = float(P(starts[-1])), float(B(starts[-1]))
        reaches.append(min(SERIES_REACH,
                           SERIES_DECAY_REACH * (1.0 + beta) / ((1.0 - p) * (d + beta))))
        if starts[-1] + reaches[-1] * scales[-1] >= b:
            break
        starts.append(starts[-1] + reaches[-1] * scales[-1])
    starts, scales = np.array(starts), np.array(scales)
    if seg.is_constant:
        system = _system(P, B, S, a, scales[0], d)
        unit = _horner(_taylor(*system, np.eye(d + 3, d + 2), np.eye(d + 3)[-1]),
                       reaches[0], np.arange(d + 3))
        values = np.empty((starts.size, d + 2))
        values[0] = z
        for k in range(1, starts.size):
            values[k] = values[k - 1] @ unit[:-1] + scales[k - 1] * unit[-1]
        used = np.unique(np.append(np.searchsorted(starts, times, "right") - 1, starts.size - 1))
        starts, scales = starts[used], scales[used]
        w = _taylor(*system, values[used], scales)
    else:
        ws = []
        for t, r, reach in zip(starts, scales, reaches):
            ws.append(_taylor(*_system(P, B, S, t, r, d), z[None, :], np.array([r])))
            z = _horner(ws[-1], reach, [0])[0]
        w = np.concatenate(ws, axis=1)
    return starts, scales, w, _horner(w, (b - starts[-1]) / scales[-1], [w.shape[1] - 1])[0]


def solve_lln_closed(d: int, schedule: Schedule, profile: InitialProfile,
                     grid=None, rel_spacing: float = LIMIT_PATH_SPACING,
                     rel_floor: float = 1e-12) -> LLNSolution:
    """The limit trajectory at depth d by its own power series (see the
    module docstring) on the requested times (grid), or without them on
    graded_grid's knots at rel_spacing and rel_floor.  At their defaults
    its path() is the rated limit path, and rate.project_path folds it to
    a shallower depth.  A time at a breakpoint reads the next segment's
    first step at u = 0, its start value: the end of the segment before."""
    if d < 0:
        raise ValueError("d must be >= 0")
    times = (graded_grid(schedule, profile, rel_spacing=rel_spacing, rel_floor=rel_floor)
             if grid is None else _times(grid))
    brks, last = schedule.breakpoints, len(schedule.segments) - 1
    seg_of = schedule.segment_index(times)
    values = np.empty((times.size, d + 2))
    z, first = profile.truncated(d), 0
    if _linear_start(schedule, profile):
        slopes = _start_slopes(schedule, d)
        known = seg_of == 0
        values[known] = np.multiply.outer(times[known], slopes)
        z, first = slopes * brks[1], 1
    steps = []
    for k in range(first, last + 1):
        *step, z = _segment_steps(schedule.segments[k], profile, float(brks[k]),
                                  float(brks[k + 1]), z, d, times[seg_of == k])
        steps.append(step)
    if steps:
        starts, scales, ws = zip(*steps)
        starts, scales = np.concatenate(starts), np.concatenate(scales)
        on = seg_of >= first
        step = np.searchsorted(starts, times[on], "right") - 1
        values[on] = _horner(np.concatenate(ws, axis=1),
                             ((times[on] - starts[step]) / scales[step])[:, None], step)
    return LLNSolution(d=d, grid=times, values=values, method="series")


def _rhs(t, y, segment, profile, d):
    """The limit system's right side at a time t on the schedule segment,
    whose polynomials give p and beta (in floats at a float t)."""
    p, beta = _polyval(segment.p_coeffs, t), _polyval(segment.beta_coeffs, t)
    sig = sigma(profile, t, beta)
    rates = (1.0 - p) * (np.arange(d + 1) + beta) * y[: d + 1] / sig
    # level i+1 gains what level i loses, and the new-urn ball enters at 1
    # (at d = 0 that is the aggregate slot, "at least one ball")
    dy = np.empty(d + 2)
    dy[0] = (1.0 - p) - rates[0]
    dy[1] = p + rates[0]
    dy[2:] = rates[1:]
    dy[1 : d + 1] -= rates[1:]
    return dy


def _start_slopes(schedule, d) -> np.ndarray:
    """Slopes of the linear solution of the limit system at the first
    segment's coefficients at t = 0, from an empty profile: b_0..b_d
    (b_sequence), then the aggregate slot's, its inflow
    (1-p)(d+beta) b_d/(1+beta), plus p at d = 0, where the slot also gains
    the new-urn ball.  The limit is slope * t on the whole first segment
    when that segment is constant (_linear_start)."""
    seg = schedule.segments[0]
    p0, b0 = float(seg.p_coeffs[0]), float(seg.beta_coeffs[0])
    slopes = np.empty(d + 2)
    slopes[: d + 1] = b_sequence(EnvelopeParams(p0, p0, b0, b0, 0.0), d)
    slopes[d + 1] = (1.0 - p0) * (d + b0) * slopes[d] / (1.0 + b0)
    if d == 0:
        slopes[1] += p0
    return slopes


def _rms(x) -> float:
    return math.sqrt(float(x @ x) / x.size)


def _initial_step(f, t, y, f0, span):
    """Hairer, Norsett & Wanner's starting step (Solving Ordinary
    Differential Equations I, II.4): the size at which an Euler probe's
    change in f predicts a local error of 0.01 at order 5."""
    scale = ODE_ATOL + ODE_RTOL * np.abs(y)
    d0, d1 = _rms(y / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms((f(t + h0, y + h0 * f0) - f0) / scale) / h0
    top = max(d1, d2)
    h1 = max(1e-6, h0 * 1e-3) if top <= 1e-15 else (0.01 / top) ** 0.2
    return min(100.0 * h0, h1, span)


def _dormand_prince(f, t, y, times):
    """Values of the solution of y' = f(t, y) from y at t, at the
    increasing times, all above t, by the Dormand-Prince 5(4) pair.

    A step is accepted when the RMS of its error estimate over ODE_ATOL +
    ODE_RTOL * max(|y|, |y_new|) is below 1; the next step is the last one
    times 0.9 * err**(-1/5), clipped to [0.2, 10] (to at most 1 straight
    after a rejection).  Steps are cut short to end on each requested time,
    so each row is the value of a step that ends there, not an
    interpolated one, and a cut step does not shrink the step proposed.
    Raises RuntimeError after ODE_MAX_STEPS steps, accepted or rejected.
    """
    k = np.empty((7, y.size))
    k[0] = f(t, y)
    h = _initial_step(f, t, y, k[0], times[-1] - t)
    out = np.empty((len(times), y.size))
    i, rejected, start = 0, False, t
    for _ in range(ODE_MAX_STEPS):
        t_new = min(t + h, times[i])
        step = t_new - t
        for s in range(1, 7):  # the last stage is at the fifth-order solution
            y_new = y + step * (_DP_A[s - 1, :s] @ k[:s])
            k[s] = f(t + _DP_C[s - 1] * step if s < 5 else t_new, y_new)
        scale = ODE_ATOL + ODE_RTOL * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms(step * (_DP_E @ k) / scale)
        if not err < 1.0:  # a nan error shrinks the step by 0.2 as well
            h = step * max(0.2, 0.9 * err ** -0.2)
            rejected = True
            continue
        factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
        if rejected:
            factor = min(1.0, factor)
        landed = t_new == times[i]
        h = max(h, step * factor) if landed else step * factor
        y, t, rejected = y_new, t_new, False
        k[0] = k[6]  # first same as last
        if landed:
            out[i] = y
            i += 1
            if i == len(times):
                return out
    raise RuntimeError(f"integration failed on [{start}, {times[-1]}]: "
                       f"more than {ODE_MAX_STEPS} steps")


def solve_lln_numeric(d: int, schedule: Schedule, profile: InitialProfile,
                      grid=None) -> LLNSolution:
    """Integrate the limit ODE system by the Dormand-Prince 5(4) pair
    (_dormand_prince).

    Independent of the series route: the right side is evaluated
    directly and the integrator restarts at every schedule breakpoint,
    stepping onto every grid time.  When sigma(0) = 0 the system is
    singular at the origin; sigma(0) = 0 forces an empty profile, and
    integration starts from SEED_T0 with the linear solution at (p(0),
    beta(0)), SEED_T0 * _start_slopes: exact when the first segment is
    constant (_linear_start) and within O(SEED_T0^2) otherwise.
    """
    if grid is None:
        grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, 201),
                                         schedule.breakpoints]))
    else:
        grid = _times(grid)
    out = np.empty((grid.size, d + 2))

    sig0 = float(sigma(profile, 0.0, schedule.coefficients(0.0)[1]))
    if sig0 == 0.0:
        t_start = SEED_T0
        y = _start_slopes(schedule, d) * SEED_T0
        small = grid < t_start
        # below the seed point the trajectory is linear to leading order
        out[small] = np.outer(grid[small] / t_start, y)
    else:
        t_start = 0.0
        y = profile.truncated(d)
        small = grid < 0.0

    left = t_start
    for seg, right in zip(schedule.segments, schedule.breakpoints[1:].tolist()):
        if right <= left:
            continue
        inside = (grid >= left) & (grid <= right) & ~small
        times = np.unique(np.concatenate([[left], grid[inside], [right]]))
        # every stage lies in [left, right], so it reads this segment's
        # polynomials, the one that lands on right included
        rows = np.vstack([y, _dormand_prince(
            lambda t, z: _rhs(t, z, seg, profile, d), left, y, times[1:])])
        out[inside] = rows[np.searchsorted(times, grid[inside])]
        y = rows[-1]
        left = right
    return LLNSolution(d=d, grid=grid, values=out, method="numeric")


# ---------------------------------------------------------------------------
# constant-coefficient comparison family

@dataclass(frozen=True)
class EnvelopeParams:
    """Parameters (o1..o5) of the constant-coefficient comparison system

        chi_i' = o1*[i=1] + (1-o2)*( (i-1+o3)*chi_{i-1} - (i+o3)*chi_i )
                             / ( (1+o4)*(t+o5) ),   i >= 0,

    with the i=0 source equal to 1-o1 and no inflow term.
    """

    o1: float
    o2: float
    o3: float
    o4: float
    o5: float

    def __post_init__(self):
        if not (0.0 <= self.o1 < 1.0):
            raise ValueError("o1 must lie in [0, 1)")
        if not (0.0 <= self.o2 < 1.0):
            raise ValueError("o2 must lie in [0, 1)")
        if self.o3 <= 0.0 or self.o4 <= 0.0:
            raise ValueError("o3 and o4 must be positive")
        if self.o5 < 0.0:
            raise ValueError("o5 must be nonnegative")

    @property
    def drift_ratio(self) -> float:
        return (1.0 - self.o2) / (1.0 + self.o4)

    @property
    def tail_exponent(self) -> float:
        """1 + (1+o4)/(1-o2): decay exponent of the density k^(-that)."""
        return 1.0 + (1.0 + self.o4) / (1.0 - self.o2)


def b_sequence(params: EnvelopeParams, d: int) -> np.ndarray:
    """Slopes b_i of the linear particular solution chi_i = b_i (t+o5)."""
    q = params.drift_ratio
    o1, o3 = params.o1, params.o3
    b = np.empty(d + 1)
    b[0] = (1.0 - o1) / (1.0 + q * o3)
    if d >= 1:
        b[1] = (o1 + q * o3 * b[0]) / (1.0 + q * (1.0 + o3))
    for i in range(2, d + 1):
        b[i] = b[i - 1] * q * (i - 1 + o3) / (1.0 + q * (i + o3))
    return b


def b_sequence_gamma(params: EnvelopeParams, d: int) -> np.ndarray:
    """Same as b_sequence, via the Gamma-ratio closed form (for i >= 1)."""
    b = b_sequence(params, min(d, 1))
    if d < 2:
        return b[: d + 1]
    o3 = params.o3
    w = 1.0 / params.drift_ratio
    head = math.lgamma(2.0 + o3 + w) - math.lgamma(1.0 + o3)
    logs = [head + math.lgamma(i + o3) - math.lgamma(i + 1.0 + o3 + w)
            for i in range(1, d + 1)]
    out = np.empty(d + 1)
    out[0] = b[0]
    out[1:] = b[1] * np.exp(logs)
    return out


@dataclass(frozen=True)
class ChiSolution:
    params: EnvelopeParams
    d: int
    grid: np.ndarray
    values: np.ndarray          # (K, d+1)
    b: np.ndarray               # linear slopes


def constant_coefficient_solution(params: EnvelopeParams, profile: InitialProfile,
                                  grid, d: int) -> ChiSolution:
    """Exact solution of the comparison system from the given initial masses.

    chi_i(t) = b_i (t+o5) + sum_{k<=i} (c_k - b_k o5) P_{k->i}(y), where
    y = (o5/(t+o5))^q with q the drift ratio, and

        P_{k->i}(y) = Gamma(i+o3) / (Gamma(k+o3) (i-k)!) y^(k+o3) (1-y)^(i-k)

    is the negative-binomial law of a linear pure-birth process with rate
    i+o3 at level i, started at level k and run for time -log y (Feller,
    An Introduction to Probability Theory and Its Applications, vol. I,
    ch. XVII).  The propagator is stepped in i by its ratio
    (i+o3)/(i+1-k) (1-y) for every start level k at once, so each of its
    terms is positive.  With o5 = 0 the transients are identically zero
    for t > 0 and the initial masses must vanish.
    """
    grid = np.asarray(grid, dtype=float)
    b = b_sequence(params, d)
    o3, o5 = params.o3, params.o5
    if o5 == 0.0:
        if profile.c_total != 0.0 or profile.c_weighted != 0.0:
            raise ValueError("o5 = 0 requires an empty initial profile")
        values = np.outer(grid + o5, b)
        return ChiSolution(params, d, grid, values, b)
    transient = profile.truncated(d)[: d + 1] - b * o5
    # 1 - y by expm1, which keeps its digits at small t where y is near 1
    log_y = -params.drift_ratio * np.log1p(grid / o5)
    y, rest = np.exp(log_y), -np.expm1(log_y)
    k = np.arange(d + 1)
    prop = np.empty((d + 1, grid.size))       # row k: P_{k->i}(y) at level i
    values = np.outer(grid + o5, b)
    for i in range(d + 1):
        prop[:i] *= rest
        prop[:i] *= ((i - 1 + o3) / (i - k[:i]))[:, None]
        prop[i] = y ** (i + o3)
        values[:, i] += transient[: i + 1] @ prop[: i + 1]
    return ChiSolution(params, d, grid, values, b)


@dataclass(frozen=True)
class Envelopes:
    """The two comparison laws; each carries its linear slopes (b) and,
    in its params, its density's tail exponent."""

    upper: ChiSolution          # bounds partial sums of zeta from above
    lower: ChiSolution          # bounds partial sums of zeta from below


def power_law_envelopes(schedule: Schedule, profile: InitialProfile,
                        grid, d: int) -> Envelopes:
    """Constant-coefficient envelopes for a bounded time-varying schedule.

    The upper system slows the drain (smallest p, largest offset) and the
    lower system speeds it up, so their partial sums bracket those of the
    true trajectory.  The slopes and tail exponents do not depend on
    grid, which may be empty.
    """
    up = EnvelopeParams(schedule.p_min, schedule.p_max,
                        schedule.beta_min, schedule.beta_max,
                        max(profile.c_weighted, profile.c_total))
    low = EnvelopeParams(schedule.p_max, schedule.p_min,
                         schedule.beta_max, schedule.beta_min,
                         min(profile.c_weighted, profile.c_total))
    return Envelopes(upper=constant_coefficient_solution(up, profile, grid, d),
                     lower=constant_coefficient_solution(low, profile, grid, d))


# ---------------------------------------------------------------------------
# reference target laws on urn sizes

# geometric_law stores q(k) for k <= GEOMETRIC_TERMS and keeps the rest as
# its exact tail
GEOMETRIC_TERMS = 200
# stretched_exponential: the bisection for mu stops at this relative width,
# the product walk at k^2 P_k < STRETCHED_FLOOR, and it raises past
# STRETCHED_MAX_TERMS products (r close to 1 needs that many), read per walk
STRETCHED_MU_RTOL = 1e-12
STRETCHED_FLOOR = 1e-15
STRETCHED_MAX_TERMS = 2_000_000


@dataclass(frozen=True)
class ReferenceLaw:
    """Probability law q on per-urn weights k = 1, 2, ...; values[k-1] = q(k).

    A weight counts the balls in the urn plus the unit the urn itself
    carries, so the shifted array gamma_i = q(i+1), i >= 0, is the target
    occupancy profile (fraction of urns holding i balls): gamma has total
    mass 1, and the visible ball mass sum_i i*gamma_i equals mean(q) - 1,
    which is the full unit supply exactly when q has mean 2.
    """

    kind: str
    params: dict
    values: np.ndarray
    tail_mass: float
    tail_mean: float

    def total(self) -> float:
        return float(math.fsum(self.values) + self.tail_mass)

    def mean(self) -> float:
        k = np.arange(1, self.values.size + 1)
        return float(math.fsum(k * self.values) + self.tail_mean)


def geometric_law() -> ReferenceLaw:
    """q(k) = 2^-k, stored for k <= GEOMETRIC_TERMS."""
    k = np.arange(1, GEOMETRIC_TERMS + 1)
    q = 0.5 ** k
    # exact geometric tails: sum_{k>K} q = 2^-K, sum_{k>K} k q = (K+2) 2^-K
    tail = 0.5 ** GEOMETRIC_TERMS
    return ReferenceLaw("geometric", {}, q, tail, (GEOMETRIC_TERMS + 2) * tail)


def star_law() -> ReferenceLaw:
    """One urn swallows the whole ball supply: every surviving fraction is
    an empty urn (gamma = (1, 0, ...)), and the unit ball mass condenses
    beyond all finite levels."""
    return ReferenceLaw("star", {}, np.array([1.0]), 0.0, 0.0)


def dirac_law(k: int) -> ReferenceLaw:
    """Point mass on per-urn weight k, i.e. k - 1 balls in every urn
    (k = 2 is the all-singletons road; k = 1 coincides with star_law)."""
    if k < 1:
        raise ValueError("weight must be at least 1")
    q = np.zeros(k)
    q[k - 1] = 1.0
    return ReferenceLaw("dirac", {"k": k}, q, 0.0, 0.0)


def _stretched_products(mu: float, r: float, powers: list, stop: float = math.inf):
    """The products P_k = prod_{j<=k} (1+mu/j^r)^(-1) up to the first k
    with k^2 P_k < STRETCHED_FLOOR, or None as soon as their running sum
    exceeds stop (tested first at the same k).  Raises RuntimeError past
    STRETCHED_MAX_TERMS products.  powers holds (k, k^r) array pairs on runs
    of k from 1, and a walk past its end adds a run as long as the table (128
    at first: r = 0.05 needs 69; 256 made it slower than a scalar loop).
    divide.accumulate and add.accumulate are sequential, so the passes over
    each run make a scalar loop's IEEE operations in its order."""
    cap, walked = STRETCHED_MAX_TERMS, 0
    term, acc, parts = 1.0, 0.0, []
    while walked < cap:
        if len(parts) == len(powers):
            k = np.arange(walked + 1, walked + 1 + min(walked or 128, cap - walked), dtype=float)
            powers.append((k, np.array([x ** r for x in k.tolist()])))
        k, kr = powers[len(parts)]
        prods = np.divide(mu, kr)
        prods += 1.0
        prods[0] = term / prods[0]
        np.divide.accumulate(prods, out=prods)
        sums = prods.copy()
        sums[0] += acc
        np.add.accumulate(sums, out=sums)
        over = sums.searchsorted(stop, "right")     # the sums never decrease
        hit = prods * k * k < STRETCHED_FLOOR
        floor = hit.argmax() if hit[hit.argmax()] else prods.size
        if min(over, floor) < min(prods.size, cap - walked):   # not past the cap
            return None if over <= floor else np.concatenate([*parts, prods[: floor + 1]])
        parts.append(prods)
        walked += prods.size
        term, acc = prods[-1], sums[-1]
    raise RuntimeError(
        f"size-law products stay above k^-2 * {STRETCHED_FLOOR:g} for "
        f"{cap} terms; r is too close to 1")


def stretched_exponential(r: float) -> ReferenceLaw:
    """Size law q(k) = (mu / k^r) P_k, P_k = prod_{j<=k} (1+mu/j^r)^(-1).

    For r in (0,1).  q(k) = P_{k-1} - P_k telescopes to total 1 for every
    mu, and the mean is 1 + sum_{k>=1} P_k, so mu is calibrated to make
    that sum 1 (mean 2, unit ball mass): it decreases strictly in mu, so
    bisection applies after doubling out an upper bracket.  Each step walks
    the products until their sum passes 1 or they are negligible; the law
    is the same walk at mu.  The walks share one table of k^r, grown by
    doubling, from Python's pow: np.power misses libm's last bit.
    """
    if not (0.0 < r < 1.0):
        raise ValueError("r must lie in (0, 1)")

    powers = []
    lo, hi = 0.0, 1.0          # sum P_k decreases in mu; sum(0+) = inf
    while _stretched_products(hi, r, powers, stop=1.0) is None:
        lo, hi = hi, hi * 2.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket the calibrating constant")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _stretched_products(mid, r, powers, stop=1.0) is None:
            lo = mid
        else:
            hi = mid
        if hi - lo < STRETCHED_MU_RTOL * max(1.0, lo):
            break
    mu = 0.5 * (lo + hi)
    prods = _stretched_products(mu, r, powers)
    k = np.arange(1, prods.size + 1)
    q = (mu / k ** r) * prods
    # remaining mass/mean, extrapolated from the last product ratio
    ratio = prods[-1] / prods[-2]
    tail = q[-1] * ratio / (1.0 - ratio)
    tail_mean = q[-1] * ratio * (k[-1] / (1.0 - ratio) + 1.0 / (1.0 - ratio) ** 2)
    return ReferenceLaw("stretched", {"r": r, "mu": mu}, q, tail, tail_mean)
