"""Scaling-limit degree trajectories and comparison solutions.

The limit trajectory zeta solves a lower-triangular linear ODE system
whose solution has the integral form

    zeta_i(t) = c_i M_i(0,t) + int_0^t g_i(s) M_i(s,t) ds,
    M_i(s,t)  = exp(-int_s^t (1-p(u)) (i+beta(u)) / sigma(u) du),

with g_0 = 1-p, g_1 = p + (1-p) beta zeta_0 / sigma, and
g_i = (1-p)(i-1+beta) zeta_{i-1} / sigma for i >= 2.  The aggregate
component integrates g_{d+1}, the flux out of level d (at d = 0 it also
receives the new-urn ball).  From an empty profile, on a constant
first segment the system has the exactly linear solution zeta_i = b_i t
(b_sequence), which the closed form takes as known there.  This module
evaluates that closed form on flat arrays over the cells of one graded
grid, in two phases.  The kernel build (LLNKernel) takes the grid,
sigma at the 15 Gauss nodes of every cell and the decay integrals once,
segment by segment, over whole cells and from the nodes (exact
logarithms on constant segments, nested Gauss rules on polynomial ones);
p and beta are numbers on a constant segment and node arrays on a
polynomial one.  Arrays over the nodes are node-major, (15, cells).
Level propagation then runs one affine scan across the cells per level,
in two reused node arrays; no level depends on the truncation d, so one
kernel serves every d, propagating each level once.  Each level reaches
the next through monotone (Fritsch-Carlson) cubics, built here from
their slopes and evaluated by Horner's rule in the nodes' fractions of
their cells, and each cell's Gauss rule sums its nodes by einsum.
Beside it are an independent route that integrates the ODE system
directly, each segment on its own polynomials, by an adaptive
Dormand-Prince 5(4) pair written here in numpy, the constant-coefficient
comparison family, power-law envelopes, and reference target laws.  A comparison solution is linear
in t plus transients that each move by the negative-binomial law of a
linear pure-birth (Yule) process, a propagator with positive terms only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InitialProfile, Path, Schedule, _polyval, sigma

_GL_X, _GL_W = np.polynomial.legendre.leggauss(15)
_GL_U = 0.5 + 0.5 * _GL_X    # the nodes' fractions of their cells
_START_X = np.concatenate([[-1.0], _GL_X])    # a cell's start, then its nodes

# graded_grid raises rather than cut a segment short at this many cells
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
    """Weight accounting for a truncated solution.

    raw_deficit(t)   = t + c_weighted - sum_{i<=d} i*zeta_i(t)
    adjusted(t)      = raw_deficit - (d+1)*zetabar  (weight left over after
                       counting every aggregated urn at its minimum size)
    tail_bound(t)    = (d+1)*zetabar(t)
    """

    times: np.ndarray
    raw_deficit: np.ndarray
    adjusted: np.ndarray
    tail_bound: np.ndarray
    max_adjusted: float
    condensed: bool


def weighted_sum_check(sol: LLNSolution, profile: InitialProfile) -> WeightCheck:
    d = sol.d
    idx = np.arange(d + 1)
    visible = sol.values[:, : d + 1] @ idx
    raw = sol.grid + profile.c_weighted - visible
    tail_bound = (d + 1) * sol.values[:, d + 1]
    adjusted = raw - tail_bound
    return WeightCheck(
        times=sol.grid,
        raw_deficit=raw,
        adjusted=adjusted,
        tail_bound=tail_bound,
        max_adjusted=float(np.abs(adjusted).max()),
        condensed=profile.condensed_flag,
    )


def _linear_start(schedule: Schedule, profile: InitialProfile) -> bool:
    """Whether the limit is the linear solution zeta = slope * t
    (_start_slopes) on the whole first segment: from an empty profile,
    where sigma(0) = 0, on a constant first segment."""
    return (profile.c_total == 0.0 and profile.c_weighted == 0.0
            and schedule.segments[0].is_constant)


def graded_grid(schedule: Schedule, profile: InitialProfile, rel_spacing: float = 0.02,
                rel_floor: float = 1e-12, extra=None) -> np.ndarray:
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
    the extra points: LLNKernel.solve writes the linear solution there.  A
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


def _inflow(level, coeffs, cells, z, sig):
    """Source g_level of the closed form, written over z: 1-p at level 0,
    the new-urn ball plus the flux out of level 0 at level 1, and the flux
    out of level level-1 above that, where z holds level-1's values.
    Level d+1 is the flux into the aggregate slot.  coeffs holds p and beta
    of each segment whose cells are the matching slice of cells."""
    for (p, beta), c in zip(coeffs, cells.values()):
        g = z[:, c]
        if level == 0:
            g[...] = 1.0 - p
            continue
        g *= (1.0 - p) * (level - 1 + beta)
        g /= sig[:, c]
        if level == 1:
            g += p
    return z


def _cell_sums(f, width):
    """(h/2) * sum_q w_q f_q over the 15 Gauss nodes of each cell of width
    h, for f node-major (15, K): the cells' Gauss rules.  einsum adds the
    nodes in its own loop; a BLAS product would add them in an order that
    depends on the BLAS build."""
    out = np.einsum("q,qk->k", _GL_W, f)
    out *= 0.5 * width
    return out


def _decay_integrals(schedule, profile, lo, hi, nodes, sig, cells):
    """W1 = int (1-p)/sigma and W2 = int (1-p)*beta/sigma from 16 points s
    of each cell [x,y] to y, (16, K): row 0 from x (the whole cell), rows
    1-15 from the Gauss nodes; M_i = exp(-(i*W1 + W2)) for every level i.

    Filled in place on each segment's slice of cells (cells): on a constant
    segment by one chain of exact logarithms over the 16 rows (sigma(x) = 0
    gives +inf), on a polynomial one by nested 15-point Gauss rules on [s, y].
    """
    W1, W2 = np.empty((16, lo.size)), np.empty((16, lo.size))
    for k, c in cells.items():
        seg = schedule.segments[k]
        x, y, w1 = lo[c], hi[c], W1[:, c]
        if seg.is_constant:
            p, beta = float(seg.p_coeffs[0]), float(seg.beta_coeffs[0])
            # y - s, exactly half*(1 - x_q), and y - x in row 0
            np.multiply(1.0 - _START_X[:, None], 0.5 * (y - x), out=w1)
            # log(sy/ss) = log1p((1+beta)(y-s)/ss) avoids cancellation on
            # narrow cells where sy/ss is within a few ulps of 1
            w1 *= 1.0 + beta
            with np.errstate(divide="ignore"):
                w1[0] /= sigma(profile, x, beta)
            w1[1:] /= sig[:, c]
            np.log1p(w1, out=w1)
            w1 *= (1.0 - p) / (1.0 + beta)
            np.multiply(beta, w1, out=W2[:, c])
        else:
            for q, s in enumerate((x, *nodes[:, c])):
                sub = (0.5 * (y + s))[None, :] + (0.5 * (y - s))[None, :] * _GL_X[:, None]
                bsub = _polyval(seg.beta_coeffs, sub)
                integ = (1.0 - _polyval(seg.p_coeffs, sub)) / sigma(profile, sub, bsub)
                w1[q] = _cell_sums(integ, y - s)
                W2[q, c] = _cell_sums(integ * bsub, y - s)
    return W1, W2


def _edge_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, set to 0 when its sign is not the
    end secant's and to 3*m0 when the secants change sign and it exceeds
    that (Moler, Numerical Computing with MATLAB, 3.6)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _Knots(np.ndarray):
    """The points x of a monotone cubic, carrying the terms of _pchip that
    depend on them alone: the widths h = diff(x) and the slope weights
    w1 = 2h[1:] + h[:-1], w2 = h[1:] + 2h[:-1] and w1 + w2.  The kernel
    keeps one per segment, so each level's cubic on it reuses them."""

    def __new__(cls, x, h=None):
        x = np.asarray(x, dtype=float)
        knots = x.view(cls)
        knots.h = h = np.diff(x) if h is None else h
        knots.w1, knots.w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        knots.wsum = knots.w1 + knots.w2
        return knots


def _pchip(x, y):
    """Coefficients (c0, c1, c2, c3) of the monotone cubic through the
    points (x, y), one entry per cell; c0 multiplies (t - x_k)**3.  x may
    be _Knots, whose grid-only terms are then not recomputed.

    The slope at an interior point is the weighted harmonic mean of its two
    secants, or 0 where they differ in sign or one is flat (Fritsch and
    Carlson, SIAM J. Numer. Anal. 17, 1980); two points give the line.
    Every operation is the one scipy's PchipInterpolator performs, in the
    same order, so the coefficients agree with it to the last bit.
    """
    if not isinstance(x, _Knots):
        x = _Knots(x)
    h = x.h
    m = np.diff(y) / h
    dk = np.zeros_like(y)
    if y.size == 2:
        dk[:] = m[0]
    else:
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (x.w1 / m[:-1] + x.w2 / m[1:]) / x.wsum
            dk[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
        dk[0] = _edge_slope(h[0], h[1], m[0], m[1])
        dk[-1] = _edge_slope(h[-1], h[-2], m[-1], m[-2])
    t = (dk[:-1] + dk[1:] - 2 * m) / h
    return t / h, (m - dk[:-1]) / h - t, dk[:-1], y[:-1]


def _segment_cubics(knots, cells, z):
    """The coefficients (c0, c1, c2, c3) of every cell's piece, built by
    one monotone cubic per schedule segment on its _Knots; cells maps each
    segment to the slice of its cells, which together run over the grid in
    order.

    The solution has slope kinks at the breakpoints; a single interpolant
    over the whole grid would leak them into the neighboring cells through
    the derivative estimates at the shared nodes.
    """
    pieces = [_pchip(x, z[c.start : c.stop + 1]) for x, c in zip(knots, cells.values())]
    return tuple(np.concatenate(col) for col in zip(*pieces))


def _on_fractions(cubic, width, u, out):
    """The cubic's pieces at the fractions u of their cells of the given
    widths, written to out (15, K): Horner's rule in u, the (15, 1) column
    of the nodes' fractions, on the coefficients scaled by powers of the
    width."""
    c0, c1, c2, c3 = cubic    # c0 multiplies (t - x_k)**3
    square = width * width
    np.multiply(c0 * (square * width), u, out=out)
    out += c1 * square
    out *= u
    out += c2 * width
    out *= u
    out += c3
    return out


def _affine_scan(z0, m, c):
    """z[0] = z0 and z[k+1] = m[k]*z[k] + c[k], by log2(K) doubling passes
    that compose the affine steps pairwise; every m and c is >= 0, so no
    pass cancels.  m and c are overwritten."""
    size = m.size
    spare = np.empty(size)
    shift = 1
    while shift < size:
        rest = size - shift
        c[shift:] += np.multiply(m[shift:], c[:rest], out=spare[:rest])
        np.multiply(m[shift:], m[:rest], out=spare[shift:])
        spare[:shift] = m[:shift]
        m, spare = spare, m
        shift *= 2
    z = np.empty(size + 1)
    z[0] = z0
    np.multiply(z0, m, out=z[1:])
    z[1:] += c
    return z


def _times(grid) -> np.ndarray:
    """grid as a float array, checked to hold only times in [0, 1]."""
    grid = np.asarray(grid, dtype=float)
    if not np.all((grid >= 0.0) & (grid <= 1.0)):    # NaN fails both
        raise ValueError(f"LLN times must be finite and lie in [0, 1] (got {grid})")
    return grid


class LLNKernel:
    """The d-independent part of the closed form on one graded grid.

    Built once per (schedule, profile, grid arguments): the grid and its
    cell widths, the cells of each segment as one slice, each segment's p
    and beta (numbers on a constant segment, (15, cells) at its nodes on
    a polynomial one) and _Knots, the decay integrals over whole cells,
    and sigma and the negated decay integrals at the Gauss nodes,
    node-major (15, K) views beside them (rows 1-15 of _decay_integrals'
    arrays), so the level loop broadcasts along the long cell axis.
    Levels are computed in increasing i by propagating across the cells;
    each level's values are kept on the full grid and fed to the next
    level through one monotone cubic interpolant per segment.  From an
    empty profile on a constant first segment (_linear_start) the limit
    there is the linear solution zeta = slope * t (_start_slopes), and
    graded_grid gives that segment only its ends and the requested
    times: on its cells the scan steps by z[k+1] = slope * t[k+1], with
    no Gauss rule, which the kernel's singularity at t = 0 would defeat.
    Level i never depends on d, so solve(d) propagates only the levels no
    earlier call reached, then adds depth d's aggregate slot: level d+1's
    recurrence without decay.  If grid is given, it is merged into the
    computation grid and each solution is returned restricted to it.
    """

    def __init__(self, schedule: Schedule, profile: InitialProfile, grid=None,
                 rel_spacing: float = 0.02, rel_floor: float = 1e-12):
        self.profile = profile
        self.requested = None if grid is None else _times(grid)
        fine = graded_grid(schedule, profile, rel_spacing=rel_spacing, rel_floor=rel_floor,
                           extra=self.requested)
        lo, hi = fine[:-1], fine[1:]
        self.width = hi - lo
        mid = 0.5 * (hi + lo)
        nodes = mid[None, :] + (0.5 * self.width)[None, :] * _GL_X[:, None]  # (15, K)

        # cells of one segment are contiguous: the grid holds every breakpoint
        seg_idx = schedule.segment_index(mid)
        self.cells = {k: slice(*np.searchsorted(seg_idx, [k, k + 1]).tolist())
                      for k in np.unique(seg_idx).tolist()}
        self.coeffs, self.sig = [], np.empty_like(nodes)
        for k, c in self.cells.items():
            seg = schedule.segments[k]
            if seg.is_constant:
                p, beta = float(seg.p_coeffs[0]), float(seg.beta_coeffs[0])
            else:
                p, beta = (_polyval(f, nodes[:, c]) for f in (seg.p_coeffs, seg.beta_coeffs))
            self.coeffs.append((p, beta))
            self.sig[:, c] = sigma(profile, nodes[:, c], beta)
        self.knots = [_Knots(fine[c.start : c.stop + 1], self.width[c])
                      for c in self.cells.values()]
        W1, W2 = _decay_integrals(schedule, profile, lo, hi, nodes, self.sig, self.cells)
        self.W1_cell, self.W2_cell = W1[0], W2[0]
        # -W at the nodes, so a level's decay is exp(i*(-W1) + (-W2))
        self.W1_neg = np.negative(W1[1:], out=W1[1:])
        self.W2_neg = np.negative(W2[1:], out=W2[1:])
        self.grid = fine

        self.schedule = schedule
        # the cells of a first segment on which the limit is linear
        self.linear = self.cells[0] if _linear_start(schedule, profile) else None
        self.levels = []         # level i's values on the grid, i < len(levels)

    def _contrib(self, i, decay, z, buf):
        """Per cell, the Gauss rule of g_i, times the level's decay
        exp(-(i*W1 + W2)) at the nodes if decay is set, with g_i read off
        level i-1's cubics.  z and buf are (15, K) arrays, overwritten."""
        if i > 0:
            cubic = _segment_cubics(self.knots, self.cells, self.levels[i - 1])
            _on_fractions(cubic, self.width, _GL_U[:, None], z)
        f = _inflow(i, self.coeffs, self.cells, z, self.sig)
        if decay:
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(i, self.W1_neg, out=buf)
                buf += self.W2_neg
                f = np.multiply(f, np.exp(buf, out=buf), out=buf)
        return _cell_sums(f, self.width)

    def _write_linear(self, slopes, i, m, c):
        """Set the scan's steps on the linear first segment, if any, to
        z[k+1] = 0 * z[k] + slopes[i] * t[k+1], the linear solution."""
        if self.linear is not None:
            cells = self.linear
            m[cells] = 0.0
            np.multiply(slopes[i], self.grid[cells.start + 1 : cells.stop + 1], out=c[cells])

    def solve(self, d: int) -> LLNSolution:
        """Limit trajectory truncated at d: levels 0..d and the aggregate slot."""
        if d < 0:
            raise ValueError("d must be >= 0")
        z, buf = np.empty(self.W1_neg.shape), np.empty(self.W1_neg.shape)
        slopes = None if self.linear is None else _start_slopes(self.schedule, d)
        for i in range(len(self.levels), d + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                e_cell = i * self.W1_cell + self.W2_cell
                # 0 * inf from a sigma(0) = 0 cell: the kernel still vanishes
                m_cell = np.exp(-np.where(np.isnan(e_cell), np.inf, e_cell))
            contrib = self._contrib(i, True, z, buf)
            self._write_linear(slopes, i, m_cell, contrib)
            self.levels.append(_affine_scan(self.profile.truncated(i)[i], m_cell, contrib))
        # the aggregate slot integrates its inflow without decay, and its
        # integrand carries no kernel singularity at t = 0
        contrib = self._contrib(d + 1, False, z, buf)
        del z, buf    # before the solution's values are stacked
        m_cell = np.ones(contrib.size)
        self._write_linear(slopes, d + 1, m_cell, contrib)
        aggregate = _affine_scan(self.profile.truncated(d)[d + 1], m_cell, contrib)
        values = np.column_stack(self.levels[: d + 1] + [aggregate])
        if self.requested is None:
            return LLNSolution(d=d, grid=self.grid, values=values, method="closed-form")
        # the grid holds every requested time
        pos = np.searchsorted(self.grid, self.requested)
        return LLNSolution(d=d, grid=self.requested, values=values[pos],
                           method="closed-form")


def solve_lln_closed(d: int, schedule: Schedule, profile: InitialProfile,
                     grid=None, rel_spacing: float = 0.02,
                     rel_floor: float = 1e-12) -> LLNSolution:
    """Evaluate the closed-form limit trajectory on a grid (see LLNKernel)."""
    return LLNKernel(schedule, profile, grid, rel_spacing, rel_floor).solve(d)


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


def _seed_values(d, schedule):
    """Solution values at the small time SEED_T0 > 0 when sigma(0) = 0.

    sigma(0) = 0 forces an empty profile, and the first segment is seeded
    with the linear solution SEED_T0 * _start_slopes at (p(0), beta(0)):
    exact when the segment is constant (_linear_start) and within
    O(SEED_T0^2) otherwise.
    """
    return _start_slopes(schedule, d) * SEED_T0


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

    Independent of the closed-form route: the right side is evaluated
    directly and the integrator restarts at every schedule breakpoint,
    stepping onto every grid time.  When sigma(0) = 0 the system is
    singular at the origin; integration starts from SEED_T0 with the
    constant-coefficient seed.
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
        y = _seed_values(d, schedule)
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
    upper: ChiSolution          # bounds partial sums of zeta from above
    lower: ChiSolution          # bounds partial sums of zeta from below
    eta: np.ndarray             # upper linear slopes
    eta_prime: np.ndarray       # lower linear slopes
    upper_tail_exponent: float  # density decay of the upper comparison law
    lower_tail_exponent: float


def power_law_envelopes(schedule: Schedule, profile: InitialProfile,
                        grid, d: int) -> Envelopes:
    """Constant-coefficient envelopes for a bounded time-varying schedule.

    The upper system slows the drain (smallest p, largest offset) and the
    lower system speeds it up, so their partial sums bracket those of the
    true trajectory.
    """
    up = EnvelopeParams(schedule.p_min, schedule.p_max,
                        schedule.beta_min, schedule.beta_max,
                        max(profile.c_weighted, profile.c_total))
    low = EnvelopeParams(schedule.p_max, schedule.p_min,
                         schedule.beta_max, schedule.beta_min,
                         min(profile.c_weighted, profile.c_total))
    chi_up = constant_coefficient_solution(up, profile, grid, d)
    chi_low = constant_coefficient_solution(low, profile, grid, d)
    return Envelopes(
        upper=chi_up, lower=chi_low,
        eta=chi_up.b, eta_prime=chi_low.b,
        upper_tail_exponent=up.tail_exponent,
        lower_tail_exponent=low.tail_exponent,
    )


# ---------------------------------------------------------------------------
# reference target laws on urn sizes

# geometric_law stores q(k) for k <= GEOMETRIC_TERMS and keeps the rest as
# its exact tail
GEOMETRIC_TERMS = 200
# stretched_exponential: the bisection for mu stops at this relative width,
# the product walk at k^2 P_k < STRETCHED_FLOOR, and it raises past
# STRETCHED_MAX_TERMS products (r close to 1 needs that many)
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


def _stretched_products(mu: float, r: float, stop: float = math.inf):
    """The products P_k = prod_{j<=k} (1+mu/j^r)^(-1) up to the first k
    with k^2 P_k < STRETCHED_FLOOR, or None as soon as their running sum
    exceeds stop.  Raises RuntimeError past STRETCHED_MAX_TERMS products."""
    prods = []
    append = prods.append
    term, acc = 1.0, 0.0
    for k in range(1, STRETCHED_MAX_TERMS + 1):
        term /= 1.0 + mu / k ** r
        acc += term
        if acc > stop:
            return None
        append(term)
        if term * k * k < STRETCHED_FLOOR:
            return np.asarray(prods)
    raise RuntimeError(
        f"size-law products stay above k^-2 * {STRETCHED_FLOOR:g} for "
        f"{STRETCHED_MAX_TERMS} terms; r is too close to 1")


def stretched_exponential(r: float) -> ReferenceLaw:
    """Size law q(k) = (mu / k^r) prod_{j<=k} (1+mu/j^r)^(-1), r in (0,1).

    mu is calibrated so the law is normalized (equivalently, has mean 2):
    the normalization sum is strictly decreasing in mu, so bisection
    applies after doubling out an upper bracket.  Each step walks the
    products until their sum passes 1 or they are negligible; the law is
    the same walk at the calibrated mu.
    """
    if not (0.0 < r < 1.0):
        raise ValueError("r must lie in (0, 1)")

    lo, hi = 0.0, 1.0          # normalization decreases in mu; sum(0+) = inf
    while _stretched_products(hi, r, stop=1.0) is None:
        lo, hi = hi, hi * 2.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket the normalizing constant")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _stretched_products(mid, r, stop=1.0) is None:
            lo = mid
        else:
            hi = mid
        if hi - lo < STRETCHED_MU_RTOL * max(1.0, lo):
            break
    mu = 0.5 * (lo + hi)
    prods = _stretched_products(mu, r)
    k = np.arange(1, prods.size + 1)
    q = (mu / k ** r) * prods
    # remaining mass/mean, extrapolated from the last product ratio
    ratio = prods[-1] / prods[-2]
    tail = q[-1] * ratio / (1.0 - ratio)
    tail_mean = q[-1] * ratio * (k[-1] / (1.0 - ratio) + 1.0 / (1.0 - ratio) ** 2)
    return ReferenceLaw("stretched", {"r": r, "mu": mu}, q, tail, tail_mean)
