"""Deviation-rate functionals on truncated occupancy paths.

The cost of holding the scaled trajectory at phi with slope v at time t is

    L(t, phi, v) = min KL(nu | u(t, phi))  over laws nu on the d+2
                   one-step increments whose mean is v,

which is attained at nu0 with nu0_i = 1 - [v]_i for i <= d (partial sums
of the slope) and the complement on the aggregate slot; u is the natural
transition law of the scheme along the path, model.transition_law at
(phi, sigma).  nu0 and L are computed for whole arrays of slopes and
times at once: the path functional integrates L over [0,1] with an
adaptive Gauss-Kronrod rule that refines all panels of one bisection
depth together (the condensation charge, the aggregate slot's share of
L, rides on the same panels), and the untruncated functional is the
increasing limit of the truncated values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lln import ReferenceLaw
from .model import (
    InitialProfile,
    Path,
    Schedule,
    entropy_terms,
    sigma,
    transition_law,
)

# 15-point Kronrod extension of 7-point Gauss on [-1,1] (nodes symmetric;
# the embedded Gauss rule sits at the odd positions)
_XK_HALF = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WK_HALF = np.array([
    0.02293532201052922, 0.06309209262997855, 0.10479001032225018,
    0.14065325971552591, 0.16900472663926790, 0.19035057806478540,
    0.20443294007529889, 0.20948214108472782,
])
_WG_HALF = np.array([
    0.12948496616886969, 0.27970539148927666, 0.38183005050511894,
    0.41795918367346938,
])

_XK = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])          # ascending
_WK = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
_GAUSS_IDX = np.arange(1, 15, 2)
_WG = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])           # 7 weights

# Panels evaluated per vectorized batch; bounds the node arrays' memory.
_BLOCK = 256


def relative_entropy(w, u, tol: float = 1e-12) -> float:
    """KL divergence sum_k w_k log(w_k/u_k) between laws on the increments."""
    w = np.asarray(w, dtype=float)
    u = np.asarray(u, dtype=float)
    if w.shape != u.shape:
        raise ValueError("w and u must have the same length")
    if np.any(w < -tol) or np.any(u < -tol):
        raise ValueError("negative probability")
    if abs(math.fsum(w) - 1.0) > tol or abs(math.fsum(u) - 1.0) > tol:
        raise ValueError("inputs must be normalized probability vectors")
    return math.fsum(entropy_terms(np.maximum(w, 0.0), np.maximum(u, 0.0)))


def _nu0_rows(v, tol: float = 1e-9):
    """nu0 for each slope row in the last axis of v, clipped at 0, and the
    mask of rows that are admissible within tol."""
    # 1 - [v]_i as the suffix sum of v above i, which keeps exact zeros
    # above the last occupied level (where u_i = 0 too)
    w = np.cumsum(v[..., :0:-1], axis=-1)[..., ::-1]
    w = np.concatenate([w, 1.0 - w.sum(axis=-1, keepdims=True)], axis=-1)
    ok = (np.abs(v.sum(axis=-1) - 1.0) <= tol) & np.all(w >= -tol, axis=-1)
    return np.clip(w, 0.0, None), ok


def minimizer_nu0(slope, tol: float = 1e-9) -> np.ndarray:
    """The cost-minimizing increment law with mean equal to the given slope.

    Requires an admissible slope: nonnegative, summing to 1, partial sums
    at most 1, and total escape sum_{i<=d}(1-[v]_i) at most 1.  slope may
    hold one row or many in its last axis; any inadmissible row raises.
    """
    v = np.asarray(slope, dtype=float)
    if v.ndim == 0 or v.shape[-1] < 2:
        raise ValueError("slope needs at least 2 components")
    w, ok = _nu0_rows(v, tol)
    if not np.all(ok):
        raise ValueError("inadmissible slope: it must sum to 1 and leave every "
                         "increment weight nonnegative")
    return w


def _piece_laws(path: Path, sum_tol: float = 1e-6):
    """nu0 of each linear piece of the path, its slope renormalized to
    total 1, or None if any piece is inadmissible (the path then costs +inf).

    Interpolated limit trajectories carry slope-sum noise at the
    quadrature scale; rows within sum_tol of total 1 are renormalized
    before the strict admissibility check, anything further off fails.
    """
    slopes = path.slopes
    total = slopes.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = slopes / total
    w, ok = _nu0_rows(v)
    return w if np.all(ok & (np.abs(total[:, 0] - 1.0) <= sum_tol)) else None


def natural_law(t, phi, schedule: Schedule, profile: InitialProfile) -> np.ndarray:
    """Transition law u(t, phi) on the d+2 increments at times t of any shape.

    phi carries the shape of t plus the d+2 components, as does the
    result.  At sigma = 0 (only the initial instant of an empty
    configuration) the law degenerates to p on the new-urn move and 1-p on
    the aggregate slot.
    """
    t = np.asarray(t, dtype=float)
    sig = sigma(schedule, profile, t)
    empty = sig == 0.0
    z = np.where(empty[..., None], 0.0, np.clip(phi, 0.0, None))
    return transition_law(schedule.p_at(t), schedule.beta_at(t), z,
                          np.where(empty, 1.0, sig))


def local_cost(t, phi, slope, schedule: Schedule, profile: InitialProfile):
    """L(t, phi, slope) at times t of any shape; +inf where the slope is
    inadmissible or a move unreachable.

    phi and slope carry the shape of t plus the d+2 components (or
    broadcast to it).  A scalar t gives a float.
    """
    w, ok = _nu0_rows(np.asarray(slope, dtype=float))
    u = natural_law(t, phi, schedule, profile)
    cost = np.where(ok, entropy_terms(w, u).sum(axis=-1), math.inf)
    return float(cost) if cost.ndim == 0 else cost


def _panels(path: Path, schedule: Schedule):
    """Knot intervals split at schedule breakpoints (the integrand jumps
    there): panel starts, panel ends and the path piece of each panel."""
    cuts = np.unique(np.concatenate([path.times, schedule.breakpoints]))
    cuts = cuts[(cuts >= path.times[0]) & (cuts <= path.times[-1])]
    piece = np.clip(np.searchsorted(path.times, cuts[:-1], side="right") - 1,
                    0, path.times.size - 2)
    return cuts[:-1], cuts[1:], piece


def _on_kronrod_nodes(a, b, fn):
    """Half-widths (P,) of panels [a, b] and fn(nodes, rows) stacked to
    (P, 15, ...): nodes are the 15 Kronrod nodes (B, 15) of the panels
    a[rows], _BLOCK panels at a time, and fn may add trailing axes."""
    half = 0.5 * (b - a)
    nodes = 0.5 * (b + a)[:, None] + half[:, None] * _XK[None, :]
    return half, np.concatenate([fn(nodes[lo:lo + _BLOCK], slice(lo, lo + _BLOCK))
                                 for lo in range(0, a.size, _BLOCK)])


@dataclass
class RateReport:
    value: float
    error: float
    num_panels: int
    deepest: int
    diverged: bool
    floor_hits: int = 0
    condensation: float = math.inf  # aggregate slot's share of value


def path_rate_Id(path: Path, schedule: Schedule, profile: InitialProfile,
                 tol: float = 1e-10, max_depth: int = 48) -> RateReport:
    """Adaptive Gauss-Kronrod integral of the local cost along the path.

    Panels start as knot intervals split at schedule breakpoints (the
    integrand jumps there), each carrying its constant minimizing law; all
    unfinished panels of one bisection depth are refined together.  A
    panel whose nodes all cost +inf is declared divergent, and isolated
    endpoint singularities are bisected down to a width floor.  The
    condensation charge h(nu0_{d+1}, u_{d+1}) is integrated on the panels
    accepted for the total; refinement looks at the total only.
    """
    if not (math.isfinite(tol) and tol > 0.0) or max_depth < 0:
        raise ValueError(f"need finite tol > 0 and max_depth >= 0 (got {tol}, {max_depth})")
    a, b, piece = _panels(path, schedule)
    w = _piece_laws(path)
    if w is None:
        return RateReport(math.inf, math.inf, a.size, 0, True)

    def cost(nodes, rows):  # rows of the current depth's (a, b, piece)
        u = natural_law(nodes, path.at(nodes), schedule, profile)
        terms = entropy_terms(w[piece[rows], None, :], u)
        return np.stack([terms.sum(axis=-1), terms[..., -1]], axis=-1)

    span = float(b[-1] - a[0])
    kept = []           # (value, error, charge) rows of finished panels
    num_done = floor_hits = depth = 0
    while True:
        half, fc = _on_kronrod_nodes(a, b, cost)
        f = fc[..., 0]
        finite = np.isfinite(f)
        if not finite.any(axis=1).all():
            # structurally impossible move on a whole panel
            return RateReport(math.inf, math.inf, num_done + a.size, depth, True)
        all_finite = finite.all(axis=1)
        vk = np.where(all_finite, half * (f * _WK[None, :]).sum(axis=1), math.inf)
        vg = half * (np.where(finite, f, 0.0)[:, _GAUSS_IDX] * _WG[None, :]).sum(axis=1)
        err = np.abs(vk - vg)
        width = b - a
        done = all_finite & (err <= tol * np.maximum(width / span, 1e-6))
        split = ~done & (width > 1e-14 * span) & (depth < max_depth)
        # panels neither done nor split are slivers around an isolated
        # singular point: keep their finite part, count them as unresolved
        charge = half * (fc[..., 1] * _WK[None, :]).sum(axis=1)
        kept.append(np.stack([vk, err, charge])[:, all_finite & ~split])
        floor_hits += int((~done & ~split).sum())
        num_done += int((~split).sum())
        if not split.any():
            break
        a, b, piece = a[split], b[split], piece[split]
        m = 0.5 * (a + b)
        a, b, piece = np.concatenate([a, m]), np.concatenate([m, b]), np.tile(piece, 2)
        depth += 1

    value, error, charge = (math.fsum(row) for row in np.concatenate(kept, axis=1))
    return RateReport(value, error, num_done, depth, False, floor_hits, charge)


def project_path(path: Path, d: int) -> Path:
    """Fold levels above d into the aggregate slot (counts are additive)."""
    if d > path.d:
        raise ValueError(f"cannot project a depth-{path.d} path up to {d}")
    vals = np.empty((path.times.size, d + 2))
    vals[:, : d + 1] = path.values[:, : d + 1]
    vals[:, d + 1] = path.values[:, d + 1 :].sum(axis=1)
    return Path.from_knots(path.times, vals)


def _gamma_profile(law):
    """Occupancy fractions gamma_i (urns holding i balls) of a target.

    A ReferenceLaw q on per-urn weights shifts down one slot, gamma_i =
    q(i+1), with its analytic tail kept separate; a plain nonnegative
    sequence is gamma itself.  Returns (gamma, tail_count, ball_mass)
    with ball_mass = sum_i i*gamma_i including the tail.  Rejects inputs
    that are not occupancy profiles or that carry more than the unit
    ball supply (the law objects get extra slack for their extrapolated
    tails).
    """
    if isinstance(law, ReferenceLaw):
        gamma = np.asarray(law.values, dtype=float)
        tail_count = float(law.tail_mass)
        total = law.total()
        ball_mass = law.mean() - total
        tol = 1e-4
    else:
        gamma = np.asarray(law, dtype=float)
        if gamma.ndim != 1 or gamma.size == 0:
            raise ValueError("gamma must be a nonempty 1-d sequence")
        tail_count = 0.0
        total = float(math.fsum(gamma))
        ball_mass = float(np.arange(gamma.size) @ gamma)
        tol = 1e-9
    if np.any(gamma < 0.0):
        raise ValueError("gamma components must be nonnegative")
    if abs(total - 1.0) > tol:
        raise ValueError(f"gamma must sum to 1 (got {total})")
    if ball_mass > 1.0 + tol:
        raise ValueError(
            f"gamma carries ball mass {ball_mass} > 1, not reachable by one "
            "ball per step")
    return gamma, tail_count, min(ball_mass, 1.0)


def linear_target_path(law, d: int) -> Path:
    """Straight path t -> t*gamma from the empty state, truncated at d.

    Slots 0..d carry the occupancy fractions; the aggregate slot carries
    the count of urns beyond level d.  Ball mass beyond all levels (the
    condensed part) is invisible to the truncated coordinates and enters
    only through the functionals charging the aggregate slot.
    """
    gamma, tail_count, _ = _gamma_profile(law)
    x = np.zeros(d + 2)
    upto = min(d + 1, gamma.size)
    x[:upto] = gamma[:upto]
    x[d + 1] = float(gamma[upto:].sum()) + tail_count
    knots = np.array([0.0, 1.0])
    return Path.from_knots(knots, np.outer(knots, x))


@dataclass
class IinfReport:
    value: float
    trace: list                 # [(d, I_d)]
    converged: bool
    escape_mass: float
    condensation: float         # condensation charge at the final depth
    error: float


def condensation_term(path: Path, schedule: Schedule, profile: InitialProfile) -> float:
    """Cost carried by the aggregate slot alone (the condensation charge),
    +inf where the path diverges.  path_rate_Id integrates it on the same
    panels as the total, so this accessor runs that one quadrature; it
    stays for callers that want the charge alone."""
    return path_rate_Id(path, schedule, profile).condensation


def path_rate_Iinf(target, schedule: Schedule, profile: InitialProfile,
                   tol: float = 1e-6, d_min: int = 4, d_max: int = 256,
                   quad_tol: float = None) -> IinfReport:
    """Untruncated deviation rate as the increasing limit of truncated ones.

    target is either a ReferenceLaw (evaluated along its straight path) or
    a callable d -> Path producing compatible truncations.  The trace
    I_{d_min}, I_{d_min+1}, ... is monotone up to quadrature error; it is
    declared converged once three consecutive increments fall below tol
    and the weight escaping all finite levels is either below tol or its
    condensation cost has stabilized.
    """
    if quad_tol is None:
        quad_tol = min(1e-9, 0.01 * tol)
    if not all(math.isfinite(x) and x > 0.0 for x in (tol, quad_tol)):
        raise ValueError(f"tol and quad_tol must be finite and positive (got {tol}, {quad_tol})")
    if not 0 <= d_min <= d_max:
        raise ValueError(f"need 0 <= d_min <= d_max (got {d_min}, {d_max})")
    if callable(target):
        escape = -1.0           # unknown; rely on condensation stabilizing
        make = target
    else:
        _, _, ball_mass = _gamma_profile(target)
        escape = min(1.0, max(0.0, 1.0 - ball_mass))
        make = lambda d: linear_target_path(target, d)

    trace, cond_hist = [], []
    err_acc = 0.0
    small_steps = cond_steps = 0
    for d in range(d_min, d_max + 1):
        rep = path_rate_Id(make(d), schedule, profile, tol=quad_tol)
        err_acc = max(err_acc, rep.error)
        trace.append((d, rep.value))
        if math.isinf(rep.value):
            return IinfReport(math.inf, trace, True, escape, math.inf, 0.0)
        cond = rep.condensation
        cond_hist.append(cond)
        if len(trace) >= 2:
            inc = trace[-1][1] - trace[-2][1]
            small_steps = small_steps + 1 if abs(inc) < tol else 0
            dc = cond_hist[-1] - cond_hist[-2]
            cond_steps = cond_steps + 1 if abs(dc) < tol else 0
            escaped_small = 0.0 <= escape < tol or cond >= 0 and cond_steps >= 3
            if small_steps >= 3 and escaped_small:
                return IinfReport(trace[-1][1], trace, True, escape, cond, err_acc)
    return IinfReport(trace[-1][1], trace, False, escape, cond_hist[-1], err_acc)


@dataclass
class SeriesRate:
    value: float
    series_part: float
    condensation_part: float
    escape_mass: float
    truncation_error: float


def linear_path_rate_classical(law, p: float = 0.0,
                               beta: float = 1.0) -> SeriesRate:
    """Closed series for the rate of the straight path t -> t*gamma under
    a constant schedule started empty.

    Along a linear path both the minimizing law and the natural law are
    constant in time, so the cost integrates level by level to
        sum_{i>=0} h(1 - [gamma]_i, u_i) + escape * log((1+beta)/(1-p)),
    where [gamma]_i are the partial sums, u_0 = p + (1-p)beta gamma_0 /
    (1+beta), u_i = (1-p)(i+beta)gamma_i/(1+beta) for i >= 1, and escape
    = 1 - sum_i i*gamma_i is the ball mass condensing beyond all levels.
    """
    gamma, tail_count, ball_mass = _gamma_profile(law)
    escape = min(1.0, max(0.0, 1.0 - ball_mass))
    # w_i = 1 - [gamma]_i counts every urn above level i, tail included:
    # the minimizing law of the slope (gamma, tail) without its last slot
    w = _nu0_rows(np.append(gamma, tail_count))[0][:-1]
    # phi/sigma = gamma/(1+beta) at every time along the path
    u = transition_law(p, beta, np.append(gamma, 0.0), 1.0 + beta)[:-1]
    terms = entropy_terms(w, u)
    series = float(math.fsum(terms))
    cond = escape * math.log((1.0 + beta) / (1.0 - p)) if escape > 0.0 else 0.0
    # levels beyond the stored profile hold at most the last tail weight
    trunc = float(w[-1])
    return SeriesRate(series + cond, series, cond, escape, trunc)

