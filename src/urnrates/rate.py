"""Deviation-rate functionals on truncated occupancy paths.

The cost of holding the scaled trajectory at phi with slope v at time t is

    L(t, phi, v) = min KL(nu | u(t, phi))  over laws nu on the d+2
                   one-step increments whose mean is v,

which is attained at nu0 with nu0_i = 1 - [v]_i for i <= d (partial sums
of the slope) and the complement on the aggregate slot; u is the natural
transition law of the scheme along the path, model.transition_law at
(phi, sigma).  L is finite only where nu0 is a law, the rule
model._nu0_rows states once for validate_path and every route here.  nu0
and L are computed for whole arrays of slopes and times at once.  The
path functional integrates L over [0,1] on panels, the path's knot
intervals split at schedule breakpoints, by two routes, and path_rate
picks one for every I_d here.  Where p and beta are constant on every
schedule segment, path_rate_exact sums closed-form integrals of
log(affine) per panel; path_rate_Id, its paired check and the route
across polynomial segments, runs an adaptive Gauss-Kronrod rule that
refines all panels of one bisection depth together, interpolating phi on
each panel's known path piece.  RateReport.method names the route that
ran.  Both rate an admissible path at its projection (_piece_laws: start
on the profile, knots clipped at 0) and carry the condensation charge,
the aggregate slot's share of L, on the same panels.  The untruncated
functional of a reference law is the truncated one at the law's own
depth, where the aggregate slot holds the urns the law does not store.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lln import ReferenceLaw
from .model import (
    PATH_TOL,
    InitialProfile,
    Path,
    Schedule,
    _knot_violations,
    _nu0_rows,
    entropy_terms,
    selection_rates,
    sigma,
    transition_law,
)

# Smallest tol the quadrature accepts.  A panel is done once its error
# estimate is within tol times its share of the path (at least 1e-6), but
# the estimate never falls below the rounding of the panel value, about
# 2.2e-16 times the integral, so far below that every panel is split down to
# the width floor (about 2^46 panels).  1e-12 leaves room for integrals up to
# about 10^3 and sits below every tolerance the package uses (1e-9 at most).
MIN_TOL = 1e-12

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

# Bisection depths path_rate_Id may refine to
MAX_DEPTH = 48


def _piece_laws(path: Path, profile: InitialProfile):
    """(the projection both routes rate: start set to the truncated profile,
    knots clipped at 0; nu0 of each piece, from the path's own slopes; the
    number of slope rows whose total was not 1, which _nu0_rows rescales),
    the first two None where validate_path rejects the path (cost +inf)."""
    w, total, ok = _nu0_rows(path.slopes)
    rescaled = int(np.count_nonzero(total != 1.0))
    if not ok.all() or _knot_violations(path, profile):
        return None, None, rescaled
    values = np.maximum(path.values, 0.0)     # -0.0 becomes +0.0 too
    values[0] = profile.truncated(path.d)
    return Path(path.d, path.times, values), w, rescaled


def natural_law(t, phi, schedule: Schedule, profile: InitialProfile) -> np.ndarray:
    """Transition law u(t, phi) on the d+2 increments at times t of any shape.

    phi carries the shape of t plus the d+2 components, as does the
    result.  At sigma = 0 (only the initial instant of an empty
    configuration) the law degenerates to p on the new-urn move and 1-p on
    the aggregate slot.
    """
    p, beta = schedule.coefficients(t)
    sig = sigma(profile, t, beta)
    z = np.maximum(phi, 0.0)
    empty = sig == 0.0
    if empty.any():
        z = np.where(empty[..., None], 0.0, z)
        sig = np.where(empty, 1.0, sig)
    return transition_law(p, beta, z, sig)


def local_cost(t, phi, slope, schedule: Schedule, profile: InitialProfile):
    """L(t, phi, slope) at times t of any shape; +inf where the slope is
    inadmissible or a move unreachable.

    phi and slope carry the shape of t plus the d+2 components (or
    broadcast to it).  A scalar t gives a float.
    """
    w, _, ok = _nu0_rows(slope)
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
    return half, np.concatenate([fn(nodes[rows], rows) for rows in _batches(a.size)])


def _batches(size: int) -> list:
    """Slices of _BLOCK panels covering size panels."""
    return [slice(lo, lo + _BLOCK) for lo in range(0, size, _BLOCK)]


def check_tol(tol: float) -> None:
    """Raise ValueError unless tol is finite and at least MIN_TOL."""
    if not (math.isfinite(tol) and tol >= MIN_TOL):
        raise ValueError(f"tol must be finite and at least MIN_TOL = {MIN_TOL:g} "
                         f"(got {tol})")


@dataclass
class RateReport:
    method: str         # the route: "exact" (closed form) or "kronrod"
    value: float
    error: float
    num_panels: int
    deepest: int
    diverged: bool
    floor_hits: int = 0
    condensation: float = math.inf  # aggregate slot's share of value
    renormalized: int = 0           # slope rows _piece_laws rescaled


def path_rate_Id(path: Path, schedule: Schedule, profile: InitialProfile,
                 tol: float = 1e-10) -> RateReport:
    """Adaptive Gauss-Kronrod integral of the local cost along the path.

    Panels start as knot intervals split at schedule breakpoints (the
    integrand jumps there), each carrying its constant minimizing law; all
    unfinished panels of one bisection depth are refined together, phi
    interpolated on the path's projection (_piece_laws).  A panel whose
    nodes all cost +inf (some w_i > 0 on a slot at 0 throughout) is
    declared divergent, and isolated endpoint singularities are bisected
    down to a width floor, at most MAX_DEPTH times.  The condensation
    charge h(nu0_{d+1}, u_{d+1}) is integrated on the panels accepted for
    the total; refinement looks at the total only.  A tol below MIN_TOL is
    rejected (check_tol).
    """
    check_tol(tol)
    a, b, piece = _panels(path, schedule)
    proj, w, renormalized = _piece_laws(path, profile)
    if w is None:
        return RateReport("kronrod", math.inf, math.inf, a.size, 0, True,
                          renormalized=renormalized)

    def cost(nodes, rows):  # rows of the current depth's (a, b, piece)
        k = piece[rows, None]
        u = natural_law(nodes, proj.on_piece(nodes, k), schedule, profile)
        terms = entropy_terms(w[k], u)
        total_charge = np.empty(terms.shape[:-1] + (2,))
        total_charge[..., 0] = terms.sum(axis=-1)
        total_charge[..., 1] = terms[..., -1]
        return total_charge

    span = float(b[-1] - a[0])
    kept = []           # (value, error, charge) rows of finished panels
    num_done = floor_hits = depth = 0
    while True:
        half, fc = _on_kronrod_nodes(a, b, cost)
        f = fc[..., 0]
        finite = np.isfinite(f)
        if not finite.any(axis=1).all():
            # structurally impossible move on a whole panel
            return RateReport("kronrod", math.inf, math.inf, num_done + a.size, depth,
                              True, renormalized=renormalized)
        all_finite = finite.all(axis=1)
        vk = np.where(all_finite, half * (f * _WK[None, :]).sum(axis=1), math.inf)
        vg = half * (np.where(finite, f, 0.0)[:, _GAUSS_IDX] * _WG[None, :]).sum(axis=1)
        err = np.abs(vk - vg)
        width = b - a
        done = all_finite & (err <= tol * np.maximum(width / span, 1e-6))
        split = ~done & (width > 1e-14 * span) & (depth < MAX_DEPTH)
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
    return RateReport("kronrod", value, error, num_done, depth, False, floor_hits, charge,
                      renormalized)


# q(e) = sum_{k>=1} e^k/(k(k+1)) in Horner order (highest power first): 16
# terms leave a relative error below 1e-18 for e < _TAYLOR_BELOW
_Q_TAYLOR = 1.0 / (np.arange(16, 0, -1) * np.arange(17, 1, -1))
_TAYLOR_BELOW = 0.1


def _log_affine(lo, hi):
    """(M, q) with the integral of log f over a panel of width h equal to
    h*(log M - q), for f affine on the panel with endpoint values lo, hi
    >= 0 and M the larger of them.

    With r the smaller endpoint value over the larger and e = 1 - r,
    q = 1 + r*log(r)/(1-r) = sum_{k>=1} e^k/(k(k+1)) runs from 0 (f
    constant) to 1 (an endpoint zero, an integrable log singularity).
    Near r = 1 the closed form cancels down to its rounding, so the series
    takes over and q keeps its relative accuracy.  M = 0 (f zero
    throughout) gives q = 1 and log M = -inf.
    """
    big = np.maximum(lo, hi)
    small = np.minimum(lo, hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = small / big
        e = (big - small) / big
        q = np.zeros_like(e)
        for coef in _Q_TAYLOR:    # the series by Horner's rule, as np.polyval
            q *= e
            q += coef
        q *= e
        far = ~(e < _TAYLOR_BELOW)    # the closed form, the only logs taken
        if far.any():
            r_far = r[far]
            q[far] = np.where(r_far > 0.0, 1.0 + r_far * np.log(r_far) / e[far], 1.0)
    return big, q


def path_rate_exact(path: Path, schedule: Schedule, profile: InitialProfile) -> RateReport:
    """I_d of the path in closed form, on a piecewise-constant schedule.

    path_rate_Id's panels (knot intervals split at schedule breakpoints)
    hold p and beta constant and the path's projection (_piece_laws)
    linear and nonnegative, so sigma and the numerators N_i = u_i*sigma,
    formed as transition_law forms u, are affine in t and, for i <= d,
    nonnegative; N_bar = sigma - sum_{i<=d} N_i is clipped at 0, as
    transition_law clips u_bar.  The panel's minimizing law w is
    constant, so its cost is sum_i w_i*(h*log w_i + int log sigma -
    int log N_i), each integral of the log of an affine function in
    closed form (_log_affine); the condensation charge is the w_bar term.
    A panel where some w_i > 0 meets N_i = 0 at both ends costs
    log(w_i*sigma/0) = +inf and the path diverges.  There is no
    quadrature error, depth or floor hit.  path_rate_Id is the paired
    route, and the only one for polynomial schedule segments, on which
    this raises ValueError.
    """
    if not schedule.is_piecewise_constant:
        raise ValueError("path_rate_exact needs a piecewise-constant schedule "
                         "(path_rate_Id integrates polynomial segments)")
    a, b, piece = _panels(path, schedule)
    proj, w, renormalized = _piece_laws(path, profile)

    def panel_costs(rows):  # (cost, charge) of the panels a[rows], (B, 2)
        lo, hi, k = a[rows], b[rows], piece[rows]
        p, beta = schedule.coefficients(0.5 * (lo + hi))
        ends = np.stack([lo, hi])
        sig = sigma(profile, ends, beta)    # (2, B); num is (2, B, d+2)
        num = selection_rates(p, beta, path.d) * proj.on_piece(ends, k)
        num[..., 0] += p * sig
        rest = num[..., -1]    # N_bar, the complement
        np.subtract(sig, np.einsum("...i->...", num[..., :-1]), out=rest)
        np.maximum(rest, 0.0, out=rest)
        big_n, q_n = _log_affine(num[0], num[1])
        big_s, q_s = _log_affine(sig[0], sig[1])
        wk = w[k]
        pos = wk > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            # w_i*(h*log w_i + int log sigma - int log N_i), one log per term
            terms = ((hi - lo)[:, None] * wk) * (np.log(wk * big_s[:, None] / big_n)
                                                 - q_s[:, None] + q_n)
        terms[~pos] = 0.0
        return np.stack([terms.sum(axis=1), terms[:, -1]], axis=1)

    costs = None if w is None else np.concatenate([panel_costs(rows)
                                                   for rows in _batches(a.size)])
    if costs is None or not np.isfinite(costs[:, 0]).all():
        return RateReport("exact", math.inf, math.inf, a.size, 0, True,
                          renormalized=renormalized)
    value, charge = (math.fsum(col) for col in costs.T)
    return RateReport("exact", value, 0.0, a.size, 0, False, 0, charge, renormalized)


def path_rate(path: Path, schedule: Schedule, profile: InitialProfile,
              tol: float = 1e-10) -> RateReport:
    """I_d of the path: path_rate_exact's closed form where p and beta are
    constant on every schedule segment, else path_rate_Id's quadrature at
    tol.  The report's method names the route; tol is checked (check_tol)
    on either."""
    check_tol(tol)
    if schedule.is_piecewise_constant:
        return path_rate_exact(path, schedule, profile)
    return path_rate_Id(path, schedule, profile, tol)


def project_path(path: Path, d: int) -> Path:
    """The path at depth d <= path.d: levels 0..d, and as the aggregate
    slot the sum of the levels above d and the path's slot.  The limit
    system's slot at depth d gains exactly that sum (the fluxes between
    the levels telescope), so this folds a limit path too, as a sum of
    nonnegative terms.  The projection shares the path's knot times."""
    if not 0 <= d <= path.d:
        raise ValueError(f"cannot project a depth-{path.d} path to depth {d}")
    vals = np.empty((path.times.size, d + 2))
    vals[:, : d + 1] = path.values[:, : d + 1]
    vals[:, d + 1] = path.values[:, d + 1 :].sum(axis=1)
    vals.setflags(write=False)
    # the knots were checked when the path was built
    return Path(d, path.times, vals)


def _gamma_profile(law):
    """Occupancy fractions gamma_i (urns holding i balls) of a target.

    A ReferenceLaw q on per-urn weights shifts down one slot, gamma_i =
    q(i+1), with its analytic tail kept separate; a plain nonnegative
    sequence is gamma itself.  Returns (gamma, tail_count, ball_mass)
    with ball_mass = sum_i i*gamma_i including the tail.  Rejects inputs
    that are not occupancy profiles or that carry more than the unit
    ball supply, both within PATH_TOL.
    """
    if isinstance(law, ReferenceLaw):
        gamma = np.asarray(law.values, dtype=float)
        tail_count = float(law.tail_mass)
        total = law.total()
        ball_mass = law.mean() - total
    else:
        gamma = np.asarray(law, dtype=float)
        if gamma.ndim != 1 or gamma.size == 0:
            raise ValueError("gamma must be a nonempty 1-d sequence")
        tail_count = 0.0
        total = float(math.fsum(gamma))
        ball_mass = float(np.arange(gamma.size) @ gamma)
    if np.any(gamma < 0.0):
        raise ValueError("gamma components must be nonnegative")
    if abs(total - 1.0) > PATH_TOL:
        raise ValueError(f"gamma must sum to 1 (got {total})")
    if ball_mass > 1.0 + PATH_TOL:
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
    method: str                 # route of the final rung's I_d


def condensation_term(path: Path, schedule: Schedule, profile: InitialProfile) -> float:
    """Cost carried by the aggregate slot alone (the condensation charge),
    +inf where the path diverges: one path_rate, whose routes both carry
    it on the total's panels, for callers that want the charge alone."""
    return path_rate(path, schedule, profile).condensation


def path_rate_Iinf(law, schedule: Schedule, profile: InitialProfile,
                   tol: float = 1e-6) -> IinfReport:
    """Untruncated deviation rate of the straight path t -> t*gamma.

    law is a ReferenceLaw or an occupancy sequence (see _gamma_profile).
    It stores levels 0..D and keeps the urns above D as a tail total, so
    linear_target_path(law, D) holds all of it, the unstored urns in the
    aggregate slot, and its I_D is the law's rate.  The trace is I_d on
    the ladder d = 0, 1, 2, 4, ..., D, each rung a projection of that
    path rated by path_rate, its Kronrod route at min(1e-9, tol/100).
    converged means the route's error plus the unstored urn weight, which
    bounds the levels above D as in linear_path_rate_classical's
    truncation_error, is within tol (a diverged rate is exact); tol >= MIN_TOL.
    """
    check_tol(tol)
    gamma, tail_count, ball_mass = _gamma_profile(law)
    depth = gamma.size - 1
    full = linear_target_path(law, depth)
    quad_tol = max(MIN_TOL, min(1e-9, 0.01 * tol))
    trace = []
    for d in sorted({0, depth} | {2 ** k for k in range(depth.bit_length())}):
        rep = path_rate(project_path(full, d), schedule, profile, tol=quad_tol)
        trace.append((d, rep.value))
    converged = rep.diverged or rep.error + tail_count <= tol
    escape = min(1.0, max(0.0, 1.0 - ball_mass))
    return IinfReport(rep.value, trace, converged, escape, rep.condensation, rep.error,
                      rep.method)


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

