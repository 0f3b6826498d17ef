"""Domain types for time-dependent urn growth schemes.

A scheme adds one urn per step and places one ball, either into the new
urn (probability p(j/n)) or into an existing urn chosen proportionally
to (balls + beta(j/n)).  This module holds the parameter schedule, the
limiting initial degree profile, integer count states truncated at a
size cutoff d, the one-step transition law over the d+2 increments,
piecewise-linear scaled trajectories, and the admissible slope class of
deviation paths (_nu0_rows), stated once for validate_path and the rate.
Schedule.coefficients evaluates p and beta together for times of any
shape, by one segment lookup and one Horner pass over a zero-padded
coefficient table.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

# Absolute tolerance of the admissible path class, on slopes and knots alike.
PATH_TOL = 1e-9


def entropy_terms(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x*log(x/y) elementwise over broadcasting arrays, for y >= 0 (every
    caller passes a transition_law output), under the conventions
    0*log0 = 0/0 = 0 and x/0 = +inf for x > 0; y = inf gives -inf."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.empty(np.broadcast(x, y).shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(x, y, out=out)
        np.log(out, out=out)
        np.multiply(x, out, out=out)
    np.copyto(out, 0.0, where=~(x > 0.0))
    return out


def _as_coeffs(value) -> tuple:
    """Normalize a constant or polynomial coefficient sequence (low order first)."""
    if isinstance(value, numbers.Real):
        return (value,)
    # a string is a sequence too, but "12" is not the coefficients (1, 2)
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"p and beta take a number or a nonempty coefficient list "
                         f"(got {value!r})")
    return tuple(value)


def _polyval(coeffs: tuple, t):
    """The polynomial with coefficients coeffs (low order first) at t, by
    Horner's rule started from 0.0: a float at a float t, an array at an
    array t."""
    out = 0.0
    for c in reversed(coeffs):
        out = out * t + float(c)
    return out


def _extreme_values(coeffs: tuple, a: float, b: float) -> np.ndarray:
    """Polynomial values on [a, b] that include its minimum and maximum:
    the endpoints and the real parts of the derivative's roots inside."""
    crit = np.polynomial.polynomial.polyroots(
        np.polynomial.polynomial.polyder([float(c) for c in coeffs])).real
    return _polyval(coeffs, np.concatenate([[a, b], crit[(crit > a) & (crit < b)]]))


@dataclass(frozen=True)
class ScheduleSegment:
    """One piece of the schedule: valid on [t_start, next start)."""

    t_start: float
    p_coeffs: tuple
    beta_coeffs: tuple

    @property
    def is_constant(self) -> bool:
        return len(self.p_coeffs) == 1 and len(self.beta_coeffs) == 1


@dataclass(frozen=True)
class Schedule:
    """Piecewise-polynomial selection parameters p(t), beta(t) on [0,1].

    Evaluation is right-continuous at the segment breakpoints.  The
    bounds p_min, p_max, beta_min, beta_max certify 0 <= p_min <= p <=
    p_max < 1 and 0 < beta_min <= beta <= beta_max; they are computed at
    construction from each segment's values on its closed interval at the
    endpoints and at the critical points of the polynomial inside it.
    """

    segments: tuple
    p_max: float
    beta_min: float
    beta_max: float
    p_min: float

    @classmethod
    def from_segments(cls, specs) -> "Schedule":
        """Build from [(t_start, p, beta), ...]; p and beta are constants
        or low-order-first polynomial coefficient sequences."""
        if not specs:
            raise ValueError("schedule needs at least one segment")
        segs = []
        for t_start, p, beta in specs:
            segs.append(ScheduleSegment(float(t_start), _as_coeffs(p), _as_coeffs(beta)))
        # each check below is written so that NaN fails it
        if not all(math.isfinite(v) for s in segs
                   for v in (s.t_start, *s.p_coeffs, *s.beta_coeffs)):
            raise ValueError("segment starts and coefficients must be finite")
        starts = [s.t_start for s in segs]
        if starts[0] != 0.0:
            raise ValueError("first segment must start at t=0")
        if not all(a < b for a, b in zip(starts, starts[1:])):
            raise ValueError("segment breakpoints must be strictly increasing")
        if not starts[-1] < 1.0:
            raise ValueError("segment starts must lie in [0,1)")

        ends = starts[1:] + [1.0]
        pv, bv = [], []
        for seg, a, b in zip(segs, starts, ends):
            pv.append(_extreme_values(seg.p_coeffs, a, b))
            bv.append(_extreme_values(seg.beta_coeffs, a, b))
        pv, bv = np.concatenate(pv), np.concatenate(bv)
        p_max, p_min = float(pv.max()), float(pv.min())
        beta_min, beta_max = float(bv.min()), float(bv.max())
        if not (0.0 <= p_min and p_max < 1.0):
            raise ValueError(f"p(t) must stay in [0,1): range [{p_min}, {p_max}]")
        if not (0.0 < beta_min and beta_max < math.inf):
            raise ValueError(f"beta(t) must be positive and finite: range "
                             f"[{beta_min}, {beta_max}]")
        return cls(tuple(segs), p_max=p_max, beta_min=beta_min, beta_max=beta_max,
                   p_min=p_min)

    @classmethod
    def constant(cls, p: float, beta: float) -> "Schedule":
        return cls.from_segments([(0.0, p, beta)])

    @property
    def breakpoints(self) -> np.ndarray:
        """Segment starts plus the right endpoint 1."""
        return np.array([s.t_start for s in self.segments] + [1.0])

    @property
    def is_piecewise_constant(self) -> bool:
        return all(s.is_constant for s in self.segments)

    @cached_property
    def _table(self) -> tuple:
        """Segment starts after the first, and the (2, degree, segments)
        coefficients of p and beta, highest order first, zero-padded."""
        deg = max(len(c) for s in self.segments for c in (s.p_coeffs, s.beta_coeffs))
        table = np.zeros((2, deg, len(self.segments)))
        for k, seg in enumerate(self.segments):
            for row, coeffs in enumerate((seg.p_coeffs, seg.beta_coeffs)):
                table[row, deg - len(coeffs):, k] = [float(c) for c in reversed(coeffs)]
        return np.array([s.t_start for s in self.segments[1:]]), table

    def segment_index(self, t) -> np.ndarray:
        """Segment of each t; times outside [0,1) take the first or last."""
        return np.searchsorted(self._table[0], np.asarray(t, dtype=float), side="right")

    def coefficients(self, t) -> tuple:
        """(p(t), beta(t)) at times t of any shape, by one segment lookup
        and one Horner pass over the coefficient table of p and beta."""
        t = np.asarray(t, dtype=float)
        # take: indexing the last axis with an index array is several
        # times slower for the same gather
        table = np.take(self._table[1], self.segment_index(t), axis=2)
        out = 0.0
        for k in range(table.shape[1]):
            out = out * t + table[:, k]
        return out[0], out[1]

    def p_at(self, t):
        return self.coefficients(t)[0]

    def beta_at(self, t):
        return self.coefficients(t)[1]

    def values_exact(self, t: Fraction) -> tuple:
        """(p(t), beta(t)) as Fractions: the segment that coefficients finds
        for float(t), the correctly rounded time the simulator steps at (a
        float start of 0.1 takes t = 1/10 although it lies above it), and its
        polynomials evaluated at t in exact arithmetic."""
        seg = self.segments[int(self.segment_index(float(t)))]
        return tuple(sum(Fraction(c) * t ** k for k, c in enumerate(coeffs))
                     for coeffs in (seg.p_coeffs, seg.beta_coeffs))


@dataclass(frozen=True)
class InitialProfile:
    """Limiting initial data: masses c_i = lim Z_i(0)/n, with totals.

    c_weighted may exceed sum(i*c_i) (condensed data: some limiting ball
    mass sits in urns of unbounded size).
    """

    c: tuple
    c_total: float
    c_weighted: float
    condensed_flag: bool

    @classmethod
    def from_masses(cls, c, c_weighted=None) -> "InitialProfile":
        c = tuple(float(x) for x in c)
        if any(x < 0 for x in c):
            raise ValueError("initial masses must be nonnegative")
        c_total = math.fsum(c)
        finite_weight = math.fsum(i * x for i, x in enumerate(c))
        if c_weighted is None:
            c_weighted = finite_weight
        c_weighted = float(c_weighted)
        if not (math.isfinite(c_total) and math.isfinite(c_weighted)):
            raise ValueError("profile totals must be finite")
        if c_weighted < finite_weight - 1e-12:
            raise ValueError("c_weighted below the visible weight sum(i*c_i)")
        condensed = c_weighted > finite_weight + 1e-12
        return cls(c, c_total, c_weighted, condensed)

    @classmethod
    def empty(cls) -> "InitialProfile":
        """The small configuration: no limiting mass (c = c_weighted = 0)."""
        return cls.from_masses(())

    def truncated(self, d: int) -> np.ndarray:
        """Initial vector (c_0, ..., c_d, tail) of length d+2, the tail the
        mass in sizes above d."""
        out = np.zeros(d + 2)
        m = min(d + 1, len(self.c))
        out[:m] = self.c[:m]
        out[d + 1] = math.fsum(self.c[d + 1:])
        return out


def sigma(profile: InitialProfile, t, beta):
    """Scaled total selection weight (1+beta)*t + c_weighted + c_total*beta,
    with beta = beta(t) from Schedule.coefficients."""
    return (1.0 + beta) * np.asarray(t, dtype=float) + profile.c_weighted + profile.c_total * beta


@dataclass(frozen=True)
class TruncatedState:
    """Integer counts (Z_0, ..., Z_d, Zbar) of a start state and its ball total.

    Zbar aggregates urns with more than d balls, so ball_total must be
    carried explicitly: the visible weight sum(i*Z_i) + (d+1)*Zbar is only
    a lower bound on it.
    """

    counts: tuple
    ball_total: int

    def __post_init__(self):
        if len(self.counts) < 2:
            raise ValueError("counts must hold at least (Z_0, Zbar)")
        if any(z < 0 for z in self.counts):
            raise ValueError("negative count")
        d = len(self.counts) - 2
        weight = sum(i * z for i, z in enumerate(self.counts[:-1])) + (d + 1) * self.counts[-1]
        if weight > self.ball_total:
            raise ValueError("visible weight exceeds ball_total")

    @property
    def d(self) -> int:
        return len(self.counts) - 2

    @property
    def urn_total(self) -> int:
        return sum(self.counts)


def increments(d: int) -> np.ndarray:
    """The d+2 one-step increment vectors, one per row.

    Row 0: ball into a new or existing empty urn (Z_1 += 1).
    Row i (1<=i<=d): ball into a size-i urn (+new empty urn).
    Row d+1: ball into an aggregated urn (+new empty urn).
    """
    f = np.zeros((d + 2, d + 2), dtype=int)
    f[0, 1] = 1
    for i in range(1, d + 1):
        f[i, 0] = 1
        f[i, i] -= 1
        f[i, i + 1] += 1
    f[d + 1, 0] = 1
    return f


def selection_rates(p, beta, d: int) -> np.ndarray:
    """(1-p)*(i+beta) for i = 0..d+1, in a new last axis after those of p
    and beta: the weight of linear selection on each urn of size i, the
    coefficient of Z_i/s in transition_law (the new urn's p is added to
    entry 0 apart).  The simulator takes these on the lattice j/n (its
    expanded loop for every step at once, a single run one block of steps
    at a time), so the law is written here alone."""
    p, beta = (np.asarray(x, dtype=float)[..., None] for x in (p, beta))
    return (1.0 - p) * (np.arange(d + 2) + beta)


def transition_law(p, beta, z, s) -> np.ndarray:
    """One-step law of linear selection over the d+2 increments.

    z holds (Z_0, ..., Z_d, Zbar), as counts or scaled masses, in its last
    axis; s is the total selection weight (balls + beta*urns) and p, beta
    and s broadcast against the leading axes of z (s adds no axis of its
    own).  Entry 0 is
    p + (1-p)*beta*Z_0/s (the new urn or an empty one), entry i is
    (1-p)*(i+beta)*Z_i/s for 1 <= i <= d, and the last entry is the
    complement (a ball into an aggregated urn), clipped at 0 since it only
    goes negative through round-off.
    """
    p, s = (np.asarray(x, dtype=float) for x in (p, s))
    z = np.asarray(z)
    d = z.shape[-1] - 2
    # In place, so that a call holds one law-sized array.  The ufunc lays
    # the law out in z's memory order; the last column is computed only to
    # keep that layout, and overwritten.
    law = np.multiply(selection_rates(p, beta, d), z)
    law /= s[..., None]
    law[..., 0] += p
    rest = law[..., d + 1]
    # einsum: sum() over a short last axis is several times slower
    np.subtract(1.0, np.einsum("...i->...", law[..., : d + 1]), out=rest)
    np.maximum(rest, 0.0, out=rest)
    return law


@dataclass(frozen=True)
class Path:
    """Piecewise-linear scaled trajectory on [0,1] with d+2 components."""

    d: int
    times: np.ndarray
    values: np.ndarray

    @classmethod
    def from_knots(cls, times, values) -> "Path":
        times = np.array(times, dtype=float)
        values = np.array(values, dtype=float)
        if times.ndim != 1 or values.ndim != 2 or values.shape[0] != times.size:
            raise ValueError("need times (K,) and values (K, d+2)")
        if times.size < 2:
            raise ValueError("need at least two knots")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("knot times and values must be finite")
        if not np.all(np.diff(times) > 0):
            raise ValueError("knot times must be strictly increasing")
        if times[0] != 0.0 or times[-1] != 1.0:
            raise ValueError("knots must span [0,1]")
        d = values.shape[1] - 2
        if d < 0:
            raise ValueError("values need at least two components")
        times.setflags(write=False)
        values.setflags(write=False)
        return cls(d, times, values)

    @property
    def slopes(self) -> np.ndarray:
        """Constant derivative on each linear piece, shape (K-1, d+2)."""
        dt = np.diff(self.times)[:, None]
        return np.diff(self.values, axis=0) / dt

    def _segment_of(self, t) -> np.ndarray:
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="right") - 1
        return np.minimum(np.maximum(idx, 0), self.times.size - 2)

    def at(self, t) -> np.ndarray:
        """Linear interpolation; accepts scalars or arrays."""
        return self.on_piece(t, self._segment_of(t))

    def on_piece(self, t, idx) -> np.ndarray:
        """Linear interpolation on the known pieces idx (broadcast against t)."""
        t = np.asarray(t, dtype=float)
        t0 = self.times[idx]
        dt = self.times[idx + 1] - t0
        w = ((t - t0) / dt)[..., None]
        out = (1.0 - w) * self.values[idx]
        out += w * self.values[idx + 1]
        return out

    def slope_at(self, t) -> np.ndarray:
        """Right-continuous segment derivative at t."""
        return self.slopes[self._segment_of(t)]


@dataclass(frozen=True)
class AdmissibilityReport:
    is_admissible: bool
    violations: tuple  # of (condition name, time, magnitude)

    def worst(self) -> float:
        return max((v[2] for v in self.violations), default=0.0)


def _knot_violations(path: Path, profile: InitialProfile) -> list:
    """validate_path's initial_value and nonnegative violations (within
    PATH_TOL the path starts at the truncated profile and is nonnegative
    at its knots, where a piecewise-linear path takes its extremes)."""
    violations = []
    err = float(np.abs(path.values[0] - profile.truncated(path.d)).max())
    if err > PATH_TOL:
        violations.append(("initial_value", 0.0, err))
    neg = path.values.min(axis=1)
    for k in np.nonzero(neg < -PATH_TOL)[0]:
        violations.append(("nonnegative", float(path.times[k]), float(-neg[k])))
    return violations


def _nu0_rows(v):
    """The admissible slope class, which validate_path, local_cost and both
    I_d routes read.  For each slope row in the last axis of v: nu0, the
    cost-minimizing increment law whose mean is the row rescaled to total
    1 (a new array, not clipped: weights at or below 0 count as 0 where
    read); the row's total; and whether the row is admissible, its total
    within PATH_TOL of 1 and every weight of nu0 (which sum to 1) at least
    -PATH_TOL."""
    v = np.asarray(v, dtype=float)
    total = v.sum(axis=-1)
    # nu0_i = 1 - [v]_i for i <= d as the suffix sum of v/total above i
    # (exact zeros above the last occupied level, where u_i = 0 too), a
    # cumsum in place over the quotients written in reverse; the aggregate
    # slot takes the complement
    w = np.empty_like(v)
    up = w[..., -2::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(v[..., :0:-1], total[..., None], out=up)
    np.cumsum(up, axis=-1, out=up)
    w[..., -1] = 1.0 - w[..., :-1].sum(axis=-1)
    return w, total, (np.abs(total - 1.0) <= PATH_TOL) & np.all(w >= -PATH_TOL, axis=-1)


def validate_path(path: Path, profile: InitialProfile) -> AdmissibilityReport:
    """Check membership in the admissible deviation class at truncation d,
    each rule within PATH_TOL (the I_d routes rate its projection).

    The path starts at the truncated profile and is nonnegative
    (_knot_violations), and each piece's slope is admissible by _nu0_rows;
    a piece that is not is reported under the rules its rescaled row
    breaks: cumulative slopes [v]_i = 1 - nu0_i in [0,1] for i <= d,
    slopes summing to 1, escape rate sum_{i<=d} (1 - [v]_i) at most 1."""
    violations = _knot_violations(path, profile)
    w, total, ok = _nu0_rows(path.slopes)
    mids = 0.5 * (path.times[:-1] + path.times[1:])
    for name, excess in (("cumulative_slope_lower", w[:, :-1].max(axis=1) - 1.0),
                         ("cumulative_slope_upper", -w[:, :-1].min(axis=1)),
                         ("slope_sum", np.abs(total - 1.0)),
                         ("escape_rate", -w[:, -1])):
        for k in np.nonzero(~ok & (excess > PATH_TOL))[0]:
            violations.append((name, float(mids[k]), float(excess[k])))
    return AdmissibilityReport(bool(ok.all()) and not violations, tuple(violations))


def realize_initial(profile: InitialProfile, n: int, d: int) -> TruncatedState:
    """Discretize a profile into integer counts at scheme size n.

    Uses largest-remainder rounding of n*c_i so each scaled count is
    within 1/n of its target and the urn total matches round(n*c_total).
    A profile that leaves no urn at n is rejected, since the selection
    rule needs at least one urn at step 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    # Apportion over the full support first so the ball total is exact,
    # then fold sizes above d into the aggregate slot.
    support = max(len(profile.c), d + 2)
    targets = np.zeros(support)
    targets[: len(profile.c)] = np.asarray(profile.c) * n
    total = int(round(n * profile.c_total))
    base = np.floor(targets).astype(int)
    short = total - int(base.sum())
    if short > 0:
        order = np.argsort(-(targets - base), kind="stable")
        base[order[:short]] += 1
    elif short < 0:
        order = np.argsort(targets - base, kind="stable")
        take = 0
        for idx in order:
            if take == -short:
                break
            if base[idx] > 0:
                base[idx] -= 1
                take += 1

    if base.sum() < 1:
        raise ValueError(
            "profile carries no urns at this n; pass seed_config to start the scheme"
        )
    balls = int(sum(i * z for i, z in enumerate(base)))
    if profile.condensed_flag:
        balls = int(round(n * profile.c_weighted))
        if base[d + 1 :].sum() == 0:
            raise ValueError(
                "condensed profile needs at least one aggregated urn to carry the excess weight"
            )
    counts = tuple(int(z) for z in base[: d + 1]) + (int(base[d + 1 :].sum()),)
    return TruncatedState(counts, balls)


def resolve_initial(initial, n: int, d: int) -> TruncatedState:
    """The validated step-0 state for a TruncatedState (returned as given),
    an InitialProfile (realized at scheme size n by realize_initial) or
    explicit counts (Z_0, ..., Z_d, Zbar)."""
    if isinstance(initial, TruncatedState):
        if initial.d != d:
            raise ValueError("initial state truncation does not match d")
        return initial
    if isinstance(initial, InitialProfile):
        return realize_initial(initial, n, d)
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = tuple(int(z) for z in initial)
    if len(counts) != d + 2:
        raise ValueError("seed_config length must be d+2")
    if sum(counts) < 1:
        raise ValueError("seed_config must contain at least one urn")
    balls = sum(i * z for i, z in enumerate(counts[:-1])) + (d + 1) * counts[-1]
    return TruncatedState(counts, balls)


def _json_number(value, name: str, integer: bool = False):
    """A JSON number as a float (a JSON integer as an int if integer), else
    ValueError naming it: bool is an int subclass, and int() and float()
    would read true as 1, 2.7 as 2 urns and "1e-3" as a number."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValueError(f"{name} must be a JSON {'integer' if integer else 'number'} "
                         f"(got {value!r})")
    return int(value) if integer else float(value)


def config_from_dict(cfg: dict):
    """Parse the JSON config schema into (Schedule, InitialProfile, seed_config).

    Schema: {"schedule": [{"t_start": ..., "p": ..., "beta": ...}, ...],
             "profile": {"c": [...], "c_weighted": optional},
             "seed_config": optional explicit counts}.
    Unknown keys are rejected.
    """
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    allowed = {"schedule", "profile", "seed_config"}
    unknown = set(cfg) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if not isinstance(cfg.get("schedule"), list):
        raise ValueError("config needs a 'schedule' list")
    keys = {"t_start", "p", "beta"}
    specs = []
    for entry in cfg["schedule"]:
        if not isinstance(entry, dict) or not keys <= set(entry):
            raise ValueError(f"each schedule entry must be an object with the keys "
                             f"{sorted(keys)} (got {entry!r})")
        extra = set(entry) - keys
        if extra:
            raise ValueError(f"unknown schedule keys: {sorted(extra)}")
        specs.append(tuple(
            [_json_number(c, k) for c in entry[k]] if isinstance(entry[k], (list, tuple))
            else _json_number(entry[k], k) for k in ("t_start", "p", "beta")))
    schedule = Schedule.from_segments(specs)

    prof_cfg = cfg.get("profile", {})
    if not isinstance(prof_cfg, dict):
        raise ValueError("the profile must be an object")
    extra = set(prof_cfg) - {"c", "c_weighted"}
    if extra:
        raise ValueError(f"unknown profile keys: {sorted(extra)}")
    if not isinstance(prof_cfg.get("c", []), list):
        raise ValueError("the profile's 'c' must be a list of masses")
    c_weighted = prof_cfg.get("c_weighted")
    profile = InitialProfile.from_masses(
        [_json_number(x, "a profile mass") for x in prof_cfg.get("c", ())],
        None if c_weighted is None else _json_number(c_weighted, "c_weighted"))

    seed_config = cfg.get("seed_config")
    if seed_config is not None:
        if not isinstance(seed_config, (list, tuple)):
            raise ValueError(f"seed_config must be a list of integer counts "
                             f"(got {seed_config!r})")
        seed_config = tuple(_json_number(z, "a seed_config count", integer=True)
                            for z in seed_config)
    return schedule, profile, seed_config
