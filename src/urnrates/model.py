"""Domain types for time-dependent urn growth schemes.

A scheme adds one urn per step and places one ball, either into the new
urn (probability p(j/n)) or into an existing urn chosen proportionally
to (balls + beta(j/n)).  This module holds the parameter schedule, the
limiting initial degree profile, integer count states truncated at a
size cutoff d, the one-step transition law over the d+2 increments,
piecewise-linear scaled trajectories, and the shared admissibility checks
for deviation paths.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# Default absolute tolerance on path derivative constraints.
PATH_TOL = 1e-9


def entropy_terms(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x*log(x/y) elementwise over broadcasting arrays, under the
    conventions 0*log0 = 0/0 = 0 and x/0 = +inf for x > 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(x, y).shape)
    pos = x > 0.0
    bad = pos & (y <= 0.0)
    ok = pos & (y > 0.0)
    xo = np.broadcast_to(x, out.shape)[ok]
    yo = np.broadcast_to(y, out.shape)[ok]
    out[ok] = xo * np.log(xo / yo)
    out[bad] = np.inf
    return out


def _as_coeffs(value) -> tuple:
    """Normalize a constant or polynomial coefficient sequence (low order first)."""
    if isinstance(value, numbers.Real):
        return (value,)
    coeffs = tuple(value)
    if not coeffs:
        raise ValueError("empty coefficient list")
    return coeffs


def _polyval(coeffs: tuple, t) -> np.ndarray:
    out = np.zeros_like(np.asarray(t, dtype=float))
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
        starts = [s.t_start for s in segs]
        if starts[0] != 0.0:
            raise ValueError("first segment must start at t=0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment breakpoints must be strictly increasing")
        if starts[-1] >= 1.0:
            raise ValueError("segment starts must lie in [0,1)")

        ends = starts[1:] + [1.0]
        pv, bv = [], []
        for seg, a, b in zip(segs, starts, ends):
            pv.append(_extreme_values(seg.p_coeffs, a, b))
            bv.append(_extreme_values(seg.beta_coeffs, a, b))
        pv, bv = np.concatenate(pv), np.concatenate(bv)
        p_max, p_min = float(pv.max()), float(pv.min())
        beta_min, beta_max = float(bv.min()), float(bv.max())
        if p_min < 0.0 or p_max >= 1.0:
            raise ValueError(f"p(t) must stay in [0,1): range [{p_min}, {p_max}]")
        if beta_min <= 0.0:
            raise ValueError(f"beta(t) must be positive: min {beta_min}")
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

    def segment_index(self, t) -> np.ndarray:
        starts = np.array([s.t_start for s in self.segments])
        idx = np.searchsorted(starts, np.asarray(t, dtype=float), side="right") - 1
        return np.clip(idx, 0, len(self.segments) - 1)

    def _eval(self, t, which: str) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        idx = self.segment_index(t)
        out = np.empty(t.shape)
        for k, seg in enumerate(self.segments):
            mask = idx == k
            if np.any(mask):
                coeffs = seg.p_coeffs if which == "p" else seg.beta_coeffs
                out[mask] = _polyval(coeffs, t[mask])
        return out

    def p_at(self, t):
        return self._eval(t, "p")

    def beta_at(self, t):
        return self._eval(t, "beta")

    def values_exact(self, t: Fraction) -> tuple:
        """(p(t), beta(t)) as Fractions; requires piecewise-constant segments."""
        if not self.is_piecewise_constant:
            raise ValueError("exact evaluation needs piecewise-constant segments")
        k = int(self.segment_index(float(t)))
        # searchsorted on floats can misplace t within 1 ulp of a breakpoint;
        # resolve against the exact start values.
        while k + 1 < len(self.segments) and t >= Fraction(self.segments[k + 1].t_start):
            k += 1
        while k > 0 and t < Fraction(self.segments[k].t_start):
            k -= 1
        seg = self.segments[k]
        return Fraction(seg.p_coeffs[0]), Fraction(seg.beta_coeffs[0])


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

    def mass_up_to(self, d: int) -> float:
        return math.fsum(self.c[: d + 1])

    def tail_mass(self, d: int) -> float:
        """Mass in sizes above d (the aggregate slot's initial value)."""
        return max(self.c_total - self.mass_up_to(d), 0.0)

    def truncated(self, d: int) -> np.ndarray:
        """Initial vector (c_0, ..., c_d, tail) of length d+2."""
        out = np.zeros(d + 2)
        m = min(d + 1, len(self.c))
        out[:m] = self.c[:m]
        out[d + 1] = self.tail_mass(d)
        return out


def sigma(schedule: Schedule, profile: InitialProfile, t):
    """Scaled total selection weight (1+beta(t))*t + c_weighted + c_total*beta(t)."""
    beta = schedule.beta_at(t)
    return (1.0 + beta) * np.asarray(t, dtype=float) + profile.c_weighted + profile.c_total * beta


@dataclass(frozen=True)
class TruncatedState:
    """Integer counts (Z_0, ..., Z_d, Zbar) after j of n steps.

    Zbar aggregates urns with more than d balls, so ball_total must be
    carried explicitly: it is B(0)+j, while the visible weight
    sum(i*Z_i) + (d+1)*Zbar is only a lower bound on it.
    """

    n: int
    j: int
    counts: tuple
    urn_total: int
    ball_total: int

    def __post_init__(self):
        if len(self.counts) < 2:
            raise ValueError("counts must hold at least (Z_0, Zbar)")
        if any(z < 0 for z in self.counts):
            raise ValueError("negative count")
        if sum(self.counts) != self.urn_total:
            raise ValueError("counts do not sum to urn_total")
        d = len(self.counts) - 2
        weight = sum(i * z for i, z in enumerate(self.counts[:-1])) + (d + 1) * self.counts[-1]
        if weight > self.ball_total:
            raise ValueError("visible weight exceeds ball_total")
        if not (0 <= self.j <= self.n):
            raise ValueError("step index out of range")

    @property
    def d(self) -> int:
        return len(self.counts) - 2

    def scaled(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.n


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
    p, beta, s = (np.asarray(x, dtype=float)[..., None] for x in (p, beta, s))
    z = np.asarray(z)
    d = z.shape[-1] - 2
    # In place, so that a call holds one law-sized array: the simulator
    # steps up to 10^6 replicas at once.  The ufunc lays the law out in z's
    # memory order (the simulator's counts are column-major); the last
    # column is computed only to keep that layout, and overwritten.
    law = np.multiply((1.0 - p) * (np.arange(d + 2) + beta), z)
    law /= s
    law[..., 0] += p[..., 0]
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
        if np.any(np.diff(times) <= 0):
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
        return np.clip(idx, 0, self.times.size - 2)

    def at(self, t) -> np.ndarray:
        """Linear interpolation; accepts scalars or arrays."""
        t = np.asarray(t, dtype=float)
        idx = self._segment_of(t)
        t0 = self.times[idx]
        dt = self.times[idx + 1] - t0
        w = ((t - t0) / dt)[..., None]
        return (1.0 - w) * self.values[idx] + w * self.values[idx + 1]

    def slope_at(self, t) -> np.ndarray:
        """Right-continuous segment derivative at t."""
        return self.slopes[self._segment_of(t)]


@dataclass(frozen=True)
class AdmissibilityReport:
    is_admissible: bool
    violations: tuple  # of (condition name, time, magnitude)

    def worst(self) -> float:
        return max((v[2] for v in self.violations), default=0.0)


def validate_path(path: Path, profile: InitialProfile, tol: float = PATH_TOL) -> AdmissibilityReport:
    """Check membership in the admissible deviation class at truncation d.

    Conditions, per linear piece (derivatives are constant there):
    start at the truncated profile; components nonnegative; cumulative
    slopes [v]_i in [0,1] for i <= d; slopes sum to 1; the total escape
    rate sum_i (1 - [v]_i) at most 1.
    """
    violations = []

    start = path.values[0]
    target = profile.truncated(path.d)
    err = float(np.abs(start - target).max())
    if err > tol:
        violations.append(("initial_value", 0.0, err))

    neg = path.values.min(axis=1)
    for k in np.nonzero(neg < -tol)[0]:
        violations.append(("nonnegative", float(path.times[k]), float(-neg[k])))

    v = path.slopes
    mids = 0.5 * (path.times[:-1] + path.times[1:])
    partial = np.cumsum(v, axis=1)  # [v]_i for i = 0..d+1

    inner = partial[:, : path.d + 1]
    low = inner.min(axis=1)
    high = inner.max(axis=1)
    for k in np.nonzero(low < -tol)[0]:
        violations.append(("cumulative_slope_lower", float(mids[k]), float(-low[k])))
    for k in np.nonzero(high > 1.0 + tol)[0]:
        violations.append(("cumulative_slope_upper", float(mids[k]), float(high[k] - 1.0)))

    total = partial[:, -1]
    terr = np.abs(total - 1.0)
    for k in np.nonzero(terr > tol)[0]:
        violations.append(("slope_sum", float(mids[k]), float(terr[k])))

    escape = (1.0 - inner).sum(axis=1)
    for k in np.nonzero(escape > 1.0 + tol)[0]:
        violations.append(("escape_rate", float(mids[k]), float(escape[k] - 1.0)))

    return AdmissibilityReport(not violations, tuple(violations))


def realize_initial(profile: InitialProfile, n: int, d: int | None = None,
                    seed_config=None) -> TruncatedState:
    """Discretize a profile into integer counts at scheme size n.

    Uses largest-remainder rounding of n*c_i so each scaled count is
    within 1/n of its target and the urn total matches round(n*c_total).
    seed_config (explicit counts) overrides the profile; it is required
    when the profile carries no mass, since the selection rule needs at
    least one urn at step 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if seed_config is not None:
        counts = tuple(int(z) for z in seed_config)
        if d is not None and len(counts) != d + 2:
            raise ValueError("seed_config length must be d+2")
        dd = len(counts) - 2
        urns = sum(counts)
        if urns < 1:
            raise ValueError("seed_config must contain at least one urn")
        balls = sum(i * z for i, z in enumerate(counts[:-1])) + (dd + 1) * counts[-1]
        return TruncatedState(n=n, j=0, counts=counts, urn_total=urns, ball_total=balls)

    if d is None:
        d = max(len(profile.c) - 1, 0)

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

    urns = int(base.sum())
    if urns < 1:
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
    return TruncatedState(n=n, j=0, counts=counts, urn_total=urns, ball_total=balls)


def resolve_initial(initial, n: int, d: int) -> TruncatedState:
    """The validated step-0 state at scheme size n for a TruncatedState, an
    InitialProfile (realized by realize_initial) or explicit counts
    (Z_0, ..., Z_d, Zbar)."""
    if isinstance(initial, TruncatedState):
        if initial.d != d:
            raise ValueError("initial state truncation does not match d")
        return TruncatedState(n=n, j=0, counts=initial.counts,
                              urn_total=initial.urn_total, ball_total=initial.ball_total)
    if isinstance(initial, InitialProfile):
        return realize_initial(initial, n, d=d)
    return realize_initial(InitialProfile.empty(), n, d=d, seed_config=initial)


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
    if "schedule" not in cfg:
        raise ValueError("config needs a 'schedule' list")
    specs = []
    for entry in cfg["schedule"]:
        extra = set(entry) - {"t_start", "p", "beta"}
        if extra:
            raise ValueError(f"unknown schedule keys: {sorted(extra)}")
        specs.append((entry["t_start"], entry["p"], entry["beta"]))
    schedule = Schedule.from_segments(specs)

    prof_cfg = cfg.get("profile", {})
    extra = set(prof_cfg) - {"c", "c_weighted"}
    if extra:
        raise ValueError(f"unknown profile keys: {sorted(extra)}")
    profile = InitialProfile.from_masses(prof_cfg.get("c", ()), prof_cfg.get("c_weighted"))

    seed_config = cfg.get("seed_config")
    if seed_config is not None:
        seed_config = tuple(int(z) for z in seed_config)
    return schedule, profile, seed_config
