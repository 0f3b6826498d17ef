"""Exact small-instance computations for verification.

The chain's law depends on states only through counts, so the terminal
distribution is enumerable in polynomial time for fixed d by merging
states layer by layer.  A marked variant additionally tracks the ball
count of one designated urn, which is what singles out events like "all
balls land in one chosen urn" (the count vector alone cannot: from two
empty urns that event has probability 2^-n while the corresponding
count event, either urn winning, has probability 2^(1-n)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import Schedule, resolve_initial
from .simulator import run_ensemble_terminal

DEFAULT_MAX_N = 14
DEFAULT_MAX_D = 2


@dataclass(frozen=True)
class ExactDistribution:
    """Exact law of the terminal state.

    atoms maps a counts tuple (or (counts, marked_balls) when marked)
    to its probability, as Fraction in rational mode or float otherwise.
    """

    n: int
    d: int
    atoms: dict
    marked: bool = False

    def total(self):
        vals = list(self.atoms.values())
        if vals and isinstance(vals[0], Fraction):
            return sum(vals, Fraction(0))
        return math.fsum(vals)

    def probability(self, predicate):
        """Total probability of terminal keys satisfying predicate."""
        sel = [p for key, p in self.atoms.items() if predicate(key)]
        if sel and isinstance(sel[0], Fraction):
            return sum(sel, Fraction(0))
        return math.fsum(sel)

    def as_floats(self) -> dict:
        return {k: float(v) for k, v in self.atoms.items()}


def _params_at(schedule, j, n, rational):
    if rational:
        return schedule.values_exact(Fraction(j, n))
    t = j / n
    return float(schedule.p_at(t)), float(schedule.beta_at(t))


def _check_budget(n, d, max_n, max_d):
    if n > max_n or d > max_d:
        raise ValueError(
            f"enumeration budget exceeded (n={n}, d={d}; allowed n<={max_n}, d<={max_d}); "
            "reduce n or d, or raise max_n/max_d explicitly"
        )


def _count_transitions(counts, p, beta, s, one):
    """[(next_counts, prob), ...] for the merged chain; prob type follows inputs."""
    d = len(counts) - 2
    out = []
    used = 0 * one
    # ball into the new urn or an existing empty urn: one more size-1 urn
    pr = p + (1 - p) * beta * counts[0] / s
    if pr != 0:
        nxt = list(counts)
        nxt[1] += 1
        out.append((tuple(nxt), pr))
    used += pr
    for i in range(1, d + 1):
        if counts[i] == 0:
            continue
        pr = (1 - p) * (i + beta) * counts[i] / s
        nxt = list(counts)
        nxt[0] += 1
        nxt[i] -= 1
        nxt[i + 1] += 1
        out.append((tuple(nxt), pr))
        used += pr
    pr = 1 - used  # aggregated urns, as complement
    if pr < 0:
        pr = 0 * one  # float round-off only; exact in rational mode
    if pr != 0:
        nxt = list(counts)
        nxt[0] += 1
        out.append((tuple(nxt), pr))
    return out


def _marked_transitions(key, p, beta, s, balls, one):
    """Transitions for (counts, m): counts include the marked urn, whose
    exact ball count m is tracked separately."""
    counts, m = key
    d = len(counts) - 2
    slot = min(m, d + 1)
    out = []

    # new urn gets the ball
    if p != 0:
        nxt = list(counts)
        nxt[1] += 1
        out.append(((tuple(nxt), m), p))

    # marked urn gets the ball
    pr = (1 - p) * (m + beta) / s
    nxt = list(counts)
    nxt[0] += 1
    nxt[min(m, d + 1)] -= 1
    nxt[min(m + 1, d + 1)] += 1
    out.append(((tuple(nxt), m + 1), pr))

    # some other urn of visible size i gets the ball
    for i in range(0, d + 1):
        others = counts[i] - (1 if slot == i else 0)
        if others == 0:
            continue
        pr = (1 - p) * (i + beta) * others / s
        nxt = list(counts)
        nxt[0] += 1
        nxt[i] -= 1
        nxt[i + 1] += 1
        out.append(((tuple(nxt), m), pr))

    # some other aggregated urn gets the ball
    visible = sum(i * z for i, z in enumerate(counts[: d + 1]))
    agg_balls = balls - visible - (m if m > d else 0)
    agg_urns = counts[d + 1] - (1 if m > d else 0)
    pr = (1 - p) * (agg_balls + beta * agg_urns) / s
    if pr != 0:
        nxt = list(counts)
        nxt[0] += 1
        out.append(((tuple(nxt), m), pr))
    return out


def enumerate_exact(n: int, d: int, schedule: Schedule, initial,
                    mode: str = "rational", marked: bool = False,
                    max_n: int = DEFAULT_MAX_N, max_d: int = DEFAULT_MAX_D) -> ExactDistribution:
    """Exact terminal distribution of the truncated chain.

    mode "rational" keeps Fraction probabilities (schedule values must be
    piecewise constant); "float" uses doubles.  With marked=True the state
    is (counts, marked_balls) for one designated urn that starts empty;
    the initial configuration must contain an empty urn to mark.
    """
    _check_budget(n, d, max_n, max_d)
    if mode not in ("rational", "float"):
        raise ValueError("mode must be 'rational' or 'float'")
    rational = mode == "rational"
    one = Fraction(1) if rational else 1.0

    state0 = resolve_initial(initial, n, d)
    counts0, urns0, balls0 = state0.counts, state0.urn_total, state0.ball_total
    if marked:
        if counts0[0] < 1:
            raise ValueError("marking requires an empty urn in the initial configuration")
        layer = {(counts0, 0): one}
    else:
        layer = {counts0: one}

    for j in range(n):
        p, beta = _params_at(schedule, j, n, rational)
        balls = balls0 + j
        s = balls + beta * (urns0 + j)
        nxt_layer = {}
        for key, prob in layer.items():
            if marked:
                moves = _marked_transitions(key, p, beta, s, balls, one)
            else:
                moves = _count_transitions(key, p, beta, s, one)
            if rational:
                assert sum(pr for _, pr in moves) == 1
            for nxt, pr in moves:
                w = prob * pr
                if w != 0:
                    nxt_layer[nxt] = nxt_layer.get(nxt, 0 * one) + w
        layer = nxt_layer

    dist = ExactDistribution(n=n, d=d, atoms=layer, marked=marked)
    if rational:
        assert dist.total() == 1
    return dist


def enumerate_naive(n: int, d: int, schedule: Schedule, initial,
                    mode: str = "float") -> ExactDistribution:
    """Brute-force tree over all (d+2)^n increment sequences (n <= 6).

    Exists only to cross-check the merged enumeration.
    """
    if n > 6:
        raise ValueError("naive enumeration is capped at n = 6")
    rational = mode == "rational"
    one = Fraction(1) if rational else 1.0
    state0 = resolve_initial(initial, n, d)
    counts0, urns0, balls0 = state0.counts, state0.urn_total, state0.ball_total
    atoms = {}

    def descend(counts, j, prob):
        if j == n:
            atoms[counts] = atoms.get(counts, 0 * one) + prob
            return
        p, beta = _params_at(schedule, j, n, rational)
        s = (balls0 + j) + beta * (urns0 + j)
        for nxt, pr in _count_transitions(counts, p, beta, s, one):
            descend(nxt, j + 1, prob * pr)

    descend(counts0, 0, one)
    return ExactDistribution(n=n, d=d, atoms=atoms, marked=False)


def laplace_functional(n: int, d: int, schedule: Schedule, initial, h,
                       method: str = "backward",
                       max_n: int = DEFAULT_MAX_N, max_d: int = DEFAULT_MAX_D) -> float:
    """-(1/n) log E[exp(-n h(terminal counts / n))], computed exactly.

    "backward" runs the dynamic-programming recursion over merged states;
    "forward" sums exp(-n h) against the enumerated terminal law.  The two
    routes are independent and agree to float precision.
    """
    _check_budget(n, d, max_n, max_d)
    state0 = resolve_initial(initial, n, d)
    counts0, urns0, balls0 = state0.counts, state0.urn_total, state0.ball_total

    if method == "forward":
        dist = enumerate_exact(n, d, schedule, counts0, mode="float",
                               max_n=max_n, max_d=max_d)
        total = math.fsum(
            p * math.exp(-n * float(h(np.asarray(key, dtype=float) / n)))
            for key, p in dist.atoms.items()
        )
        return -math.log(total) / n
    if method != "backward":
        raise ValueError("method must be 'backward' or 'forward'")

    # forward reachability, then the backward value sweep
    layers = [{counts0}]
    for j in range(n):
        p, beta = _params_at(schedule, j, n, False)
        s = (balls0 + j) + beta * (urns0 + j)
        reach = set()
        for counts in layers[-1]:
            for nxt, pr in _count_transitions(counts, p, beta, s, 1.0):
                if pr > 0:
                    reach.add(nxt)
        layers.append(reach)

    value = {
        counts: math.exp(-n * float(h(np.asarray(counts, dtype=float) / n)))
        for counts in layers[n]
    }
    for j in range(n - 1, -1, -1):
        p, beta = _params_at(schedule, j, n, False)
        s = (balls0 + j) + beta * (urns0 + j)
        value = {
            counts: math.fsum(pr * value[nxt]
                              for nxt, pr in _count_transitions(counts, p, beta, s, 1.0)
                              if pr > 0)
            for counts in layers[j]
        }
    return -math.log(value[counts0]) / n


def star_probability(n: int, schedule: Schedule, initial=(2, 0, 0, 0),
                     d: int = 2, mode: str = "rational"):
    """Probability that one designated initially-empty urn receives all n balls."""
    dist = enumerate_exact(n, d, schedule, initial, mode=mode, marked=True)
    return dist.probability(lambda key: key[1] == n)


def straight_road_probability(n: int, schedule: Schedule, initial=(2, 0, 0, 0),
                              d: int = 2, mode: str = "rational"):
    """Probability that every ball lands in a previously empty urn."""
    if d < 1:
        raise ValueError("straight-road event needs d >= 1")
    dist = enumerate_exact(n, d, schedule, initial, mode=mode)
    return dist.probability(lambda counts: counts[1] == n)


@dataclass(frozen=True)
class EmpiricalRate:
    """-(1/n) log P_n along n_list, with a Richardson-style trend readout."""

    n_values: tuple
    probabilities: tuple
    rates: tuple
    extrapolated: float
    extrapolation_sequence: tuple
    increasing: bool
    diverging: bool
    stderrs: tuple = ()


def _named_event(event, d):
    if event == "star":
        return "marked", lambda key, n: key[1] == n
    if event in ("straight-road", "straight_road"):
        if d < 1:
            raise ValueError("straight-road event needs d >= 1")
        return "counts", lambda counts, n: counts[1] == n
    if callable(event):
        return "counts", event
    raise ValueError(f"unknown event {event!r}")


def empirical_rate(event, n_list, schedule: Schedule, initial=(2, 0, 0, 0),
                   d: int = 2, method: str = "exact",
                   num_samples: int = 100_000, seed: int = 0,
                   max_n: int = DEFAULT_MAX_N) -> EmpiricalRate:
    """Finite-size rate readout -(1/n) log P_n for a terminal event.

    event is "star", "straight-road", or a predicate on terminal counts.
    method "exact" enumerates; "mc" estimates by simulation and reports
    binomial standard errors (zero hits give a one-sided lower bound via
    the rule of three).
    """
    kind, predicate = _named_event(event, d)
    probs, rates, stderrs = [], [], []
    for n in n_list:
        if method == "exact":
            dist = enumerate_exact(n, d, schedule, initial, mode="rational",
                                   marked=(kind == "marked"), max_n=max_n)
            if kind == "marked":
                pn = dist.probability(lambda key: predicate(key, n))
            else:
                pn = dist.probability(lambda counts: predicate(counts, n))
            pnf = float(pn)
            stderrs.append(0.0)
        elif method == "mc":
            if kind == "marked":
                raise ValueError("mc mode supports count events only")
            states, counts = run_ensemble_terminal(n, d, schedule, initial,
                                                   num_samples, seed + n)
            hits = sum(int(c) for row, c in zip(states, counts)
                       if predicate(tuple(int(z) for z in row), n))
            if hits == 0:
                # rule of three: P <= 3/num_samples at 95%
                pnf = 3.0 / num_samples
                stderrs.append(float("nan"))
            else:
                pnf = hits / num_samples
                stderrs.append(math.sqrt(pnf * (1 - pnf) / num_samples))
        else:
            raise ValueError("method must be 'exact' or 'mc'")
        probs.append(pnf)
        rates.append(-math.log(pnf) / n if pnf > 0 else math.inf)

    # Richardson step under the model r_n = r_inf + a/n
    extrap = []
    for (n0, r0), (n1, r1) in zip(zip(n_list, rates), list(zip(n_list, rates))[1:]):
        if math.isinf(r0) or math.isinf(r1):
            extrap.append(math.inf)
        else:
            extrap.append((n1 * r1 - n0 * r0) / (n1 - n0))
    increasing = all(b > a for a, b in zip(rates, rates[1:]))
    diverging = increasing and len(extrap) >= 2 and all(
        b > a for a, b in zip(extrap, extrap[1:])
    )
    return EmpiricalRate(
        n_values=tuple(n_list),
        probabilities=tuple(probs),
        rates=tuple(rates),
        extrapolated=extrap[-1] if extrap else (rates[-1] if rates else math.nan),
        extrapolation_sequence=tuple(extrap),
        increasing=increasing,
        diverging=diverging,
        stderrs=tuple(stderrs),
    )
