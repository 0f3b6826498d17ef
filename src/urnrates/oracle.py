"""Exact small-instance computations for verification.

The chain's law depends on states only through counts, so the terminal
distribution is enumerable in polynomial time for fixed d by merging
states layer by layer.  A marked variant additionally tracks the ball
count of one designated urn, which is what singles out events like "all
balls land in one chosen urn" (the count vector alone cannot: from two
empty urns that event has probability 2^-n while the corresponding
count event, either urn winning, has probability 2^(1-n)).

The enumeration runs on integer weights.  With p = P/Dp and beta = B/Db
at each step (Schedule.values_exact, exact on polynomial segments too),
each move's probability times Dp*(Db*balls + B*urns) is an integer, so a
layer holds integer numerators over one common denominator and every
terminal atom is divided once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import Schedule, resolve_initial

DEFAULT_MAX_N = 14
DEFAULT_MAX_D = 2


@dataclass(frozen=True)
class ExactDistribution:
    """Exact law of the terminal state.

    atoms maps a counts tuple (or (counts, marked_balls) for the marked chain)
    to its probability as a Fraction; as_floats gives the float law.
    """

    n: int
    d: int
    atoms: dict

    def total(self):
        return self.probability(lambda key: True)

    def probability(self, predicate):
        """Total probability of terminal keys satisfying predicate."""
        return sum((p for key, p in self.atoms.items() if predicate(key)), Fraction(0))

    def as_floats(self) -> dict:
        return {k: float(v) for k, v in self.atoms.items()}


def _steps(schedule, n, state0):
    """[(step, balls, s, total), ...] for steps j = 0..n-1.

    step = (P, Dp, B, Db) are the integers of p = P/Dp and beta = B/Db at
    t = j/n, balls is the ball total before the step, s = Db*balls +
    B*urns the selection weight times Db, and total = Dp*s what the
    weights of every state's moves sum to.
    """
    out = []
    for j in range(n):
        p, beta = schedule.values_exact(Fraction(j, n))
        step = (p.numerator, p.denominator, beta.numerator, beta.denominator)
        balls = state0.ball_total + j
        s = step[3] * balls + step[2] * (state0.urn_total + j)
        out.append((step, balls, s, step[1] * s))
    return out


def _count_weights(counts, step, balls, s):
    """[(next_counts, weight), ...] for the merged chain: each move's
    probability times Dp*s, zero weights left out (see _steps)."""
    P, Dp, B, Db = step
    q = Dp - P
    d = len(counts) - 2
    out = []
    # ball into the new urn or an existing empty urn: one more size-1 urn
    w = P * s + q * B * counts[0]
    if w:
        nxt = list(counts)
        nxt[1] += 1
        out.append((tuple(nxt), w))
    for i in range(1, d + 1):
        if counts[i] == 0:
            continue
        nxt = list(counts)
        nxt[0] += 1
        nxt[i] -= 1
        nxt[i + 1] += 1
        out.append((tuple(nxt), q * (Db * i + B) * counts[i]))
    # ball into an aggregated urn
    visible = sum(i * z for i, z in enumerate(counts[: d + 1]))
    w = q * (Db * (balls - visible) + B * counts[d + 1])
    if w:
        nxt = list(counts)
        nxt[0] += 1
        out.append((tuple(nxt), w))
    return out


def _marked_weights(key, step, balls, s):
    """Weighted moves of (counts, m), as _count_weights: counts include
    the marked urn, whose exact ball count m is tracked separately.  The
    other urns move by the count chain's weights, with the marked urn out
    of its slot but still in s, since it stays selectable."""
    counts, m = key
    P, Dp, B, Db = step
    d = len(counts) - 2
    slot = min(m, d + 1)
    others = list(counts)
    others[slot] -= 1
    out = []
    for nxt, w in _count_weights(tuple(others), step, balls - m, s):
        nxt = list(nxt)
        nxt[slot] += 1
        out.append(((tuple(nxt), m), w))
    # the marked urn gets the ball
    nxt = list(counts)
    nxt[0] += 1
    nxt[slot] -= 1
    nxt[min(m + 1, d + 1)] += 1
    out.append(((tuple(nxt), m + 1), (Dp - P) * (Db * m + B)))
    return out


def enumerate_exact(n: int, d: int, schedule: Schedule, initial, *,
                    marked: bool = False) -> ExactDistribution:
    """Exact terminal distribution of the truncated chain, in Fractions.

    Each layer holds integer numerators over the one denominator
    prod_j total_j, and a terminal atom is divided once.  With
    marked=True the state is (counts, marked_balls) for one designated
    urn that starts empty; the initial configuration must contain an
    empty urn to mark.  Every state's weights must sum to their total
    and the atoms to 1, or RuntimeError is raised.  n and d are held to
    DEFAULT_MAX_N and DEFAULT_MAX_D.
    """
    if n > DEFAULT_MAX_N or d > DEFAULT_MAX_D:
        raise ValueError(f"enumeration budget exceeded (n={n}, d={d}; allowed "
                         f"n<={DEFAULT_MAX_N}, d<={DEFAULT_MAX_D})")
    weigh = _marked_weights if marked else _count_weights

    state0 = resolve_initial(initial, n, d)
    if marked:
        if state0.counts[0] < 1:
            raise ValueError("marking requires an empty urn in the initial configuration")
        layer = {(state0.counts, 0): 1}
    else:
        layer = {state0.counts: 1}

    denom = 1
    for j, (step, balls, s, total) in enumerate(_steps(schedule, n, state0)):
        nxt_layer = {}
        for key, mass in layer.items():
            moves = weigh(key, step, balls, s)
            if sum(w for _, w in moves) != total:
                raise RuntimeError(f"move weights of {key} at step {j} do not sum "
                                   f"to their total {total}")
            for nxt, w in moves:
                nxt_layer[nxt] = nxt_layer.get(nxt, 0) + mass * w
        layer = nxt_layer
        denom *= total

    if sum(layer.values()) != denom:
        raise RuntimeError("terminal probabilities do not sum to 1")
    atoms = {key: Fraction(num, denom) for key, num in layer.items()}
    return ExactDistribution(n=n, d=d, atoms=atoms)


def enumerate_naive(n: int, d: int, schedule: Schedule, initial) -> ExactDistribution:
    """Brute-force tree over all (d+2)^n increment sequences (n <= 6).

    Exists only to cross-check the merged enumeration: each move's
    probability is a Fraction of its own.
    """
    if n > 6:
        raise ValueError("naive enumeration is capped at n = 6")
    state0 = resolve_initial(initial, n, d)
    steps = _steps(schedule, n, state0)
    atoms = {}

    def descend(counts, j, prob):
        if j == n:
            atoms[counts] = atoms.get(counts, 0) + prob
            return
        step, balls, s, total = steps[j]
        for nxt, w in _count_weights(counts, step, balls, s):
            descend(nxt, j + 1, prob * Fraction(w, total))

    descend(state0.counts, 0, Fraction(1))
    return ExactDistribution(n=n, d=d, atoms=atoms)


def star_probability(n: int, schedule: Schedule):
    """Probability that one designated initially-empty urn receives all n
    balls, from two empty urns at d = 2 (the marked chain)."""
    dist = enumerate_exact(n, 2, schedule, (2, 0, 0, 0), marked=True)
    return dist.probability(lambda key: key[1] == n)


def straight_road_probability(n: int, schedule: Schedule):
    """Probability that every ball lands in a previously empty urn, from
    two empty urns at d = 2."""
    dist = enumerate_exact(n, 2, schedule, (2, 0, 0, 0))
    return dist.probability(lambda counts: counts[1] == n)


@dataclass(frozen=True)
class EmpiricalRate:
    """-(1/n) log P_n along the n list, with a Richardson-style trend readout."""

    rates: tuple
    extrapolated: float
    increasing: bool
    diverging: bool


def rate_readout(n_list, probs) -> EmpiricalRate:
    """Finite-size rate readout of exact probabilities P_n, one per n in
    n_list: the rates -(1/n) log P_n, the last term of their Richardson
    sequence and whether they increase and diverge."""
    rates = [-math.log(pnf) / n if pnf > 0 else math.inf
             for n, pnf in zip(n_list, probs)]
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
        rates=tuple(rates),
        extrapolated=extrap[-1] if extrap else (rates[-1] if rates else math.nan),
        increasing=increasing,
        diverging=diverging,
    )
