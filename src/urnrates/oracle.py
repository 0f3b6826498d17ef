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
from .simulator import run_ensemble_terminal

DEFAULT_MAX_N = 14
DEFAULT_MAX_D = 2


@dataclass(frozen=True)
class ExactDistribution:
    """Exact law of the terminal state.

    atoms maps a counts tuple (or (counts, marked_balls) when marked)
    to its probability as a Fraction; as_floats gives the float law.
    """

    n: int
    d: int
    atoms: dict
    marked: bool = False

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


def _check_budget(n, d, max_n, max_d):
    if n > max_n or d > max_d:
        raise ValueError(
            f"enumeration budget exceeded (n={n}, d={d}; allowed n<={max_n}, d<={max_d}); "
            "reduce n or d, or raise max_n/max_d explicitly"
        )


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


def enumerate_exact(n: int, d: int, schedule: Schedule, initial, *, marked: bool = False,
                    max_n: int = DEFAULT_MAX_N, max_d: int = DEFAULT_MAX_D) -> ExactDistribution:
    """Exact terminal distribution of the truncated chain, in Fractions.

    Each layer holds integer numerators over the one denominator
    prod_j total_j, and a terminal atom is divided once.  With
    marked=True the state is (counts, marked_balls) for one designated
    urn that starts empty; the initial configuration must contain an
    empty urn to mark.  Every state's weights must sum to their total
    and the atoms to 1, or RuntimeError is raised.
    """
    _check_budget(n, d, max_n, max_d)
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
    return ExactDistribution(n=n, d=d, atoms=atoms, marked=marked)


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
    return ExactDistribution(n=n, d=d, atoms=atoms, marked=False)


def _named_event(event, d):
    """(marked, predicate(key, n)) for a terminal event: "star" (one
    designated initially-empty urn receives all n balls) on the marked
    chain, "straight-road" (every ball lands in a previously empty urn)
    or a predicate on terminal counts on the count chain."""
    if event == "star":
        return True, lambda key, n: key[1] == n
    if event in ("straight-road", "straight_road"):
        if d < 1:
            raise ValueError("straight-road event needs d >= 1")
        return False, lambda counts, n: counts[1] == n
    if callable(event):
        return False, event
    raise ValueError(f"unknown event {event!r}")


def star_probability(n: int, schedule: Schedule, initial=(2, 0, 0, 0),
                     d: int = 2):
    """Probability that one designated initially-empty urn receives all n balls."""
    marked, predicate = _named_event("star", d)
    return enumerate_exact(n, d, schedule, initial, marked=marked).probability(
        lambda key: predicate(key, n))


def straight_road_probability(n: int, schedule: Schedule, initial=(2, 0, 0, 0),
                              d: int = 2):
    """Probability that every ball lands in a previously empty urn."""
    marked, predicate = _named_event("straight-road", d)
    return enumerate_exact(n, d, schedule, initial, marked=marked).probability(
        lambda key: predicate(key, n))


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
    marked, predicate = _named_event(event, d)
    probs, stderrs = [], []
    for n in n_list:
        if method == "exact":
            dist = enumerate_exact(n, d, schedule, initial, marked=marked, max_n=max_n)
            pnf = float(dist.probability(lambda key: predicate(key, n)))
            stderrs.append(0.0)
        elif method == "mc":
            if marked:
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
    return rate_readout(n_list, probs, stderrs)


def rate_readout(n_list, probs, stderrs=None) -> EmpiricalRate:
    """The readout of empirical_rate on given probabilities P_n, one per n
    in n_list: the rates -(1/n) log P_n, their Richardson sequence and
    whether they increase and diverge.  stderrs defaults to zeros (exact
    probabilities)."""
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
        n_values=tuple(n_list),
        probabilities=tuple(probs),
        rates=tuple(rates),
        extrapolated=extrap[-1] if extrap else (rates[-1] if rates else math.nan),
        extrapolation_sequence=tuple(extrap),
        increasing=increasing,
        diverging=diverging,
        stderrs=tuple([0.0] * len(probs) if stderrs is None else stderrs),
    )
