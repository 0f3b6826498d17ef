"""Exact simulation of the truncated count chain and tube-probability estimates.

States move by one of d+2 increment vectors per step, drawn from
model.transition_law.  One stepping loop serves every routine: it is
vectorized across independent replicas, evaluates the schedule once on
the lattice j/n, and draws from a single generator seeded through numpy's
SeedSequence, so results are reproducible given (seed, num_samples).

Terminal ensembles only need the histogram of final states, so the loop
starts merged: replicas in equal states advance together as one state
with a multiplicity, moved by one multinomial draw, and the result is
the histogram (states, counts), the size of the answer.  Once states are
mostly distinct it expands to one row per replica, each drawing its move
by the cumulative inverse with the last entry taken as complement.
Expanded, the replica counts are column-major (a Fortran-ordered
(R, d+2) array): each category's counts are contiguous, so the law, the
cumulative sums and the update of a step run over unit strides.  Callers
and observers see the same logical (R, d+2) rows.
Paths never merge: a per-step observer sees every replica's counts, so
the history of run and run_ensemble_paths is recorded step by step and
the tube estimate keeps only a running per-replica sup of the L1
distance.  A single run is the one-replica ensemble.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Path, Schedule, increments, resolve_initial, transition_law


@dataclass(frozen=True)
class SimRun:
    """One trajectory: the (n+1, d+2) integer counts for j = 0..n plus the
    scaled path."""

    seed: int
    counts: np.ndarray
    interpolated: Path


@dataclass(frozen=True)
class TubeQuery:
    """Sup-over-time L1 ball of given radius around a center path."""

    center: Path
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("tube radius must be positive")


@dataclass(frozen=True)
class TubeEstimate:
    estimate: float
    stderr: float
    hits: int
    num_samples: int


# The merged phase ends once the distinct states outnumber this share of the
# replicas: a multinomial per state costs more than one uniform per replica
# (at R=10^4 with every state distinct, figure-1 schedule, d=5, a merged
# step took 4.5 ms against 0.51 ms for the column-major cumulative-inverse
# draw on a 2-core x86-64 box, so the two break even near 0.11).  The value
# also fixes which draws a seed gives, so changing it changes same-seed
# histograms.
_EXPAND_FRACTION = 0.25
# Packed keys are int64 and below (urns+1)**(d+1).
_KEY_LIMIT = 2**62


def _key_fits(urns: int, d: int) -> bool:
    """Whether states holding this many urns have a packed int64 key."""
    return (urns + 1) ** (d + 1) <= _KEY_LIMIT


def _tabulate(states, weights=None):
    """Distinct rows of states in lexicographic order and the total weight
    of each (one per row when weights is None).

    Every row holds the same number of urns U, so Zbar is implied by Z_0..Z_d
    and the rows pack without collision into the mixed-radix key
    sum_i Z_i (U+1)^(d-i), whose order is the lexicographic one; when that
    key cannot fit in int64 the rows are compared whole.
    """
    d = states.shape[1] - 2
    urns = int(states[0].sum())
    if _key_fits(urns, d):
        radix = (urns + 1) ** np.arange(d, -1, -1, dtype=np.int64)
        _, first, inverse = np.unique(states[:, : d + 1] @ radix,
                                      return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(states, axis=0, return_index=True,
                                      return_inverse=True)
    counts = np.bincount(inverse.ravel(), weights=weights, minlength=first.size)
    return states[first], counts.astype(np.int64)


def _expand(states, mult):
    """Each row of states repeated mult times, column-major: the counts of
    one category are contiguous, so the per-category steps of the expanded
    loop run over unit strides."""
    return np.repeat(states.T, mult, axis=1).T


def _simulate(n, d, schedule, initial, num_samples, seed, observe=None):
    """The chain for num_samples independent replicas; returns the terminal
    histogram (states, counts), states sorted lexicographically.

    The law of the next state depends on the current one only through its
    counts, so replicas in equal states can move together: without an
    observer the loop starts merged, holding (distinct states,
    multiplicities) and drawing the moves out of each state as one
    Multinomial(multiplicity, law), which samples the histogram's law
    exactly.  It expands to one row per replica (_expand, column-major)
    once the distinct states outnumber _EXPAND_FRACTION of the replicas, or
    before a step after which packed keys could overflow.  Expanded, each
    replica draws its move by the cumulative inverse of one uniform.
    observe(j, counts) sees the (num_samples, d+2) rows at j = 0 and after
    every step j; the rows are overwritten by the next step.  With an
    observer the loop never merges, so paths and their random stream do not
    depend on the merging.
    """
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    if num_samples < 1:
        raise ValueError("need num_samples >= 1")
    state0 = resolve_initial(initial, n, d)
    steps = np.arange(n)
    p = schedule.p_at(steps / n)
    beta = schedule.beta_at(steps / n)
    s = (state0.ball_total + steps) + beta * (state0.urn_total + steps)
    if s[0] <= 0.0:
        raise ValueError("selection weight is zero; configuration has no urns")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    f = increments(d)
    by_count = f.T  # row i: the change of Z_i under each increment
    counts = np.asarray(state0.counts, dtype=np.int64)[None, :]
    urns = int(counts.sum())
    mult = np.array([num_samples], dtype=np.int64)
    if observe is not None:
        counts, mult = _expand(counts, mult), None
        observe(0, counts)
    for j in range(n):
        if mult is not None and (mult.size > _EXPAND_FRACTION * num_samples
                                 or not _key_fits(urns + j + 1, d)):
            counts, mult = _expand(counts, mult), None
        law = transition_law(p[j], beta[j], counts, s[j])
        if mult is None:
            cum = law[:, : d + 1]
            for i in range(1, d + 1):  # np.cumsum would walk the strided rows
                cum[:, i] += cum[:, i - 1]
            u = rng.random(num_samples)
            k = (u[:, None] >= cum).sum(axis=1)  # in 0..d+1, complement last
            counts += np.take(by_count, k, axis=1).T
        else:
            moves = rng.multinomial(mult, law)
            row, k = np.nonzero(moves)
            counts, mult = _tabulate(counts[row] + f[k], moves[row, k])
        if observe is not None:
            observe(j + 1, counts)
    return (counts, mult) if mult is not None else _tabulate(counts)


def run(n: int, d: int, schedule: Schedule, initial, seed: int) -> SimRun:
    """Simulate one trajectory of the truncated chain (the one-replica ensemble).

    initial may be an InitialProfile, a TruncatedState, or explicit counts.
    """
    counts = _history(n, d, schedule, initial, 1, seed)[0]
    counts.setflags(write=False)
    path = Path.from_knots(np.arange(n + 1) / n, counts / n)
    return SimRun(seed=seed, counts=counts, interpolated=path)


def run_ensemble_terminal(n, d, schedule, initial, num_samples, seed):
    """Terminal histogram of num_samples independent replicas: the distinct
    states (m, d+2) in lexicographic order and their counts (m,), which sum
    to num_samples."""
    return _simulate(n, d, schedule, initial, num_samples, seed)


def _history(n, d, schedule, initial, num_samples, seed) -> np.ndarray:
    history = None

    def record(j, counts):
        nonlocal history
        if history is None:  # allocated once _simulate has checked n and d
            history = np.empty((num_samples, n + 1, d + 2), dtype=np.int64)
        history[:, j, :] = counts

    _simulate(n, d, schedule, initial, num_samples, seed, observe=record)
    return history


def run_ensemble_paths(n, d, schedule, initial, num_samples, seed) -> np.ndarray:
    """Full count histories, shape (num_samples, n+1, d+2)."""
    return _history(n, d, schedule, initial, num_samples, seed)


def sup_l1_distance(history: np.ndarray, center: Path, n: int) -> np.ndarray:
    """Per-replica sup over lattice times of the L1 distance to the center.

    The sup is taken at the knots j/n only; for unit-Lipschitz paths this
    undershoots the continuous-time sup by at most 2/n.
    """
    times = np.arange(n + 1) / n
    ref = center.at(times)  # (n+1, d+2)
    scaled = history / n
    return _row_sums(np.abs(scaled - ref[None, :, :])).max(axis=1)


def _row_sums(x):
    """Sums over the last axis, added column by column from the left, the
    same order for any memory layout (numpy's sum pairs the terms of
    contiguous rows, but not of strided ones), so that the history and the
    streamed distance agree bit for bit."""
    total = x[..., 0].copy()
    for i in range(1, x.shape[-1]):
        total += x[..., i]
    return total


def ensemble_sup_l1_distance(center: Path, n: int, d: int, schedule: Schedule,
                             initial, num_samples: int, seed: int) -> np.ndarray:
    """Per-replica sup over lattice times of the L1 distance to the center,
    kept as a running maximum while the replicas step: the values of
    sup_l1_distance(run_ensemble_paths(...), center, n), bit for bit, in
    O(num_samples * d) memory instead of the whole history."""
    if center.d != d:
        raise ValueError("center path truncation does not match d")
    ref = center.at(np.arange(n + 1) / n)  # (n+1, d+2)
    sup = np.zeros(num_samples)

    def observe(j, counts):
        np.maximum(sup, _row_sums(np.abs(counts / n - ref[j])), out=sup)

    _simulate(n, d, schedule, initial, num_samples, seed, observe=observe)
    return sup


def estimate_tube_probability(query: TubeQuery, n: int, d: int, schedule: Schedule,
                              initial, num_samples: int, seed: int) -> TubeEstimate:
    """Monte Carlo probability that the scaled path stays in the tube."""
    dist = ensemble_sup_l1_distance(query.center, n, d, schedule, initial,
                                    num_samples, seed)
    hits = int((dist <= query.radius).sum())
    est = hits / num_samples
    stderr = float(np.sqrt(est * (1.0 - est) / num_samples))
    return TubeEstimate(estimate=est, stderr=stderr, hits=hits, num_samples=num_samples)
