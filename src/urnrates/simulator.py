"""Exact simulation of the truncated count chain and tube-probability estimates.

States move by one of d+2 increment vectors per step, drawn from the law
of model.transition_law.  One stepping loop serves every ensemble: it is
vectorized across independent replicas.  Every route evaluates the
schedule once per run on the lattice j/n, and draws from a single
generator seeded through numpy's SeedSequence, so results are
reproducible given (seed, num_samples).  The expanded loop and the single
run take the selection rates (1-p)(i+beta) (model.selection_rates) from
those values; the merged loop never reads them.

Terminal ensembles only need the histogram of final states, so the loop
starts merged: replicas in equal states advance together as one state
with a multiplicity, moved by one multinomial draw of transition_law,
and the result is the histogram (states, counts), the size of the
answer.  Once states are mostly distinct it expands to one column per
replica, each drawing its move by the cumulative inverse with the last
entry taken as complement.  Expanded, the counts are a float (d+2, R)
buffer, exact since they stay far below 2**53, one row per category.
The law is never normalized: uniforms u become thresholds (u - p)*s,
compared with the cumulative sums of the weights z_i (1-p)(i+beta), and
the comparison mask moves the counts by an int8 stencil.  The uniforms
are drawn a block of steps at a time under a fixed byte budget, the same
stream as one draw per step.
Paths never merge: a per-step observer sees every replica's counts, so
the history of run_ensemble_paths is recorded step by step and
the tube estimate keeps only a running per-replica sup of the L1
distance.  A single run walks its one replica in Python floats, stopping
at the first cumulative weight above its threshold; it makes the draws
of the one-replica ensemble, bit for bit, and is checked against it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (Path, Schedule, increments, resolve_initial, selection_rates,
                    transition_law)


@dataclass(frozen=True)
class SimRun:
    """One trajectory: the (n+1, d+2) integer counts for j = 0..n plus the
    scaled path."""

    counts: np.ndarray
    interpolated: Path


@dataclass(frozen=True)
class TubeQuery:
    """Sup-over-time L1 ball of given radius around a center path."""

    center: Path
    radius: float

    def __post_init__(self):
        if not self.radius > 0:  # NaN too
            raise ValueError("tube radius must be positive")


@dataclass(frozen=True)
class TubeEstimate:
    estimate: float
    stderr: float
    hits: int
    num_samples: int


# The merged phase ends once the distinct states outnumber this share of the
# replicas, where a multinomial and a sort per state cost more than one
# uniform per replica: on figure 1's schedule, on a 2-core x86-64 box, a
# merged step cost as much as an expanded one (0.19 ms at d = 5, 0.12 ms at
# d = 2, R = 10^4) at m/R = 0.01-0.015 and (0.32 ms at d = 30, R = 2000)
# near m/R = 0.03, and whole runs took the same time for every fraction
# from 0.005 to 0.05.  The value also fixes which draws a seed gives, so
# changing it changes same-seed histograms.
_EXPAND_FRACTION = 0.02
# The expanded loop draws its uniforms this many bytes at a time, a block of
# steps per call: the same stream as one call per step, without that call's
# fixed cost at small R, in memory that scales with R and not with n*R (one
# step per block from R = 2**17 on).
_UNIFORM_BLOCK_BYTES = 2**20
# A single run turns the lattice arrays and its uniforms into Python lists
# this many steps at a time, so they take memory that does not grow with n.
_WALK_BLOCK = 1024


def _tabulate(states, weights=None):
    """Distinct rows of states in lexicographic order and the total weight
    of each (one per row when weights is None).

    Every row holds the same number of urns, so Zbar is implied by
    Z_0..Z_d and the rows are sorted on those columns alone (lexsort's
    primary key is its last); equal rows then sit together, and each run
    of them starts where a row differs from the one before.
    """
    d = states.shape[1] - 2
    order = np.lexsort(states[:, d::-1].T)
    states = states[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], np.any(states[1:] != states[:-1], axis=1))))
    if weights is None:
        counts = np.diff(starts, append=len(states))
    else:
        counts = np.add.reduceat(weights[order], starts)
    return states[starts], counts


def _expand(states, mult):
    """Each row of states repeated mult times, as float columns: the
    (d+2, R) buffer of the expanded loop, one row of counts per category."""
    return np.repeat(states.T.astype(float), mult, axis=1)


def _cumulative_law(z, rates, out):
    """Left-to-right cumulative sums W_0..W_d of the weights z_i r_i for the
    (d+2, R) counts z, written into out (d+1, R); rates is the (d+1, 1)
    column of selection_rates for the step.  The weights are the products
    transition_law forms before it divides by s, so entry i of the law's
    cumulative inverse is drawn when W_{i-1} <= (u - p)*s < W_i; the
    complement, never read, is not formed."""
    np.multiply(z[:-1], rates, out=out)
    for i in range(1, len(out)):  # np.cumsum(axis=0) walks the strided columns
        out[i] += out[i - 1]
    return out


def _move(above, onehot, out):
    """The moves f[k] into the float (d+2, R) out, from the mask above, rows
    a_{-1} = 1 and a_i = [t >= W_i], 1 for i < k as W is nondecreasing: the
    stencil dz_0 = a_0, dz_i = a_{i-2} - 2 a_{i-1} + a_i (a_{d+1} := a_d),
    the difference of the one-hot rows e_i = a_{i-1} - a_i formed in the
    int8 (d+3, R) onehot between its fixed rows e_{-1} = 1, e_{d+1} = 0."""
    bits = above.view(np.int8)
    np.subtract(bits[:-1], bits[1:], out=onehot[1:-1])
    return np.subtract(onehot[:-1], onehot[1:], out=out)


def _prologue(n, d, schedule, initial, seed):
    """What every route of the chain starts from: the checked step-0 state,
    the schedule p, beta on the lattice j/n, the selection weights s before
    each step, and the seeded generator."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    state0 = resolve_initial(initial, n, d)
    steps = np.arange(n)
    p, beta = schedule.coefficients(steps / n)
    s = (state0.ball_total + steps) + beta * (state0.urn_total + steps)
    if s[0] <= 0.0:
        raise ValueError("selection weight is zero; configuration has no urns")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return state0, p, beta, s, rng


def _simulate(n, d, schedule, initial, num_samples, seed, observe=None):
    """The chain for num_samples independent replicas; returns the terminal
    histogram (states, counts), states sorted lexicographically.

    The law of the next state depends on the current one only through its
    counts, so replicas in equal states can move together: without an
    observer the loop starts merged, holding (distinct states,
    multiplicities) and drawing the moves out of each state as one
    Multinomial(multiplicity, law), which samples the histogram's law
    exactly.  It expands to one column per replica (_expand) once the
    distinct states outnumber _EXPAND_FRACTION of the replicas.  Expanded,
    each replica draws its move by the cumulative inverse of one uniform u,
    (u - p)*s against _cumulative_law, moved by _move, the uniforms drawn
    in blocks of steps (the same stream as one draw per step).
    observe(j, z) sees the float (d+2, num_samples) counts at j = 0 and
    after every step j.  z is the loop's own buffer, which the next step
    overwrites: an observer copies what it keeps and never writes to z.
    With an observer the loop never merges, so paths and their random
    stream do not depend on the merging.
    """
    if num_samples < 1:
        raise ValueError("need num_samples >= 1")
    state0, p, beta, s, rng = _prologue(n, d, schedule, initial, seed)
    f = increments(d)
    counts = np.asarray(state0.counts, dtype=np.int64)[None, :]
    mult = np.array([num_samples], dtype=np.int64)
    j = 0
    while observe is None and j < n and mult.size <= _EXPAND_FRACTION * num_samples:
        moves = rng.multinomial(mult, transition_law(p[j], beta[j], counts, s[j]))
        row, k = np.nonzero(moves)
        counts, mult = _tabulate(counts[row] + f[k], moves[row, k])
        j += 1
    if j == n:
        return counts, mult

    z = _expand(counts, mult)  # exact: counts stay far below 2**53
    rates = selection_rates(p, beta, d)[:, : d + 1, None]
    above = np.ones((d + 2, num_samples), dtype=bool)  # a_{-1} = 1, then t >= W_i
    onehot = np.zeros((d + 3, num_samples), dtype=np.int8)
    onehot[0] = 1  # see _move
    move = np.empty((d + 2, num_samples))
    cum = move[1:]  # compared before the move overwrites it
    per_block = max(1, _UNIFORM_BLOCK_BYTES // (8 * num_samples))
    if observe is not None:
        observe(0, z)
    for start in range(j, n, per_block):
        stop = min(start + per_block, n)
        thresholds = rng.random((stop - start, num_samples))
        thresholds -= p[start:stop, None]
        thresholds *= s[start:stop, None]
        for j, t in enumerate(thresholds, start):
            _cumulative_law(z, rates[j], out=cum)
            np.greater_equal(t, cum, out=above[1:])
            z += _move(above, onehot, out=move)
            if observe is not None:
                observe(j + 1, z)
    del above, onehot, move, cum, thresholds, t  # before _tabulate's sort buffers
    return _tabulate(z.T.astype(np.int64))


def _walk(n, d, schedule, initial, seed):
    """The (n+1, d+2) int64 history of one replica: the draws of
    run_ensemble_paths(..., 1, seed)[0], bit for bit, stepped in Python
    floats instead of one-element arrays.

    Each step forms the threshold t = (u - p)*s and the cumulative weights
    W_0 = z_0 r_0, W_i = W_{i-1} + z_i r_i by the operations of the column
    loop in the same order (a rounded sum does not depend on the order of
    its two terms), and takes the move k = the number of weights at or
    below t, which, W being nondecreasing, is the first i with t < W_i
    (d+1 if none): the walk stops there.  The uniforms are the column
    loop's stream, rng.random(block), and the thresholds and selection
    rates become lists one block of steps at a time, so memory stays that
    of the history.  Only the moves are recorded; the history is their
    increments summed in int64, which is exact.
    """
    state0, p, beta, s, rng = _prologue(n, d, schedule, initial, seed)
    f = increments(d)
    z = [float(x) for x in state0.counts]  # exact: counts stay far below 2**53
    moves = np.empty(n, dtype=np.intp)
    for start in range(0, n, _WALK_BLOCK):
        stop = min(start + _WALK_BLOCK, n)
        block = []
        rates = selection_rates(p[start:stop], beta[start:stop], d)[:, : d + 1]
        thresholds = (rng.random(stop - start) - p[start:stop]) * s[start:stop]
        for r, t in zip(rates.tolist(), thresholds.tolist()):
            c = 0.0
            for k in range(d + 1):
                c += z[k] * r[k]
                if t < c:
                    break
            else:
                k = d + 1
            block.append(k)
            if k == 0:
                z[1] += 1.0
            else:
                z[0] += 1.0
                if k <= d:
                    z[k] -= 1.0
                    z[k + 1] += 1.0
        moves[start:stop] = block
    history = np.empty((n + 1, d + 2), dtype=np.int64)
    history[0] = state0.counts
    np.take(f, moves, axis=0, out=history[1:])
    return np.cumsum(history, axis=0, out=history)


def run(n: int, d: int, schedule: Schedule, initial, seed: int) -> SimRun:
    """Simulate one trajectory of the truncated chain (the draws of the
    one-replica ensemble, by _walk).

    initial may be an InitialProfile, a TruncatedState, or explicit counts.
    """
    counts = _walk(n, d, schedule, initial, seed)
    counts.setflags(write=False)
    path = Path.from_knots(np.arange(n + 1) / n, counts / n)
    return SimRun(counts=counts, interpolated=path)


def run_ensemble_terminal(n, d, schedule, initial, num_samples, seed):
    """Terminal histogram of num_samples independent replicas: the distinct
    states (m, d+2) in lexicographic order and their counts (m,), which sum
    to num_samples."""
    return _simulate(n, d, schedule, initial, num_samples, seed)


def run_ensemble_paths(n, d, schedule, initial, num_samples, seed) -> np.ndarray:
    """Full count histories, shape (num_samples, n+1, d+2)."""
    history = None

    def record(j, z):
        nonlocal history
        if history is None:  # allocated once _simulate has checked n and d
            history = np.empty((num_samples, n + 1, d + 2), dtype=np.int64)
        history[:, j, :] = z.T  # exact: the float counts are integers

    _simulate(n, d, schedule, initial, num_samples, seed, observe=record)
    return history


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
    ref = center.at(np.arange(n + 1) / n)[:, :, None]  # (n+1, d+2, 1)
    sup = np.zeros(num_samples)
    dist = np.empty((d + 2, num_samples))

    def observe(j, z):
        np.divide(z, n, out=dist)
        np.subtract(dist, ref[j], out=dist)
        np.abs(dist, out=dist)
        np.maximum(sup, _row_sums(dist.T), out=sup)

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
