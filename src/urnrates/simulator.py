"""Exact simulation of the truncated count chain and tube-probability estimates.

States move by one of d+2 increment vectors per step, drawn from
model.transition_law by the cumulative inverse with the last entry taken
as complement.  One stepping loop serves every routine: it is vectorized
across independent replicas, evaluates the schedule once on the lattice
j/n, and draws from a single generator seeded through numpy's
SeedSequence, so results are reproducible given (seed, num_samples).  A
single run is the one-replica ensemble.
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


def _simulate(n, d, schedule, initial, num_samples, seed, keep_paths):
    """The chain for num_samples independent replicas: terminal counts
    (num_samples, d+2) and, if keep_paths, the count history
    (num_samples, n+1, d+2)."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    state0 = resolve_initial(initial, n, d)
    steps = np.arange(n)
    p = schedule.p_at(steps / n)
    beta = schedule.beta_at(steps / n)
    s = (state0.ball_total + steps) + beta * (state0.urn_total + steps)
    if s[0] <= 0.0:
        raise ValueError("selection weight is zero; configuration has no urns")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    f = increments(d)
    counts = np.tile(np.asarray(state0.counts, dtype=np.int64), (num_samples, 1))
    history = None
    if keep_paths:
        history = np.empty((num_samples, n + 1, d + 2), dtype=np.int64)
        history[:, 0, :] = counts
    for j in range(n):
        cum = transition_law(p[j], beta[j], counts, s[j])[:, : d + 1]
        np.cumsum(cum, axis=1, out=cum)  # in place: one law-sized array per step
        u = rng.random(num_samples)
        k = (u[:, None] >= cum).sum(axis=1)  # in 0..d+1, complement last
        counts += f[k]
        if keep_paths:
            history[:, j + 1, :] = counts
    return counts, history


def run(n: int, d: int, schedule: Schedule, initial, seed: int) -> SimRun:
    """Simulate one trajectory of the truncated chain (the one-replica ensemble).

    initial may be an InitialProfile, a TruncatedState, or explicit counts.
    """
    _, history = _simulate(n, d, schedule, initial, 1, seed, keep_paths=True)
    counts = history[0]
    counts.setflags(write=False)
    path = Path.from_knots(np.arange(n + 1) / n, counts / n)
    return SimRun(seed=seed, counts=counts, interpolated=path)


def run_ensemble_terminal(n, d, schedule, initial, num_samples, seed) -> np.ndarray:
    """Terminal counts for num_samples independent replicas, shape (R, d+2)."""
    terminal, _ = _simulate(n, d, schedule, initial, num_samples, seed, keep_paths=False)
    return terminal


def run_ensemble_paths(n, d, schedule, initial, num_samples, seed) -> np.ndarray:
    """Full count histories, shape (num_samples, n+1, d+2)."""
    _, history = _simulate(n, d, schedule, initial, num_samples, seed, keep_paths=True)
    return history


def sup_l1_distance(history: np.ndarray, center: Path, n: int) -> np.ndarray:
    """Per-replica sup over lattice times of the L1 distance to the center.

    The sup is taken at the knots j/n only; for unit-Lipschitz paths this
    undershoots the continuous-time sup by at most 2/n.
    """
    times = np.arange(n + 1) / n
    ref = center.at(times)  # (n+1, d+2)
    scaled = history / n
    return np.abs(scaled - ref[None, :, :]).sum(axis=2).max(axis=1)


def estimate_tube_probability(query: TubeQuery, n: int, d: int, schedule: Schedule,
                              initial, num_samples: int, seed: int) -> TubeEstimate:
    """Monte Carlo probability that the scaled path stays in the tube."""
    if num_samples < 1:
        raise ValueError("need num_samples >= 1")
    if query.center.d != d:
        raise ValueError("center path truncation does not match d")
    history = run_ensemble_paths(n, d, schedule, initial, num_samples, seed)
    dist = sup_l1_distance(history, query.center, n)
    hits = int((dist <= query.radius).sum())
    est = hits / num_samples
    stderr = float(np.sqrt(est * (1.0 - est) / num_samples))
    return TubeEstimate(estimate=est, stderr=stderr, hits=hits, num_samples=num_samples)
