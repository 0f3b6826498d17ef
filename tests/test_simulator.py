from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from urnrates.model import InitialProfile, Schedule, TruncatedState, increments, transition_law
from urnrates.oracle import _count_transitions, enumerate_exact
from urnrates.simulator import (
    TubeQuery,
    estimate_tube_probability,
    run,
    run_ensemble_paths,
    run_ensemble_terminal,
    sup_l1_distance,
)

CLASSICAL = Schedule.constant(0.0, 1.0)
SEED2 = (2, 0, 0, 0)


def test_transition_law_two_empty_urns():
    # s = balls + beta*urns = 0 + 1*2
    probs = transition_law(0.0, 1.0, SEED2, 2.0)
    # only empty urns exist, so the ball lands in one with certainty
    assert_allclose(probs, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_transition_law_hand_computed():
    probs = transition_law(0.5, 2.0, (1, 1, 0, 0), 1 + 2.0 * 2)
    # s = 1 + 2*2 = 5; new-or-empty: 0.5 + 0.5*2/5; size-1 urn: 0.5*3/5
    assert_allclose(probs, [0.7, 0.3, 0.0, 0.0], atol=1e-15)
    assert_allclose(probs.sum(), 1.0, atol=1e-15)


def test_transition_law_rows_sum_to_one():
    rng = np.random.default_rng(11)
    counts = rng.integers(0, 5, size=(25, 5))
    counts = counts[counts.sum(axis=1) > 0]
    weight = counts[:, :-1] @ np.arange(4) + 4 * counts[:, -1]
    s = weight + rng.integers(0, 4, size=weight.size) + 1.5 * counts.sum(axis=1)
    probs = transition_law(0.2, 1.5, counts, s)
    assert probs.shape == counts.shape
    assert np.all(probs >= 0.0)
    assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    # the batched law is the per-state law, row by row (the complement's
    # row sum may be reduced in another order: one ulp)
    for row, z, sk in zip(probs, counts, s):
        assert_allclose(row, transition_law(0.2, 1.5, z, sk), rtol=0.0, atol=2e-16)


def test_transition_law_matches_exact_fractions():
    # second route: the oracle's exact transition list in rational arithmetic
    rng = np.random.default_rng(2024)
    for _ in range(200):
        d = int(rng.integers(0, 6))
        counts = tuple(int(z) for z in rng.integers(0, 6, size=d + 2))
        if sum(counts) == 0:
            continue
        weight = sum(i * z for i, z in enumerate(counts[:-1])) + (d + 1) * counts[-1]
        balls = weight + int(rng.integers(0, 5))
        p = Fraction(int(rng.integers(0, 10)), 10)
        beta = Fraction(int(rng.integers(1, 40)), 8)
        s = balls + beta * sum(counts)
        moves = [tuple(row) for row in increments(d)]
        exact = [Fraction(0)] * (d + 2)
        for nxt, pr in _count_transitions(counts, p, beta, s, Fraction(1)):
            exact[moves.index(tuple(np.subtract(nxt, counts)))] += pr
        assert sum(exact) == 1
        law = transition_law(float(p), float(beta), counts, float(s))
        assert_allclose(law, [float(x) for x in exact], rtol=1e-13, atol=1e-15)


def test_urnless_start_is_rejected():
    void = TruncatedState(n=5, j=0, counts=(0, 0, 0, 0), urn_total=0, ball_total=0)
    center = run(5, 2, CLASSICAL, SEED2, seed=0).interpolated
    calls = [
        lambda: run(5, 2, CLASSICAL, void, seed=3),
        lambda: run_ensemble_terminal(5, 2, CLASSICAL, void, 3, 1),
        lambda: run_ensemble_paths(5, 2, CLASSICAL, void, 3, 1),
        lambda: estimate_tube_probability(TubeQuery(center, 0.5), 5, 2, CLASSICAL,
                                          void, 3, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="selection weight is zero"):
            call()


def test_run_conserves_urns_and_balls():
    out = run(60, 3, CLASSICAL, (2, 0, 0, 0, 0), seed=7)
    assert out.counts.shape == (61, 5)
    j = np.arange(61)
    # row j is the state after j steps: one urn and one ball per step
    assert np.array_equal(out.counts.sum(axis=1), 2 + j)
    visible = out.counts[:, :-1] @ np.arange(4) + 4 * out.counts[:, -1]
    assert np.all(visible <= j)
    # interpolated path agrees with the integer states at the knots
    assert_allclose(out.interpolated.values[-1], out.counts[-1] / 60)


def test_run_is_deterministic_in_seed():
    a = run(40, 2, CLASSICAL, SEED2, seed=123)
    b = run(40, 2, CLASSICAL, SEED2, seed=123)
    c = run(40, 2, CLASSICAL, SEED2, seed=124)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_one_step_frequencies_match_probabilities():
    # d = 2, mixed state; frequencies of the four increments over many
    # replicas should sit within 4 standard errors of the exact law.
    init = (1, 2, 1, 0)
    sched = Schedule.constant(0.3, 1.0)
    probs = transition_law(0.3, 1.0, init, 4 + 1.0 * 4)  # s = balls + beta*urns
    num = 40_000
    terminal = run_ensemble_terminal(1, 2, sched, init, num, seed=99)
    delta = terminal - np.asarray(init)
    f = np.array([[0, 1, 0, 0], [1, -1, 1, 0], [1, 0, -1, 1], [1, 0, 0, 0]])
    freqs = np.array([(delta == row).all(axis=1).mean() for row in f])
    assert_allclose(freqs.sum(), 1.0, atol=1e-12)
    se = np.sqrt(probs * (1.0 - probs) / num)
    assert np.all(np.abs(freqs - probs) <= 4.0 * se + 1e-9)


def test_ensemble_shapes_and_conservation():
    hist = run_ensemble_paths(20, 1, CLASSICAL, (3, 0, 0), num_samples=8, seed=4)
    assert hist.shape == (8, 21, 3)
    assert np.all(hist[:, 0, :] == np.array([3, 0, 0]))
    urns = hist.sum(axis=2)
    assert np.all(urns == 3 + np.arange(21)[None, :])
    term = run_ensemble_terminal(20, 1, CLASSICAL, (3, 0, 0), num_samples=8, seed=4)
    assert np.all(term == hist[:, -1, :])


def test_ensemble_matches_exact_distribution():
    n, d = 6, 1
    dist = enumerate_exact(n, d, CLASSICAL, (2, 0, 0)).as_floats()
    term = run_ensemble_terminal(n, d, CLASSICAL, (2, 0, 0), num_samples=40_000, seed=21)
    keys, counts = np.unique(term, axis=0, return_counts=True)
    emp = {tuple(int(v) for v in k): c / 40_000 for k, c in zip(keys, counts)}
    support = set(dist) | set(emp)
    tv = 0.5 * sum(abs(dist.get(k, 0.0) - emp.get(k, 0.0)) for k in support)
    assert tv < 0.02
    assert set(emp) <= set(dist)  # no impossible states sampled


def test_sup_l1_distance_zero_on_own_path():
    out = run(30, 1, CLASSICAL, (2, 0, 0), seed=3)
    hist = out.counts[None]
    dist = sup_l1_distance(hist, out.interpolated, 30)
    assert_allclose(dist, [0.0], atol=1e-14)


def test_sup_l1_distance_shifted_history():
    out = run(30, 1, CLASSICAL, (2, 0, 0), seed=3)
    hist = out.counts[None]
    dist = sup_l1_distance(hist + np.array([3, 0, 0]), out.interpolated, 30)
    assert_allclose(dist, [0.1], atol=1e-14)  # constant 3/30 in one slot


def test_tube_probability_degenerate_radii():
    center = run(25, 1, CLASSICAL, (2, 0, 0), seed=17).interpolated
    query = TubeQuery(center, radius=50.0)
    est = estimate_tube_probability(query, 25, 1, CLASSICAL, (2, 0, 0),
                                    num_samples=64, seed=1)
    assert est.estimate == 1.0 and est.hits == 64 and est.stderr == 0.0
    with pytest.raises(ValueError):
        TubeQuery(center, radius=0.0)


def test_tube_probability_monotone_in_radius():
    center = run(25, 1, CLASSICAL, (2, 0, 0), seed=17).interpolated
    vals = []
    for r in (0.05, 0.2, 0.8):
        est = estimate_tube_probability(TubeQuery(center, r), 25, 1, CLASSICAL,
                                        (2, 0, 0), num_samples=400, seed=5)
        vals.append(est.estimate)
        assert est.hits == round(est.estimate * 400)
    assert vals[0] <= vals[1] <= vals[2]
