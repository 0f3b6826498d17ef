import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chisquare

from urnrates import simulator
from urnrates.model import (
    InitialProfile,
    Path,
    Schedule,
    TruncatedState,
    increments,
    resolve_initial,
    transition_law,
)
from urnrates.oracle import _count_weights, enumerate_exact
from urnrates.simulator import (
    TubeQuery,
    ensemble_sup_l1_distance,
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
    # second route: the oracle's integer move weights over their exact total
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
        step = (p.numerator, p.denominator, beta.numerator, beta.denominator)
        total = p.denominator * s * beta.denominator
        moves = [tuple(row) for row in increments(d)]
        exact = [Fraction(0)] * (d + 2)
        for nxt, w in _count_weights(counts, step, balls, int(s * beta.denominator)):
            exact[moves.index(tuple(np.subtract(nxt, counts)))] += Fraction(w, total)
        assert sum(exact) == 1
        law = transition_law(float(p), float(beta), counts, float(s))
        assert_allclose(law, [float(x) for x in exact], rtol=1e-13, atol=1e-15)


def test_urnless_start_is_rejected():
    void = TruncatedState(counts=(0, 0, 0, 0), ball_total=0)
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
    states, counts = run_ensemble_terminal(1, 2, sched, init, num, seed=99)
    delta = states - np.asarray(init)
    f = np.array([[0, 1, 0, 0], [1, -1, 1, 0], [1, 0, -1, 1], [1, 0, 0, 0]])
    freqs = np.array([counts[(delta == row).all(axis=1)].sum() / num for row in f])
    assert_allclose(freqs.sum(), 1.0, atol=1e-12)
    se = np.sqrt(probs * (1.0 - probs) / num)
    assert np.all(np.abs(freqs - probs) <= 4.0 * se + 1e-9)


def assert_legal_histogram(states, counts, start, n, num_samples):
    """Distinct states in lexicographic order, each reachable in n steps."""
    d = states.shape[1] - 2
    assert states.dtype == counts.dtype == np.int64
    assert counts.sum() == num_samples and np.all(counts > 0)
    assert np.all(states >= 0)
    assert np.all(states.sum(axis=1) == sum(start) + n)  # one urn per step
    weight = states[:, : d + 1] @ np.arange(d + 1) + (d + 1) * states[:, -1]
    start_weight = np.dot(start[: d + 1], np.arange(d + 1)) + (d + 1) * start[-1]
    assert np.all(weight <= start_weight + n)  # one ball per step
    order = np.lexsort(states.T[::-1])
    assert np.array_equal(order, np.arange(len(states)))
    assert np.all(np.any(np.diff(states, axis=0) != 0, axis=1))


def test_ensemble_shapes_and_conservation(monkeypatch):
    hist = run_ensemble_paths(20, 1, CLASSICAL, (3, 0, 0), num_samples=8, seed=4)
    assert hist.shape == (8, 21, 3)
    assert np.all(hist[:, 0, :] == np.array([3, 0, 0]))
    urns = hist.sum(axis=2)
    assert np.all(urns == 3 + np.arange(21)[None, :])
    states, counts = run_ensemble_terminal(20, 1, CLASSICAL, (3, 0, 0), num_samples=8,
                                           seed=4)
    assert_legal_histogram(states, counts, (3, 0, 0), 20, 8)
    # expanded before the first draw, the terminal histogram is the
    # tabulated last step of the paths, bit for bit
    monkeypatch.setattr(simulator, "_EXPAND_FRACTION", 0.0)
    states, counts = run_ensemble_terminal(20, 1, CLASSICAL, (3, 0, 0), num_samples=8,
                                           seed=4)
    ref_states, ref_counts = np.unique(hist[:, -1], axis=0, return_counts=True)
    assert np.array_equal(states, ref_states)
    assert np.array_equal(counts, ref_counts)


def row_major_paths(n, d, schedule, start, num_samples, seed):
    """Second route to the expanded draw: the cumulative inverse stepped on
    row-major counts with np.cumsum and a row gather of the increments."""
    state0 = resolve_initial(start, n, d)
    steps = np.arange(n)
    p, beta = schedule.p_at(steps / n), schedule.beta_at(steps / n)
    s = (state0.ball_total + steps) + beta * (state0.urn_total + steps)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = np.tile(np.asarray(state0.counts, dtype=np.int64), (num_samples, 1))
    history = [counts]
    for j in range(n):
        law = transition_law(p[j], beta[j], counts, s[j])
        cum = np.cumsum(law[:, : d + 1], axis=1)
        u = rng.random(num_samples)
        counts = counts + increments(d)[(u[:, None] >= cum).sum(axis=1)]
        history.append(counts)
    return np.stack(history, axis=1)


@pytest.mark.parametrize("n, d, num_samples", [
    (200, 0, 1), (300, 5, 37), (150, 9, 40),
    # uniforms drawn in blocks of 43 steps: the last of the 10 is partial
    (400, 3, 3000),
])
def test_column_major_loop_matches_row_major_stepper(monkeypatch, n, d, num_samples):
    sched = Schedule.from_segments([(0.0, 0.1, 4.0), (0.3, 0.0, 1.0)])
    start = (2,) + (0,) * (d + 1)
    ref = row_major_paths(n, d, sched, start, num_samples, seed=8)
    assert np.array_equal(run_ensemble_paths(n, d, sched, start, num_samples, seed=8), ref)
    # expanded before the first draw, the terminal histogram is the
    # stepper's last step, tabulated
    monkeypatch.setattr(simulator, "_EXPAND_FRACTION", 0.0)
    states, counts = run_ensemble_terminal(n, d, sched, start, num_samples, seed=8)
    ref_states, ref_counts = np.unique(ref[:, -1], axis=0, return_counts=True)
    assert np.array_equal(states, ref_states)
    assert np.array_equal(counts, ref_counts)


@pytest.mark.parametrize("d, start", [
    (0, None), (1, None), (5, None), (30, None),
    (5, InitialProfile.from_masses([0.3, 0.1, 0.05])),
])
def test_single_run_walk_matches_one_replica_column_loop(d, start):
    # n = 2500 crosses two block boundaries of the walk and ends on a
    # partial block; the schedule has p > 0 on its first segment
    n = 2500
    assert n // simulator._WALK_BLOCK == 2 and n % simulator._WALK_BLOCK
    sched = Schedule.from_segments([(0.0, 0.1, 4.0), (0.3, 0.0, 1.0)])
    start = (2,) + (0,) * (d + 1) if start is None else start
    counts = run(n, d, sched, start, seed=8).counts
    assert counts.dtype == np.int64 and counts.shape == (n + 1, d + 2)
    assert np.array_equal(counts, run_ensemble_paths(n, d, sched, start, 1, seed=8)[0])
    assert np.array_equal(counts, row_major_paths(n, d, sched, start, 1, seed=8)[0])
    # the walk moved through more than the first entries of the law
    assert len(np.unique(np.diff(counts, axis=0), axis=0)) >= min(d + 2, 4)


def test_single_run_rejects_bad_input_and_is_read_only():
    void = TruncatedState(counts=(0, 0, 0, 0), ball_total=0)
    for args, message in [((0, 2, CLASSICAL, SEED2), "need n >= 1 and d >= 0"),
                          ((5, -1, CLASSICAL, (2,)), "need n >= 1 and d >= 0"),
                          ((5, 2, CLASSICAL, void), "selection weight is zero")]:
        with pytest.raises(ValueError, match=message):
            run(*args, seed=3)
    counts = run(50, 2, CLASSICAL, SEED2, seed=3).counts
    assert not counts.flags.writeable
    with pytest.raises(ValueError):
        counts[0, 0] = 7


def test_ensemble_matches_exact_distribution():
    n, d = 6, 1
    dist = enumerate_exact(n, d, CLASSICAL, (2, 0, 0)).as_floats()
    keys, counts = run_ensemble_terminal(n, d, CLASSICAL, (2, 0, 0), num_samples=40_000,
                                         seed=21)
    emp = {tuple(int(v) for v in k): c / 40_000 for k, c in zip(keys, counts)}
    support = set(dist) | set(emp)
    tv = 0.5 * sum(abs(dist.get(k, 0.0) - emp.get(k, 0.0)) for k in support)
    assert tv < 0.02
    assert set(emp) <= set(dist)  # no impossible states sampled


def assert_matches_exact_law(states, counts, dist, num_samples):
    """TV below 0.01 and a chi-square goodness of fit, cells with fewer than
    five expected samples pooled into one."""
    emp = {tuple(int(v) for v in k): int(c) for k, c in zip(states, counts)}
    assert set(emp) <= set(dist)  # no impossible states sampled
    support = sorted(dist)
    prob = np.array([dist[k] for k in support])
    obs = np.array([emp.get(k, 0) for k in support], dtype=float)
    tv = 0.5 * np.abs(obs / num_samples - prob).sum()
    assert tv < 0.01
    expected = prob * num_samples
    small = expected < 5.0
    f_obs = np.append(obs[~small], obs[small].sum())
    f_exp = np.append(expected[~small], expected[small].sum())
    assert chisquare(f_obs, f_exp * (f_obs.sum() / f_exp.sum())).pvalue > 1e-3


def test_merged_ensemble_matches_exact_law():
    n, d, num = 12, 2, 200_000
    sched = Schedule.constant(0.3, 1.5)
    dist = enumerate_exact(n, d, sched, SEED2).as_floats()
    states, counts = run_ensemble_terminal(n, d, sched, SEED2, num, seed=31)
    assert_legal_histogram(states, counts, SEED2, n, num)
    assert_matches_exact_law(states, counts, dist, num)


def test_ensemble_on_polynomial_schedule_matches_exact_law():
    # constant -> polynomial with p > 0 -> constant: the oracle evaluates
    # the polynomial segment exactly, the simulator in floats
    n, d, num = 12, 2, 200_000
    sched = Schedule.from_segments([(0.0, 0.0, 8.0), (0.3, (0.1, 0.2), (1.0, 0.5)),
                                    (0.7, 0.2, 2.0)])
    dist = enumerate_exact(n, d, sched, SEED2).as_floats()
    states, counts = run_ensemble_terminal(n, d, sched, SEED2, num, seed=31)
    assert_legal_histogram(states, counts, SEED2, n, num)
    assert_matches_exact_law(states, counts, dist, num)


def rows_per_step(monkeypatch):
    """Record how many states the simulator steps at each j: the rows of
    the merged law, or the columns (one per replica) of the expanded one."""
    rows = []
    law, cumulative = simulator.transition_law, simulator._cumulative_law

    def merged(p, beta, z, s):
        rows.append(len(z))
        return law(p, beta, z, s)

    def expanded(z, *args, **kwargs):
        rows.append(z.shape[1])
        return cumulative(z, *args, **kwargs)

    monkeypatch.setattr(simulator, "transition_law", merged)
    monkeypatch.setattr(simulator, "_cumulative_law", expanded)
    return rows


def test_expansion_mid_run_keeps_exact_law(monkeypatch):
    n, d, num = 14, 2, 100_000
    sched = Schedule.constant(0.1, 0.5)
    # expand once more than 5 states are distinct: one state at j = 0, far
    # more than 5 possible at j = n - 1
    monkeypatch.setattr(simulator, "_EXPAND_FRACTION", 5 / num)
    rows = rows_per_step(monkeypatch)
    states, counts = run_ensemble_terminal(n, d, sched, SEED2, num, seed=12)
    assert len(rows) == n and rows[0] == 1
    switch = rows.index(num)
    assert 0 < switch < n - 1 and max(rows[:switch]) <= 5
    assert all(r == num for r in rows[switch:])
    assert_legal_histogram(states, counts, SEED2, n, num)
    dist = enumerate_exact(n, d, sched, SEED2).as_floats()
    assert_matches_exact_law(states, counts, dist, num)


def test_merged_phase_ends_on_the_fraction_alone(monkeypatch):
    # at d = 8 a state holding U urns has (U+1)^9 possible rows, past 2^62
    # from U = 118 on: the merged phase runs on through those steps (at
    # p = 0.9 most balls open a fresh urn, so distinct states stay far
    # fewer than the replicas and a fraction of 2 never expands)
    n, d, num = 300, 8, 2000
    start = (2,) + (0,) * (d + 1)
    monkeypatch.setattr(simulator, "_EXPAND_FRACTION", 2.0)
    rows = rows_per_step(monkeypatch)
    states, counts = run_ensemble_terminal(n, d, Schedule.constant(0.9, 1.0), start, num,
                                           seed=5)
    assert len(rows) == n and max(rows) < num / 4
    assert_legal_histogram(states, counts, start, n, num)


@pytest.mark.parametrize("num_samples, d", [(1, 5), (8, 5), (500, 5), (40, 9)])
def test_streamed_sup_l1_matches_history(num_samples, d):
    n = 150
    sched = Schedule.constant(0.2, 1.0)
    start = (2,) + (0,) * (d + 1)
    own = run(n, d, sched, start, seed=1).interpolated
    # a center that starts 0.5 away in slot 0, so the sup sits at j = 0
    tilt = np.outer(1.0 - own.times, np.eye(d + 2)[0]) * 0.5
    hist = run_ensemble_paths(n, d, sched, start, num_samples, seed=6)
    for center in (own, Path.from_knots(own.times, own.values + tilt)):
        streamed = ensemble_sup_l1_distance(center, n, d, sched, start, num_samples, seed=6)
        assert np.array_equal(streamed, sup_l1_distance(hist, center, n))


@pytest.mark.parametrize("num_samples", [1, 2])
def test_streamed_sup_l1_matches_history_on_one_deep_column(num_samples):
    # at d = 9 each replica's distance sums 11 terms, which np.add.reduce
    # pairs when they form a lone column (one replica); the streamed sum
    # must still add them in the history's order
    n, d = 150, 9
    sched = Schedule.constant(0.2, 1.0)
    start = (2,) + (0,) * (d + 1)
    own = run(n, d, sched, start, seed=1).interpolated
    hist = run_ensemble_paths(n, d, sched, start, num_samples, seed=6)
    for shift in np.geomspace(1e-3, 1e3, 7):
        center = Path.from_knots(own.times, own.values * shift)
        streamed = ensemble_sup_l1_distance(center, n, d, sched, start, num_samples, seed=6)
        assert np.array_equal(streamed, sup_l1_distance(hist, center, n))


@pytest.mark.parametrize("d", [0, 1, 5, 30])
def test_move_stencil_gives_the_increments(d):
    # column k is the comparison mask of a replica whose threshold reaches
    # k cumulative weights: a_{-1} = 1, then a_i = [i < k] for i = 0..d
    k = np.arange(d + 2)
    above = np.vstack([np.ones(d + 2, dtype=bool), np.arange(d + 1)[:, None] < k])
    onehot = np.zeros((d + 3, d + 2), dtype=np.int8)
    onehot[0] = 1
    move = simulator._move(above, onehot, out=np.full((d + 2, d + 2), np.nan))
    assert np.array_equal(move.T, increments(d))
    # the boundary rows e_{-1} = 1 and e_{d+1} = 0 survive for the next step
    assert np.all(onehot[0] == 1) and np.all(onehot[-1] == 0)


def test_tube_estimate_memory_is_bounded():
    # the (R, n+1, d+2) history alone would take 107 MB
    n, d, num = 2000, 5, 1000
    start = (2,) + (0,) * (d + 1)
    center = run(n, d, CLASSICAL, start, seed=1).interpolated
    tracemalloc.start()
    try:
        est = estimate_tube_probability(TubeQuery(center, 0.1), n, d, CLASSICAL, start,
                                        num, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.num_samples == num
    assert peak < 10 * 2**20


def test_expanded_ensemble_memory_scales_with_replicas(monkeypatch):
    # expanded from the first step, the loop holds a few (d+2, R) buffers
    # and one step's uniforms: the n*R uniforms of the whole run alone
    # would take 10 units, the (R, n+1, d+2) history 51
    n, d, num = 50, 3, 200_000
    unit = num * (d + 2) * 8
    monkeypatch.setattr(simulator, "_EXPAND_FRACTION", 0.0)
    start = (2,) + (0,) * (d + 1)
    tracemalloc.start()
    try:
        states, counts = run_ensemble_terminal(n, d, CLASSICAL, start, num, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_legal_histogram(states, counts, start, n, num)
    assert peak < 5 * unit


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
    with pytest.raises(ValueError):
        TubeQuery(center, radius=float("nan"))


def test_tube_probability_monotone_in_radius():
    center = run(25, 1, CLASSICAL, (2, 0, 0), seed=17).interpolated
    vals = []
    for r in (0.05, 0.2, 0.8):
        est = estimate_tube_probability(TubeQuery(center, r), 25, 1, CLASSICAL,
                                        (2, 0, 0), num_samples=400, seed=5)
        vals.append(est.estimate)
        assert est.hits == round(est.estimate * 400)
    assert vals[0] <= vals[1] <= vals[2]
