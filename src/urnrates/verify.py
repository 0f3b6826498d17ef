"""Verification battery: one check per advertised numerical guarantee.

Each criterion function runs a self-contained experiment and returns a
CheckResult; run_all executes the battery at a given budget.  The CLI
`verify` subcommand and the acceptance test suite both call into here so
the pass/fail lines agree between them.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import lln, oracle, rate, simulator
from .model import InitialProfile, Path, Schedule


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str
    skipped: bool = False
    expected_failure: bool = False
    seconds: float = 0.0        # set by run_all

    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        if status == "FAIL" and self.expected_failure:
            status = "FAIL [expected]"
        return f"{self.name}: {status} ({self.details})"


def classical_schedule() -> Schedule:
    return Schedule.constant(0.0, 1.0)


def figure1_schedule() -> Schedule:
    """Two-phase schedule: heavy reinforcement offset early, plain after."""
    return Schedule.from_segments([(0.0, 0.0, 8.0), (0.01, 0.0, 1.0)])


def seed_counts(d: int) -> tuple:
    """Two empty urns: the canonical o(n) seed for runs started 'empty'."""
    return (2,) + (0,) * (d + 1)


# --------------------------------------------------------------------------

def _limit_path_rates(sched: Schedule, profile: InitialProfile, depths) -> list:
    """(d, I_d of the limit path) per depth, the paths projected
    (rate.project_path) from one solve at the deepest depth, and each I_d
    by rate.path_rate's route for the schedule."""
    path = lln.solve_lln_closed(max(depths), sched, profile).path()
    return [(d, rate.path_rate(rate.project_path(path, d), sched, profile).value)
            for d in depths]


def criterion_1(budget: str = "default") -> CheckResult:
    """Zero cost of the limit trajectory itself, d in {0, 5, 20}."""
    name = "criterion 1 zero-cost-root"
    if budget == "reduced":
        return CheckResult(name, True, "skipped at reduced budget", skipped=True)
    profile = InitialProfile.empty()
    worst = 0.0
    t0 = time.perf_counter()
    rows = []
    for label, sched in [("homogeneous", classical_schedule()),
                         ("figure-1", figure1_schedule())]:
        for d, value in _limit_path_rates(sched, profile, (0, 5, 20)):
            rows.append(f"{label} d={d}: I_d={value:.3e}")
            worst = max(worst, value)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    details = f"max I_d = {worst:.3e} (tol 1e-8), {elapsed:.1f}s; " + "; ".join(rows)
    return CheckResult(name, ok, details)


def criterion_2(budget: str = "default") -> CheckResult:
    """Full-escape (star) rate equals log 2, by series and by limit trace."""
    name = "criterion 2 star-rate-analytic"
    series = rate.linear_path_rate_classical((1.0, 0.0))
    err_series = abs(series.value - math.log(2.0))
    rep = rate.path_rate_Iinf(lln.star_law(), classical_schedule(),
                              InitialProfile.empty(), tol=1e-6)
    err_trace = abs(rep.value - math.log(2.0))
    ok = err_series <= 1e-12 and err_trace <= 1e-6 and rep.converged
    details = (f"series |err| = {err_series:.2e} (tol 1e-12), "
               f"trace |err| = {err_trace:.2e} (tol 1e-6), "
               f"converged={rep.converged} at d={rep.trace[-1][0]}")
    return CheckResult(name, ok, details)


def criterion_3(budget: str = "default") -> CheckResult:
    """Exact designated-urn monopoly probability 2^-n for n = 2..14."""
    name = "criterion 3 star-oracle"
    sched = classical_schedule()
    n_max = 10 if budget == "reduced" else 14
    probs = {n: oracle.star_probability(n, sched) for n in range(2, n_max + 1)}
    bad = [n for n, p in probs.items() if p != Fraction(1, 2 ** n)]
    rates = [-math.log(float(probs[n])) / n for n in (2, n_max)]
    ok = not bad
    details = (f"2^-n exact for n=2..{n_max}"
               + (f" EXCEPT {bad}" if bad else "")
               + f"; -(1/n)log P = {rates[0]:.12f}..{rates[1]:.12f} (log 2 = {math.log(2):.12f})")
    return CheckResult(name, ok, details)


def criterion_4(budget: str = "default") -> CheckResult:
    """All-singleton road: probability 1/n!, rates diverge, series is +inf."""
    name = "criterion 4 straight-road"
    sched = classical_schedule()
    n_list = list(range(2, 11))
    probs = [oracle.straight_road_probability(n, sched) for n in n_list]
    bad = [n for n, p in zip(n_list, probs) if p != Fraction(1, math.factorial(n))]
    # the finite-size readout of the exact laws, each enumerated once
    emp = oracle.rate_readout(n_list, [float(p) for p in probs])
    series = rate.linear_path_rate_classical((0.0, 1.0))
    ok = (not bad) and emp.increasing and emp.diverging and math.isinf(series.value)
    details = (f"1/n! exact for n=2..10{' EXCEPT ' + str(bad) if bad else ''}; "
               f"rates increasing={emp.increasing}, diverging={emp.diverging}, "
               f"last rate={emp.rates[-1]:.4f}; series value={series.value}")
    return CheckResult(name, ok, details)


def criterion_5(budget: str = "default") -> CheckResult:
    """Mass conservation and the aggregate-weight tail bound at d = 30.

    The second clause compares the unaccounted weight deficit against the
    floor (d+1)*zetabar.  The aggregated urns hold strictly more than the
    floor weight (they keep growing past d+1), so the deficit identity is
    (d+2)*zetabar after crediting the floor — the stated bound is exceeded
    by the factor (d+2)/(d+1) and the clause fails by construction; it is
    reported honestly rather than loosened.
    """
    name = "criterion 5 conservation"
    d = 30
    ts = np.array([0.1, 0.5, 1.0])
    profile = InitialProfile.empty()
    sol = lln.solve_lln_closed(d, classical_schedule(), profile, grid=ts)
    mass_dev = sol.mass_deviation(profile)
    chk = lln.weighted_sum_check(sol, profile)
    ratios = chk.adjusted / chk.tail_bound
    mass_ok = mass_dev < 1e-8
    bound_ok = bool(np.all(chk.adjusted <= chk.tail_bound))
    ok = mass_ok and bound_ok
    details = (f"mass dev = {mass_dev:.2e} (tol 1e-8, {'ok' if mass_ok else 'FAIL'}); "
               f"deficit/tail-bound ratios at t=0.1,0.5,1: "
               + ", ".join(f"{r:.6f}" for r in ratios)
               + f" (bound needs <= 1, analytic value (d+2)/(d+1) = {(d+2)/(d+1):.6f})")
    return CheckResult(name, ok, details, expected_failure=not bound_ok)


def criterion_6(budget: str = "default") -> CheckResult:
    """Stationary occupancy fractions 4/((i+1)(i+2)(i+3)) for i <= 10."""
    name = "criterion 6 stationary-fractions"
    d = 12
    profile = InitialProfile.empty()
    sol = lln.solve_lln_closed(d, classical_schedule(), profile,
                               grid=np.array([1.0]))
    i = np.arange(0, 11)
    target = 4.0 / ((i + 1) * (i + 2) * (i + 3))
    got = sol.values[0, :11]
    err = float(np.abs(got - target).max())
    ok = err <= 1e-6
    details = f"max |zeta_i(1) - 4/((i+1)(i+2)(i+3))| = {err:.2e} (tol 1e-6), i <= 10"
    return CheckResult(name, ok, details)


def criterion_7(budget: str = "default") -> CheckResult:
    """Power-law envelopes bracket the partial sums; exponents 3 and 10."""
    name = "criterion 7 envelopes"
    d = 30
    sched = figure1_schedule()
    profile = InitialProfile.empty()
    ts = np.array([0.01, 0.1, 1.0])
    sol = lln.solve_lln_closed(d, sched, profile, grid=ts)
    env = lln.power_law_envelopes(sched, profile, ts, d)
    mid = np.cumsum(sol.values[:, : d + 1], axis=1)
    hi = np.cumsum(env.upper.values, axis=1)
    lo = np.cumsum(env.lower.values, axis=1)
    slack = 1e-9
    upper_ok = bool(np.all(mid <= hi + slack))
    lower_ok = bool(np.all(lo <= mid + slack))
    up_exp, low_exp = env.upper.params.tail_exponent, env.lower.params.tail_exponent
    exp_ok = abs(up_exp - 10.0) < 1e-12 and abs(low_exp - 3.0) < 1e-12
    ok = upper_ok and lower_ok and exp_ok
    details = (f"lower<=zeta<=upper partial sums (slack 1e-9): "
               f"upper {'ok' if upper_ok else 'VIOLATED'}, "
               f"lower {'ok' if lower_ok else 'VIOLATED'}; "
               f"tail exponents = {low_exp:.12g}, {up_exp:.12g} (want 3, 10); "
               f"max upper margin used = {float((mid - hi).max()):.2e}")
    return CheckResult(name, ok, details)


def _random_admissible_path(rng, d: int) -> Path:
    """Piecewise-linear admissible path from the empty state, in three
    pieces.

    Slopes are sampled through the bijection with decreasing probability
    vectors: sort a Dirichlet draw on the first d+1 slots and map back.
    """
    cuts = np.sort(rng.uniform(0.05, 0.95, size=2))
    knots = np.concatenate([[0.0], cuts, [1.0]])
    values = np.zeros((knots.size, d + 2))
    for k in range(knots.size - 1):
        w = rng.dirichlet(np.ones(d + 2))
        lead = np.sort(w[: d + 1])[::-1]
        v = np.empty(d + 2)
        v[0] = 1.0 - lead[0]
        v[1 : d + 1] = lead[:-1] - lead[1:]
        v[d + 1] = lead[-1]
        values[k + 1] = values[k] + v * (knots[k + 1] - knots[k])
    return Path.from_knots(knots, values)


def criterion_8(budget: str = "default") -> CheckResult:
    """Truncation monotonicity of the local cost on random paths."""
    name = "criterion 8 truncation-monotone"
    rng = np.random.default_rng(20250811)
    sched = classical_schedule()
    profile = InitialProfile.empty()
    num_paths = 20 if budget == "reduced" else 100
    ts = (np.arange(64) + 0.5) / 64.0
    paths = [_random_admissible_path(rng, 20) for _ in range(num_paths)]
    # projection (rate.project_path) is linear, so it commutes with
    # sampling a path and with its slopes: sample every full path once,
    # (paths, times, 22); from r = 20 down, the first r+2 slots are the
    # projection to depth r, costed by one local_cost call on the stack,
    # and adding slot r+1 into slot r projects to depth r-1
    phi = np.stack([path.at(ts) for path in paths])
    slopes = np.stack([path.slope_at(ts) for path in paths])
    costs = np.empty((21, num_paths, ts.size))
    for r in range(20, -1, -1):
        costs[r] = rate.local_cost(ts, phi[..., : r + 2], slopes[..., : r + 2], sched, profile)
        phi[..., r] += phi[..., r + 1]
        slopes[..., r] += slopes[..., r + 1]
    running = np.maximum.accumulate(costs, axis=0)
    worst = float((running[:-1] - costs[1:]).max())
    ok = worst <= 1e-12
    details = (f"max over {num_paths} paths, 64 times, r<s<=20 of "
               f"L_r - L_s = {worst:.2e} (tol 1e-12)")
    return CheckResult(name, ok, details)


def criterion_9(budget: str = "default") -> CheckResult:
    """Simulator matches the exact terminal law in total variation."""
    name = "criterion 9 simulator-vs-oracle"
    if budget == "reduced":
        return CheckResult(name, True, "skipped at reduced budget", skipped=True)
    t0 = time.perf_counter()
    n, d = 10, 2
    sched = classical_schedule()
    initial = seed_counts(d)
    dist = oracle.enumerate_exact(n, d, sched, initial).as_floats()
    num_samples = 1_000_000
    states, counts = simulator.run_ensemble_terminal(n, d, sched, initial,
                                                     num_samples=num_samples, seed=7)
    emp = {tuple(int(x) for x in row): c / num_samples
           for row, c in zip(states, counts)}
    keys = set(emp) | set(dist)
    tv = 0.5 * sum(abs(emp.get(k, 0.0) - dist.get(k, 0.0)) for k in keys)
    elapsed = time.perf_counter() - t0
    ok = tv <= 5e-3 and elapsed < 60.0
    details = (f"TV = {tv:.2e} over {len(keys)} states, 1e6 samples "
               f"(tol 5e-3), {elapsed:.1f}s")
    return CheckResult(name, ok, details)


def criterion_10(budget: str = "default") -> CheckResult:
    """Stretched-exponential target: normalized, weight-1, finite rate on
    which the closed-form I_inf ladder and the closed series agree."""
    name = "criterion 10 stretched-exponential"
    law = lln.stretched_exponential(0.5)
    norm_err = abs(law.total() - 1.0)
    weight_err = abs((law.mean() - law.total()) - 1.0)
    rep = rate.path_rate_Iinf(law, classical_schedule(), InitialProfile.empty(),
                              tol=1e-6)
    gap = abs(rep.value - rate.linear_path_rate_classical(law).value)
    ok = (norm_err <= 1e-10 and weight_err <= 1e-6
          and rep.converged and math.isfinite(rep.value) and gap <= 1e-6)
    details = (f"r=0.5, mu={law.params['mu']:.10f}: |sum q - 1| = {norm_err:.2e} "
               f"(tol 1e-10), |sum i*gamma_i - 1| = {weight_err:.2e} (tol 1e-6), "
               f"rate = {rep.value:.8f} converged={rep.converged} "
               f"at d={rep.trace[-1][0]}, |I_inf - series| = {gap:.2e} (tol 1e-6)")
    return CheckResult(name, ok, details)


def criterion_11(budget: str = "default") -> CheckResult:
    """Trajectory concentration at n = 2000 (statistical surrogate of the
    almost-sure limit, checked through the sample mean of sup distances)."""
    name = "criterion 11 lln-concentration"
    if budget == "reduced":
        return CheckResult(name, True, "skipped at reduced budget", skipped=True)
    n, d, runs = 2000, 5, 100
    sched = classical_schedule()
    initial = seed_counts(d)
    profile = InitialProfile.empty()
    knots = np.linspace(0.0, 1.0, n + 1)
    center = lln.solve_lln_closed(d, sched, profile, grid=knots).path()
    dists = simulator.ensemble_sup_l1_distance(center, n, d, sched, initial,
                                               num_samples=runs, seed=11)
    mean = float(dists.mean())
    ok = mean < 0.05
    details = (f"mean sup-L1 distance over {runs} runs at n={n}: "
               f"{mean:.4f} (tol 0.05), max {float(dists.max()):.4f}")
    return CheckResult(name, ok, details)


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11]


def run_all(budget: str = "default") -> list:
    """Each criterion's result at the budget, its seconds timed here."""
    if budget not in ("default", "reduced"):
        raise ValueError("budget must be 'default' or 'reduced'")
    results = []
    for fn in CRITERIA:
        t0 = time.perf_counter()
        results.append(fn(budget))
        results[-1].seconds = time.perf_counter() - t0
    return results
