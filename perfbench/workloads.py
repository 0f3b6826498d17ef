"""The three benchmark workloads: inputs, operations and output checks.

Each workload's ``setup(seed, work_dir)`` builds its inputs and returns
the list of operations of one round.  An operation runs one user-facing
computation and writes into its own output directory; its check reads
that output back and compares it with an analytic value, a second route
or a property of the method -- never with a stored copy of an earlier
output.  Sizes are fixed here; only the seed varies between runs.
"""
from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from urnrates import cli, lln, simulator, verify
from urnrates.model import InitialProfile

# Outcomes that fail on every seed because of a known fault in the package:
# path_rate_Iinf stops after three increments below tol, which is no error
# bound, and falls short of the closed series by more than tol.
KNOWN_FAULTS = {"rate-stretched-0.5", "rate-stretched-0.7"}


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed computation; check(out_dir, result) returns the list of
    (outcome name, error message or None) that it certifies."""

    name: str
    run: Callable[[Path], object]
    check: Callable[[Path, object], list]
    outcomes: int = 1


def _single(name: str, fn: Callable[[Path, object], None]):
    def check(out_dir, result):
        try:
            fn(out_dir, result)
        except CheckFailed as exc:
            return [(name, str(exc))]
        return [(name, None)]
    return check


def _cli_op(name: str, argv: tuple, fn: Callable[[Path], None]) -> Op:
    """An `urnrates` command run in-process through cli.main."""
    def check(out_dir, code):
        expect(code == 0, f"exit code {code}")
        fn(out_dir)
    return Op(name, lambda out_dir: cli.main([*argv, "--out", str(out_dir)]),
              _single(name, check))


def _json(path: Path) -> dict:
    def parse_constant(token):
        raise CheckFailed(f"non-standard constant {token} in {path.name}")
    return json.loads(path.read_text(), parse_constant=parse_constant)


# -- simulate ------------------------------------------------------------------

FIGURE1 = [(0.0, 0.0, 8.0), (0.01, 0.0, 1.0)]     # (t_start, p, beta)
SIM_D = 5
SINGLE_N = 20_000
ENSEMBLE_N, ENSEMBLE_R = 2000, 10_000
TUBE_N, TUBE_R, TUBE_RADIUS = 2000, 1000, 0.1
ENDPOINT_L1 = 0.05
MEAN_SE = 5.0          # standard errors allowed for the ensemble mean


def increment_vectors(d: int) -> np.ndarray:
    """The d+2 one-step moves of (Z_0..Z_d, Zbar); written out here so the
    check does not lean on the package's own table."""
    moves = np.zeros((d + 2, d + 2), dtype=np.int64)
    moves[0, 1] = 1                         # ball into an empty urn
    for i in range(1, d + 1):               # size i -> i+1, plus a new urn
        moves[i, 0] += 1
        moves[i, i] -= 1
        moves[i, i + 1] += 1
    moves[d + 1, 0] = 1                     # an aggregated urn grows, new urn
    return moves


def _check_counts_path(counts: np.ndarray, start: np.ndarray) -> None:
    """Every row one move from the last; urns grow by one per step and the
    visible ball weight never exceeds the balls placed."""
    n = counts.shape[0] - 1
    d = counts.shape[1] - 2
    expect(np.array_equal(counts[0], start), f"start state {counts[0]} != {start}")
    diffs = np.diff(counts, axis=0)
    moves = increment_vectors(d)
    legal = (diffs[:, None, :] == moves[None, :, :]).all(axis=2).any(axis=1)
    expect(bool(legal.all()), f"{int((~legal).sum())} rows are not one move")
    j = np.arange(n + 1)
    expect(np.array_equal(counts.sum(axis=1), start.sum() + j), "urn count drift")
    weight = counts[:, : d + 1] @ np.arange(d + 1) + (d + 1) * counts[:, d + 1]
    expect(bool((weight <= j + weight[0]).all()), "visible weight exceeds balls placed")


def _read_trajectory(path: Path, n: int) -> np.ndarray:
    with open(path) as fh:
        header = next(csv.reader(fh))
        scaled = np.loadtxt(fh, delimiter=",", ndmin=2)
    d = len(header) - 3
    expect(header == ["t"] + [f"x_{i}" for i in range(d + 1)] + ["x_bar"],
           f"bad header {header}")
    expect(scaled.shape[0] == n + 1, f"{scaled.shape[0]} rows for n={n}")
    expect(np.allclose(scaled[:, 0], np.arange(n + 1) / n, rtol=0, atol=1e-15),
           "time column is not j/n")
    counts = np.rint(scaled[:, 1:] * n)
    expect(float(np.abs(counts - scaled[:, 1:] * n).max()) < 1e-6,
           "scaled counts are not integers over n")
    return counts.astype(np.int64)


def setup_simulate(seed: int, work_dir: Path) -> list:
    s_single, s_ens, s_tube = (int(x) for x in np.random.SeedSequence(seed).generate_state(3))
    sched = verify.figure1_schedule()
    empty = InitialProfile.empty()
    start = np.array(verify.seed_counts(SIM_D))
    centre = lln.solve_lln_closed(SIM_D, sched, empty,
                                  grid=np.arange(TUBE_N + 1) / TUBE_N).path()
    zeta1 = centre.values[-1]
    query = simulator.TubeQuery(centre, TUBE_RADIUS)

    def single(out_dir):
        counts = _read_trajectory(out_dir / "trajectory.csv", SINGLE_N)
        _check_counts_path(counts, start)
        summary = _json(out_dir / "summary.json")
        expect(summary["terminal_state"] == counts[-1].tolist(),
               "summary terminal state differs from the last trajectory row")
        dist = float(np.abs(counts[-1] / SINGLE_N - zeta1).sum())
        expect(dist <= ENDPOINT_L1, f"endpoint L1 distance to zeta(1) = {dist:.4f}")

    def ensemble(out_dir):
        _check_counts_path(_read_trajectory(out_dir / "trajectory.csv", ENSEMBLE_N), start)
        hist = _json(out_dir / "summary.json")["terminal_histogram"]
        states = np.array([[int(x) for x in key.split(",")] for key in hist])
        freq = np.array(list(hist.values()), dtype=float)
        expect(freq.sum() == ENSEMBLE_R, f"histogram holds {freq.sum()} samples")
        expect(bool((states.sum(axis=1) == start.sum() + ENSEMBLE_N).all()),
               "terminal urn count != seed urns + n")
        weight = states[:, : SIM_D + 1] @ np.arange(SIM_D + 1) + (SIM_D + 1) * states[:, -1]
        expect(bool((weight <= ENSEMBLE_N).all()), "terminal visible weight exceeds n")
        scaled = states / ENSEMBLE_N
        mean = freq @ scaled / ENSEMBLE_R
        var = freq @ (scaled - mean) ** 2 / (ENSEMBLE_R - 1)
        # The seed's two extra urns shift the scaled counts by 2/n in total.
        tol = MEAN_SE * np.sqrt(var / ENSEMBLE_R) + start.sum() / ENSEMBLE_N
        err = np.abs(mean - zeta1)
        expect(bool((err <= tol).all()),
               f"ensemble mean off zeta(1) by {err.tolist()} > {tol.tolist()}")

    def tube(out_dir, est):
        expect(0 <= est.hits <= TUBE_R and est.num_samples == TUBE_R, f"bad counts {est}")
        expect(est.estimate == est.hits / TUBE_R, "estimate != hits / samples")
        expect(est.estimate >= 0.9, f"tube probability {est.estimate} < 0.9")

    return [
        _cli_op("simulate-single", ("simulate", "--preset", "figure1", "--n", str(SINGLE_N),
                                    "--d", str(SIM_D), "--seed", str(s_single)), single),
        _cli_op("simulate-ensemble", ("simulate", "--preset", "figure1",
                                      "--n", str(ENSEMBLE_N), "--d", str(SIM_D),
                                      "--samples", str(ENSEMBLE_R), "--seed", str(s_ens)),
                ensemble),
        Op("tube-estimate",
           lambda out_dir: simulator.estimate_tube_probability(
               query, TUBE_N, SIM_D, sched, tuple(start), TUBE_R, s_tube),
           _single("tube-estimate", tube)),
    ]


# -- rate ----------------------------------------------------------------------

RATE_TOL = 1e-6        # the CLI's default tol for I_inf
LLN_ZERO = 1e-8
ROUTES_AGREE = 1e-7
PATH_KNOTS, PATH_D, PROJ_D = 2000, 20, 5
ROUTE_D = 30


def h(x: float, y: float) -> float:
    """x log(x/y) with 0 log 0 = 0."""
    if x == 0.0:
        return 0.0
    return math.inf if y <= 0.0 else x * math.log(x / y)


def straight_path_series(gamma, tail_count: float, ball_mass: float,
                         p: float = 0.0, beta: float = 1.0) -> float:
    """Rate of t -> t*gamma from empty under constant (p, beta):
    sum_i h(1 - [gamma]_i, u_i) + escape * log((1+beta)/(1-p))."""
    gamma = np.asarray(gamma, dtype=float)
    # 1 - [gamma]_i as a suffix sum, exact for a normalized law
    above = np.concatenate([np.cumsum(gamma[::-1])[::-1][1:], [0.0]]) + tail_count
    u = np.empty_like(gamma)
    u[0] = p + (1 - p) * beta * gamma[0] / (1 + beta)
    i = np.arange(1, gamma.size)
    u[1:] = (1 - p) * (i + beta) * gamma[1:] / (1 + beta)
    escape = max(0.0, 1.0 - ball_mass)
    return math.fsum(h(a, b) for a, b in zip(above, u)) + escape * math.log((1 + beta) / (1 - p))


def _series_of_law(law) -> float:
    total = math.fsum(law.values) + law.tail_mass
    mean = math.fsum(np.arange(1, law.values.size + 1) * law.values) + law.tail_mean
    return straight_path_series(law.values, law.tail_mass, mean - total)


def random_admissible_path(rng, knots: int, d: int):
    """Piecewise-linear path from the empty state with i.i.d. admissible slopes.

    Knot spacing stays above 0.1/knots so that slopes recovered from
    17-digit CSV values keep their admissibility to ~1e-12.  A slope is
    built from a decreasing vector `lead` (sorted Dirichlet draw): its
    partial sums are 1 - lead, so they lie in [0,1] and the escape rate
    sum(lead) is at most 1.
    """
    times = np.concatenate([[0.0], (np.arange(1, knots) + rng.uniform(0.1, 0.9, knots - 1))
                            / knots, [1.0]])
    lead = -np.sort(-rng.dirichlet(np.ones(d + 2), size=knots)[:, : d + 1], axis=1)
    slopes = np.empty((knots, d + 2))
    slopes[:, 0] = 1.0 - lead[:, 0]
    slopes[:, 1 : d + 1] = lead[:, :-1] - lead[:, 1:]
    slopes[:, d + 1] = lead[:, -1]
    values = np.zeros((knots + 1, d + 2))
    values[1:] = np.cumsum(slopes * np.diff(times)[:, None], axis=0)
    return times, values


def write_path_csv(path: Path, times, values) -> None:
    d = values.shape[1] - 2
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t"] + [f"x_{i}" for i in range(d + 1)] + ["x_bar"])
        for t, row in zip(times, values):
            w.writerow([repr(float(t))] + [repr(float(x)) for x in row])


def setup_rate(seed: int, work_dir: Path) -> list:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    times, values = random_admissible_path(rng, PATH_KNOTS, PATH_D)
    projected = np.concatenate([values[:, : PROJ_D + 1],
                                values[:, PROJ_D + 1 :].sum(axis=1, keepdims=True)], axis=1)
    configs = {}
    for d, vals in ((PATH_D, values), (PROJ_D, projected)):
        csv_path = work_dir / f"path_d{d}.csv"
        write_path_csv(csv_path, times, vals)
        configs[d] = work_dir / f"path_d{d}.json"
        configs[d].write_text(json.dumps({"rate": {"path_csv": str(csv_path)}}))
    fig1_cfg = work_dir / "figure1.json"
    fig1_cfg.write_text(json.dumps({"schedule": [
        {"t_start": t, "p": p, "beta": b} for t, p, b in FIGURE1]}))
    grid = np.linspace(0.0, 1.0, 101)
    empty = InitialProfile.empty()
    schedules = {"homogeneous": verify.classical_schedule(),
                 "figure1": verify.figure1_schedule()}
    series = {}

    def reference(preset):
        if preset not in series:
            if preset == "geometric":        # q(k) = 2^-k, gamma_i = 2^-(i+1)
                i = np.arange(200)
                series[preset] = straight_path_series(0.5 ** (i + 1), 0.5 ** 200, 1.0)
            else:
                series[preset] = _series_of_law(
                    lln.stretched_exponential(float(preset.split(":")[1])))
        return series[preset]

    def lln_slices(out_dir):
        report = _json(out_dir / "lln_summary.json")
        expect(len(report["files"]) == 3, f"{len(report['files'])} slice files")
        expect(float(report["mass_deviation"]) <= LLN_ZERO,
               f"mass deviation {report['mass_deviation']}")
        for name in report["files"]:
            rows = np.loadtxt(name, delimiter=",", skiprows=1, ndmin=2)
            expect(rows.shape == (ROUTE_D + 1, 4), f"{Path(name).name} shape {rows.shape}")
            cum, low, high = rows[:, 1], rows[:, 2], rows[:, 3]
            expect(bool((low <= cum + 1e-9).all() and (cum <= high + 1e-9).all()),
                   f"envelopes do not bracket the partial sums in {Path(name).name}")

    def envelope(out_dir):
        report = _json(out_dir / "envelope.json")
        betas = [b for _, _, b in FIGURE1]
        p = FIGURE1[0][1]
        # density exponent of the constant-coefficient law: 1 + (1+beta)/(1-p)
        want = (1 + (1 + min(betas)) / (1 - p), 1 + (1 + max(betas)) / (1 - p))
        got = (float(report["lower_tail_exponent"]), float(report["upper_tail_exponent"]))
        expect(want == (3.0, 10.0) and max(abs(g - w) for g, w in zip(got, want)) <= 1e-12,
               f"tail exponents {got}, want {want}")

    def lln_rate(out_dir):
        report = _json(out_dir / "rate.json")
        expect(not report["diverged"] and abs(float(report["value"])) <= LLN_ZERO,
               f"limit path costs {report['value']}")

    def iinf(preset, want):
        def check(out_dir):
            report = _json(out_dir / "rate.json")
            value = float(report["value"])
            target = want()
            expect(report["converged"], "trace not converged")
            expect(abs(value - target) <= RATE_TOL,
                   f"I_inf = {value!r}, closed series {target!r}, "
                   f"gap {target - value:.2e} > tol {RATE_TOL}")
        return _cli_op(f"rate-{preset.replace(':', '-')}", ("rate", "--preset", preset), check)

    def path_rate(d):
        def check(out_dir):
            report = _json(out_dir / "rate.json")
            value = float(report["value"])
            expect(report["d"] == d and not report["diverged"], f"bad report {report}")
            expect(math.isfinite(value) and value >= 0.0, f"rate {value}")
            if d == PATH_D:
                proj = _json(out_dir.parent / f"rate-path-d{PROJ_D}" / "rate.json")
                slack = float(report["error"]) + float(proj["error"]) + 1e-12
                expect(value >= float(proj["value"]) - slack,
                       f"I_{d} = {value} below its projection's I_{PROJ_D} = {proj['value']}")
        return _cli_op(f"rate-path-d{d}", ("rate", "--config", str(configs[d])), check)

    def routes(label):
        sched = schedules[label]

        def run(out_dir):
            return (lln.solve_lln_closed(ROUTE_D, sched, empty, grid=grid),
                    lln.solve_lln_numeric(ROUTE_D, sched, empty, grid=grid))

        def check(out_dir, sols):
            closed, numeric = sols
            gap = float(np.abs(closed.values - numeric.values).max())
            expect(gap <= ROUTES_AGREE, f"closed and ODE routes differ by {gap:.2e}")
            if label == "homogeneous":
                i = np.arange(11)
                err = np.abs(closed.values[-1, :11] - 4.0 / ((i + 1) * (i + 2) * (i + 3)))
                expect(float(err.max()) <= 1e-6, f"stationary fractions off by {err.max():.2e}")
        name = f"lln-routes-{label}"
        return Op(name, run, _single(name, check))

    return [
        _cli_op("lln-figure1", ("lln", "--preset", "figure1", "--d", str(ROUTE_D)), lln_slices),
        _cli_op("envelope-figure1", ("envelope", "--preset", "figure1", "--d", str(ROUTE_D)),
                envelope),
        _cli_op("rate-lln-homogeneous", ("rate", "--preset", "lln", "--d", str(PATH_D)),
                lln_rate),
        _cli_op("rate-lln-figure1", ("rate", "--config", str(fig1_cfg), "--preset", "lln",
                                     "--d", str(PATH_D)), lln_rate),
        iinf("star", lambda: math.log(2.0)),
        iinf("geometric", lambda: reference("geometric")),
        iinf("stretched:0.5", lambda: reference("stretched:0.5")),
        iinf("stretched:0.7", lambda: reference("stretched:0.7")),
        path_rate(PROJ_D),
        path_rate(PATH_D),
        routes("homogeneous"),
        routes("figure1"),
    ]


# -- battery -------------------------------------------------------------------

RATIOS = re.compile(r"ratios at t=[^:]*: ([0-9., ]+) \(")


def setup_battery(seed: int, work_dir: Path) -> list:
    """The battery draws its own fixed seeds; the benchmark seed is unused."""

    def check(out_dir, results):
        outcomes = []
        for k in range(1, len(verify.CRITERIA) + 1):
            name = f"criterion-{k:02d}"
            if k > len(results):
                outcomes.append((name, "no result"))
                continue
            res = results[k - 1]
            if k == 5:
                # documented expected failure: the ledger overshoots its tail
                # bound by exactly (d+2)/(d+1) at d = 30
                found = RATIOS.search(res.details)
                ratios = [float(x) for x in found.group(1).split(",")] if found else []
                ok = (not res.passed and res.expected_failure and len(ratios) == 3
                      and all(abs(r - 32 / 31) <= 1e-6 for r in ratios))
            else:
                ok = res.passed and not res.skipped
            outcomes.append((name, None if ok else res.line()))
        return outcomes

    return [Op("verify-default", lambda out_dir: verify.run_all("default"), check,
               outcomes=len(verify.CRITERIA))]


WORKLOADS = {"simulate": setup_simulate, "rate": setup_rate, "battery": setup_battery}
