"""Print one `name sha256` line per canonical urnrates output.

Runs the commands below in-process into a temporary directory and hashes
what each writes (the verify battery: its printed lines, timings
stripped; one command rates a seeded path read from a CSV), then the
exact oracle's terminal atoms on a piecewise-constant and on the
polynomial schedule, then the ODE route's values on figure 1
and on the polynomial config, then the power-series route's values on
the rated limit path's knots on figure 1, on the
polynomial config and on the homogeneous schedule from a nonempty
profile, then the streamed tube
distances of an ensemble around figure 1's limit path, then the
admissibility verdicts and rates of seeded short paths, then those of
seeded paths within PATH_TOL of the admissible class.
Run it on two checkouts and diff the listings to check that a change
leaves the numbers byte-identical:

    PYTHONPATH=src python tools/fingerprint.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python tools/fingerprint.py > before.txt
    diff before.txt after.txt

It stores no outputs and asserts nothing.
"""
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from urnrates import cli, lln, model, oracle, rate, simulator, verify
from urnrates.model import Schedule, config_from_dict

FIGURE1 = {"schedule": [{"t_start": 0.0, "p": 0.0, "beta": 8.0},
                        {"t_start": 0.01, "p": 0.0, "beta": 1.0}]}
# constant -> polynomial -> constant, from a nonempty profile
POLYNOMIAL = {"schedule": [{"t_start": 0.0, "p": 0.0, "beta": 8.0},
                           {"t_start": 0.3, "p": [0.1, 0.2], "beta": [1.0, 0.5]},
                           {"t_start": 0.7, "p": 0.2, "beta": 2.0}],
              "profile": {"c": [0.3, 0.1, 0.05]}}
# two constant segments with p > 0, from a nonempty profile
TWO_STEP = {"schedule": [{"t_start": 0, "p": 0.2, "beta": 1.5},
                         {"t_start": 0.4, "p": 0.05, "beta": 0.5}],
            "profile": {"c": [0.3, 0.1, 0.05]}}
# the homogeneous schedule from a nonempty profile: series steps from t = 0
HOMOGENEOUS_PROFILE = {"schedule": [{"t_start": 0.0, "p": 0.0, "beta": 1.0}],
                       "profile": {"c": [0.3, 0.1, 0.05]}}
# the polynomial schedule from empty, where a law preset's straight path starts
POLYNOMIAL_EMPTY = {"schedule": POLYNOMIAL["schedule"]}
# rates the seeded path that path_csv() writes, on the classical schedule
PATH_CSV = {"rate": {"path_csv": "path.csv"}}
CONFIGS = {"figure1.json": FIGURE1, "polynomial.json": POLYNOMIAL, "two-step.json": TWO_STEP,
           "polynomial-empty.json": POLYNOMIAL_EMPTY, "path-csv.json": PATH_CSV}

RUNS = [
    ("simulate-figure1-n20000", ["simulate", "--preset", "figure1", "--n", "20000"]),
    # a nonempty profile and a polynomial segment with p > 0
    ("simulate-polynomial-n5000", ["simulate", "--config", "polynomial.json", "--n", "5000"]),
    # moves deep into the law, ending on a partial block of steps
    ("simulate-figure1-n3000-d30",
     ["simulate", "--preset", "figure1", "--n", "3000", "--d", "30"]),
    ("simulate-figure1-n2000-samples10000",
     ["simulate", "--preset", "figure1", "--n", "2000", "--samples", "10000"]),
    # a terminal ensemble at d = 8, whose states pass 118 urns, from where
    # (urns+1)**(d+1) > 2**62: shows a change to the merged phase at depth
    ("simulate-figure1-n300-d8-samples2000",
     ["simulate", "--preset", "figure1", "--n", "300", "--d", "8", "--samples", "2000"]),
    ("lln-figure1-d30", ["lln", "--preset", "figure1", "--d", "30"]),
    ("lln-polynomial-d12", ["lln", "--config", "polynomial.json", "--d", "12"]),
    # deep levels from the profile, where the envelope transients carry far
    ("lln-polynomial-d60", ["lln", "--config", "polynomial.json", "--d", "60"]),
    ("envelope-figure1-d30", ["envelope", "--preset", "figure1", "--d", "30"]),
    # criterion 1's six cases, which verify prints to 4 significant digits
    *((f"rate-lln-homogeneous-d{d}", ["rate", "--preset", "lln", "--d", str(d)])
      for d in (0, 5, 20)),
    *((f"rate-lln-figure1-d{d}",
       ["rate", "--config", "figure1.json", "--preset", "lln", "--d", str(d)])
      for d in (0, 5, 20)),
    # the Gauss-Kronrod route, which polynomial segments take
    ("rate-lln-polynomial-d2",
     ["rate", "--config", "polynomial.json", "--preset", "lln", "--d", "2"]),
    # the exact route with p > 0 from a nonempty profile
    ("rate-lln-two-step-d2",
     ["rate", "--config", "two-step.json", "--preset", "lln", "--d", "2"]),
    # the path CSV parser, on 17-digit cells
    ("rate-path-csv", ["rate", "--config", "path-csv.json"]),
    ("rate-geometric", ["rate", "--preset", "geometric"]),
    ("rate-star", ["rate", "--preset", "star"]),
    *((f"rate-stretched-{r}", ["rate", "--preset", f"stretched:{r}"])
      for r in ("0.5", "0.7", "0.8")),
    # the I_inf ladder on Kronrod's route, which polynomial segments take
    ("rate-geometric-polynomial",
     ["rate", "--config", "polynomial-empty.json", "--preset", "geometric"]),
    ("verify-default", ["verify", "--budget", "default"]),
]

# p > 0 and a non-integer beta, so the exact weights carry denominators
ORACLE_SCHEDULE = [(0.0, 0.25, 1.5), (0.5, 0.1, 0.75)]

# "1.2s" wall-clock figures inside the verify lines
TIMING = re.compile(r", [0-9.]+s\b")


def run(name: str, argv: list) -> str:
    """sha256 over the exit code and the files the command wrote, in name
    order; for verify, over its printed lines with the timings removed."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([*argv, "--out", name])
    # verify exits 1 on its documented expected failure: hash the code too
    digest = hashlib.sha256(f"exit {code}\n".encode())
    if argv[0] == "verify":
        digest.update(TIMING.sub("", stdout.getvalue()).encode())
    else:
        for path in sorted(p for p in Path(name).rglob("*") if p.is_file()):
            digest.update(str(path).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def path_csv(fname: str, knots: int = 400, d: int = 5) -> None:
    """Write a seeded admissible path from the empty state, one repr cell
    per value: on each piece the slopes of x_0..x_d, x_bar are
    1 - a_0, a_0 - a_1, ..., a_{d-1} - a_d, a_d for a decreasing
    Dirichlet draw a, so every partial sum of the slope lies in [0, 1]."""
    rng = np.random.default_rng(2024)
    # one knot in the middle part of each of knots - 1 equal cells, so no
    # piece is short enough for rounding to spoil its slopes
    inner = (np.arange(1, knots - 1) + rng.uniform(0.1, 0.9, knots - 2)) / (knots - 1)
    times = np.concatenate([[0.0], inner, [1.0]])
    lead = -np.sort(-rng.dirichlet(np.ones(d + 2), size=knots - 1)[:, : d + 1], axis=1)
    slopes = np.column_stack([1.0 - lead[:, 0], lead[:, :-1] - lead[:, 1:], lead[:, -1]])
    values = np.zeros((knots, d + 2))
    values[1:] = np.cumsum(slopes * np.diff(times)[:, None], axis=0)
    rows = [["t"] + [f"x_{i}" for i in range(d + 1)] + ["x_bar"]]
    rows += [[repr(x) for x in row] for row in np.column_stack([times, values]).tolist()]
    Path(fname).write_text("".join(",".join(row) + "\n" for row in rows))


def oracle_atoms(schedule: Schedule) -> str:
    """sha256 over the sorted exact terminal atoms of the count chain and
    the marked chain at n = 10, d = 2, from two empty urns."""
    digest = hashlib.sha256()
    for marked in (False, True):
        dist = oracle.enumerate_exact(10, 2, schedule, (2, 0, 0, 0), marked=marked)
        digest.update(repr(sorted(dist.atoms.items())).encode())
    return digest.hexdigest()


def ode_route(config: dict, d: int) -> str:
    """sha256 over the ODE route's values at depth d on 101 equally spaced
    times (no subcommand runs that route)."""
    schedule, profile, _ = config_from_dict(config)
    sol = lln.solve_lln_numeric(d, schedule, profile, grid=np.linspace(0.0, 1.0, 101))
    return hashlib.sha256(sol.values.tobytes()).hexdigest()


def series_route(config: dict) -> str:
    """sha256 over the power-series route's values at d = 20 on
    graded_grid's knots at lln.LIMIT_PATH_SPACING, the rated limit path's
    (solve_lln_closed's default)."""
    schedule, profile, _ = config_from_dict(config)
    sol = lln.solve_lln_closed(20, schedule, profile)
    return hashlib.sha256(sol.values.tobytes()).hexdigest()


def tube_distances(config: dict) -> str:
    """sha256 over the per-replica sup-L1 distances of 1000 replicas from
    two empty urns, n = 2000, d = 5, to the closed-form limit path on the
    lattice (the streamed observer loop of the tube estimate)."""
    n, d = 2000, 5
    schedule, profile, _ = config_from_dict(config)
    center = lln.solve_lln_closed(d, schedule, profile, grid=np.arange(n + 1) / n).path()
    dist = simulator.ensemble_sup_l1_distance(center, n, d, schedule, (2,) + (0,) * (d + 1),
                                              1000, seed=11)
    return hashlib.sha256(dist.tobytes()).hexdigest()


def admissibility() -> str:
    """sha256 over validate_path's verdict and violation names and
    path_rate's (value, diverged, renormalized) on the homogeneous schedule
    from the empty state, for 960 seeded 1-3-piece paths at d <= 7:
    criterion 8's admissible paths, raw Dirichlet slopes (often not
    admissible) and admissible slopes moved by 1e-3 along a zero-sum
    direction."""
    rng = np.random.default_rng(20261020)
    schedule, profile = verify.classical_schedule(), model.InitialProfile.empty()
    paths = []
    for d in range(8):
        for _ in range(40):
            paths.append(verify._random_admissible_path(rng, d))
            pieces = int(rng.integers(1, 4))
            knots = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, pieces - 1)),
                                    [1.0]])
            raw = rng.dirichlet(np.ones(d + 2), size=pieces)
            moved = verify._random_admissible_path(rng, d).slopes[:pieces]
            noise = rng.normal(size=moved.shape)
            noise -= noise.mean(axis=1, keepdims=True)
            moved += 1e-3 * noise / np.abs(noise).max()
            for slopes in (raw, moved):
                values = np.zeros((pieces + 1, d + 2))
                values[1:] = np.cumsum(slopes * np.diff(knots)[:, None], axis=0)
                paths.append(model.Path.from_knots(knots, values))
    digest = hashlib.sha256()
    for path in paths:
        check = model.validate_path(path, profile)
        rep = rate.path_rate(path, schedule, profile)
        digest.update(repr((check.is_admissible, [v[0] for v in check.violations],
                            rep.value, rep.diverged, rep.renormalized)).encode())
    return digest.hexdigest()


def projection() -> str:
    """sha256 over validate_path's verdict and both I_d routes' (value,
    diverged) on 90 seeded admissible paths moved by at most PATH_TOL/2,
    three kinds in turn at d = 1..5: from a nonempty profile, a first
    piece that draws slot j down to -delta at its end knot and a second
    that stops drawing it (p = 0.2, beta = 1); criterion 8's path from the
    empty state shifted by a vector within delta; and that path with every
    slope scaled by 1 +- delta (the homogeneous schedule)."""
    rng = np.random.default_rng(39)
    drain, homogeneous = Schedule.constant(0.2, 1.0), verify.classical_schedule()
    digest = hashlib.sha256()
    for n in range(90):
        d = 1 + n // 3 % 5
        delta = 0.5 * model.PATH_TOL * rng.uniform(0.0, 1.0)
        if n % 3 == 0:
            f = model.increments(d)
            j = int(rng.integers(1, d + 1))
            while True:
                c = rng.uniform(0.02, 0.1, d + 2)
                nu1, nu2 = rng.dirichlet(np.ones(d + 2), size=2)
                nu1[j - 1] = 0.0
                nu1[j] += 1.0
                nu1 /= nu1.sum()
                nu2[j] = 0.0
                nu2 /= nu2.sum()
                t1 = (c[j] + delta) / nu1[j]
                x1 = c + t1 * (nu1 @ f)
                x1[j] = -delta
                x2 = x1 + (1.0 - t1) * (nu2 @ f)
                if t1 < 0.95 and np.delete(np.stack([x1, x2]), j, axis=1).min() >= 0.0:
                    break
            path = model.Path.from_knots([0.0, t1, 1.0], [c, x1, x2])
            schedule, profile = drain, model.InitialProfile.from_masses(c)
        else:
            base = verify._random_admissible_path(rng, d)
            values = (base.values + rng.uniform(-delta, delta, d + 2) if n % 3 == 1
                      else base.values * (1.0 + rng.choice([-delta, delta])))
            path = model.Path.from_knots(base.times, values)
            schedule, profile = homogeneous, model.InitialProfile.empty()
        exact = rate.path_rate_exact(path, schedule, profile)
        quad = rate.path_rate_Id(path, schedule, profile)
        digest.update(repr((model.validate_path(path, profile).is_admissible,
                            exact.value, exact.diverged, quad.value, quad.diverged)).encode())
    return digest.hexdigest()


def main() -> int:
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)        # relative paths keep the JSON outputs comparable
        try:
            for fname, cfg in CONFIGS.items():
                Path(fname).write_text(json.dumps(cfg))
            path_csv(PATH_CSV["rate"]["path_csv"])
            for name, argv in RUNS:
                print(name, run(name, argv), flush=True)
        finally:
            os.chdir(here)
    print("oracle-exact-n10-d2", oracle_atoms(Schedule.from_segments(ORACLE_SCHEDULE)),
          flush=True)
    print("oracle-exact-polynomial-n10-d2", oracle_atoms(config_from_dict(POLYNOMIAL)[0]),
          flush=True)
    print("lln-ode-figure1-d30", ode_route(FIGURE1, 30), flush=True)
    # steps a polynomial segment and lands on both of its breakpoints
    print("lln-ode-polynomial-d12", ode_route(POLYNOMIAL, 12), flush=True)
    print("lln-series-figure1-d20", series_route(FIGURE1), flush=True)
    print("lln-series-polynomial-d20", series_route(POLYNOMIAL), flush=True)
    print("lln-series-homogeneous-profile-d20", series_route(HOMOGENEOUS_PROFILE), flush=True)
    print("tube-distances-figure1-n2000-d5", tube_distances(FIGURE1), flush=True)
    print("admissibility", admissibility(), flush=True)
    print("projection", projection(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
