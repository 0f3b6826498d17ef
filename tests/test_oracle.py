import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path as FsPath

import pytest
from numpy.testing import assert_allclose

import urnrates
from urnrates import oracle
from urnrates.model import Schedule
from urnrates.oracle import (
    enumerate_exact,
    enumerate_naive,
    rate_readout,
    star_probability,
    straight_road_probability,
)

CLASSICAL = Schedule.constant(0.0, 1.0)
# constant -> polynomial with p > 0 -> constant
POLYNOMIAL = [(0.0, 0.0, 8.0), (0.3, (0.1, 0.2), (1.0, 0.5)), (0.7, 0.2, 2.0)]


def test_rational_enumeration_is_exact():
    dist = enumerate_exact(8, 1, CLASSICAL, (2, 0, 0))
    assert dist.total() == Fraction(1)
    assert all(isinstance(p, Fraction) and p > 0 for p in dist.atoms.values())
    # urn count is deterministic: 2 initial + 8 added
    assert all(sum(key) == 10 for key in dist.atoms)


def test_two_steps_by_hand():
    # from two empty urns: first ball surely starts a singleton; second
    # ball picks empty vs the singleton with weights 2 : 2 out of s = 4
    dist = enumerate_exact(2, 1, CLASSICAL, (2, 0, 0))
    assert dist.atoms == {(2, 2, 0): Fraction(1, 2), (3, 0, 1): Fraction(1, 2)}


def test_merged_equals_naive_enumeration():
    # p > 0 and beta = 1.5 put P != 0 and Dp, Db != 1 into the integer
    # weights; the polynomial segment puts values of t**k into them
    for specs in ([(0.0, 0.25, 2.0), (0.5, 0.0, 1.0)],
                  [(0.0, 0.25, 1.5), (0.5, 0.1, 0.75)],
                  [(0.0, 0.3, 2.5)],
                  POLYNOMIAL):
        sched = Schedule.from_segments(specs)
        for n, d, init in [(5, 1, (2, 0, 0)), (6, 2, (1, 1, 0, 0)), (4, 0, (3, 0))]:
            exact = enumerate_exact(n, d, sched, init).atoms
            assert exact == enumerate_naive(n, d, sched, init).atoms


@pytest.mark.parametrize("n", [1, 4, 10])
@pytest.mark.parametrize("d, init", [(2, (2, 0, 0, 0)), (0, (1, 2))])
def test_marked_law_sums_to_count_law(n, d, init):
    # marking one urn refines the count chain: summed over the marked
    # urn's balls, its law is the count law, exactly
    sched = Schedule.from_segments([(0.0, 0.25, 1.5), (0.5, 0.1, 0.75)])
    summed = {}
    for (counts, _), prob in enumerate_exact(n, d, sched, init, marked=True).atoms.items():
        summed[counts] = summed.get(counts, 0) + prob
    assert summed == enumerate_exact(n, d, sched, init).atoms


@pytest.mark.parametrize("name, marked", [("_count_weights", False),
                                          ("_marked_weights", True)])
def test_exact_mode_certifies_move_weights(monkeypatch, name, marked):
    # a weight function that loses a move no longer sums to its total
    weigh = getattr(oracle, name)
    monkeypatch.setattr(oracle, name, lambda *args: weigh(*args)[:-1])
    with pytest.raises(RuntimeError, match="do not sum"):
        enumerate_exact(4, 1, CLASSICAL, (2, 0, 0), marked=marked)


def test_star_probability_exact_halving():
    for n in range(1, 7):
        assert star_probability(n, CLASSICAL) == Fraction(1, 2 ** n)


def test_star_probability_under_new_urns_and_fractional_beta():
    # the marked urn holds all j balls before step j, among 2 + j urns:
    # it gets the next one with probability (1-p)(j+beta)/(j + beta(2+j)).
    # p > 0 and beta != 1 put P != 0 and Db != 1 into the marked move,
    # and d = 2 takes the marked urn into the aggregate slot
    sched = Schedule.from_segments([(0.0, 0.25, 1.5), (0.5, 0.1, 0.75)])
    for n in range(1, 11):
        expected = Fraction(1)
        for j in range(n):
            p, beta = sched.values_exact(Fraction(j, n))
            expected *= (1 - p) * (j + beta) / (j + beta * (2 + j))
        assert star_probability(n, sched) == expected


def test_straight_road_probability_factorial():
    for n in range(1, 7):
        assert straight_road_probability(n, CLASSICAL) == Fraction(1, math.factorial(n))


def test_marked_event_differs_from_count_event():
    # all four balls in one urn: the count event includes either of the
    # two initial empties winning, the marked event fixes which one
    count_event = enumerate_exact(4, 2, CLASSICAL, (2, 0, 0, 0)).probability(
        lambda c: c == (5, 0, 0, 1))
    assert count_event == Fraction(1, 8)
    assert star_probability(4, CLASSICAL) == Fraction(1, 16)


def test_marking_requires_empty_urn():
    with pytest.raises(ValueError):
        enumerate_exact(3, 1, CLASSICAL, (0, 2, 0), marked=True)


@pytest.mark.parametrize("counts", [(0, 0, 0, 0), (1, 0, 0, -1)])
def test_invalid_initial_counts_are_rejected(counts):
    # no urn to select from, and a negative count
    with pytest.raises(ValueError):
        enumerate_exact(3, 2, CLASSICAL, counts)
    with pytest.raises(ValueError):
        enumerate_naive(3, 2, CLASSICAL, counts)


def test_enumeration_budget_guard(monkeypatch):
    with pytest.raises(ValueError, match="budget"):
        enumerate_exact(15, 1, CLASSICAL, (2, 0, 0))
    with pytest.raises(ValueError, match="budget"):
        enumerate_exact(3, 3, CLASSICAL, (2, 0, 0, 0, 0))
    monkeypatch.setattr(oracle, "DEFAULT_MAX_N", 16)
    assert enumerate_exact(16, 1, CLASSICAL, (2, 0, 0)).total() == 1
    with pytest.raises(ValueError):
        enumerate_naive(7, 1, CLASSICAL, (2, 0, 0))


def test_empirical_rate_star_is_flat_log2():
    n_list = [2, 4, 6, 8]
    out = rate_readout(n_list, [float(star_probability(n, CLASSICAL)) for n in n_list])
    assert_allclose(out.rates, math.log(2.0), rtol=1e-12)
    assert_allclose(out.extrapolated, math.log(2.0), rtol=1e-12)
    assert not out.increasing and not out.diverging


def test_empirical_rate_road_diverges():
    n_list = [2, 4, 6, 8, 10]
    out = rate_readout(n_list, [float(straight_road_probability(n, CLASSICAL))
                                for n in n_list])
    expected = [math.log(math.factorial(n)) / n for n in n_list]
    assert_allclose(out.rates, expected, rtol=1e-12)
    assert out.increasing and out.diverging


def test_oracle_never_loads_the_simulator():
    # the exact oracle is the simulator's independent check: a fresh
    # interpreter that enumerates and reads out rates with it must not have
    # imported the simulator
    src = str(FsPath(urnrates.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = """
import sys
from urnrates import oracle
from urnrates.model import Schedule
sched = Schedule.constant(0.0, 1.0)
oracle.rate_readout([2, 3], [float(oracle.straight_road_probability(n, sched)) for n in (2, 3)])
oracle.star_probability(3, sched)
print(" ".join(sorted(m for m in sys.modules if m.startswith("urnrates"))))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "urnrates.oracle" in loaded and "urnrates.simulator" not in loaded
