"""Acceptance battery: one test per advertised numerical guarantee.

Each test runs the corresponding check at full budget and prints its
pass/fail line (visible with -s, or via the `urnrates verify` command).
The conservation check (criterion 5) is a strict expected failure: the
truncated weight ledger overshoots its tail bound by the analytic factor
(d+2)/(d+1), which no finite truncation can avoid; it is kept failing
rather than loosened.
"""
import pytest

from urnrates import lln, oracle, verify


def _run(criterion):
    res = criterion("default")
    print(res.line())
    return res


def test_criterion_01_limit_path_has_zero_rate():
    res = _run(verify.criterion_1)
    assert res.passed, res.line()


def test_criterion_01_builds_one_lln_kernel_per_schedule(monkeypatch):
    # d = 0, 5 and 20 come from one kernel, so one graded grid per schedule
    calls = []
    graded_grid = lln.graded_grid
    monkeypatch.setattr(lln, "graded_grid",
                        lambda *a, **k: calls.append(a) or graded_grid(*a, **k))
    assert verify.criterion_1().passed
    assert len(calls) == 2


def test_criterion_04_enumerates_each_law_once(monkeypatch):
    calls = []
    enumerate_exact = oracle.enumerate_exact
    monkeypatch.setattr(oracle, "enumerate_exact",
                        lambda *a, **k: calls.append(a[0]) or enumerate_exact(*a, **k))
    assert verify.criterion_4().passed
    assert sorted(calls) == list(range(2, 11))


def test_criterion_02_star_rate_matches_analytic_value():
    res = _run(verify.criterion_2)
    assert res.passed, res.line()


def test_criterion_03_star_probability_halves_each_step():
    res = _run(verify.criterion_3)
    assert res.passed, res.line()
    assert "2^-n" in res.details


def test_criterion_04_straight_road_rate_diverges():
    res = _run(verify.criterion_4)
    assert res.passed, res.line()


@pytest.mark.xfail(strict=True,
                   reason="truncated weight ledger exceeds the (d+1)*aggregate "
                          "tail bound by the analytic factor (d+2)/(d+1)")
def test_criterion_05_weight_conservation_within_tail_bound():
    res = _run(verify.criterion_5)
    assert res.passed, res.line()


def test_criterion_06_stationary_occupancy_fractions():
    res = _run(verify.criterion_6)
    assert res.passed, res.line()


def test_criterion_07_envelopes_bracket_the_solution():
    res = _run(verify.criterion_7)
    assert res.passed, res.line()


def test_criterion_08_rate_monotone_in_truncation():
    res = _run(verify.criterion_8)
    assert res.passed, res.line()


def test_criterion_09_simulator_matches_oracle():
    res = _run(verify.criterion_9)
    assert res.passed, res.line()


def test_criterion_10_stretched_exponential_target():
    res = _run(verify.criterion_10)
    assert res.passed, res.line()


def test_criterion_11_paths_concentrate_near_limit():
    res = _run(verify.criterion_11)
    assert res.passed, res.line()


def test_battery_names_are_stable():
    results = verify.run_all("reduced")
    assert len(results) == 11
    assert [r.name.split()[1] for r in results] == [str(k) for k in range(1, 12)]
    # run_all times each criterion, skipped ones included
    assert all(r.seconds > 0.0 for r in results)
