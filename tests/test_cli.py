import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import urnrates
from urnrates import cli
from urnrates.cli import main


def read_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    return header, rows


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_simulate_outputs_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = main(["simulate", "--n", "200", "--d", "3", "--seed", "11",
                     "--out", str(out)])
        assert code == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    header, rows = read_csv(a / "trajectory.csv")
    assert header == ["t", "x_0", "x_1", "x_2", "x_3", "x_bar"]
    assert len(rows) == 201
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 1.0
    # scaled counts start from the two-empty-urn seed and conserve urns
    assert_allclose([float(x) for x in rows[0][1:]], [2 / 200, 0, 0, 0, 0])
    totals = np.array([[float(x) for x in r[1:]] for r in rows]).sum(axis=1)
    assert_allclose(totals, (2 + np.arange(201)) / 200, atol=1e-12)

    summary = read_json(a / "summary.json")
    assert summary["schema_version"] == 1
    assert summary["seed"] == 11
    assert sum(summary["terminal_state"]) == 202


def test_simulate_seed_changes_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--n", "100", "--seed", "1", "--out", str(a)])
    main(["simulate", "--n", "100", "--seed", "2", "--out", str(b)])
    assert (a / "trajectory.csv").read_bytes() != (b / "trajectory.csv").read_bytes()


def test_cached_parser_keeps_no_state_between_calls(tmp_path):
    # main parses with one parser per process; a value given to one call,
    # even one that ended in a usage error, must not reach the next
    calls = [["simulate", "--seed", "5"], ["simulate", "--seed", "9", "--budget", "x"],
             ["simulate"], ["rate", "--preset", "star"], ["rate", "--preset", "geometric"]]

    def run_all(root, fresh):
        files = []
        for i, argv in enumerate(calls):
            if fresh:
                cli.build_parser.cache_clear()
            out = root / str(i)
            if "--budget" in argv:       # simulate has no --budget
                with pytest.raises(SystemExit) as exc:
                    main(argv + ["--out", str(out)])
                assert exc.value.code == 2
            else:
                assert main(argv + ["--out", str(out)]) == 0
            files.append({f.name: f.read_bytes() for f in sorted(out.glob("*"))})
        return files

    together = run_all(tmp_path / "together", fresh=False)
    assert together == run_all(tmp_path / "separate", fresh=True)
    assert json.loads(together[2]["summary.json"])["seed"] == 0


def test_simulate_takes_a_seed_beyond_array_sizes(tmp_path):
    # n, samples and d are array sizes and stop at np.intp's largest value;
    # a seed is not one, and numpy takes any nonnegative integer
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulate": {"n": 20, "seed": HUGE}}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "summary.json").read_text())["seed"] == HUGE


def test_simulate_histogram_counts_samples(tmp_path):
    code = main(["simulate", "--n", "12", "--d", "1", "--samples", "50",
                 "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    hist = read_json(tmp_path / "summary.json")["terminal_histogram"]
    assert sum(hist.values()) == 50
    for key in hist:
        counts = [int(x) for x in key.split(",")]
        assert len(counts) == 3 and sum(counts) == 14


def test_lln_two_phase_slices(tmp_path):
    code = main(["lln", "--preset", "figure1", "--out", str(tmp_path)])
    assert code == 0
    report = read_json(tmp_path / "lln_summary.json")
    assert report["times"] == [0.01, 0.1, 1.0]
    assert report["mass_deviation"] < 1e-8
    for t in ("0.01", "0.1", "1"):
        header, rows = read_csv(tmp_path / f"lln_t{t}.csv")
        assert header == ["k", "cumulative_value", "envelope_low", "envelope_high"]
        assert len(rows) == 31
        cum = np.array([float(r[1]) for r in rows])
        lo = np.array([float(r[2]) for r in rows])
        hi = np.array([float(r[3]) for r in rows])
        assert np.all(np.diff(cum) >= -1e-12)   # partial sums
        assert np.all(lo <= cum + 1e-9) and np.all(cum <= hi + 1e-9)


def test_lln_time_zero_slice_returns_profile(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schedule": [{"t_start": 0.0, "p": 0.0, "beta": 1.0}],
        "profile": {"c": [0.2, 0.1, 0.05]},
        "lln": {"d": 4, "times": [0.0, 1.0]},
    }))
    assert main(["lln", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "lln_t0.csv")
    cum = [float(r[1]) for r in rows]
    assert_allclose(cum, np.cumsum([0.2, 0.1, 0.05, 0.0, 0.0]), atol=1e-12)


def test_envelope_homogeneous_collapse_and_tail(tmp_path):
    code = main(["envelope", "--preset", "homogeneous", "--d", "230",
                 "--out", str(tmp_path)])
    assert code == 0
    report = read_json(tmp_path / "envelope.json")
    assert report["lower_tail_exponent"] == 3.0
    assert report["upper_tail_exponent"] == 3.0
    eta = np.array(report["eta"])
    assert_allclose(eta, report["eta_prime"], rtol=1e-12)
    # terminal occupancy complement ~ k^-2: endpoint log-log slope near -2
    comp = 1.0 - np.cumsum(eta)
    slope = (math.log(comp[200]) - math.log(comp[20])) / (math.log(200) - math.log(20))
    assert abs(slope - (-2.0)) < 0.15
    header, rows = read_csv(tmp_path / "envelope_slopes.csv")
    assert header == ["k", "slope_low", "slope_high"]
    assert len(rows) == 231


def test_envelope_solves_no_lln(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.lln, "solve_lln_closed", lambda *a, **k: calls.append(a))
    assert main(["envelope", "--preset", "figure1", "--out", str(tmp_path)]) == 0
    assert calls == []


def test_rate_preset_star(tmp_path):
    assert main(["rate", "--preset", "star", "--out", str(tmp_path)]) == 0
    report = read_json(tmp_path / "rate.json")
    assert_allclose(report["value"], math.log(2.0), rtol=1e-12)
    assert_allclose(report["condensation_term"], math.log(2.0), rtol=1e-6)
    assert report["converged"] is True
    assert_allclose(report["escape_mass"], 1.0)
    assert report["method"] == "kronrod"


def test_rate_preset_road_is_inf_string(tmp_path):
    assert main(["rate", "--preset", "straight-road", "--out", str(tmp_path)]) == 0
    raw = (tmp_path / "rate.json").read_text()
    assert '"value": "inf"' in raw
    assert read_json(tmp_path / "rate.json")["value"] == "inf"


def test_rate_preset_geometric(tmp_path):
    assert main(["rate", "--preset", "geometric", "--out", str(tmp_path)]) == 0
    report = read_json(tmp_path / "rate.json")
    exact = math.log(2.0) - math.fsum(
        2.0 ** -(i + 1) * math.log(i + 1.0) for i in range(1, 80))
    assert abs(report["value"] - exact) < 1e-6
    # the ladder d = 0, 1, 2, 4, ..., 128 up to the law's own depth 199
    trace = report["trace"]
    assert trace[0][0] == 0 and trace[-1][0] == 199
    assert report["converged"] is True and trace[-1][1] == report["value"]


def test_rate_preset_lln_is_zero(tmp_path):
    # on figure 1's schedule: the homogeneous limit path is one linear piece
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schedule": [{"t_start": 0.0, "p": 0.0, "beta": 8.0},
                                            {"t_start": 0.01, "p": 0.0, "beta": 1.0}]}))
    out = tmp_path / "out"
    assert main(["rate", "--config", str(cfg), "--preset", "lln", "--d", "10",
                 "--out", str(out)]) == 0
    report = read_json(out / "rate.json")
    assert abs(report["value"]) < 1e-8
    assert report["diverged"] is False
    # a piecewise-constant schedule takes the closed-form route; the
    # interpolated limit path's slopes carry sum noise that _piece_laws
    # rescales
    assert report["method"] == "exact" and report["error"] == 0.0
    assert 0 < report["renormalized"] < report["num_panels"]


def test_rate_on_polynomial_schedule_uses_kronrod(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schedule": [{"t_start": 0.0, "p": 0.0, "beta": 8.0},
                     {"t_start": 0.3, "p": [0.1, 0.2], "beta": [1.0, 0.5]},
                     {"t_start": 0.7, "p": 0.2, "beta": 2.0}],
        "profile": {"c": [0.3, 0.1, 0.05]}}))
    out = tmp_path / "out"
    assert main(["rate", "--config", str(cfg), "--preset", "lln", "--d", "2",
                 "--out", str(out)]) == 0
    report = read_json(out / "rate.json")
    assert report["method"] == "kronrod" and report["diverged"] is False
    assert 0.0 <= report["value"] < 1e-6 and report["renormalized"] > 0


def test_rate_from_path_csv(tmp_path):
    # quoted numeric cells are numbers too
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
        path_csv = tmp_path / "star_path.csv"
        with open(path_csv, "w", newline="") as fh:
            w = csv.writer(fh, quoting=quoting)
            w.writerow(["t", "x_0", "x_1", "x_2", "x_bar"])
            w.writerow([0.0, 0.0, 0.0, 0.0, 0.0])
            w.writerow([1.0, 1.0, 0.0, 0.0, 0.0])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rate": {"path_csv": str(path_csv)}}))
        assert main(["rate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = read_json(tmp_path / "rate.json")
        assert report["d"] == 2
        assert_allclose(report["value"], math.log(2.0), rtol=1e-10)
        assert report["method"] == "exact" and report["renormalized"] == 0


def test_floats_use_full_precision(tmp_path):
    main(["rate", "--preset", "star", "--out", str(tmp_path)])
    raw = (tmp_path / "rate.json").read_text()
    value = read_json(tmp_path / "rate.json")["value"]
    # floats are written with 17 significant digits, which round-trips
    # the double exactly
    assert f'"value": {format(value, ".17g")},' in raw
    assert len(format(value, ".17g").lstrip("0.")) >= 17


def test_csv_cells_keep_sign_and_precision(tmp_path):
    values = [-math.inf, math.inf, math.nan, -0.0, 5e-324, 0.1]
    header = ["k"] + [f"v{i}" for i in range(len(values))]
    cli._write_csv(tmp_path / "t.csv", header, [np.array([3])] + [[x] for x in values])
    got_header, rows = read_csv(tmp_path / "t.csv")
    assert got_header == header
    # an integer column stays an integer; floats print as format(x, ".17g")
    assert rows == [["3"] + [format(x, ".17g") for x in values]]
    assert rows[0][1] == "-inf" and float(rows[0][1]) == -math.inf


def row_format_csv(path, header, columns):
    """Reference writer: one printf-style format per row, every cell
    formatted on its own."""
    columns = [np.asarray(c) for c in columns]
    fmt = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(fmt % row for row in zip(*(c.tolist() for c in columns), strict=True))


def test_csv_lookup_matches_row_format_pass(tmp_path):
    rng = np.random.default_rng(3)
    size = 2 * cli._CSV_ROWS + 100  # ends on a partial block of rows
    pool = np.array([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 0.1, 1 / 3, 2.5])
    floats = rng.choice(pool, size=(3, size))
    ints = rng.integers(-2**62, 2**62, size=size)
    ints[::7] = 5
    columns = [ints, *floats, floats[0][::-1] * 1e300, rng.random(size), np.arange(size)]
    header = [f"c{i}" for i in range(len(columns))]
    cli._write_csv(tmp_path / "new.csv", header, columns)
    row_format_csv(tmp_path / "ref.csv", header, columns)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    # -0.0 and 0.0 share a value but not a cell
    assert b"-0," in new and b",0," in new


def test_usage_errors_exit_two(tmp_path):
    assert main(["rate", "--out", str(tmp_path)]) == 2           # nothing to rate
    assert main(["rate", "--preset", "nope", "--out", str(tmp_path)]) == 2
    assert main(["verify", "--budget", "huge", "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schedule": [], "typo": 1}))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"lln": {"frobs": 1}}))
    assert main(["lln", "--config", str(bad2), "--out", str(tmp_path)]) == 2


def test_subcommands_reject_flags_they_do_not_read(tmp_path):
    for argv in (["lln", "--seed", "3"], ["verify", "--preset", "star"],
                 ["rate", "--samples", "2"], ["lln", "--budget", "huge"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2


HEADER = "t,x_0,x_1,x_bar\n"
# a profile or seed_config is read only with a schedule beside it
CLASSICAL_SPEC = [{"t_start": 0.0, "p": 0.0, "beta": 1.0}]
HUGE = 10**400


@pytest.mark.parametrize("argv, csv_text, config", [
    pytest.param(["simulate", "--n", "0"], None, None, id="n-0"),
    pytest.param(["simulate", "--samples", "0"], None, None, id="samples-0"),
    pytest.param(["simulate", "--samples", "-3"], None, None, id="samples-negative"),
    pytest.param(["simulate", "--seed", "-1"], None, None, id="seed-negative"),
    pytest.param(["simulate", "--d", "-1"], None, None, id="simulate-d-negative"),
    pytest.param(["lln", "--d", "-1"], None, None, id="lln-d-negative"),
    pytest.param(["envelope", "--d", "-1"], None, None, id="envelope-d-negative"),
    pytest.param(["rate", "--preset", "lln", "--d", "-1"], None, None,
                 id="rate-d-negative"),
    pytest.param(["simulate"], None, {"simulate": {"n": "abc"}}, id="config-n-text"),
    pytest.param(["lln"], None, {"lln": {"times": ["soon"]}}, id="config-times-text"),
    pytest.param(["lln"], None, {"lln": {"times": [1.0, 2.0]}}, id="config-times-above-one"),
    pytest.param(["lln"], None, {"lln": {"times": [math.nan]}}, id="config-times-nan"),
    pytest.param(["envelope"], None, {"envelope": {"times": [-0.5, 0.5]}},
                 id="envelope-times-negative"),
    pytest.param(["lln"], None, {"lln": {"times": [0.1, 0.1000001, 0.5]}},
                 id="config-times-same-file-name"),
    pytest.param(["lln"], None, {"lln": {"times": [0.5, 0.5]}}, id="config-times-repeated"),
    pytest.param(["rate", "--preset", "star"], None, {"rate": {"tol": "x"}},
                 id="config-tol-text"),
    pytest.param(["rate", "--preset", "star"], None, {"rate": {"tol": math.nan}},
                 id="config-tol-nan"),
    pytest.param(["rate", "--preset", "star"], None, {"rate": {"tol": 0}},
                 id="config-tol-zero"),
    pytest.param(["rate", "--preset", "star"], None, {"rate": {"tol": -1}},
                 id="config-tol-negative"),
    pytest.param(["rate", "--preset", "star"], None, {"rate": {"tol": 1e-300}},
                 id="config-tol-tiny"),
    pytest.param(["rate"], HEADER + "0,0,0,0\n0.5,0.25,0.25,0\n", None,
                 id="csv-knots-end-at-half"),
    pytest.param(["rate"], HEADER + "0,0,0,0\n1,0.5,0.5\n", None, id="csv-ragged"),
    pytest.param(["rate"], HEADER + "0,0,0\n1,0.5,0.5\n", None,
                 id="csv-rows-one-cell-short"),
    pytest.param(["rate"], HEADER, None, id="csv-no-knots"),
    # a '#' row is no comment, and digit underscores are no CSV number
    pytest.param(["rate"], HEADER + "0,0,0,0\n#0.5,0.25,0.25,0\n1,0.5,0.5,0\n", None,
                 id="csv-comment-row"),
    pytest.param(["rate"], HEADER + "0,0,0,0\n1,0.2_5,0.75,0\n", None,
                 id="csv-digit-underscore"),
    # non-finite knots
    pytest.param(["rate"], HEADER + "0,0,0,0\nnan,0.25,0.25,0\n1,0.5,0.5,0\n", None,
                 id="csv-time-nan"),
    pytest.param(["rate"], HEADER + "0,0,0,0\n0.5,nan,0.25,0\n1,0.5,0.5,0\n", None,
                 id="csv-value-nan"),
    pytest.param(["rate"], HEADER + "0,0,0,0\n1,inf,0.5,0\n", None, id="csv-value-inf"),
    pytest.param(["lln", "--preset", "star"], None, None, id="lln-unknown-preset"),
    pytest.param(["envelope", "--preset", "geometric"], None, None,
                 id="envelope-unknown-preset"),
    pytest.param(["simulate", "--preset", "nonsense", "--n", "10"], None, None,
                 id="simulate-unknown-preset"),
    # start states that realize_initial rejects
    pytest.param(["simulate", "--d", "5"], None,
                 {"schedule": CLASSICAL_SPEC, "seed_config": [2, 0, 0]},
                 id="simulate-seed-config-wrong-length"),
    pytest.param(["simulate", "--d", "1"], None,
                 {"schedule": CLASSICAL_SPEC, "seed_config": [0, 0, 0]},
                 id="simulate-seed-config-no-urn"),
    pytest.param(["simulate", "--n", "10"], None,
                 {"schedule": CLASSICAL_SPEC, "profile": {"c": [0.001]}},
                 id="simulate-profile-no-urn-at-n"),
    # model keys without a schedule must not fall back on the classical one
    pytest.param(["simulate", "--d", "5"], None, {"seed_config": [2, 0, 0]},
                 id="config-seed-config-without-schedule"),
    pytest.param(["simulate", "--n", "10"], None, {"profile": {"c": [0.001]}},
                 id="config-profile-without-schedule"),
    # config values of the wrong type
    pytest.param(["rate", "--preset", "star"], None, {"rate": 5}, id="config-section-number"),
    pytest.param(["rate"], None, {"rate": {"preset": 5}}, id="config-preset-number"),
    pytest.param(["rate"], None, {"rate": {"path_csv": 2}}, id="config-path-csv-number"),
    pytest.param(["lln"], None, {"schedule": [{"t_start": 0.0, "p": 0.0}]},
                 id="config-schedule-entry-without-beta"),
    pytest.param(["lln"], None, {"schedule": CLASSICAL_SPEC, "profile": {"c": 0.3}},
                 id="config-profile-c-number"),
    pytest.param(["lln"], None, {"schedule": [{"t_start": 0.0, "p": None, "beta": 1.0}]},
                 id="config-schedule-p-null"),
    pytest.param(["simulate"], None, {"schedule": CLASSICAL_SPEC, "seed_config": 5},
                 id="config-seed-config-number"),
    # a count must be an integer: 2.7 used to start from 2 urns, true from 1
    pytest.param(["simulate", "--n", "10"], None,
                 {"schedule": CLASSICAL_SPEC, "seed_config": [2.7, 0, 0, 0, 0, 0, 0]},
                 id="config-seed-config-fraction"),
    pytest.param(["simulate", "--n", "10"], None,
                 {"schedule": CLASSICAL_SPEC, "seed_config": [True, 1, 0, 0, 0, 0, 0]},
                 id="config-seed-config-bool"),
    pytest.param(["lln"], None, {"schedule": [{"t_start": 0.0, "p": "0", "beta": "12"}]},
                 id="config-schedule-beta-text"),
    # non-finite schedule values: json reads NaN and Infinity
    pytest.param(["simulate", "--n", "50"], None,
                 {"schedule": [{"t_start": 0, "p": math.nan, "beta": 1}]},
                 id="config-schedule-p-nan"),
    pytest.param(["lln", "--d", "3"], None,
                 {"schedule": [{"t_start": 0, "p": 0, "beta": math.nan}]},
                 id="config-schedule-beta-nan"),
    pytest.param(["rate", "--preset", "lln", "--d", "2"], None,
                 {"schedule": [{"t_start": 0, "p": 0, "beta": math.inf}]},
                 id="config-schedule-beta-inf"),
    pytest.param(["rate", "--preset", "lln", "--d", "2"], None,
                 {"schedule": [{"t_start": 0, "p": 0, "beta": 1},
                               {"t_start": math.nan, "p": 0, "beta": 2}]},
                 id="config-schedule-start-nan"),
    # JSON integers too large for a float
    pytest.param(["lln", "--d", "2"], None,
                 {"schedule": [{"t_start": 0, "p": 0, "beta": 1},
                               {"t_start": HUGE, "p": 0, "beta": 2}]},
                 id="config-schedule-start-huge"),
    pytest.param(["lln", "--d", "2"], None,
                 {"schedule": [{"t_start": 0, "p": 0, "beta": HUGE}]},
                 id="config-schedule-beta-huge"),
    pytest.param(["lln", "--d", "2"], None,
                 {"schedule": CLASSICAL_SPEC, "profile": {"c": [0.3, HUGE]}},
                 id="config-profile-c-huge"),
    pytest.param(["lln", "--d", "2"], None,
                 {"schedule": CLASSICAL_SPEC,
                  "profile": {"c": [0.3, 0.1], "c_weighted": HUGE}},
                 id="config-profile-c-weighted-huge"),
    pytest.param(["lln"], None, {"lln": {"times": [0.5, HUGE]}}, id="config-times-huge"),
    # no times: the mass deviation's maximum over them raised ValueError
    pytest.param(["lln"], None, {"lln": {"times": []}}, id="config-lln-times-empty"),
    pytest.param(["envelope"], None, {"envelope": {"times": []}},
                 id="config-envelope-times-empty"),
    pytest.param(["rate", "--preset", "star"], None, {"rate": {"tol": HUGE}},
                 id="config-tol-huge"),
    # sizes beyond an array's: numpy raised ValueError or OverflowError
    pytest.param(["simulate"], None, {"simulate": {"n": HUGE}}, id="config-n-huge"),
    pytest.param(["simulate", "--n", "20"], None, {"simulate": {"samples": HUGE}},
                 id="config-samples-huge"),
    pytest.param(["simulate", "--n", "20"], None, {"simulate": {"d": HUGE}},
                 id="config-simulate-d-huge"),
    pytest.param(["lln"], None, {"lln": {"d": HUGE}}, id="config-lln-d-huge"),
    pytest.param(["envelope"], None, {"envelope": {"d": HUGE}}, id="config-envelope-d-huge"),
    pytest.param(["rate", "--preset", "lln"], None, {"rate": {"d": HUGE}},
                 id="config-rate-d-huge"),
    # a law preset's straight path starts empty, not at the profile
    pytest.param(["rate", "--preset", "star"], None,
                 {"schedule": CLASSICAL_SPEC, "profile": {"c": [0.3, 0.1, 0.05]}},
                 id="rate-star-from-profile"),
])
@pytest.mark.filterwarnings("error::UserWarning")
def test_malformed_input_exits_two(tmp_path, argv, csv_text, config):
    if csv_text is not None:
        (tmp_path / "path.csv").write_text(csv_text)
        config = {"rate": {"path_csv": str(tmp_path / "path.csv")}}
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert {f.name for f in tmp_path.iterdir()} <= {"path.csv", "cfg.json"}


def test_verify_reduced_budget_reports_expected_failure(tmp_path, capsys):
    # the conservation check fails by design; verify must surface that
    # honestly with a nonzero exit code
    code = main(["verify", "--budget", "reduced", "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL [expected]" in out
    report = read_json(tmp_path / "verify.json")
    names = [c["name"] for c in report["checks"]]
    assert len(names) == 11
    failed = [c for c in report["checks"] if not c["passed"] and not c["skipped"]]
    assert [c["expected_failure"] for c in failed] == [True]


def test_console_script_entry_point(tmp_path):
    # the child imports the package from wherever this process found it,
    # installed or not
    src = str(Path(urnrates.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "urnrates.cli", "rate", "--preset", "star",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    line = next(l for l in proc.stdout.splitlines() if l.startswith("rate value:"))
    printed = float(line.split(":")[1])
    assert_allclose(printed, math.log(2.0), rtol=1e-12)
    assert format(printed, ".17g") == line.split(": ")[1]  # full precision echoed


def test_flat_histogram_json_is_the_entrywise_text():
    # emit_json writes a dict entry by entry, an int value inline; on a
    # histogram of 10^4 states the text must be the entrywise format, byte
    # for byte, at any depth
    rng = np.random.default_rng(20261019)
    states = rng.integers(0, 2000, size=(10_000, 7)).tolist()
    counts = rng.integers(1, 9, size=10_000).tolist()
    hist = {",".join(map(str, row)): c for row, c in zip(states, counts)}
    assert len(hist) == 10_000

    def entrywise(table, pad):
        items = [f"{pad}  {json.dumps(k)}: {v}" for k, v in table.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"

    summary = {"samples": 10_000, "terminal_histogram": hist}
    want = '{\n  "samples": 10000,\n  "terminal_histogram": ' + entrywise(hist, "  ") + "\n}\n"
    assert cli.emit_json(summary) == want
    assert cli.emit_json(hist) == entrywise(hist, "") + "\n"
    # a key that needs escaping, and a bool value (written as JSON, not
    # inline as an int)
    assert cli.emit_json({'a"\n\u00e9': 1}) == '{\n  "a\\"\\n\\u00e9": 1\n}\n'
    assert cli.emit_json({"x": True, "y": 2}) == '{\n  "x": true,\n  "y": 2\n}\n'
    # random tables whose keys need escapes or hold non-ASCII characters (a
    # lone surrogate too), at three depths: json.dumps' indented text,
    # shifted to the depth
    alphabet = ["a", "Z", "0", ",", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f",
                "\x7f", "\u00e9", "\u20ac", "\u2028", "\U0001f600", "\ud800"]
    for _ in range(50):
        size = int(rng.integers(1, 40))
        keys = ["".join(rng.choice(alphabet, size=int(rng.integers(0, 8))))
                for _ in range(size)]
        values = [int(v) * 10 ** int(e) for v, e in zip(rng.integers(-9, 10, size=size),
                                                        rng.integers(0, 25, size=size))]
        table = dict(zip(keys, values))
        for indent in (0, 2, 4):
            want = json.dumps(table, indent=2).replace("\n", "\n" + " " * indent)
            assert cli._json_token(table, indent) == want


def test_subcommands_never_load_scipy(tmp_path):
    # scipy serves only the tests; a fresh interpreter that runs every
    # subcommand and the ODE route must not have imported it
    src = str(Path(urnrates.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = """
import json, sys
from urnrates import cli, lln
from urnrates.model import InitialProfile, Schedule
runs = (["simulate", "--n", "200"], ["lln"], ["envelope"], ["rate", "--preset", "star"],
        ["rate", "--preset", "lln", "--d", "5"], ["verify", "--budget", "reduced"])
codes = [cli.main([*argv, "--out", sys.argv[1]]) for argv in runs]
figure1 = Schedule.from_segments([(0.0, 0.0, 8.0), (0.01, 0.0, 1.0)])
sol = lln.solve_lln_numeric(30, figure1, InitialProfile.empty())
codes.append(sol.values.shape[1])
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # verify exits 1 on its documented expected failure; the ODE route
    # returns its d+2 = 32 columns
    assert result == {"codes": [0, 0, 0, 0, 0, 1, 32], "scipy": []}


@pytest.mark.xfail(strict=True, reason=(
    "the aggregate slot's nu0 (1 - escape) and u (a complement clipped at 0) "
    "are complements of sums, swamped by round-off while the slot holds about "
    "1e-12: on the first piece [0, 6.5e-4] 1 - escape is -3.9e-7, so the path "
    "is rejected as inadmissible"))
def test_lln_path_of_nonempty_profile_costs_nothing(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schedule": [{"t_start": 0, "p": 0, "beta": 1}],
                               "profile": {"c": [0.3, 0.1, 0.05]}}))
    out = tmp_path / "out"
    assert main(["rate", "--config", str(cfg), "--preset", "lln", "--d", "5",
                 "--out", str(out)]) == 0
    value = float(read_json(out / "rate.json")["value"])
    assert math.isfinite(value) and value <= 1e-6
