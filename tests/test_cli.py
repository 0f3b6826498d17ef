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


def test_rate_preset_star(tmp_path):
    assert main(["rate", "--preset", "star", "--out", str(tmp_path)]) == 0
    report = read_json(tmp_path / "rate.json")
    assert_allclose(report["value"], math.log(2.0), rtol=1e-12)
    assert_allclose(report["condensation_term"], math.log(2.0), rtol=1e-6)
    assert report["converged"] is True
    assert_allclose(report["escape_mass"], 1.0)


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
    trace = report["trace"]
    assert trace[0][0] == 4 and len(trace) >= 4


def test_rate_preset_lln_is_zero(tmp_path):
    assert main(["rate", "--preset", "lln", "--d", "10", "--out", str(tmp_path)]) == 0
    report = read_json(tmp_path / "rate.json")
    assert abs(report["value"]) < 1e-8
    assert report["diverged"] is False


def test_rate_from_path_csv(tmp_path):
    path_csv = tmp_path / "star_path.csv"
    with open(path_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x_0", "x_1", "x_2", "x_bar"])
        w.writerow([0.0, 0.0, 0.0, 0.0, 0.0])
        w.writerow([1.0, 1.0, 0.0, 0.0, 0.0])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rate": {"path_csv": str(path_csv)}}))
    assert main(["rate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = read_json(tmp_path / "rate.json")
    assert report["d"] == 2
    assert_allclose(report["value"], math.log(2.0), rtol=1e-10)


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
    pytest.param(["rate", "--preset", "star"], None, {"rate": {"tol": "x"}},
                 id="config-tol-text"),
    pytest.param(["rate", "--preset", "star"], None, {"rate": {"tol": math.nan}},
                 id="config-tol-nan"),
    pytest.param(["rate", "--preset", "star"], None, {"rate": {"tol": 0}},
                 id="config-tol-zero"),
    pytest.param(["rate", "--preset", "star"], None, {"rate": {"tol": -1}},
                 id="config-tol-negative"),
    pytest.param(["rate"], HEADER + "0,0,0,0\n0.5,0.25,0.25,0\n", None,
                 id="csv-knots-end-at-half"),
    pytest.param(["rate"], HEADER + "0,0,0,0\n1,0.5,0.5\n", None, id="csv-ragged"),
    pytest.param(["rate"], HEADER + "0,0,0\n1,0.5,0.5\n", None,
                 id="csv-rows-one-cell-short"),
    pytest.param(["rate"], HEADER, None, id="csv-no-knots"),
    pytest.param(["lln", "--preset", "star"], None, None, id="lln-unknown-preset"),
    pytest.param(["envelope", "--preset", "geometric"], None, None,
                 id="envelope-unknown-preset"),
    pytest.param(["simulate", "--preset", "nonsense", "--n", "10"], None, None,
                 id="simulate-unknown-preset"),
])
def test_malformed_input_exits_two(tmp_path, argv, csv_text, config):
    if csv_text is not None:
        (tmp_path / "path.csv").write_text(csv_text)
        config = {"rate": {"path_csv": str(tmp_path / "path.csv")}}
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert not (tmp_path / "summary.json").exists()


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
