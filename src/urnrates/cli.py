"""Command-line front end: simulate | lln | rate | envelope | verify.

Output contract: CSV headers are fixed ("t,x_0,...,x_d,x_bar" for
trajectories, "k,cumulative_value,envelope_low,envelope_high" for
occupancy slices), every float is printed with 17 significant digits,
infinities serialize as the JSON strings "inf"/"-inf", and all JSON
reports carry schema_version.  Exit codes: 0 ok, 1 check failed,
2 usage/config error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path as FsPath

import numpy as np

from . import lln, rate, simulator, verify
from .model import (PATH_TOL, InitialProfile, Path, _json_number, config_from_dict,
                    resolve_initial)

SCHEMA_VERSION = 1

_SECTION_KEYS = {
    "simulate": {"n", "d", "samples", "seed"},
    "lln": {"d", "times"},
    "rate": {"preset", "path_csv", "d", "tol"},
    "envelope": {"d"},
    "verify": {"budget"},
}


class UsageError(Exception):
    pass


def _fmt_float(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        return '"nan"'
    return format(x, ".17g")


def _json_token(obj, indent: int) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # int values written inline: the terminal histogram holds 10^4 of them
        items = [f"{pad}  {encode_basestring_ascii(str(k))}: "
                 f"{v if type(v) is int else _json_token(v, indent + 2)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_token(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    return json.dumps(obj)


def emit_json(obj) -> str:
    """JSON text with non-finite floats as strings and 17-digit floats."""
    return _json_token(obj, 0) + "\n"


# _write_csv formats this many rows at a time, so its lookup tables take
# memory that does not grow with the file.
_CSV_ROWS = 2048


def _write_csv(path: FsPath, header: list, columns) -> None:
    """Write equal-length columns under header: integer columns as
    integers, every other value as a double with 17 significant digits
    ("inf", "-inf" and "nan" where it is not finite).  In each block of
    rows, each distinct value of a column is formatted once and its cells
    looked up; doubles are told apart by their bits, so -0.0 keeps its
    sign."""
    keyed = []
    for c in map(np.asarray, columns):
        if c.dtype.kind in "iu":
            keyed.append(("%d", c, c))
        else:
            c = c.astype(float, copy=False)
            keyed.append(("%.17g", c, c.view(np.int64)))
    rows = max((len(c) for _, c, _ in keyed), default=0)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, rows, _CSV_ROWS):
            cells = []
            for fmt, c, key in keyed:
                _, first, inverse = np.unique(key[a:a + _CSV_ROWS], return_index=True,
                                              return_inverse=True)
                table = [fmt % v for v in c[a:a + _CSV_ROWS][first].tolist()]
                cells.append(map(table.__getitem__, inverse.tolist()))
            fh.writelines(",".join(row) + "\n" for row in zip(*cells, strict=True))


def _load_config(path: str | None):
    """Full CLI config: model schema plus per-command option sections."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    allowed = {"schedule", "profile", "seed_config"} | set(_SECTION_KEYS)
    unknown = set(cfg) - allowed
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for section, keys in _SECTION_KEYS.items():
        if not isinstance(cfg.get(section, {}), dict):
            raise UsageError(f"config section '{section}' must be an object")
        extra = set(cfg.get(section, {})) - keys
        if extra:
            raise UsageError(f"unknown keys in '{section}' section: {sorted(extra)}")
    return cfg


def _model_parts(cfg: dict, preset: str | None):
    """(schedule, profile, seed_config) from config, preset, or defaults."""
    if preset not in (None, "homogeneous", "figure1"):
        raise UsageError(f"unknown schedule preset: {preset} "
                         "(expected homogeneous or figure1)")
    if preset is not None:
        sched = (verify.classical_schedule() if preset == "homogeneous"
                 else verify.figure1_schedule())
        return sched, InitialProfile.empty(), None
    model_keys = {k: cfg[k] for k in ("schedule", "profile", "seed_config") if k in cfg}
    if not model_keys:
        return verify.classical_schedule(), InitialProfile.empty(), None
    try:
        return config_from_dict(model_keys)
    except (TypeError, ValueError, OverflowError) as exc:
        # a JSON value of the wrong type (null or true for a number) raises
        # ValueError or TypeError; a JSON integer too large for a float, OverflowError
        raise UsageError(f"bad model config: {exc}")


def _opt(args, cfg, section, key, default, kind=None, low=None):
    """The flag's value, else the config section's, else the default;
    converted by kind when given (int and float by model._json_number),
    and at least low when given."""
    val = getattr(args, key, None)
    if val is None:
        val = cfg.get(section, {}).get(key, default)
    if kind is None:
        return val
    try:
        val = _json_number(val, key, kind is int) if kind in (int, float) else kind(val)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"bad value for {key}: {val!r}")
    if low is not None and val < low:
        raise UsageError(f"{key} must be at least {low} (got {val})")
    return val


def _size(val) -> int:
    """val, a JSON integer, as an array size or dimension numpy takes: at
    most np.iinfo(np.intp).max (a JSON integer can be far larger)."""
    val = _json_number(val, "a size", integer=True)
    if val > np.iinfo(np.intp).max:
        raise ValueError(f"{val} is larger than an array size can be")
    return val


def _envelopes(sched, profile, grid, d):
    """lln.power_law_envelopes; a profile they cannot start from is a usage error."""
    try:
        return lln.power_law_envelopes(sched, profile, grid, d)
    except ValueError as exc:
        raise UsageError(f"no power-law envelopes from the profile c = {list(profile.c)}, "
                         f"c_weighted = {profile.c_weighted:g}: {exc}")


def _outdir(args) -> FsPath:
    out = FsPath(args.out if args.out else ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# --------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    sched, profile, seed_config = _model_parts(cfg, args.preset)
    n = _opt(args, cfg, "simulate", "n", 1000, _size, low=1)
    d = _opt(args, cfg, "simulate", "d", 5, _size, low=0)
    samples = _opt(args, cfg, "simulate", "samples", 1, _size, low=1)
    seed = _opt(args, cfg, "simulate", "seed", 0, int, low=0)
    if profile.c_total == 0.0 and seed_config is None:
        seed_config = verify.seed_counts(d)
    try:
        state0 = resolve_initial(profile if seed_config is None else seed_config, n, d)
    except ValueError as exc:
        raise UsageError(str(exc))

    out = _outdir(args)
    run = simulator.run(n, d, sched, state0, seed=seed)
    header = ["t"] + [f"x_{i}" for i in range(d + 1)] + ["x_bar"]
    _write_csv(out / "trajectory.csv", header,
               [run.interpolated.times, *run.interpolated.values.T])

    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "n": n, "d": d, "seed": seed, "samples": samples,
        "terminal_state": [int(z) for z in run.counts[-1]],
    }
    if samples > 1:
        states, counts = simulator.run_ensemble_terminal(n, d, sched, state0,
                                                         num_samples=samples, seed=seed)
        key = ",".join(["%d"] * (d + 2))
        summary["terminal_histogram"] = {
            key % tuple(row): c for row, c in zip(states.tolist(), counts.tolist())
        }
    (out / "summary.json").write_text(emit_json(summary))
    print(f"wrote {out / 'trajectory.csv'} and {out / 'summary.json'}")
    return 0


def cmd_lln(args) -> int:
    cfg = _load_config(args.config)
    sched, profile, _ = _model_parts(cfg, args.preset)
    d = _opt(args, cfg, "lln", "d", 30, _size, low=0)
    default = [0.01, 0.1, 1.0] if args.preset == "figure1" else [0.1, 0.5, 1.0]
    times = _opt(args, cfg, "lln", "times", default,
                 lambda ts: [_json_number(t, "a time") for t in ts])
    if not times:
        raise UsageError("times must hold at least one time")
    try:
        grid = lln._times(times)
    except ValueError as exc:
        raise UsageError(str(exc))
    env = _envelopes(sched, profile, grid, d)
    names = [f"lln_t{t:g}.csv" for t in times]
    if len(set(names)) < len(names):
        raise UsageError(f"times {times} give two slices the same file name")
    sol = lln.solve_lln_closed(d, sched, profile, grid=grid)
    out = _outdir(args)
    files = []
    for idx, name in enumerate(names):
        cum = np.cumsum(sol.values[idx, : d + 1])
        hi = np.cumsum(env.upper.values[idx])
        lo = np.cumsum(env.lower.values[idx])
        fname = out / name
        _write_csv(fname, ["k", "cumulative_value", "envelope_low", "envelope_high"],
                   [np.arange(d + 1), cum, lo, hi])
        files.append(str(fname))
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "lln",
        "d": d,
        "times": times,
        "mass_deviation": sol.mass_deviation(profile),
        "files": files,
    }
    (out / "lln_summary.json").write_text(emit_json(report))
    print(f"wrote {len(files)} time slices and {out / 'lln_summary.json'}")
    return 0


def cmd_envelope(args) -> int:
    cfg = _load_config(args.config)
    sched, profile, _ = _model_parts(cfg, args.preset)
    d = _opt(args, cfg, "envelope", "d", 30, _size, low=0)
    # slopes and exponents only: the comparison laws at no times
    env = _envelopes(sched, profile, (), d)
    up, low = env.upper, env.lower
    out = _outdir(args)
    _write_csv(out / "envelope_slopes.csv", ["k", "slope_low", "slope_high"],
               [np.arange(d + 1), low.b, up.b])
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "envelope",
        "d": d,
        "lower_tail_exponent": low.params.tail_exponent,
        "upper_tail_exponent": up.params.tail_exponent,
        "eta": list(up.b),
        "eta_prime": list(low.b),
    }
    (out / "envelope.json").write_text(emit_json(report))
    print(f"wrote {out / 'envelope_slopes.csv'} and {out / 'envelope.json'}")
    return 0


def _path_from_csv(fname: str) -> Path:
    try:
        with open(fname) as fh:
            header = next(csv.reader(fh))
            # loadtxt warns on input without rows, and from_knots rejects
            # them below; a '#' cell is an error, not a comment
            first = next((line for line in fh if line != "\n"), None)
            cells = np.empty((0, len(header))) if first is None else np.loadtxt(
                itertools.chain([first], fh), delimiter=",", ndmin=2, comments=None,
                quotechar='"')
    except (OSError, ValueError, StopIteration) as exc:
        raise UsageError(f"cannot read path CSV {fname}: {exc}")
    if header != ["t", *(f"x_{i}" for i in range(len(header) - 2)), "x_bar"]:
        raise UsageError("path CSV must have header t,x_0,...,x_d,x_bar")
    if cells.shape[1] != len(header):
        raise UsageError(f"every row of path CSV {fname} needs {len(header)} cells")
    try:
        return Path.from_knots(cells[:, 0], cells[:, 1:])
    except ValueError as exc:
        raise UsageError(f"bad path in {fname}: {exc}")


def cmd_rate(args) -> int:
    cfg = _load_config(args.config)
    sched, profile, _ = _model_parts(cfg, None)
    preset = args.preset or cfg.get("rate", {}).get("preset")
    path_csv = _opt(args, cfg, "rate", "path_csv", None)
    for key, val in (("preset", preset), ("path_csv", path_csv)):
        if val is not None and not isinstance(val, str):
            raise UsageError(f"{key} must be a string (got {val!r})")
    d = _opt(args, cfg, "rate", "d", 20, _size, low=0)
    if preset != "lln" and (args.d is not None or "d" in cfg.get("rate", {})):
        raise UsageError("d applies to --preset lln only (a path CSV or law has its own)")
    tol = {}    # the config's tol reaches the route that runs, else its default holds
    if "tol" in cfg.get("rate", {}):
        tol["tol"] = _opt(args, cfg, "rate", "tol", None, float)
        try:
            rate.check_tol(tol["tol"])
        except ValueError as exc:
            raise UsageError(str(exc))

    report = {"schema_version": SCHEMA_VERSION, "command": "rate"}
    if preset and path_csv:
        raise UsageError("give either a preset or a path CSV, not both")
    path = None
    if path_csv:
        report["input"] = path_csv
        path = _path_from_csv(path_csv)
    elif preset in ("star", "straight-road", "geometric") or (
            preset or "").startswith("stretched"):
        if preset == "star":
            law = lln.star_law()
        elif preset == "straight-road":
            law = lln.dirac_law(2)
        elif preset == "geometric":
            law = lln.geometric_law()
        else:
            parts = preset.split(":")
            if len(parts) != 2:
                raise UsageError("stretched preset syntax: stretched:<r>")
            try:
                law = lln.stretched_exponential(float(parts[1]))
            except (ValueError, RuntimeError) as exc:
                raise UsageError(f"bad stretched preset: {exc}")
        if profile.truncated(law.values.size - 1).max() > PATH_TOL:
            raise UsageError(f"preset {preset} rates a straight path from the empty "
                             "state, which does not start at the config's profile")
        rep = rate.path_rate_Iinf(law, sched, profile, **tol)
        report.update({
            "preset": preset, "method": rep.method, "value": rep.value,
            "condensation_term": rep.condensation,
            "escape_mass": rep.escape_mass, "converged": rep.converged,
            "trace": [[dd, val] for dd, val in rep.trace],
            "error": rep.error,
        })
    elif preset == "lln":
        report["preset"] = "lln"
        path = lln.solve_lln_closed(d, sched, profile).path()
    elif preset:
        raise UsageError(f"unknown rate preset: {preset}")
    else:
        raise UsageError("rate needs --preset or a path_csv in the config")
    if path is not None:
        rep = rate.path_rate(path, sched, profile, **tol)
        report.update({
            "d": path.d, "method": rep.method, "value": rep.value,
            "condensation_term": rep.condensation,
            "error": rep.error, "num_panels": rep.num_panels, "diverged": rep.diverged,
            "renormalized": rep.renormalized,
        })

    out = _outdir(args)
    (out / "rate.json").write_text(emit_json(report))
    value = report["value"]
    print(f"rate value: {'inf' if math.isinf(value) else format(value, '.17g')}")
    print(f"wrote {out / 'rate.json'}")
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    budget = args.budget or cfg.get("verify", {}).get("budget", "default")
    if budget not in ("default", "reduced"):
        raise UsageError("budget must be 'default' or 'reduced'")
    results = verify.run_all(budget)
    out = _outdir(args)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "budget": budget,
        "checks": [
            {"name": r.name, "passed": r.passed, "skipped": r.skipped,
             "expected_failure": r.expected_failure, "details": r.details,
             "seconds": r.seconds}
            for r in results
        ],
    }
    (out / "verify.json").write_text(emit_json(report))
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.skipped and not r.passed]
    print(f"{sum(1 for r in results if r.passed and not r.skipped)} passed, "
          f"{len(failed)} failed, {sum(1 for r in results if r.skipped)} skipped; "
          f"wrote {out / 'verify.json'}")
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urnrates",
        description="Time-dependent preferential-attachment urns: simulation, "
                    "limit trajectories, and deviation rates.")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "preset": {"help": "named schedule or deviation path"},
        "n": {"type": int, "help": "scheme size"},
        "d": {"type": int, "help": "truncation level"},
        "samples": {"type": int, "help": "ensemble size"},
        "seed": {"type": int, "help": "RNG seed"},
        "budget": {"help": "verify budget: default|reduced"},
    }
    specs = {
        "simulate": ("sample scheme trajectories and write per-knot scaled counts",
                     ("preset", "n", "d", "samples", "seed")),
        "lln": ("limit occupancy slices with envelope columns", ("preset", "d")),
        "rate": ("evaluate the deviation rate of a path or preset", ("preset", "d")),
        "envelope": ("power-law envelope slopes and tail exponents", ("preset", "d")),
        "verify": ("run the acceptance battery", ("budget",)),
    }
    for name, (help_text, own) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (default: cwd)")
        for flag in own:
            p.add_argument(f"--{flag}", **flags[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"simulate": cmd_simulate, "lln": cmd_lln, "rate": cmd_rate,
                "envelope": cmd_envelope, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
