"""Benchmark of urnrates: simulate, rate and battery, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

--workload all runs every workload in turn.  --trace 0 reports the
end-to-end metrics (wall_s, setup_s, peak_rss_mb); --trace 1 reports the
per-layer metrics from a traced run and writes its spans to
.bench_build/traces/.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

Each run, in fresh single-threaded Python processes with the package
taken from src/:
  1. an untimed warm-up process imports everything and builds the
     inputs, so bytecode (kept under .bench_build/pycache) is compiled
     before anything is timed;
  2. the workload process sets up and runs whole rounds for --seconds;
  3. with --trace 0, SETUP_SAMPLES - 1 more processes, half before and
     half after the workload process, only set up; setup_s is the median
     of all SETUP_SAMPLES set-up times.
Outputs go to a temporary directory under .bench_build that is removed
afterwards.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402

WORKLOADS = ("simulate", "rate", "battery")
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 175          # a run must end within 180 s
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def worker_env(build: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env.update({
        "PYTHONPATH": src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""),
        "PYTHONPYCACHEPREFIX": str(build / "pycache"),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def spawn(args, phase: str, tmp: Path, env: dict, tag: str, deadline: float,
          trace_file: Path | None = None) -> dict:
    work_dir = tmp / tag
    work_dir.mkdir()
    result = tmp / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--phase", phase, "--work-dir", str(work_dir), "--result", str(result)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=work_dir,
                              stdout=subprocess.DEVNULL, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} process stopped: the run exceeded {RUN_DEADLINE_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{tag} process exited {proc.returncode}")
    return json.loads(result.read_text())


def run_workload(args) -> dict:
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    env = worker_env(build)
    trace_file = build / "traces" / f"{args.workload}-seed{args.seed}.json"
    deadline = time.monotonic() + RUN_DEADLINE_S
    with tempfile.TemporaryDirectory(dir=build, prefix="run-") as tmp:
        tmp = Path(tmp)
        spawn(args, "setup", tmp, env, "warmup", deadline)
        # set-up samples on both sides of the timed phase, so that one slow
        # stretch of the host does not set the median
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [spawn(args, "setup", tmp, env, f"setup{k}", deadline)["setup_s"]
                  for k in range(extra // 2)]
        full = spawn(args, "full", tmp, env, "full", deadline,
                     trace_file if args.trace else None)
        setups.append(full["setup_s"])
        setups += [spawn(args, "setup", tmp, env, f"setup{k}", deadline)["setup_s"]
                   for k in range(extra // 2, extra)]
    if args.trace:
        metrics = {name: {"value": full["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = {"wall_s": full["wall_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": full["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for line in full["failures"]:
        print(f"[{args.workload}] failed: {line[:300]}")
    shown = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items())
    print(f"[{args.workload}] seed {args.seed}, {full['rounds']} rounds: {shown}; "
          f"{full['attempted']} operations attempted, {full['failed']} failed")
    walls = ", ".join(f"{w:.3f}" for w in full["round_wall_s"])
    print(f"[{args.workload}] untraced rounds took {walls} s")
    if args.trace:
        walls = ", ".join(f"{w:.3f}" for w in full["traced_wall_s"])
        print(f"[{args.workload}] traced rounds took {walls} s; "
              f"spans in {trace_file.relative_to(ROOT)}")
    return {"correct": full["correct"], "attempted": full["attempted"],
            "failed": full["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "urnrates" / "__init__.py").is_file():
        print(f"error: no urnrates package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            args.workload = name
            out = run_workload(args)
            if len(names) == 1:
                combined = out
                break
            combined["correct"] &= out["correct"]
            combined["attempted"] += out["attempted"]
            combined["failed"] += out["failed"]
            combined["metrics"].update({f"{name}.{k}": m for k, m in out["metrics"].items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
