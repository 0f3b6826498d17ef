"""One workload process: set up, run whole rounds, check every output.

Started by run.py, never by hand.  --t0 is the monotonic clock (shared by
all processes of the host) read just before this process was spawned, so
setup_s counts interpreter start, `import urnrates` with its scipy
submodules and the building of the workload's inputs.

--phase setup stops once the inputs are ready; --phase full goes on to
run rounds of the workload's operations back to back until --seconds
have passed.  With --trace 1, untraced and traced rounds alternate and
the traced ones give the per-layer figures.  The result is written as
JSON to --result.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path


class Raised:
    """Result of an op that raised: every outcome it certifies fails."""

    def __init__(self, text: str):
        self.text = text


def run_ops(ops, round_dir: Path, tracer=None):
    """Run every op of one round.  Returns (seconds, results)."""
    results = []
    t0 = time.perf_counter()
    for op in ops:
        out_dir = round_dir / op.name
        out_dir.mkdir(parents=True)
        try:
            if tracer is None:
                results.append(op.run(out_dir))
            else:
                with tracer.region(f"op:{op.name}"):
                    results.append(op.run(out_dir))
        except Exception:
            # an op that raises is a failed operation, not a benchmark error
            results.append(Raised(traceback.format_exc(limit=4)))
    return time.perf_counter() - t0, results


def check_round(ops, round_dir: Path, results) -> list:
    """(outcome name, error message or None) for every output of a round."""
    outcomes = []
    for op, result in zip(ops, results):
        if isinstance(result, Raised):
            outcomes += [(f"{op.name}#{k}", result.text) for k in range(op.outcomes)]
        else:
            outcomes += op.check(round_dir / op.name, result)
    shutil.rmtree(round_dir)
    return outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("setup", "full"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace-file", type=Path)
    args = ap.parse_args(argv)

    import workloads
    import tracing

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(tracing.instrument(tracer))
        tracer.round = "setup"
        with tracer.region("setup"):
            ops = workloads.WORKLOADS[args.workload](args.seed, args.work_dir)
        tracer.uninstall()
    else:
        ops = workloads.WORKLOADS[args.workload](args.seed, args.work_dir)
    setup_s = time.monotonic() - args.t0
    report = {"setup_s": setup_s}
    if args.phase == "setup":
        args.result.write_text(json.dumps(report))
        return 0

    walls = {False: [], True: []}
    traced_rounds = []
    outcomes = []
    start = time.perf_counter()
    k = 0
    while (time.perf_counter() - start < args.seconds or not walls[False]
           or (tracer is not None and not walls[True])):
        traced = tracer is not None and k % 2 == 1
        round_dir = args.work_dir / f"round{k}"
        if traced:
            tracer.install(tracing.instrument(tracer))
            tracer.round = k
            traced_rounds.append(k)
            with tracer.region("round"):
                seconds, results = run_ops(ops, round_dir, tracer)
            tracer.uninstall()
        else:
            seconds, results = run_ops(ops, round_dir)
        walls[traced].append(seconds)
        outcomes += check_round(ops, round_dir, results)
        k += 1

    failures = [(name, msg) for name, msg in outcomes if msg is not None]
    report.update({
        "rounds": len(walls[False]) + len(walls[True]),
        "round_wall_s": walls[False],
        "wall_s": statistics.median(walls[False]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(outcomes),
        "failed": len(failures),
        "correct": all(name in workloads.KNOWN_FAULTS for name, _ in failures),
        # the last line of a traceback names the exception
        "failures": sorted({f"{name}: {msg.strip().splitlines()[-1]}"
                            for name, msg in failures}),
    })
    if tracer is not None:
        report["traced_wall_s"] = walls[True]
        report["layers"] = tracing.layer_metrics(tracer, traced_rounds,
                                                 walls[False], walls[True])
        trace = {"workload": args.workload, "seed": args.seed,
                 "traced_rounds": traced_rounds, "layers": report["layers"],
                 **tracer.dump()}
        args.trace_file.parent.mkdir(parents=True, exist_ok=True)
        args.trace_file.write_text(json.dumps(trace))
    args.result.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
