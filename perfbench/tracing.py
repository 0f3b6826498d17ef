"""In-memory span tracer wrapped around the public functions of urnrates.

Spans are recorded from the benchmark's side: ``instrument`` replaces
module and class attributes of the package with wrappers, and
``Tracer.uninstall`` puts the originals back, so untraced rounds run the
package exactly as shipped.

Every wrapped call records its name, start, end, parent and the round it
belongs to.  Calls made once per simulation step or per scalar time point
(``Schedule.p_at``/``beta_at`` and ``rate.local_cost``) are folded into
one aggregate span per (parent, name) that carries a call count and a
total duration: criterion 8 alone makes about 540,000 of them, and one
record each would cost more than the calls they measure.

A span's self time is its duration minus the time covered by its direct
children.  Time the tracer spends computing work counts for a span (grid
cells, panels, levels) is also taken out of its parent's self time.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import time
import tracemalloc

TUBE = "simulator.estimate_tube_probability"
ENSEMBLE = ("simulator.run_ensemble_terminal", "simulator.run_ensemble_paths")
CRITERIA = [f"verify.criterion_{k:02d}" for k in range(1, 12)]


class Tracer:
    def __init__(self):
        self.spans = []
        self.aggregates = {}
        self.round = None
        self._stack = []        # open frames: [id, name, start, child_s]
        self._next_id = 0
        self._paused = False
        self._originals = []
        self._t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _parent(self):
        return self._stack[-1][0] if self._stack else None

    def _finish(self, frame, end: float) -> float:
        self._stack.pop()
        duration = end - frame[2]
        if self._stack:
            self._stack[-1][3] += duration
        return duration

    @contextlib.contextmanager
    def region(self, name: str):
        """A span opened by the benchmark itself (a round, an operation)."""
        frame = [self._new_id(), name, time.perf_counter(), 0.0]
        parent = self._parent()
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            duration = self._finish(frame, end)
            self._record(frame, parent, end, duration, {})

    def _record(self, frame, parent, end, duration, work):
        self.spans.append({
            "id": frame[0], "name": frame[1], "parent": parent,
            "round": self.round,
            "start": frame[2] - self._t0, "end": end - self._t0,
            "self_s": duration - frame[3], **work,
        })

    @contextlib.contextmanager
    def paused(self):
        """Run package code without recording it (the tracer's work counts)."""
        before = self._paused
        self._paused = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused = before
            # tracer bookkeeping counts in no span's self time
            if self._stack:
                self._stack[-1][3] += time.perf_counter() - t0

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, work=None, alloc: bool = False):
        """Wrap fn so that each call records one span.

        work(bound_arguments, result) returns a dict of work counts for
        the span; alloc records the tracemalloc peak across the call.
        """
        def deco(fn):
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if self._paused:
                    return fn(*args, **kwargs)
                frame = [self._new_id(), name, 0.0, 0.0]
                parent = self._parent()
                self._stack.append(frame)
                if alloc:
                    tracemalloc.start()
                frame[2] = time.perf_counter()
                ok = False
                try:
                    out = fn(*args, **kwargs)
                    ok = True
                    return out
                finally:
                    end = time.perf_counter()
                    extra = {}
                    if alloc:
                        extra["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                    duration = self._finish(frame, end)
                    if work is not None and ok:
                        with self.paused():
                            bound = sig.bind(*args, **kwargs)
                            bound.apply_defaults()
                            extra.update(work(bound.arguments, out))
                    self._record(frame, parent, end, duration, extra)
            return traced
        return deco

    def counted(self, name: str):
        """Wrap a per-step or per-point fn: one aggregate per (parent, name)."""
        def deco(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if self._paused:
                    return fn(*args, **kwargs)
                key = (self._parent(), name)
                agg = self.aggregates.get(key)
                if agg is None:
                    agg = self.aggregates[key] = {
                        "id": self._new_id(), "name": name, "parent": key[0],
                        "round": self.round, "count": 0, "total_s": 0.0,
                        "self_s": 0.0,
                    }
                frame = [agg["id"], name, time.perf_counter(), 0.0]
                self._stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = self._finish(frame, time.perf_counter())
                    agg["count"] += 1
                    agg["total_s"] += duration
                    agg["self_s"] += duration - frame[3]
            return traced
        return deco

    # -- patching ----------------------------------------------------------

    def install(self, patches) -> None:
        for owner, attr, wrapper in patches:
            self._originals.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "aggregates": list(self.aggregates.values())}


def instrument(tracer: Tracer) -> list:
    """Patch list for Tracer.install: one entry per traced public call."""
    from urnrates import cli, lln, model, oracle, rate, simulator, verify

    span, counted = tracer.span, tracer.counted
    sched = model.Schedule

    def replica_steps(a, out):
        return {"replica_steps": a["n"] * a["num_samples"]}

    def cell_levels(a, out):
        fine = lln.graded_grid(a["schedule"], rel_spacing=a["rel_spacing"],
                               rel_floor=a["rel_floor"], extra=a["grid"],
                               profile=a["profile"])
        return {"cell_levels": (fine.size - 1) * (a["d"] + 1)}

    patches = [
        (sched, "from_segments", classmethod(span("model.schedule_build")(
            sched.__dict__["from_segments"].__func__))),
        (sched, "p_at", counted("model.schedule_eval")(sched.p_at)),
        (sched, "beta_at", counted("model.schedule_eval")(sched.beta_at)),
        (simulator, "run", span("simulator.run",
                                lambda a, out: {"steps": a["n"]})(simulator.run)),
        (simulator, "run_ensemble_terminal", span(ENSEMBLE[0], replica_steps)(
            simulator.run_ensemble_terminal)),
        (simulator, "run_ensemble_paths", span(ENSEMBLE[1], replica_steps)(
            simulator.run_ensemble_paths)),
        (simulator, "sup_l1_distance", span("simulator.sup_l1_distance")(
            simulator.sup_l1_distance)),
        (simulator, "estimate_tube_probability", span(TUBE, replica_steps, alloc=True)(
            simulator.estimate_tube_probability)),
        (oracle, "enumerate_exact", span("oracle.enumerate_exact")(oracle.enumerate_exact)),
        (lln, "solve_lln_closed", span("lln.solve_lln_closed", cell_levels)(
            lln.solve_lln_closed)),
        (lln, "solve_lln_numeric", span("lln.solve_lln_numeric")(lln.solve_lln_numeric)),
        (lln, "power_law_envelopes", span("lln.power_law_envelopes")(
            lln.power_law_envelopes)),
        (lln, "stretched_exponential", span("lln.stretched_exponential")(
            lln.stretched_exponential)),
        (rate, "path_rate_Id", span("rate.path_rate_Id",
                                    lambda a, out: {"panels": out.num_panels})(
            rate.path_rate_Id)),
        (rate, "path_rate_Iinf", span("rate.path_rate_Iinf",
                                      lambda a, out: {"levels": len(out.trace)})(
            rate.path_rate_Iinf)),
        (rate, "condensation_term", span("rate.condensation_term")(rate.condensation_term)),
        (rate, "linear_path_rate_classical", span("rate.linear_path_rate_classical")(
            rate.linear_path_rate_classical)),
        (rate, "local_cost", counted("rate.local_cost")(rate.local_cost)),
        (cli, "main", span("cli.main")(cli.main)),
    ]
    # run_all iterates the CRITERIA list, so its entries are patched too
    wrapped = [span(name)(fn) for name, fn in zip(CRITERIA, verify.CRITERIA)]
    patches += [(verify, f"criterion_{k}", w) for k, w in enumerate(wrapped, 1)]
    patches.append((verify, "CRITERIA", wrapped))
    return patches


# -- per-layer metrics ---------------------------------------------------------

PER_LAYER = [
    ("model.schedule_eval.calls", "count"),
    ("model.schedule_eval.s", "s"),
    ("model.schedule_build.s", "s"),
    ("simulator.run.steps_per_s", "steps/s"),
    ("simulator.ensemble.replica_steps_per_s", "replica-steps/s"),
    ("simulator.tube.replica_steps_per_s", "replica-steps/s"),
    ("simulator.tube.peak_alloc_mb", "MB"),
    ("oracle.enumerate_exact.s", "s"),
    ("lln.solve_lln_closed.cell_levels_per_s", "cell-levels/s"),
    ("lln.solve_lln_numeric.s", "s"),
    ("lln.stretched_exponential.s", "s"),
    ("rate.path_rate_Id.panels_per_s", "panels/s"),
    ("rate.condensation_term.s", "s"),
    ("rate.path_rate_Iinf.levels_per_s", "levels/s"),
    ("rate.local_cost.calls_per_s", "calls/s"),
    ("cli.self_s", "s"),
] + [(f"{name}.s", "s") for name in CRITERIA] + [
    ("trace.overhead_s", "s"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, traced_rounds: list, untraced_walls: list,
                  traced_walls: list) -> dict:
    """Per-layer figures per round, averaged over the traced rounds.

    Throughputs are total work over total busy time; seconds and counts
    are totals divided by the number of traced rounds.  A layer that the
    workload never calls reads 0.  model.schedule_build.s adds the set-up
    phase's schedule builds to the per-round figure.
    """
    rounds = set(traced_rounds)
    k = len(rounds)
    spans = [s for s in tracer.spans if s["round"] in rounds]
    aggs = [a for a in tracer.aggregates.values() if a["round"] in rounds]
    by_id = {s["id"]: s for s in tracer.spans}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def work(name, key):
        return sum(s.get(key, 0) for s in named(name))

    def inside(span, name):
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = by_id.get(parent["parent"])
        return False

    def agg_total(name, field):
        return sum(a[field] for a in aggs if a["name"] == name)

    ensemble = [s for s in spans if s["name"] in ENSEMBLE and not inside(s, TUBE)]
    setup_build = sum(s["end"] - s["start"] for s in tracer.spans
                      if s["round"] == "setup" and s["name"] == "model.schedule_build")
    tube_peaks = [s["peak_alloc_bytes"] for s in named(TUBE)]
    local_calls = agg_total("rate.local_cost", "count")

    values = {
        "model.schedule_eval.calls": agg_total("model.schedule_eval", "count") / k,
        "model.schedule_eval.s": agg_total("model.schedule_eval", "total_s") / k,
        "model.schedule_build.s": setup_build + busy("model.schedule_build") / k,
        "simulator.run.steps_per_s": _ratio(work("simulator.run", "steps"),
                                            busy("simulator.run")),
        "simulator.ensemble.replica_steps_per_s": _ratio(
            sum(s["replica_steps"] for s in ensemble),
            sum(s["end"] - s["start"] for s in ensemble)),
        "simulator.tube.replica_steps_per_s": _ratio(work(TUBE, "replica_steps"),
                                                     busy(TUBE)),
        "simulator.tube.peak_alloc_mb": max(tube_peaks, default=0) / 2**20,
        "oracle.enumerate_exact.s": busy("oracle.enumerate_exact") / k,
        "lln.solve_lln_closed.cell_levels_per_s": _ratio(
            work("lln.solve_lln_closed", "cell_levels"), busy("lln.solve_lln_closed")),
        "lln.solve_lln_numeric.s": busy("lln.solve_lln_numeric") / k,
        "lln.stretched_exponential.s": busy("lln.stretched_exponential") / k,
        "rate.path_rate_Id.panels_per_s": _ratio(work("rate.path_rate_Id", "panels"),
                                                 busy("rate.path_rate_Id")),
        "rate.condensation_term.s": busy("rate.condensation_term") / k,
        "rate.path_rate_Iinf.levels_per_s": _ratio(work("rate.path_rate_Iinf", "levels"),
                                                   busy("rate.path_rate_Iinf")),
        "rate.local_cost.calls_per_s": _ratio(local_calls,
                                              agg_total("rate.local_cost", "total_s")),
        "cli.self_s": sum(s["self_s"] for s in named("cli.main")) / k,
    }
    for name in CRITERIA:
        values[f"{name}.s"] = busy(name) / k
    values["trace.overhead_s"] = (statistics.median(traced_walls)
                                  - statistics.median(untraced_walls))
    return values
