"""The benchmark's tracer patches package attributes by name and reads
some of their arguments; this checks that every target still exists,
that a traced call records its work, and that uninstalling restores the
package as shipped."""
import sys
from pathlib import Path

import numpy as np

from urnrates import lln, rate
from urnrates.lln import geometric_law
from urnrates.model import InitialProfile, Schedule
from urnrates.rate import linear_target_path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_install_record_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)    # read perfbench only
    import tracing

    tracer = tracing.Tracer()
    # instrument looks up every patched attribute, so a renamed or deleted
    # one fails here
    patches = tracing.instrument(tracer)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    schedule, profile = Schedule.constant(0.0, 1.0), InitialProfile.empty()
    tracer.install(patches)
    try:
        # cell_levels reads grid, rel_spacing, rel_floor, profile,
        # schedule and d from the call's bound arguments
        sol = lln.solve_lln_closed(2, schedule, profile)
        charge = rate.condensation_term(linear_target_path(geometric_law(), 4),
                                        schedule, profile)
    finally:
        tracer.uninstall()

    assert all(owner.__dict__[attr] is original for owner, attr, original in originals)
    assert np.isfinite(sol.values).all() and np.isfinite(charge)
    spans = {s["name"]: s for s in tracer.dump()["spans"]}
    assert spans["lln.solve_lln_closed"]["cell_levels"] == (sol.grid.size - 1) * 3
    assert "rate.condensation_term" in spans
