"""The benchmark under perfbench/ traces handfit by wrapping module
attributes it looks up by name; a renamed or deleted name breaks only the
benchmark's traced run, so this checks every lookup still resolves."""

from pathlib import Path

import numpy as np
import pytest

from handfit import fit, forest, geometry, synth
from handfit.proposals import ProposalSet

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_benchmark_tracer_installs_and_restores(tracing):
    owners = (fit, forest, forest.Tree, geometry, synth)
    before = [dict(vars(owner)) for owner in owners]
    with tracing.Tracer().install():
        assert fit.stepwise_fit.__wrapped__ is before[0]["stepwise_fit"]
    assert [dict(vars(owner)) for owner in owners] == before


def test_benchmark_tracer_sees_fk_inside_stepwise_fit(tracing, geom, limits, rng):
    # every objective evaluation must reach FK through geometry.fk_batch,
    # or the benchmark books FK time as scoring time
    pose = geometry.random_pose(rng, limits, geometry.DEFAULT_WORKSPACE)
    pset = ProposalSet.from_joints(geometry.forward_kinematics(geom, pose))
    cfg = fit.PsoConfig(palm_particles=4, palm_generations=2,
                        finger_particles=4, finger_generations=2)
    tracer = tracing.Tracer()
    with tracer.install(), tracer.span("op", 0):
        res = fit.stepwise_fit(pset, geom, limits, cfg, rng=np.random.default_rng(0))
    counts = tracer.counts[0]
    assert counts["fit.objective_calls"] == 6 * 2 + 1
    assert counts["fit.objective_rows"] == res.evals + 1
    assert counts["geometry.fk_calls"] == counts["fit.objective_calls"]
    assert counts["geometry.fk_rows"] == counts["fit.objective_rows"]
