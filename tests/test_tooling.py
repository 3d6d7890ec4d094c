"""The benchmark under perfbench/ traces handfit by wrapping module
attributes it looks up by name; a renamed or deleted name breaks only the
benchmark's traced run, so this checks every lookup still resolves."""

from pathlib import Path

from handfit import fit, forest, geometry, synth

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    owners = (fit, forest, forest.Tree, geometry, synth)
    before = [dict(vars(owner)) for owner in owners]
    with tracing.Tracer().install():
        assert fit.stepwise_fit.__wrapped__ is before[0]["stepwise_fit"]
    assert [dict(vars(owner)) for owner in owners] == before
