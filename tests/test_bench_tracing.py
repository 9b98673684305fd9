"""The traced benchmark still finds every callable it patches.

``bench/tracing.py`` wraps package callables by the name each caller
looks up.  A refactor that renames or stops calling one of them breaks
the traced benchmark run; this catches it in well under a second.
"""

import importlib.util
from pathlib import Path

from fluidbandit import cli, oracle, simulator
from fluidbandit.zoo import bernoulli_bandit, fixtures

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_name(capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    two = fixtures()["TWO"]
    try:
        tracer.install(models=[bernoulli_bandit(2, 1.0 / 3.0)])
        patched = list(tracer._patches)
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patched)
        oracle.exact_policy_value(two, "fluid", 2)
        simulator.simulate(two, "fluid", 2, 10, seed=0)
        # TWO is degenerate at t=2, so the search pins
        assert cli.main(["search-measure", "--gen", "two"]) == 0
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patched)
    names = {rec[0] for rec in tracer.spans}
    for name in ("oracle.policy", "policies.alloc", "occupancy.classify", "priority.q",
                 "simulator.compile", "simulator.alloc", "simulator.step",
                 "simulator.simulate", "lp.solve", "lp.build", "lp.pin",
                 "simplex.solve", "occupancy.search"):
        assert name in names
    metrics = tracing.layer_metrics(tracer, 0.0)
    assert metrics["policies.alloc_calls"] > 0
