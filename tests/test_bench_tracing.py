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
        # the policy DP allocates through the compiled policy, once per period
        root = next(i for i, rec in enumerate(tracer.spans) if rec[0] == "oracle.policy")
        allocs = [rec for rec in tracer.spans if rec[0] == "simulator.alloc"]
        assert len(allocs) == two.T and all(rec[3] == root for rec in allocs)
        simulator.simulate(two, "fluid", 2, 10, seed=0)
        # TWO is degenerate at t=2, so the search pins
        assert cli.main(["search-measure", "--gen", "two"]) == 0
        # the CLI's price commands solve the LP and run the Q-recursion
        # through the names the tracer patches
        for command in ("priority", "fluid-index"):
            before = len(tracer.spans)
            assert cli.main([command, "--gen", "two"]) == 0
            assert {"priority.q", "lp.solve"} <= {rec[0] for rec in tracer.spans[before:]}
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patched)
    names = {rec[0] for rec in tracer.spans}
    for name in ("oracle.policy", "occupancy.classify", "priority.q",
                 "simulator.compile", "simulator.alloc", "simulator.step",
                 "simulator.simulate", "lp.solve", "lp.build", "lp.pin",
                 "simplex.solve", "occupancy.search"):
        assert name in names
    metrics = tracing.layer_metrics(tracer, 0.0)
    assert metrics["simulator.alloc_s"] > 0


def test_tracer_sees_no_pull_sweep_in_the_optimal_dp():
    # the optimal DP values a period's (passive, active) grid at once, so
    # the pull-vector enumeration the tracer counts is never called
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    two = fixtures()["TWO"]
    try:
        tracer.install()
        value = oracle.optimal_value(two, 2)
    finally:
        tracer.uninstall()
    assert value == 2.0
    assert [rec[0] for rec in tracer.spans] == ["oracle.optimal"]
    assert tracer.counters["oracle.dp_states"] == 0


def test_tracer_sees_the_model_json_names(tmp_path):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    path = str(tmp_path / "two.json")
    try:
        tracer.install()
        assert cli.main(["gen", "two", "-o", path]) == 0
        assert cli.main(["relax", "--model", path, "-o", str(tmp_path / "relax.json")]) == 0
    finally:
        tracer.uninstall()
    assert {"mdp.json_dump", "mdp.json_load"} <= {rec[0] for rec in tracer.spans}
    assert tracing.layer_metrics(tracer, 0.0)["mdp.json_mb"] > 0


def test_tracer_wraps_every_sampler_and_per_arm_ts_calls_none():
    # the tracer wraps and restores each annotation's sampler; both engines
    # draw TS at count level from family and params, so none is called
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    model = bernoulli_bandit(3, 1.0 / 3.0)
    originals = [ann.sampler for ann in model.annotations]
    try:
        tracer.install(models=[model])
        assert all(ann.sampler is not orig
                   for ann, orig in zip(model.annotations, originals))
        simulator.simulate_per_arm(model, "ts", N=6, reps=20, seed=1)
    finally:
        tracer.uninstall()
    assert all(ann.sampler is orig for ann, orig in zip(model.annotations, originals))
    metrics = tracing.layer_metrics(tracer, 0.0)
    assert metrics["zoo.sampler_calls"] == 0
    assert metrics["zoo.sampler_s"] == 0
