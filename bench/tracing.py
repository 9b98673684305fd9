"""Span tracing of fluidbandit's layers from outside the package.

A :class:`Tracer` replaces public callables with thin wrappers under the
name each caller looks up (``from .lp import solve_relaxation`` in
``cli`` binds ``fluidbandit.cli.solve_relaxation``, so that is the name
patched).  Every wrapped call records one span ``[name, start, end,
parent]`` in memory; :func:`layer_metrics` folds the spans and counters
into the per-layer metrics listed in :data:`LAYER_METRICS`.

Nothing inside ``src/`` is edited: :meth:`Tracer.install` patches module
and class attributes and :meth:`Tracer.uninstall` restores them.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# Per-layer metric -> (unit, better, what it should move).  BENCHMARK.json
# lists the same names; the third field is the per-layer -> end-to-end map.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "simplex.solve_s": ("s", "lower", "pass_s on plan; setup_s on both eval workloads; negligible on oracle"),
    "simplex.iterations": ("count", "lower", "pass_s on plan; setup_s on both eval workloads"),
    "simplex.pivot_us": ("us", "lower", "pass_s on plan; setup_s on both eval workloads"),
    "lp.build_s": ("s", "lower", "pass_s on plan (assort model most)"),
    "lp.solve_s": ("s", "lower", "pass_s on plan and oracle; setup_s on both eval workloads"),
    "lp.solves": ("count", "lower", "pass_s on plan"),
    "lp.pin_s": ("s", "lower", "pass_s on plan (crowd model)"),
    "lp.pin_solves": ("count", "lower", "pass_s on plan (crowd model)"),
    "lp.rows": ("count", "lower", "pass_s on plan"),
    "lp.nnz": ("count", "lower", "pass_s on plan"),
    "highs.solve_s": ("s", "lower", "pass_s on plan (bern24 model)"),
    "highs.solves": ("count", "lower", "pass_s on plan (bern24 model)"),
    "occupancy.search_s": ("s", "lower", "pass_s on plan"),
    "occupancy.stages": ("count", "lower", "pass_s on plan"),
    "occupancy.classify_s": ("s", "lower", "pass_s on plan and oracle; setup_s on eval workloads"),
    "priority.q_s": ("s", "lower", "pass_s on oracle; setup_s on eval workloads"),
    "mdp.json_load_s": ("s", "lower", "pass_s on plan"),
    "mdp.json_dump_s": ("s", "lower", "setup_s on plan"),
    "mdp.json_mb": ("MB", "lower", "pass_s and setup_s on plan"),
    "cli.self_s": ("s", "lower", "pass_s on plan"),
    "simulator.compile_s": ("s", "lower", "setup_s on eval-counts and eval-perarm"),
    "simulator.alloc_s": ("s", "lower", "pass_s on eval-counts; little on eval-perarm"),
    "simulator.step_s": ("s", "lower", "pass_s on eval-counts; little on eval-perarm"),
    "simulator.chunk_self_s": ("s", "lower", "pass_s on eval-counts; little on eval-perarm"),
    "simulator.per_arm_s": ("s", "lower", "pass_s on eval-perarm; not eval-counts"),
    "zoo.sampler_s": ("s", "lower", "pass_s on eval-perarm; not eval-counts"),
    "zoo.sampler_calls": ("count", "lower", "pass_s on eval-perarm; not eval-counts"),
    "oracle.optimal_s": ("s", "lower", "pass_s on oracle only"),
    "oracle.policy_s": ("s", "lower", "pass_s on oracle only"),
    "oracle.count_states": ("count", "lower", "pass_s on oracle only"),
    "policies.alloc_s": ("s", "lower", "pass_s on oracle only"),
    "policies.alloc_calls": ("count", "lower", "pass_s on oracle only"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced median pass seconds; no end-to-end effect"),
}

# Counts that must repeat exactly across two runs with the same seed.
EXACT_COUNTS = ("simplex.iterations", "occupancy.stages", "lp.pin_solves",
                "lp.rows", "lp.nnz", "oracle.count_states", "zoo.sampler_calls")


class Tracer:
    """In-memory span recorder that patches callables by lookup name."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording --------------------------------------------------------

    def _call(self, name, fn, args, kwargs, after):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            after(self.counters, args, kwargs, result)
        return result

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span named `name` around every call of owner.attr."""
        orig = getattr(owner, attr)
        call = self._call

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return call(name, orig, args, kwargs, after)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def count(self, owner, attr: str, counter: str) -> None:
        """Count calls of owner.attr without a span (for generators)."""
        orig = getattr(owner, attr)
        counters = self.counters

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # ---- layer table ------------------------------------------------------

    def install(self, models=()) -> None:
        """Patch every layer boundary; `models` get their samplers wrapped."""
        import scipy.optimize

        import fluidbandit.cli as cli
        import fluidbandit.lp as lp
        import fluidbandit.occupancy as occupancy
        import fluidbandit.oracle as oracle
        import fluidbandit.policies as policies
        import fluidbandit.priority as priority
        import fluidbandit.simplex as simplex
        import fluidbandit.simulator as simulator

        self.patch(cli, "main", "cli.main")
        self.patch(cli, "model_from_json", "mdp.json_load", after=_json_in)
        self.patch(cli, "model_to_json", "mdp.json_dump", after=_json_out)
        self.patch(cli, "search_nondegenerate", "occupancy.search", after=_stages)
        for mod in (lp, cli, occupancy, simulator):
            self.patch(mod, "solve_relaxation", "lp.solve")
        self.patch(lp, "build_lp", "lp.build")
        self.patch(occupancy, "resolve_with_pins", "lp.pin")
        self.patch(simplex, "solve_lp", "simplex.solve", after=_simplex)
        self.patch(scipy.optimize, "linprog", "highs.solve", after=_highs)
        for mod in (occupancy, cli, simulator, oracle, policies):
            self.patch(mod, "classify", "occupancy.classify")
        for mod in (priority, simulator, oracle, cli):
            self.patch(mod, "q_recursion", "priority.q")
        cp = simulator.CompiledPolicy
        self.patch(cp, "__init__", "simulator.compile")
        self.patch(cp, "allocate_batch", "simulator.alloc")
        self.patch(cp, "step_counts", "simulator.step")
        self.patch(simulator, "simulate", "simulator.simulate")
        self.patch(simulator, "simulate_per_arm", "simulator.per_arm")
        self.patch(oracle, "optimal_value", "oracle.optimal")
        self.patch(oracle, "exact_policy_value", "oracle.policy")
        self.patch(oracle, "fluid_priority_allocate", "policies.alloc")
        self.count(oracle, "bounded_compositions", "oracle.dp_states")
        for model in models:
            for ann in model.annotations or ():
                self.patch(ann, "sampler", "zoo.sampler")


def _json_in(counters, args, kwargs, result):
    counters["mdp.json_mb"] += len(args[0]) / 1e6


def _json_out(counters, args, kwargs, result):
    counters["mdp.json_mb"] += len(result) / 1e6


def _stages(counters, args, kwargs, result):
    counters["occupancy.stages"] += result.stages


def _simplex(counters, args, kwargs, result):
    counters["simplex.iterations"] += result.iterations
    _lp_size(counters, args[0])


def _highs(counters, args, kwargs, result):
    _lp_size(counters, kwargs["A_eq"])


def _lp_size(counters, A):
    counters["lp.rows"] += A.shape[0]
    counters["lp.nnz"] += A.nnz


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            own[rec[3]] -= rec[2] - rec[1]
    return own


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Fold spans and counters into every metric of LAYER_METRICS."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    own_total: dict[str, float] = defaultdict(float)
    for rec, own in zip(tracer.spans, self_times(tracer.spans)):
        total[rec[0]] += rec[2] - rec[1]
        calls[rec[0]] += 1
        own_total[rec[0]] += own
    c = tracer.counters
    iters = c["simplex.iterations"]
    out = {
        "simplex.solve_s": total["simplex.solve"],
        "simplex.iterations": iters,
        "simplex.pivot_us": total["simplex.solve"] / iters * 1e6 if iters else 0.0,
        "lp.build_s": total["lp.build"],
        "lp.solve_s": total["lp.solve"],
        "lp.solves": calls["lp.solve"],
        "lp.pin_s": total["lp.pin"],
        "lp.pin_solves": calls["lp.pin"],
        "lp.rows": c["lp.rows"],
        "lp.nnz": c["lp.nnz"],
        "highs.solve_s": total["highs.solve"],
        "highs.solves": calls["highs.solve"],
        "occupancy.search_s": total["occupancy.search"],
        "occupancy.stages": c["occupancy.stages"],
        "occupancy.classify_s": total["occupancy.classify"],
        "priority.q_s": total["priority.q"],
        "mdp.json_load_s": total["mdp.json_load"],
        "mdp.json_dump_s": total["mdp.json_dump"],
        "mdp.json_mb": c["mdp.json_mb"],
        "cli.self_s": own_total["cli.main"],
        "simulator.compile_s": total["simulator.compile"],
        "simulator.alloc_s": total["simulator.alloc"],
        "simulator.step_s": total["simulator.step"],
        "simulator.chunk_self_s": own_total["simulator.simulate"],
        "simulator.per_arm_s": total["simulator.per_arm"],
        "zoo.sampler_s": total["zoo.sampler"],
        "zoo.sampler_calls": calls["zoo.sampler"],
        "oracle.optimal_s": total["oracle.optimal"],
        "oracle.policy_s": total["oracle.policy"],
        # count states visited: one bounded-composition sweep per state in
        # the optimal DP, one allocation per reachable state in the policy DP
        "oracle.count_states": c["oracle.dp_states"] + calls["policies.alloc"],
        "policies.alloc_s": total["policies.alloc"],
        "policies.alloc_calls": calls["policies.alloc"],
        "trace.overhead_s": overhead_s,
    }
    assert set(out) == set(LAYER_METRICS)
    return out
