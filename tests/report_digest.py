"""Digests of the simulator's reports over a fixed grid of runs, and of
the LP stack's results on a few models.

Prints one line per run: the run's key, a digest of every
``SimulationReport`` field but ``wall_time`` and
``diffusion_second_moments``, and last the digest of the moments alone
(floats by their hex form, arrays by dtype, shape and bytes).  Then, per
LP model, one line digests ``solve_relaxation``'s x, value, duals,
pivots, rows and lu_nnz, and one ``search_nondegenerate``'s neutral
counts, certificate and stages, then its witness's x and value (or
None).  Two checkouts give the same lines exactly when their results
agree bit for bit, and a change that moves only the moments' rounding
moves only the last column, so a refactor that must not move a result is
checked with::

    python tests/report_digest.py > new.txt
    python <other checkout>/tests/report_digest.py > old.txt
    diff old.txt new.txt

The script imports the package from the ``src`` beside it.  The grid runs
every policy a model supports (ucb and ts need annotations) on both
engines at N = 8, 60 and 1200, one multi-chunk run of each (a 500-cell
chunk budget), and ``violation_rate_sweep`` for the three
measure-carrying policies, on bern5, bern15, crowd7 and assort3: 200
lines.  The LP lines cover the same four models and TWO with budget
fraction 1 in both periods: 10 more lines, 210 in all, in about ten
seconds on a 2-vCPU machine.  The script reads only the package's public
API, so a copy of it also runs in an older checkout's ``tests``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import fluidbandit.simulator as simulator  # noqa: E402
from fluidbandit.lp import solve_relaxation  # noqa: E402
from fluidbandit.mdp import ArmModel  # noqa: E402
from fluidbandit.occupancy import search_nondegenerate  # noqa: E402
from fluidbandit.zoo import assortment, bernoulli_bandit, crowdsourcing, fixtures  # noqa: E402

MODELS = {"bern5": lambda: bernoulli_bandit(5, 1.0 / 3.0),
          "bern15": lambda: bernoulli_bandit(15, 1.0 / 3.0),
          "crowd7": lambda: crowdsourcing(7, 0.25),
          "assort3": lambda: _quiet(assortment, 3, 0.25)}
POLICIES = ("fluid", "relaxed", "index", "rac", "ucb:0.5", "ts")
# (N, reps, chunk cell budget or None for the package's own)
SHAPES = ((8, 200, None), (60, 130, None), (1200, 40, None), (23, 70, 500))
SWEEP_N, SWEEP_REPS = [8, 60], 150
# the LP lines' models: the simulator grid's, and TWO with every arm pulled
LP_MODELS = {**MODELS, "two-full": lambda: _full(fixtures()["TWO"])}


def _quiet(make, *args):
    # the assortment model warns of its truncation mass at the default caps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return make(*args)


def _full(model):
    """The model with budget fraction 1 in every period."""
    return ArmModel(model.T, model.states, model.s0, R=model.R, alpha=np.ones(model.T),
                    kernel=model.kernel, metadata=model.metadata)


def _encode(value) -> bytes:
    if isinstance(value, dict):
        return b"{" + b",".join(k.encode() + b":" + _encode(v)
                                for k, v in sorted(value.items())) + b"}"
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}".encode() + value.tobytes()
    if isinstance(value, float):
        return value.hex().encode()
    return repr(value).encode()


def _hex(report, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"=" + _encode(getattr(report, name)) + b";")
    return h.hexdigest()[:32]


def digest(report: simulator.SimulationReport) -> str:
    """Hex digests of every field of `report` but wall_time and the moments,
    then of diffusion_second_moments, separated by a space."""
    moments = "diffusion_second_moments"
    names = [f.name for f in dataclasses.fields(report) if f.name not in ("wall_time", moments)]
    return f"{_hex(report, names)} {_hex(report, [moments])}"


def run_line(model_name: str, policy: str, engine: str, N: int, reps: int, seed: int,
             cells: int | None = None) -> str:
    """One simulate run of the grid as `key digest`."""
    model = MODELS[model_name]()
    run = simulator.simulate if engine == "counts" else simulator.simulate_per_arm
    budget = simulator.CHUNK_CELL_BUDGET
    simulator.CHUNK_CELL_BUDGET = cells or budget
    try:
        report = run(model, policy, N, reps, seed)
    finally:
        simulator.CHUNK_CELL_BUDGET = budget
    key = f"{model_name} {policy} {engine} N={N} reps={reps} seed={seed} cells={cells}"
    return f"{key} {digest(report)}"


def sweep_lines(model_name: str, policy: str, seed: int) -> list[str]:
    """``violation_rate_sweep`` over SWEEP_N, one `key digest` line per N."""
    reports = simulator.violation_rate_sweep(MODELS[model_name](), policy, SWEEP_N,
                                             SWEEP_REPS, seed)
    return [f"{model_name} {policy} violations N={rep.N} reps={SWEEP_REPS} seed={seed} "
            f"{digest(rep)}" for rep in reports]


def lp_lines(model_name: str) -> list[str]:
    """``solve_relaxation`` and ``search_nondegenerate`` of one model, one
    `key digest` line each."""
    model = LP_MODELS[model_name]()
    measure = solve_relaxation(model)
    search = search_nondegenerate(model)
    witness = search.witness and {"x": search.witness.x, "value": search.witness.value}
    return [f"{model_name} relaxation "
            + _hex(measure, ["x", "value", "duals", "pivots", "rows", "lu_nnz"]),
            f"{model_name} search " + _hex(search, ["neutral_counts", "certificate", "stages"])
            + " " + hashlib.sha256(_encode(witness)).hexdigest()[:32]]


def lines(seed: int = 17):
    for model_name in MODELS:
        annotated = bool(MODELS[model_name]().annotations)
        for policy in POLICIES:
            if policy in ("ucb:0.5", "ts") and not annotated:
                continue
            for engine in ("counts", "per_arm"):
                for N, reps, cells in SHAPES:
                    yield run_line(model_name, policy, engine, N, reps, seed, cells)
        for policy in ("fluid", "relaxed", "rac"):
            yield from sweep_lines(model_name, policy, seed)
    for model_name in LP_MODELS:
        yield from lp_lines(model_name)


if __name__ == "__main__":
    for line in lines():
        print(line, flush=True)
